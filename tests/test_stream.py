"""Tests for the streaming access model."""

from __future__ import annotations

import pytest

from repro.setsystem import SetSystem, write_shards
from repro.streaming import (
    ResourceReport,
    SetStream,
    ShardedSetStream,
    StreamAccessError,
)


class TestPassCounting:
    def test_initial_state(self, tiny_system):
        stream = SetStream(tiny_system)
        assert stream.passes == 0
        assert stream.n == 4 and stream.m == 5

    def test_full_pass_counts_once(self, tiny_system):
        stream = SetStream(tiny_system)
        items = list(stream.iterate())
        assert stream.passes == 1
        assert [set_id for set_id, _ in items] == list(range(5))

    def test_multiple_passes(self, tiny_system):
        stream = SetStream(tiny_system)
        for _ in range(3):
            list(stream.iterate())
        assert stream.passes == 3

    def test_abandoned_pass_still_counts(self, tiny_system):
        stream = SetStream(tiny_system)
        for set_id, _ in stream.iterate():
            if set_id == 1:
                break
        assert stream.passes == 1
        # After the early exit, a new pass can be opened.
        list(stream.iterate())
        assert stream.passes == 2

    def test_nested_pass_rejected(self, tiny_system):
        stream = SetStream(tiny_system)
        iterator = stream.iterate()
        next(iterator)
        with pytest.raises(StreamAccessError):
            next(stream.iterate())
        iterator.close()

    def test_reset(self, tiny_system):
        stream = SetStream(tiny_system)
        list(stream.iterate())
        stream.reset_passes()
        assert stream.passes == 0

    def test_reset_mid_pass_rejected(self, tiny_system):
        stream = SetStream(tiny_system)
        iterator = stream.iterate()
        next(iterator)
        with pytest.raises(StreamAccessError):
            stream.reset_passes()
        iterator.close()


class TestOrderAndContent:
    def test_repository_order(self, tiny_system):
        stream = SetStream(tiny_system)
        sets = [r for _, r in stream.iterate()]
        assert sets == list(tiny_system.sets)

    def test_verify_solution_does_not_cost_a_pass(self, tiny_system, tmp_path):
        sharded = ShardedSetStream(write_shards(tmp_path / "r", tiny_system))
        for stream in (SetStream(tiny_system), sharded):
            assert stream.verify_solution([0, 1])
            assert not stream.verify_solution([0])
            with pytest.raises(IndexError, match="outside"):
                stream.verify_solution([-1])  # negative ids must not wrap
            assert stream.passes == 0
        sharded.close()


class TestResourceReport:
    def test_as_row(self):
        report = ResourceReport(passes=3, peak_memory_words=10, solution_size=2)
        row = report.as_row()
        assert row["passes"] == 3
        assert row["space(words)"] == 10
        assert row["|sol|"] == 2

    def test_extra_fields_merge(self):
        report = ResourceReport(extra={"algorithm": "x"})
        assert report.as_row()["algorithm"] == "x"
