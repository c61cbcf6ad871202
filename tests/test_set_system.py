"""Tests for the SetSystem data structure."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.setsystem import SetSystem


def small_systems():
    """Hypothesis strategy for small random set systems."""
    return st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1)),
            min_size=0,
            max_size=10,
        ).map(lambda sets: SetSystem(n, sets))
    )


class TestConstruction:
    def test_basic(self, tiny_system):
        assert tiny_system.n == 4
        assert tiny_system.m == 5

    def test_out_of_range_element(self):
        with pytest.raises(ValueError):
            SetSystem(3, [[0, 3]])

    def test_negative_element(self):
        with pytest.raises(ValueError):
            SetSystem(3, [[-1]])

    def test_empty_instance(self):
        system = SetSystem(0, [])
        assert system.n == 0 and system.m == 0
        assert system.is_cover([])

    def test_duplicate_sets_kept(self):
        system = SetSystem(2, [[0], [0]])
        assert system.m == 2

    def test_equality_and_hash(self):
        a = SetSystem(3, [[0], [1, 2]])
        b = SetSystem(3, [[0], [2, 1]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != SetSystem(3, [[1, 2], [0]])  # order matters

    def test_repr(self, tiny_system):
        assert "SetSystem" in repr(tiny_system)


class TestQueries:
    def test_is_cover(self, tiny_system):
        assert tiny_system.is_cover([0, 1])
        assert not tiny_system.is_cover([0])
        with pytest.raises(IndexError, match="outside"):
            tiny_system.is_cover([-1])  # negative ids must not wrap

    def test_covered_by(self, tiny_system):
        assert tiny_system.covered_by([0, 2]) == frozenset({0, 1, 2})

    def test_uncovered_by(self, tiny_system):
        assert tiny_system.uncovered_by([0]) == frozenset({2, 3})

    def test_is_feasible(self, tiny_system, infeasible_system):
        assert tiny_system.is_feasible()
        assert not infeasible_system.is_feasible()

    def test_element_frequency(self, tiny_system):
        assert tiny_system.element_frequency(0) == 2
        assert tiny_system.element_frequency(3) == 2
        with pytest.raises(ValueError):
            tiny_system.element_frequency(4)

    def test_sizes(self, tiny_system):
        assert tiny_system.max_set_size() == 2
        assert tiny_system.sparsity() == 2
        assert tiny_system.total_size() == 8

    def test_masks(self, tiny_system):
        masks = tiny_system.masks()
        assert masks[0] == 0b0011
        assert masks[1] == 0b1100


class TestTransformations:
    def test_restrict_elements_renumbers(self, tiny_system):
        sub = tiny_system.restrict_elements([1, 3])
        assert sub.n == 2
        # set 0 = {0,1} -> {1} -> renumbered {0}; set 1 = {2,3} -> {3} -> {1}
        assert sub[0] == frozenset({0})
        assert sub[1] == frozenset({1})

    def test_restrict_keeps_set_count(self, tiny_system):
        assert tiny_system.restrict_elements([0]).m == tiny_system.m

    def test_restrict_rejects_bad_elements(self, tiny_system):
        with pytest.raises(ValueError):
            tiny_system.restrict_elements([9])

    def test_subfamily(self, tiny_system):
        sub = tiny_system.subfamily([1, 0])
        assert sub[0] == tiny_system[1]
        assert sub[1] == tiny_system[0]

    def test_residual(self, tiny_system):
        residual = tiny_system.residual([0])  # covers {0,1}; left {2,3}
        assert residual.n == 2
        assert residual.is_feasible()

    def test_without_dominated(self):
        system = SetSystem(4, [[0, 1], [0], [2, 3], [2, 3], [1]])
        pruned, keep = system.without_dominated_sets()
        assert 1 not in keep  # {0} subset of {0,1}
        assert 4 not in keep  # {1} subset of {0,1}
        # exactly one of the duplicate {2,3} survives
        assert sum(1 for i in keep if system[i] == frozenset({2, 3})) == 1
        assert pruned.is_feasible()


@given(small_systems())
def test_cover_by_all_sets_iff_feasible(system):
    assert system.is_cover(range(system.m)) == system.is_feasible()


@given(small_systems())
def test_dominance_pruning_preserves_coverage(system):
    pruned, keep = system.without_dominated_sets()
    assert pruned.covered_by(range(pruned.m)) == system.covered_by(range(system.m))
    # Pruned family sets are exactly the kept originals, in order.
    assert [pruned[i] for i in range(pruned.m)] == [system[i] for i in keep]


@given(small_systems(), st.sets(st.integers(min_value=0, max_value=11)))
def test_restrict_projects_every_set(system, keep):
    keep = {e for e in keep if e < system.n}
    if not keep:
        return
    ordered = sorted(keep)
    sub = system.restrict_elements(ordered)
    renumber = {old: new for new, old in enumerate(ordered)}
    for original, projected in zip(system.sets, sub.sets):
        assert projected == frozenset(renumber[e] for e in original if e in keep)
