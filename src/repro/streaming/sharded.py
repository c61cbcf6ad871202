"""Out-of-core streaming: the pass-counted protocol over an on-disk repository.

:class:`ShardedSetStream` is the sharded twin of
:class:`~repro.streaming.stream.SetStream`: same pass discipline, same
counters, same row formats — but the family is scanned sequentially from a
shard directory (:mod:`repro.setsystem.shards`) instead of an in-RAM
:class:`~repro.setsystem.set_system.SetSystem`.  Because algorithms are
written against the stream protocol only, ``iterSetCover``, the greedy
baselines and the partial-cover passes run **unchanged** on instances that
never fit in memory; the ``parity`` suite of ``python -m repro
experiments`` checks cover-for-cover, pass-for-pass agreement between the
two streams.

The only model difference is accounting: a sharded scan holds one chunk
of packed rows resident, so :attr:`ShardedSetStream.resident_words`
reports that buffer (``chunk_rows * ceil(n/64)`` words) and algorithms
fold it into their reported peak (DESIGN.md §3.6).  The repository itself
stays on disk and is never charged.

Examples
--------
>>> import tempfile
>>> from repro.setsystem import SetSystem
>>> from repro.setsystem.shards import write_shards
>>> system = SetSystem(4, [[0, 1], [2], [1, 3]])
>>> tmp = tempfile.TemporaryDirectory()
>>> stream = ShardedSetStream(write_shards(tmp.name + "/repo", system))
>>> [sorted(r) for _, r in stream.iterate()]
[[0, 1], [2], [1, 3]]
>>> stream.passes, stream.n, stream.m
(1, 4, 3)
>>> stream.close(); tmp.cleanup()
"""

from __future__ import annotations

from pathlib import Path

from repro.engine import JOBS_AUTO
from repro.setsystem.deltas import open_repository
from repro.setsystem.shards import ShardedRepository
from repro.streaming.stream import SetStreamBase

__all__ = ["ShardedSetStream"]


class ShardedSetStream(SetStreamBase):
    """Pass-counted sequential access to a sharded on-disk repository.

    Parameters
    ----------
    repository:
        A :class:`~repro.setsystem.shards.ShardedRepository`, or a path to
        a shard directory (opened, and then owned, by the stream).
    verify:
        When opening from a path: verify shard checksums first.
    jobs:
        Scan-executor parallelism for :meth:`~repro.streaming.stream.SetStreamBase.scan_gains`
        (``"auto"`` or a positive worker count).  Worker processes
        re-open the repository and scan whole shards via their own
        ``mmap``; covers, pass counts and tie-breaks are identical at
        every setting (DESIGN.md §6).
    planner:
        Adaptive scan planning (DESIGN.md §8): manifest-statistics
        cost-balanced shard schedules, overlapped prefetch I/O and
        ``madvise`` readahead.  ``False`` reproduces the PR 3 execution
        order (one task per shard, index order, no prefetch); results
        are identical either way.
    transport:
        Scan-engine backend family (``"local"``, ``"serial"``,
        ``"thread"``, ``"process"``, ``"remote"``; ``None`` = local
        auto).  ``"remote"`` spreads scans over
        ``python -m repro worker serve`` processes, which re-open this
        repository by path + manifest token (DESIGN.md §9); results are
        bit-identical to every local backend.
    workers:
        Remote worker addresses (implies ``transport="remote"``); the
        CLI's ``host:port,host:port`` string or ``(host, port)`` pairs
        (:func:`repro.engine.plan.resolve_workers`).
    retry:
        Remote failure handling: anything
        :meth:`repro.engine.fault.RetryPolicy.resolve` accepts (``None``
        = fail-loud, a :class:`~repro.engine.fault.RetryPolicy`, or a
        dict of its knobs — the CLI's ``--retry-*`` flag bundle).  Only
        meaningful with the remote transport; recoverable faults land in
        :attr:`~repro.streaming.stream.SetStreamBase.fault_log` and
        results stay bit-identical whether or not retries fire.
    """

    def __init__(
        self,
        repository: "ShardedRepository | str | Path",
        verify: bool = False,
        jobs=JOBS_AUTO,
        planner: bool = True,
        transport: "str | None" = None,
        workers=None,
        retry=None,
    ):
        if isinstance(repository, (str, Path)):
            # Delta-aware: a repository with pending delta generations
            # opens as its merged view (tombstones win, newest
            # generation wins) — same scan interface, same parity
            # guarantees across local backends (DESIGN.md §11).
            repository = open_repository(repository, verify=verify)
        super().__init__(repository, jobs, planner, transport, workers, retry)

    @property
    def repository(self) -> ShardedRepository:
        """The underlying on-disk repository."""
        return self._repo

    def close(self) -> None:
        """Release the repository's memory maps and the scan executor.

        Executor close matters on the remote transport: it tears down
        any interposed ``REPRO_CHAOS`` proxies (connections themselves
        are per-scan and never outlive their iterator).
        """
        if self._executor is not None:
            self._executor.close()
        self._repo.close()

    def __repr__(self) -> str:
        return f"ShardedSetStream({self._repo!r}, passes={self.passes})"
