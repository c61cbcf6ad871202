"""The executor protocol every transport backend implements.

A streaming pass is, per set, a pure map against a read-only residual —
only the accept/pick step needs ordered reconciliation.  A
:class:`ScanExecutor` runs the per-chunk work of a gains scan
(``|r_i ∩ residual|`` for every row, plus captured projections —
:func:`repro.setsystem.packed.scan_chunk` and
:meth:`repro.setsystem.shards.ShardedRepository.scan_shard`) on some
substrate — inline, a thread pool, a process pool, a fleet of remote
workers — and delivers the per-chunk results **in chunk order** through
the shared merge layer (:mod:`repro.engine.merge`).  Because every chunk
is keyed by its position in the chunk sequence and workers never share
state, covers, tie-breaks and pass counts are bit-identical on every
backend — the property tests in ``tests/test_parallel.py`` and
``tests/test_remote.py`` assert exactly that.

Adding a backend means implementing the one ``iter_scan_repository``
primitive (and, optionally, the ``iter_accept_repository`` fused-accept
flavour) in a new module under :mod:`repro.engine.transport` — the
protocol, the merge discipline and every algorithm above it stay
untouched.
"""

from __future__ import annotations

import abc

from repro.engine.merge import merge_scan_parts, simulate_accepts

__all__ = ["ScanExecutor"]


class ScanExecutor(abc.ABC):
    """Strategy object running the per-chunk work of one gains scan.

    The one primitive is *streaming*: ``iter_scan_repository`` yields
    ``(start, gains, captured)`` per shard of a repository — on-disk
    (:class:`~repro.setsystem.shards.ShardedRepository`) or in-memory
    (:class:`~repro.setsystem.in_memory.InMemoryRepository`) — **in
    chunk order**, so a caller replaying captures holds at most one
    chunk's worth at a time (the bounded-capture discipline of
    DESIGN.md §6.1).  The eager :meth:`scan_repository` wrapper merges
    the full scan for callers that want the whole gains vector
    (benchmarks, tests).

    The accept flavour (``iter_accept_repository``) additionally runs the
    in-chunk threshold-accept simulation
    (:func:`repro.engine.merge.simulate_accepts`) and yields
    ``(start, captured, AcceptBatch)`` per chunk; the process and remote
    backends run the simulation inside their workers (worker-side
    residual fusion, DESIGN.md §8.4).
    """

    jobs: int = 1

    #: The transport family this executor belongs to (``"serial"``,
    #: ``"thread"``, ``"process"``, ``"remote"``, ...).
    transport: str = "serial"

    @property
    def cache_stats(self) -> "dict | None":
        """Hot-cache counters behind this executor's scans, or ``None``.

        The default covers the driver-side consumers (serial, thread):
        the process-wide :mod:`repro.engine.cache` counters.  The
        process and remote backends override this with counters
        aggregated from their workers.  Observability only — surfaced
        via ``ScanResult.extra["cache"]``, never consulted by results.
        """
        from repro.engine.cache import get_cache

        cache = get_cache()
        return cache.stats() if cache.enabled else None

    @abc.abstractmethod
    def iter_scan_repository(
        self,
        repository,
        mask_int: int,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
        include_gains: bool = True,
    ):
        """Yield ``(start, gains, captured)`` per shard, in order."""

    def iter_accept_repository(self, repository, mask_int: int, threshold: int):
        """Yield ``(start, captured, AcceptBatch)`` per shard, in order."""
        for start, _, captured in self.iter_scan_repository(
            repository, mask_int,
            min_capture_gain=threshold, include_gains=False,
        ):
            yield start, captured, simulate_accepts(mask_int, threshold, captured)

    def scan_repository(self, repository, mask_int, **kwargs):
        """Eager merge of :meth:`iter_scan_repository`."""
        return merge_scan_parts(
            list(self.iter_scan_repository(repository, mask_int, **kwargs))
        )

    def close(self) -> None:
        """Release executor resources (pools are shared; see transports)."""
