"""Thread-pool backend: shared-address-space fan-out for in-memory work.

Threads share the address space, so in-memory families
(:class:`~repro.setsystem.in_memory.InMemoryRepository`) need no
serialization at all — and the packed numpy kernels release the GIL, so
shard scans genuinely overlap.  In-memory streams with ``jobs > 1`` scan
here, and so do the offline hot paths (the ``algOfflineSC`` greedy
argmax and, via :func:`thread_map`, domination pruning; DESIGN.md §8.5).
Sharded repositories default to processes, whose workers want their own
``mmap``.
"""

from __future__ import annotations

import concurrent.futures

from repro.engine.cache import cached_scan_shard
from repro.engine.transport.base import ScanExecutor
from repro.setsystem.packed import ScanMask

__all__ = ["ThreadScanExecutor", "thread_map"]

_THREAD_POOLS: dict[int, "concurrent.futures.ThreadPoolExecutor"] = {}


def _get_thread_pool(jobs: int):
    pool = _THREAD_POOLS.get(jobs)
    if pool is None:
        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-scan"
        )
        _THREAD_POOLS[jobs] = pool
    return pool


def _shutdown_thread_pools() -> None:
    for pool in _THREAD_POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _THREAD_POOLS.clear()


def thread_map(fn, items, jobs: int) -> list:
    """Map ``fn`` over ``items`` on the shared scan thread pool.

    Results come back in item order, so callers stay deterministic
    however the threads interleave.  Falls back to a plain loop for
    ``jobs <= 1`` or single-item inputs.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    return list(_get_thread_pool(jobs).map(fn, items))


class ThreadScanExecutor(ScanExecutor):
    """Chunk scans fanned out over a shared thread pool.

    Futures are drained in submission order — which is chunk order — so
    the merge discipline holds without an explicit reorder window.
    """

    transport = "thread"

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError(f"ThreadScanExecutor needs jobs >= 2, got {jobs}")
        self.jobs = jobs

    def iter_scan_repository(
        self, repository, mask_int, min_capture_gain=None, capture_ids=None,
        best_only=False, include_gains=True,
    ):
        mask = ScanMask(repository.n, mask_int)
        if not mask.is_empty:
            mask.arr  # build the shared packed view before fanning out
        pool = _get_thread_pool(self.jobs)
        futures = [
            pool.submit(
                cached_scan_shard, repository, shard, mask,
                min_capture_gain=min_capture_gain,
                capture_ids=capture_ids,
                best_only=best_only,
            )
            for shard in range(repository.shard_count)
        ]
        try:
            for future in futures:  # submission order == chunk order
                start, gains, captured = future.result()
                yield start, (gains if include_gains else None), captured
        finally:
            # An abandoned pass must not leave pool threads scanning a
            # repository the caller is about to close (same contract as
            # the serial pipeline and the process drain).
            for future in futures:
                future.cancel()
            concurrent.futures.wait(futures)
