"""The reference backend: one chunk at a time, in order, inline.

Also home of the planner's serial I/O overlap (DESIGN.md §8.3):
``madvise`` readahead hints one shard ahead of the read head and — on
machines with a second core — a double-buffered decode pipeline on a
small shared thread pool.
"""

from __future__ import annotations

import concurrent.futures
import os

from repro.engine.cache import cached_scan_shard
from repro.engine.transport.base import ScanExecutor
from repro.setsystem.packed import ScanMask

__all__ = ["SerialScanExecutor"]

#: The serial decode-ahead pipeline needs a second core to overlap
#: decode with replay; below this many CPUs it degenerates to thread
#: hop overhead, so the planner keeps only the ``madvise`` hints.
_PIPELINE_MIN_CPUS = 2

_PREFETCH_POOL: "concurrent.futures.ThreadPoolExecutor | None" = None


def _get_prefetch_pool():
    global _PREFETCH_POOL
    if _PREFETCH_POOL is None:
        _PREFETCH_POOL = concurrent.futures.ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-prefetch"
        )
    return _PREFETCH_POOL


def _shutdown_prefetch_pool() -> None:
    global _PREFETCH_POOL
    if _PREFETCH_POOL is not None:
        _PREFETCH_POOL.shutdown(wait=False, cancel_futures=True)
        _PREFETCH_POOL = None


class SerialScanExecutor(ScanExecutor):
    """The reference executor: one chunk at a time, in order, inline.

    With ``prefetch=True`` (the planner default) repository scans issue
    ``madvise`` readahead hints one shard ahead of the read head, and —
    on machines with at least :data:`_PIPELINE_MIN_CPUS` cores — run a
    double-buffered pipeline: while the caller consumes chunk ``N``, a
    background thread decodes chunk ``N+1`` (the numpy kernels release
    the GIL, so decode and replay genuinely overlap).  On a single core
    the pipeline would be pure thread-hop overhead, so only the hints
    remain.  Chunks are still yielded strictly in order; results are
    identical at every setting.
    """

    jobs = 1
    transport = "serial"

    def __init__(self, prefetch: bool = False):
        self.prefetch = prefetch

    def iter_scan_repository(
        self, repository, mask_int, min_capture_gain=None, capture_ids=None,
        best_only=False, include_gains=True,
    ):
        mask = ScanMask(repository.n, mask_int)

        def scan(shard: int):
            return cached_scan_shard(
                repository, shard, mask,
                min_capture_gain=min_capture_gain,
                capture_ids=capture_ids,
                best_only=best_only,
            )

        count = repository.shard_count
        hint = getattr(repository, "prefetch_shard", None)
        pipeline = (
            self.prefetch
            and count > 1
            and (os.cpu_count() or 1) >= _PIPELINE_MIN_CPUS
        )
        if not pipeline:
            for shard in range(count):
                if self.prefetch and hint is not None and shard + 1 < count:
                    hint(shard + 1)
                start, gains, captured = scan(shard)
                yield start, (gains if include_gains else None), captured
            return
        pool = _get_prefetch_pool()
        if hint is not None:
            hint(0)
        pending = pool.submit(scan, 0)
        upcoming = None
        try:
            for shard in range(count):
                if hint is not None and shard + 1 < count:
                    hint(shard + 1)
                upcoming = (
                    pool.submit(scan, shard + 1) if shard + 1 < count else None
                )
                start, gains, captured = pending.result()
                pending, upcoming = upcoming, None
                yield start, (gains if include_gains else None), captured
        finally:
            # Reap BOTH slots: when pending.result() raised, `upcoming`
            # still holds the just-submitted next scan — never orphan it.
            for future in (pending, upcoming):
                if future is not None and not future.cancel():
                    future.exception()  # wait it out; never orphan a scan
