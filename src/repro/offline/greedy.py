"""The classic greedy set-cover algorithm (rho = H_n <= ln n + 1).

Two packed-kernel execution strategies sit behind one entry point
(DESIGN.md §4):

* ``python`` — lazy-heap greedy over big-int bitmaps: residual coverage
  of a set only shrinks over time, so a stale heap entry whose recomputed
  gain still tops the heap is genuinely the best set;
* ``numpy`` — full gain recomputation per pick as one vectorized
  popcount over the m x ceil(n/64) block matrix, followed by ``argmax``.

Both strategies (and the seed's ``frozenset`` reference, kept for
benchmarking and property tests) pick the maximum-gain set with ties
broken toward the lower set index, so all backends return *identical*
covers — the backend-equivalence tests in ``tests/test_packed.py`` pin
this down.

With ``jobs > 1`` the numpy strategy runs each pick's gains scan
through a :class:`~repro.engine.transport.thread.ThreadScanExecutor` over
an :class:`~repro.setsystem.in_memory.InMemoryRepository` — row slices of
the block matrix (DESIGN.md §8.5): every slice ships its
first-max candidate, and the reduction keeps the strictly larger gain
(ascending chunks, so ties stay with the lowest row index) — the exact
argmax the serial kernel computes, now on every core.  The packed
kernels release the GIL, so threads scale without copying the matrix.
"""

from __future__ import annotations

import heapq

from repro.offline.base import InfeasibleInstanceError, OfflineSolver
from repro.setsystem.packed import PackedFamily, resolve_backend
from repro.engine import JOBS_AUTO, ThreadScanExecutor, resolve_jobs
from repro.setsystem.in_memory import InMemoryRepository
from repro.setsystem.set_system import SetSystem
from repro.utils.mathutil import harmonic

__all__ = ["GreedySolver", "greedy_cover"]


def greedy_cover(
    system: SetSystem, backend: str = "auto", jobs=1
) -> list[int]:
    """Return the greedy cover of ``system`` (indices in pick order).

    Ties are broken toward the lower set index so results are deterministic
    (and independent of ``backend`` — and of ``jobs``, which only fans the
    numpy gains scan out over threads).  Raises
    :class:`InfeasibleInstanceError` if the family is not a cover.
    """
    resolved = resolve_backend(backend, n=system.n, m=system.m, kind="family")
    if resolved == "frozenset":
        return _greedy_cover_frozenset(system)
    family = system.packed(resolved)
    if family.backend == "numpy":
        words = (system.n + 63) // 64
        count = resolve_jobs(jobs, repository_words=system.m * words)
        if count > 1:
            return _greedy_cover_argmax_threaded(system, count)
        return _greedy_cover_argmax(family)
    return _greedy_cover_bigint(family)


def _infeasible(kernel, residual) -> InfeasibleInstanceError:
    return InfeasibleInstanceError(
        f"{kernel.count(residual)} elements cannot be covered "
        f"(e.g. {kernel.to_indices(residual)[:10]})"
    )


def _greedy_cover_bigint(family: PackedFamily) -> list[int]:
    """Lazy-heap greedy over big-int bitmaps.

    The gain test is a two-opcode `&`/`bit_count` on arbitrary-precision
    ints, inlined (no kernel dispatch) because it runs once per heap pop.
    """
    rows = family.rows
    residual = family.kernel.full()
    if not residual:
        return []

    # Max-heap of (-gain, set_id); gains are lazily refreshed.
    heap: list[tuple[int, int]] = [
        (-size, set_id) for set_id, size in enumerate(family.sizes()) if size
    ]
    heapq.heapify(heap)
    chosen: list[int] = []

    while residual:
        while heap:
            neg_gain, set_id = heapq.heappop(heap)
            gain = (rows[set_id] & residual).bit_count()
            if gain == 0:
                continue
            if gain == -neg_gain:
                # Entry was fresh: this really is the best set.
                chosen.append(set_id)
                residual &= ~rows[set_id]
                break
            heapq.heappush(heap, (-gain, set_id))
        else:
            raise _infeasible(family.kernel, residual)
    return chosen


def _greedy_cover_argmax(family: PackedFamily) -> list[int]:
    """Vectorized greedy: one all-rows gain kernel + argmax per pick."""
    kernel = family.kernel
    residual = kernel.full()
    chosen: list[int] = []
    while not kernel.is_empty(residual):
        gain, set_id = family.best_gain(residual)
        if gain == 0:
            raise _infeasible(kernel, residual)
        chosen.append(set_id)
        residual = kernel.subtract(residual, family.row(set_id))
    return chosen


def _greedy_cover_argmax_threaded(system: SetSystem, jobs: int) -> list[int]:
    """Thread-parallel argmax greedy over matrix row slices.

    Each pick runs one ``best_only`` repository scan over the system's
    ``2 * jobs`` row slices on the shared thread pool; the driver keeps
    the strictly larger gain while consuming slices in ascending row
    order, which is exactly the serial kernel's first-max tie-break.
    """
    family = system.packed("numpy")
    kernel = family.kernel
    executor = ThreadScanExecutor(jobs)
    repository = InMemoryRepository(system, lanes=jobs)
    residual = kernel.full()
    chosen: list[int] = []
    while not kernel.is_empty(residual):
        best_id, best_gain = -1, 0
        for _, _, captured in executor.iter_scan_repository(
            repository, kernel.to_mask_int(residual),
            best_only=True, include_gains=False,
        ):
            for row_id, projection in captured:
                gain = projection.bit_count()
                if gain > best_gain:
                    best_id, best_gain = row_id, gain
        if best_gain == 0:
            raise _infeasible(kernel, residual)
        chosen.append(best_id)
        residual = kernel.subtract(residual, family.row(best_id))
    return chosen


def _greedy_cover_frozenset(system: SetSystem) -> list[int]:
    """The seed's frozenset implementation — the benchmark baseline."""
    uncovered: set[int] = set(range(system.n))
    if not uncovered:
        return []

    heap: list[tuple[int, int]] = [
        (-len(r), set_id) for set_id, r in enumerate(system.sets) if r
    ]
    heapq.heapify(heap)
    chosen: list[int] = []

    while uncovered:
        while heap:
            neg_gain, set_id = heapq.heappop(heap)
            gain = len(system[set_id] & uncovered)
            if gain == 0:
                continue
            if gain == -neg_gain:
                chosen.append(set_id)
                uncovered -= system[set_id]
                break
            heapq.heappush(heap, (-gain, set_id))
        else:
            raise InfeasibleInstanceError(
                f"{len(uncovered)} elements cannot be covered "
                f"(e.g. {sorted(uncovered)[:10]})"
            )
    return chosen


class GreedySolver(OfflineSolver):
    """Offline solver wrapper around :func:`greedy_cover` (rho = H_n).

    ``jobs`` fans the numpy argmax scan out over threads (``"auto"``
    stays serial below the parallel threshold, so the tiny mid-stream
    subproblems of ``iterSetCover`` never pay thread overhead); covers
    are identical at every setting.
    """

    name = "greedy"

    def __init__(self, backend: str = "auto", jobs=1):
        resolve_backend(backend)  # validate eagerly
        if jobs is not None and jobs != JOBS_AUTO:
            resolve_jobs(jobs)
        self.backend = backend
        self.jobs = jobs

    def solve(self, system: SetSystem) -> list[int]:
        return greedy_cover(system, backend=self.backend, jobs=self.jobs)

    def rho(self, n: int) -> float:
        return harmonic(max(n, 1))
