"""The data-stream access model of the paper.

"The sets r_1, ..., r_m are stored consecutively in a read-only repository
and an algorithm can access the sets only by performing sequential scans of
the repository."  (Section 1.)

:class:`SetStreamBase` enforces exactly that over one read interface, the
*repository* (``n``, ``m``, ``shard_count``, ``scan_shard``, chunk and row
iterators, ``row_mask``): the only way to see the family is to open a pass
and consume it sequentially; every completed (or abandoned) pass increments
the pass counter.  Random access raises.  Two repositories implement the
interface:

* :class:`~repro.setsystem.in_memory.InMemoryRepository` — the family lives
  in an in-RAM :class:`~repro.setsystem.set_system.SetSystem`
  (:class:`SetStream`, the seed's model);
* :class:`~repro.setsystem.shards.ShardedRepository` — the family lives in
  an on-disk shard directory, scanned chunk by chunk, so instances never
  need to fit in memory (:class:`~repro.streaming.sharded.ShardedSetStream`).

Algorithms are written against the protocol only (``n``, ``m``,
``passes``, ``iterate``, ``iterate_packed``, ``scan_gains_chunked``,
``scan_accepts_chunked``), so the same pass-for-pass code runs over both
repositories.

Space accounting rule (DESIGN.md §3.6): the repository itself is *never*
charged to an algorithm — it is the read-only input, whether it resides in
the referee's RAM or on disk.  What **is** charged is the stream's
resident scan buffer, exposed as :attr:`SetStreamBase.resident_words`:
zero for :class:`SetStream` (rows are handed out by reference), one chunk
of packed words for the sharded stream.  Algorithms add it to their
reported peak so out-of-core runs stay honest.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.engine import (
    JOBS_AUTO,
    ScanResult,
    executor_for,
    merge_scan_parts,
)
from repro.setsystem.deltas import MergedShardView
from repro.setsystem.in_memory import InMemoryRepository
from repro.setsystem.set_system import SetSystem

__all__ = [
    "SetStream",
    "SetStreamBase",
    "StreamAccessError",
    "ResourceReport",
    "stream_resident_words",
]


class StreamAccessError(RuntimeError):
    """Raised on illegal access patterns (nested or random access)."""


@dataclass
class ResourceReport:
    """The two resources the paper bounds, plus solution metadata.

    ``peak_memory_words`` counts only *resident* working memory: the
    algorithm's own state plus the stream's scan buffer
    (:attr:`SetStreamBase.resident_words`).  The repository itself — in
    RAM or on disk — is the read-only input and is never included
    (DESIGN.md §3.6).
    """

    passes: int = 0
    peak_memory_words: int = 0
    solution_size: "int | None" = None
    extra: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        row = {
            "passes": self.passes,
            "space(words)": self.peak_memory_words,
            "|sol|": self.solution_size,
        }
        row.update(self.extra)
        return row


def stream_resident_words(stream) -> int:
    """The stream's resident scan-buffer size in words (0 if unreported).

    Helper for algorithms: ``peak_memory_words`` must include this so
    out-of-core runs account for their chunk buffer (DESIGN.md §3.6).
    """
    return getattr(stream, "resident_words", 0)


class SetStreamBase:
    """Pass-counted sequential access to a repository: the protocol.

    Holds the repository and the scan knobs, enforces the single-read-head
    discipline and counts passes.  Every pass flavour reads the family
    through the repository interface only, so one implementation serves
    in-memory and on-disk families alike.

    Parameters
    ----------
    repository:
        An :class:`~repro.setsystem.in_memory.InMemoryRepository`, a
        :class:`~repro.setsystem.shards.ShardedRepository` or a
        :class:`~repro.setsystem.deltas.MergedShardView`.
    jobs, planner, transport, workers, retry:
        The scan-executor knobs (:func:`repro.engine.executor_for`).
        The process and remote transports re-open the repository by
        path in their workers, so a repository without a ``path`` (an
        in-memory family) refuses them here; an in-memory family scans
        with threads when ``jobs`` resolves above one.
    """

    def __init__(
        self,
        repository,
        jobs=JOBS_AUTO,
        planner: bool = True,
        transport: "str | None" = None,
        workers=None,
        retry=None,
    ):
        if repository.path is None and (
            transport in ("process", "remote") or workers
        ):
            raise ValueError(
                f"the {transport or 'remote'} transport scans on-disk shard "
                "repositories only: its workers re-open the family by path, "
                "and an in-memory family has none. Write it with `repro "
                "shard create` (or write_shards) and open a ShardedSetStream."
            )
        if isinstance(repository, MergedShardView) and (
            transport == "remote" or workers
        ):
            raise ValueError(
                "the remote transport cannot scan a repository with "
                f"{repository.pending_deltas} pending delta generation(s): "
                "remote workers re-open the base by path and hold no chain "
                "state. Run `repro shard compact` first."
            )
        self._repo = repository
        self._jobs = jobs
        self._planner = bool(planner)
        self._transport = transport
        self._workers = workers
        self._retry = retry
        self._executor = None
        self._materialized: "SetSystem | None" = None
        self._passes = 0
        self._in_pass = False

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Ground-set size (known to the algorithm up front)."""
        return self._repo.n

    @property
    def m(self) -> int:
        """Number of sets in the repository.

        The paper's algorithms know m (it appears in their sample sizes), so
        the stream exposes it as metadata without costing a pass.
        """
        return self._repo.m

    @property
    def passes(self) -> int:
        """Number of passes opened so far."""
        return self._passes

    @property
    def resident_words(self) -> int:
        """Words of scan buffer resident while a pass is open.

        The repository's ``chunk_words``: zero for in-memory families
        (rows are yielded by reference), one chunk of packed words
        (``chunk_rows * ceil(n/64)``) for on-disk ones.  Algorithms fold
        this into their reported peak (DESIGN.md §3.6).
        """
        return self._repo.chunk_words

    def reset_passes(self) -> None:
        """Zero the pass counter (for reusing one stream across runs)."""
        if self._in_pass:
            raise StreamAccessError("cannot reset the counter mid-pass")
        self._passes = 0

    # ------------------------------------------------------------------
    def _scan(self, make_rows) -> Iterator[tuple[int, object]]:
        """Open a pass over ``make_rows()`` with the single-read-head rules.

        Opening a pass while another is active raises — the streaming model
        has a single read head.  A pass counts as soon as it is opened,
        whether or not it is consumed to the end (an early exit still had to
        rewind the repository).
        """
        if self._in_pass:
            raise StreamAccessError("a pass is already in progress")
        rows = make_rows()
        self._in_pass = True
        self._passes += 1
        try:
            yield from rows
        finally:
            self._in_pass = False

    # -- repository hooks ----------------------------------------------
    def _frozenset_rows(self):
        return enumerate(self._repo.iter_rows())

    def _packed_rows(self, backend: str):
        if backend == "python":
            return enumerate(self._repo.iter_row_masks())
        if backend == "frozenset":
            return enumerate(self._repo.iter_rows())
        if backend == "numpy":
            def rows():
                for start, matrix in self._repo.iter_chunk_matrices():
                    for i in range(matrix.shape[0]):
                        yield start + i, matrix[i]
            return rows()
        raise ValueError(f"unsupported packed backend {backend!r}")

    # -- the pass flavours ---------------------------------------------
    def iterate(self) -> Iterator[tuple[int, frozenset[int]]]:
        """Open a pass and yield ``(set_id, set)`` in repository order."""
        return self._scan(self._frozenset_rows)

    def iterate_packed(self, backend: str = "python") -> Iterator[tuple[int, object]]:
        """Open a pass yielding ``(set_id, bitmap)`` rows of ``backend``.

        The same access discipline and pass accounting as :meth:`iterate`;
        only the wire format differs — sets arrive as bitmaps of the given
        kernel backend (DESIGN.md §4) instead of frozensets.
        """
        return self._scan(lambda: self._packed_rows(backend))

    # -- executor-driven gains scans -----------------------------------
    def scan_gains_chunked(
        self,
        mask_int: int,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
        include_gains: bool = True,
    ) -> Iterator[tuple[int, object, list]]:
        """Open a pass yielding ``(start, gains, captured)`` per chunk.

        The fourth pass flavour (DESIGN.md §6): one sequential scan,
        executed chunk-by-chunk by the stream's
        :class:`~repro.engine.transport.base.ScanExecutor` (serial,
        thread, multi-process or remote, per the stream's ``jobs`` /
        ``transport`` knobs) and delivered in chunk order — results are
        bit-identical at every setting.  Same access discipline and pass accounting as
        :meth:`iterate`: one read head, the scan counts one pass.

        Each chunk's ``captured`` holds ``(row_id, row ∩ mask)``
        projections for rows reaching ``min_capture_gain`` (optionally
        restricted to ``capture_ids``), or only the chunk's first-max
        row with ``best_only``.  Consuming chunk-by-chunk is the
        bounded-capture discipline: a replay holds at most one chunk's
        captures at a time and reports the largest batch as
        ``scan_capture_peak_words`` (DESIGN.md §6.1).  Callers that do
        not need per-row gains pass ``include_gains=False`` and the
        gains vectors are never materialized driver-side.
        """
        return self._scan(
            lambda: self._scan_gains_chunked(
                mask_int, min_capture_gain, capture_ids, best_only, include_gains
            )
        )

    def scan_accepts_chunked(
        self, mask_int: int, threshold: int
    ) -> Iterator[tuple[int, list, object]]:
        """Open a threshold-accept pass: one scan, accepts fused worker-side.

        The fifth pass flavour (DESIGN.md §8.4), for passes whose accept
        step is a sequential threshold loop over the captured candidates
        (``ThresholdGreedy``-style).  One sequential scan — same access
        discipline and pass accounting as :meth:`iterate` — yielding
        ``(start, captured, batch)`` per chunk in chunk order, where
        ``captured`` holds the candidates reaching ``threshold`` against
        the pass-start mask and ``batch`` is the chunk's
        :class:`~repro.engine.merge.AcceptBatch`: the accepts a
        sequential replay would produce *if the pass-start mask were
        still live*, simulated inside the scan workers.  The driver
        applies a batch wholesale when nothing earlier chunks removed
        touches the chunk's candidates and replays ``captured`` in order
        otherwise — bit-identical picks either way.
        """
        if threshold < 1:
            raise ValueError(f"accept threshold must be >= 1, got {threshold}")
        return self._scan(
            lambda: self._scan_accepts_chunked(mask_int, int(threshold))
        )

    def scan_gains(
        self,
        mask_int: int,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
        include_gains: bool = True,
    ) -> ScanResult:
        """One full gains scan, merged (eager :meth:`scan_gains_chunked`).

        Convenience for callers that want the whole ``gains`` vector at
        once (benchmarks, parity checks); algorithms replay through
        :meth:`scan_gains_chunked` instead, so their capture scratch
        stays bounded by one chunk.

        When the stream's executor recorded fault events (remote
        transport surviving worker faults), the scan's
        :class:`~repro.engine.merge.ScanResult` carries their summary in
        ``extra`` — observability only, never part of the result.
        """
        result = merge_scan_parts(
            list(
                self.scan_gains_chunked(
                    mask_int, min_capture_gain, capture_ids, best_only,
                    include_gains,
                )
            )
        )
        fault_log = self.fault_log
        if fault_log:
            result.extra["fault_summary"] = fault_log.summary()
            result.extra["fault_events"] = fault_log.as_rows()
        cache_stats = self.cache_stats
        if cache_stats is not None:
            result.extra["cache"] = cache_stats
        return result

    @property
    def cache_stats(self):
        """Hot-cache counters behind this stream's scans, or ``None``.

        Serial/thread streams report the driver process cache; process
        and remote streams report counters aggregated from their
        workers.  Observability only — surfaced in
        ``ScanResult.extra["cache"]``, never consulted by results.
        """
        if self._executor is None:
            return None
        return self._executor.cache_stats

    @property
    def fault_log(self):
        """The remote executor's fault log, or ``None`` off-remote.

        Truthy exactly when the stream's scans recorded recoverable
        fault events (see :class:`repro.engine.fault.FaultLog`).
        """
        return getattr(self._executor, "fault_log", None)

    @property
    def jobs(self) -> int:
        """The resolved scan-executor worker count."""
        return self._scan_executor().jobs

    def _scan_executor(self):
        if self._executor is None:
            transport = self._transport
            if self._repo.path is None and transport in (None, "local"):
                # Threads share the resident family, and the packed
                # kernels release the GIL, so in-memory scans overlap.
                transport = "thread"
            self._executor = executor_for(
                self._jobs,
                repository_words=self._repo.repository_words,
                planner=self._planner,
                transport=transport,
                workers=self._workers,
                retry=self._retry,
            )
        return self._executor

    def _scan_gains_chunked(
        self, mask_int, min_capture_gain, capture_ids, best_only, include_gains
    ):
        return self._scan_executor().iter_scan_repository(
            self._repo,
            mask_int,
            min_capture_gain=min_capture_gain,
            capture_ids=capture_ids,
            best_only=best_only,
            include_gains=include_gains,
        )

    def _scan_accepts_chunked(self, mask_int, threshold):
        return self._scan_executor().iter_accept_repository(
            self._repo, mask_int, threshold
        )

    # ------------------------------------------------------------------
    def verify_solution(self, selection) -> bool:
        """Out-of-band feasibility check (referee functionality, no pass).

        Unions the selected rows off the repository without
        materializing the instance; ids outside ``[0, m)`` raise
        ``IndexError``.  This is *not* part of the streaming model and
        must not be called by algorithms.
        """
        covered = 0
        for i in sorted(set(selection)):
            covered |= self._repo.row_mask(i)
        return covered == (1 << self.n) - 1

    @property
    def system(self) -> SetSystem:
        """Referee access to the full instance (tests/benchmarks only).

        An in-memory stream returns its own system; a sharded one loads
        (and caches) the entire repository — exactly the cost streaming
        algorithms must not pay.
        """
        if self._materialized is None:
            self._materialized = self._repo.to_system()
        return self._materialized


class SetStream(SetStreamBase):
    """Sequential, pass-counted access to an in-memory set system.

    Parameters
    ----------
    system:
        The underlying instance.  The ground set (``system.n``) is public —
        the paper stores the element universe in memory in advance — but the
        family may only be read through :meth:`iterate`.
    jobs:
        Scan-executor parallelism for :meth:`scan_gains` (``"auto"`` or a
        positive worker count).  ``auto`` stays serial for in-memory
        instances below the parallel threshold; above one, scans run on
        threads.  Results are identical at every setting (DESIGN.md §6).
    planner:
        Adaptive scan planning (DESIGN.md §8).  Results are identical
        either way.
    transport:
        Scan-engine backend family (``"local"``, ``"serial"``,
        ``"thread"``; ``None`` = local auto).  ``"process"`` and
        ``"remote"`` raise ``ValueError``: their workers open shard
        repositories by path (DESIGN.md §9).
    workers:
        Remote worker addresses — a ``ValueError`` here, as above.
    retry:
        Remote failure handling — a ``ValueError`` here, same as the
        other cannot-take-effect knob combinations.

    Examples
    --------
    >>> from repro.setsystem import SetSystem
    >>> stream = SetStream(SetSystem(3, [[0], [1, 2]]))
    >>> [sorted(r) for _, r in stream.iterate()]
    [[0], [1, 2]]
    >>> stream.passes
    1
    """

    def __init__(
        self,
        system: SetSystem,
        jobs=JOBS_AUTO,
        planner: bool = True,
        transport: "str | None" = None,
        workers=None,
        retry=None,
    ):
        repository = InMemoryRepository(system)
        super().__init__(repository, jobs, planner, transport, workers, retry)
        # Serial scans take the family as one slice, parallel ones as
        # 2 * jobs slices so the threads load-balance.
        repository.lanes = self.jobs
