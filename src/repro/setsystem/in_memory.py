"""A resident :class:`SetSystem` behind the repository read interface.

The streams and scan executors read every family through one interface —
``n``, ``m``, ``shard_count``, ``scan_shard``, chunk and row iterators,
``row_mask`` — which :class:`~repro.setsystem.shards.ShardedRepository`
implements over shard files.  :class:`InMemoryRepository` implements it
over the packed views of an in-RAM :class:`SetSystem`, so in-memory and
on-disk families go through the same scan path.

Its "shards" are row slices of the packed family: one slice for a serial
scan, ``2 * lanes`` slices when ``lanes`` scan threads share the work.
The split never changes results (chunks merge by start row).  It has no
``path``, so transports whose workers re-open the repository by path
(process, remote) cannot scan it.

Examples
--------
>>> from repro.setsystem.set_system import SetSystem
>>> from repro.setsystem.packed import ScanMask
>>> system = SetSystem(3, [[0, 1], [2], [0, 1, 2]])
>>> repository = InMemoryRepository(system, lanes=2)
>>> repository.shard_count, repository.to_system() is system
(3, True)
>>> start, gains, captured = repository.scan_shard(2, ScanMask(3, 0b110))
>>> start, [int(g) for g in gains], captured
(2, [2], [])
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.setsystem.packed import ScanMask, scan_chunk
from repro.setsystem.set_system import SetSystem

__all__ = ["InMemoryRepository"]


class InMemoryRepository:
    """Read-only repository view of an in-memory :class:`SetSystem`.

    ``lanes`` is the number of scan threads the slices are cut for.  The
    family is never copied: chunks are views of the system's memoized
    packed matrix, and :meth:`to_system` returns the wrapped system
    itself.
    """

    #: No on-disk location: path-based transports cannot open it.
    path = None

    #: The family is the referee's input, held by reference — a scan
    #: buffers nothing beyond it (DESIGN.md §3.6).
    chunk_words = 0

    def __init__(self, system: SetSystem, lanes: int = 1):
        self._system = system
        self.lanes = lanes
        self.n = system.n
        self.m = system.m
        self.words = (system.n + 63) // 64

    @property
    def repository_words(self) -> int:
        """Packed size of the family (``m * ceil(n/64)``) — *not* resident."""
        return self.m * self.words

    def _chunk_rows(self) -> int:
        """Rows per slice: the whole family, or ``2 * lanes`` slices."""
        if self.lanes <= 1:
            return max(self.m, 1)
        return max(1, -(-self.m // (2 * self.lanes)))

    def _starts(self) -> range:
        return range(0, self.m, self._chunk_rows())

    @property
    def shard_count(self) -> int:
        """Number of row slices a scan is split into."""
        return len(self._starts())

    def _chunk(self, start: int) -> "np.ndarray":
        stop = start + self._chunk_rows()
        return self._system.packed("numpy").matrix[start:stop]

    def scan_shard(
        self,
        shard: int,
        mask: ScanMask,
        min_capture_gain: "int | None" = None,
        capture_ids=None,
        best_only: bool = False,
    ):
        """Gains + captured projections for one row slice.

        Same contract as
        :meth:`repro.setsystem.shards.ShardedRepository.scan_shard`:
        returns ``(start_row, gains, captured)``.
        """
        start = self._starts()[shard]
        gains, captured = scan_chunk(
            start, self._chunk(start), mask,
            min_capture_gain=min_capture_gain,
            capture_ids=capture_ids,
            best_only=best_only,
        )
        return start, gains, captured

    def iter_chunk_matrices(self) -> Iterator[tuple[int, "np.ndarray"]]:
        """Yield ``(start_row, matrix)`` per slice (read-only views)."""
        for start in self._starts():
            yield start, self._chunk(start)

    def iter_chunk_masks(self) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(start_row, masks)`` per slice as integer bitmasks."""
        rows, step = self._system.packed("python").rows, self._chunk_rows()
        for start in self._starts():
            yield start, rows[start : start + step]

    def iter_row_masks(self) -> Iterator[int]:
        """Yield every row as an integer bitmask."""
        return iter(self._system.packed("python").rows)

    def iter_rows(self) -> Iterator[frozenset[int]]:
        """Yield every row as the system's own frozenset."""
        return iter(self._system.sets)

    def row_mask(self, i: int) -> int:
        """Random-access read of row ``i`` as an integer bitmask (referee)."""
        if not 0 <= i < self.m:
            raise IndexError(f"row {i} outside [0, {self.m})")
        return self._system.packed("python").row(i)

    def to_system(self) -> SetSystem:
        """The wrapped system itself (no copy)."""
        return self._system

    def close(self) -> None:
        """Nothing to release; present for interface parity."""

    def __repr__(self) -> str:
        return f"InMemoryRepository(n={self.n}, m={self.m}, lanes={self.lanes})"
