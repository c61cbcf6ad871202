"""Packed-bitmask kernels: the performance layer under every hot path.

Every algorithm in this repository bottoms out in the same three
primitives over a family of subsets of ``{0, ..., n-1}``:

* **coverage union** — ``U_{i in D} r_i`` (``covered_by``, update passes);
* **residual gain** — ``|r_i ∩ residual|`` (greedy, the Size Test);
* **residual projection** — ``r_i ∩ residual`` for every ``i`` (element
  sampling, multi-pass residual re-solves).

The seed implemented all three with per-call ``frozenset`` operations,
which caps experiments far below the n, m ~ 10^5..10^6 scales of the
multi-pass streaming literature.  This module provides the same
primitives over *packed bitmaps* in three interchangeable backends:

``numpy``
    An m x ceil(n/64) ``numpy.uint64`` block matrix.  Family-wide kernels
    (all-rows gains, domination pruning, projection) are single vectorized
    expressions; per-row popcounts use ``numpy.bitwise_count`` when
    available and an 8-bit lookup table otherwise.
``python``
    Arbitrary-precision integer bitmaps built on :mod:`repro.utils.bitset`.
    No dependencies, no per-call array overhead — the fastest choice for
    per-set streaming operations and for small instances.
``frozenset``
    The seed's representation, kept as the executable reference semantics
    and as the baseline that ``BENCH_kernels.json`` measures speedups
    against.

Two families of objects are exposed (DESIGN.md §4):

* :class:`BitmapKernel` — stateless element-bitmap algebra over a fixed
  ground-set size (used by streaming passes, where sets arrive one at a
  time and no family matrix exists);
* :class:`PackedFamily` — a whole family packed at once, with vectorized
  family-level kernels (used by offline solvers and preprocessing).

``backend="auto"`` resolves per call site: streaming kernels always pick
``python`` (big-int ops beat numpy's per-call overhead on single rows),
family kernels pick ``numpy`` once the block matrix is large enough to
amortize it.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from repro.utils.bitset import bits_of, mask_of, universe_mask

__all__ = [
    "BACKENDS",
    "BitmapKernel",
    "FrozensetFamily",
    "NumpyPackedFamily",
    "PackedFamily",
    "PythonPackedFamily",
    "ScanMask",
    "bitmap_kernel",
    "chunk_gains",
    "first_argmax",
    "membership_hits",
    "pack",
    "range_gains",
    "resolve_backend",
    "scan_chunk",
]

#: Backend names accepted everywhere a ``backend=`` knob appears.
BACKENDS = ("auto", "python", "numpy", "frozenset")

WORD_BITS = 64

#: Below this many matrix words the numpy backend's per-call overhead
#: outweighs its throughput; ``auto`` stays on big-ints.
_AUTO_NUMPY_MIN_WORDS = 4096


def resolve_backend(
    backend: str = "auto",
    *,
    n: int = 0,
    m: "int | None" = None,
    kind: str = "family",
) -> str:
    """Resolve a ``backend=`` knob to a concrete backend name.

    ``kind="family"`` sizes the decision on the m x ceil(n/64) block
    matrix; ``kind="stream"`` is for per-set streaming operations, where
    big-int bitmaps win at every scale.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend != "auto":
        return backend
    if kind == "stream":
        return "python"
    words = max(1, (n + WORD_BITS - 1) // WORD_BITS)
    if m is not None and m * words >= _AUTO_NUMPY_MIN_WORDS:
        return "numpy"
    return "python"


# ----------------------------------------------------------------------
# Popcount helpers (numpy)
# ----------------------------------------------------------------------
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
if not _HAVE_BITWISE_COUNT:  # pragma: no cover - numpy >= 2.0 in CI
    _POPCOUNT8 = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint64
    )


def _popcount_rows(matrix: "np.ndarray") -> "np.ndarray":
    """Per-row popcount of a (..., words) uint64 array."""
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(matrix).sum(axis=-1, dtype=np.int64)
    flat = np.ascontiguousarray(matrix).view(np.uint8)
    return _POPCOUNT8[flat].sum(axis=-1, dtype=np.int64)


def _popcount_total(bitmap: "np.ndarray") -> int:
    """Total popcount of a 1-D uint64 bitmap."""
    if bitmap.size == 0:
        return 0
    if _HAVE_BITWISE_COUNT:
        return int(np.bitwise_count(bitmap).sum())
    return int(_POPCOUNT8[np.ascontiguousarray(bitmap).view(np.uint8)].sum())


# ----------------------------------------------------------------------
# Element-bitmap kernels (streaming passes)
# ----------------------------------------------------------------------
class BitmapKernel(abc.ABC):
    """Backend-neutral algebra over bitmaps of a fixed ground set.

    Bitmap handles are backend-native (``frozenset``, ``int`` or a 1-D
    ``numpy.uint64`` array) and must only be combined through the kernel
    that produced them.  All operations are pure: no handle is mutated.
    """

    backend: str = "abstract"

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"ground set size must be non-negative, got {n}")
        self.n = n

    @abc.abstractmethod
    def empty(self):
        """The empty-set bitmap."""

    @abc.abstractmethod
    def full(self):
        """The full ground-set bitmap ``{0, ..., n-1}``."""

    @abc.abstractmethod
    def from_indices(self, indices: Iterable[int]):
        """Pack an iterable of element ids into a bitmap."""

    @abc.abstractmethod
    def to_indices(self, bitmap) -> list[int]:
        """Unpack a bitmap into the sorted list of element ids."""

    @abc.abstractmethod
    def count(self, bitmap) -> int:
        """Cardinality (popcount) of a bitmap."""

    @abc.abstractmethod
    def intersect(self, a, b):
        """``a ∩ b``."""

    @abc.abstractmethod
    def union(self, a, b):
        """``a ∪ b``."""

    @abc.abstractmethod
    def subtract(self, a, b):
        """``a \\ b``."""

    @abc.abstractmethod
    def is_empty(self, bitmap) -> bool:
        """Is the bitmap the empty set?"""


    # -- executor bridging ---------------------------------------------
    def to_mask_int(self, bitmap) -> int:
        """The bitmap as a backend-neutral arbitrary-precision integer.

        The scan executor (:mod:`repro.engine.transport`) moves masks
        between processes and backends as plain integers; these two
        methods are the bridge in and out of kernel handles.
        """
        return mask_of(self.to_indices(bitmap))

    def from_mask_int(self, value: int):
        """Rebuild a kernel bitmap from an integer mask."""
        return self.from_indices(bits_of(value))


class FrozensetKernel(BitmapKernel):
    """Reference kernel: bitmaps are plain frozensets (the seed semantics)."""

    backend = "frozenset"

    def empty(self):
        return frozenset()

    def full(self):
        return frozenset(range(self.n))

    def from_indices(self, indices):
        return frozenset(indices)

    def to_indices(self, bitmap):
        return sorted(bitmap)

    def count(self, bitmap):
        return len(bitmap)

    def intersect(self, a, b):
        return a & b

    def union(self, a, b):
        return a | b

    def subtract(self, a, b):
        return a - b

    def is_empty(self, bitmap):
        return not bitmap


class PythonBitmapKernel(BitmapKernel):
    """Big-int kernel: bitmaps are non-negative Python integers."""

    backend = "python"

    def empty(self):
        return 0

    def full(self):
        return universe_mask(self.n)

    def from_indices(self, indices):
        return mask_of(indices)

    def to_indices(self, bitmap):
        return bits_of(bitmap)

    def count(self, bitmap):
        return bitmap.bit_count()

    def intersect(self, a, b):
        return a & b

    def union(self, a, b):
        return a | b

    def subtract(self, a, b):
        return a & ~b

    def is_empty(self, bitmap):
        return not bitmap

    def to_mask_int(self, bitmap) -> int:
        return bitmap

    def from_mask_int(self, value: int):
        return value


class NumpyBitmapKernel(BitmapKernel):
    """Packed kernel: bitmaps are 1-D ``uint64`` arrays of ceil(n/64) words."""

    backend = "numpy"

    def __init__(self, n: int):
        super().__init__(n)
        self.words = (n + WORD_BITS - 1) // WORD_BITS

    def empty(self):
        return np.zeros(self.words, dtype=np.uint64)

    def full(self):
        bitmap = np.full(self.words, np.uint64(0xFFFFFFFFFFFFFFFF))
        tail = self.n % WORD_BITS
        if self.words and tail:
            bitmap[-1] = np.uint64((1 << tail) - 1)
        return bitmap

    def from_indices(self, indices):
        bitmap = np.zeros(self.words, dtype=np.uint64)
        idx = np.fromiter(indices, dtype=np.int64)
        if idx.size:
            bits = np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64))
            np.bitwise_or.at(bitmap, idx >> 6, bits)
        return bitmap

    def to_indices(self, bitmap):
        if bitmap.size == 0:
            return []
        as_bytes = bitmap.astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(as_bytes, bitorder="little")
        return np.flatnonzero(bits).tolist()

    def count(self, bitmap):
        return _popcount_total(bitmap)

    def intersect(self, a, b):
        return np.bitwise_and(a, b)

    def union(self, a, b):
        return np.bitwise_or(a, b)

    def subtract(self, a, b):
        return np.bitwise_and(a, np.bitwise_not(b))

    def is_empty(self, bitmap):
        return not bitmap.any()

    def to_mask_int(self, bitmap) -> int:
        return int.from_bytes(bitmap.astype("<u8", copy=False).tobytes(), "little")

    def from_mask_int(self, value: int):
        raw = value.to_bytes(self.words * 8, "little")
        return np.frombuffer(raw, dtype="<u8").copy()


_KERNELS = {
    "frozenset": FrozensetKernel,
    "python": PythonBitmapKernel,
    "numpy": NumpyBitmapKernel,
}


def bitmap_kernel(n: int, backend: str = "auto") -> BitmapKernel:
    """Build the element-bitmap kernel for streaming passes.

    ``auto`` resolves to ``python``: streamed sets are touched one at a
    time, where big-int operations beat numpy's per-call overhead.
    """
    return _KERNELS[resolve_backend(backend, n=n, kind="stream")](n)


# ----------------------------------------------------------------------
# Packed families (offline solvers, preprocessing)
# ----------------------------------------------------------------------
class PackedFamily(abc.ABC):
    """A whole family packed into one backend, with family-wide kernels.

    Rows are indexed ``0..m-1`` in repository order; row bitmaps are
    handles of the family's :attr:`kernel` and interoperate with it.
    """

    backend: str = "abstract"

    def __init__(self, n: int, m: int, kernel: BitmapKernel):
        self.n = n
        self.m = m
        self.kernel = kernel
        self._sizes: "list[int] | None" = None

    # -- row access ----------------------------------------------------
    @abc.abstractmethod
    def row(self, i: int):
        """The i-th set as a kernel bitmap."""

    def sizes(self) -> list[int]:
        """Per-row cardinalities (memoized)."""
        if self._sizes is None:
            self._sizes = self._compute_sizes()
        return self._sizes

    def _compute_sizes(self) -> list[int]:
        count = self.kernel.count
        return [count(self.row(i)) for i in range(self.m)]

    # -- coverage union ------------------------------------------------
    def union(self, ids: Iterable[int]):
        """Coverage union ``U_{i in ids} r_i`` as a kernel bitmap."""
        kernel = self.kernel
        covered = kernel.empty()
        for i in ids:
            covered = kernel.union(covered, self.row(i))
        return covered

    def union_count(self, ids: Iterable[int]) -> int:
        """``|U_{i in ids} r_i|``."""
        return self.kernel.count(self.union(ids))

    def covers(self, ids: Iterable[int]) -> bool:
        """Does the union of the rows equal the ground set? (short-circuits)"""
        kernel = self.kernel
        n = self.n
        covered = kernel.empty()
        for i in ids:
            covered = kernel.union(covered, self.row(i))
            if kernel.count(covered) == n:
                return True
        return kernel.count(covered) == n

    # -- residual gains ------------------------------------------------
    def gain(self, i: int, residual) -> int:
        """``|r_i ∩ residual|``."""
        kernel = self.kernel
        return kernel.count(kernel.intersect(self.row(i), residual))

    def gains(self, residual) -> list[int]:
        """``|r_i ∩ residual|`` for every row."""
        return [self.gain(i, residual) for i in range(self.m)]

    def best_gain(self, residual) -> tuple[int, int]:
        """``(max gain, argmax row)``; ties break to the lowest row index.

        Returns ``(0, -1)`` for an empty family or an all-zero gain vector.
        """
        best_gain, best_id = 0, -1
        for i in range(self.m):
            g = self.gain(i, residual)
            if g > best_gain:
                best_gain, best_id = g, i
        return best_gain, best_id

    # -- residual projection -------------------------------------------
    def project(self, residual) -> "PackedFamily":
        """The family with every row intersected with ``residual``.

        Elements are *not* renumbered — this is the raw projection kernel;
        renumbering (when needed) happens at the ``SetSystem`` layer.
        """
        kernel = self.kernel
        rows = [kernel.intersect(self.row(i), residual) for i in range(self.m)]
        return type(self)._from_rows(self.n, rows, kernel)

    def project_to_frozensets(self, residual) -> list[frozenset[int]]:
        """``r_i ∩ residual`` for every row, as frozensets of element ids."""
        kernel = self.kernel
        return [
            frozenset(kernel.to_indices(kernel.intersect(self.row(i), residual)))
            for i in range(self.m)
        ]

    def to_frozensets(self) -> list[frozenset[int]]:
        """Unpack every row back to a frozenset of element ids."""
        kernel = self.kernel
        return [frozenset(kernel.to_indices(self.row(i))) for i in range(self.m)]

    # -- domination ----------------------------------------------------
    def non_dominated(self, jobs=1) -> list[int]:
        """Indices of the sets not strictly contained in another set.

        Matches the seed's ``without_dominated_sets`` semantics exactly:
        a row is dropped when it is a strict subset of any other row, or
        equal to a row with a smaller index (first duplicate survives).

        Instead of the seed's O(m^2) pairwise frozenset scan, each row is
        tested only against the rows sharing its *least frequent* element
        (no other row can contain it), with the containment test a
        submask kernel.  A row ``j`` dominates row ``i`` exactly when
        ``r_i ⊆ r_j`` and (``|r_j| > |r_i|`` — a strict superset — or
        ``j < i`` — an earlier duplicate; submask plus equal size implies
        equal content).

        ``jobs`` fans the work out over the shared scan thread pool
        where the backend can use it (the numpy kernel releases the
        GIL; see DESIGN.md §8.5) — every row's verdict is independent,
        so the surviving indices are identical at any setting.
        """
        m = self.m
        if m == 0:
            return []
        sizes = self.sizes()
        row_elems, element_sets, freq = self._occupancy()
        nonempty_exists = any(sizes)
        first_empty = next((i for i, s in enumerate(sizes) if s == 0), None)
        keep: list[int] = []
        for i in range(m):
            if sizes[i] == 0:
                # An empty set is a strict subset of any non-empty set and
                # is otherwise dominated by an earlier empty duplicate.
                dominated = nonempty_exists or (
                    first_empty is not None and first_empty < i
                )
            else:
                rarest = min(row_elems[i], key=freq.__getitem__)
                dominated = self._dominated_within(i, element_sets[rarest], sizes)
            if not dominated:
                keep.append(i)
        return keep

    # Hooks for the domination kernel -----------------------------------
    def _occupancy(self):
        """Per-row element lists, per-element row lists and frequencies."""
        kernel = self.kernel
        row_elems = [kernel.to_indices(self.row(i)) for i in range(self.m)]
        freq = [0] * self.n
        element_sets: list[list[int]] = [[] for _ in range(self.n)]
        for i, elems in enumerate(row_elems):
            for e in elems:
                freq[e] += 1
                element_sets[e].append(i)  # ascending row index
        return row_elems, element_sets, freq

    def _dominated_within(self, i: int, candidates, sizes) -> bool:
        """Is row ``i`` dominated by one of ``candidates`` (ascending ids)?"""
        kernel = self.kernel
        row = self.row(i)
        size = sizes[i]
        for j in candidates:
            if j == i:
                continue
            if kernel.is_empty(kernel.subtract(row, self.row(j))) and (
                sizes[j] > size or j < i
            ):
                return True
        return False

    @classmethod
    @abc.abstractmethod
    def _from_rows(cls, n: int, rows, kernel: BitmapKernel) -> "PackedFamily":
        """Internal constructor from pre-built kernel bitmaps."""


class FrozensetFamily(PackedFamily):
    """Reference family over frozensets — the seed's representation."""

    backend = "frozenset"

    def __init__(self, n: int, sets: Sequence[Iterable[int]]):
        rows = tuple(
            r if isinstance(r, frozenset) else frozenset(r) for r in sets
        )
        super().__init__(n, len(rows), FrozensetKernel(n))
        self._rows = rows

    def row(self, i: int):
        return self._rows[i]

    def _compute_sizes(self):
        return [len(r) for r in self._rows]

    def gain(self, i: int, residual) -> int:
        return len(self._rows[i] & residual)

    def non_dominated(self, jobs=1) -> list[int]:
        # The seed's O(m^2) pairwise loop, kept verbatim as the executable
        # reference that the packed backends are property-tested against.
        keep: list[int] = []
        for i, r in enumerate(self._rows):
            dominated = False
            for j, other in enumerate(self._rows):
                if i == j:
                    continue
                if r < other or (r == other and j < i):
                    dominated = True
                    break
            if not dominated:
                keep.append(i)
        return keep

    @classmethod
    def _from_rows(cls, n, rows, kernel):
        return cls(n, rows)


class PythonPackedFamily(PackedFamily):
    """Big-int family: one arbitrary-precision bitmap per row."""

    backend = "python"

    def __init__(self, n: int, sets: Sequence[Iterable[int]]):
        masks = [m if isinstance(m, int) else mask_of(m) for m in sets]
        super().__init__(n, len(masks), PythonBitmapKernel(n))
        self._rows = masks

    @classmethod
    def from_masks(cls, n: int, masks: Sequence[int]) -> "PythonPackedFamily":
        """Build directly from pre-computed integer bitmasks (no re-pack)."""
        return cls(n, list(masks))

    @property
    def rows(self) -> list[int]:
        """The raw integer bitmasks, in repository order."""
        return self._rows

    def row(self, i: int):
        return self._rows[i]

    def _compute_sizes(self):
        return [m.bit_count() for m in self._rows]

    def gain(self, i: int, residual) -> int:
        return (self._rows[i] & residual).bit_count()

    def _occupancy(self):
        rows = self._rows
        row_elems = [bits_of(mask) for mask in rows]
        freq = [0] * self.n
        element_sets: list[list[int]] = [[] for _ in range(self.n)]
        for i, elems in enumerate(row_elems):
            for e in elems:
                freq[e] += 1
                element_sets[e].append(i)
        return row_elems, element_sets, freq

    def _dominated_within(self, i: int, candidates, sizes) -> bool:
        rows = self._rows
        row = rows[i]
        size = sizes[i]
        for j in candidates:
            if j == i:
                continue
            if row & rows[j] == row and (sizes[j] > size or j < i):
                return True
        return False

    @classmethod
    def _from_rows(cls, n, rows, kernel):
        return cls.from_masks(n, rows)


class NumpyPackedFamily(PackedFamily):
    """Block-matrix family: an m x ceil(n/64) ``uint64`` matrix."""

    backend = "numpy"

    def __init__(self, n: int, sets: Sequence[Iterable[int]]):
        kernel = NumpyBitmapKernel(n)
        sets = [s if isinstance(s, (frozenset, set, list, tuple)) else list(s) for s in sets]
        m = len(sets)
        super().__init__(n, m, kernel)
        words = kernel.words
        matrix = np.zeros(m * words, dtype=np.uint64)
        if m and words:
            lengths = [len(s) for s in sets]
            total = sum(lengths)
            if total:
                # One unbuffered scatter-or builds the whole matrix.
                idx = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=total)
                row_ids = np.repeat(np.arange(m, dtype=np.int64), lengths)
                flat = row_ids * words + (idx >> 6)
                bits = np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64))
                np.bitwise_or.at(matrix, flat, bits)
        self.matrix = matrix.reshape(m, words)

    @classmethod
    def _from_matrix(cls, n: int, matrix: "np.ndarray") -> "NumpyPackedFamily":
        family = cls.__new__(cls)
        kernel = NumpyBitmapKernel(n)
        PackedFamily.__init__(family, n, matrix.shape[0], kernel)
        family.matrix = matrix
        return family

    def row(self, i: int):
        return self.matrix[i]

    def _compute_sizes(self):
        if self.m == 0:
            return []
        return _popcount_rows(self.matrix).tolist()

    def union(self, ids: Iterable[int]):
        ids = list(ids)
        if not ids:
            return self.kernel.empty()
        return np.bitwise_or.reduce(self.matrix[ids], axis=0)

    def gains(self, residual) -> list[int]:
        if self.m == 0:
            return []
        return self._gains_array(residual).tolist()

    def _gains_array(self, residual) -> "np.ndarray":
        return _popcount_rows(np.bitwise_and(self.matrix, residual[None, :]))

    def best_gain(self, residual) -> tuple[int, int]:
        if self.m == 0:
            return 0, -1
        gains = self._gains_array(residual)
        best = int(np.argmax(gains))  # first max == lowest row index
        best_gain = int(gains[best])
        return (best_gain, best) if best_gain > 0 else (0, -1)

    def project(self, residual) -> "NumpyPackedFamily":
        return type(self)._from_matrix(
            self.n, np.bitwise_and(self.matrix, residual[None, :])
        )

    def non_dominated(self, jobs=1) -> list[int]:
        m, n = self.m, self.n
        if m == 0:
            return []
        if n == 0 or not any(self.sizes()):
            return super().non_dominated()
        sizes = np.asarray(self.sizes(), dtype=np.int64)
        # Unpack the block matrix once into an (m, n) 0/1 incidence table:
        # frequencies, rarest-element selection and the per-element row
        # lists all fall out of it vectorized.
        as_bytes = self.matrix.astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(as_bytes.reshape(m, -1), axis=1, bitorder="little")
        bits = bits[:, :n]
        freq = bits.sum(axis=0, dtype=np.int64)
        # argmin over non-member-masked frequencies = rarest member element.
        masked = np.where(bits.astype(bool), freq[None, :], np.iinfo(np.int64).max)
        rarest = np.argmin(masked, axis=1)
        # Rows sharing a rarest element also share their candidate list, so
        # they are tested as one (group x candidates) submask block.
        nonempty = np.flatnonzero(sizes > 0)
        order = nonempty[np.argsort(rarest[nonempty], kind="stable")]
        boundaries = np.flatnonzero(np.diff(rarest[order])) + 1
        keep_mask = np.zeros(m, dtype=bool)
        words = max(1, self.kernel.words)
        max_block = max(1, (1 << 22) // words)  # cap one block at ~32 MB

        def handle(group) -> None:
            candidates = np.flatnonzero(bits[:, rarest[group[0]]])
            rows_c = self.matrix[candidates]
            chunk = max(1, max_block // max(1, len(candidates)))
            for start in range(0, len(group), chunk):
                part = group[start : start + chunk]
                rows_g = self.matrix[part]
                submask = np.all(
                    np.bitwise_and(rows_g[:, None, :], rows_c[None, :, :])
                    == rows_g[:, None, :],
                    axis=2,
                )
                dominating = submask & (
                    (sizes[candidates][None, :] > sizes[part][:, None])
                    | (candidates[None, :] < part[:, None])
                )
                keep_mask[part] = ~dominating.any(axis=1)

        groups = np.split(order, boundaries)
        from repro.engine import resolve_jobs, thread_map

        # Groups are disjoint row index sets writing disjoint slices of
        # ``keep_mask``, so thread order cannot change the result.
        thread_map(handle, groups, resolve_jobs(jobs, repository_words=m * words))
        return np.flatnonzero(keep_mask).tolist()

    @classmethod
    def _from_rows(cls, n, rows, kernel):
        matrix = (
            np.stack(rows) if rows else np.zeros((0, kernel.words), dtype=np.uint64)
        )
        return cls._from_matrix(n, matrix)


_FAMILIES = {
    "frozenset": FrozensetFamily,
    "python": PythonPackedFamily,
    "numpy": NumpyPackedFamily,
}


def pack(
    sets: Sequence[Iterable[int]], n: int, backend: str = "auto"
) -> PackedFamily:
    """Pack a family of element-id iterables into a :class:`PackedFamily`.

    >>> family = pack([[0, 1], [2]], n=3, backend="python")
    >>> family.sizes()
    [2, 1]
    >>> family.kernel.to_indices(family.union([0, 1]))
    [0, 1, 2]
    """
    sets = list(sets)
    resolved = resolve_backend(backend, n=n, m=len(sets), kind="family")
    return _FAMILIES[resolved](n, sets)


# ----------------------------------------------------------------------
# Chunk-scan kernels (the parallel executor's compute core, DESIGN.md §6)
# ----------------------------------------------------------------------
class ScanMask:
    """One residual mask with every derived view a chunk scan needs.

    A gains scan touches the same mask in three shapes — arbitrary
    precision integer (backend-neutral wire format), packed ``uint64``
    words (dense-chunk kernels) and exclusive prefix popcount (the fused
    run-length kernel).  ``ScanMask`` computes each lazily and caches it,
    so per-shard scan calls — serial or in worker processes — never
    re-derive them.

    Examples
    --------
    >>> mask = ScanMask(70, (1 << 65) | 0b1011)
    >>> mask.words, mask.is_empty
    (2, False)
    >>> int(mask.prefix[66]) - int(mask.prefix[64])  # bits in [64, 66)
    1
    """

    def __init__(self, n: int, mask_int: int):
        if mask_int < 0:
            raise ValueError(f"mask must be a non-negative integer, got {mask_int}")
        self.n = n
        self.words = (n + WORD_BITS - 1) // WORD_BITS
        self.mask_int = mask_int
        self._arr = None
        self._prefix = None

    @property
    def is_empty(self) -> bool:
        return self.mask_int == 0

    def to_bytes(self) -> bytes:
        """The mask as ``words`` little-endian ``uint64`` words."""
        return self.mask_int.to_bytes(self.words * 8, "little")

    @property
    def arr(self) -> "np.ndarray":
        """Packed ``uint64`` view of the mask."""
        if self._arr is None:
            self._arr = np.frombuffer(self.to_bytes(), dtype="<u8")
        return self._arr

    @property
    def prefix(self) -> "np.ndarray":
        """Exclusive prefix popcount: ``prefix[i] = |mask ∩ [0, i)|``."""
        if self._prefix is None:
            if self.words:
                bits = np.unpackbits(
                    self.arr.view(np.uint8), bitorder="little"
                )[: self.n]
            else:
                bits = np.zeros(0, dtype=np.uint8)
            prefix = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(bits, dtype=np.int64, out=prefix[1:])
            self._prefix = prefix
        return self._prefix


def first_argmax(gains) -> int:
    """Index of the first maximum of a gains vector, ``-1`` if all-zero.

    The lowest-index tie-break every greedy variant in this repository
    uses (DESIGN.md §4); takes a numpy array or anything
    :func:`numpy.asarray` accepts.

    >>> first_argmax([0, 3, 1, 3])
    1
    >>> first_argmax([0, 0])
    -1
    """
    gains = np.asarray(gains)
    if gains.size == 0:
        return -1
    best = int(np.argmax(gains))  # first max == lowest row index
    return best if int(gains[best]) > 0 else -1


def chunk_gains(matrix: "np.ndarray", mask_arr: "np.ndarray") -> "np.ndarray":
    """Per-row ``|row ∩ mask|`` over a ``(rows, words)`` ``uint64`` chunk."""
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if matrix.shape[1] == 0:
        return np.zeros(matrix.shape[0], dtype=np.int64)
    return _popcount_rows(np.bitwise_and(matrix, mask_arr[None, :]))


def membership_hits(flat_idx: "np.ndarray", mask_arr: "np.ndarray") -> "np.ndarray":
    """Which element indices have their mask bit set (fused sparse gain).

    ``flat_idx`` is an ``int64`` array of element ids (possibly spanning
    many rows); the result is a boolean array of the same shape.  This is
    the kernel that lets sparse-encoded shard rows compute gains without
    ever materializing ``ceil(n/64)`` dense words.
    """
    if flat_idx.size == 0:
        return np.zeros(0, dtype=bool)
    words = mask_arr[flat_idx >> 6]
    shifts = (flat_idx & 63).astype(np.uint64)
    return ((words >> shifts) & np.uint64(1)).astype(bool)


def range_gains(
    starts: "np.ndarray",
    ends: "np.ndarray",
    row_ids: "np.ndarray",
    rows: int,
    prefix: "np.ndarray",
) -> "np.ndarray":
    """Per-row ``|mask ∩ U [start, end)|`` via the prefix popcount.

    The fused run-length gain kernel: each run ``[start, end)`` of a
    run-length-encoded row contributes ``prefix[end] - prefix[start]``
    mask bits, summed per row — no dense words, no index expansion.
    """
    out = np.zeros(rows, dtype=np.int64)
    if starts.size:
        np.add.at(out, row_ids, prefix[ends] - prefix[starts])
    return out


def scan_chunk(
    start: int,
    chunk,
    mask: ScanMask,
    min_capture_gain: "int | None" = None,
    capture_ids=None,
    best_only: bool = False,
):
    """Gains + captured projections for one chunk of packed rows.

    The single compute kernel behind every executor backend: serial
    scans, worker processes and in-memory chunk splits all call it per
    chunk, and results merge deterministically because each chunk is
    keyed by its ``start`` row id.

    Parameters
    ----------
    start:
        Global row id of the chunk's first row.
    chunk:
        A ``(rows, words)`` ``uint64`` matrix.
    mask:
        The residual :class:`ScanMask` to intersect against.
    min_capture_gain:
        When given, capture ``(row_id, projection)`` for every row whose
        gain reaches it (projection = ``row ∩ mask`` as an int bitmask).
    capture_ids:
        Optional set of row ids further restricting captures.
    best_only:
        Capture only the chunk's first-max positive-gain row.

    Returns
    -------
    (gains, captured):
        ``gains`` — per-row ``|row ∩ mask|`` as an ``int64`` array;
        ``captured`` — ``(row_id, projection_int)`` pairs, ascending ids.
    """
    inter = np.bitwise_and(chunk, mask.arr[None, :]) if chunk.size else chunk
    gains = (
        _popcount_rows(inter)
        if chunk.size
        else np.zeros(chunk.shape[0], dtype=np.int64)
    )
    captured: list = []
    if best_only:
        local = first_argmax(gains)
        if local >= 0:
            captured.append(
                (start + local, int.from_bytes(inter[local].tobytes(), "little"))
            )
    elif min_capture_gain is not None:
        for local in np.flatnonzero(gains >= min_capture_gain):
            row_id = start + int(local)
            if capture_ids is not None and row_id not in capture_ids:
                continue
            captured.append(
                (row_id, int.from_bytes(inter[int(local)].tobytes(), "little"))
            )
    return gains, captured
