"""The central :class:`SetSystem` data structure.

A set system ``(U, F)`` is a ground set ``U = {0, ..., n-1}`` together with a
family ``F = (r_0, ..., r_{m-1})`` of subsets of ``U``.  The family is an
ordered sequence (not a set of sets) because the streaming model of the paper
delivers the sets in repository order, and because instances may legitimately
contain duplicate sets.

The class is immutable: all transformation helpers return new instances.
Immutability also makes the derived views (the universe, the integer
bitmasks, the packed kernel families of :mod:`repro.setsystem.packed`) safe
to memoize — they are built on first access and reused by every query.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.setsystem.packed import PackedFamily, PythonPackedFamily, pack, resolve_backend
from repro.utils.bitset import iter_bits, mask_of, universe_mask

__all__ = ["SetSystem"]


class SetSystem:
    """An immutable set-cover instance ``(U, F)``.

    Parameters
    ----------
    n:
        Size of the ground set; elements are the integers ``0..n-1``.
    sets:
        The family ``F`` as an iterable of iterables of element ids.

    Examples
    --------
    >>> inst = SetSystem(4, [[0, 1], [2], [2, 3], [0, 1, 2, 3]])
    >>> inst.n, inst.m
    (4, 4)
    >>> inst.is_cover([3])
    True
    >>> inst.is_cover([0, 1])
    False
    """

    __slots__ = ("_n", "_sets", "_universe", "_masks", "_packed")

    def __init__(self, n: int, sets: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError(f"ground set size must be non-negative, got {n}")
        frozen: list[frozenset[int]] = []
        for index, raw in enumerate(sets):
            fs = frozenset(raw)
            for element in fs:
                if not 0 <= element < n:
                    raise ValueError(
                        f"set {index} contains element {element} outside the "
                        f"ground set [0, {n})"
                    )
            frozen.append(fs)
        self._n = n
        self._sets = tuple(frozen)
        # Lazily built, memoized views (safe: the instance is immutable).
        self._universe: "frozenset[int] | None" = None
        self._masks: "tuple[int, ...] | None" = None
        self._packed: dict[str, PackedFamily] = {}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of elements in the ground set."""
        return self._n

    @property
    def m(self) -> int:
        """Number of sets in the family."""
        return len(self._sets)

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        """The family ``F`` in repository order."""
        return self._sets

    @property
    def universe(self) -> frozenset[int]:
        """The ground set ``U`` as a frozenset (built once, then cached)."""
        if self._universe is None:
            self._universe = frozenset(range(self._n))
        return self._universe

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, index: int) -> frozenset[int]:
        return self._sets[index]

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self._sets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetSystem):
            return NotImplemented
        return self._n == other._n and self._sets == other._sets

    def __hash__(self) -> int:
        return hash((self._n, self._sets))

    def __repr__(self) -> str:
        return f"SetSystem(n={self._n}, m={self.m})"

    # ------------------------------------------------------------------
    # Packed views
    # ------------------------------------------------------------------
    def _mask_tuple(self) -> tuple[int, ...]:
        if self._masks is None:
            self._masks = tuple(mask_of(r) for r in self._sets)
        return self._masks

    def packed(self, backend: str = "auto") -> PackedFamily:
        """The family as a memoized :class:`~repro.setsystem.packed.PackedFamily`.

        One packed view is built per concrete backend and cached; repeated
        calls (and every query method below) reuse it.
        """
        resolved = resolve_backend(backend, n=self._n, m=self.m, kind="family")
        family = self._packed.get(resolved)
        if family is None:
            if resolved == "python":
                # Shares the memoized integer masks instead of re-packing.
                family = PythonPackedFamily.from_masks(self._n, self._mask_tuple())
            else:
                family = pack(self._sets, self._n, resolved)
            self._packed[resolved] = family
        return family

    def masks(self) -> list[int]:
        """The family as integer bitmasks (element ``e`` -> bit ``e``)."""
        return list(self._mask_tuple())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _covered_mask(self, selection: Iterable[int]) -> int:
        masks = self._mask_tuple()
        covered = 0
        for set_id in selection:
            covered |= masks[set_id]
        return covered

    def covered_by(self, selection: Iterable[int]) -> frozenset[int]:
        """Union of the sets whose indices are in ``selection``."""
        return frozenset(iter_bits(self._covered_mask(selection)))

    def uncovered_by(self, selection: Iterable[int]) -> frozenset[int]:
        """Elements of ``U`` missed by ``selection``."""
        missing = universe_mask(self._n) & ~self._covered_mask(selection)
        return frozenset(iter_bits(missing))

    def is_cover(self, selection: Iterable[int]) -> bool:
        """Does ``selection`` (by set index) cover the whole ground set?

        Short-circuits as soon as the running union reaches ``U`` instead
        of materializing the full covered set.  Ids outside ``[0, m)``
        raise ``IndexError`` (negative ids do not wrap).
        """
        full = universe_mask(self._n)
        masks = self._mask_tuple()
        covered = 0
        for set_id in selection:
            if not 0 <= set_id < len(masks):
                raise IndexError(f"row {set_id} outside [0, {len(masks)})")
            covered |= masks[set_id]
            if covered == full:
                return True
        return covered == full

    def is_feasible(self) -> bool:
        """Does the family cover the ground set at all?"""
        return self.is_cover(range(self.m))

    def element_frequency(self, element: int) -> int:
        """Number of sets containing ``element``."""
        if not 0 <= element < self._n:
            raise ValueError(f"element {element} outside ground set [0, {self._n})")
        bit = 1 << element
        return sum(1 for mask in self._mask_tuple() if mask & bit)

    def max_set_size(self) -> int:
        """Cardinality of the largest set (0 for an empty family)."""
        return max((len(r) for r in self._sets), default=0)

    def sparsity(self) -> int:
        """Alias of :meth:`max_set_size`; the ``s`` of s-Sparse Set Cover."""
        return self.max_set_size()

    def total_size(self) -> int:
        """Sum of set cardinalities — the input size ``|F|`` in words."""
        return sum(len(r) for r in self._sets)

    # ------------------------------------------------------------------
    # Conversions and transformations
    # ------------------------------------------------------------------
    def restrict_elements(self, keep: Iterable[int]) -> "SetSystem":
        """Project the instance onto a subset of elements.

        Elements in ``keep`` are renumbered ``0..len(keep)-1`` in increasing
        order of their original id.  Sets are projected; empty projections
        are *kept* (so set indices remain aligned with the original family).
        """
        ordered = sorted(set(keep))
        for element in ordered:
            if not 0 <= element < self._n:
                raise ValueError(f"element {element} outside ground set [0, {self._n})")
        renumber = {old: new for new, old in enumerate(ordered)}
        keep_mask = mask_of(ordered)
        projected = [
            [renumber[e] for e in iter_bits(mask & keep_mask)]
            for mask in self._mask_tuple()
        ]
        return SetSystem(len(ordered), projected)

    def subfamily(self, set_ids: Sequence[int]) -> "SetSystem":
        """Keep only the sets whose indices appear in ``set_ids`` (in order)."""
        return SetSystem(self._n, [self._sets[i] for i in set_ids])

    def residual(self, selection: Iterable[int]) -> "SetSystem":
        """The instance induced on the elements not covered by ``selection``.

        Used by multi-pass algorithms that repeatedly re-solve on the
        yet-uncovered part of the ground set.
        """
        return self.restrict_elements(self.uncovered_by(selection))

    def without_dominated_sets(
        self, backend: str = "auto", jobs=1
    ) -> tuple["SetSystem", list[int]]:
        """Drop sets contained in another set.

        Returns the pruned system together with the original indices of the
        surviving sets.  Classic preprocessing for exact solvers: a dominated
        set can always be replaced by its dominator in an optimal cover.

        Delegates to the packed kernel layer (sort-by-size + vectorized
        submask tests); ``backend="frozenset"`` runs the seed's O(m^2)
        pairwise reference loop.  ``jobs`` fans the pruning kernel out
        over the shared scan thread pool (DESIGN.md §8.5).  All backends
        and worker counts produce the same indices, including the
        duplicate tie-break (first occurrence survives).
        """
        keep = self.packed(backend).non_dominated(jobs=jobs)
        return self.subfamily(keep), keep
