"""Exact Stanley depth of S/I via interval partitions of the standard-monomial poset.

For a squarefree ideal I the standard squarefree monomials form a
downward-closed family of variable subsets (for an edge ideal: the
independent sets).  S/I has Stanley depth >= k exactly when that family
splits into disjoint intervals [A, B] whose tops all have size >= k.  Any
such top refines into tops of size exactly k (Herzog-Vladoiu-Zheng, "How to
compute the Stanley depth of a monomial ideal", 2009), so the decision for
k runs by exact-cover backtracking on the elements of rank <= k alone, with
tops of rank k; the elements above rank k stay singletons.  The solver
certifies k upward from a known floor and stops at the first k that fails
or at Herzog's counting bound, so a budget timeout still leaves the best
k certified so far, with its witness.

The cover state is one bitset over poset element indices (elements sort by
rank, then mask).  For each k the solver builds, for every element of rank
<= k, the bitsets of its subsets and of its supersets within that prefix, in
one pass each along lower covers; an interval's cell set is then the AND of
its top's subsets and its bottom's supersets, and testing whether an
interval still fits is a single AND.  The counting bound (Herzog,
"A survey on Stanley depth", 2013): with alpha_i standard monomials of
degree i, sdepth >= k forces
``sum_{i<=j} (-1)^(j-i) C(k-i, j-i) alpha_i >= 0`` for every j <= k, since
that sum counts the intervals with bottom rank j once every interval is
refined to tops of size exactly k.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Sequence

from .graphs import bits
from .ideals import MonomialIdeal, standard_supports

POSET_VAR_CAP = 14


class PosetSizeError(ValueError):
    """Ideal has too many ambient variables for poset enumeration."""


class _Budget(Exception):
    pass


@dataclass(frozen=True)
class CharPoset:
    """All variable subsets whose squarefree monomial avoids the ideal."""

    num_vars: int
    elements: tuple[int, ...]  # sorted by (cardinality, mask)

    @property
    def max_rank(self) -> int:
        return self.elements[-1].bit_count() if self.elements else 0

    @cached_property
    def rank_counts(self) -> tuple[int, ...]:
        """alpha_i: the number of elements of rank i, for i = 0..max_rank."""
        counts = [0] * (self.max_rank + 1)
        for m in self.elements:
            counts[m.bit_count()] += 1
        return tuple(counts)

    @cached_property
    def _rank_blocks(self) -> tuple[int, ...]:
        """Bitset over element indices of the elements of each rank."""
        blocks, start = [], 0
        for count in self.rank_counts:
            blocks.append(((1 << count) - 1) << start)
            start += count
        return tuple(blocks)


@dataclass(frozen=True)
class Interval:
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower & ~self.upper:
            raise ValueError("interval lower end must be a subset of the upper end")

    @property
    def top_size(self) -> int:
        return self.upper.bit_count()


@dataclass(frozen=True)
class IntervalPartition:
    intervals: tuple[Interval, ...]

    @property
    def min_top_size(self) -> int:
        return min(iv.top_size for iv in self.intervals)

    def to_json_obj(self, labels: Sequence[str] | None = None) -> list[dict]:
        def names(mask: int) -> list:
            idxs = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
            if labels is None:
                return idxs
            return [labels[i] for i in idxs]

        return [
            {"lower": names(iv.lower), "upper": names(iv.upper)}
            for iv in self.intervals
        ]


@dataclass(frozen=True)
class SdepthResult:
    value: int
    is_exact: bool
    witness: IntervalPartition | None


def char_poset(ideal: MonomialIdeal) -> CharPoset:
    """The standard squarefree monomials of ``ideal`` as masks, sorted by rank.

    The masks come from ``ideals.standard_supports``; this adds the
    variable cap and the (rank, mask) order the solver indexes by.
    """
    q = ideal.ambient_vars
    if q > POSET_VAR_CAP:
        raise PosetSizeError(
            f"{q} variables exceeds the poset cap of {POSET_VAR_CAP}"
        )
    elements = standard_supports(ideal)
    elements.sort(key=lambda m: (m.bit_count(), m))
    return CharPoset(q, tuple(elements))


def _interval_cells(lower: int, upper: int) -> list[int]:
    diff = upper & ~lower
    cells = []
    sub = diff
    while True:
        cells.append(lower | sub)
        if sub == 0:
            return cells
        sub = (sub - 1) & diff


def validate_partition(poset: CharPoset, partition: IntervalPartition) -> bool:
    """Every poset element covered exactly once, nothing outside the poset."""
    element_set = set(poset.elements)
    seen: set[int] = set()
    for iv in partition.intervals:
        for cell in _interval_cells(iv.lower, iv.upper):
            if cell not in element_set or cell in seen:
                return False
            seen.add(cell)
    return len(seen) == len(element_set)


def counting_bound(poset: CharPoset) -> int:
    """Largest k <= max_rank that passes Herzog's counting test (k = 0 always does).

    The test for k: ``sum_{i<=j} (-1)^(j-i) C(k-i, j-i) alpha_i >= 0`` for
    every j <= k, where alpha_i counts the elements of rank i.  Any interval
    partition with all tops of size >= k passes it, so no k above the
    returned value admits one.
    """
    alpha = poset.rank_counts
    for k in range(poset.max_rank, 0, -1):
        if all(
            sum((-1) ** (j - i) * comb(k - i, j - i) * alpha[i] for i in range(j + 1)) >= 0
            for j in range(k + 1)
        ):
            return k
    return 0


def _prefix_bitsets(poset: CharPoset, k: int) -> tuple[list[int], list[int]]:
    """Subset and superset bitsets of the elements of rank <= k.

    Those elements are a prefix of ``poset.elements``.  One forward pass
    over lower covers gives down[i], the indices of the subsets of element
    i; one backward pass along the same covers gives up[i], the indices of
    its supersets within the prefix.  Elements above rank k are never
    touched.
    """
    size = sum(poset.rank_counts[: k + 1])
    prefix = poset.elements[:size]
    index = {m: i for i, m in enumerate(prefix)}
    covers: list[list[int]] = []  # indices of each element's lower covers
    down: list[int] = []
    for i, m in enumerate(prefix):
        below, cells, rest = [], 1 << i, m
        while rest:
            low = rest & -rest
            rest ^= low
            j = index[m ^ low]
            below.append(j)
            cells |= down[j]
        covers.append(below)
        down.append(cells)
    up = [1 << i for i in range(size)]
    for i in range(size - 1, -1, -1):
        above = up[i]
        for j in covers[i]:
            up[j] |= above
    return down, up


def _interval_options(down: list[int], above: int, tops: int) -> list[int]:
    """Cell bitsets of the intervals [A, B] with B in ``tops``, B in poset order.

    ``above`` is up[A] from ``_prefix_bitsets``; the cells of [A, B] are
    exactly down[B] & up[A].
    """
    return [down[t] & above for t in bits(above & tops)]


def find_partition(
    poset: CharPoset, k: int, deadline: float | None = None
) -> IntervalPartition | None:
    """Interval partition with every top of size >= k, or None if impossible.

    Solved on the poset truncated at rank k (Herzog-Vladoiu-Zheng): a
    partition with tops of size >= k exists exactly when the elements of
    rank <= k split into intervals [A, B] with |B| = k, because a larger
    top refines into tops of size k.  Those elements are a prefix of
    ``poset.elements``; every element above rank k joins the witness as a
    singleton [m, m].

    Backtracking exact cover over a bitset of uncovered element indices.
    Any minimal uncovered element must be the bottom of its interval, so
    each node branches on one element of the lowest uncovered rank: the one
    with the fewest still-available tops (fail first, forced moves committed
    immediately; ties go to the smaller mask).  Candidate tops are tried in
    poset order (rank, then mask) for determinism.  A top is available when
    its interval's cell bitset, the AND of the top's subset bitset and the
    bottom's superset bitset built for this k, lies inside the uncovered
    set.  The search keeps its own stack instead of recursing, so it leaves
    no reference cycle behind for the garbage collector.
    """
    elements = poset.elements
    if k > poset.max_rank:
        return None
    down, up = _prefix_bitsets(poset, k)
    blocks = poset._rank_blocks
    tops = blocks[k]
    if not all(above & tops for above in up):
        return None  # some element lies under no element of rank k
    size = len(up)
    # fits[i]: cell bitsets of the intervals over element i, filled on demand;
    # an interval's top is its highest-index cell
    fits: list[list[int] | None] = [None] * size
    uncovered = (1 << size) - 1
    # one frame per chosen interval: [bottom, options, position taken]
    stack: list[list] = []
    nodes = 0
    while True:
        nodes += 1
        if deadline is not None and nodes % 256 == 0 and time.monotonic() > deadline:
            raise _Budget
        if not uncovered:
            return IntervalPartition(tuple(
                Interval(bottom, elements[options[pos].bit_length() - 1])
                for bottom, options, pos in stack
            ) + tuple(Interval(m, m) for m in elements[size:]))
        lowest = elements[(uncovered & -uncovered).bit_length() - 1]
        candidates = uncovered & blocks[lowest.bit_count()]
        best: tuple[int, list[int]] | None = None
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            cand = fits[i]
            if cand is None:
                cand = fits[i] = _interval_options(down, up[i], tops)
            options = [c for c in cand if c & uncovered == c]
            if not options:
                best = None
                break
            if best is None or len(options) < len(best[1]):
                best = (elements[i], options)
                if len(options) == 1:
                    break
        if best is not None:
            stack.append([best[0], best[1], 0])
            uncovered ^= best[1][0]
            continue
        # dead end: undo the latest choice and take its next option
        while stack:
            frame = stack[-1]
            options, pos = frame[1], frame[2]
            uncovered |= options[pos]
            pos += 1
            if pos < len(options):
                frame[2] = pos
                uncovered ^= options[pos]
                break
            stack.pop()
        else:
            return None


def sdepth_exact(
    ideal: MonomialIdeal,
    time_budget: float | None = None,
    floor: int = 0,
) -> SdepthResult:
    """Largest k admitting an interval partition with all tops of size >= k.

    ``floor`` seeds the search with a known lower bound (a closed-form value
    for recognized families).  It is certified by an actual witness first,
    so a wrong floor raises instead of being echoed back.  The search then
    certifies k = floor + 1, floor + 2, ... up to ``counting_bound`` (no
    larger k can succeed) and stops at the first k that admits no
    partition; the answer is monotone in k, so the last success is exact.
    When ``time_budget`` runs out, the result is the highest k certified so
    far with its witness and is_exact false (no witness when even
    the floor was not certified in time).
    """
    poset = char_poset(ideal)
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    floor = max(floor, 0)

    if floor == 0:
        base = IntervalPartition(tuple(Interval(m, m) for m in poset.elements))
    else:
        try:
            base = find_partition(poset, floor, deadline)
        except _Budget:
            return SdepthResult(floor, False, None)
        if base is None:
            raise ValueError(
                f"claimed lower bound {floor} admits no interval partition"
            )

    value, witness = floor, base
    for k in range(floor + 1, counting_bound(poset) + 1):
        try:
            part = find_partition(poset, k, deadline)
        except _Budget:
            return SdepthResult(value, False, witness)
        if part is None:
            break
        value, witness = k, part
    return SdepthResult(value, True, witness)
