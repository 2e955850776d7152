"""Squarefree monomial ideals, edge ideals and colon/sum arithmetic.

Monomial supports are bitmasks over variable indices.  The one nontrivial
operation here is the colon decomposition of (I(G) : pivot)/I(G) into free
summands over smaller rings, together with a degree-by-degree dimension
verifier that counts both sides independently.  Its left side reads only
the ideal: it walks the standard supports S and weights each with the
C(d-1, |S|-1) monomials of degree d whose support is S.  Its right side
sums standard-monomial counts of the summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .graphs import Graph, bits, is_connected

DEFAULT_DEGREE_CAP = 6


class DegreeCapError(ValueError):
    """Requested standard-monomial degree exceeds the configured cap."""


@dataclass(frozen=True)
class MonomialIdeal:
    """Squarefree monomial ideal with a minimal generating set.

    Each generator is the bitmask of its support.  ambient_vars is carried
    explicitly so quotients over different subrings can never be silently
    conflated.
    """

    ambient_vars: int
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        full = (1 << self.ambient_vars) - 1
        seen = set()
        for gen in self.generators:
            if gen == 0:
                raise ValueError("generators must have nonempty support")
            if gen & ~full:
                raise ValueError("generator support exceeds ambient variables")
            if gen in seen:
                raise ValueError("duplicate generator")
            seen.add(gen)
        # distinct supports of one size never contain each other, so each
        # generator is checked only against the strictly smaller ones
        ordered = tuple(sorted(self.generators, key=lambda m: (m.bit_count(), m)))
        smaller = 0  # ordered[:smaller] are smaller than the current size
        for i, gen in enumerate(ordered):
            if ordered[smaller].bit_count() < gen.bit_count():
                smaller = i
            if any(g & ~gen == 0 for g in ordered[:smaller]):
                raise ValueError("generating set is not minimal")
        object.__setattr__(self, "generators", ordered)

    @classmethod
    def create(cls, ambient_vars: int, supports: Iterable[int]) -> "MonomialIdeal":
        """Build from arbitrary supports, discarding non-minimal generators."""
        supports = list(supports)
        _check_in_ring(ambient_vars, supports)
        return cls(ambient_vars, tuple(_minimalize(supports)))

    def contains_support(self, support: int) -> bool:
        """Membership of the squarefree monomial with the given support."""
        return any(g & ~support == 0 for g in self.generators)


def _check_in_ring(ambient_vars: int, supports: Iterable[int]) -> None:
    # s & ~full is nonzero for negative s as well
    full = (1 << ambient_vars) - 1
    for s in supports:
        if s & ~full:
            raise ValueError(f"support {s} lies outside {ambient_vars} variables")


def _minimalize(supports: Iterable[int]) -> list[int]:
    uniq = sorted(set(supports), key=lambda m: (m.bit_count(), m))
    out: list[int] = []
    for m in uniq:
        if not any(kept & ~m == 0 for kept in out):
            out.append(m)
    return out


def edge_ideal(g: Graph) -> MonomialIdeal:
    """One degree-2 generator per edge of the graph."""
    return MonomialIdeal(
        g.num_vertices, tuple((1 << u) | (1 << v) for u, v in g.edges())
    )


def colon_by_monomial(ideal: MonomialIdeal, u: int) -> MonomialIdeal:
    """(I : u) for the squarefree monomial with support u, not in I."""
    _check_in_ring(ideal.ambient_vars, [u])
    if ideal.contains_support(u):
        raise ValueError("colon by a monomial inside the ideal is the unit ideal")
    return MonomialIdeal.create(ideal.ambient_vars, (g & ~u for g in ideal.generators))


# ---------------------------------------------------------------------------
# Standard monomial counting
# ---------------------------------------------------------------------------


def standard_monomial_count(
    ideal: MonomialIdeal, degree: int, cap: int = DEFAULT_DEGREE_CAP
) -> int:
    """Number of degree-d monomials of the ambient ring not lying in the ideal.

    Sums signed multiple-counts over lcms of generator subsets
    (inclusion-exclusion).
    """
    if degree < 0:
        return 0
    if degree > cap:
        raise DegreeCapError(f"degree {degree} exceeds cap {cap}")
    q = ideal.ambient_vars
    gens = ideal.generators
    total = _monomials_of_degree(q, degree)

    # DFS over generator subsets; the lcm of a squarefree set is the support
    # union, and once it outgrows the degree every superset contributes 0.
    in_ideal = 0

    def walk(start: int, lcm: int, sign: int) -> None:
        nonlocal in_ideal
        for idx in range(start, len(gens)):
            new = lcm | gens[idx]
            k = new.bit_count()
            if k > degree:
                continue
            in_ideal += sign * _monomials_of_degree(q, degree - k)
            walk(idx + 1, new, -sign)

    walk(0, 0, 1)
    return total - in_ideal


def _monomials_of_degree(q: int, d: int) -> int:
    return comb(d + q - 1, q - 1) if q > 0 else (1 if d == 0 else 0)


# ---------------------------------------------------------------------------
# Colon decomposition of (I(G) : pivot)/I(G)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColonSummand:
    """One free summand (S_t/J_t)[adjoined variable] of a colon quotient.

    ring_vars is the bitmask of the summand's ring variables in the parent
    graph's indexing; ideal is J_t re-indexed to those variables (sorted
    ascending).  The adjoined variable is kept separate from ring_vars.
    """

    ring_vars: int
    ideal: MonomialIdeal
    adjoined_var: int

    def __post_init__(self) -> None:
        if (self.ring_vars >> self.adjoined_var) & 1:
            raise ValueError("adjoined variable must not lie in the summand ring")
        if self.ideal.ambient_vars != self.ring_vars.bit_count():
            raise ValueError("summand ideal ambient must match ring variable count")


def colon_decomposition(
    g: Graph, pivot: int, order: Sequence[int] | None = None
) -> list[ColonSummand]:
    """Free-summand decomposition of (I(G) : x_pivot)/I(G) for connected G.

    A monomial of the colon quotient is divisible by some neighbor of the
    pivot; bucketing by the first neighbor (in ``order``) that divides it
    yields one summand per neighbor t:

        ring_t = V minus N(neighbor_t) minus earlier neighbors,
        J_t    = edges of G inside ring_t,

    with neighbor_t itself adjoined as a free variable.  ``order`` defaults
    to ascending vertex index; the summand list depends on it, the direct sum
    does not.
    """
    if not is_connected(g):
        raise ValueError("colon decomposition requires a connected graph")
    nbrs = sorted(bits(g.adjacency[pivot]))
    if not nbrs:
        raise ValueError("pivot vertex has no neighbors")
    if order is None:
        order = nbrs
    elif sorted(order) != nbrs:
        raise ValueError("order must be a permutation of the pivot's neighborhood")

    full = (1 << g.num_vertices) - 1
    ideal = edge_ideal(g)
    summands = []
    earlier = 0
    for nb in order:
        ring = full & ~g.adjacency[nb] & ~earlier & ~(1 << nb)
        keep = list(bits(ring))
        pos = {v: i for i, v in enumerate(keep)}
        gens = []
        for gen in ideal.generators:
            if gen & ~ring == 0:
                reindexed = 0
                for v in bits(gen):
                    reindexed |= 1 << pos[v]
                gens.append(reindexed)
        summands.append(
            ColonSummand(
                ring_vars=ring,
                ideal=MonomialIdeal.create(len(keep), gens),
                adjoined_var=nb,
            )
        )
        earlier |= 1 << nb
    return summands


def _colon_quotient_counts(ideal: MonomialIdeal, pivot: int, dmax: int) -> list[int]:
    """Monomials of each degree 0..dmax lying in (I : pivot) but not in I.

    Both conditions depend only on the monomial's support S, and there are
    C(d-1, |S|-1) monomials of degree d >= 1 with support exactly S (the
    empty support has degree 0 only).  So the supports outside I of size at
    most dmax are walked once, each grown by variables above its highest
    one; I is closed upward, so a pruned branch holds no standard support.
    """
    pivot_bit = 1 << pivot
    colon = [0] * (dmax + 1)  # colon[s]: standard supports of size s in (I : pivot)
    supports = [0]
    for m in supports:  # grows while it is walked
        size = m.bit_count()
        if ideal.contains_support(m | pivot_bit):
            colon[size] += 1
        if size < dmax:
            for v in range(m.bit_length(), ideal.ambient_vars):
                grown = m | 1 << v
                if not ideal.contains_support(grown):
                    supports.append(grown)
    return [colon[0]] + [
        sum(comb(d - 1, s - 1) * colon[s] for s in range(1, d + 1))
        for d in range(1, dmax + 1)
    ]


def verify_colon_decomposition(
    g: Graph,
    pivot: int,
    dmax: int,
    order: Sequence[int] | None = None,
    cap: int = DEFAULT_DEGREE_CAP,
) -> bool:
    """Check the colon decomposition degree by degree up to dmax.

    The left side counts monomials of each degree d lying in (I : pivot) but
    not in I.  It reads only I, not the summands: it walks the standard
    supports S of I and weights each with the C(d-1, |S|-1) monomials of
    degree d whose support is S.  The right side sums, over summands, the
    degree d-1 standard monomials of J_t with the adjoined variable free.
    Degree d-1 because each summand sits inside the quotient shifted by one
    (its elements are multiples of the adjoined variable).
    """
    if dmax > cap:
        raise DegreeCapError(f"dmax {dmax} exceeds cap {cap}")
    with_adjoined = [
        MonomialIdeal(s.ideal.ambient_vars + 1, s.ideal.generators)
        for s in colon_decomposition(g, pivot, order=order)
    ]
    lhs = _colon_quotient_counts(edge_ideal(g), pivot, dmax)
    return all(
        lhs[d] == sum(standard_monomial_count(j, d - 1, cap=cap) for j in with_adjoined)
        for d in range(dmax + 1)
    )
