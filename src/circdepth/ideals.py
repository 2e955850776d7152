"""Squarefree monomial ideals, edge ideals and colon/sum arithmetic.

Monomial supports are bitmasks over variable indices.  The one nontrivial
operation here is the colon decomposition of (I(G) : pivot)/I(G) into free
summands over smaller rings; each summand's ideal is the edge ideal of
``graphs.induced_subgraph`` on its ring.  Its verifier walks the standard
supports of I and of each summand's ideal and checks that the summands'
supports, each with its adjoined variable, are exactly the colon quotient's
supports, each once.  That holds in every degree at once, so there is no
degree cap.  ``standard_supports`` is the package's one walk over
independent sets: the standard supports of an edge ideal are the
independent sets of its graph, and the homology oracle reads its faces from
it too.  The walk grows each support by variables below its lowest one,
breadth-first, and yields the supports sorted by (rank, mask), the order
the Stanley-depth solver indexes its poset by.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, Record, bits, components_of_mask, induced_subgraph


class MonomialIdeal(Record):
    """Squarefree monomial ideal with a minimal generating set.

    Each generator is the bitmask of its support.  ambient_vars is carried
    explicitly so quotients over different subrings can never be silently
    conflated.
    """

    ambient_vars: int
    generators: tuple[int, ...]

    def __init__(self, ambient_vars: int, generators: tuple[int, ...]) -> None:
        full = (1 << ambient_vars) - 1
        seen = set()
        for gen in generators:
            if gen == 0:
                raise ValueError("generators must have nonempty support")
            if gen & ~full:
                raise ValueError("generator support exceeds ambient variables")
            if gen in seen:
                raise ValueError("duplicate generator")
            seen.add(gen)
        # distinct supports of one size never contain each other, so each
        # generator is checked only against the strictly smaller ones
        ordered = sorted(generators)
        ordered.sort(key=int.bit_count)  # stable: (bit_count, mask) order
        smaller = 0  # ordered[:smaller] are smaller than the current size
        for i, gen in enumerate(ordered):
            if ordered[smaller].bit_count() < gen.bit_count():
                smaller = i
            if smaller and any(g & ~gen == 0 for g in ordered[:smaller]):
                raise ValueError("generating set is not minimal")
        object.__setattr__(self, "ambient_vars", ambient_vars)
        object.__setattr__(self, "generators", tuple(ordered))

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
# Standard supports
# ---------------------------------------------------------------------------


def standard_supports(ideal: MonomialIdeal) -> list[int]:
    """The squarefree supports outside ``ideal``, sorted by (rank, mask).

    Each support grows by variables below its lowest one, so every subset
    is reached once, from itself minus its lowest variable; the ideal is
    closed upward, so a pruned branch holds no standard support.  Adding
    variable v can only complete a generator whose lowest variable is v.
    Degree-2 generators are never tested: each support carries a mask of
    the variables it may still take, and the child ``m | 1 << v`` keeps
    those below v that share no degree-2 generator with v (``below[v]``).
    Only the generators of other degrees whose lowest variable is v are
    tested, one by one.

    The walk is breadth-first, each rank's supports taken in increasing
    order and each one's children by increasing v.  That order holds: for
    m1 < m2 of one rank and L the lowest bit of m1, the masks strictly
    between m1 and m1 + L have more bits, so m2 >= m1 + L, while every
    child of m1 lies below m1 + L.
    """
    q = ideal.ambient_vars
    # below[v]: the lower variable of each degree-2 generator with highest
    # variable v; rests[v]: every other generator with lowest variable v,
    # minus v (0 for the degree-1 generator v itself, which every m completes)
    below = [0] * q
    rests: list[list[int]] = [[] for _ in range(q)]
    for g in ideal.generators:  # nonempty, inside the q variables
        if g.bit_count() == 2:
            top = g.bit_length() - 1
            below[top] |= g ^ (1 << top)
        else:
            low = g & -g
            rests[low.bit_length() - 1].append(g ^ low)
    supports = [0]
    frees = [(1 << q) - 1]  # frees[i]: the variables supports[i] may still take
    for m, free in zip(supports, frees):  # both grow while they are walked
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            tests = rests[v]  # empty for an edge ideal
            if not tests or not any(r & m == r for r in tests):
                supports.append(m | low)
                frees.append(free & (low - 1) & ~below[v])
    return supports


# ---------------------------------------------------------------------------
# Colon decomposition of (I(G) : pivot)/I(G)
# ---------------------------------------------------------------------------


class ColonSummand(Record):
    """One free summand (S_t/J_t)[adjoined variable] of a colon quotient.

    ring_vars is the bitmask of the summand's ring variables in the parent
    graph's indexing; ideal is J_t re-indexed to those variables (sorted
    ascending).  The adjoined variable is kept separate from ring_vars.
    """

    ring_vars: int
    ideal: MonomialIdeal
    adjoined_var: int

    def __init__(self, ring_vars: int, ideal: MonomialIdeal, adjoined_var: int) -> None:
        if (ring_vars >> adjoined_var) & 1:
            raise ValueError("adjoined variable must not lie in the summand ring")
        if ideal.ambient_vars != ring_vars.bit_count():
            raise ValueError("summand ideal ambient must match ring variable count")
        object.__setattr__(self, "ring_vars", ring_vars)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "adjoined_var", adjoined_var)


def colon_decomposition(
    g: Graph, pivot: int, order: Sequence[int] | None = None
) -> list[ColonSummand]:
    """Free-summand decomposition of (I(G) : x_pivot)/I(G) for connected G.

    A monomial of the colon quotient is divisible by some neighbor of the
    pivot; bucketing by the first neighbor (in ``order``) that divides it
    yields one summand per neighbor t:

        ring_t = V minus N(neighbor_t) minus earlier neighbors,
        J_t    = I(G[ring_t]), the edge ideal of the induced subgraph,

    with neighbor_t itself adjoined as a free variable.  ``order`` defaults
    to ascending vertex index; the summand list depends on it, the direct sum
    does not.
    """
    full = (1 << g.num_vertices) - 1
    if len(components_of_mask(g.adjacency, full)) > 1:
        raise ValueError("colon decomposition requires a connected graph")
    nbrs = sorted(bits(g.adjacency[pivot]))
    if not nbrs:
        raise ValueError("pivot vertex has no neighbors")
    if order is None:
        order = nbrs
    elif sorted(order) != nbrs:
        raise ValueError("order must be a permutation of the pivot's neighborhood")

    summands = []
    earlier = 0
    for nb in order:
        ring = full & ~g.adjacency[nb] & ~earlier & ~(1 << nb)
        summands.append(ColonSummand(ring, edge_ideal(induced_subgraph(g, ring)), nb))
        earlier |= 1 << nb
    return summands


def verify_colon_decomposition(
    g: Graph, pivot: int, order: Sequence[int] | None = None
) -> bool:
    """Check the colon decomposition by a bijection of standard supports.

    The colon quotient (I : pivot)/I is spanned by the monomials whose
    support S is standard for I with S | pivot in I; this side reads only I,
    not the summands.  Summand t is spanned by the multiples of its adjoined
    variable t times the standard monomials of J_t, so its standard support
    T over ring_t maps to T | t.  The check passes when every image is a
    colon support, no image repeats and the images cover every colon support.
    A support S carries C(d-1, |S|-1) monomials of degree d on either side,
    so this proves the two sides equal in every degree.
    """
    ideal = edge_ideal(g)
    pivot_bit = 1 << pivot
    # a standard S has S | pivot in I exactly when S contains the rest of a
    # generator through the pivot
    rests = [gen ^ pivot_bit for gen in ideal.generators if gen & pivot_bit]
    colon = {
        s for s in standard_supports(ideal) if any(r & s == r for r in rests)
    }
    images: set[int] = set()
    for summand in colon_decomposition(g, pivot, order=order):
        ring = list(bits(summand.ring_vars))
        for support in standard_supports(summand.ideal):
            image = 1 << summand.adjoined_var
            for i in bits(support):
                image |= 1 << ring[i]
            if image not in colon or image in images:
                return False
            images.add(image)
    return len(images) == len(colon)
