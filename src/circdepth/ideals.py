"""Squarefree monomial ideals, edge ideals and colon/sum arithmetic.

Monomial supports are bitmasks over variable indices.  The one nontrivial
operation here is the colon decomposition of (I(G) : pivot)/I(G) into free
summands over smaller rings.  Its verifier walks the standard supports of I
and of each summand's ideal (``standard_supports``, the package's one such
walk) and checks that the summands' supports, each with its adjoined
variable, are exactly the colon quotient's supports, each once.  That holds
in every degree at once, so there is no degree cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph, bits, is_connected

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
# Standard supports
# ---------------------------------------------------------------------------


def standard_supports(ideal: MonomialIdeal) -> list[int]:
    """The supports of the squarefree monomials outside ``ideal``, in walk order.

    Each support grows by variables above its highest one, so every subset
    is reached once, from itself minus its top variable; the ideal is closed
    upward, so a pruned branch holds no standard support.  Adding variable v
    can only complete a generator whose highest variable is v, so only those
    are tested: the degree-2 ones with one AND against ``below[v]``, the
    rest one by one.
    """
    q = ideal.ambient_vars
    # below[v]: the other variable of each degree-2 generator with highest
    # variable v; rests[v]: every other such generator, minus v (0 for the
    # degree-1 generator v itself, which every m completes)
    below = [0] * q
    rests: list[list[int]] = [[] for _ in range(q)]
    for g in ideal.generators:  # nonempty, inside the q variables
        top = g.bit_length() - 1
        rest = g ^ (1 << top)
        if rest.bit_count() == 1:
            below[top] |= rest
        else:
            rests[top].append(rest)
    supports = [0]
    for m in supports:  # grows while it is walked
        for v in range(m.bit_length(), q):
            if not m & below[v] and not any(r & m == r for r in rests[v]):
                supports.append(m | 1 << v)
    return supports


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
