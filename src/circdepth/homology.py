"""Graded Betti numbers of edge-ideal quotients via induced-subcomplex homology.

For a graph G on q vertices, beta_{i,j} of S/I(G) equals the sum over
j-subsets sigma of dim H~_{j-i-1} of the independence complex of G[sigma].
This module evaluates that sum, computes reduced homology by exact rank
computations over a chosen field, and extracts depth, projective dimension
and regularity from the resulting table.

Every rule below is exact over every field.  Ind(H) is the independence
complex of H, and N[w] is w with its neighbours.

  * simplicial vertex (Adamaszek, "Splittings of independence complexes and
    the powers of cycles", 2012): if the neighbours of v are pairwise
    adjacent, then Ind(H) is homotopy equivalent to the wedge over w in N(v)
    of the suspensions of Ind(H - N[w]).  An isolated vertex (a cone) and a
    leaf (Engstrom's leaf lemma) are its cases with zero and one neighbour,
    and a complete graph K_q is settled in O(q^2) terms,
  * fold (Engstrom, "Independence complexes of claw-free graphs", 2008): if
    N(u) is contained in N(w) for u != w, then Ind(H) is homotopy equivalent
    to Ind(H - w),
  * component transfer: Ind of a disconnected graph is the join over its
    components, so its homology vanishes when one of them is a single vertex
    or acyclic, and Hochster's sum runs over unions of pairwise separated
    connected sets of size >= 2, not over all 2^q subsets,
  * vertex split (Adamaszek 2012): Ind(H) is the union of Ind(H - v) and the
    cone v * Ind(H - N[v]), which meet in Ind(H - N[v]).  When the two have
    no nonzero reduced homology in a common degree, every map between them
    in the Mayer-Vietoris sequence is zero, and
    dim H~_i(Ind H) = dim H~_i(Ind(H - v)) + dim H~_{i-1}(Ind(H - N[v])),
  * faces: a connected induced subgraph that no rule reduces has its
    independent sets, the standard supports of its edge ideal
    (ideals.standard_supports), enumerated and its homology read off
    boundary ranks,
  * rotation: if i -> i+1 (mod q) is an automorphism of G, as on every
    circulant with its native labels, it moves each vertex to the next one
    and keeps the homology of every induced subgraph, so every vertex lies
    in the same number of j-subsets sigma with a given homology.  Let
    Z_j(U) sum that homology over the j-subsets of U.  Counting the pairs
    (v, sigma) with v in sigma once by sigma and once by v gives
    j Z_j(V) = q (Z_j(V) - Z_j(V - 0)), so Z_j(V) = q Z_j(V - 0) / (q - j)
    for j < q, and Z_q(V) is the homology of G itself.

The simplicial rule runs at both levels: in the sum over subsets
(_HochsterSum.subset_sum) and in the homology of one induced subgraph
(_HochsterSum.induced_homology).  The fold rule runs in the sum only: for a
fold pair (u, w), u is isolated in H - N[w], a cone, so the vertex split at
w always applies and gives Ind(H - w).  Both levels are memoised for one table.
The rotation rule runs once, at the top of the sum (_HochsterSum.rotation_sum).

Each sum Z(U) is one int with a 32-bit slot per (|sigma|, s), so the rules'
products by x^k y^s are shifts and their sums and differences are int sums
and differences.  That is exact because every coefficient is at most 3^q and
because beta_{i,j} != 0 only when j <= 2i, so s <= q/2; the _HochsterSum
docstring proves both.  A sum is unpacked into {(|sigma|, s): multiplicity}
only for the table itself (_HochsterSum.terms).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterator, Sequence

from .graphs import Graph, bits, components_of_mask, induced_subgraph
from .ideals import edge_ideal, standard_supports

ORACLE_VERTEX_CAP = 20


class OracleSizeError(ValueError):
    """Graph too large for the subset-enumeration oracle."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic p > 0 for GF(p), 0 for the rationals."""

    characteristic: int

    def __post_init__(self) -> None:
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise ValueError("field characteristic must be 0 or a prime")

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


GF2 = FieldSpec(2)
GF32003 = FieldSpec(32003)
RATIONALS = FieldSpec(0)


@dataclass(frozen=True)
class BettiTable:
    """Nonzero beta_{i,j} multiplicities of S/I(G).

    ``pdim`` and ``reg`` are read off the entries; ``depth`` follows from pdim
    by Auslander-Buchsbaum, depth = ambient_vars - pdim.
    """

    ambient_vars: int
    entries: tuple[tuple[tuple[int, int], int], ...]

    @classmethod
    def from_dict(cls, ambient_vars: int, data: dict[tuple[int, int], int]) -> "BettiTable":
        items = tuple(sorted((ij, m) for ij, m in data.items() if m))
        return cls(ambient_vars, items)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def betti(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)

    @property
    def pdim(self) -> int:
        return max(i for (i, _j), _m in self.entries)

    @property
    def reg(self) -> int:
        return max(j - i for (i, j), _m in self.entries)

    @property
    def depth(self) -> int:
        return self.ambient_vars - self.pdim


# ---------------------------------------------------------------------------
# Exact rank computation
# ---------------------------------------------------------------------------

SparseColumns = list[list[tuple[int, int]]]
# reduced homology as (s, dim H~_{s-1}) pairs with dim > 0, () if acyclic
Homology = tuple[tuple[int, int], ...]


def _rank_mod_p(columns: SparseColumns, p: int) -> int:
    """Rank over GF(p), or over the rationals when p == 0 (as in FieldSpec).

    Columns are (row, entry) lists with distinct rows and entries +-1, which
    are nonzero in every field; they are reduced mod p as they are updated.
    """
    # sparse column reduction: keep one normalized column per pivot row
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        cur = dict(col)
        while cur:
            piv = max(cur)
            other = pivots.get(piv)
            if other is None:
                if p:
                    inv = pow(cur[piv], p - 2, p)
                else:  # an integer inverse keeps the column's entries integers
                    inv = cur[piv] if cur[piv] in (1, -1) else Fraction(1, cur[piv])
                pivots[piv] = {r: (c * inv) % p if p else c * inv for r, c in cur.items()}
                rank += 1
                break
            f = cur[piv]
            for r, c in other.items():
                v = cur.get(r, 0) - f * c
                if p:
                    v %= p
                if v:
                    cur[r] = v
                else:
                    cur.pop(r, None)
    return rank


def _boundary_columns(lower: Sequence[int], upper: Sequence[int]) -> SparseColumns:
    row_index = {m: i for i, m in enumerate(lower)}
    columns = []
    for m in upper:
        col = []
        sign = 1
        rest = m
        while rest:
            low = rest & -rest
            col.append((row_index[m ^ low], sign))
            sign = -sign
            rest ^= low
        columns.append(col)
    return columns


# ---------------------------------------------------------------------------
# Reduced homology
# ---------------------------------------------------------------------------


def _homology_from_faces(faces: Sequence[int], field: FieldSpec) -> Homology:
    """Reduced homology of a simplicial complex from its faces as masks.

    ``faces`` lists every face once in order of size, so it starts with the
    empty face 0, as ``standard_supports`` walks them.
    """
    by_size = [list(group) for _size, group in groupby(faces, int.bit_count)]
    ranks = [0] * (len(by_size) + 1)
    for s in range(1, len(by_size)):
        columns = _boundary_columns(by_size[s - 1], by_size[s])
        ranks[s] = _rank_mod_p(columns, field.characteristic)
    dims = (len(faces_s) - ranks[s] - ranks[s + 1] for s, faces_s in enumerate(by_size))
    return tuple((s, dim) for s, dim in enumerate(dims) if dim)


def _simplicial(adjacency: Sequence[int], mask: int) -> tuple[int, int] | None:
    """(v, N(v) & mask) for the lowest vertex v of G[mask] whose neighbours
    are pairwise adjacent, or None.

    A vertex of degree <= 1 passes at once.  Otherwise its neighbours are
    checked lowest first, and the check stops at the first neighbour that
    misses a higher one, so a triangle-free graph costs one test per vertex.
    """
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        nbr = rest = adjacency[v] & mask
        while rest & (rest - 1):
            u = rest & -rest
            rest ^= u
            if rest & ~adjacency[u.bit_length() - 1]:
                break
        else:
            return v, nbr
        m ^= low
    return None


def _join(a: Homology, b: Homology) -> Homology:
    """Homology of the join of two complexes: sizes add and dimensions multiply."""
    out: dict[int, int] = {}
    for s, x in a:
        for t, y in b:
            out[s + t] = out.get(s + t, 0) + x * y
    return tuple(out.items())


def _fold_pair(adjacency: Sequence[int], mask: int) -> tuple[int, int] | None:
    """(u, w) in ``mask`` with u != w and N(u) <= N(w) in G[mask], or None.

    For each u the candidates are the common neighbours of N(u), which are
    exactly the w whose neighbourhood contains N(u); u itself is excluded.
    Such u and w are never adjacent, since w is not in N(w).
    """
    for u in bits(mask):
        cand = mask & ~(1 << u)
        for v in bits(adjacency[u] & mask):
            cand &= adjacency[v]
            if not cand:
                break
        if cand:
            return u, (cand & -cand).bit_length() - 1
    return None


def _rotation_invariant(adjacency: Sequence[int]) -> bool:
    """True when i -> i+1 (mod q) maps the graph onto itself.

    That holds when each N(i + 1) is N(i) rotated by one place, which is one
    cyclic shift of the bitset per vertex.
    """
    q = len(adjacency)
    full = (1 << q) - 1
    return all(
        adjacency[(i + 1) % q] == (nbr << 1 & full) | nbr >> (q - 1)
        for i, nbr in enumerate(adjacency)
    )


def _connected_sets(
    adjacency: Sequence[int], low: int, within: int
) -> Iterator[tuple[int, int]]:
    """Yield (C, N[C]) for every connected C with low <= C <= within and |C| >= 2.

    ``low`` is a one-vertex mask inside ``within``.  C grows from it: the
    lowest frontier vertex is either added to C or excluded for good, so
    every connected set is reached at exactly one leaf.
    """
    stack = [(low, adjacency[low.bit_length() - 1], within)]
    while stack:
        comp, nbrs, allowed = stack.pop()
        frontier = nbrs & allowed & ~comp
        if frontier:
            u = frontier & -frontier
            stack.append((comp, nbrs, allowed ^ u))
            stack.append((comp | u, nbrs | adjacency[u.bit_length() - 1], allowed))
        elif comp != low:
            yield comp, nbrs  # a connected C of size >= 2 lies inside its N(C)


# Bits per slot of a packed sum; _HochsterSum's docstring proves it enough
# for every graph within ORACLE_VERTEX_CAP.  _HochsterSum.terms reads the
# slots as C unsigned ints, so the two change together.
_SLOT_BITS = 32


class _HochsterSum:
    """Hochster's sum for one graph and field by the rules of the module docstring.

    Z(U) is the sum over subsets sigma of U of the homology of Ind(G[sigma]):
    a polynomial whose coefficient of x^j y^s is the sum of
    dim H~_{s-1}(Ind G[sigma]) over the j-subsets sigma, with Z({}) = 1.  It
    is kept as one int, packed with the coefficient of x^j y^s in the
    _SLOT_BITS-bit slot at bit offset (j W + s) _SLOT_BITS, where
    W = q//2 + 1 slots make one row.  So a product with x^k y^s is a left
    shift by k rows and s slots, and sums and differences of polynomials are
    those of their ints.  Two facts make that exact:

      * slot width: a coefficient of Z(U) is at most the sum over sigma <= U
        of #faces(Ind G[sigma]) <= sum of 2^|sigma| = 3^|U| <= 3^q, and
        3^20 < 2^32, so 32 bits hold every graph within ORACLE_VERTEX_CAP
        (64 would hold q <= 40).  The rules below add only terms of the
        final Z(U), each coefficientwise >= 0: every partial sum, and the
        fold rule's difference, which sums over the subsets holding u, lies
        coefficientwise between 0 and Z(U), so no slot carries or borrows;
      * row width: the coefficient of x^j y^s in Z(U) is beta_{j-s,j} of
        k[U]/I(G[U]).  That ideal is generated in degree 2, so by its Taylor
        resolution beta_{i,j} != 0 only when j <= 2i, that is s <= j/2 <= q/2.
        Hence s < W, and a shift never moves a term into the next row.

    The first rule that applies to U gives Z(U):

      * a simplicial vertex v of G[U]: v stays simplicial in every G[sigma]
        that holds it, so such a sigma is a cone unless it holds a neighbour
        w of v, and then it contributes the suspension of
        Ind(G[sigma - N[w]]) for each such w, whichever of the other
        t_w = |N(w) & U| - 1 neighbours of w it holds.  Hence

            Z(U) = Z(U - v) + sum over w in N(v) & U of
                   x^2 (1 + x)^t_w y Z(U - N[w]);

      * a fold pair (u, w) of G[U], so N(u) & U <= N(w) & U and u, w are not
        adjacent: a sigma holding u and w keeps the pair, so Ind(G[sigma])
        is homotopy equivalent to Ind(G[sigma - w]), and the sets sigma - w
        are the subsets of U - w that hold u, which gives

            Z(U) = Z(U - u) + (1 + x) (Z(U - w) - Z(U - u - w));

      * otherwise, by component transfer, splitting off the component C of
        the lowest vertex v of U gives

            Z(U) = Z(U - v) + sum of x^|C| h_C Z(U - N[C])

        over connected C with v in C <= U, |C| >= 2 and h_C != 0.

    Both Z and the homology of each induced subgraph are memoised for the
    whole object.
    """

    def __init__(self, graph: Graph, field: FieldSpec) -> None:
        self.graph = graph
        self.adjacency = graph.adjacency
        self.field = field
        self.width = graph.num_vertices // 2 + 1
        self.row = self.width * _SLOT_BITS
        self.sums: dict[int, int] = {0: 1}
        self.homology: dict[int, Homology] = {0: ((0, 1),)}  # Ind of the empty graph

    def subset_sum(self, within: int) -> int:
        """Z(within), packed."""
        z = self.sums.get(within)
        if z is None:
            adjacency, row = self.adjacency, self.row
            simplicial = _simplicial(adjacency, within)
            if simplicial is not None:
                v, nbr = simplicial
                z = self.subset_sum(within ^ (1 << v))
                for w in bits(nbr):
                    rest = within & ~(adjacency[w] | 1 << w)
                    # x^2 y, then (1 + x) once for each other neighbour of w
                    term = self.subset_sum(rest) << (2 * row + _SLOT_BITS)
                    for _ in range((adjacency[w] & within).bit_count() - 1):
                        term += term << row
                    z += term
            elif (pair := _fold_pair(adjacency, within)) is not None:
                u, w = (1 << v for v in pair)
                z = self.subset_sum(within ^ u)
                d = self.subset_sum(within ^ w) - self.subset_sum(within ^ u ^ w)
                z += d + (d << row)
            else:
                low = within & -within
                z = self.subset_sum(within ^ low)
                for comp, closed in _connected_sets(adjacency, low, within):
                    h = self.induced_homology(comp)
                    if h:
                        rest = self.subset_sum(within & ~closed) << comp.bit_count() * row
                        for s, dim in h:
                            z += (rest if dim == 1 else dim * rest) << s * _SLOT_BITS
            self.sums[within] = z
        return z

    def terms(self, z: int) -> dict[tuple[int, int], int]:
        """{(j, s): coefficient of x^j y^s} over the nonzero slots of a packed sum."""
        slots = (self.graph.num_vertices + 1) * self.width
        packed = memoryview(z.to_bytes(slots * _SLOT_BITS // 8, sys.byteorder)).cast("I")
        return {divmod(k, self.width): mult for k, mult in enumerate(packed) if mult}

    def rotation_sum(self) -> dict[tuple[int, int], int]:
        """Z(V) of a graph that i -> i+1 (mod q) maps onto itself, q >= 1, as terms.

        By the rotation rule of the module docstring the terms of size
        j < q are q/(q - j) times those of Z(V - 0), and the terms of size q
        are the homology of G.  Each division must be exact.
        """
        q = self.graph.num_vertices
        full = (1 << q) - 1
        z: dict[tuple[int, int], int] = {}
        for (j, s), mult in self.terms(self.subset_sum(full ^ 1)).items():
            z[(j, s)], rest = divmod(q * mult, q - j)
            if rest:
                raise ArithmeticError(
                    f"rotation rule: {q} * {mult} is not divisible by {q - j}"
                )
        for s, dim in self.induced_homology(full):
            z[(q, s)] = dim
        return z

    def induced_homology(self, mask: int) -> Homology:
        """Reduced homology of Ind(G[mask]).

        The first rule that applies gives it: a simplicial vertex v makes it
        the sum over w in N(v) of the homology of mask - N[w] with every s
        raised by one (none for an isolated v); a disconnected mask gives the
        join over its components; then the vertex split, and only a component
        that no vertex splits goes to face enumeration and ranks.  A fold pair
        (u, w) needs no rule here: u is isolated in mask - N[w], so w splits
        the mask and gives the homology of mask - w.
        """
        h = self.homology.get(mask)
        if h is None:
            adjacency = self.adjacency
            simplicial = _simplicial(adjacency, mask)
            if simplicial is not None:
                out: dict[int, int] = {}
                for w in bits(simplicial[1]):
                    for s, dim in self.induced_homology(mask & ~(adjacency[w] | 1 << w)):
                        out[s + 1] = out.get(s + 1, 0) + dim
                h = tuple(out.items())
            elif len(parts := components_of_mask(adjacency, mask)) > 1:
                h = ((0, 1),)  # the unit of the join
                for part in parts:
                    h = _join(h, self.induced_homology(part))
                    if not h:
                        break
            else:
                h = self._vertex_split(mask)
                if h is None:
                    ideal = edge_ideal(induced_subgraph(self.graph, mask))
                    h = _homology_from_faces(standard_supports(ideal), self.field)
            self.homology[mask] = h
        return h

    def _vertex_split(self, mask: int) -> Homology | None:
        """Homology of Ind(G[mask]) from the first vertex that splits it, or None.

        v splits mask when the homology A of mask - N[v] and B of mask - v
        share no index s; the result is then B plus A with every s raised by
        one.  Both are memoised, so a vertex that fails still fills the memo.
        """
        adjacency = self.adjacency
        for v in bits(mask):
            a = self.induced_homology(mask & ~(adjacency[v] | 1 << v))
            b = self.induced_homology(mask ^ 1 << v)
            if not {s for s, _dim in a} & {s for s, _dim in b}:
                out = dict(b)
                for s, dim in a:
                    out[s + 1] = out.get(s + 1, 0) + dim
                return tuple(out.items())
        return None


def hochster_betti_table(g: Graph, field: FieldSpec = GF32003) -> BettiTable:
    """Full graded Betti table of S/I(G) over the given field.

    The table is Z(V) of _HochsterSum, whose recurrence visits connected
    vertex sets rather than all 2^q subsets; Z counts the empty subset as
    beta_{0,0} = 1.  When i -> i+1 (mod q) is an automorphism, Z(V) comes
    from Z(V - 0) by the rotation rule.  Graphs above ORACLE_VERTEX_CAP
    vertices are refused (use the closed-form route for family members
    instead).
    """
    q = g.num_vertices
    if q > ORACLE_VERTEX_CAP:
        raise OracleSizeError(
            f"{q} vertices exceeds the oracle cap of {ORACLE_VERTEX_CAP}; "
            "closed-form family values remain available"
        )
    oracle = _HochsterSum(g, field)
    if q and _rotation_invariant(g.adjacency):
        z = oracle.rotation_sum()
    else:
        z = oracle.terms(oracle.subset_sum((1 << q) - 1))
    beta = {(j - s, j): mult for (j, s), mult in z.items()}
    return BettiTable.from_dict(q, beta)

