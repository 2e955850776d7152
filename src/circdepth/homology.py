"""Graded Betti numbers of edge-ideal quotients via induced-subcomplex homology.

For a graph G on q vertices, beta_{i,j} of S/I(G) equals the sum over
j-subsets sigma of dim H~_{j-i-1} of the independence complex of G[sigma].
This module enumerates the 2^q subsets, computes reduced homology by exact
rank computations over a chosen field, and extracts depth, projective
dimension and regularity from the resulting table.

Three reductions, all exact over every field:
  * subsets inducing an isolated vertex are skipped (their complex is a cone),
  * per-subset homology factors over connected components (topological join),
    so each connected piece is computed once per chunk and reused,
  * the fold lemma (Engstrom, "Independence complexes of claw-free graphs",
    2008): if N(u) is contained in N(w) for u != w, then Ind(G) is homotopy
    equivalent to Ind(G - w), so a component with such a pair is replaced by
    the smaller graph, which splits and folds again.  Only components with no
    fold pair reach face enumeration and rank computation.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import Graph, bits, components_of_mask

ORACLE_VERTEX_CAP = 20
SLOW_TIER_MIN = 16


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
DEFAULT_FIELDS = (GF2, GF32003)


@dataclass(frozen=True)
class BettiTable:
    """Nonzero beta_{i,j} multiplicities of S/I(G)."""

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


@dataclass(frozen=True)
class InvariantReport:
    """depth/pdim/reg of one quotient ring, with computation provenance."""

    depth: int
    pdim: int
    reg: int
    ambient_vars: int
    field: FieldSpec
    method: str

    def __post_init__(self) -> None:
        if self.depth + self.pdim != self.ambient_vars:
            raise ValueError("depth + pdim must equal the number of variables")


@dataclass(frozen=True)
class CrossFieldReport:
    """Comparison of Betti tables over two prime fields, with rational arbiter."""

    fields: tuple[FieldSpec, FieldSpec]
    tables: tuple[BettiTable, BettiTable]
    equal: bool
    differing: tuple[tuple[int, int, int, int], ...]  # (i, j, mult_1, mult_2)
    arbiter: BettiTable | None


# ---------------------------------------------------------------------------
# Exact rank computation
# ---------------------------------------------------------------------------

SparseColumns = list[list[tuple[int, int]]]


def _rank_gf2(columns: SparseColumns) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        acc = 0
        for row, _sign in col:
            acc ^= 1 << row
        while acc:
            p = acc.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                pivots[p] = acc
                rank += 1
                break
            acc ^= other
    return rank


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
                inv = pow(cur[piv], p - 2, p) if p else Fraction(1, cur[piv])
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


def _boundary_rank(lower: Sequence[int], upper: Sequence[int], field: FieldSpec) -> int:
    if not lower or not upper:
        return 0
    columns = _boundary_columns(lower, upper)
    if field.characteristic == 2:
        return _rank_gf2(columns)
    return _rank_mod_p(columns, field.characteristic)


# ---------------------------------------------------------------------------
# Reduced homology
# ---------------------------------------------------------------------------


def _homology_from_faces(faces_by_size: Sequence[Sequence[int]], field: FieldSpec) -> list[int]:
    """Reduced homology dims from faces-as-masks grouped by cardinality.

    faces_by_size[s] holds the size-s faces; faces_by_size[0] must be [0]
    (the empty face).  Returns h with h[s] = dim H~_{s-1}, trailing zeros
    stripped.
    """
    top = len(faces_by_size) - 1
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        ranks[s] = _boundary_rank(faces_by_size[s - 1], faces_by_size[s], field)
    h = [len(faces_by_size[s]) - ranks[s] - ranks[s + 1] for s in range(top + 1)]
    while h and h[-1] == 0:
        h.pop()
    return h


def reduced_homology_dims(
    faces_by_dim: Sequence[Sequence[Sequence[int]]], field: FieldSpec
) -> list[int]:
    """Reduced homology dimensions of a simplicial complex, indexed from -1.

    faces_by_dim[k] lists the k-dimensional faces as vertex-index iterables;
    the empty face is implicit.  The complex must be closed under taking
    subsets (checked).  Position s of the result is dim H~_{s-1}, so a
    2-sphere yields [0, 0, 0, 1].
    """
    faces_by_size: list[list[int]] = [[0]]
    seen: set[int] = {0}
    for k, faces in enumerate(faces_by_dim):
        size = k + 1
        masks = []
        for face in faces:
            verts = sorted(set(face))
            if len(verts) != size:
                raise ValueError(f"face {tuple(face)} is not {k}-dimensional")
            mask = 0
            for v in verts:
                if v < 0:
                    raise ValueError("vertex indices must be nonnegative")
                mask |= 1 << v
            if mask in seen:
                raise ValueError(f"duplicate face {tuple(face)}")
            masks.append(mask)
            seen.add(mask)
        faces_by_size.append(sorted(masks))
    for s in range(2, len(faces_by_size)):
        for mask in faces_by_size[s]:
            for v in bits(mask):
                if mask ^ (1 << v) not in seen:
                    raise ValueError("complex is not closed under subsets")
    h = _homology_from_faces(faces_by_size, field)
    h += [0] * (len(faces_by_size) - len(h))
    return h


def _independence_faces_by_size(adjacency: Sequence[int], mask: int) -> list[list[int]]:
    """Independent subsets of ``mask`` grouped by cardinality ([0] at size 0)."""
    verts = list(bits(mask))
    faces: list[list[int]] = [[0]]

    def extend(start: int, cur: int, size: int, banned: int) -> None:
        for idx in range(start, len(verts)):
            v = verts[idx]
            if (banned >> v) & 1:
                continue
            new = cur | (1 << v)
            if size + 1 == len(faces):
                faces.append([])
            faces[size + 1].append(new)
            extend(idx + 1, new, size + 1, banned | adjacency[v])

    extend(0, 0, 0, 0)
    return faces


def _has_isolated(adjacency: Sequence[int], mask: int) -> bool:
    m = mask
    while m:
        low = m & -m
        if not adjacency[low.bit_length() - 1] & mask:
            return True
        m ^= low
    return False


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _fold_vertex(adjacency: Sequence[int], mask: int) -> int | None:
    """A vertex w of ``mask`` with N(u) <= N(w) in G[mask] for some other u, or None.

    For each u the candidates are the common neighbours of N(u), which are
    exactly the w whose neighbourhood contains N(u); u itself is excluded.
    """
    for u in bits(mask):
        cand = mask & ~(1 << u)
        for v in bits(adjacency[u] & mask):
            cand &= adjacency[v]
            if not cand:
                break
        if cand:
            return (cand & -cand).bit_length() - 1
    return None


def _mask_homology(
    adjacency: Sequence[int], mask: int, field: FieldSpec, memo: dict[int, list[int]]
) -> list[int]:
    """Reduced homology of Ind(G[mask]) as in _homology_from_faces ([] if acyclic).

    ``mask`` must induce no isolated vertex.  Components are looked up in
    ``memo`` or computed: a component with a fold pair recurses on itself
    minus the folded vertex, any other goes to face enumeration and ranks.
    """
    hvec = [1]
    for comp in components_of_mask(adjacency, mask):
        hv = memo.get(comp)
        if hv is None:
            w = _fold_vertex(adjacency, comp)
            if w is None:
                hv = _homology_from_faces(_independence_faces_by_size(adjacency, comp), field)
            else:
                rest = comp & ~(1 << w)
                if _has_isolated(adjacency, rest):  # a cone
                    hv = []
                else:
                    hv = _mask_homology(adjacency, rest, field, memo)
            memo[comp] = hv
        if not hv:
            return []
        hvec = _convolve(hvec, hv)
    return hvec


def _hochster_chunk(
    adjacency: tuple[int, ...],
    lo: int,
    hi: int,
    field: FieldSpec,
) -> dict[tuple[int, int], int]:
    """Accumulate beta_{i,j} contributions of the subset range [lo, hi)."""
    beta: dict[tuple[int, int], int] = {}
    memo: dict[int, list[int]] = {}
    for mask in range(lo, hi):
        if _has_isolated(adjacency, mask):
            continue
        hvec = _mask_homology(adjacency, mask, field, memo)
        j = mask.bit_count()
        for s, dim in enumerate(hvec):
            if dim:
                key = (j - s, j)
                beta[key] = beta.get(key, 0) + dim
    return beta


class WorkerCountError(ValueError):
    """CIRC_THREADS (or a workers argument) is not a positive integer."""


def resolve_workers(workers: int | None) -> int:
    """Worker count: ``workers`` if given, else CIRC_THREADS, else 1.

    The value must be a positive integer (CIRC_THREADS in ASCII digits) and
    is capped at os.cpu_count().  An empty CIRC_THREADS counts as unset.
    """
    if workers is None:
        env = os.environ.get("CIRC_THREADS", "")
        if not env:
            return 1
        if not (env.isascii() and env.isdigit() and int(env) > 0):
            raise WorkerCountError(
                f"CIRC_THREADS must be a positive integer, got {env!r}"
            )
        workers = int(env)
    elif workers < 1:
        raise WorkerCountError(f"worker count must be a positive integer, got {workers}")
    return min(workers, os.cpu_count() or 1)


def hochster_betti_table(
    g: Graph,
    field: FieldSpec = GF32003,
    workers: int | None = None,
) -> BettiTable:
    """Full graded Betti table of S/I(G) over the given field.

    Cost is a sum over all 2^q vertex subsets; graphs above
    ORACLE_VERTEX_CAP vertices are refused (use the closed-form route for
    family members instead).  The subset range is split into contiguous
    chunks when workers > 1; results do not depend on the worker count.
    """
    q = g.num_vertices
    if q > ORACLE_VERTEX_CAP:
        raise OracleSizeError(
            f"{q} vertices exceeds the oracle cap of {ORACLE_VERTEX_CAP}; "
            "closed-form family values remain available"
        )
    workers = resolve_workers(workers)
    total = 1 << q
    if workers == 1 or total < 4096:
        beta = _hochster_chunk(g.adjacency, 0, total, field)
    else:
        chunk_count = workers * 4
        bounds = [total * k // chunk_count for k in range(chunk_count + 1)]
        beta = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_hochster_chunk, g.adjacency, bounds[k], bounds[k + 1], field)
                for k in range(chunk_count)
            ]
            for fut in futures:
                for key, mult in fut.result().items():
                    beta[key] = beta.get(key, 0) + mult
    return BettiTable.from_dict(q, beta)


def oracle_invariants(
    g: Graph,
    field: FieldSpec = GF32003,
    workers: int | None = None,
) -> InvariantReport:
    """depth/pdim/reg of S/I(G), read off the Betti table."""
    table = hochster_betti_table(g, field, workers=workers)
    pdim = table.pdim
    return InvariantReport(
        depth=g.num_vertices - pdim,
        pdim=pdim,
        reg=table.reg,
        ambient_vars=g.num_vertices,
        field=field,
        method="hochster",
    )


def cross_field_check(
    g: Graph,
    fields: tuple[FieldSpec, FieldSpec] = DEFAULT_FIELDS,
    workers: int | None = None,
) -> CrossFieldReport:
    """Compare Betti tables over two prime fields; arbitrate over QQ if they differ."""
    t1 = hochster_betti_table(g, fields[0], workers=workers)
    t2 = hochster_betti_table(g, fields[1], workers=workers)
    if t1.entries == t2.entries:
        return CrossFieldReport(fields, (t1, t2), True, (), None)
    d1, d2 = t1.as_dict(), t2.as_dict()
    differing = tuple(
        sorted(
            (i, j, d1.get((i, j), 0), d2.get((i, j), 0))
            for (i, j) in set(d1) | set(d2)
            if d1.get((i, j), 0) != d2.get((i, j), 0)
        )
    )
    arbiter = hochster_betti_table(g, RATIONALS, workers=workers)
    return CrossFieldReport(fields, (t1, t2), False, differing, arbiter)
