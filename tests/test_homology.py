"""Reduced homology, Hochster Betti tables and the oracle's invariants."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circdepth.homology as hom
from circdepth.graphs import (
    CirculantSpec,
    CompleteSpec,
    CubicCirculantSpec,
    CycleSpec,
    LadderSpec,
    PathSpec,
    StarSpec,
    bits,
    build_graph,
    disjoint_union,
    graph_from_edges,
    induced_subgraph,
    components_of_mask,
    parse_graph_spec,
)
from circdepth.homology import (
    GF2,
    GF32003,
    RATIONALS,
    BettiTable,
    FieldSpec,
    OracleSizeError,
    _HochsterSum,
    _fold_pair,
    _homology_from_faces,
    _rank_mod_p,
    _rotation_invariant,
    _simplicial,
    hochster_betti_table,
)

from conftest import random_connected_graph, random_graph


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    assert str(GF2) == "GF(2)"
    assert str(RATIONALS) == "QQ"


def _reduced_homology(faces_by_dim, field):
    """Reduced homology dims of a simplicial complex, indexed from -1, by
    _homology_from_faces: faces_by_dim[k] lists the k-dimensional faces as
    vertex lists, the empty face is implicit, and position s of the result is
    dim H~_{s-1}, padded with zeros to the top dimension."""
    faces = [0] + [sum(1 << v for v in face) for fs in faces_by_dim for face in fs]
    h = dict(_homology_from_faces(faces, field))
    return [h.get(s, 0) for s in range(len(faces_by_dim) + 1)]


def test_two_points():
    assert _reduced_homology([[[0], [1]]], GF2) == [0, 1]


def test_hollow_triangle():
    faces = [[[0], [1], [2]], [[0, 1], [0, 2], [1, 2]]]
    for field in (GF2, GF32003, RATIONALS):
        assert _reduced_homology(faces, field) == [0, 0, 1]


def test_tetrahedron_boundary():
    faces = [
        [[0], [1], [2], [3]],
        [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    ]
    assert _reduced_homology(faces, GF32003) == [0, 0, 0, 1]


def test_solid_triangle_is_acyclic():
    faces = [[[0], [1], [2]], [[0, 1], [0, 2], [1, 2]], [[0, 1, 2]]]
    assert _reduced_homology(faces, GF2) == [0, 0, 0, 0]


def test_projective_plane_sees_the_characteristic():
    # the 6-vertex triangulation: closed non-orientable surface, chi = 1, so
    # mod-2 homology has rank 1 in degrees 1 and 2 while rational homology
    # vanishes; exercises the rank kernel over all three fields on a torsion
    # example.  The oracle reaches face enumeration only where no vertex split
    # applies, so this is the main check that the fallback's rank kernel sees
    # the characteristic
    triangles = [
        [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
        [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
    ]
    edges = sorted({(a, b) for t in triangles for a in t for b in t if a < b})
    assert len(edges) == 15
    for e in edges:
        assert sum(set(e) <= set(t) for t in triangles) == 2  # closed surface
    faces = [[[v] for v in range(6)], edges, triangles]
    assert _reduced_homology(faces, GF2) == [0, 0, 1, 1]
    assert _reduced_homology(faces, GF32003) == [0, 0, 0, 0]
    assert _reduced_homology(faces, RATIONALS) == [0, 0, 0, 0]


def _rank_dense_rational(nrows, columns):
    """Reference rank over QQ: dense Fraction elimination, pivoting by column."""
    ncols = len(columns)
    mat = [[Fraction(0)] * ncols for _ in range(nrows)]
    for j, col in enumerate(columns):
        for row, sign in col:
            mat[row][j] = Fraction(sign)
    rank = 0
    for j in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][j]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][j]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(rank + 1, nrows):
            f = mat[i][j]
            if f:
                row = mat[rank]
                mat[i] = [a - f * b for a, b in zip(mat[i], row)]
        rank += 1
        if rank == nrows:
            break
    return rank


_sign_matrices = st.integers(1, 8).flatmap(
    lambda nrows: st.lists(
        st.lists(st.sampled_from((0, 0, 1, -1)), min_size=nrows, max_size=nrows),
        max_size=10,
    ).map(lambda cols: (nrows, cols))
)


@given(_sign_matrices)
@settings(max_examples=300)
def test_sparse_rational_rank_matches_dense_reference(matrix):
    nrows, dense_columns = matrix
    columns = [[(r, x) for r, x in enumerate(col) if x] for col in dense_columns]
    assert _rank_mod_p(columns, 0) == _rank_dense_rational(nrows, columns)


def test_hochster_path2():
    t = hochster_betti_table(build_graph(PathSpec(2)), GF32003)
    assert t.as_dict() == {(0, 0): 1, (1, 2): 1}


def test_hochster_cycle4_pdim():
    t = hochster_betti_table(build_graph(CycleSpec(4)), GF32003)
    assert t.pdim == 3


def test_hochster_complete4():
    t = hochster_betti_table(build_graph(CompleteSpec(4)), GF32003)
    assert t.pdim == 3
    assert 4 - t.pdim == 1


@pytest.mark.parametrize(
    "spec,depth",
    [
        (PathSpec(4), 2),
        (CycleSpec(5), 2),
        (LadderSpec("B", 2), 2),
        (CubicCirculantSpec(3, 2), 2),
    ],
)
def test_oracle_examples(spec, depth):
    table = hochster_betti_table(build_graph(spec))
    assert table.depth == depth
    assert table.depth + table.pdim == table.ambient_vars


def test_oracle_zero_ideal():
    g = graph_from_edges(["a", "b", "c"], [])
    table = hochster_betti_table(g)
    assert (table.depth, table.pdim, table.reg) == (3, 0, 0)


def test_size_cap():
    g = build_graph(PathSpec(21))
    with pytest.raises(OracleSizeError, match="closed-form"):
        hochster_betti_table(g)


def test_beta_1_2_counts_edges():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 8))
        t = hochster_betti_table(g, GF2)
        assert t.betti(1, 2) == g.edge_count
        assert t.betti(0, 0) == 1


def test_table_entry_shape():
    rng = random.Random(53)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 8))
        t = hochster_betti_table(g, GF32003)
        for (i, j), mult in t.entries:
            assert mult >= 1
            assert 0 <= i <= t.ambient_vars
            assert j >= i


def _independence_faces_by_size(adjacency, mask):
    """Independent subsets of ``mask`` in order of size, from the empty set.

    A recursion of its own, apart from ideals.standard_supports, which the
    oracle reads its faces from, so the reference below stays independent of
    the oracle's walk."""
    verts = list(bits(mask))
    faces = [[0]]

    def extend(start, cur, size, banned):
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
    return [face for by_size in faces for face in by_size]


def _hochster_reference(g, fields):
    """Reference Betti tables, one per field: Hochster's sum over every vertex
    subset, taking the homology of each whole induced independence complex (no
    simplicial-vertex split, no component split, no folds, no vertex split).
    Each subset's faces are enumerated once and ranked over every field."""
    beta = {field: {} for field in fields}
    for mask in range(1 << g.num_vertices):
        j = mask.bit_count()
        faces = _independence_faces_by_size(g.adjacency, mask)
        for field in fields:
            for s, dim in _homology_from_faces(faces, field):
                beta[field][(j - s, j)] = beta[field].get((j - s, j), 0) + dim
    return {field: BettiTable.from_dict(g.num_vertices, beta[field]) for field in fields}


def _assert_matches_reference(g, fields):
    want = _hochster_reference(g, fields)
    for field in fields:
        assert hochster_betti_table(g, field) == want[field]


def _graph_from_pairs(n, keep):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return graph_from_edges(
        [f"v{i+1}" for i in range(n)], [e for e, k in zip(pairs, keep) if k]
    )


def _graphs_up_to(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
        ).map(lambda keep: _graph_from_pairs(n, keep))
    )


_small_graphs = _graphs_up_to(9)


@given(_small_graphs)
@settings(max_examples=40, deadline=None)
def test_oracle_matches_plain_hochster_sum(g):
    _assert_matches_reference(g, (GF2, GF32003, RATIONALS))


@given(_graphs_up_to(10))
@settings(max_examples=25, deadline=None)
def test_betti_numbers_fit_the_packed_sum(g):
    # _HochsterSum packs beta_{i,j} into slot j - i of row j, with q//2 + 1
    # slots per row of 32 bits each: I(G) is generated in degree 2, so
    # beta_{i,j} != 0 only for j <= 2i, and beta_{i,j} <= 3^q
    for table in _hochster_reference(g, (GF2, RATIONALS)).values():
        for (i, j), mult in table.entries:
            assert j <= 2 * i
            assert mult <= 3**g.num_vertices


@pytest.mark.parametrize("m", range(1, 11))
def test_perfect_matching_fills_the_last_slot_of_each_row(m):
    # the m disjoint edges mK_2 have beta_{i,2i} = C(m, i) and nothing else,
    # so every term sits at s = j/2, the widest row, up to the vertex cap
    g = graph_from_edges(
        [f"v{k+1}" for k in range(2 * m)], [(2 * k, 2 * k + 1) for k in range(m)]
    )
    want = BettiTable.from_dict(2 * m, {(i, 2 * i): comb(m, i) for i in range(m + 1)})
    for field in (GF2, RATIONALS):
        assert hochster_betti_table(g, field) == want


def _forest(n, parents):
    """A forest where vertex v > 0 hangs from parents[v - 1] < v, or starts a
    new tree when that is -1."""
    edges = [(p, v) for v, p in enumerate(parents, start=1) if p >= 0]
    return graph_from_edges([f"v{i+1}" for i in range(n)], edges)


_forests = st.integers(1, 10).flatmap(
    lambda n: st.tuples(*(st.integers(-1, v - 1) for v in range(1, n))).map(
        lambda parents: _forest(n, parents)
    )
)


def _with_pendants(core, paths, isolated):
    """core plus a pendant path of each (vertex, length) in paths, plus
    isolated vertices."""
    n = core.num_vertices
    edges = list(core.edges())
    for at, length in paths:
        prev = at % n
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    n += isolated
    return graph_from_edges([f"v{i+1}" for i in range(n)], edges)


_pendant_graphs = st.builds(
    _with_pendants,
    _graphs_up_to(5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), max_size=2),
    st.integers(0, 2),
)

_stars = st.integers(2, 9).map(lambda q: build_graph(StarSpec(q)))


@given(st.one_of(_forests, _pendant_graphs, _stars), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_leaf_splitting_matches_plain_hochster_sum(g, rng):
    # leaves and isolated vertices take the leaf and cone rules, in the sum
    # and in the homology of one induced subgraph; a star's centre gives the
    # (1 + x)^t factor its largest t
    _assert_matches_reference(_relabeled(g, rng), (GF2, FieldSpec(3), RATIONALS))


def _relabeled(g, rng):
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    return graph_from_edges(g.labels, [(perm[u], perm[v]) for u, v in g.edges()])


def _with_clique(core, size, attach):
    """core plus a clique on ``size`` new vertices, each (i, v) in attach
    joining clique vertex i to core vertex v; clique vertex 0 is never
    attached, so it stays simplicial."""
    n = core.num_vertices
    edges = list(core.edges()) + [(n + a, n + b) for a, b in combinations(range(size), 2)]
    edges += [(n + i % size, v % n) for i, v in attach if i % size]
    return graph_from_edges([f"v{i+1}" for i in range(n + size)], edges)


def _triangles(n, triples):
    """The union of the triangles on the given vertex triples of range(n)."""
    edges = {(a, b) for t in triples for a, b in combinations(sorted(set(t)), 2)}
    return graph_from_edges([f"v{i+1}" for i in range(n)], sorted(edges))


_simplicial_graphs = st.one_of(
    st.integers(1, 9).map(lambda q: build_graph(CompleteSpec(q))),
    st.builds(
        _with_clique,
        _graphs_up_to(5),
        st.integers(1, 4),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=6),
    ),
    st.integers(3, 9).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=5
        ).map(lambda triples: _triangles(n, triples))
    ),
)


@given(_simplicial_graphs, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_simplicial_rule_matches_plain_hochster_sum(g, rng):
    # a simplicial vertex v takes the rule before any fold pair or connected
    # set, once per neighbour w of v, in the sum and in the homology of the
    # induced subgraphs; K_q is simplicial at every vertex
    _assert_matches_reference(_relabeled(g, rng), (GF2, FieldSpec(3), RATIONALS))


@given(
    st.one_of(_small_graphs, _simplicial_graphs),
    st.data(),
    st.sampled_from((GF2, FieldSpec(3), RATIONALS)),
)
@settings(max_examples=200, deadline=None)
def test_simplicial_vertex_brute_force(g, data, field):
    # _simplicial returns the lowest vertex v whose neighbours in G[mask] are
    # pairwise adjacent; the homology of G[mask] is then the sum over w in
    # N(v) of the homology of G[mask] - N[w] with every s raised by one
    mask = data.draw(st.integers(0, (1 << g.num_vertices) - 1))
    adj = g.adjacency

    def neighbours(v):
        return [u for u in range(g.num_vertices) if (adj[v] & mask) >> u & 1]

    def simplicial(v):
        return all(adj[a] >> b & 1 for a, b in combinations(neighbours(v), 2))

    verts = [v for v in range(g.num_vertices) if mask >> v & 1]
    want = next((v for v in verts if simplicial(v)), None)
    got = _simplicial(adj, mask)
    if want is None:
        assert got is None
        return
    assert got == (want, adj[want] & mask)
    wedge = {}
    for w in neighbours(want):
        for s, dim in _face_homology(adj, mask & ~(adj[w] | 1 << w), field).items():
            wedge[s + 1] = wedge.get(s + 1, 0) + dim
    assert wedge == _face_homology(adj, mask, field)
    assert dict(_HochsterSum(g, field).induced_homology(mask)) == wedge


def _with_dominating_vertex(core, at, extra):
    """core plus a vertex w whose neighbours are N(u) and the vertices of core
    outside N[u] that ``extra`` keeps, where u is vertex ``at`` of core, so
    (u, w) is a fold pair; no kept extra makes u and w twins."""
    n = core.num_vertices
    u = at % n
    outside = [v for v in range(n) if v != u and not core.adjacency[u] >> v & 1]
    nbrs = [v for v in range(n) if core.adjacency[u] >> v & 1]
    nbrs += [v for v, keep in zip(outside, extra) if keep]
    return graph_from_edges(
        [f"v{i+1}" for i in range(n + 1)], list(core.edges()) + [(v, n) for v in nbrs]
    )


_fold_graphs = st.builds(
    _with_dominating_vertex,
    _graphs_up_to(7),
    st.integers(0, 6),
    st.lists(st.booleans(), max_size=6),
)


@given(_fold_graphs, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_fold_rule_matches_plain_hochster_sum(g, rng):
    # the fold pair (u, w) takes the fold rule in the sum before any connected
    # set is listed; in the homology of an induced subgraph the vertex split
    # at w settles it
    _assert_matches_reference(_relabeled(g, rng), (GF2, FieldSpec(3), RATIONALS))


# circulants on at most 10 vertices: cycles (shift set {1}), the cubic
# circulants C_2n(a, n) and denser ones such as C_8(1,3,4), the complement of
# C_4 + C_4; their leafless, fold-free components go to the vertex split
_circulants = st.integers(4, 10).flatmap(
    lambda q: st.sets(st.integers(1, q // 2), min_size=1).map(
        lambda shifts: build_graph(CirculantSpec(q, tuple(shifts)))
    )
)


@given(st.one_of(_small_graphs, _circulants), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_vertex_split_matches_plain_hochster_sum(g, rng):
    _assert_matches_reference(_relabeled(g, rng), (GF2, FieldSpec(3), RATIONALS))


def _face_homology(adjacency, mask, field):
    """{s: dim H~_{s-1}} of Ind(G[mask]) from its faces, zero dims dropped."""
    return dict(_homology_from_faces(_independence_faces_by_size(adjacency, mask), field))


@given(_small_graphs, st.data(), st.sampled_from((GF2, FieldSpec(3), RATIONALS)))
@settings(max_examples=200, deadline=None)
def test_vertex_split_brute_force(g, data, field):
    # whenever the homology of G[mask] - N[v] and of G[mask] - v share no
    # index s, the split's sum is the homology of G[mask] itself
    adj = g.adjacency
    drawn = data.draw(st.integers(1, (1 << g.num_vertices) - 1))
    mask = components_of_mask(adj, drawn)[0]
    want = _face_homology(adj, mask, field)
    splits = False
    for v in range(g.num_vertices):
        if not mask >> v & 1:
            continue
        a = _face_homology(adj, mask & ~(adj[v] | 1 << v), field)
        b = _face_homology(adj, mask ^ 1 << v, field)
        if a.keys() & b.keys():
            continue
        splits = True
        got = dict(b)
        for s, dim in a.items():
            got[s + 1] = got.get(s + 1, 0) + dim
        assert got == want
    split = _HochsterSum(g, field)._vertex_split(mask)
    if splits:
        assert dict(split) == want
    else:
        assert split is None


def test_vertex_split_falls_back_to_faces(monkeypatch):
    # the complement of C_4 + C_4: at every vertex v, G - N[v] is one edge,
    # whose Ind is two points, and Ind(G - v) is a circle beside an arc, so
    # both have homology at s = 1 and no vertex splits the whole graph
    g = build_graph(CirculantSpec(8, (1, 3, 4)))
    full = (1 << g.num_vertices) - 1
    fields = (GF2, FieldSpec(3), RATIONALS)
    want = _hochster_reference(g, fields)
    calls = []
    real = hom._homology_from_faces

    def counted(faces, field):
        calls.append(sorted(faces))
        return real(faces, field)

    monkeypatch.setattr(hom, "_homology_from_faces", counted)
    for field in fields:
        assert _HochsterSum(g, field)._vertex_split(full) is None
        calls.clear()
        assert hochster_betti_table(g, field) == want[field]
        # one face-route call, on the independent sets of the whole graph
        assert calls == [sorted(_independence_faces_by_size(g.adjacency, full))]


def _kunneth_square(table):
    """The Betti table of two disjoint copies of a graph with ``table``:
    beta_{i,j} = sum of beta_{i1,j1} beta_{i2,j2} over i1 + i2 = i, j1 + j2 = j."""
    out = {}
    for (i1, j1), b1 in table.entries:
        for (i2, j2), b2 in table.entries:
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + b1 * b2
    return BettiTable.from_dict(2 * table.ambient_vars, out)


def test_component_join_ranks_each_copy_once(monkeypatch):
    # C_16(2,6,8) is two copies of C_8(1,3,4), on the even and on the odd
    # vertices.  It is rotation-invariant, so the top of the sum asks for the
    # homology of the whole disconnected graph: the join over its components
    # ranks the 17 faces of each copy once, and never the 17^2 = 289 faces of
    # the whole graph, which took about 5x as long
    g = build_graph(CirculantSpec(16, (2, 6, 8)))
    assert _rotation_invariant(g.adjacency)
    assert len(components_of_mask(g.adjacency, (1 << 16) - 1)) == 2
    copy = build_graph(CirculantSpec(8, (1, 3, 4)))
    fields = (GF2, FieldSpec(3), RATIONALS)
    want = {field: _kunneth_square(hochster_betti_table(copy, field)) for field in fields}
    sizes = []
    real = hom._homology_from_faces

    def counted(faces, field):
        sizes.append(len(faces))
        return real(faces, field)

    monkeypatch.setattr(hom, "_homology_from_faces", counted)
    for field in fields:
        sizes.clear()
        assert hochster_betti_table(g, field) == want[field]
        assert sizes == [17, 17]


@given(_small_graphs, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_table_is_invariant_under_relabeling(g, rng):
    # the recurrence's memo keys and enumeration order follow the labeling
    relabeled = _relabeled(g, rng)
    for field in (GF2, RATIONALS):
        assert hochster_betti_table(relabeled, field) == hochster_betti_table(g, field)


@given(_small_graphs, st.data())
@settings(max_examples=200)
def test_fold_vertex_brute_force(g, data):
    mask = data.draw(st.integers(0, (1 << g.num_vertices) - 1))
    adj = g.adjacency

    def folds(u, w):  # N(u) <= N(w) inside G[mask]
        return u != w and adj[u] & mask & ~adj[w] == 0

    verts = [v for v in range(g.num_vertices) if mask >> v & 1]
    pair = _fold_pair(adj, mask)
    if pair is None:
        assert not any(folds(u, x) for u in verts for x in verts)
    else:
        u, w = pair
        assert u in verts and w in verts
        assert folds(u, w)
        assert not adj[u] >> w & 1


@given(_small_graphs, st.sampled_from((GF2, RATIONALS)))
@settings(max_examples=100, deadline=None)
def test_fold_pair_needs_no_rule_in_induced_homology(g, field):
    # for a fold pair (u, w) of G[mask], u is isolated in G[mask] - N[w], a
    # cone, so the homology of G[mask] is that of G[mask] - w, and a mask
    # without a simplicial vertex always has a vertex that splits it.  Every
    # mask is checked: few random ones have a fold pair and no simplicial vertex
    adj = g.adjacency
    oracle = _HochsterSum(g, field)
    for mask in range(1 << g.num_vertices):
        pair = _fold_pair(adj, mask)
        if pair is None:
            continue
        got = dict(oracle.induced_homology(mask))
        assert got == dict(oracle.induced_homology(mask ^ 1 << pair[1]))
        assert got == _face_homology(adj, mask, field)
        if _simplicial(adj, mask) is None:
            assert oracle._vertex_split(mask) is not None


def test_fold_reduction_bounds_face_enumerations(monkeypatch):
    # cubic:6:1 took 1,439 face enumerations before the fold reduction and 17
    # before the vertex split, which now settles every component it meets
    import circdepth.homology as hom

    calls = []
    real = hom._homology_from_faces

    def counted(faces, field):
        calls.append(faces)
        return real(faces, field)

    monkeypatch.setattr(hom, "_homology_from_faces", counted)
    hochster_betti_table(build_graph(CubicCirculantSpec(6, 1)), GF2)
    assert calls == []


def test_component_transfer_bounds_isolated_checks(monkeypatch):
    # cubic:6:1 made >= 4,096 isolated-vertex checks (one per subset) when
    # Hochster's sum walked every vertex subset; the check is _simplicial,
    # which finds an isolated vertex, a leaf or another simplicial vertex
    import circdepth.homology as hom

    counts = {"isolated": 0, "faces": 0}
    real_isolated = hom._simplicial
    real_faces = hom._homology_from_faces

    def isolated(adjacency, mask):
        counts["isolated"] += 1
        return real_isolated(adjacency, mask)

    def faces(faces, field):
        counts["faces"] += 1
        return real_faces(faces, field)

    monkeypatch.setattr(hom, "_simplicial", isolated)
    monkeypatch.setattr(hom, "_homology_from_faces", faces)
    hochster_betti_table(build_graph(CubicCirculantSpec(6, 1)), GF2)
    assert 0 < counts["isolated"] <= 2000
    assert counts["faces"] == 0  # the vertex split settles every component


@pytest.mark.parametrize(
    "text, connected_sets, faces",
    [
        ("path:13", 0, 0),
        ("star:8", 0, 0),
        ("union:(path:5;star:4)", 0, 0),
        # a cycle takes the rotation rule, which sums V - 0, a path, so the
        # whole cycle, the one set without a leaf, lists no connected set
        ("cycle:12", 0, 0),
        ("cycle:13", 0, 0),
        # cubic circulants take the rotation rule, so the whole vertex set
        # lists no connected set; the fold-free vertex sets below it do, and
        # the vertex split settles each of them without faces
        ("cubic:6:1", 6, 0),
        ("cubic:10:1", 45, 0),
        # the complement of C_4 + C_4: at every vertex the two sides of the
        # split have homology in the same index, so the rotation rule's top
        # term, the homology of the whole graph, enumerates its faces; every
        # proper subset has a simplicial vertex or a fold pair
        ("circulant:8:1,3,4", 0, 1),
        # K_q: every vertex is simplicial, and C_12(3,6), three copies of
        # C_4(1,2) = K_4, is made of cliques
        ("complete:16", 0, 0),
        ("cubic:6:3", 0, 0),
        # a ladder's corner and its diagonal vertex form a fold pair, and
        # C_12(2,6), two copies of C_6(1,3) = K_{3,3}, is made of twins
        ("ladderA:6", 0, 0),
        ("ladderD:9", 0, 0),
        ("cubic:6:2", 0, 0),
    ],
)
def test_leaf_splitting_counts(monkeypatch, text, connected_sets, faces):
    counts = {"_connected_sets": 0, "_homology_from_faces": 0}

    def counted(name):
        real = getattr(hom, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(hom, name, counted(name))
    hochster_betti_table(build_graph(parse_graph_spec(text)), GF2)
    assert counts["_connected_sets"] == connected_sets
    assert counts["_homology_from_faces"] == faces


def _spy_connected_sets(mp):
    """Patch _connected_sets to record the ``within`` of each call and count
    the sets it yields; returns (withins, yielded)."""
    withins, yielded = [], [0]
    real = hom._connected_sets

    def spied(adjacency, low, within):
        withins.append(within)
        for item in real(adjacency, low, within):
            yielded[0] += 1
            yield item

    mp.setattr(hom, "_connected_sets", spied)
    return withins, yielded


def _table_from_sum(g, field):
    """The table of Z(V), the packed sum over the whole vertex set, unpacked
    by _HochsterSum.terms."""
    oracle = _HochsterSum(g, field)
    z = oracle.terms(oracle.subset_sum((1 << g.num_vertices) - 1))
    return BettiTable.from_dict(g.num_vertices, {(j - s, j): mult for (j, s), mult in z.items()})


@pytest.mark.parametrize("text, yielded", [("cubic:6:1", 141), ("cubic:10:1", 3330)])
def test_rotation_rule_connected_set_counts(monkeypatch, text, yielded):
    # the rotation rule sums V - 0 instead of V, so the connected sets through
    # vertex 0 of the whole vertex set, 850 and 50,189 of the 991 and 53,519
    # that the sum over V yields, are never listed
    g = build_graph(parse_graph_spec(text))
    withins, count = _spy_connected_sets(monkeypatch)
    hochster_betti_table(g, GF2)
    assert (1 << g.num_vertices) - 1 not in withins
    assert count == [yielded]


_small_circulants = [
    CirculantSpec(q, shifts)
    for q in range(2, 13)
    for r in range(1, q // 2 + 1)
    for shifts in combinations(range(1, q // 2 + 1), r)
]


@pytest.mark.parametrize("spec", _small_circulants, ids=lambda spec: spec.to_string())
def test_rotation_rule_matches_the_full_sum_on_circulants(spec):
    # every circulant C_q(S) with q <= 12 takes the rotation rule with its
    # native labels; the table must be the one the sum over the whole vertex
    # set gives, and the plain Hochster sum's for q <= 9
    g = build_graph(spec)
    assert _rotation_invariant(g.adjacency)
    fields = (GF2, FieldSpec(3), RATIONALS)
    want = _hochster_reference(g, fields) if spec.q <= 9 else {}
    for field in fields:
        got = hochster_betti_table(g, field)
        assert got == _table_from_sum(g, field)
        assert got == want.get(field, got)


def _without_edge(g, edge):
    return graph_from_edges(g.labels, [e for e in g.edges() if e != edge])


@pytest.mark.parametrize(
    "g, lists_whole_set",
    [
        (_without_edge(build_graph(CirculantSpec(12, (1, 6))), (0, 1)), False),
        # a corner of a ladder and its diagonal vertex are a fold pair, so
        # the sum over the whole vertex set lists no connected set
        (build_graph(LadderSpec("A", 6)), False),
        (build_graph(LadderSpec("C", 5)), False),
        (build_graph(parse_graph_spec("union:(cycle:6;cycle:6)")), True),
        (_relabeled(build_graph(CirculantSpec(16, (1, 8))), random.Random(16)), True),
    ],
    ids=["C12(1,6)-edge", "ladderA:6", "ladderC:5", "union-cycles", "C16(1,8)-relabeled"],
)
def test_rotation_rule_near_misses_take_the_full_sum(monkeypatch, g, lists_whole_set):
    # graphs that i -> i+1 does not preserve go through the sum over the
    # whole vertex set: the same connected sets, in the same order, as
    # subset_sum(V) lists, and the same table
    assert not _rotation_invariant(g.adjacency)
    full = (1 << g.num_vertices) - 1
    withins, _count = _spy_connected_sets(monkeypatch)
    for field in (GF2, RATIONALS):
        withins.clear()
        got = hochster_betti_table(g, field)
        took = list(withins)
        withins.clear()
        assert got == _table_from_sum(g, field)
        assert took == withins
        assert (full in took) == lists_whole_set


def test_rotation_rule_refuses_an_inexact_division(monkeypatch):
    # on the path 0-1-2 plus two isolated vertices, V - 0 holds one edge and
    # Z_2(V - 0) = 1, so the rule would need 5 * 1 / 3; a graph that failed
    # the automorphism check must raise there, never round
    g = graph_from_edges([f"v{i+1}" for i in range(5)], [(0, 1), (1, 2)])
    monkeypatch.setattr(hom, "_rotation_invariant", lambda adjacency: True)
    with pytest.raises(ArithmeticError, match="not divisible"):
        hochster_betti_table(g, GF2)


@pytest.mark.parametrize(
    "spec", [CycleSpec(6), CubicCirculantSpec(3, 1), CompleteSpec(5)]
)
def test_cross_field_examples(spec):
    g = build_graph(spec)
    assert hochster_betti_table(g, GF2) == hochster_betti_table(g, GF32003)


def test_disjoint_union_additivity():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 5))
        h = random_graph(rng, rng.randint(1, 5))
        u = disjoint_union([g, h])
        assert hochster_betti_table(u).depth == (
            hochster_betti_table(g).depth + hochster_betti_table(h).depth
        )


def test_isolated_vertex_increments_depth():
    rng = random.Random(37)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 7))
        plus = graph_from_edges(
            list(g.labels) + ["fresh"], g.edges()
        )
        assert hochster_betti_table(plus).depth == hochster_betti_table(g).depth + 1


def test_colon_depth_monotonicity():
    # depth(S/(I:u)) >= depth(S/I); a colon by an independent set is the
    # quotient of the graph with the set's neighborhood deleted
    rng = random.Random(41)
    checked = 0
    while checked < 12:
        g = random_connected_graph(rng, rng.randint(3, 8))
        v = rng.randrange(g.num_vertices)
        rest = (1 << g.num_vertices) - 1
        keep = rest & ~g.adjacency[v]
        sub = induced_subgraph(g, keep)
        assert hochster_betti_table(sub).depth >= hochster_betti_table(g).depth
        checked += 1
