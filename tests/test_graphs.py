"""Graph construction, components, isomorphism and the gcd-decomposition."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circdepth import graphs
from circdepth.graphs import (
    CirculantSpec,
    CompleteSpec,
    CubicCirculantSpec,
    CycleSpec,
    DecompositionError,
    GraphSpecError,
    IsomorphismSizeError,
    LadderSpec,
    PathSpec,
    StarSpec,
    UnionSpec,
    build_graph,
    components_of_mask,
    davis_domke_decompose,
    find_isomorphism,
    graph_from_edges,
    induced_subgraph,
    is_isomorphic,
    moebius_ladder,
    parse_graph_spec,
    prism,
)

from conftest import random_graph


def test_circulant_7_13():
    g = build_graph(CirculantSpec(7, (1, 3)))
    assert g.num_vertices == 7
    assert g.edge_count == 14
    assert g.degree_sequence() == (4,) * 7


def test_path_2():
    g = build_graph(PathSpec(2))
    assert g.num_vertices == 2
    assert g.edge_count == 1


def test_ladder_b2_exact_edges():
    g = build_graph(LadderSpec("B", 2))
    want = {
        frozenset(e)
        for e in [("x1", "y1"), ("x1", "x2"), ("y1", "y2"), ("x2", "y2"), ("y2", "y3")]
    }
    assert {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()} == want


def test_cubic_circulant_8_24():
    g = build_graph(CubicCirculantSpec(4, 2))
    assert g.num_vertices == 8
    assert g.edge_count == 12
    assert g.degree_sequence() == (3,) * 8


def test_cubic_circulant_rejects_bad_parameters():
    with pytest.raises(GraphSpecError):
        CubicCirculantSpec(4, 4)
    with pytest.raises(GraphSpecError):
        CubicCirculantSpec(1, 1)
    with pytest.raises(GraphSpecError):
        CirculantSpec(7, (1, 4))  # 4 > floor(7/2)


def test_ladder_spec_rejects_bad_parameters():
    # the spec is the only guard: the ladder closed forms do not check n
    for family, n in (("A", 0), ("C", 0), ("D", 0), ("E", 3)):
        with pytest.raises(GraphSpecError):
            LadderSpec(family, n)
    with pytest.raises(GraphSpecError):
        parse_graph_spec("ladderA:0")
    assert build_graph(LadderSpec("B", 0)).num_vertices == 1


@pytest.mark.parametrize("q,shifts", [(7, (1, 3)), (9, (2, 4)), (8, (1, 4)), (6, (3,)), (10, (2, 5))])
def test_circulant_regularity(q, shifts):
    g = build_graph(CirculantSpec(q, shifts))
    degree = 2 * len(shifts) - 1 if q == 2 * max(shifts) else 2 * len(shifts)
    assert g.degree_sequence() == (degree,) * q


def test_circulant_edges_match_distance_rule():
    # brute force: x_i ~ x_j exactly when their circular distance is a shift
    for q in range(2, 21):
        for size in (1, 2):
            for shifts in combinations(range(1, q // 2 + 1), size):
                want = {
                    (i, j)
                    for i in range(q)
                    for j in range(i + 1, q)
                    if min(j - i, q - (j - i)) in shifts
                }
                assert set(build_graph(CirculantSpec(q, shifts)).edges()) == want


def test_cubic_circulants_are_3_regular():
    for n in range(2, 8):
        for a in range(1, n):
            assert build_graph(CubicCirculantSpec(n, a)).degree_sequence() == (3,) * (2 * n)


@pytest.mark.parametrize("n", range(41))
def test_ladder_vertex_edge_counts(n):
    want = {"A": (2 * n, 3 * n - 2), "B": (2 * n + 1, 3 * n - 1),
            "C": (2 * n + 2, 3 * n), "D": (2 * n + 2, 3 * n)}
    if n == 0:
        want = {"B": (1, 0)}
    for family, counts in want.items():
        spec = LadderSpec(family, n)
        g = build_graph(spec)
        assert (g.num_vertices, g.edge_count) == counts, family
        assert (spec.num_vertices, spec.edge_count) == counts, family


def _reference_ladder(n, family):
    """A ladder built from string edges, x row then y row: the reference for
    the label order and edges of A_n..D_n and of A_n closed up ("M" for the
    Moebius ladder, "P" for the prism)."""
    if family == "B" and n == 0:
        return ("y1",), set()
    labels = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(1, n):
        edges += [(f"x{i}", f"y{i}"), (f"x{i}", f"x{i+1}"), (f"y{i}", f"y{i+1}")]
    edges.append((f"x{n}", f"y{n}"))
    if family == "B":
        labels.append(f"y{n+1}")
        edges.append((f"y{n}", f"y{n+1}"))
    elif family == "C":
        labels += [f"y{n+1}", f"y{n+2}"]
        edges += [(f"y{n}", f"y{n+1}"), ("y1", f"y{n+2}")]
    elif family == "D":
        labels.insert(n, f"x{n+1}")
        labels.append(f"y{n+1}")
        edges += [(f"y{n}", f"y{n+1}"), ("x1", f"x{n+1}")]
    elif family == "M":
        edges += [(f"x{n}", "y1"), (f"y{n}", "x1")]
    elif family == "P":
        edges += [(f"x{n}", "x1"), (f"y{n}", "y1")]
    return tuple(labels), {frozenset(e) for e in edges}


def test_ladder_shapes_match_the_reference():
    # the solver is labeling-sensitive, so the label order is pinned too
    cases = [(LadderSpec(f, n).build(), n, f) for f in "ABCD" for n in range(f != "B", 13)]
    cases += [(moebius_ladder(n), n, "M") for n in range(2, 13)]
    cases += [(prism(n), n, "P") for n in range(3, 13)]
    for g, n, family in cases:
        labels, edges = _reference_ladder(n, family)
        assert g.labels == labels, (family, n)
        assert {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()} == edges, (family, n)


def test_ladder_degenerate_members():
    assert is_isomorphic(build_graph(LadderSpec("A", 1)), build_graph(PathSpec(2)))
    assert is_isomorphic(build_graph(LadderSpec("B", 1)), build_graph(PathSpec(3)))
    assert is_isomorphic(build_graph(LadderSpec("C", 1)), build_graph(StarSpec(4)))
    assert is_isomorphic(build_graph(LadderSpec("D", 1)), build_graph(PathSpec(4)))
    b0 = build_graph(LadderSpec("B", 0))
    assert b0.num_vertices == 1 and b0.edge_count == 0


def _components(g):
    """The connected components of ``g`` as induced subgraphs, original labels kept."""
    full = (1 << g.num_vertices) - 1
    return [induced_subgraph(g, m) for m in components_of_mask(g.adjacency, full)]


def test_components_cubic_4_2():
    comps = _components(build_graph(CubicCirculantSpec(4, 2)))
    assert [c.num_vertices for c in comps] == [4, 4]


def test_components_path_and_union():
    assert len(_components(build_graph(PathSpec(5)))) == 1
    g = build_graph(UnionSpec((PathSpec(2), PathSpec(3))))
    comps = _components(g)
    assert sorted(c.num_vertices for c in comps) == [2, 3]
    # original (prefixed) labels retained on the pieces
    all_labels = {lab for c in comps for lab in c.labels}
    assert all_labels == set(g.labels)


def test_iso_examples():
    assert is_isomorphic(
        build_graph(CirculantSpec(4, (1, 2))), build_graph(CompleteSpec(4))
    )
    assert is_isomorphic(build_graph(PathSpec(3)), build_graph(StarSpec(3)))
    assert not is_isomorphic(
        build_graph(CycleSpec(6)),
        build_graph(UnionSpec((CycleSpec(3), CycleSpec(3)))),
    )


def test_iso_reflexive_symmetric_on_random_corpus():
    rng = random.Random(7)
    graphs = [random_graph(rng, rng.randint(1, 12)) for _ in range(25)]
    for g in graphs:
        assert is_isomorphic(g, g)
    for _ in range(40):
        g, h = rng.choice(graphs), rng.choice(graphs)
        assert is_isomorphic(g, h) == is_isomorphic(h, g)
        # degree-sequence refutation always agrees
        if g.degree_sequence() != h.degree_sequence():
            assert not is_isomorphic(g, h)


def test_iso_witness_is_an_isomorphism():
    rng = random.Random(11)
    for _ in range(15):
        g = random_graph(rng, 8)
        perm = list(range(8))
        rng.shuffle(perm)
        h = graph_from_edges(
            [f"w{i}" for i in range(8)], [(perm[u], perm[v]) for u, v in g.edges()]
        )
        iso = find_isomorphism(g, h)
        assert iso is not None
        for u, v in g.edges():
            assert h.has_edge(iso[u], iso[v])


def test_iso_size_limit():
    g = build_graph(PathSpec(25))
    with pytest.raises(IsomorphismSizeError, match="too large"):
        is_isomorphic(g, g)


def test_induced_subgraph():
    c4 = build_graph(CycleSpec(4))
    assert induced_subgraph(c4, 0b0011).edge_count == 1
    assert induced_subgraph(c4, 0b0101).edge_count == 0
    k4 = build_graph(CompleteSpec(4))
    assert is_isomorphic(induced_subgraph(k4, 0b1101), build_graph(CompleteSpec(3)))
    sub = induced_subgraph(c4, 0b1010)
    assert sub.labels == ("x2", "x4")


def test_cubic_split_matches_components():
    # the split's copy count and component against the built graph
    for n in range(2, 13):
        for a in range(1, n):
            spec = CubicCirculantSpec(n, a)
            _t, _parity, copies, component = spec.split()
            comps = _components(build_graph(spec))
            assert len(comps) == copies, (n, a)
            model = build_graph(component)
            assert all(is_isomorphic(model, comp) for comp in comps), (n, a)


def test_davis_domke_examples():
    for n, a, split in [
        (4, 2, (2, "even", 2, CirculantSpec(4, (1, 2)))),
        (5, 2, (2, "odd", 1, CirculantSpec(10, (2, 5)))),
        (3, 1, (1, "even", 1, CirculantSpec(6, (1, 3)))),
    ]:
        spec = CubicCirculantSpec(n, a)
        assert spec.split() == split
        assert len(davis_domke_decompose(spec)) == split[2]


def test_davis_domke_report_invariants():
    # one map per copy of the split's component, each on its labels
    for n, a in [(4, 2), (6, 3), (6, 4), (8, 2)]:
        spec = CubicCirculantSpec(n, a)
        _t, _parity, copies, component = spec.split()
        comp = build_graph(component)
        witnesses = davis_domke_decompose(spec)
        assert copies * comp.num_vertices == 2 * n
        assert len(witnesses) == copies
        for witness in witnesses:
            assert sorted(witness) == sorted(comp.labels)


def test_davis_domke_witnesses_are_checked_maps_onto_components(monkeypatch):
    # the witnesses are closed-form maps, so no isomorphism search runs; each
    # is a bijection onto a component of its own that carries every model edge
    real = graphs.find_isomorphism
    calls = []

    def counted(g, h):
        calls.append(h)
        return real(g, h)

    monkeypatch.setattr(graphs, "find_isomorphism", counted)
    for n in range(2, 13):
        for a in range(1, n):
            spec = CubicCirculantSpec(n, a)
            witnesses = davis_domke_decompose(spec)
            g = build_graph(spec)
            model = build_graph(spec.split()[3])
            comp_labels = [frozenset(comp.labels) for comp in _components(g)]
            images = [frozenset(w.values()) for w in witnesses]
            assert sorted(images, key=sorted) == sorted(comp_labels, key=sorted), (n, a)
            for witness in witnesses:
                assert sorted(witness) == sorted(model.labels), (n, a)
                assert len(set(witness.values())) == model.num_vertices, (n, a)
                image = [g.index_of(witness[label]) for label in model.labels]
                assert all(g.has_edge(image[u], image[v]) for u, v in model.edges()), (n, a)
    assert calls == []


def test_davis_domke_check_rejects_wrong_copies():
    # C_20(2,10) is two copies of C_10(1,5), the even and the odd vertices
    spec = CubicCirculantSpec(10, 2)
    component = CirculantSpec(10, (1, 5))
    images = [[j + 2 * i for i in range(10)] for j in range(2)]
    graphs._check_copies(spec, component, images)
    swapped = [images[0][:], images[1]]
    swapped[0][1], swapped[0][2] = swapped[0][2], swapped[0][1]
    for bad in (swapped, [images[0], images[0]], [images[0]]):
        with pytest.raises(DecompositionError, match="not the components"):
            graphs._check_copies(spec, component, bad)


def test_davis_domke_builds_no_graph(monkeypatch):
    # the maps are checked against the edge rule of C_2n(a, n), so no graph is
    # built; C_32000(8000,16000) is 8,000 copies of the 4-cycle C_4(1,2)
    def refuse(*args):
        raise AssertionError("decompose built a graph")

    monkeypatch.setattr(graphs, "build_graph", refuse)
    monkeypatch.setattr(graphs, "graph_from_edges", refuse)
    for n in range(2, 13):
        for a in range(1, n):
            spec = CubicCirculantSpec(n, a)
            assert len(davis_domke_decompose(spec)) == spec.split()[2]
    witnesses = davis_domke_decompose(CubicCirculantSpec(16000, 8000))
    assert [len(w) for w in witnesses] == [4] * 8000
    assert len({v for w in witnesses for v in w.values()}) == 32000


def test_graph_from_edges_rejects_a_self_loop():
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        graph_from_edges(["a", "b"], [(1, 1)])


def _relabeled(g, rng):
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    return graph_from_edges(
        [f"w{i}" for i in range(g.num_vertices)], [(perm[u], perm[v]) for u, v in g.edges()]
    )


def _edge_swapped(g, rng):
    """Rewire two disjoint edges ab, cd into ad, cb: same degree sequence."""
    edges = set(g.edges())
    for _ in range(20):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = {tuple(sorted(e)) for e in [(a, d), (c, b)]}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges = (edges - {(a, b), tuple(sorted((c, d)))}) | new
    return graph_from_edges(list(g.labels), sorted(edges))


def _kernel_cases():
    rng = random.Random(22)
    for _ in range(150):
        n = rng.randint(0, 14)
        g = random_graph(rng, n, rng.random())
        yield "relabeling", g, _relabeled(g, rng)
        yield "same degrees", g, _relabeled(_edge_swapped(g, rng), rng)
        yield "random", g, random_graph(rng, n, rng.random())
        parts = [random_graph(rng, rng.randint(1, 5), 0.6) for _ in range(3)]
        union = graphs.disjoint_union(parts)
        yield "disconnected", union, _relabeled(union, rng)
        yield "disconnected", union, graphs.disjoint_union(parts[::-1])
        other = graphs.disjoint_union(parts[:2] + [_edge_swapped(parts[2], rng)])
        yield "disconnected", union, _relabeled(other, rng)
    for n in range(6):
        empty = graph_from_edges([f"v{i}" for i in range(n)], [])
        yield "empty", empty, empty
    comps_by_size = {}
    for n in range(2, 13):
        for a in range(1, n):
            model = build_graph(CubicCirculantSpec(n, a).split()[3])
            for comp in _components(build_graph(CubicCirculantSpec(n, a))):
                yield "cubic", model, comp
                yield "cubic", comp, _relabeled(comp, rng)
                comps_by_size.setdefault(comp.num_vertices, []).append(comp)
    for comps in comps_by_size.values():
        for g, h in combinations(comps[:6], 2):
            yield "cubic", g, h


def _is_isomorphism(iso, g, h):
    """``iso`` is a bijection onto h's vertices that sends every g-edge to an h-edge."""
    return (
        sorted(iso) == list(range(h.num_vertices))
        and g.edge_count == h.edge_count
        and all(h.has_edge(iso[u], iso[v]) for u, v in g.edges())
    )


def test_find_isomorphism_maps_are_isomorphisms():
    # every returned map is an isomorphism; relabelings always map and the
    # other kinds give both answers
    seen = {}
    for kind, g, h in _kernel_cases():
        iso = find_isomorphism(g, h)
        assert iso is None or _is_isomorphism(iso, g, h), (kind, g, h)
        seen.setdefault(kind, set()).add(iso is None)
    assert seen["relabeling"] == {False} and seen["empty"] == {False}
    assert seen["same degrees"] == seen["cubic"] == seen["disconnected"] == {False, True}


def test_find_isomorphism_agrees_with_brute_force():
    # up to 7 vertices every bijection can be tried: the search finds a map
    # exactly when one of them carries the edge set of g onto that of h
    rng = random.Random(31)
    answers = set()
    for _ in range(600):
        n = rng.randint(0, 7)
        g = random_graph(rng, n, rng.random())
        h = _relabeled(g, rng) if rng.random() < 0.5 else random_graph(rng, n, rng.random())
        g_edges, h_edges = g.edges(), set(h.edges())
        want = any(
            {tuple(sorted((p[u], p[v]))) for u, v in g_edges} == h_edges
            for p in permutations(range(n))
        )
        assert (find_isomorphism(g, h) is not None) == want, (g, h)
        answers.add(want)
    assert answers == {False, True}


@pytest.mark.parametrize("n", range(2, 13))
def test_moebius_form_matches_circulant(n):
    # the identity map: x_i is vertex i - 1 and y_i vertex n + i - 1 of both
    assert moebius_ladder(n).adjacency == build_graph(CubicCirculantSpec(n, 1)).adjacency


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_prism_form_matches_circulant(n):
    # x_i -> 2(i - 1) and y_i -> 2(i - 1) + n mod 2n, every edge to an edge
    g, h = prism(n), build_graph(CubicCirculantSpec(n, 2))
    iso = [2 * i for i in range(n)] + [(2 * i + n) % (2 * n) for i in range(n)]
    assert _is_isomorphism(iso, g, h)


def test_spec_grammar_round_trip():
    for text in [
        "path:4",
        "cycle:5",
        "star:9",
        "complete:6",
        "circulant:7:1,3",
        "cubic:5:2",
        "ladderA:3",
        "ladderB:0",
        "ladderC:2",
        "ladderD:4",
        "union:(path:2;path:3)",
        "union:(cubic:3:1;union:(path:2;star:4))",
    ]:
        assert parse_graph_spec(text).to_string() == text


def test_spec_grammar_rejects_garbage():
    for text in [
        "moon:3", "path", "cubic:5", "circulant:7:", "union:path:2", "path:x",
        "union:()", "union:(path:2;)", "union:((path:2;path:3)",
        "path:1_0", "path:+3", "path:\u0663", "cubic: 5:1", "path:03",
        "union:( path:2 ; cycle:3)", "union:(path:2; cycle:3)",
        "union:(path:2;cycle:3 )",
    ]:
        with pytest.raises(GraphSpecError):
            parse_graph_spec(text)


def test_display_names():
    assert parse_graph_spec("cubic:5:2").display_name() == "C_10(2,5)"
    assert parse_graph_spec("ladderA:4").display_name() == "A_4"
    assert parse_graph_spec("circulant:7:1,3").display_name() == "C_7(1,3)"


# Every spec kind, with unions nested at most two deep.
_leaf_specs = st.one_of(
    st.builds(PathSpec, st.integers(1, 9)),
    st.builds(CycleSpec, st.integers(3, 9)),
    st.builds(StarSpec, st.integers(2, 9)),
    st.builds(CompleteSpec, st.integers(1, 6)),
    st.integers(2, 12).flatmap(
        lambda q: st.builds(
            CirculantSpec,
            st.just(q),
            st.lists(st.integers(1, q // 2), min_size=1, max_size=3).map(tuple),
        )
    ),
    st.integers(2, 6).flatmap(
        lambda n: st.builds(CubicCirculantSpec, st.just(n), st.integers(1, n - 1))
    ),
    st.builds(LadderSpec, st.sampled_from("ACD"), st.integers(1, 4)),
    st.builds(LadderSpec, st.just("B"), st.integers(0, 4)),
)


def _unions(parts):
    return st.lists(parts, min_size=1, max_size=3).map(lambda ps: UnionSpec(tuple(ps)))


_one_deep = _leaf_specs | _unions(_leaf_specs)
_specs = _one_deep | _unions(_one_deep)


@given(_specs)
@settings(max_examples=200)
def test_spec_grammar_round_trip_property(spec):
    text = spec.to_string()
    assert parse_graph_spec(text) == spec
    assert parse_graph_spec(text).to_string() == text


@given(st.lists(_specs, min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_union_counts_are_sums_over_parts(parts):
    union = UnionSpec(tuple(parts))
    g = build_graph(union)
    built = [build_graph(p) for p in parts]
    assert g.num_vertices == sum(h.num_vertices for h in built)
    assert g.edge_count == sum(h.edge_count for h in built)
    # the specs' closed-form counts are those of the graphs they build
    for spec, h in [(union, g), *zip(parts, built)]:
        assert (spec.num_vertices, spec.edge_count) == (h.num_vertices, h.edge_count)


@given(_unions(_one_deep).map(UnionSpec.to_string), st.data())
@settings(max_examples=200)
def test_spec_grammar_rejects_malformed_unions(text, data):
    # drop one parenthesis, double one, or leave an empty part
    paren = data.draw(st.sampled_from([i for i, ch in enumerate(text) if ch in "()"]))
    sep = data.draw(st.sampled_from([i for i, ch in enumerate(text) if ch in "(;"]))
    broken = data.draw(st.sampled_from([
        text[:paren] + text[paren + 1:],
        text[:paren] + text[paren] + text[paren:],
        text[:sep + 1] + ";" + text[sep + 1:],
    ]))
    with pytest.raises(GraphSpecError):
        parse_graph_spec(broken)
