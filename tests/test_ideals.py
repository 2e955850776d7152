"""Edge ideals, colon/sum arithmetic, standard supports and the
colon-quotient decomposition with its support-bijection verifier."""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circdepth import ideals as ideals_module
from circdepth.graphs import (
    CompleteSpec,
    CubicCirculantSpec,
    LadderSpec,
    PathSpec,
    UnionSpec,
    bits,
    build_graph,
    graph_from_edges,
    induced_subgraph,
    is_isomorphic,
    moebius_ladder,
    prism,
)
from circdepth.ideals import (
    ColonSummand,
    MonomialIdeal,
    colon_by_monomial,
    colon_decomposition,
    edge_ideal,
    standard_supports,
    verify_colon_decomposition,
)

from conftest import random_connected_graph

# strategy: a handful of squarefree supports over <= 7 variables
ideals = st.builds(
    lambda nvars, sups: MonomialIdeal.create(nvars, [s % (1 << nvars) or 1 for s in sups]),
    st.integers(min_value=1, max_value=7),
    st.lists(st.integers(min_value=1, max_value=127), max_size=6),
)


def test_edge_ideal_examples():
    p3 = edge_ideal(build_graph(PathSpec(3)))
    assert p3.generators == (0b011, 0b110)
    assert len(edge_ideal(build_graph(CompleteSpec(3))).generators) == 3
    assert len(edge_ideal(build_graph(CubicCirculantSpec(4, 2))).generators) == 12


def test_colon_and_sum_examples():
    i = MonomialIdeal.create(3, [0b011, 0b110])
    assert colon_by_monomial(i, 0b010).generators == (0b001, 0b100)
    j = MonomialIdeal.create(3, [0b011, 0b100])
    assert j.generators == (0b100, 0b011)


def test_colon_inside_ideal_rejected():
    i = MonomialIdeal.create(2, [0b11])
    with pytest.raises(ValueError):
        colon_by_monomial(i, 0b11)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MonomialIdeal.create(3, [1, -3]),
        lambda: MonomialIdeal.create(3, [1, 0b1001]),
        lambda: MonomialIdeal.create(3, [0b011, 0b1011]),
        lambda: colon_by_monomial(MonomialIdeal.create(3, [0b011, 0b110]), 1 << 5),
        lambda: colon_by_monomial(MonomialIdeal.create(3, [0b011]), -2),
    ],
    ids=["create-negative", "create-outside", "add-outside", "colon-outside", "colon-negative"],
)
def test_supports_outside_the_ring_rejected(build):
    # unchecked, minimalizing or the colon would absorb each bad support
    # into a plausible-looking ideal
    with pytest.raises(ValueError, match="outside"):
        build()


def test_colon_by_vertex_contains_neighborhood():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 8))
        v = rng.randrange(g.num_vertices)
        c = colon_by_monomial(edge_ideal(g), 1 << v)
        degree_one = {s for s in c.generators if s.bit_count() == 1}
        assert degree_one == {1 << u for u in bits(g.adjacency[v])}


@given(ideals)
@settings(max_examples=60)
def test_minimality_invariant(i):
    for g1 in i.generators:
        for g2 in i.generators:
            assert g1 == g2 or g1 & ~g2 != 0


@given(ideals, st.integers(min_value=0, max_value=127))
@settings(max_examples=60)
def test_sum_stays_minimal(i, extra):
    extra = extra % (1 << i.ambient_vars) or 1
    j = MonomialIdeal.create(i.ambient_vars, [*i.generators, extra])
    for g1 in j.generators:
        for g2 in j.generators:
            assert g1 == g2 or g1 & ~g2 != 0


def _is_minimal_reference(gens):
    """The pairwise rule: no generator's support contains another one's."""
    return not any(g1 != g2 and g1 & ~g2 == 0 for g1 in gens for g2 in gens)


@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, (1 << n) - 1), unique=True, max_size=8))))
@settings(max_examples=200)
def test_minimality_check_matches_pairwise_rule(case):
    n, gens = case
    if _is_minimal_reference(gens):
        assert sorted(MonomialIdeal(n, tuple(gens)).generators) == sorted(gens)
    else:
        with pytest.raises(ValueError, match="not minimal"):
            MonomialIdeal(n, tuple(gens))


@given(st.integers(min_value=1, max_value=9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))))
@settings(max_examples=100)
def test_edge_ideal_matches_minimalized_create(case):
    n, keep = case
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = graph_from_edges([f"v{i+1}" for i in range(n)],
                         [e for e, k in zip(pairs, keep) if k])
    edges = [(1 << u) | (1 << v) for u, v in g.edges()]
    assert edge_ideal(g) == MonomialIdeal.create(n, edges)


@given(ideals)
@settings(max_examples=100)
def test_standard_supports_match_brute_force(i):
    # sorted, so a support reached twice shows as well as a missing one
    assert sorted(standard_supports(i)) == [
        s for s in range(1 << i.ambient_vars) if not i.contains_support(s)
    ]


def test_colon_decomposition_a3_reference_order():
    g = build_graph(LadderSpec("A", 3))
    y3, y2, x3 = g.index_of("y3"), g.index_of("y2"), g.index_of("x3")
    first, second = colon_decomposition(g, y3, order=[y2, x3])

    assert [g.labels[v] for v in bits(first.ring_vars)] == ["x1", "x3"]
    assert first.ideal.generators == ()
    assert g.labels[first.adjoined_var] == "y2"

    assert [g.labels[v] for v in bits(second.ring_vars)] == ["x1", "y1"]
    assert second.ideal.generators == (0b11,)
    assert g.labels[second.adjoined_var] == "x3"


def test_colon_decomposition_respects_default_order():
    g = build_graph(LadderSpec("A", 3))
    summands = colon_decomposition(g, g.index_of("y3"))
    assert [g.labels[s.adjoined_var] for s in summands] == sorted(
        ["x3", "y2"], key=g.index_of
    )


def test_colon_decomposition_summand_ideal_is_induced_edge_ideal():
    g = moebius_ladder(4)
    for s in colon_decomposition(g, g.index_of("y1")):
        assert s.ideal == edge_ideal(induced_subgraph(g, s.ring_vars))


def test_moebius_colon_summands_are_ladders():
    # pivot y1, neighbor order (x_n, x_1, y_2): pieces D_{n-3}, B_{n-3}, D_{n-4}
    for n in (5, 6, 7):
        g = moebius_ladder(n)
        order = [g.index_of(f"x{n}"), g.index_of("x1"), g.index_of("y2")]
        summands = colon_decomposition(g, g.index_of("y1"), order=order)
        models = [LadderSpec("D", n - 3), LadderSpec("B", n - 3), LadderSpec("D", n - 4)]
        for s, model in zip(summands, models):
            assert is_isomorphic(
                induced_subgraph(g, s.ring_vars), build_graph(model)
            ), f"n={n}, model {model}"


def test_prism_colon_summands_are_ladders():
    # pivot y_n, neighbor order (y_{n-1}, x_n, y_1): pieces C_{n-3}, B_{n-3}, C_{n-4}
    for n in (5, 7):
        g = prism(n)
        order = [g.index_of(f"y{n-1}"), g.index_of(f"x{n}"), g.index_of("y1")]
        summands = colon_decomposition(g, g.index_of(f"y{n}"), order=order)
        models = [LadderSpec("C", n - 3), LadderSpec("B", n - 3), LadderSpec("C", n - 4)]
        for s, model in zip(summands, models):
            assert is_isomorphic(
                induced_subgraph(g, s.ring_vars), build_graph(model)
            ), f"n={n}, model {model}"


def _degree_two_support_graph(ideal, labels):
    """Graph on the variables that occur in degree-2 generators."""
    deg2 = [s for s in ideal.generators if s.bit_count() == 2]
    used = 0
    for s in deg2:
        used |= s
    keep = list(bits(used))
    pos = {v: i for i, v in enumerate(keep)}
    edges = [tuple(pos[v] for v in bits(s)) for s in deg2]
    return graph_from_edges([labels[v] for v in keep], edges)


def test_ladder_c7_colon_by_x7_reaches_c5():
    g = build_graph(LadderSpec("C", 7))
    colon = colon_by_monomial(edge_ideal(g), 1 << g.index_of("x7"))
    degree_one = {g.labels[next(bits(s))] for s in colon.generators if s.bit_count() == 1}
    assert degree_one == {"x6", "y7"}
    support_graph = _degree_two_support_graph(colon, g.labels)
    assert is_isomorphic(support_graph, build_graph(LadderSpec("C", 5)))


def test_moebius8_colon_by_x8_reaches_d5():
    g = moebius_ladder(8)
    colon = colon_by_monomial(edge_ideal(g), 1 << g.index_of("x8"))
    support_graph = _degree_two_support_graph(colon, g.labels)
    assert is_isomorphic(support_graph, build_graph(LadderSpec("D", 5)))


def test_ladder_c7_sum_and_colon_chain():
    # adding x7 to I(C_7) leaves the A_6 pattern with both hanging y-edges
    # (y7-y8 and y1-y9); adding y8 on top collapses that to the C_6 pattern,
    # while colon by y8 instead reaches the B_6 pattern
    g = build_graph(LadderSpec("C", 7))
    x7 = 1 << g.index_of("x7")
    y8 = 1 << g.index_of("y8")
    summed = MonomialIdeal.create(g.num_vertices, [*edge_ideal(g).generators, x7])

    a6 = build_graph(LadderSpec("A", 6))
    model = graph_from_edges(
        list(a6.labels) + ["y7", "y8", "y9"],
        a6.edges()
        + [
            (a6.index_of("y6"), 12),  # y6-y7
            (12 + 1, 12),  # y7-y8
            (a6.index_of("y1"), 12 + 2),  # y1-y9
        ],
    )
    assert is_isomorphic(_degree_two_support_graph(summed, g.labels), model)

    with_y8 = MonomialIdeal.create(g.num_vertices, [*summed.generators, y8])
    assert is_isomorphic(
        _degree_two_support_graph(with_y8, g.labels), build_graph(LadderSpec("C", 6))
    )
    colon_y8 = colon_by_monomial(summed, y8)
    assert is_isomorphic(
        _degree_two_support_graph(colon_y8, g.labels), build_graph(LadderSpec("B", 6))
    )


def test_verify_examples():
    a3 = build_graph(LadderSpec("A", 3))
    assert verify_colon_decomposition(a3, a3.index_of("y3"))
    p3 = build_graph(PathSpec(3))
    assert verify_colon_decomposition(p3, p3.index_of("x2"))
    m5 = moebius_ladder(5)
    assert verify_colon_decomposition(m5, m5.index_of("y1"))


def test_verify_rejects_disconnected():
    g = build_graph(UnionSpec((PathSpec(2), PathSpec(2))))
    with pytest.raises(ValueError, match="connected"):
        colon_decomposition(g, 0)


def test_verify_order_must_permute_neighborhood():
    g = build_graph(PathSpec(4))
    with pytest.raises(ValueError, match="permutation"):
        colon_decomposition(g, 1, order=[0, 3])


def test_verify_fuzz_small():
    rng = random.Random(19)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 7))
        pivot = rng.randrange(g.num_vertices)
        assert verify_colon_decomposition(g, pivot)


def test_verify_every_pivot_on_small_corpus():
    rng = random.Random(71)
    corpus = [random_connected_graph(rng, rng.randint(2, 6)) for _ in range(8)]
    corpus += [
        build_graph(LadderSpec("A", 3)),
        moebius_ladder(4),
        prism(3),
        build_graph(CompleteSpec(4)),
    ]
    for g in corpus:
        for pivot in range(g.num_vertices):
            assert verify_colon_decomposition(g, pivot)


def _drop_last_summand(g, pivot, order=None):
    return colon_decomposition(g, pivot, order)[:-1]


def _forget_earlier_neighbors(g, pivot, order=None):
    # each summand's ring keeps the earlier neighbors, so a monomial divisible
    # by two neighbors is counted in two summands
    full = (1 << g.num_vertices) - 1
    summands = []
    for s in colon_decomposition(g, pivot, order):
        t = s.adjoined_var
        ring = full & ~g.adjacency[t] & ~(1 << t)
        summands.append(ColonSummand(ring, edge_ideal(induced_subgraph(g, ring)), t))
    return summands


def _swap_first_two_adjoined(g, pivot, order=None):
    first, second, *rest = colon_decomposition(g, pivot, order)
    return [
        dataclasses.replace(first, adjoined_var=second.adjoined_var),
        dataclasses.replace(second, adjoined_var=first.adjoined_var),
        *rest,
    ]


@given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_verify_passes_honest_decompositions_in_any_order(n, rng):
    g = random_connected_graph(rng, n)
    pivot = rng.randrange(n)
    order = list(bits(g.adjacency[pivot]))
    rng.shuffle(order)
    assert verify_colon_decomposition(g, pivot, order=order)


def test_verify_sees_supports_past_degree_four(monkeypatch):
    # the first summand loses its standard supports of size >= 4, so the
    # two sides first differ in degree 5; the check reads no degree
    g = moebius_ladder(8)
    pivot = g.index_of("y1")
    real = colon_decomposition(g, pivot)
    first = real[0]
    cut = next(s for s in standard_supports(first.ideal) if s.bit_count() == 4)
    smaller = MonomialIdeal.create(first.ideal.ambient_vars, [*first.ideal.generators, cut])
    broken = [dataclasses.replace(first, ideal=smaller), *real[1:]]
    monkeypatch.setattr(ideals_module, "colon_decomposition", lambda *args, **kw: broken)
    assert not verify_colon_decomposition(g, pivot)


@pytest.mark.parametrize("build", [moebius_ladder, prism], ids=["moebius", "prism"])
@pytest.mark.parametrize("n", [3, 5])
def test_verify_rejects_broken_decompositions(monkeypatch, build, n):
    g = build(n)
    pivot = g.index_of("y1")
    for broken in (_drop_last_summand, _forget_earlier_neighbors):
        monkeypatch.setattr(ideals_module, "colon_decomposition", broken)
        assert not verify_colon_decomposition(g, pivot), broken.__name__
    monkeypatch.setattr(ideals_module, "colon_decomposition", _swap_first_two_adjoined)
    # here a swap puts a neighbor inside the other summand's ring, which
    # ColonSummand refuses
    with pytest.raises(ValueError, match="adjoined variable"):
        verify_colon_decomposition(g, pivot)
    # on the paw (triangle x1 x2 x3, pendant edge x3 x4), pivot x1,
    # ColonSummand accepts the swap: x3 is adjoined to the ring {x4}, but
    # x3 x4 is an edge, so the image {x3, x4} is no colon support
    paw = graph_from_edges(["x1", "x2", "x3", "x4"], [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert not verify_colon_decomposition(paw, 0)
    # on complete:4 every summand's ring is empty, so the swapped list is
    # the same direct sum
    k4 = build_graph(CompleteSpec(4))
    assert verify_colon_decomposition(k4, 0)
