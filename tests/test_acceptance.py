"""Acceptance gate: every criterion checked at its stated tolerance.

Each test covers one criterion end to end and prints a single pass line on
success (run with ``pytest -s`` or ``-rA`` to see them).  All numeric checks
are exact integer comparisons.
"""

import random
from itertools import chain

import pytest

from circdepth.formulas import formula_for_spec
from circdepth.graphs import (
    CompleteSpec,
    CubicCirculantSpec,
    CycleSpec,
    LadderSpec,
    PathSpec,
    StarSpec,
    build_graph,
    davis_domke_decompose,
    disjoint_union,
    graph_from_edges,
    moebius_ladder,
    prism,
)
from circdepth.homology import GF2, GF32003
from circdepth.ideals import MonomialIdeal, edge_ideal, verify_colon_decomposition
from circdepth.sdepth import char_poset, sdepth_exact, validate_partition

from conftest import random_connected_graph, random_graph

LADDER_SPECS = [LadderSpec(fam, n) for fam in "ABCD" for n in range(2, 7)]

CUBIC_SPECS = sorted(
    {CubicCirculantSpec(n, 1) for n in range(2, 8)}
    | {CubicCirculantSpec(n, 2) for n in (3, 5, 7)}
    | {CubicCirculantSpec(n, a) for n in range(2, 8) for a in range(1, n)},
    key=lambda s: (s.n, s.a),
)

BASE_SPECS = (
    [PathSpec(q) for q in range(2, 8)]
    + [CycleSpec(q) for q in range(3, 8)]
    + [StarSpec(q) for q in range(2, 8)]
    + [CompleteSpec(q) for q in range(2, 8)]
)

FAMILY_CORPUS = BASE_SPECS + LADDER_SPECS + CUBIC_SPECS

# sdepth sub-tier: families with known exact Stanley depth, plus every cubic
# circulant on at most 10 vertices
SDEPTH_EXACT_CASES = (
    [(PathSpec(q), -(-q // 3)) for q in range(2, 7)]
    + [(CycleSpec(q), -(-(q - 1) // 3)) for q in (3, 5, 6)]
    + [(CompleteSpec(q), 1) for q in range(2, 6)]
    + [(StarSpec(q), 1) for q in range(2, 7)]
    + [(LadderSpec("B", n), -(-(n + 1) // 2)) for n in range(0, 4)]
)

SDEPTH_CUBIC_SPECS = [
    CubicCirculantSpec(n, a) for n in range(2, 6) for a in range(1, n)
]


def _passed(num: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {name}: PASS ({detail})")


def test_criterion_1_ladder_family_equality(oracle):
    checked = 0
    for spec in LADDER_SPECS:
        rep = formula_for_spec(spec)
        g = build_graph(spec)
        table = oracle.betti(g, GF32003)
        pdim = table.pdim
        depth = g.num_vertices - pdim
        assert depth == rep.depth.value, spec.display_name()
        assert pdim == rep.pdim.value, spec.display_name()
        checked += 1
    assert checked == 20
    _passed(1, "ladder-family equality", f"{checked} members, n=2..6, exact")


def test_criterion_2_cubic_circulant_equality(oracle):
    for spec in CUBIC_SPECS:
        rep = formula_for_spec(spec)
        g = build_graph(spec)
        pdim = oracle.betti(g, GF32003).pdim
        depth = g.num_vertices - pdim
        assert depth == rep.depth.value, spec.display_name()
        assert pdim == rep.pdim.value, spec.display_name()
    _passed(
        2, "cubic circulant equality",
        f"{len(CUBIC_SPECS)} circulants up to 14 vertices, exact",
    )


@pytest.mark.slow
def test_criterion_2_slow_tier_n8(oracle):
    spec = CubicCirculantSpec(8, 1)
    rep = formula_for_spec(spec)
    g = build_graph(spec)
    pdim = oracle.betti(g, GF32003).pdim
    assert g.num_vertices - pdim == rep.depth.value
    assert pdim == rep.pdim.value
    _passed(2, "cubic circulant equality (slow tier)", "C_16(1,8), 16 vertices")


def test_criterion_3_davis_domke_structural():
    checked = 0
    for n in range(2, 9):
        for a in range(1, n):
            spec = CubicCirculantSpec(n, a)
            witnesses = davis_domke_decompose(spec)  # raises on any failure
            _t, _parity, copies, component = spec.split()
            assert copies * build_graph(component).num_vertices == 2 * n
            assert len(witnesses) == copies
            checked += 1
    assert checked == 28
    _passed(3, "gcd-decomposition verification", f"{checked} cases, n<=8, zero failures")


def test_criterion_4_sdepth_solver_agreement():
    solved = 0
    for spec, expected in SDEPTH_EXACT_CASES:
        ideal = edge_ideal(build_graph(spec))
        r = sdepth_exact(ideal)
        assert r.is_exact and r.value == expected, spec.display_name()
        assert validate_partition(char_poset(ideal), r.witness)
        solved += 1
    for q in range(1, 7):
        r = sdepth_exact(MonomialIdeal.create(q, []))
        assert r.is_exact and r.value == q
        solved += 1
    for spec in SDEPTH_CUBIC_SPECS:
        rep = formula_for_spec(spec)
        ideal = edge_ideal(build_graph(spec))
        r = sdepth_exact(ideal, floor=rep.sdepth.lo)
        assert r.is_exact, spec.display_name()
        assert r.value >= rep.sdepth.lo, spec.display_name()
        assert rep.sdepth.contains(r.value), spec.display_name()
        if rep.sdepth.is_exact:
            assert r.value == rep.sdepth.value, spec.display_name()
        assert validate_partition(char_poset(ideal), r.witness)
        solved += 1
    _passed(4, "Stanley depth solver agreement", f"{solved} instances, exact")


def test_criterion_5_colon_decomposition_verifier():
    family_checks = 0
    for n in (3, 4, 5):
        a = build_graph(LadderSpec("A", n))
        assert verify_colon_decomposition(a, a.index_of(f"y{n}"))
        m = moebius_ladder(n)
        assert verify_colon_decomposition(m, m.index_of("y1"))
        family_checks += 2
        if n % 2 == 1:
            p = prism(n)
            assert verify_colon_decomposition(p, p.index_of(f"y{n}"))
            family_checks += 1
    rng = random.Random(2023)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 9))
        pivot = rng.randrange(g.num_vertices)
        assert verify_colon_decomposition(g, pivot)
    _passed(
        5, "colon-quotient support-bijection verifier",
        f"{family_checks} family members + 200 fuzzed graphs, every degree",
    )


def test_criterion_6_property_suites(oracle):
    # beta_{1,2} counts edges, over the whole family corpus
    for spec in FAMILY_CORPUS:
        g = build_graph(spec)
        assert oracle.betti(g, GF32003).betti(1, 2) == g.edge_count

    # depth + pdim = #vars, formula against oracle
    for spec in FAMILY_CORPUS:
        g = build_graph(spec)
        rep = formula_for_spec(spec)
        pdim = oracle.betti(g, GF32003).pdim
        assert rep.depth.value + pdim == g.num_vertices
        assert (g.num_vertices - pdim) + rep.pdim.value == g.num_vertices

    # disjoint-union additivity on 50 random pairs
    rng = random.Random(101)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 5))
        h = random_graph(rng, rng.randint(1, 5))
        u = disjoint_union([g, h])
        du = u.num_vertices - oracle.betti(u, GF32003).pdim
        dg = g.num_vertices - oracle.betti(g, GF32003).pdim
        dh = h.num_vertices - oracle.betti(h, GF32003).pdim
        assert du == dg + dh

    # one isolated vertex raises depth by exactly one, on 50 random graphs
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 7))
        plus = graph_from_edges(list(g.labels) + ["fresh"], g.edges())
        d_g = g.num_vertices - oracle.betti(g, GF32003).pdim
        d_plus = plus.num_vertices - oracle.betti(plus, GF32003).pdim
        assert d_plus == d_g + 1

    # characteristic independence across the family corpus (<= 14 vertices)
    for spec in FAMILY_CORPUS:
        g = build_graph(spec)
        assert g.num_vertices <= 14
        assert oracle.betti(g, GF2).entries == oracle.betti(g, GF32003).entries

    # Stanley inequality on every instance the solver settles
    solved = 0
    for spec in chain((s for s, _ in SDEPTH_EXACT_CASES), SDEPTH_CUBIC_SPECS):
        g = build_graph(spec)
        r = sdepth_exact(edge_ideal(g))
        depth = g.num_vertices - oracle.betti(g, GF32003).pdim
        assert r.is_exact and r.value >= depth, spec.display_name()
        solved += 1

    _passed(
        6, "property suites",
        f"beta_(1,2), Auslander-Buchsbaum, additivity, cross-field, "
        f"Stanley inequality on {solved} solved instances",
    )
