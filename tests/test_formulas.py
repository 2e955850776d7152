"""Closed-form invariants: branch selection, bounds shapes and internal consistency."""

from math import gcd

import pytest
from hypothesis import given, settings

from circdepth.formulas import FormulaUnavailable, FormulaValue, ceil_div, formula_for_spec
from circdepth.graphs import (
    CirculantSpec,
    CompleteSpec,
    CubicCirculantSpec,
    CycleSpec,
    GraphSpecError,
    LadderSpec,
    PathSpec,
    StarSpec,
    UnionSpec,
    build_graph,
    parse_graph_spec,
)
from circdepth.homology import GF2, hochster_betti_table

from test_graphs import _specs


def _ladder(family, n):
    return formula_for_spec(LadderSpec(family, n))


def _cubic(n, a):
    return formula_for_spec(CubicCirculantSpec(n, a))


def _connected(chord, n):
    # the connected cubic circulant C_2n(chord, n), one copy of itself
    return formula_for_spec(CirculantSpec(2 * n, (chord, n)))


def test_formula_value_shapes():
    assert FormulaValue.exact(3).is_exact
    assert str(FormulaValue(2, 3)) == "[2,3]"
    assert str(FormulaValue.at_least(2)) == ">=2"
    assert FormulaValue.at_least(2).contains(9)
    assert not FormulaValue(2, 3).contains(4)
    with pytest.raises(ValueError):
        FormulaValue(3, 2)


def test_base_family_examples():
    assert formula_for_spec(PathSpec(4)).depth.value == 2
    c7 = formula_for_spec(CycleSpec(7))
    assert c7.depth.value == 2
    assert (c7.sdepth.lo, c7.sdepth.hi) == (2, 3)
    assert formula_for_spec(StarSpec(9)).depth.value == 1
    assert formula_for_spec(CompleteSpec(5)).pdim.value == 4


def test_cycle_sdepth_exact_branches():
    for q in (3, 5, 6, 8, 9):
        rep = formula_for_spec(CycleSpec(q))
        assert rep.sdepth.is_exact
        assert rep.sdepth.value == ceil_div(q - 1, 3)
    for q in (4, 7, 10):
        assert not formula_for_spec(CycleSpec(q)).sdepth.is_exact


def test_ladder_examples():
    b5 = _ladder("B", 5)
    assert (b5.depth.value, b5.pdim.value) == (3, 8)
    c6 = _ladder("C", 6)
    assert (c6.depth.value, c6.pdim.value) == (5, 9)
    d4 = _ladder("D", 4)
    assert (d4.depth.value, d4.pdim.value) == (4, 6)
    a4 = _ladder("A", 4)
    assert (a4.depth.value, a4.pdim.value) == (2, 6)
    assert (a4.sdepth.lo, a4.sdepth.hi) == (2, 3)
    a5 = _ladder("A", 5)
    assert a5.sdepth.value == 3


def test_ladder_degenerate_values():
    assert _ladder("B", 0).depth.value == 1
    assert _ladder("B", 0).pdim.value == 0
    assert _ladder("A", 1).depth.value == 1
    assert _ladder("B", 1).depth.value == 1
    assert _ladder("C", 1).depth.value == 1
    assert _ladder("D", 1).depth.value == 2


def test_cubic_connected_examples():
    one5 = _connected(1, 5)
    assert one5.depth.value == 3 and one5.sdepth.value == 3
    one4 = _connected(1, 4)
    assert one4.depth.value == 2
    assert (one4.sdepth.lo, one4.sdepth.hi) == (2, 3)
    assert _connected(2, 3).depth.value == 2
    assert _connected(2, 5).depth.value == 2


def test_cubic_general_examples():
    r = _cubic(6, 2)
    assert (r.depth.value, r.pdim.value) == (2, 10)
    assert _cubic(2, 1).depth.value == 1
    assert _cubic(5, 2).depth.value == 2
    assert _cubic(6, 3).depth.value == 3


def test_cubic_general_ab_consistency():
    for n in range(2, 31):
        for a in range(1, n):
            r = _cubic(n, a)
            assert r.depth.value + r.pdim.value == 2 * n


def test_cubic_general_matches_paper_closed_forms():
    # the paper's four general closed forms as integer arithmetic of their
    # own, apart from the split the program takes from CubicCirculantSpec
    def ceil(x, y):
        return -(-x // y)

    for n in range(2, 301):
        for a in range(1, n):
            t = gcd(2 * n, a)
            m = 2 * n // t
            if m % 2 == 0:
                want = ceil(n, 2 * t) * t if (n // t) % 4 == 1 else ceil(n - t, 2 * t) * t
            elif m % 4 == 1:
                want = ceil(2 * n - t, 2 * t) * (t // 2)
            else:
                want = ceil(n, t) * (t // 2)
            assert _cubic(n, a).depth.value == want, (n, a)


@pytest.mark.parametrize(
    "n, a, source",
    [
        (5, 1, "cubic n=5,a=1 [t=1, 2n/t even, (n/t)%4=1]: depth=ceil(n/2t)*t=3; "
               "sdepth from the connected form"),
        (4, 1, "cubic n=4,a=1 [t=1, 2n/t even, (n/t)%4=0]: depth=ceil((n-t)/2t)*t=2; "
               "sdepth from the connected form"),
        (5, 2, "cubic n=5,a=2 [t=2, 2n/t odd, (2n/t)%4=1]: "
               "depth=ceil((2n-t)/2t)*(t/2)=2; sdepth from the connected form"),
        (3, 2, "cubic n=3,a=2 [t=2, 2n/t odd, (2n/t)%4=3]: depth=ceil(n/t)*(t/2)=2; "
               "sdepth from the connected form"),
        # two copies of C_6(1,3): the sdepth is only bounded below
        (6, 2, "cubic n=6,a=2 [t=2, 2n/t even, (n/t)%4=3]: depth=ceil((n-t)/2t)*t=2; "
               "sdepth>=2 (depth lower bound; additivity over 2 copies)"),
    ],
)
def test_cubic_general_source_strings(n, a, source):
    # one case per branch of the four closed forms; benchmarks/ref pins these
    assert _cubic(n, a).source == source


def test_bounds_lower_end_is_depth():
    reports = [_connected(1, n) for n in range(2, 12)]
    reports += [_connected(2, n) for n in range(3, 12, 2)]
    reports += [_cubic(n, a) for n in range(2, 9) for a in range(1, n)]
    reports += [_ladder("A", n) for n in range(1, 9)]
    for r in reports:
        assert r.sdepth.lo == r.depth.value


def test_formula_dispatch():
    assert formula_for_spec(parse_graph_spec("cubic:5:2")).depth.value == 2
    # circulants recognized as cycles / paths / cubic forms
    assert formula_for_spec(CirculantSpec(5, (1,))).depth.value == ceil_div(4, 3)
    assert formula_for_spec(CirculantSpec(2, (1,))).depth.value == 1
    assert formula_for_spec(CirculantSpec(6, (1, 3))).depth.value == 1
    with pytest.raises(FormulaUnavailable):
        formula_for_spec(CirculantSpec(7, (1, 3)))


def test_union_composition():
    spec = UnionSpec((PathSpec(4), CycleSpec(5)))
    rep = formula_for_spec(spec)
    assert rep.depth.value == 2 + 2
    assert rep.pdim.value == 9 - 4
    assert (rep.sdepth.lo, rep.sdepth.hi) == (4, None)  # a lower bound only


def test_ambient_vars_are_the_spec_vertex_count():
    # every family, the circulants read as paths, cycles and cubic forms, and unions
    specs = [PathSpec(7), CycleSpec(7), StarSpec(5), CompleteSpec(4),
             CirculantSpec(2, (1,)), CirculantSpec(9, (1,)), CirculantSpec(12, (4, 6)),
             CubicCirculantSpec(6, 2), CubicCirculantSpec(7, 2)]
    specs += [LadderSpec(f, n) for f in "ABCD" for n in range(f != "B", 6)]
    specs += [UnionSpec((LadderSpec("B", 0), CycleSpec(5))),
              UnionSpec((CubicCirculantSpec(4, 1), UnionSpec((PathSpec(3), LadderSpec("D", 2)))))]
    for spec in specs:
        assert formula_for_spec(spec).ambient_vars == spec.num_vertices, spec
        assert spec.num_vertices == spec.build().num_vertices, spec


@given(_specs)
@settings(max_examples=200, deadline=None)
def test_closed_forms_give_exact_depth_and_pdim(spec):
    # ground truth: the oracle over GF(2), on every spec of at most 14 vertices
    if spec.num_vertices > 14:
        return
    try:
        rep = formula_for_spec(spec)
    except FormulaUnavailable:
        return
    assert rep.depth.is_exact and rep.pdim.is_exact
    oracle = hochster_betti_table(build_graph(spec), GF2)
    assert (rep.depth.value, rep.pdim.value) == (oracle.depth, oracle.pdim)


def test_out_of_range_rejected():
    # the two one-vertex specs have no closed form; bad family parameters
    # never reach the closed forms, since the spec constructors reject them
    with pytest.raises(FormulaUnavailable, match="^path formula needs q >= 2$"):
        formula_for_spec(PathSpec(1))
    with pytest.raises(FormulaUnavailable, match="^needs q >= 2$"):
        formula_for_spec(CompleteSpec(1))
    with pytest.raises(GraphSpecError):
        LadderSpec("A", 0)
    with pytest.raises(GraphSpecError):
        CubicCirculantSpec(3, 3)
