"""The immutable value classes: construction, equality, hash, repr,
immutability and validation, and an import that generates no code."""

import os
import subprocess
import sys

import pytest

import circdepth
from circdepth.cli import Evaluation, RowTask
from circdepth.formulas import FormulaReport, FormulaValue
from circdepth.graphs import (
    CirculantSpec,
    CompleteSpec,
    CubicCirculantSpec,
    CycleSpec,
    Graph,
    GraphSpecError,
    LadderSpec,
    PathSpec,
    Record,
    StarSpec,
    UnionSpec,
)
from circdepth.homology import BettiTable, FieldSpec
from circdepth.ideals import ColonSummand, MonomialIdeal
from circdepth.sdepth import CharPoset, Interval, IntervalPartition, SdepthResult


def _no_cells():
    return {}


_PARTITION = IntervalPartition((Interval(0, 1),))

# (class, fields in declaration order, repr)
VALUE_CASES = [
    (Graph, {"labels": ("x1", "x2"), "adjacency": (2, 1)},
     "Graph(labels=('x1', 'x2'), adjacency=(2, 1))"),
    (PathSpec, {"q": 5}, "PathSpec(q=5)"),
    (CycleSpec, {"q": 5}, "CycleSpec(q=5)"),
    (StarSpec, {"q": 4}, "StarSpec(q=4)"),
    (CompleteSpec, {"q": 3}, "CompleteSpec(q=3)"),
    (CirculantSpec, {"q": 8, "shifts": (1, 3)}, "CirculantSpec(q=8, shifts=(1, 3))"),
    (CubicCirculantSpec, {"n": 6, "a": 2}, "CubicCirculantSpec(n=6, a=2)"),
    (LadderSpec, {"family": "B", "n": 0}, "LadderSpec(family='B', n=0)"),
    (UnionSpec, {"parts": (PathSpec(2), CycleSpec(3))},
     "UnionSpec(parts=(PathSpec(q=2), CycleSpec(q=3)))"),
    (FormulaValue, {"lo": 2, "hi": None}, "FormulaValue(lo=2, hi=None)"),
    (FormulaReport,
     {"depth": FormulaValue(2, 2), "sdepth": FormulaValue(2, 3), "source": "tag",
      "ambient_vars": 6},
     "FormulaReport(depth=FormulaValue(lo=2, hi=2), sdepth=FormulaValue(lo=2, hi=3), "
     "source='tag', ambient_vars=6)"),
    (FieldSpec, {"characteristic": 2}, "FieldSpec(characteristic=2)"),
    (BettiTable, {"ambient_vars": 2, "entries": (((0, 0), 1), ((1, 2), 1))},
     "BettiTable(ambient_vars=2, entries=(((0, 0), 1), ((1, 2), 1)))"),
    (MonomialIdeal, {"ambient_vars": 3, "generators": (3, 6)},
     "MonomialIdeal(ambient_vars=3, generators=(3, 6))"),
    (ColonSummand, {"ring_vars": 6, "ideal": MonomialIdeal(2, (3,)), "adjoined_var": 0},
     "ColonSummand(ring_vars=6, ideal=MonomialIdeal(ambient_vars=2, generators=(3,)), "
     "adjoined_var=0)"),
    (CharPoset, {"elements": (0, 1, 2)}, "CharPoset(elements=(0, 1, 2))"),
    (Interval, {"lower": 1, "upper": 3}, "Interval(lower=1, upper=3)"),
    (IntervalPartition, {"intervals": (Interval(0, 1),)},
     "IntervalPartition(intervals=(Interval(lower=0, upper=1),))"),
    (SdepthResult, {"value": 1, "is_exact": True, "witness": _PARTITION},
     "SdepthResult(value=1, is_exact=True, "
     "witness=IntervalPartition(intervals=(Interval(lower=0, upper=1),)))"),
    (Evaluation, {"formula": None, "oracle": None, "solver": None, "verdict": "match"},
     "Evaluation(formula=None, oracle=None, solver=None, verdict='match')"),
    (RowTask, {"family": "path", "params": "q=3", "check": _no_cells},
     f"RowTask(family='path', params='q=3', check={_no_cells!r})"),
]


def _package_records():
    found, stack = set(), [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("circdepth."):
                found.add(sub)
                stack.append(sub)
    return found


def test_every_value_class_has_a_case():
    abstract = {cls for cls in _package_records() if cls.__name__ == "_OrderSpec"}
    assert _package_records() - abstract == {cls for cls, _f, _r in VALUE_CASES}


@pytest.mark.parametrize(
    "cls, fields, shown", VALUE_CASES, ids=[cls.__name__ for cls, _f, _r in VALUE_CASES]
)
def test_value_class_behaves_as_a_frozen_record(cls, fields, shown):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position and not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position)
    assert {name: getattr(by_keyword, name) for name in fields} == fields
    assert repr(by_keyword) == shown
    # a subclass with the same fields is a different class, so never equal
    other = type(cls.__name__, (cls,), {})(**fields)
    assert by_keyword != other and other != by_keyword
    assert by_keyword != tuple(fields.values())
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, 0)
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)
    assert by_keyword == by_position


def test_equal_fields_in_different_classes_are_unequal():
    assert PathSpec(5) != CycleSpec(5)
    assert Interval(1, 3) != FormulaValue(1, 3)


def test_constructors_normalize_their_sequences():
    assert CirculantSpec(8, [3, 1, 3]).shifts == (1, 3)
    assert UnionSpec([PathSpec(2)]).parts == (PathSpec(2),)
    assert MonomialIdeal(3, [6, 1]).generators == (1, 6)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Graph(("x1",), ()), ValueError, "adjacency length must equal number of labels"),
    (lambda: Graph(("x1", "x1"), (0, 0)), ValueError, "vertex labels must be unique"),
    (lambda: Graph(("x1",), (2,)), ValueError, "adjacency bitset of vertex 0 exceeds width 1"),
    (lambda: Graph(("x1",), (1,)), ValueError, "self-loop at vertex 0"),
    (lambda: Graph(("x1", "x2"), (2, 0)), ValueError, "adjacency not symmetric at (0, 1)"),
    (lambda: PathSpec(0), GraphSpecError, "path needs q >= 1"),
    (lambda: CycleSpec(2), GraphSpecError, "cycle needs q >= 3"),
    (lambda: StarSpec(1), GraphSpecError, "star needs q >= 2"),
    (lambda: CompleteSpec(0), GraphSpecError, "complete graph needs q >= 1"),
    (lambda: CirculantSpec(1, (1,)), GraphSpecError, "circulant needs q >= 2"),
    (lambda: CirculantSpec(6, ()), GraphSpecError, "circulant needs a nonempty shift set"),
    (lambda: CirculantSpec(6, (4,)), GraphSpecError,
     "circulant shifts must lie in 1..3 for q=6"),
    (lambda: CubicCirculantSpec(1, 1), GraphSpecError, "cubic circulant needs n >= 2"),
    (lambda: CubicCirculantSpec(3, 3), GraphSpecError, "cubic circulant needs 1 <= a < n"),
    (lambda: LadderSpec("E", 2), GraphSpecError, "ladder family must be one of A, B, C, D"),
    (lambda: LadderSpec("A", 0), GraphSpecError, "ladder A needs n >= 1"),
    (lambda: UnionSpec(()), GraphSpecError, "union needs at least one part"),
    (lambda: FormulaValue(-1, None), ValueError, "invariant values are nonnegative"),
    (lambda: FormulaValue(3, 2), ValueError, "upper bound below lower bound"),
    (lambda: FieldSpec(4), ValueError, "field characteristic must be 0 or a prime"),
    (lambda: MonomialIdeal(2, (0,)), ValueError, "generators must have nonempty support"),
    (lambda: MonomialIdeal(2, (4,)), ValueError, "generator support exceeds ambient variables"),
    (lambda: MonomialIdeal(2, (1, 1)), ValueError, "duplicate generator"),
    (lambda: MonomialIdeal(2, (1, 3)), ValueError, "generating set is not minimal"),
    (lambda: ColonSummand(2, MonomialIdeal(1, ()), 1), ValueError,
     "adjoined variable must not lie in the summand ring"),
    (lambda: ColonSummand(2, MonomialIdeal(2, ()), 0), ValueError,
     "summand ideal ambient must match ring variable count"),
    (lambda: Interval(1, 2), ValueError,
     "interval lower end must be a subset of the upper end"),
])
def test_constructor_checks_keep_their_errors(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # modules loaded before the import (a site hook, say) are not counted
    code = (
        "import sys; before = set(sys.modules); import circdepth.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(circdepth.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    added = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert "circdepth.cli" in added
    assert "dataclasses" not in added
    assert "inspect" not in added
