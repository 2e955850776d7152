"""CLI surface: spec grammar, output formats, exit codes, determinism."""

import argparse
import csv
import io
import json

import pytest

from circdepth import cli, graphs, homology, ideals
from circdepth.cli import CSV_COLUMNS, _verdict, main
from circdepth.formulas import FormulaReport, FormulaValue
from circdepth.homology import GF2, GF32003, InvariantReport
from circdepth.sdepth import SdepthResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_all_match(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--graph", "cubic:5:1", "--method", "all"
    )
    assert code == 0
    assert "depth=3" in out
    assert "verdict: match" in out


def test_invariants_oracle_ladder_c2(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--graph", "ladderC:2", "--method", "oracle"
    )
    assert code == 0
    assert "depth=3" in out


def test_invariants_formula_path2(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--graph", "path:2", "--method", "formula"
    )
    assert code == 0
    assert "depth=1" in out


def test_invariants_bad_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "invariants", "--graph", "moon:3")
    assert code == 2
    assert "error" in err


def test_invariants_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--graph", "cubic:3:1", "--method", "all",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"spec", "vertices", "edges", "invariants", "provenance", "seconds"}
    assert set(obj["invariants"]) == {"depth", "pdim", "reg", "sdepth"}
    assert set(obj["provenance"]) == {"method", "field", "theorem"}
    assert obj["vertices"] == 6
    assert obj["invariants"]["depth"] == 1
    assert obj["invariants"]["sdepth"]["exact"] == 2


def test_invariants_json_deterministic(capsys):
    def normalized(out):
        obj = json.loads(out)
        obj["seconds"] = 0
        return json.dumps(obj, sort_keys=True)

    args = ["invariants", "--graph", "cubic:4:2", "--method", "all", "--format", "json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert normalized(out1) == normalized(out2)


def test_invariants_exact_field(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--graph", "path:4", "--method", "oracle",
        "--field", "exact", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["invariants"]["depth"] == 2
    assert obj["provenance"]["field"] == "exact"


def test_invariants_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--graph", "path:4", "--method", "all",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert rows[1][0] == "path"


@pytest.mark.parametrize(
    "spec,family,params",
    [
        ("path:4", "path", "q=4"),
        ("cycle:5", "cycle", "q=5"),
        ("star:9", "star", "q=9"),
        ("complete:6", "complete", "q=6"),
        ("circulant:7:1,3", "circulant", "circulant:7:1,3"),
        ("cubic:5:2", "cubic", "n=5,a=2"),
        ("ladderA:3", "ladderA", "n=3"),
        ("ladderB:0", "ladderB", "n=0"),
        ("ladderC:2", "ladderC", "n=2"),
        ("ladderD:4", "ladderD", "n=4"),
        ("union:(path:2;path:3)", "union", "union:(path:2;path:3)"),
        (
            "union:(cubic:3:1;union:(path:2;star:4))",
            "union",
            "union:(cubic:3:1;union:(path:2;star:4))",
        ),
    ],
)
def test_invariants_csv_family_and_params(capsys, spec, family, params):
    code, out, _ = run_cli(
        capsys, "invariants", "--graph", spec, "--method", "oracle", "--field", "2",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][:2] == [family, params]


def test_oracle_slow_tier_gate(capsys):
    code, _, err = run_cli(
        capsys, "invariants", "--graph", "ladderC:7", "--method", "oracle"
    )
    assert code == 2
    assert "--slow" in err
    code, _, err = run_cli(
        capsys, "invariants", "--graph", "path:21", "--method", "oracle", "--slow"
    )
    assert code == 2
    assert "hard cap" in err


def test_sdepth_method_cap(capsys):
    code, _, err = run_cli(
        capsys, "invariants", "--graph", "path:15", "--method", "sdepth"
    )
    assert code == 2
    assert "sdepth solver" in err


def test_sdepth_budget_stop_reports_best_certified(capsys):
    # the formula floor for C_14(1,7) is 3; k = 4 is certified at once and
    # k = 5 outlasts the budget, so the reported lower bound is 4
    code, out, _ = run_cli(
        capsys, "invariants", "--graph", "cubic:7:1", "--method", "sdepth",
        "--budget-seconds", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["invariants"]["sdepth"] == {"hi": None, "lo": 4}


def test_verify_paper_small(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--max-n", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    body = rows[1:]
    families = {r[0] for r in body}
    assert {"path", "cycle", "star", "complete", "ladderA", "ladderB", "ladderC",
            "ladderD", "cubic1n", "cubic2n", "cubic", "davis-domke",
            "colon-ladderA", "colon-cubic1n", "colon-cubic2n",
            "sdepth-path", "sdepth-cubic"} <= families
    verdicts = {r[CSV_COLUMNS.index("verdict")] for r in body}
    assert "MISMATCH" not in verdicts
    d3 = next(r for r in body if r[0] == "ladderD" and r[1] == "n=3")
    assert d3[CSV_COLUMNS.index("depth_formula")] == "2"
    assert d3[CSV_COLUMNS.index("depth_oracle")] == "2"
    assert d3[CSV_COLUMNS.index("verdict")] == "match"


def test_verify_paper_json_and_out_file(capsys, tmp_path):
    out_file = tmp_path / "rows.json"
    code, out, _ = run_cli(
        capsys, "verify-paper", "--max-n", "2", "--format", "json",
        "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    obj = json.loads(out_file.read_text())
    assert obj["mismatches"] == 0
    assert all(set(r) == set(CSV_COLUMNS) for r in obj["rows"])


def test_verify_paper_crashed_row_is_error(capsys, monkeypatch):
    real = cli.evaluate

    def crash_on_path3(spec, *args):
        if spec.to_string() == "path:3":
            raise RuntimeError("boom")
        return real(spec, *args)

    monkeypatch.setattr(cli, "evaluate", crash_on_path3)
    code, out, _ = run_cli(capsys, "verify-paper", "--max-n", "2", "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))[1:]
    verdict, theorem = CSV_COLUMNS.index("verdict"), CSV_COLUMNS.index("theorem")
    errors = [r for r in rows if r[verdict] == "ERROR"]
    assert [(r[0], r[1], r[theorem]) for r in errors] == [
        ("path", "q=3", "error: boom"),
        ("sdepth-path", "q=3", "error: boom"),
    ]
    assert "MISMATCH" not in {r[verdict] for r in rows}

    # the summaries count the crashed rows apart from mismatches
    code, out, _ = run_cli(capsys, "verify-paper", "--max-n", "2", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert (obj["mismatches"], obj["errors"]) == (0, 2)
    code, out, _ = run_cli(capsys, "verify-paper", "--max-n", "2")
    assert code == 1
    assert out.splitlines()[-1].endswith(", mismatches: 0, errors: 2")


def test_verify_paper_colon_mismatch(capsys, monkeypatch):
    real = ideals.colon_decomposition
    monkeypatch.setattr(
        ideals, "colon_decomposition", lambda g, pivot, order=None: real(g, pivot, order)[:-1]
    )
    code, out, _ = run_cli(capsys, "verify-paper", "--max-n", "3", "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))[1:]
    verdict = CSV_COLUMNS.index("verdict")
    mismatched = [(r[0], r[1]) for r in rows if r[verdict] == "MISMATCH"]
    assert mismatched == [
        ("colon-ladderA", "n=3,pivot=y3"),
        ("colon-cubic1n", "n=3,pivot=y1"),
        ("colon-cubic2n", "n=3,pivot=y3"),
    ]
    assert "ERROR" not in {r[verdict] for r in rows}


def test_verify_paper_colon_rows_for_every_n():
    # the colon rows run for every n from 3 to max_n, prisms at odd n only
    colon = [
        (t.family, t.params) for t in cli._verify_tasks(8, True)
        if t.family.startswith("colon-")
    ]
    expected = []
    for n in range(3, 9):
        expected += [("colon-ladderA", f"n={n},pivot=y{n}"), ("colon-cubic1n", f"n={n},pivot=y1")]
        if n % 2 == 1:
            expected.append(("colon-cubic2n", f"n={n},pivot=y{n}"))
    assert colon == expected


def test_verify_paper_tier_limits(capsys):
    code, _, err = run_cli(capsys, "verify-paper", "--max-n", "8")
    assert code == 2
    assert "tier limit" in err


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
def test_verify_paper_max_n_below_2_exits_2(capsys, max_n):
    code, out, err = run_cli(capsys, "verify-paper", "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert "below 2" in err


@pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
def test_bad_budget_seconds_exits_2(capsys, budget):
    for argv in (
        ["invariants", "--graph", "path:4", "--budget-seconds", budget],
        ["verify-paper", "--max-n", "2", "--budget-seconds", budget],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite number >= 0" in captured.err


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    for argv in (
        ["invariants", "--graph", "path:3", "--format", "json"],
        ["verify-paper", "--max-n", "2"],
        ["decompose", "4", "2"],
    ):
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out")
    assert not target.exists()


def test_unwritable_out_fails_before_any_row(capsys, monkeypatch, tmp_path):
    calls = []
    real = cli._run_row
    monkeypatch.setattr(cli, "_run_row", lambda *a, **k: calls.append(a) or real(*a, **k))
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "verify-paper", "--max-n", "7", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out")
    assert calls == []


def test_verify_paper_passes_the_field_to_each_row(capsys, monkeypatch):
    fields = []
    real = cli._run_row

    def row(task, field, budget):
        fields.append(field)
        return real(task, field, budget)

    monkeypatch.setattr(cli, "_run_row", row)
    code, _, _ = run_cli(capsys, "verify-paper", "--max-n", "2", "--field", "2")
    assert code == 0
    assert fields and all(field is GF2 for field in fields)


def test_out_probe_leaves_no_file_on_exit_2(capsys, tmp_path):
    # the --out check runs before the formula route, which then exits 2
    target = tmp_path / "x.json"
    code, _, err = run_cli(
        capsys, "invariants", "--graph", "circulant:7:1,3", "--method", "formula",
        "--out", str(target),
    )
    assert code == 2
    assert "error" in err
    assert not target.exists()


def test_verify_paper_builds_each_graph_once(capsys, monkeypatch):
    counts = {"parse": 0, "build": 0, "parse_in_row": 0, "build_in_row": 0}
    in_row = [False]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name + ("_in_row" if in_row[0] else "")] += 1
            return fn(*args, **kwargs)
        return wrapper

    def row(*args, **kwargs):
        in_row[0] = True
        try:
            return real_row(*args, **kwargs)
        finally:
            in_row[0] = False

    real_row = cli._run_row
    monkeypatch.setattr(cli, "parse_graph_spec", counted("parse", cli.parse_graph_spec))
    monkeypatch.setattr(cli, "build_graph", counted("build", cli.build_graph))
    monkeypatch.setattr(cli, "_run_row", row)
    code, _, _ = run_cli(capsys, "verify-paper", "--max-n", "3", "--format", "csv")
    assert code == 0
    # each invariant row builds its graph; the colon ladderA row's is built up front
    assert counts == {"parse": 63, "build": 1, "parse_in_row": 0, "build_in_row": 63}


def test_formula_and_refused_routes_build_no_graph(capsys, monkeypatch):
    def no_graph(spec):
        raise AssertionError(f"built a graph for {spec.to_string()}")

    monkeypatch.setattr(cli, "build_graph", no_graph)
    argv = ["invariants", "--graph", "cubic:50000:1", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--method", "formula")
    assert code == 0
    obj = json.loads(out)
    assert (obj["vertices"], obj["edges"]) == (100000, 150000)
    for method, message in (
        ("oracle", "error: 100000 vertices exceeds the oracle hard cap of 20; "
                   "use --method formula for family members\n"),
        ("sdepth", "error: 100000 variables exceeds the sdepth solver cap of 14\n"),
    ):
        code, out, err = run_cli(capsys, *argv, "--method", method)
        assert (code, out, err) == (2, "", message)


def test_decompose_examples(capsys):
    code, out, _ = run_cli(capsys, "decompose", "4", "2")
    assert code == 0
    assert "2 × C_4(1,2)" in out and "verified" in out
    code, out, _ = run_cli(capsys, "decompose", "5", "2")
    assert "1 × C_10(2,5)" in out
    code, out, _ = run_cli(capsys, "decompose", "3", "1")
    assert "1 × C_6(1,3)" in out


def test_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "6", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    # t = gcd(12, 4) = 4, 2n/t = 3 odd: two copies of C_6(2,3)
    assert (obj["t"], obj["parity"], obj["copy_count"]) == (4, "odd", 2)
    assert obj["component"] == "circulant:6:2,3"
    assert len(obj["witnesses"]) == 2


def test_decompose_invalid_exits_2(capsys):
    code, _, err = run_cli(capsys, "decompose", "4", "4")
    assert code == 2
    assert "error" in err


def test_decompose_component_too_large_exits_2(capsys):
    # C_26(2,13) is one 26-vertex component, above the isomorphism search limit
    code, out, err = run_cli(capsys, "decompose", "13", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "too large for exact isomorphism" in err


def test_decompose_refuses_large_component_before_building(capsys, monkeypatch):
    # C_40000(1,20000) took 4.7 s and 505 MB to be refused when it was built first
    def no_graph(spec):
        raise AssertionError(f"built a graph for {spec.to_string()}")

    monkeypatch.setattr(graphs, "build_graph", no_graph)
    for n, a in (("20000", "1"), ("13", "2")):
        code, out, err = run_cli(capsys, "decompose", n, a)
        assert (code, out, err) == (
            2, "", "error: too large for exact isomorphism (limit 24 vertices)\n"
        )


def test_main_builds_one_parser_and_keeps_no_state(capsys, monkeypatch):
    # the parser is built on the first call and reused; each call parses into
    # a fresh Namespace, so no option or failure carries over to the next
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli._build_parser.cache_clear()
    oracle = ["invariants", "--graph", "cubic:8:1", "--method", "oracle"]
    assert run_cli(capsys, *oracle, "--slow")[0] == 0
    assert built
    built.clear()
    code, out, err = run_cli(capsys, *oracle)
    assert (code, out) == (2, "") and "pass --slow" in err
    assert run_cli(capsys, "decompose", "4", "4")[0] == 2
    assert run_cli(capsys, "decompose", "4", "2")[0] == 0
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith("usage: circdepth")
    assert built == []


def test_union_spec_through_all_methods(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--graph", "union:(path:2;path:3)", "--method", "all",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["invariants"]["depth"] == 2
    assert obj["invariants"]["sdepth"]["exact"] == 2


def _rows_without_seconds(out):
    return [r[:-1] for r in csv.reader(io.StringIO(out))]


def test_verify_paper_covers_every_row_kind(capsys):
    # n = 3 is the first n with colon rows
    code, out, _ = run_cli(capsys, "verify-paper", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert {r[0] for r in _rows_without_seconds(out)} >= {
        "path", "davis-domke", "colon-ladderA", "colon-cubic1n", "colon-cubic2n",
    }


@pytest.mark.parametrize("env", ["abc", "2"])
def test_verify_paper_ignores_circ_threads(capsys, monkeypatch, env):
    # the table runs serially in one process and reads no environment variable
    args = ["verify-paper", "--max-n", "2", "--format", "csv"]
    monkeypatch.delenv("CIRC_THREADS", raising=False)
    code, unset, _ = run_cli(capsys, *args)
    assert code == 0
    monkeypatch.setenv("CIRC_THREADS", env)
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    assert _rows_without_seconds(out) == _rows_without_seconds(unset)


def _count_oracle_runs(monkeypatch):
    calls = []
    real = homology.hochster_betti_table

    def counted(g, field=homology.GF32003):
        calls.append(g)
        return real(g, field)

    monkeypatch.setattr(homology, "hochster_betti_table", counted)
    return calls


def test_verify_paper_runs_the_oracle_once_per_isomorphism_class(capsys, monkeypatch):
    # 88 oracle requests at --max-n 5 fall into 41 isomorphism classes; the
    # memo lives for one run, so a second run computes all 41 again
    calls = _count_oracle_runs(monkeypatch)
    for _ in range(2):
        calls.clear()
        code, _, _ = run_cli(capsys, "verify-paper", "--max-n", "5", "--format", "csv")
        assert code == 0
        assert len(calls) == 41


def test_invariants_never_reuses_an_oracle_answer(capsys, monkeypatch):
    calls = _count_oracle_runs(monkeypatch)
    argv = ["invariants", "--graph", "cubic:5:1", "--method", "oracle", "--format", "json"]
    outs = [run_cli(capsys, *argv)[1] for _ in range(2)]
    assert len(calls) == 2
    assert [json.loads(o)["invariants"]["depth"] for o in outs] == [3, 3]


def _report(depth, pdim, sdepth, nvars):
    return FormulaReport(
        depth=depth, sdepth=sdepth, pdim=pdim, source="synthetic", ambient_vars=nvars
    )


def test_verdict_logic():
    exact = _report(
        FormulaValue.exact(2), FormulaValue.exact(3), FormulaValue.exact(2), 5
    )
    good = InvariantReport(depth=2, pdim=3, reg=1, ambient_vars=5, field=GF32003)
    off = InvariantReport(depth=3, pdim=2, reg=1, ambient_vars=5, field=GF32003)
    assert _verdict(exact, good, None) == "match"
    assert _verdict(exact, off, None) == "MISMATCH"

    bounded = _report(
        FormulaValue.exact(2), FormulaValue.exact(3), FormulaValue.bounds(2, 3), 5
    )
    inside = SdepthResult(value=3, is_exact=True, witness=None)
    outside = SdepthResult(value=4, is_exact=True, witness=None)
    assert _verdict(bounded, good, inside) == "bounds-consistent"
    assert _verdict(bounded, good, outside) == "MISMATCH"

    # exact solver value below oracle depth violates the Stanley inequality
    low = SdepthResult(value=1, is_exact=True, witness=None)
    assert _verdict(None, good, low) == "MISMATCH"
