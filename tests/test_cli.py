"""CLI surface: spec grammar, output formats, exit codes, determinism."""

import argparse
import csv
import io
import json
import sys

import pytest

from circdepth import cli, graphs, ideals
from circdepth.cli import CSV_COLUMNS, _verdict, main
from circdepth.formulas import FormulaReport, FormulaValue
from circdepth.homology import GF2, GF32003, BettiTable
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
    # one row, every cell under a column: a key outside CSV_COLUMNS would add a cell
    assert [len(r) for r in rows] == [len(CSV_COLUMNS)] * 2


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
    # n = 3 reaches every row kind, the colon rows included
    code, out, _ = run_cli(capsys, "verify-paper", "--max-n", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {r["family"] for r in rows} >= {"path", "sdepth-path", "davis-domke", "colon-ladderA"}
    assert all(set(r) == set(CSV_COLUMNS) for r in rows)


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
    errors = [r for r in obj["rows"] if r["verdict"] == "ERROR"]
    assert len(errors) == 2 and all(set(r) == set(CSV_COLUMNS) for r in errors)
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
        (t.family, t.params) for t in cli._verify_tasks(8, True, GF32003, None)[0]
        if t.family.startswith("colon-")
    ]
    expected = []
    for n in range(3, 9):
        expected += [("colon-ladderA", f"n={n},pivot=y{n}"), ("colon-cubic1n", f"n={n},pivot=y1")]
        if n % 2 == 1:
            expected.append(("colon-cubic2n", f"n={n},pivot=y{n}"))
    assert colon == expected


def test_verify_paper_names_the_rows_it_leaves_out(capsys):
    # the default tier leaves out the 16-vertex ladders C_7 and D_7, one
    # note each on stderr with the reason _skipped_routes gives
    code, out, err = run_cli(capsys, "verify-paper", "--max-n", "7", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + 142
    reason = "16 vertices is in the slow tier (16-20); pass --slow to run it"
    assert err.splitlines() == [
        f"note: ladderC n=7 skipped: {reason}",
        f"note: ladderD n=7 skipped: {reason}",
    ]
    assert reason == cli._skipped_routes(16, cli.ORACLE_ROUTES, False)["oracle"]


def test_verify_paper_skips_nothing_at_max_n_5(capsys):
    _, notes = cli._verify_tasks(5, False, GF32003, None)
    assert notes == []
    code, _, err = run_cli(capsys, "verify-paper", "--max-n", "5", "--format", "csv")
    assert (code, err) == (0, "")


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
    # each invariant row's check binds the field; it reaches the oracle cache
    fields = []
    real = cli.hochster_betti_table

    def table(g, field=GF32003):
        fields.append(field)
        return real(g, field)

    monkeypatch.setattr(cli, "hochster_betti_table", table)
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


def test_decompose_26_vertex_component(capsys):
    # C_26(2,13) is one 26-vertex component, above the isomorphism search
    # limit, which decompose does not use: its one witness is a closed-form map
    code, out, _ = run_cli(capsys, "decompose", "13", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["copy_count"], obj["component"]) == (1, "circulant:26:2,13")
    assert [len(w) for w in obj["witnesses"]] == [26]


def test_decompose_large_component_builds_no_graph(capsys, monkeypatch):
    # C_40000(1,20000) is one 40,000-vertex component; its witness is checked
    # against the edge rule, so no graph is built
    def no_graph(spec):
        raise AssertionError(f"built a graph for {spec.to_string()}")

    monkeypatch.setattr(graphs, "build_graph", no_graph)
    code, out, err = run_cli(capsys, "decompose", "20000", "1", "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["copy_count"] == 1
    assert [len(w) for w in obj["witnesses"]] == [40000]


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
    # cli looks hochster_betti_table up at each call, so a patch there sees
    # every oracle run
    calls = []
    real = cli.hochster_betti_table

    def counted(g, field=GF32003):
        calls.append(g)
        return real(g, field)

    monkeypatch.setattr(cli, "hochster_betti_table", counted)
    return calls


def test_verify_paper_runs_the_oracle_once_per_graph(capsys, monkeypatch):
    # 88 oracle requests at --max-n 5 ask about 47 distinct graphs; the cache
    # lives for one run, so a second run computes all 47 again
    calls = _count_oracle_runs(monkeypatch)
    for _ in range(2):
        calls.clear()
        code, _, _ = run_cli(capsys, "verify-paper", "--max-n", "5", "--format", "csv")
        assert code == 0
        assert len(calls) == 47
        assert len(set(calls)) == 47


def test_verify_paper_memo_counts(capsys, monkeypatch):
    # every oracle request is one evaluate call with the oracle route; the
    # cache computes each (graph, field) once and never searches for an
    # isomorphism
    counts = {}
    real_evaluate, real_oracle = cli.evaluate, cli.hochster_betti_table

    def evaluate(spec, routes, *args):
        counts["requests"] += "oracle" in routes
        return real_evaluate(spec, routes, *args)

    def oracle(g, field):
        counts["oracle"] += 1
        return real_oracle(g, field)

    def search(g, h):
        raise AssertionError("verify-paper reached find_isomorphism")

    monkeypatch.setattr(cli, "evaluate", evaluate)
    monkeypatch.setattr(cli, "hochster_betti_table", oracle)
    for name, mod in list(sys.modules.items()):
        if name.startswith("circdepth") and "find_isomorphism" in vars(mod):
            monkeypatch.setattr(mod, "find_isomorphism", search)
    for argv, requests, computed in (
        (("--max-n", "5"), 88, 47),
        (("--max-n", "8", "--slow"), 122, 77),
    ):
        counts.update(requests=0, oracle=0)
        code, _, _ = run_cli(capsys, "verify-paper", *argv, "--format", "csv")
        assert code == 0
        assert counts == {"requests": requests, "oracle": computed}


def test_invariants_never_reuses_an_oracle_answer(capsys, monkeypatch):
    calls = _count_oracle_runs(monkeypatch)
    argv = ["invariants", "--graph", "cubic:5:1", "--method", "oracle", "--format", "json"]
    outs = [run_cli(capsys, *argv)[1] for _ in range(2)]
    assert len(calls) == 2
    assert [json.loads(o)["invariants"]["depth"] for o in outs] == [3, 3]


def _report(depth, sdepth, nvars):
    return FormulaReport(depth=depth, sdepth=sdepth, source="synthetic", ambient_vars=nvars)


def _table(pdim, nvars):
    """A Betti table with this pdim, so depth nvars - pdim."""
    return BettiTable.from_dict(nvars, {(0, 0): 1, (pdim, pdim + 1): 1})


def test_verdict_logic():
    exact = _report(FormulaValue.exact(2), FormulaValue.exact(2), 5)
    good, off = _table(3, 5), _table(2, 5)
    assert _verdict(exact, good, None) == "match"
    assert _verdict(exact, off, None) == "MISMATCH"

    bounded = _report(FormulaValue.exact(2), FormulaValue(2, 3), 5)
    inside = SdepthResult(value=3, is_exact=True, witness=None)
    outside = SdepthResult(value=4, is_exact=True, witness=None)
    assert _verdict(bounded, good, inside) == "bounds-consistent"
    assert _verdict(bounded, good, outside) == "MISMATCH"

    # exact solver value below oracle depth violates the Stanley inequality
    low = SdepthResult(value=1, is_exact=True, witness=None)
    assert _verdict(None, good, low) == "MISMATCH"


def _branchy_verdict(formula, oracle, solver):
    """The verdict rule as it was written branch by branch, kept as a reference."""
    mismatch = False
    bounds_checked = False
    if formula is not None and oracle is not None:
        mismatch |= formula.depth.value != oracle.depth
        mismatch |= formula.pdim.value != oracle.pdim
    if formula is not None and solver is not None:
        sv = formula.sdepth
        if solver.is_exact:
            if sv.is_exact:
                mismatch |= sv.value != solver.value
            else:
                bounds_checked = True
                mismatch |= not sv.contains(solver.value)
        else:
            bounds_checked = True
            if sv.hi is not None:
                mismatch |= solver.value > sv.hi
    if oracle is not None and solver is not None and solver.is_exact:
        mismatch |= solver.value < oracle.depth
    if mismatch:
        return "MISMATCH"
    return "bounds-consistent" if bounds_checked else "match"


def test_verdict_range_rule_matches_the_branchy_rule():
    # formula depth 2 on 6 variables with every Stanley depth range lo <= 3,
    # hi None or lo..4; solver values 0..5, exact or after a budget stop;
    # oracle depths 0..6; each route also absent
    formulas = [None] + [
        _report(FormulaValue.exact(2), FormulaValue(lo, hi), 6)
        for lo in range(4)
        for hi in (None, *range(lo, 5))
    ]
    solvers = [None] + [
        SdepthResult(value=v, is_exact=exact, witness=None)
        for v in range(6)
        for exact in (True, False)
    ]
    oracles = [None] + [_table(6 - d, 6) for d in range(7)]
    cases = [(f, o, s) for f in formulas for o in oracles for s in solvers]
    assert len(cases) == 19 * 8 * 13
    assert [_verdict(*c) for c in cases] == [_branchy_verdict(*c) for c in cases]


_GRAMMAR = (
    "path:Q | cycle:Q | star:Q | complete:Q | circulant:Q:a1,a2,... | cubic:N:A | "
    "ladderA:N | ladderB:N | ladderC:N | ladderD:N | union:(spec;spec;...)"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["invariants", "--graph", "moon:3"],
         f"cannot parse graph spec 'moon:3'; grammar: {_GRAMMAR}"),
        (["invariants", "--graph", "cubic:50000:1", "--method", "oracle"],
         "100000 vertices exceeds the oracle hard cap of 20; use --method formula for "
         "family members"),
        (["invariants", "--graph", "cubic:8:1", "--method", "oracle"],
         "16 vertices is in the slow tier (16-20); pass --slow to run it"),
        (["invariants", "--graph", "cubic:8:1", "--method", "sdepth"],
         "16 variables exceeds the sdepth solver cap of 14"),
        (["invariants", "--graph", "circulant:7:1,3", "--method", "formula"],
         "no closed form for circulant q=7, shifts=(1, 3)"),
        (["invariants", "--graph", "path:1", "--method", "formula"],
         "path formula needs q >= 2"),
        (["verify-paper", "--max-n", "9"], "--max-n 9 exceeds the default tier limit of 7"),
        (["verify-paper", "--max-n", "9", "--slow"],
         "--max-n 9 exceeds the slow tier limit of 8"),
        (["verify-paper", "--max-n", "1"], "--max-n 1 is below 2, the smallest n"),
        (["invariants", "--graph", "path:3", "--out", "{out}"],
         "cannot write --out {out}: No such file or directory"),
        (["verify-paper", "--max-n", "2", "--out", "{out}"],
         "cannot write --out {out}: No such file or directory"),
        (["decompose", "4", "2", "--out", "{out}"],
         "cannot write --out {out}: No such file or directory"),
        (["decompose", "4", "4"], "cubic circulant needs 1 <= a < n"),
    ],
)
def test_every_exit_2_path(capsys, tmp_path, argv, message):
    out = str(tmp_path / "missing" / "x.out")
    argv = [arg.replace("{out}", out) for arg in argv]
    expected = (2, "", f"error: {message.replace('{out}', out)}\n")
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize(
    "q, oracle_note",
    [
        (16, "16 vertices is in the slow tier (16-20); pass --slow to run it"),
        (30, "30 vertices exceeds the oracle hard cap of 20; use --method formula "
             "for family members"),
    ],
)
def test_invariants_all_with_no_route_left_exits_2(capsys, q, oracle_note):
    # C_q(1,3) has no closed form, and its size skips the oracle and the
    # solver: no route is left to answer, so the request is refused after
    # the notes instead of printing a verdict on nothing
    code, out, err = run_cli(
        capsys, "invariants", "--graph", f"circulant:{q}:1,3", "--method", "all"
    )
    assert (code, out) == (2, "")
    assert err == (
        f"note: oracle skipped: {oracle_note}\n"
        f"note: sdepth solver skipped: {q} variables exceeds the sdepth solver cap of 14\n"
        f"error: no closed form for circulant q={q}, shifts=(1, 3)\n"
    )


def test_verify_paper_budget_reaches_every_sdepth_row(capsys, monkeypatch):
    # --max-n 3 has 26 sdepth rows; each solver call gets the budget, and
    # each finishes within it with an exact value
    budgets = []
    real = cli.sdepth_exact

    def solver(ideal, time_budget=None, floor=0):
        budgets.append(time_budget)
        return real(ideal, time_budget=time_budget, floor=floor)

    monkeypatch.setattr(cli, "sdepth_exact", solver)
    code, out, _ = run_cli(
        capsys, "verify-paper", "--max-n", "3", "--budget-seconds", "30", "--format", "csv"
    )
    assert code == 0
    rows = [r for r in csv.DictReader(io.StringIO(out)) if r["family"].startswith("sdepth-")]
    assert len(rows) == len(budgets) == 26
    assert budgets == [30.0] * 26
    assert all(r["sdepth_exact"] for r in rows)
