"""Command-line surface: invariants by formula/oracle/solver, whole-table
verification of the published closed forms, and cubic-circulant
decomposition reports.

Exit codes: 0 success, 1 a computed value contradicts a closed form (or a
structural verification failed, or a verify-paper row raised), 2 invalid
input or out-of-tier request.  Exit code 2 comes only from ``main``: the
commands raise, and ``main`` prints ``error: ...`` and returns 2.
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
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Collection

from .formulas import FormulaReport, FormulaUnavailable, FormulaValue, formula_for_spec
from .graphs import (
    CubicCirculantSpec,
    DecompositionError,
    Graph,
    GraphSpec,
    GraphSpecError,
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
    BettiTable,
    FieldSpec,
    OracleSizeError,
    hochster_betti_table,
)
from .ideals import edge_ideal, verify_colon_decomposition
from .sdepth import POSET_VAR_CAP, SdepthResult, sdepth_exact

_FIELDS = {"2": GF2, "32003": GF32003, "exact": RATIONALS}


class UsageError(ValueError):
    """A request the CLI refuses: an unwritable --out, a route past its size cap,
    or a --max-n outside the tier."""


# A table row is a dict of these cells; a cell a row does not set is "".
CSV_COLUMNS = (
    "family", "params", "depth_formula", "depth_oracle", "pdim_formula", "pdim_oracle",
    "sdepth_lo", "sdepth_hi", "sdepth_exact", "verdict", "theorem", "seconds",
)


ALL_ROUTES = ("formula", "oracle", "sdepth")
ORACLE_ROUTES = ("formula", "oracle")
_ROUTE_NAMES = {"oracle": "oracle", "sdepth": "sdepth solver"}


@dataclass(frozen=True)
class Evaluation:
    """What the requested routes computed for one graph, and the verdict on it."""

    formula: FormulaReport | None
    oracle: BettiTable | None
    solver: SdepthResult | None
    verdict: str


def evaluate(
    spec: GraphSpec,
    routes: Collection[str],
    field: FieldSpec,
    budget: float | None,
    oracle: Callable[[Graph, FieldSpec], BettiTable] | None = None,
) -> Evaluation:
    """Run the routes ('formula', 'oracle', 'sdepth') on ``spec`` and compare them.

    The graph is built only for the oracle and the solver; the formula route
    needs the spec alone.  Raises FormulaUnavailable when 'formula' is a route
    and the spec has no closed form.  Without the formula route the closed
    form, when there is one, still gives the sdepth solver its starting floor.
    ``oracle`` answers the oracle route; verify-paper passes its run's cache,
    and without it hochster_betti_table answers, looked up at each call.
    """
    try:
        closed = formula_for_spec(spec) if {"formula", "sdepth"} & set(routes) else None
    except FormulaUnavailable:
        if "formula" in routes:
            raise
        closed = None
    formula = closed if "formula" in routes else None
    g = build_graph(spec) if {"oracle", "sdepth"} & set(routes) else None
    table = (oracle or hochster_betti_table)(g, field) if "oracle" in routes else None
    solver = None
    if "sdepth" in routes:
        floor = closed.sdepth.lo if closed is not None else 0
        solver = sdepth_exact(edge_ideal(g), time_budget=budget, floor=floor)
    return Evaluation(formula, table, solver, _verdict(formula, table, solver))


def _solver_bounds(solver: SdepthResult) -> FormulaValue:
    """The solver's Stanley depth as a range: exact, or [value, inf) after a budget stop."""
    return FormulaValue(solver.value, solver.value if solver.is_exact else None)


def _verdict(
    formula: FormulaReport | None,
    oracle: BettiTable | None,
    solver: SdepthResult | None,
) -> str:
    """MISMATCH when two routes disagree, else match, or bounds-consistent when
    the formula and the solver agree on a Stanley depth range that is not exact.

    Every closed form gives exact depth, and pdim and depth determine each
    other on both the closed form and the Betti table, so depth is compared
    alone.  The formula's and the solver's Stanley depth ranges must meet.
    """
    mismatch = bounds_checked = False
    if formula is not None and oracle is not None:
        mismatch |= formula.depth.value != oracle.depth
    if solver is not None:
        found = _solver_bounds(solver)
        if formula is not None:
            mismatch |= not formula.sdepth.meets(found)
            bounds_checked = not (formula.sdepth.is_exact and found.is_exact)
        if oracle is not None and found.is_exact:
            # Stanley inequality: exact Stanley depth below depth is a finding
            mismatch |= found.value < oracle.depth
    if mismatch:
        return "MISMATCH"
    return "bounds-consistent" if bounds_checked else "match"


# The oracle's slow tier: from this many vertices up to ORACLE_VERTEX_CAP it
# runs only with --slow.
SLOW_TIER_MIN = 16


def _skipped_routes(num_vertices: int, routes: Collection[str], slow: bool) -> dict[str, str]:
    """Each route of ``routes`` that may not run on this many vertices, with why.

    The formula route always may.  This is where the CLI reads the size caps,
    before any graph is built.
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
    spec = parse_graph_spec(args.graph)
    routes = set(ALL_ROUTES) if args.method == "all" else {args.method}
    for route, reason in _skipped_routes(spec.num_vertices, routes, args.slow).items():
        if route == args.method:
            raise UsageError(reason)
        print(f"note: {_ROUTE_NAMES[route]} skipped: {reason}", file=sys.stderr)
        routes.discard(route)
    _check_out(args.out)

    field = _FIELDS[args.field]
    try:
        result = evaluate(spec, routes, field, args.budget_seconds)
    except FormulaUnavailable:
        # with --method all the closed form is reported only when there is
        # one; with no other route left there is nothing to report
        if routes == {"formula"}:
            raise
        routes.discard("formula")
        result = evaluate(spec, routes, field, args.budget_seconds)
    seconds = round(time.perf_counter() - t0, 3)
    payload = _invariants_payload(args, spec, result, seconds)
    _emit(_render_invariants(args, spec, result, payload), args.out)
    return 1 if (args.method == "all" and result.verdict == "MISMATCH") else 0


def _sdepth_json(formula, solver):
    """The solver's Stanley depth range when it ran, else the formula's, else None."""
    if solver is not None:
        bounds = _solver_bounds(solver)
    elif formula is not None:
        bounds = formula.sdepth
    else:
        return None
    obj = {"lo": bounds.lo, "hi": bounds.hi}
    if bounds.is_exact:
        obj["exact"] = bounds.value
    return obj


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
        cells = _evaluation_cells(result)
        return _rows_to_csv([_row(spec.kind, spec.params(), cells, payload["seconds"])])
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
            f"oracle[{_FIELDS[args.field]}]: depth={oracle.depth} pdim={oracle.pdim} "
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
    """One verify-paper row: ``check()`` returns its cells.

    ``check`` binds all the row reads: the spec, its routes, the field, the
    budget and the run's oracle cache, or the graph of a colon row, or the
    cubic circulant spec of a decomposition row.
    """

    family: str
    params: str
    check: Callable[[], dict[str, str]]


def _decomposition_cells(spec: CubicCirculantSpec) -> dict[str, str]:
    """The gcd-decomposition check of C_2n(a, n)."""
    try:
        davis_domke_decompose(spec)
    except DecompositionError as exc:
        return {"verdict": "MISMATCH", "theorem": str(exc)}
    _t, _parity, copy_count, component = spec.split()
    return {
        "verdict": "match",
        "theorem": f"gcd-decomposition: {copy_count} x {component.display_name()} verified",
    }


def _colon_cells(g, pivot) -> dict[str, str]:
    """The colon-quotient support bijection at ``pivot``.

    The theorem text keeps the earlier check's wording, which the benchmark's
    reference table pins.
    """
    ok = verify_colon_decomposition(g, g.index_of(pivot))
    return {
        "verdict": "match" if ok else "MISMATCH",
        "theorem": "colon-quotient dimension check (dmax=4)",
    }


def _verify_tasks(
    max_n: int, slow: bool, field: FieldSpec, budget: float | None
) -> tuple[list[RowTask], list[str]]:
    """The table's rows, in order, and a note for each row left out.

    A row is left out when _skipped_routes refuses one of its routes; its
    note names the row and gives the reasons.  The invariant rows run over
    ``field`` with the solver ``budget`` and share one fresh cache of
    hochster_betti_table, keyed by the graph and the field, so the run
    computes each table once and keeps nothing after it ends.
    """
    tasks: list[RowTask] = []
    notes: list[str] = []
    oracle = cache(hochster_betti_table)

    def add(family: str, text: str, routes=ORACLE_ROUTES, params: str = "") -> None:
        spec = parse_graph_spec(text)
        params = params or spec.params()
        skipped = _skipped_routes(spec.num_vertices, routes, slow)
        if skipped:
            notes.append(f"note: {family} {params} skipped: {'; '.join(skipped.values())}")
        else:
            def check() -> dict[str, str]:
                return _evaluation_cells(evaluate(spec, routes, field, budget, oracle))

            tasks.append(RowTask(family, params, check))

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
            cubic = CubicCirculantSpec(n, a)
            check = partial(_decomposition_cells, cubic)
            tasks.append(RowTask("davis-domke", cubic.params(), check))
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
    return tasks, notes


def _row(family: str, params: str, cells: dict[str, str], seconds: float) -> dict[str, str]:
    """A table row: every CSV column, in order, with "" for a cell ``cells`` leaves out."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(cells, family=family, params=params, seconds=f"{seconds:.3f}")
    return row


def _run_row(task: RowTask) -> dict[str, str]:
    """Run and time one row; a crashed row is reported as ERROR, and the table goes on."""
    t0 = time.perf_counter()
    try:
        cells = task.check()
    except Exception as exc:
        cells = {"verdict": "ERROR", "theorem": f"error: {exc}"}
    return _row(task.family, task.params, cells, time.perf_counter() - t0)


# verify-paper's largest --max-n, without and with --slow
_MAX_N_LIMIT = {False: 7, True: 8}


def cmd_verify_paper(args: argparse.Namespace) -> int:
    max_n, slow = args.max_n, args.slow
    limit = _MAX_N_LIMIT[slow]
    if max_n > limit:
        tier = "slow" if slow else "default"
        raise UsageError(f"--max-n {max_n} exceeds the {tier} tier limit of {limit}")
    if max_n < 2:
        raise UsageError(f"--max-n {max_n} is below 2, the smallest n")
    _check_out(args.out)
    tasks, notes = _verify_tasks(max_n, slow, _FIELDS[args.field], args.budget_seconds)
    for note in notes:
        print(note, file=sys.stderr)
    rows = [_run_row(t) for t in tasks]
    mismatches = sum(r["verdict"] == "MISMATCH" for r in rows)
    errors = sum(r["verdict"] == "ERROR" for r in rows)

    if args.format == "csv":
        text = _rows_to_csv(rows)
    elif args.format == "json":
        text = json.dumps(
            {
                "max_n": max_n,
                "slow": slow,
                "rows": rows,
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
                f"{r['family']} {r['params']}:",
                f"depth {r['depth_formula'] or '-'}/{r['depth_oracle'] or '-'}",
                f"pdim {r['pdim_formula'] or '-'}/{r['pdim_oracle'] or '-'}",
            ]
            if r["sdepth_lo"] or r["sdepth_exact"]:
                hi = r["sdepth_hi"] or "inf"
                cells.append(f"sdepth [{r['sdepth_lo']},{hi}] exact={r['sdepth_exact'] or '-'}")
            cells.append(r["verdict"])
            lines.append("  ".join(cells))
        lines.append(f"rows: {len(rows)}, mismatches: {mismatches}, errors: {errors}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 1 if mismatches or errors else 0


def _rows_to_csv(rows: list[dict[str, str]]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args: argparse.Namespace) -> int:
    spec = CubicCirculantSpec(args.n, args.a)  # reject bad n, a before the --out check
    _check_out(args.out)
    try:
        witnesses = davis_domke_decompose(spec)
    except DecompositionError as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return 1
    t, parity, copy_count, component = spec.split()
    if args.format == "json":
        payload = {
            "n": spec.n,
            "a": spec.a,
            "t": t,
            "parity": parity,
            "copy_count": copy_count,
            "component": component.to_string(),
            "component_name": component.display_name(),
            "verified": True,
            "witnesses": witnesses,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = (
            f"{spec.display_name()} = {copy_count} × {component.display_name()} "
            f"[t={t}, 2n/t {parity}], verified\n"
        )
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _write(out: str, text: str, mode: str) -> None:
    try:
        with open(out, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror}") from exc


def _check_out(out: str | None) -> None:
    """Raise UsageError when --out cannot be written, before any work is done.

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
    slow_tier = f"{SLOW_TIER_MIN}-{ORACLE_VERTEX_CAP} vertex oracle runs"
    inv.add_argument("--slow", action="store_true", help=f"allow {slow_tier}")
    inv.add_argument("--out", default=None)

    ver = sub.add_parser("verify-paper", help="run the whole verification table")
    ver.set_defaults(run=cmd_verify_paper)
    ver.add_argument("--max-n", type=int, default=5)
    ver.add_argument(
        "--slow",
        action="store_true",
        help=f"allow {slow_tier} and --max-n up to {_MAX_N_LIMIT[True]}",
    )
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
    """Run one command; the one place that prints ``error: ...`` and returns 2."""
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (GraphSpecError, FormulaUnavailable, OracleSizeError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
