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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Collection

from .formulas import FormulaReport, FormulaUnavailable, formula_for_spec
from .graphs import (
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
    spec_display_name,
    spec_to_string,
)
from .homology import (
    GF2,
    GF32003,
    ORACLE_VERTEX_CAP,
    RATIONALS,
    SLOW_TIER_MIN,
    FieldSpec,
    InvariantReport,
    OracleSizeError,
    oracle_invariants,
)
from .ideals import edge_ideal, verify_colon_decomposition
from .sdepth import POSET_VAR_CAP, SdepthResult, sdepth_exact

CSV_COLUMNS = (
    "family",
    "params",
    "depth_formula",
    "depth_oracle",
    "pdim_formula",
    "pdim_oracle",
    "sdepth_lo",
    "sdepth_hi",
    "sdepth_exact",
    "verdict",
    "theorem",
    "seconds",
)

_FIELDS = {"2": GF2, "32003": GF32003, "exact": RATIONALS}


@dataclass(frozen=True)
class RunConfig:
    graph: str
    method: str = "all"
    field: str = "32003"
    fmt: str = "text"
    budget_seconds: float | None = None
    slow: bool = False
    out: str | None = None


@dataclass
class VerificationRow:
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

    def values(self) -> list[str]:
        return [getattr(self, col) for col in CSV_COLUMNS]

    def json_obj(self) -> dict:
        return {col: getattr(self, col) for col in CSV_COLUMNS}


ALL_ROUTES = ("formula", "oracle", "sdepth")
ORACLE_ROUTES = ("formula", "oracle")


@dataclass(frozen=True)
class Evaluation:
    """What the requested routes computed for one graph, and the verdict on it."""

    formula: FormulaReport | None
    oracle: InvariantReport | None
    solver: SdepthResult | None
    verdict: str


def evaluate(
    spec: GraphSpec,
    g: Graph,
    routes: Collection[str],
    field: FieldSpec,
    budget: float | None,
) -> Evaluation:
    """Run the routes ('formula', 'oracle', 'sdepth') on ``g`` and compare them.

    Raises FormulaUnavailable when 'formula' is a route and the spec has no
    closed form.  Without the formula route the closed form, when there is
    one, still gives the sdepth solver its starting floor.
    """
    try:
        closed = formula_for_spec(spec) if {"formula", "sdepth"} & set(routes) else None
    except FormulaUnavailable:
        if "formula" in routes:
            raise
        closed = None
    formula = closed if "formula" in routes else None
    oracle = oracle_invariants(g, field) if "oracle" in routes else None
    solver = None
    if "sdepth" in routes:
        floor = closed.sdepth.lo if closed is not None else 0
        solver = sdepth_exact(edge_ideal(g), time_budget=budget, floor=floor)
    return Evaluation(formula, oracle, solver, _verdict(formula, oracle, solver))


def _verdict(
    formula: FormulaReport | None,
    oracle: InvariantReport | None,
    solver: SdepthResult | None,
) -> str:
    mismatch = False
    bounds_checked = False
    if formula is not None and oracle is not None:
        for fv, measured in ((formula.depth, oracle.depth), (formula.pdim, oracle.pdim)):
            if fv.is_exact:
                mismatch |= fv.value != measured
            else:
                bounds_checked = True
                mismatch |= not fv.contains(measured)
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


def _oracle_tier_error(nv: int, slow: bool) -> str | None:
    if nv > ORACLE_VERTEX_CAP:
        return (
            f"{nv} vertices exceeds the oracle hard cap of {ORACLE_VERTEX_CAP}; "
            "use --method formula for family members"
        )
    if nv >= SLOW_TIER_MIN and not slow:
        return (
            f"{nv} vertices is in the slow tier ({SLOW_TIER_MIN}-{ORACLE_VERTEX_CAP}); "
            "pass --slow to run it"
        )
    return None


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def cmd_invariants(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    try:
        spec = parse_graph_spec(cfg.graph)
        g = build_graph(spec)
    except GraphSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    routes = set(ALL_ROUTES) if cfg.method == "all" else {cfg.method}
    if "oracle" in routes:
        err = _oracle_tier_error(g.num_vertices, cfg.slow)
        if err:
            if cfg.method == "oracle":
                print(f"error: {err}", file=sys.stderr)
                return 2
            print(f"note: oracle skipped: {err}", file=sys.stderr)
            routes.discard("oracle")
    if "sdepth" in routes and g.num_vertices > POSET_VAR_CAP:
        msg = (
            f"{g.num_vertices} variables exceeds the sdepth solver cap "
            f"of {POSET_VAR_CAP}"
        )
        if cfg.method == "sdepth":
            print(f"error: {msg}", file=sys.stderr)
            return 2
        print(f"note: sdepth solver skipped: {msg}", file=sys.stderr)
        routes.discard("sdepth")

    field_spec = _FIELDS[cfg.field]
    try:
        result = evaluate(spec, g, routes, field_spec, cfg.budget_seconds)
    except FormulaUnavailable as exc:
        if cfg.method == "formula":
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # with --method all the closed form is reported only when there is one
        routes.discard("formula")
        result = evaluate(spec, g, routes, field_spec, cfg.budget_seconds)
    seconds = round(time.perf_counter() - t0, 3)
    payload = _invariants_payload(cfg, spec, g, result, seconds)
    text = _render_invariants(cfg, spec, g, result, payload)
    _emit(text, cfg.out)
    return 1 if (cfg.method == "all" and result.verdict == "MISMATCH") else 0


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


def _invariants_payload(cfg, spec, g, result: Evaluation, seconds):
    formula, oracle = result.formula, result.oracle
    if oracle is not None:
        depth, pdim, reg = oracle.depth, oracle.pdim, oracle.reg
    elif formula is not None:
        depth = formula.depth.value if formula.depth.is_exact else None
        pdim = formula.pdim.value if formula.pdim.is_exact else None
        reg = None
    else:
        depth = pdim = reg = None
    return {
        "spec": spec_to_string(spec),
        "vertices": g.num_vertices,
        "edges": g.edge_count,
        "invariants": {
            "depth": depth,
            "pdim": pdim,
            "reg": reg,
            "sdepth": _sdepth_json(formula, result.solver),
        },
        "provenance": {
            "method": cfg.method,
            "field": cfg.field if oracle is not None else None,
            "theorem": formula.source if formula is not None else None,
        },
        "seconds": seconds,
    }


def _render_invariants(cfg, spec, g, result: Evaluation, payload):
    if cfg.fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if cfg.fmt == "csv":
        row = _row_from_parts(spec.kind, spec.params(), result, payload["seconds"])
        return _rows_to_csv([row])
    formula, oracle, solver = result.formula, result.oracle, result.solver
    lines = [
        f"graph {spec_to_string(spec)} ({spec_display_name(spec)}): "
        f"{g.num_vertices} vertices, {g.edge_count} edges"
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
    if cfg.method == "all":
        lines.append(f"verdict: {result.verdict}")
    lines.append(f"seconds: {payload['seconds']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowTask:
    kind: str  # invariant | davis-domke | colon
    family: str
    params: str
    spec: str = ""
    n: int = 0
    a: int = 0
    pivot: str = ""
    routes: tuple[str, ...] = ()


def _verify_tasks(max_n: int, slow: bool) -> list[RowTask]:
    tasks: list[RowTask] = []

    def add(family: str, text: str, routes=ORACLE_ROUTES, params: str = "") -> None:
        spec = parse_graph_spec(text)
        if _oracle_tier_error(build_graph(spec).num_vertices, slow) is None:
            tasks.append(
                RowTask("invariant", family, params or spec.params(), text, routes=routes)
            )

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
            tasks.append(RowTask("davis-domke", "davis-domke", f"n={n},a={a}", n=n, a=a))
    for n in range(3, min(max_n, 5) + 1):
        tasks.append(
            RowTask("colon", "colon-ladderA", f"n={n}", spec="ladderA", n=n, pivot=f"y{n}")
        )
        tasks.append(
            RowTask("colon", "colon-cubic1n", f"n={n}", spec="moebius", n=n, pivot="y1")
        )
        if n % 2 == 1:
            tasks.append(
                RowTask("colon", "colon-cubic2n", f"n={n}", spec="prism", n=n, pivot=f"y{n}")
            )
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


def _row_from_parts(family, params, result: Evaluation, seconds):
    row = VerificationRow(family=family, params=params, verdict=result.verdict)
    formula, oracle, solver = result.formula, result.oracle, result.solver
    if formula is not None:
        row.depth_formula = str(formula.depth)
        row.pdim_formula = str(formula.pdim)
        row.sdepth_lo = str(formula.sdepth.lo)
        row.sdepth_hi = "" if formula.sdepth.hi is None else str(formula.sdepth.hi)
        row.theorem = formula.source
    if oracle is not None:
        row.depth_oracle = str(oracle.depth)
        row.pdim_oracle = str(oracle.pdim)
    if solver is not None and solver.is_exact:
        row.sdepth_exact = str(solver.value)
    row.seconds = f"{seconds:.3f}"
    return row


def _run_row(task: RowTask, field_char: int, budget: float | None) -> VerificationRow:
    t0 = time.perf_counter()
    try:
        if task.kind == "invariant":
            spec = parse_graph_spec(task.spec)
            result = evaluate(
                spec, build_graph(spec), task.routes, FieldSpec(field_char), budget
            )
            return _row_from_parts(
                task.family, task.params, result, time.perf_counter() - t0
            )
        if task.kind == "davis-domke":
            try:
                report = davis_domke_decompose(task.n, task.a)
                verdict = "match"
                theorem = (
                    f"gcd-decomposition: {report.copy_count} x "
                    f"{spec_display_name(report.component_spec)} verified"
                )
            except DecompositionError as exc:
                verdict = "MISMATCH"
                theorem = str(exc)
            row = VerificationRow(
                family=task.family, params=task.params, verdict=verdict,
                theorem=theorem, seconds=f"{time.perf_counter() - t0:.3f}",
            )
            return row
        if task.kind == "colon":
            builders = {
                "ladderA": lambda n: build_graph(LadderSpec("A", n)),
                "moebius": moebius_ladder,
                "prism": prism,
            }
            g = builders[task.spec](task.n)
            ok = verify_colon_decomposition(g, g.index_of(task.pivot), 4)
            row = VerificationRow(
                family=task.family,
                params=f"{task.params},pivot={task.pivot}",
                verdict="match" if ok else "MISMATCH",
                theorem="colon-quotient dimension check (dmax=4)",
                seconds=f"{time.perf_counter() - t0:.3f}",
            )
            return row
        raise ValueError(f"unknown row kind {task.kind}")
    except Exception as exc:  # a crashed row is reported, and the table goes on
        return VerificationRow(
            family=task.family,
            params=task.params,
            verdict="ERROR",
            theorem=f"error: {exc}",
            seconds=f"{time.perf_counter() - t0:.3f}",
        )


class WorkerCountError(ValueError):
    """CIRC_THREADS is not a positive integer."""


def resolve_workers() -> int:
    """verify-paper row workers: CIRC_THREADS, else 1.

    The value must be a positive integer in ASCII digits and is capped at
    os.cpu_count().  An empty CIRC_THREADS counts as unset.
    """
    env = os.environ.get("CIRC_THREADS", "")
    if not env:
        return 1
    if not (env.isascii() and env.isdigit() and int(env) > 0):
        raise WorkerCountError(f"CIRC_THREADS must be a positive integer, got {env!r}")
    return min(int(env), os.cpu_count() or 1)


def cmd_verify_paper(
    max_n: int,
    slow: bool,
    fmt: str,
    out: str | None,
    budget: float | None,
    field: str,
) -> int:
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
    tasks = _verify_tasks(max_n, slow)
    workers = resolve_workers()
    runner = partial(_run_row, field_char=_FIELDS[field].characteristic, budget=budget)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(runner, tasks))
    else:
        rows = [runner(t) for t in tasks]
    mismatches = sum(r.verdict == "MISMATCH" for r in rows)
    errors = sum(r.verdict == "ERROR" for r in rows)

    if fmt == "csv":
        text = _rows_to_csv(rows)
    elif fmt == "json":
        text = json.dumps(
            {
                "max_n": max_n,
                "slow": slow,
                "rows": [r.json_obj() for r in rows],
                "mismatches": mismatches,
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
        lines.append(f"rows: {len(rows)}, mismatches: {mismatches}")
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    return 1 if mismatches or errors else 0


def _rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(r.values())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(n: int, a: int, fmt: str, out: str | None) -> int:
    try:
        report = davis_domke_decompose(n, a)
    except GraphSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DecompositionError as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return 1
    except IsomorphismSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        payload = {
            "n": n,
            "a": a,
            "t": report.t,
            "parity": report.parity,
            "copy_count": report.copy_count,
            "component": spec_to_string(report.component_spec),
            "component_name": spec_display_name(report.component_spec),
            "verified": True,
            "witnesses": [dict(sorted(w.items())) for w in report.witness_isos],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = (
            f"C_{2*n}({a},{n}) = {report.copy_count} × "
            f"{spec_display_name(report.component_spec)} "
            f"[t={report.t}, 2n/t {report.parity}], verified\n"
        )
    _emit(text, out)
    return 0


class OutputError(ValueError):
    """The --out file cannot be written."""


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write --out {out}: {exc.strerror}") from exc
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circdepth",
        description="Depth, Stanley depth and projective dimension of edge "
        "ideals of cubic circulant graphs and ladder supergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="compute invariants of one graph")
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
    ver.add_argument("--max-n", type=int, default=5)
    ver.add_argument("--slow", action="store_true")
    ver.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ver.add_argument("--field", choices=tuple(_FIELDS), default="32003")
    ver.add_argument("--budget-seconds", type=_budget_seconds, default=None)
    ver.add_argument("--out", default=None)

    dec = sub.add_parser("decompose", help="gcd-decompose a cubic circulant")
    dec.add_argument("n", type=int)
    dec.add_argument("a", type=int)
    dec.add_argument("--format", choices=("text", "json"), default="text")
    dec.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "invariants":
            cfg = RunConfig(
                graph=args.graph,
                method=args.method,
                field=args.field,
                fmt=args.format,
                budget_seconds=args.budget_seconds,
                slow=args.slow,
                out=args.out,
            )
            return cmd_invariants(cfg)
        if args.command == "verify-paper":
            return cmd_verify_paper(
                args.max_n, args.slow, args.format, args.out, args.budget_seconds,
                args.field,
            )
        if args.command == "decompose":
            return cmd_decompose(args.n, args.a, args.format, args.out)
    except (OracleSizeError, WorkerCountError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
