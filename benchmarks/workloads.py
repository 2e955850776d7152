"""The four benchmark workloads: inputs from a seed, one round, output checks.

A round is the workload's whole input set, run once and checked.  Rounds of
a run repeat the same inputs, except that ``sdepth-solve`` draws new vertex
labelings for each round.  Each item reports one outcome: ``ok``, ``wrong``
(differs from the stored reference), ``error`` (unexpected exit code) or
``inexact`` (an ``sdepth`` budget ran out).  Checks too slow for the timed
round, such as witness validation, are left in ``Round.post`` for the runner
to make after it stops the round's clock.  Why each workload exists is in
NOTES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import time

from circdepth import cli, formulas, ideals, sdepth
from circdepth.graphs import Graph, bits, build_graph, parse_graph_spec

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")

VERIFY_ARGV = ["verify-paper", "--max-n", "5", "--format", "csv"]

# Pairwise non-isomorphic family members on 11 to 13 vertices, so that no
# two requests in a round share an oracle computation.
ORACLE_POOL = (
    "cubic:6:1", "cubic:6:2", "cubic:6:3", "cubic:6:4",
    "ladderA:6", "ladderB:5", "ladderB:6", "ladderC:5", "ladderD:5",
    "cycle:12", "cycle:13", "path:13",
)
ORACLE_FIELDS = ("2", "32003")
# One request over the rationals, on a graph whose rational ranks are cheap
# (1-5 s on most of the pool), so that the third rank kernel runs too.  It
# also makes the number of distinct requests odd: with an even number the
# median item falls on the gap between two requests' times and jumps with it.
ORACLE_EXACT = ("cubic:6:4",)


def oracle_requests() -> list[tuple[str, str]]:
    """Every (graph, field) request of an oracle-slow round, in pool order."""
    return ([(spec, field) for spec in ORACLE_POOL for field in ORACLE_FIELDS]
            + [(spec, "exact") for spec in ORACLE_EXACT])

# Family members on 7 to 10 vertices, each solved under SDEPTH_LABELINGS
# labelings per round.  Left out, with the reasons in NOTES.md: star:9 and
# star:10 (one solve costs as much as the rest of a round), and path:10 and
# cycle:10 (7 and 1 in 150 random labelings exhaust the 10 s budget).
SDEPTH_POOL = (
    "path:7", "path:8", "path:9",
    "cycle:7", "cycle:8", "cycle:9",
    "star:7", "star:8",
    "complete:7", "complete:8", "complete:9", "complete:10",
    "ladderA:4", "ladderA:5", "ladderB:3", "ladderB:4",
    "ladderC:3", "ladderC:4", "ladderD:3", "ladderD:4",
    "cubic:4:1", "cubic:4:2", "cubic:4:3",
    "cubic:5:1", "cubic:5:2", "cubic:5:3", "cubic:5:4",
)
SDEPTH_LABELINGS = 4
SDEPTH_BUDGET_S = 10.0

# formula-sweep candidates: every spec a seed can draw, in cost strata.
CUBIC_N = tuple(range(100, 1001, 100))
CUBIC_A = tuple(range(1, 13))
LADDER_N = (250, 500, 1000, 2000)
LINEAR_Q = (500, 1000, 2000, 4000)
COMPLETE_Q = (40, 80, 120, 160)
DECOMPOSE_N = tuple(range(2, 13))
DECOMPOSE_ITEMS = 60


def formula_candidates() -> list[str]:
    specs = [f"cubic:{n}:{a}" for n in CUBIC_N for a in CUBIC_A]
    specs += [f"ladder{f}:{n}" for n in LADDER_N for f in "ABCD"]
    specs += [f"{k}:{q}" for q in LINEAR_Q for k in ("cycle", "path", "star")]
    specs += [f"complete:{q}" for q in COMPLETE_Q]
    return specs


def decompose_candidates() -> list[tuple[int, int]]:
    return [(n, a) for n in DECOMPOSE_N for a in range(1, n)]


def load_ref(name: str):
    with open(os.path.join(REF_DIR, name)) as fh:
        return json.load(fh)


def call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed item, not a failed run
            return 1, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def parse_json(text: str) -> dict | None:
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def without(payload: dict, key: str) -> dict:
    return {k: v for k, v in payload.items() if k != key}


def relabel(g: Graph, perm: list[int]) -> Graph:
    """The same graph with vertex v moved to position perm[v]."""
    n = g.num_vertices
    adj = [0] * n
    labels = [""] * n
    for v in range(n):
        adj[perm[v]] = sum(1 << perm[u] for u in bits(g.adjacency[v]))
        labels[perm[v]] = g.labels[v]
    return Graph(tuple(labels), tuple(adj))


class Round:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.outcomes: list[str] = []
        self.problems: list[str] = []
        self.post: list = []  # callables returning problem strings

    def add(self, latency: float, outcome: str, problem: str = "") -> None:
        self.latencies.append(latency)
        self.outcomes.append(outcome)
        if problem:
            self.problems.append(problem)


def _run_item(tracer, fn, *args, **kwargs):
    """Time one item; with a tracer it is also the root span of its layers."""
    t0 = time.perf_counter()
    if tracer is not None:
        result = tracer.item(fn, *args, **kwargs)
    else:
        result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


class VerifyTable:
    """``verify-paper --max-n 5 --format csv`` in-process; the seed is ignored."""

    def __init__(self, seed: int) -> None:
        self.argv = VERIFY_ARGV
        with open(os.path.join(REF_DIR, "verify_table.csv"), newline="") as fh:
            self.ref_rows = list(csv.reader(fh))

    def describe(self) -> str:
        return " ".join(self.argv)

    def run_round(self, tracer, index: int = 0) -> Round:
        rnd = Round()
        row_times: list[float] = []
        original = getattr(cli, "_run_row", None)

        def timed_row(*args, **kwargs):
            dt, row = _run_item(tracer, original, *args, **kwargs)
            row_times.append(dt)
            return row

        # Rows are timed only through this hook.  If cli._run_row is gone, or
        # misses rows, the round fails below rather than timing rows otherwise.
        if original is not None:
            cli._run_row = timed_row
        t0 = time.perf_counter()
        try:
            rc, out = call_cli(self.argv)
        finally:
            if original is not None:
                cli._run_row = original
        command_s = time.perf_counter() - t0
        rows = list(csv.reader(io.StringIO(out)))
        header, body = (rows[0], rows[1:]) if rows else ([], [])
        ref_header, ref_body = self.ref_rows[0], self.ref_rows[1:]
        if header != ref_header or len(body) != len(ref_body) or len(row_times) != len(body):
            for dt in row_times or [command_s]:
                rnd.add(dt, "wrong")
            rnd.problems.append(
                f"verify-table: {len(body)} rows / header {header}, {len(row_times)} "
                f"rows timed through cli._run_row, expected {len(ref_body)} rows"
            )
            return rnd
        sec = header.index("seconds")
        for dt, row, ref in zip(row_times, body, ref_body):
            row = row[:sec] + [""] + row[sec + 1:]
            if row != ref:
                rnd.add(dt, "wrong", f"verify-table row {row} != reference {ref}")
            else:
                rnd.add(dt, "ok")
        if rc != 0 and not rnd.problems:
            rnd.outcomes[-1] = "error"
            rnd.problems.append(f"verify-paper exited {rc} with every row matching")
        return rnd


class OracleSlow:
    """``invariants --method oracle --slow`` over GF(2), GF(32003) and QQ, seeded order."""

    def __init__(self, seed: int) -> None:
        self.ref = load_ref("oracle.json")
        items = oracle_requests()
        if seed:
            random.Random(seed).shuffle(items)
        self.items = items

    def describe(self) -> str:
        return f"{len(self.items)} requests: " + " ".join(
            f"{s}@GF({f})" for s, f in self.items)

    def run_round(self, tracer, index: int = 0) -> Round:
        rnd = Round()
        for spec, field in self.items:
            argv = ["invariants", "--graph", spec, "--method", "oracle", "--slow",
                    "--format", "json", "--field", field]
            dt, (rc, out) = _run_item(tracer, call_cli, argv)
            payload = parse_json(out)
            if rc != 0 or payload is None:
                rnd.add(dt, "error", f"{' '.join(argv)} exited {rc}: {out[:200]!r}")
                continue
            got = without(payload, "seconds")
            expected = self.ref[f"{spec}@{field}"]
            if got != expected:
                rnd.add(dt, "wrong", f"{spec} GF({field}): {got} != {expected}")
            else:
                rnd.add(dt, "ok")
        return rnd


class SdepthSolve:
    """``sdepth_exact`` as ``cmd_invariants`` calls it, on relabeled graphs.

    Seed 0 keeps the native labels.  Any other seed draws fresh random vertex
    permutations for every round, from the seed and the round index, so one
    unlucky labeling moves one round rather than the whole run.  Drawing them
    is part of the round time (well under 1%), not of any item's latency.
    Witnesses are checked after timing: each must be an interval partition
    whose smallest top reaches the returned value.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ref = load_ref("sdepth.json")
        self.pool = []
        for text in SDEPTH_POOL:
            spec = parse_graph_spec(text)
            self.pool.append((text, spec, build_graph(spec)))

    def describe(self) -> str:
        return (f"{len(self.pool)} graphs x {SDEPTH_LABELINGS} labelings, "
                f"budget {SDEPTH_BUDGET_S} s: " + " ".join(t for t, _, _ in self.pool))

    def instances(self, index: int) -> list[tuple]:
        rng = random.Random(f"{self.seed}:{index}")
        items = []
        for text, spec, g in self.pool:
            for _ in range(SDEPTH_LABELINGS):
                perm = list(range(g.num_vertices))
                if self.seed:
                    rng.shuffle(perm)
                items.append((text, spec, relabel(g, perm) if self.seed else g))
        if self.seed:
            rng.shuffle(items)
        return items

    @staticmethod
    def solve(spec, g):
        # module attributes, not imported names, so the tracer sees these calls
        floor = formulas.formula_for_spec(spec).sdepth.lo
        return sdepth.sdepth_exact(
            ideals.edge_ideal(g), time_budget=SDEPTH_BUDGET_S, floor=floor)

    def run_round(self, tracer, index: int = 0) -> Round:
        rnd = Round()
        solved = []
        for text, spec, g in self.instances(index):
            t0 = time.perf_counter()
            try:
                dt, result = _run_item(tracer, self.solve, spec, g)
            except Exception as exc:  # a crash is a failed item, not a failed run
                rnd.add(time.perf_counter() - t0, "error", f"{text}: {exc!r}")
                continue
            if not result.is_exact:
                rnd.add(dt, "inexact", f"{text}: budget exhausted at {result.value}")
            elif result.value != self.ref[text]:
                rnd.add(dt, "wrong", f"{text}: sdepth {result.value} != {self.ref[text]}")
            else:
                rnd.add(dt, "ok")
            solved.append((text, g, result))
        rnd.post.append(lambda: [
            f"{text}: witness does not certify sdepth >= {result.value}"
            for text, g, result in solved
            if not self.certifies(g, result)
        ])
        return rnd

    @staticmethod
    def certifies(g, result) -> bool:
        """The witness is an interval partition whose tops all reach the value.

        An inexact result (value = floor) may lack a witness only when the
        budget ran out before the floor's partition was found.
        """
        witness = result.witness
        if witness is None:
            return not result.is_exact
        poset = sdepth.char_poset(ideals.edge_ideal(g))
        return (sdepth.validate_partition(poset, witness)
                and witness.min_top_size >= result.value)


class FormulaSweep:
    """Formula requests on large family members plus small ``decompose`` requests."""

    def __init__(self, seed: int) -> None:
        self.ref = load_ref("formula.json")
        rng = random.Random(seed)
        argvs = []
        for n in CUBIC_N:
            for a in rng.sample(CUBIC_A, 2):
                argvs.append(self._inv(f"cubic:{n}:{a}"))
        for n in LADDER_N:
            for fam in rng.sample("ABCD", 2):
                argvs.append(self._inv(f"ladder{fam}:{n}"))
        for q in LINEAR_Q:
            for kind in rng.sample(("cycle", "path", "star"), 2):
                argvs.append(self._inv(f"{kind}:{q}"))
        for q in COMPLETE_Q:
            argvs += [self._inv(f"complete:{q}")] * 2
        for n, a in rng.choices(decompose_candidates(), k=DECOMPOSE_ITEMS):
            argvs.append(["decompose", str(n), str(a), "--format", "json"])
        rng.shuffle(argvs)
        self.argvs = argvs
        self.checked: set[str] = set()  # decompose outputs whose witnesses verified

    @staticmethod
    def _inv(spec: str) -> list[str]:
        return ["invariants", "--graph", spec, "--method", "formula", "--format", "json"]

    def describe(self) -> str:
        return f"{len(self.argvs)} requests: " + " ".join(
            a[2] if a[0] == "invariants" else f"decompose:{a[1]}:{a[2]}" for a in self.argvs)

    def run_round(self, tracer, index: int = 0) -> Round:
        rnd = Round()
        outputs = set()
        for argv in self.argvs:
            dt, (rc, out) = _run_item(tracer, call_cli, argv)
            payload = parse_json(out)
            if rc != 0 or payload is None:
                rnd.add(dt, "error", f"{' '.join(argv)} exited {rc}: {out[:200]!r}")
                continue
            if argv[0] == "invariants":
                key, got = argv[2], without(payload, "seconds")
            else:
                key, got = f"{argv[1]}:{argv[2]}", without(payload, "witnesses")
                outputs.add(out)
            expected = self.ref[key]
            if got != expected:
                rnd.add(dt, "wrong", f"{key}: {got} != {expected}")
            else:
                rnd.add(dt, "ok")
        rnd.post.append(lambda: self.check_witnesses(outputs - self.checked))
        return rnd

    def check_witnesses(self, outputs) -> list[str]:
        """Check every decomposition witness is an isomorphism onto a component."""
        problems = []
        for out in outputs:
            self.checked.add(out)
            p = json.loads(out)
            whole = build_graph(parse_graph_spec(f"cubic:{p['n']}:{p['a']}"))
            part = build_graph(parse_graph_spec(p["component"]))
            index = {lab: i for i, lab in enumerate(whole.labels)}
            covered = set()
            ok = len(p["witnesses"]) == p["copy_count"]
            for w in p["witnesses"]:
                image = [index.get(w.get(lab, ""), -1) for lab in part.labels]
                if -1 in image or len(set(image)) != len(image):
                    ok = False
                    continue
                ok &= covered.isdisjoint(image)
                covered.update(image)
                ok &= all(whole.has_edge(image[u], image[v]) for u, v in part.edges())
            ok &= len(covered) == whole.num_vertices
            ok &= part.edge_count * p["copy_count"] == whole.edge_count
            if not ok:
                problems.append(f"decompose {p['n']} {p['a']}: witnesses do not verify")
        return problems


WORKLOADS = {
    "verify-table": VerifyTable,
    "oracle-slow": OracleSlow,
    "sdepth-solve": SdepthSolve,
    "formula-sweep": FormulaSweep,
}
