"""Regenerate the reference outputs under ref/ from the current program.

Run from the repository root, only when a change to the program's outputs is
intended and has been checked by other means:

    python3 benchmarks/make_refs.py

Every reference is cross-checked here against the closed forms before it is
written, so a wrong oracle or solver value is not stored as the truth.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ["CIRC_THREADS"] = "1"

import workloads as w  # noqa: E402
from circdepth.formulas import formula_for_spec  # noqa: E402
from circdepth.graphs import build_graph, find_isomorphism, parse_graph_spec  # noqa: E402
from circdepth.ideals import edge_ideal  # noqa: E402
from circdepth.sdepth import sdepth_exact  # noqa: E402


def dump(name: str, obj) -> None:
    with open(os.path.join(w.REF_DIR, name), "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def cli_json(argv: list[str]) -> dict:
    rc, out = w.call_cli(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return json.loads(out)


def verify_table() -> None:
    rc, out = w.call_cli(w.VERIFY_ARGV)
    if rc != 0:
        raise SystemExit(f"verify-paper exited {rc}")
    rows = list(csv.reader(io.StringIO(out)))
    sec = rows[0].index("seconds")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows[1:]:
        if row[rows[0].index("verdict")] not in ("match", "bounds-consistent"):
            raise SystemExit(f"verify-paper row {row} is not a match")
        writer.writerow(row[:sec] + [""] + row[sec + 1:])
    with open(os.path.join(w.REF_DIR, "verify_table.csv"), "w", newline="") as fh:
        fh.write(buf.getvalue())


def oracle() -> None:
    graphs = [build_graph(parse_graph_spec(s)) for s in w.ORACLE_POOL]
    for i, g in enumerate(graphs):
        for h in graphs[i + 1:]:
            if find_isomorphism(g, h) is not None:
                raise SystemExit("oracle pool has isomorphic members")
    ref = {}
    for spec, field in w.oracle_requests():
        formula = formula_for_spec(parse_graph_spec(spec))
        payload = cli_json(["invariants", "--graph", spec, "--method", "oracle",
                            "--slow", "--format", "json", "--field", field])
        inv = payload["invariants"]
        if not (formula.depth.contains(inv["depth"]) and formula.pdim.contains(inv["pdim"])):
            raise SystemExit(f"{spec}: oracle {inv} outside the closed form")
        ref[f"{spec}@{field}"] = w.without(payload, "seconds")
    dump("oracle.json", ref)


def sdepth() -> None:
    ref = {}
    for text in w.SDEPTH_POOL:
        spec = parse_graph_spec(text)
        bounds = formula_for_spec(spec).sdepth
        result = sdepth_exact(edge_ideal(build_graph(spec)), floor=bounds.lo)
        if not (result.is_exact and bounds.contains(result.value)):
            raise SystemExit(f"{text}: solver {result} outside {bounds}")
        ref[text] = result.value
    dump("sdepth.json", ref)


def formula() -> None:
    ref = {}
    for spec in w.formula_candidates():
        ref[spec] = w.without(cli_json(w.FormulaSweep._inv(spec)), "seconds")
    for n, a in w.decompose_candidates():
        payload = cli_json(["decompose", str(n), str(a), "--format", "json"])
        ref[f"{n}:{a}"] = w.without(payload, "witnesses")
    dump("formula.json", ref)


if __name__ == "__main__":
    os.makedirs(w.REF_DIR, exist_ok=True)
    verify_table()
    oracle()
    sdepth()
    formula()
