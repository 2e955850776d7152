"""Benchmark of circdepth: one workload per run, outputs checked every round.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-table --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory, in this
process, with ``CIRC_THREADS=1``: one client, one worker, a closed loop.
The timed phase repeats the workload's round (its whole seeded input set)
until ``--seconds`` have passed, and checks every output against the
references in ``ref/``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median round time),
``setup_s`` (median over fresh interpreters of start, import and input
generation), ``item_p50_s`` and ``item_p90_s`` (per-item latency) and
``peak_rss_mb``.  Each time is scaled by a calibration loop timed just before
and after it (``calibrate``), so that the machine's drift in speed cancels;
the unscaled medians are in the line before the result.  ``--trace 1`` alternates untraced and traced rounds and
prints the per-layer metrics of ``layers.PER_LAYER_METRICS``, medians over
the traced rounds, plus ``trace.overhead_s``; the spans of the first traced
round are written to ``out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15
# End-to-end times are scaled to a machine on which calibrate() takes this
# long; see calibrate().
CAL_REF_S = 0.1
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import circdepth from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "circdepth", "__init__.py")):
        print(f"error: no circdepth package under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ["CIRC_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import circdepth

    if not os.path.abspath(circdepth.__file__).startswith(SRC + os.sep):
        print(f"error: circdepth imported from {circdepth.__file__}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (times setup_s)")
    return parser.parse_args(argv)


_CAL_RNG = random.Random(7)
_CAL_P = 32003
_CAL_MATRIX = [[_CAL_RNG.randrange(_CAL_P) for _ in range(48)] for _ in range(48)]
_CAL_ADJ = [_CAL_RNG.getrandbits(13) for _ in range(13)]


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop, timed next to each measurement.

    The machine these figures come from ran identical work up to twice as
    fast or slow from one minute to the next (NOTES.md).  Each measured time
    t is reported as t * CAL_REF_S / c, where c is the mean of the
    calibrations just before and just after it, so that a slow spell of the
    machine cancels out while a change to the program does not.  The loop
    mixes the kinds of work the program does: dict, set and tuple churn, row
    reduction mod p, connected components over vertex subsets, and a
    circulant graph's edges found by distance.  It allocates under 0.5 MB, so
    it adds at most that to the run's peak RSS.
    """
    t0 = time.perf_counter()
    counts, odd, recent, acc = {}, set(), [], 0
    for i in range(60000):
        m = (i * 2654435761) & 0xFFFF
        acc ^= m & -m
        counts[m & 0x3FF] = counts.get(m & 0x3FF, 0) + 1
        if m.bit_count() & 1:
            odd.add((m >> 3) & 0x3FF)
        recent.append((m, i))
        if len(recent) > 2000:
            recent = sorted(t for t in recent if t[0] & 3)[:200]
    rows, rank = [r[:] for r in _CAL_MATRIX], 0
    for col in range(len(rows)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], _CAL_P - 2, _CAL_P)
        pivot = [x * inv % _CAL_P for x in rows[rank]]
        rows[rank] = pivot
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(a - f * b) % _CAL_P for a, b in zip(rows[i], pivot)]
        rank += 1
    sizes = [0] * (len(_CAL_ADJ) + 1)
    for mask in range(1 << len(_CAL_ADJ)):
        seen = frontier = mask & -mask
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = _CAL_ADJ[v] & mask & ~seen
            seen |= new
            frontier |= new
        sizes[seen.bit_count()] += 1
    shifts, q, pairs = (7, 300), 600, []
    for i in range(q):
        for j in range(i + 1, q):
            d = j - i
            if d in shifts or q - d in shifts:
                pairs.append((i, j))
    return time.perf_counter() - t0


class Scaled:
    """Times scaled by the calibrations around them: calibrate, measure, calibrate, ..."""

    def __init__(self) -> None:
        self.cal = [calibrate()]
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float) -> float:
        """Record a measurement just taken; return its scale factor."""
        self.cal.append(calibrate())
        factor = CAL_REF_S / ((self.cal[-2] + self.cal[-1]) / 2)
        self.raw.append(seconds)
        self.scaled.append(seconds * factor)
        return factor


def measure_setup(args) -> Scaled:
    """Scaled wall times of fresh interpreters that import and generate inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = Scaled()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        samples.add(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"setup probe exited {proc.returncode}")
    return samples


def environment(args) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "CIRC_THREADS": os.environ["CIRC_THREADS"],
    }


class Tally:
    """Outcome counts and problems over every round of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def add(self, rnd) -> None:
        """Count a round's outcomes, then make its checks that were left untimed."""
        self.attempted += len(rnd.outcomes)
        self.failed += sum(o != "ok" for o in rnd.outcomes)
        self.wrong += sum(o in ("wrong", "error") for o in rnd.outcomes)
        self.problems += rnd.problems
        for check in rnd.post:
            problems = check()
            self.failed += len(problems)
            self.wrong += len(problems)
            self.problems += problems


def run_untraced(workload, args, tally):
    setup = measure_setup(args)
    rounds, latencies = Scaled(), []
    start = time.perf_counter()
    while not rounds.raw or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        rnd = workload.run_round(None, len(rounds.raw))
        factor = rounds.add(time.perf_counter() - t0)
        latencies += [x * factor for x in rnd.latencies]
        tally.add(rnd)
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    metrics = {
        "wall_s": statistics.median(rounds.scaled),
        "setup_s": statistics.median(setup.scaled),
        "item_p50_s": statistics.median(latencies),
        "item_p90_s": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {
        "rounds": len(rounds.raw),
        "items": len(latencies),
        "items_beyond_p90": sum(x > deciles[8] for x in latencies),
        "unscaled_wall_s": statistics.median(rounds.raw),
        "unscaled_setup_s": statistics.median(setup.raw),
        "calibration_s": statistics.median(rounds.cal + setup.cal),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, counts


def run_traced(workload, args, tally):
    from layers import PER_LAYER_METRICS, Tracer

    plain, traced, per_round, absent = [], [], [], []
    spans = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        rnd = workload.run_round(None)
        plain.append(time.perf_counter() - t0)
        tally.add(rnd)

        tracer = Tracer(record_spans=spans is None)
        tracer.install()
        try:
            t0 = time.perf_counter()
            rnd = workload.run_round(tracer)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        tally.add(rnd)
        per_round.append(tracer.metrics())
        absent = tracer.absent
        if spans is None:
            spans = tracer.spans
    # counts repeat exactly from round to round, so median_low keeps them whole
    metrics = {
        name: (statistics.median if layer_unit(name) == "s" else statistics.median_low)(
            [r[name] for r in per_round])
        for name in PER_LAYER_METRICS
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    write_spans(args, spans)
    counts = {"rounds": len(traced), "absent": absent,
              "untraced_wall_s": statistics.median(plain),
              "traced_wall_s": statistics.median(traced)}
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}, counts


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def write_spans(args, spans) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    keys = ("id", "parent", "item", "name", "start", "end")
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    tally = Tally()
    runner = run_traced if args.trace else run_untraced
    metrics, counts = runner(workload, args, tally)
    info = environment(args)
    info.update(counts)
    info["inputs"] = workload.describe()
    info["error_frac"] = tally.failed / tally.attempted
    info["problems"] = tally.problems[:20]
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
