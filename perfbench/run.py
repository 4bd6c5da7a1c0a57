"""Benchmark of ``siegelpw``: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload verify-n1 --seed 1 --seconds 40 --trace 0

Workloads are ``verify-n1``, ``verify-n2`` and ``eval-stream`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard output
carries the end-to-end metrics, measured in fresh processes with no tracing;
with ``--trace 1`` it carries the per-layer metrics of a traced process,
checked against an untraced process of the same seed.  Evidence (per-check
rows, environment, spans) goes to ``perfbench/results/``.

This file uses only the standard library; every import of ``siegelpw`` happens
in the worker processes it starts, one at a time.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("verify-n1", "verify-n2", "eval-stream")
#: Fresh processes that only import and build inputs, besides the measured
#: one; ``setup_s`` is the median over all of them.
SETUP_PROBES = 4
#: Fixed work of a traced run, so per-layer counts compare across versions:
#: one suite run, or ten eval-stream blocks (1,000 steps).
TRACE_UNITS = {"verify-n1": 1, "verify-n2": 1, "eval-stream": 10}
#: Per-child limits keep a whole run under three minutes.
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150
TRACE_TIMEOUT_S = 80
SUITES = ("group", "fock", "bargmann", "paley-wiener", "kernels", "dirichlet", "drury-arveson")


class BenchmarkError(Exception):
    """The benchmark could not measure; no result line is printed."""


def worker(args: argparse.Namespace, mode: str, timeout: float, *extra: str) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), "--mode", mode, *extra]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} process exceeded {timeout} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(f"{mode} process failed with exit code {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def steal_seconds() -> float:
    """CPU time the host took from this machine so far (all CPUs), from
    /proc/stat; a run that lost much of it ran on a busy host."""
    with open("/proc/stat", encoding="utf-8") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def failures(rows: list[dict]) -> int:
    return sum(not row["passed"] for row in rows)


def max_tol_ratio(rows: list[dict]) -> float:
    ratios = [
        row["rel_error"] / row["tolerance"]
        for row in rows
        if row["passed"] and row["tolerance"] > 0 and math.isfinite(row["tolerance"])
    ]
    return max(ratios, default=0.0)


def end_to_end(args: argparse.Namespace) -> tuple[dict, dict]:
    setups = [worker(args, "setup", SETUP_TIMEOUT_S)["setup_s"] for _ in range(SETUP_PROBES)]
    steal = steal_seconds()
    run = worker(args, "run", RUN_TIMEOUT_S, "--seconds", str(args.seconds))
    steal = steal_seconds() - steal
    rows = run["rows"]
    unit_ops_ms = [[1000.0 * s for s in ops] for ops in run["unit_op_seconds"]]
    ops_ms = [ms for ops in unit_ops_ms for ms in ops]
    metrics = {
        "setup_s": (statistics.median(setups + [run["setup_s"]]), "s"),
        "wall_s": (run["wall_s"], "s"),
        "cpu_s": (run["cpu_s"], "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "pass_ratio": ((len(rows) - failures(rows)) / len(rows), "ratio"),
        "op_p50_ms": (statistics.median(ops_ms), "ms"),
        # The p99 of each unit, then their median: the host's steal comes in
        # bursts, and a pooled p99 counts the ops of the worst burst.
        "op_p99_ms": (statistics.median(percentile(ops, 99) for ops in unit_ops_ms), "ms"),
    }
    evidence = {
        "setup_samples_s": setups + [run["setup_s"]],
        "units": run["units"],
        "unit_walls_s": run["unit_walls"],
        "op_samples": len(ops_ms),
        "max_tol_ratio": max_tol_ratio(rows),
        "host_steal_s": steal,
        "env": run["env"],
        "problems": run["problems"],
        "rows": rows,
    }
    return metrics, evidence


def traced(args: argparse.Namespace, spans_path: Path) -> tuple[dict, dict]:
    units = str(TRACE_UNITS[args.workload])
    plain = worker(args, "run", TRACE_TIMEOUT_S, "--units", units)
    run = worker(args, "traced", TRACE_TIMEOUT_S, "--units", units, "--spans", str(spans_path))
    rows = run["rows"]
    problems = list(plain["problems"]) + run["problems"]
    if plain["vector"] != run["vector"]:
        problems.append("traced and untraced processes of one seed gave different results")
    metrics = {name: (value, layer_unit(name)) for name, value in run["layers"].items()}
    check_s = {suite: sum(r["seconds"] for r in rows if r.get("suite") == suite) for suite in SUITES}
    for suite, seconds in check_s.items():
        metrics[f"cli.suite.{suite}.check_s"] = (seconds, "s")
    metrics["cli.check_s"] = (sum(check_s.values()), "s")
    metrics["cli.critical_check_s"] = (max((r["seconds"] for r in rows if "suite" in r), default=0.0), "s")
    metrics["cli.checks_raised"] = (sum(r["raised"] is not None for r in rows if "suite" in r), "count")
    metrics["trace.overhead_s"] = (run["wall_s"] - plain["wall_s"], "s")
    metrics["accuracy.max_tol_ratio"] = (max_tol_ratio(rows), "ratio")
    evidence = {
        "units": run["units"],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": run["wall_s"],
        "spans_file": spans_path.name,
        "env": run["env"],
        "problems": problems,
        "rows": rows,
    }
    return metrics, evidence


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith(".bytes") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("the seed must be non-negative and the run length positive")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, evidence = traced(args, RESULTS / f"{stem}-spans.json")
        else:
            metrics, evidence = end_to_end(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rows = evidence["rows"]
    failed = failures(rows)
    # A failing verify check is the program's own verdict and shows in
    # `failed`; an eval-stream output that misses its closed form is wrong.
    correct = not evidence["problems"] and (args.workload != "eval-stream" or failed == 0)
    result = {
        "correct": correct,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "result": result, **evidence}, handle, indent=1)
    for problem in evidence["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
