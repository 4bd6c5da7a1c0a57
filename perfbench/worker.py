"""One fresh benchmark process: import ``siegelpw``, build a workload, run it.

Usage (started by ``run.py``, one process per measurement)::

    python3 perfbench/worker.py --workload W --seed S --mode setup
    python3 perfbench/worker.py --workload W --seed S --mode run --seconds T
    python3 perfbench/worker.py --workload W --seed S --mode run --units K
    python3 perfbench/worker.py --workload W --seed S --mode traced --units K --spans FILE

Prints one JSON object as its last line of standard output.  The package is
imported from the ``src`` directory next to this benchmark and from nowhere
else; without it the process exits with an error.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: OpenBLAS threads per workload, set before numpy loads; workloads not named
#: keep the default.  eval-stream makes small calls from one thread, and the
#: idle second BLAS thread only spins: one other busy process on a two-CPU
#: machine then doubles its tail latency.  With one BLAS thread it does not.
BLAS_THREADS = {"eval-stream": "1"}


def _import_package():
    sys.path.insert(0, str(SOURCE))
    import siegelpw

    origin = Path(siegelpw.__file__).resolve()
    if SOURCE.resolve() not in origin.parents:
        raise SystemExit(f"siegelpw was imported from {origin}, not from {SOURCE}")
    return siegelpw


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                    return {"config": config().decode().strip(), "threads": threads(), "library": Path(path).name}
    return {"config": None, "threads": None, "library": None}


def _caches() -> list[dict]:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = []
    for index in sorted(base.glob("index*")):
        read = lambda name: (index / name).read_text().strip()  # noqa: E731
        out.append({"level": int(read("level")), "type": read("type"), "size": read("size"), "shared_cpu_list": read("shared_cpu_list")})
    return out


def environment(package) -> dict:
    import numpy
    import scipy

    with open("/proc/meminfo", encoding="utf-8") as meminfo:
        mem_kb = next(int(line.split()[1]) for line in meminfo if line.startswith("MemTotal:"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "siegelpw": package.__version__,
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": round(mem_kb / 1024),
        "caches": _caches(),
        "machine": platform.machine(),
    }


def _vector(rows: list[dict]) -> list[list]:
    """What the determinism gate compares: id, verdict, exact error, digest."""
    return [[row["id"], row["passed"], repr(row["rel_error"]), row.get("digest")] for row in rows]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=None, help="run whole units until this budget is used")
    parser.add_argument("--units", type=int, default=None, help="run exactly this many units")
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    args = parser.parse_args()
    if args.mode != "setup" and (args.seconds is None) == (args.units is None):
        parser.error("give exactly one of --seconds and --units")

    if args.workload in BLAS_THREADS:
        os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS[args.workload]
    package = _import_package()
    import workloads

    nproc = len(os.sched_getaffinity(0))
    workload = workloads.make(args.workload, args.seed, nproc)
    workload.warm_up()
    setup_s = time.perf_counter() - _STARTED
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
    pause = tracer.paused if tracer else contextlib.nullcontext
    origin = time.perf_counter()
    units = []
    try:
        while True:
            unit_started = time.perf_counter()
            cpu_started = time.process_time()
            result = workload.unit(len(units), pause)
            result["cpu"] = time.process_time() - cpu_started
            units.append(result)
            if args.units is not None:
                if len(units) >= args.units:
                    break
            elif time.perf_counter() - origin + (time.perf_counter() - unit_started) > args.seconds:
                break
    finally:
        unrestored = tracer.restore() if tracer else []

    rows = [row for unit in units for row in unit["rows"]]
    doc = {
        "setup_s": setup_s,
        "units": len(units),
        # Means, not medians: the host switches between a fast and a slow
        # speed every few seconds, and when a run spends about half its time
        # in each, the median unit jumps between the two while the mean moves
        # with the share of slow time.
        "wall_s": statistics.fmean(unit["wall"] for unit in units),
        "cpu_s": statistics.fmean(unit["cpu"] for unit in units),
        "unit_walls": [unit["wall"] for unit in units],
        "unit_op_seconds": [unit["op_seconds"] for unit in units],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
        "problems": [p for unit in units for p in unit["problems"]],
        "vector": _vector(rows),
        "env": environment(package),
    }
    # Repeat the first unit in this process: its results must not change.
    if args.mode == "run" and len(units) >= 2:
        repeat = units[1]["rows"] if args.workload.startswith("verify") else workload.unit(0)["rows"]
        if _vector(repeat) != _vector(units[0]["rows"]):
            doc["problems"].append("a repeated unit gave different results")
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics()
        doc["problems"] += [f"attribute not restored after tracing: {name}" for name in unrestored]
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump(tracer.span_table(origin), handle, separators=(",", ":"))
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
