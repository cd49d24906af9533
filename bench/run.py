"""radiosel benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload walkthrough --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ./src (nothing is
installed). The workload is set up several times (fresh import, input
generation, warm-up) and the median set-up time is reported; then timed
iterations repeat until --seconds have passed (at least three; a traced
run alternates untraced and traced ones, at least two of each). Set-ups and
iterations are timed in reference seconds: host seconds rescaled by a probe
of the host's speed run during the timing (see calibration.py), per-layer
times too. Outputs of
every iteration are checked after its timer stops. The last line of stdout
is one JSON object: correct, attempted and failed count the checks, and
metrics holds the end-to-end metrics (--trace 0) or the per-layer metrics
of a traced run (--trace 1). Lines before it give the environment and all
end-to-end figures of the workload, by name and unit. See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from calibration import REF_PROBE_S, Calibrator, pooled_scale
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("dataset", "solver", "tree", "cart", "metrics", "tao", "simulator",
           "stability", "export", "cli")
SETUPS = 5
MIN_ITERATIONS = 3        # untraced iterations of a --trace 0 run
MIN_TRACED = 2            # untraced and traced iterations each of a --trace 1 run

# Gated end-to-end metrics: the ones every workload has (see bench/README.md).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "test_cwa_pct": "%", "replay_ratio": "ratio"}
# Every end-to-end figure the summary prints; n/a where a workload lacks it.
SUMMARY = (("setup_s", "s"), ("wall_s", "s"), ("train_s", "s"), ("eval_s", "s"),
           ("sweep_s", "s"), ("trace_gen_rows_per_s", "rows/s"),
           ("trace_io_rows_per_s", "rows/s"), ("replay_rows_per_s", "rows/s"),
           ("peak_rss_mb", "MB"), ("failed_frac", "ratio"), ("test_cwa_pct", "%"),
           ("kfold_test_cwa_pct", "%"), ("replay_ratio", "ratio"),
           ("train_objective", "bps"))


def import_package():
    """Import radiosel afresh from ./src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "radiosel" or m.startswith("radiosel.")]:
        del sys.modules[name]
    pkg = importlib.import_module("radiosel")
    for name in MODULES:
        importlib.import_module(f"radiosel.{name}")
    if Path(pkg.__file__).resolve().parent != SRC / "radiosel":
        raise ImportError(f"radiosel imported from {pkg.__file__}, not from {SRC}")
    return pkg


def environment(args, rows) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rows": rows}


def unit_of(name: str) -> str:
    if name.endswith((".calls", "_attempts", "_accepted", "_hits", "_evals",
                      ".iters", ".passes", ".spans")):
        return "count"
    if name.endswith((".rows", "_rows")):
        return "rows"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "pct"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "radiosel" / "__init__.py").is_file():
        print(f"bench: no radiosel sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, workload_cls, workdir: Path) -> int:
    calibrator = Calibrator()
    setups = []
    for _ in range(SETUPS):
        with calibrator.section() as sec:
            pkg = import_package()
            workload = workload_cls(pkg, args.seed, workdir, calibrator.clock)
        setups.append(sec)

    tracer = None
    if args.trace:
        tracer = Tracer(calibrator.clock)
        tracer.install(pkg)
    walls = {False: [], True: []}     # reference seconds, keyed by "traced"
    sections, traced_scales = [], []
    records, checks = [], []

    def enough() -> bool:
        if tracer is None:
            return len(walls[False]) >= MIN_ITERATIONS
        return min(len(walls[False]), len(walls[True])) >= MIN_TRACED

    start = time.perf_counter()
    i = 0
    while not enough() or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and i % 2 == 1
        with calibrator.section() as sec:
            if traced:
                tracer.begin()
            state = workload.run(i)
            if traced:
                tracer.end()
        walls[traced].append(sec.seconds * sec.scale)
        sections.append(sec)
        if traced:
            traced_scales.append(sec.scale)
        record = workload.check(state, sec.scale)
        del state                      # free the iteration's inputs before the next one
        checks += record["checks"]
        if records:
            first = records[0]
            checks += [(f"{p} byte-identical across iterations", h == first["hashes"][p])
                       for p, h in record["hashes"].items()]
            checks.append(("quality numbers repeat exactly",
                           record["quality"] == first["quality"]))
        record["traced"] = traced
        records.append(record)
        i += 1
    if tracer is not None:
        tracer.uninstall()
        layer = [{name: value * scale if unit_of(name) in ("s", "ms") else value
                  for name, value in tracer.iteration_metrics(k).items()}
                 for k, scale in enumerate(traced_scales)]
        counts = [{k: v for k, v in m.items() if unit_of(k) in ("count", "rows")}
                  for m in layer]
        checks += [("hardware-independent counters repeat exactly", c == counts[0])
                   for c in counts[1:]]

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    first = records[0]
    figures = {"setup_s": statistics.median(s.seconds for s in setups) * pooled_scale(setups),
               "wall_s": statistics.median(walls[False]),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "failed_frac": len(failed) / len(checks)}
    for key in first["stages"]:
        figures[key] = statistics.median(r["stages"][key] for r in records
                                         if not r["traced"])
    figures.update(first["quality"])

    print(json.dumps({"env": environment(args, workload.rows())}))
    print(f"{args.workload}: {len(walls[False])} timed iterations, "
          f"{len(walls[True])} traced, {len(setups)} set-ups, "
          f"{len(checks)} checks, {len(failed)} failed")
    print("  iteration host s: " + " ".join(f"{s.seconds:.3f}" for s in sections))
    print("  iteration wall_s: " + " ".join(f"{w:.3f}" for w in walls[False])
          + "".join(f" traced {w:.3f}" for w in walls[True]))
    print(f"  host speed: probe {1000 * REF_PROBE_S / pooled_scale(sections):.2f} ms "
          f"over {sum(s.probes for s in sections)} probes "
          f"(reference {1000 * REF_PROBE_S:g} ms)")
    for name, unit in SUMMARY:
        value = f"{figures[name]:.6g}" if name in figures else "n/a"
        print(f"  {name:<22} {value:>14} {unit}")

    if tracer is None:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        # counts are checked identical across traced iterations; times take the median
        metrics = {name: {"value": value if unit_of(name) in ("count", "rows")
                          else statistics.median(m[name] for m in layer),
                          "unit": unit_of(name)} for name, value in layer[0].items()}
        traced_wall = statistics.median(walls[True])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - figures["wall_s"], "unit": "s"}
        first_span, end_span, _ = tracer.iterations[0]
        metrics["trace.spans"] = {"value": end_span - first_span, "unit": "count"}
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
