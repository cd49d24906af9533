"""The benchmark harness still drives the package: one traced walkthrough.

bench/tracing.py wraps the package's public functions by name (the six
cli.cmd_* commands, simulator.interval_sweep, solver.solve, ...) and
bench/workloads.py calls them with fixed signatures. A rename or signature
change there would otherwise first show up as a failed benchmark run.
"""

import importlib
import importlib.util
import time
from pathlib import Path

import radiosel

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("dataset", "solver", "tree", "cart", "metrics", "tao", "simulator",
           "stability", "export", "cli")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(pkg, path):
    owner = pkg
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_traced_walkthrough_passes_its_checks(tmp_path):
    tracing, workloads = _load("tracing"), _load("workloads")
    for name in MODULES:
        importlib.import_module(f"radiosel.{name}")
    pkg = radiosel
    hooked = [(owner, fn) for _, owner, fn, _ in tracing.TIMED] \
        + [("solver", "smooth_gradient"), ("solver", "smooth_loss")]
    originals = [getattr(_owner(pkg, owner), fn) for owner, fn in hooked]

    tracer = tracing.Tracer(time.perf_counter)
    tracer.install(pkg)
    try:
        walk = workloads.Walkthrough(pkg, 1, tmp_path, time.perf_counter)
        tracer.begin()
        state = walk.run(0)
        tracer.end()
        out = walk.check(state, 1.0)
        metrics = tracer.iteration_metrics(0)
    finally:
        tracer.uninstall()

    assert [name for name, ok in out["checks"] if not ok] == []
    for command in ("train", "eval", "simulate", "sweep", "stability", "export"):
        assert metrics[f"cli.{command}.calls"] > 0, command
    assert metrics["tao.passes"] > 0
    assert metrics["tao.decision_attempts"] >= metrics["tao.decision_accepted"] > 0
    assert [getattr(_owner(pkg, owner), fn) for owner, fn in hooked] == originals
