"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the radiosel modules from outside the
package: each call records a span (name, layer, start, end, parent) and the
spans stay in memory until the run ends. Nothing under src/ is modified.
Patching a module attribute also catches calls the module makes to its own
globals (interval_sweep -> generate, solve -> smooth_gradient), and patching
a class attribute catches method calls on every instance.

The solver's inner loop is counted, not spanned: `smooth_gradient` runs once
per proximal-gradient iteration and `smooth_loss` once per loss evaluation,
tens of thousands of times per workload.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np

LAYERS = ("solver", "tao", "tree", "cart", "metrics", "simulator", "dataset",
          "stability", "export", "cli")

# A hook runs after each traced call: hook(counts, name, args, kwargs,
# result, iters_before), where iters_before is solver.iters at call entry.


def _rows(count):
    """Hook adding count(first argument, result) to <span>.rows."""
    def hook(counts, name, args, kwargs, result, iters_before):
        counts[f"{name}.rows"] += count(args[0], result)
    return hook


def _solve_hook(default_max_iter):
    def hook(counts, name, args, kwargs, result, iters_before):
        problem = args[0]
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        max_iter = cfg.max_iter if cfg is not None else default_max_iter
        counts["solver.care_rows"] += problem.X.shape[0]
        counts["solver.cap_hits"] += counts["solver.iters"] - iters_before >= max_iter
    return hook


def _decision_hook(counts, name, args, kwargs, result, iters_before):
    counts["tao.decision_attempts"] += 1
    counts["tao.decision_accepted"] += result is not None


def _passes_hook(counts, name, args, kwargs, result, iters_before):
    counts["tao.passes"] += result.n_passes


_ROWS_OUT = _rows(lambda arg, result: len(result))
_ROWS_OUT_N = _rows(lambda arg, result: result.n)
_ROWS_IN = _rows(lambda arg, result: len(arg))
_ROWS_IN_N = _rows(lambda arg, result: arg.n)

# (layer, owner path inside the package, function, hook or None); "tree" is
# a module, "tree.ObliqueTree" a class inside it. The solve hook is bound at
# install time because it needs the solver's default iteration cap.
TIMED = (
    ("solver", "solver", "solve", "solve"),
    ("tao", "tao", "train", None),
    ("tao", "tao", "optimize_tree", _passes_hook),
    ("tao", "tao", "build_care_set", None),
    ("tao", "tao", "optimize_decision_node", _decision_hook),
    ("tao", "tao", "optimize_leaf", None),
    ("tao", "tao", "objective", None),
    ("tree", "tree.ObliqueTree", "reach_sets", None),
    ("tree", "tree.ObliqueTree", "subtree_predict", None),
    ("tree", "tree.ObliqueTree", "predict_model", _ROWS_OUT),
    ("tree", "tree.ObliqueTree", "predict", None),
    ("tree", "tree", "prune", None),
    ("tree", "tree", "load", None),
    ("cart", "cart", "grow", None),
    ("cart", "cart", "random_complete", None),
    ("metrics", "metrics", "cwa", None),
    ("metrics", "metrics", "kfold_cwa", None),
    ("simulator", "simulator", "generate", _ROWS_OUT),
    ("simulator", "simulator", "replay", _ROWS_IN),
    ("simulator", "simulator", "interval_sweep", None),
    ("dataset", "dataset", "label_traces", _ROWS_OUT_N),
    ("dataset", "dataset", "save_traces", _ROWS_IN),
    ("dataset", "dataset", "load_traces", _ROWS_OUT),
    ("dataset", "dataset", "save_dataset", _ROWS_IN_N),
    ("dataset", "dataset", "load_dataset", _ROWS_OUT_N),
    ("dataset", "dataset", "standardize", None),
    ("dataset", "dataset", "split", None),
    ("stability", "stability", "stability_run", None),
    ("export", "export", "codegen", None),
    ("export", "export.ProgramInterpreter", "predict", None),
    ("cli", "cli", "cmd_train", None),
    ("cli", "cli", "cmd_eval", None),
    ("cli", "cli", "cmd_simulate", None),
    ("cli", "cli", "cmd_sweep", None),
    ("cli", "cli", "cmd_stability", None),
    ("cli", "cli", "cmd_export", None),
)


def span_name(layer: str, owner: str, fn: str) -> str:
    """cli commands drop the cmd_ prefix; methods keep their class name
    unless it is ObliqueTree, the tree layer's own type."""
    if layer == "cli":
        return f"cli.{fn.removeprefix('cmd_')}"
    cls = owner.split(".")[1:]
    if cls and cls[0] != "ObliqueTree":
        return f"{layer}.{cls[0]}.{fn}"
    return f"{layer}.{fn}"


SPAN_NAMES = tuple(span_name(layer, owner, fn) for layer, owner, fn, _ in TIMED)
ROW_SPANS = tuple(span_name(layer, owner, fn) for layer, owner, fn, hook in TIMED
                  if hook in (_ROWS_OUT, _ROWS_OUT_N, _ROWS_IN, _ROWS_IN_N))
COUNTERS = ("solver.iters", "solver.loss_evals", "solver.cap_hits", "solver.care_rows",
            "tao.passes", "tao.decision_attempts", "tao.decision_accepted")


class Tracer:
    """In-memory spans plus counters; records only inside an iteration."""

    def __init__(self, clock):
        self.clock = clock     # seconds net of calibration probes
        self.active = False
        self.spans = []        # [name, layer, start, end, parent index]
        self.iterations = []   # (first span, end span, Counter) per traced iteration
        self._stack = []
        self._counts = Counter()
        self._first = 0        # first span of the current iteration
        self._patches = []     # (owner, attribute, original)

    def _span(self, name, layer, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts = self._counts
            iters_before = counts["solver.iters"]
            idx = len(self.spans)
            rec = [name, layer, self.clock(), 0.0,
                   self._stack[-1] if self._stack else -1]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = self.clock()
                self._stack.pop()
            if hook is not None:
                hook(counts, name, args, kwargs, result, iters_before)
            return result
        return wrapper

    def _counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self._counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, pkg) -> None:
        """Wrap the TIMED functions and the solver loop counters of an
        imported radiosel package."""
        default_max_iter = pkg.solver.SolverConfig().max_iter
        for layer, owner_path, fn_name, hook in TIMED:
            owner = pkg
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            if hook == "solve":
                hook = _solve_hook(default_max_iter)
            original = getattr(owner, fn_name)
            self._patches.append((owner, fn_name, original))
            setattr(owner, fn_name, self._span(span_name(layer, owner_path, fn_name),
                                               layer, original, hook))
        for fn_name, key in (("smooth_gradient", "solver.iters"),
                             ("smooth_loss", "solver.loss_evals")):
            original = getattr(pkg.solver, fn_name)
            self._patches.append((pkg.solver, fn_name, original))
            setattr(pkg.solver, fn_name, self._counter(key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin(self) -> None:
        self._counts = Counter()
        self._first = len(self.spans)
        self.active = True

    def end(self) -> None:
        self.active = False
        self.iterations.append((self._first, len(self.spans), self._counts))

    def iteration_metrics(self, i: int) -> dict:
        """Per-layer numbers of traced iteration i: calls and inclusive time
        per span name, rows, counters, self time per layer, solve latency."""
        first, end, counts = self.iterations[i]
        spans = self.spans[first:end]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.time_s"] = 0.0
        child_time = [0.0] * len(spans)
        for name, layer, start, stop, parent in spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.time_s"] += stop - start
            if parent >= first:
                child_time[parent - first] += stop - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (name, layer, start, stop, parent), child in zip(spans, child_time):
            self_s[layer] += stop - start - child
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        for name in ROW_SPANS:
            out[f"{name}.rows"] = counts[f"{name}.rows"]
        for key in COUNTERS:
            out[key] = counts[key]
        attempts = counts["tao.decision_attempts"]
        out["tao.accept_ratio"] = counts["tao.decision_accepted"] / attempts if attempts else 0.0
        solve_ms = np.array([1e3 * (stop - start) for name, _, start, stop, _ in spans
                             if name == "solver.solve"])
        out["solver.solve.p50_ms"] = float(np.median(solve_ms)) if solve_ms.size else 0.0
        tail = tail_percentile(solve_ms.size)
        out["solver.solve.tail_pct"] = tail
        out["solver.solve.tail_ms"] = \
            float(np.percentile(solve_ms, tail)) if solve_ms.size else 0.0
        return out


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten of n samples
    beyond it (the median when there are fewer than twenty samples)."""
    for tenths in (999, 990, 950, 900, 750):
        if n * (1000 - tenths) >= 10 * 1000:
            return tenths / 10
    return 50.0
