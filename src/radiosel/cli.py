"""Operator surface: train, eval, simulate, sweep, stability, export.

Every subcommand runs inside one scaffold, `_Run`: it creates --out-dir,
hashes each input as the command names it and each output as the command
writes it, and on success writes a run manifest (config, input/output
hashes, seed, wall time, numpy's version and SIMD dispatch targets, its
BLAS build and the BLAS core picked at run time, plus any section the
command adds) into --out-dir. Identical arguments and seed reproduce
byte-identical primary outputs under the same numpy version, dispatch
targets and BLAS core: numpy picks its float64 exp and log1p kernels by the
CPU's SIMD level, OpenBLAS picks its kernel family by the CPU when it
loads, and both round apart from one choice to another. The commands only
orchestrate: main turns their errors into exit codes.

Exit codes: 0 ok, 2 usage, 3 data or file error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from . import __version__, dataset, export, metrics, simulator, stability, tao, tree
from .errors import DataError, NumericError

# default train grid: 0 and these multiples of tao.lambda_unit(train split)
LAMBDA_GRID_FRACTIONS = (1e-6, 1e-5, 1e-4, 1e-3)
DEFAULT_INTERVALS = (5.0, 3.0, 2.0, 1.5, 1.4, 1.3)
_HASH_READ_BYTES = 1 << 20


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_READ_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def blas_core() -> str | None:
    """The kernel family (`SkylakeX`, `Haswell`, ...) that numpy's bundled
    OpenBLAS picked when it loaded, or None if its BLAS has no such query."""
    try:
        query = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    query.argtypes, query.restype = [], ctypes.c_char_p
    core = query()
    return core.decode() if core else None


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


class _Run:
    """One subcommand run: its output directory and its manifest."""

    def __init__(self, args: argparse.Namespace):
        self.out = Path(args.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        # tree bytes follow the kernels of the BLAS numpy links (see the README)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
        self.doc = {
            "tool": "radiosel",
            "version": __version__,
            "subcommand": args.subcommand,
            "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
            "seed": getattr(args, "seed", None),
            "numpy": {"version": np.__version__,
                      "simd_dispatch": [t for t in __cpu_dispatch__ if __cpu_features__[t]],
                      "blas": {**build, "core": blas_core()}},
            "inputs": {},
            "outputs": {},
        }
        self.start = time.monotonic()

    def input(self, path):
        """Check and hash an input file; returns the path for loading."""
        p = Path(path)
        if not p.exists():
            raise DataError(f"no such file: {p}")
        self.doc["inputs"][str(p)] = _sha256(p)
        return path

    def output(self, name: str, writer) -> Path:
        """writer(path) writes out-dir/name, which is then hashed."""
        path = self.out / name
        writer(path)
        self.doc["outputs"][str(path)] = _sha256(path)
        return path

    def text(self, name: str, text: str) -> Path:
        return self.output(name, lambda path: _atomic_write(path, text))

    def csv(self, name: str, header, rows) -> Path:
        """Write header and rows as CSV: a float cell (numpy's float64
        included) as '%.17g' % v, an exact round trip, any other as str(v),
        each quoted by csv_cell. A cell rounded on purpose comes as a str."""
        lines = [",".join(dataset.csv_cell("%.17g" % v if isinstance(v, float) else str(v))
                          for v in row)
                 for row in [header, *rows]]
        return self.text(name, "\n".join(lines) + "\n")

    def close(self) -> None:
        self.doc["wall_time_s"] = time.monotonic() - self.start
        _atomic_write(self.out / "manifest.json",
                      json.dumps(self.doc, indent=2, sort_keys=True, default=str) + "\n")


def _parse_float_list(text: str, flag: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise DataError(f"{flag} expects a comma-separated list of numbers, got {text!r}")
    if not values:
        raise DataError(f"{flag} expects at least one number, got {text!r}")
    for v in values:
        _finite(v, f"{flag} entries")
    return values


def _finite(value: float, flag: str) -> None:
    if not math.isfinite(value):
        raise DataError(f"{flag} must be finite, got {value!r}")


def _scenario(args, run: _Run) -> simulator.ScenarioConfig:
    """The --scenario file (loaded before hashing, so that a missing file
    is reported as a scenario file), or the built-in scenario."""
    if not args.scenario:
        return simulator.ScenarioConfig()
    cfg = simulator.ScenarioConfig.load(args.scenario)
    run.input(args.scenario)
    return cfg


def _selectors(args, run: _Run) -> list:
    """The four built-in selectors, then the --model tree if one is given."""
    _finite(args.threshold_hn, "--threshold-hn")
    sel = [simulator.AlwaysSelector(0), simulator.AlwaysSelector(1),
           simulator.OracleSelector(), simulator.ThresholdSelector(args.threshold_hn)]
    if args.model:
        sel.append(simulator.TreeSelector(tree.load(run.input(args.model))))
    return sel


# ---------- train ----------

def _stats(result) -> dict:
    """The solver counters a manifest row carries for one TaoResult."""
    return {k: result.solver_stats[k] for k in ("solves", "iters", "cap_hits")}


def cmd_train(args, run: _Run) -> None:
    if args.data:
        ds = dataset.load_dataset(run.input(args.data))
    else:
        ds = dataset.label_traces(dataset.load_traces(run.input(args.traces)))
    if not args.raw_features:
        ds = dataset.standardize(ds)
    train_ds, val_ds, test_ds = dataset.split(ds, (0.6, 0.2, 0.2), seed=args.seed)

    unit = None   # lambda unit of the default grid; None when lambda is given
    if args.lam is not None:
        lambdas = [args.lam]
    elif args.sweep_lambdas is not None:
        lambdas = _parse_float_list(args.sweep_lambdas, "--sweep-lambdas")
    else:
        unit = tao.lambda_unit(train_ds)
        lambdas = [0.0]
        if 0 < unit < math.inf:
            lambdas += [unit * f for f in LAMBDA_GRID_FRACTIONS]
        elif not math.isfinite(unit):
            unit = None   # JSON has no inf or nan

    # every config is checked before the first fit
    cfgs = [tao.TaoConfig(depth=args.depth, lam=lam, seed=args.seed,
                          init_policy=args.init, max_passes=args.passes)
            for lam in lambdas]
    fits = [(metrics.cwa(result.tree, val_ds), cfg, result)
            for cfg, result in zip(cfgs, tao.train_grid([(train_ds, cfg) for cfg in cfgs],
                                                         val=val_ds))]
    # a tie prefers the sparser model (larger lambda); max keeps the first exact tie
    _, cfg, result = max(fits, key=lambda fit: (fit[0], fit[1].lam))

    final = tree.ObliqueTree(result.tree.nodes, result.tree.root,
                             scaler=ds.scaler, lam=cfg.lam)
    model_path = run.output("model.json", lambda path: tree.save(final, path))
    run.doc["training"] = {**result.to_manifest(cfg), "lambda_unit": unit}
    run.doc["lambda_sweep"] = [{"lambda": c.lam, "val_cwa": val_cwa, "init_used": r.init_used,
                                "n_leaves": r.tree.n_leaves(), **_stats(r)}
                               for val_cwa, c, r in fits]

    for i, value in enumerate(result.history):
        stage = "init" if i == 0 else f"pass {i}"
        print(f"objective[{stage}] = {value:.6f}")
    print(f"lambda = {cfg.lam:g} (init {result.init_used}, stop {result.stop_reason})")
    for name, part in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
        print(f"{name} CWA = {metrics.cwa(result.tree, part):.4f}%")
    print(f"model -> {model_path}")


# ---------- eval ----------

def cmd_eval(args, run: _Run) -> None:
    if args.kfold is not None and args.kfold < 2:
        raise DataError(f"--kfold {args.kfold}: k must be >= 2")
    _finite(args.cost_threshold, "--cost-threshold")
    model_path, data_path = run.input(args.model), run.input(args.data)
    model = tree.load(model_path)
    ds = dataset.load_dataset(data_path)
    location = args.location or Path(args.data).stem
    model_name = Path(args.model).stem

    value = metrics.cwa(model, ds)
    rows = [[model_name, location, "all", f"{value:.6f}", "0", model.depth, model.n_leaves()]]
    breakdown = metrics.error_breakdown(model, ds, threshold=args.cost_threshold)
    print(f"CWA = {value:.4f}%")
    print(f"errors: {breakdown.n_high} high-cost (>{breakdown.threshold:g} bps, "
          f"{breakdown.loss_high:.0f} bps lost), {breakdown.n_low} low-cost "
          f"({breakdown.loss_low:.0f} bps lost)")

    if args.kfold is not None:
        results = []   # one TaoResult per fold

        def trainer(train_sets):   # all folds in one lockstep run
            cfg = tao.TaoConfig(depth=max(1, model.depth),
                                lam=model.lam if model.lam is not None else 0.0,
                                seed=args.seed, init_policy="cart")
            results.extend(tao.train_grid([(part, cfg) for part in train_sets],
                                          labels=[f"fold {i}" for i in range(len(train_sets))]))
            return [res.tree for res in results]

        fold_ds = dataset.standardize(ds) if model.scaler is not None else ds
        train_cwa, test_cwa = metrics.kfold_cwa(fold_ds, trainer, k=args.kfold, seed=args.seed)
        run.doc["kfold"] = [{**_stats(res), "n_passes": res.n_passes,
                             "stop_reason": res.stop_reason} for res in results]
        trees = [res.tree for res in results]
        rows += [[model_name, location, f"fold{i}-test", f"{v:.6f}", "0", t.depth, t.n_leaves()]
                 for i, (v, t) in enumerate(zip(test_cwa, trees))]
        sizes = [f"{np.mean([t.depth for t in trees]):.6g}",
                 f"{np.mean([t.n_leaves() for t in trees]):.6g}"]
        for split, values in (("train", train_cwa), ("test", test_cwa)):
            mean, std = np.mean(values), np.std(values, ddof=1)   # k >= 2: a sample std
            rows.append([model_name, location, split, f"{mean:.6f}", f"{std:.6f}", *sizes])
        print(f"{args.kfold}-fold test CWA = {mean:.4f} +- {std:.4f}%")   # the loop's last split

    run.csv("metrics.csv", ("model", "location", "split", "cwa_mean", "cwa_std",
                            "depth_mean", "leaves_mean"), rows)
    run.csv("breakdown.csv",
            ("threshold_bps", "n_high", "n_low", "loss_high_bps", "loss_low_bps"),
            [[f"{breakdown.threshold:g}", breakdown.n_high, breakdown.n_low,
              breakdown.loss_high, breakdown.loss_low]])


# ---------- simulate ----------

def cmd_simulate(args, run: _Run) -> None:
    if args.traces:
        traces = dataset.load_traces(run.input(args.traces))
    else:
        traces = simulator.generate(_scenario(args, run), seed=args.seed)
    selectors = _selectors(args, run)   # a bad --model leaves no outputs
    results = [simulator.replay(traces, selector) for selector in selectors]   # nor a bad trace
    ds = dataset.label_traces(traces)
    run.output("trace.csv", lambda path: dataset.save_traces(traces, path))
    run.output("dataset.csv", lambda path: dataset.save_dataset(ds, path))

    for result in results:
        print(f"{result.selector}: mean {result.mean_throughput_bps:.1f} bps, "
              f"ratio {result.performance_ratio:.4f}")
    run.csv("cdf.csv", ("selector", "percentile", "throughput_bps"),
            [[result.selector, pct, tp] for result in results for pct, tp in result.cdf])
    header = ("selector", "mean_throughput_bps", "performance_ratio", "oracle_gap_bps",
              "gain_vs_best_single_pct", "gain_vs_worst_single_pct")   # ReplayResult fields
    run.csv("replay.csv", header, [[getattr(result, k) for k in header] for result in results])


# ---------- sweep ----------

def cmd_sweep(args, run: _Run) -> None:
    cfg = _scenario(args, run)
    intervals = _parse_float_list(args.intervals, "--intervals")
    rows = [[f"{row.interval_s:g}", row.selector, row.performance_ratio, row.mean_latency_ms]
            for row in simulator.interval_sweep(cfg, intervals, *_selectors(args, run),
                                                seed=args.seed)]
    sweep_path = run.csv("sweep.csv", ("interval_s", "selector", "performance_ratio",
                                       "mean_latency_ms"), rows)
    print(f"sweep -> {sweep_path} ({len(rows)} rows)")


# ---------- stability ----------

def cmd_stability(args, run: _Run) -> None:
    ds = dataset.load_dataset(run.input(args.data))
    if not args.raw_features:
        ds = dataset.standardize(ds)
    train_ds, test_ds = dataset.split(ds, (0.8, 0.2), seed=args.seed)
    fractions = _parse_float_list(args.fractions, "--fractions")
    cfg = tao.TaoConfig(depth=args.depth, lam=args.lam if args.lam is not None else 0.0,
                        seed=args.seed, init_policy=args.init, max_passes=args.passes)
    rep = stability.stability_run(train_ds, test_ds, cfg,
                                  fractions=fractions, seed=args.seed)

    names = dataset.feature_names(ds.dim)
    planes = [(nid, stage.fraction, [*stage.tree.nodes[nid].w, stage.tree.nodes[nid].w0])
              for stage in rep.stages for nid in stage.tree.decision_ids()]
    run.csv("stability.csv", ("node_id", "fraction") + tuple(f"w_{n}" for n in names)
            + ("constant",), [[nid, f"{fraction:g}", *plane] for nid, fraction, plane in planes])

    table = ["node  fraction  " + "  ".join(f"{n:>12}" for n in names) + "  constant"]
    for nid, fraction, plane in sorted(planes, key=lambda p: p[:2]):
        table.append(f"{nid:>4}  {fraction:>8g}  " + "  ".join(f"{v:>12.6f}" for v in plane))
    run.text("stability_table.txt", "\n".join(table) + "\n")

    for stage in rep.stages:
        print(f"fraction {stage.fraction:g}: test error {stage.test_error_pct:.2f}%, "
              f"signature {stage.signature}")
    print(f"skeleton stable across all fractions: {rep.all_signatures_equal}")
    print(f"test error monotone nonincreasing: {rep.test_error_monotone_nonincreasing}")
    run.doc["stability"] = {
        "fractions": [s.fraction for s in rep.stages],
        "signatures": [s.signature for s in rep.stages],
        "test_error_pct": [s.test_error_pct for s in rep.stages],
        "all_signatures_equal": rep.all_signatures_equal,
    }


# ---------- export ----------

def cmd_export(args, run: _Run) -> None:
    model = tree.prune(tree.load(run.input(args.model)))
    program = export.codegen(model)

    # verify against the model through the reference interpreter before shipping
    names = export.feature_names_for(model)
    interp = export.ProgramInterpreter(program.text, names)
    rng = np.random.default_rng(args.seed)
    X = rng.uniform(-5.0, 5.0, size=(2000, len(names)))
    if model.scaler is not None:
        X = model.scaler.inverse(X)
    if [interp.predict(x) for x in X] != model.predict_many(X).tolist():
        raise NumericError("emitted program disagrees with the model")
    program_path = run.text("program.txt", program.text)

    run.csv("report.csv", ("node_id", "depth") + tuple(f"w_{n}" for n in names)
            + ("constant", "l0", "dominant"),
            [[row.node_id, row.depth, *row.weights, row.bias, row.l0, "|".join(row.dominant)]
             for row in export.report(model)])
    print(f"program -> {program_path} (model sha256 {program.model_hash[:12]}..., "
          f"verified on {len(X)} random inputs)")


# ---------- parser ----------

def _seed(text: str) -> int:
    """--seed: an integer >= 0, as numpy's generators take it."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radiosel", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed", type=_seed, default=0, help="random seed, an integer >= 0")

    def training(p, init):   # train's and stability's tree options, TaoConfig's defaults
        p.add_argument("--depth", type=int, default=tao.TaoConfig.depth)
        p.add_argument("--init", choices=tao.INIT_POLICIES, default=init)
        p.add_argument("--passes", type=int, default=tao.TaoConfig.max_passes)
        p.add_argument("--raw-features", action="store_true",
                       help="skip feature standardization")

    def replaying(p):   # simulate's and sweep's scenario and selector options
        p.add_argument("--scenario", default=None, help="scenario JSON (default built-in)")
        p.add_argument("--model", default=None, help="tree model to replay")
        p.add_argument("--threshold-hn", type=float, default=3.0,
                       help="hop count from which the threshold baseline picks LoRa")

    p = sub.add_parser("train", help="train a cost-sensitive oblique tree")
    common(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="labeled dataset CSV")
    src.add_argument("--traces", help="raw dual-radio trace CSV (labeled on the fly)")
    training(p, init=tao.TaoConfig.init_policy)
    lam = p.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="fix the L1 strength and skip the sweep")
    lam.add_argument("--sweep-lambdas", default=None,
                     help="comma-separated lambda grid (default: 0 and 1e-6, 1e-5, "
                          "1e-4, 1e-3 times the training split's lambda_max)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a dataset")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--kfold", type=int, default=None)
    p.add_argument("--location", default=None, help="label for the metrics rows")
    p.add_argument("--cost-threshold", type=float, default=metrics.HIGH_COST_THRESHOLD_BPS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="generate a trace and replay selectors")
    common(p)
    replaying(p)
    p.add_argument("--traces", default=None,
                   help="replay this existing trace CSV instead of generating")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="performance ratio vs packet interval")
    common(p)
    replaying(p)
    p.add_argument("--intervals", default=",".join(str(v) for v in DEFAULT_INTERVALS))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stability", help="warm-start chain over data fractions")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--fractions", default="0.5,0.75,1.0")
    training(p, init="cart")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("export", help="emit the IF/ELSE program and weight report")
    common(p)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = _Run(args)
        args.func(args, run)
        run.close()
        return 0
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:   # str(e) names the file
        print(f"file error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
