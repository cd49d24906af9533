"""The three benchmark workloads.

Each workload is built once per set-up from the imported package, a seed, a
scratch directory and a clock (seconds net of calibration probes, see
calibration.py). `run(i)` is the timed iteration; `check(state, scale)` reads
the iteration's outputs afterwards, untimed, and returns its stage timings
(host seconds times `scale`, which gives reference seconds), quality
numbers, artefact hashes and pass/fail checks.

TAO's cost is chaotic in the data draw: over seeds 1-5 the README train step
took 2.9-8.2 s (196-699 solves) and the 10x fit 2.4-5.2 s. A seed-chosen
training draw would put the cross-seed spread of wall_s near 40%, beyond any
usable regression bound, so every *training* input is pinned to the README's
own seed (TRAIN_SEED). The run's seed drives every input whose cost does not
depend on the draw: the sweep traces and export verification points of the
walkthrough, the deployment trace the large fit is replayed on, and all of
trace_replay.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

TRAIN_SEED = 1                 # README: `simulate --seed 1`, `train --seed 1`
SWEEP_INTERVALS = (5.0, 3.0, 2.0, 1.5, 1.4, 1.3)   # README step 5
VERIFY_ROWS = 500              # rows re-checked against the emitted program


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def _program_agrees(pkg, model, X_raw) -> bool:
    """Emitted IF/ELSE program and the pruned model agree on raw rows."""
    pruned = pkg.tree.prune(model)
    interp = pkg.export.ProgramInterpreter(pkg.export.codegen(pruned).text)
    return all(interp.predict(x) == pruned.predict(x) for x in X_raw[:VERIFY_ROWS])


def _selectors(pkg, model):
    sim = pkg.simulator
    return [sim.AlwaysSelector(0), sim.AlwaysSelector(1), sim.OracleSelector(),
            sim.ThresholdSelector(3.0), sim.TreeSelector(model)]


class Walkthrough:
    """The README's seven CLI steps in order, in-process through cli.main."""

    name = "walkthrough"
    stages = ("simulate", "train", "eval", "replay", "sweep", "stability", "export")

    def __init__(self, pkg, seed: int, workdir: Path, clock):
        self.pkg, self.seed, self.workdir, self.clock = pkg, seed, workdir, clock
        warm = workdir / "warm"
        self._cli(["simulate", "--seed", str(seed), "--out-dir", str(warm)])
        self._cli(["train", "--data", str(warm / "dataset.csv"), "--depth", "1",
                   "--lambda", "0.01", "--init", "cart", "--out-dir", str(warm)])
        shutil.rmtree(warm)

    def rows(self) -> dict:
        scenario = self.pkg.simulator.ScenarioConfig()
        return {"trace_rows": scenario.n_nodes * scenario.n_packets}

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.pkg.cli.main(argv)

    def run(self, i: int):
        d = self.workdir / f"it{i}"
        sim, fit = d / "sim", d / "fit"
        data, model = str(sim / "dataset.csv"), str(fit / "model.json")
        seed = str(self.seed)
        argvs = {
            "simulate": ["simulate", "--seed", str(TRAIN_SEED), "--out-dir", str(sim)],
            "train": ["train", "--data", data, "--depth", "4", "--seed", str(TRAIN_SEED),
                      "--out-dir", str(fit)],
            "eval": ["eval", "--model", model, "--data", data, "--kfold", "5",
                     "--out-dir", str(d / "ev")],
            "replay": ["simulate", "--traces", str(sim / "trace.csv"), "--model", model,
                       "--out-dir", str(d / "replay")],
            "sweep": ["sweep", "--model", model,
                      "--intervals", ",".join(f"{v:g}" for v in SWEEP_INTERVALS),
                      "--seed", seed, "--out-dir", str(d / "sw")],
            "stability": ["stability", "--data", data, "--depth", "3", "--lambda", "0.01",
                          "--out-dir", str(d / "st")],
            "export": ["export", "--model", model, "--seed", seed, "--out-dir", str(d / "ex")],
        }
        times, codes = {}, {}
        for stage in self.stages:
            t0 = self.clock()
            codes[stage] = self._cli(argvs[stage])
            times[stage] = self.clock() - t0
        return d, times, codes

    def check(self, state, scale: float) -> dict:
        d, times, codes = state
        pkg = self.pkg
        checks = [(f"cli {s} exit 0", codes[s] == 0) for s in self.stages]
        manifest = json.loads((d / "fit" / "manifest.json").read_text())
        history = manifest["training"]["objective_history"]
        checks.append(("train objective history nonincreasing", _nonincreasing(history)))
        with open(d / "replay" / "replay.csv", newline="") as fh:
            ratio = {r["selector"]: float(r["performance_ratio"]) for r in csv.DictReader(fh)}
        checks.append(("0 < replay_ratio <= 1", 0.0 < ratio["tree"] <= 1.0))
        with open(d / "ev" / "metrics.csv", newline="") as fh:
            kfold = [float(r["cwa_mean"]) for r in csv.DictReader(fh) if r["split"] == "test"]

        model = pkg.tree.load(d / "fit" / "model.json")
        raw = pkg.dataset.load_dataset(d / "sim" / "dataset.csv")
        test = pkg.dataset.split(raw, (0.6, 0.2, 0.2), seed=TRAIN_SEED)[2]
        checks.append(("export program matches model",
                       (d / "ex" / "program.txt").is_file()
                       and _program_agrees(pkg, model, raw.X)))
        out = {
            "stages": {"train_s": times["train"] * scale, "eval_s": times["eval"] * scale,
                       "sweep_s": times["sweep"] * scale},
            "quality": {"test_cwa_pct": pkg.metrics.cwa(model, test),
                        "kfold_test_cwa_pct": kfold[0],
                        "replay_ratio": ratio["tree"],
                        "train_objective": history[-1]},
            "hashes": {p: _sha256(d / p) for p in
                       ("fit/model.json", "sim/trace.csv", "sim/dataset.csv")},
            "checks": checks,
        }
        shutil.rmtree(d)
        return out


class FitLarge:
    """tao.train on a 10x scenario (about 10.8k train rows), depth 4,
    lambda 0.01, best_of_both; no lambda grid."""

    name = "fit_large"
    n_packets = 1200
    lam = 0.01

    def __init__(self, pkg, seed: int, workdir: Path, clock):
        self.pkg, self.seed, self.workdir, self.clock = pkg, seed, workdir, clock
        sim, ds_mod = pkg.simulator, pkg.dataset
        scenario = replace(sim.ScenarioConfig(), n_packets=self.n_packets)
        ds = ds_mod.standardize(ds_mod.label_traces(sim.generate(scenario, seed=TRAIN_SEED)))
        self.scaler = ds.scaler
        self.train_ds, self.val_ds, self.test_ds = ds_mod.split(ds, (0.6, 0.2, 0.2),
                                                                seed=TRAIN_SEED)
        self.deploy = sim.generate(scenario, seed=seed)
        warm = self.train_ds.subset(np.arange(0, self.train_ds.n, 50))
        pkg.tao.train(warm, pkg.tao.TaoConfig(depth=2, lam=self.lam, init_policy="cart"))

    def rows(self) -> dict:
        return {"train_rows": self.train_ds.n, "val_rows": self.val_ds.n,
                "test_rows": self.test_ds.n, "deploy_trace_rows": len(self.deploy)}

    def run(self, i: int):
        pkg = self.pkg
        t0 = self.clock()
        cfg = pkg.tao.TaoConfig(depth=4, lam=self.lam, seed=TRAIN_SEED,
                                init_policy="best_of_both")
        result = pkg.tao.train(self.train_ds, cfg, val=self.val_ds)
        train_s = self.clock() - t0
        model = pkg.tree.ObliqueTree(result.tree.nodes, result.tree.root,
                                     scaler=self.scaler, lam=self.lam)
        path = self.workdir / f"model{i}.json"
        pkg.tree.save(model, path)
        test_cwa = pkg.metrics.cwa(result.tree, self.test_ds)
        replayed = pkg.simulator.replay(self.deploy, pkg.simulator.TreeSelector(model))
        return result, model, path, train_s, test_cwa, replayed

    def check(self, state, scale: float) -> dict:
        result, model, path, train_s, test_cwa, replayed = state
        ratio = replayed.performance_ratio
        checks = [
            ("train objective history nonincreasing", _nonincreasing(result.history)),
            ("0 < replay_ratio <= 1", 0.0 < ratio <= 1.0),
            ("export program matches model",
             _program_agrees(self.pkg, model, self.scaler.inverse(self.test_ds.X))),
        ]
        out = {
            "stages": {"train_s": train_s * scale},
            "quality": {"test_cwa_pct": test_cwa, "replay_ratio": ratio,
                        "train_objective": result.history[-1]},
            "hashes": {"model.json": _sha256(path)},
            "checks": checks,
        }
        path.unlink()
        return out


class TraceReplay:
    """A 100x trace (180k records): generate, label, CSV round trips of the
    trace and the dataset, replay of all five selectors with a fixed tree,
    and one interval sweep at 10x size. The solver does no work here."""

    name = "trace_replay"
    n_packets = 12000
    sweep_packets = 1200

    def __init__(self, pkg, seed: int, workdir: Path, clock):
        self.pkg, self.seed, self.workdir, self.clock = pkg, seed, workdir, clock
        sim, ds_mod = pkg.simulator, pkg.dataset
        base = sim.ScenarioConfig()
        self.scenario = replace(base, n_packets=self.n_packets)
        self.sweep_scenario = replace(base, n_packets=self.sweep_packets)
        ds = ds_mod.standardize(ds_mod.label_traces(sim.generate(base, seed=TRAIN_SEED)))
        train_ds = ds_mod.split(ds, (0.6, 0.2, 0.2), seed=TRAIN_SEED)[0]
        fit = pkg.tao.train(train_ds, pkg.tao.TaoConfig(depth=4, lam=0.01, seed=TRAIN_SEED,
                                                        init_policy="cart"))
        self.model = pkg.tree.ObliqueTree(fit.tree.nodes, fit.tree.root,
                                          scaler=ds.scaler, lam=0.01)
        self.selectors = _selectors(pkg, self.model)
        warm = sim.generate(base, seed=seed)
        for selector in self.selectors:
            sim.replay(warm, selector)

    def rows(self) -> dict:
        return {"trace_rows": self.scenario.n_nodes * self.n_packets,
                "sweep_rows_per_interval": self.scenario.n_nodes * self.sweep_packets}

    def run(self, i: int):
        pkg, d = self.pkg, self.workdir / f"it{i}"
        sim, ds_mod = pkg.simulator, pkg.dataset
        d.mkdir()
        t0 = self.clock()
        traces = sim.generate(self.scenario, seed=self.seed)
        ds = ds_mod.label_traces(traces)
        t1 = self.clock()
        ds_mod.save_traces(traces, d / "trace.csv")
        loaded = ds_mod.load_traces(d / "trace.csv")
        ds_mod.save_dataset(ds, d / "dataset.csv")
        ds_loaded = ds_mod.load_dataset(d / "dataset.csv")
        t2 = self.clock()
        replays = {s.name: sim.replay(loaded, s) for s in self.selectors}
        t3 = self.clock()
        sweep = sim.interval_sweep(self.sweep_scenario, SWEEP_INTERVALS,
                                   self.selectors[-1], seed=self.seed)
        t4 = self.clock()
        times = {"gen": t1 - t0, "io": t2 - t1, "replay": t3 - t2, "sweep": t4 - t3}
        return d, traces, ds, loaded, ds_loaded, replays, sweep, times

    def check(self, state, scale: float) -> dict:
        d, traces, ds, loaded, ds_loaded, replays, sweep, times = state
        n, io_rows = len(traces), 2 * len(traces) + 2 * ds.n
        ratio = replays["tree"].performance_ratio
        checks = [
            ("trace.csv round trip exact", loaded == traces),
            ("dataset.csv round trip exact",
             bool(np.array_equal(ds.X, ds_loaded.X) and np.array_equal(ds.y, ds_loaded.y)
                  and np.array_equal(ds.c, ds_loaded.c))),
            ("oracle replay_ratio == 1", replays["oracle"].performance_ratio == 1.0),
            ("0 < replay_ratio <= 1", 0.0 < ratio <= 1.0),
            ("sweep ratios in (0, 1]", len(sweep) == len(SWEEP_INTERVALS)
             and all(0.0 < r.performance_ratio <= 1.0 for r in sweep)),
        ]
        out = {
            "stages": {"trace_gen_rows_per_s": n / (times["gen"] * scale),
                       "trace_io_rows_per_s": io_rows / (times["io"] * scale),
                       "replay_rows_per_s": len(replays) * n / (times["replay"] * scale),
                       "sweep_s": times["sweep"] * scale},
            "quality": {"test_cwa_pct": self.pkg.metrics.cwa(self.model, ds_loaded),
                        "replay_ratio": ratio},
            "hashes": {p: _sha256(d / p) for p in ("trace.csv", "dataset.csv")},
            "checks": checks,
        }
        shutil.rmtree(d)
        return out


WORKLOADS = {w.name: w for w in (Walkthrough, FitLarge, TraceReplay)}
