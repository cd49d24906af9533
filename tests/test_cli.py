import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import SIMD_CLASS, assert_kernels_pinned
from radiosel import dataset, export, metrics, simulator, tao, tree
from radiosel.cli import _sha256, blas_core, main
from radiosel.dataset import Scaler
from radiosel.export import ProgramInterpreter
from radiosel.tree import DecisionNode, LeafNode, ObliqueTree
from test_golden import SIMULATE, save_fixed_model, simulate_argv


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = simulator.ScenarioConfig(n_packets=60)
    ds = dataset.label_traces(simulator.generate(cfg, seed=8))
    path = out / "dataset.csv"
    dataset.save_dataset(ds, path)
    return path


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, data_csv):
    out = tmp_path_factory.mktemp("model")
    rc = main(["train", "--data", str(data_csv), "--depth", "2", "--lambda", "0.01",
               "--init", "cart", "--seed", "7", "--out-dir", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def readme_fit(tmp_path_factory):
    """The README's `simulate --seed 1` and `train --depth 4 --seed 1`
    output directories."""
    root = tmp_path_factory.mktemp("readme")
    sim, fit = root / "sim", root / "fit"
    assert main(["simulate", "--seed", "1", "--out-dir", str(sim)]) == 0
    assert main(["train", "--data", str(sim / "dataset.csv"), "--depth", "4",
                 "--seed", "1", "--out-dir", str(fit)]) == 0
    return sim, fit


class TestTrain:
    def test_deterministic_model_files(self, tmp_path, data_csv):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["train", "--data", str(data_csv), "--depth", "2", "--lambda", "0.01",
                "--init", "cart", "--seed", "3"]
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_manifest_written(self, model_dir):
        doc = json.loads((model_dir / "manifest.json").read_text())
        assert doc["subcommand"] == "train"
        assert doc["training"]["objective_history"]
        assert doc["lambda_sweep"][0]["lambda"] == 0.01
        assert str(model_dir / "model.json") in doc["outputs"]

    def test_manifest_training_config(self, model_dir):
        training = json.loads((model_dir / "manifest.json").read_text())["training"]
        assert training["config"] == {
            "depth": 2, "lambda": 0.01, "max_passes": 20, "init_policy": "cart",
            "seed": 7, "solver": {"max_iter": 200, "tol": 1e-8, "patience": 100}}
        assert training["stop_reason"] in ("fixed_point", "max_passes")
        assert set(training) == {"config", "objective_history", "init_used",
                                 "stop_reason", "n_passes", "pass_stats", "lambda_unit"}
        assert len(training["pass_stats"]) == training["n_passes"]
        assert all(set(row) == {"solves", "iters", "loss_evals", "cap_hits"}
                   for row in training["pass_stats"])

    def test_model_has_scaler_for_raw_inference(self, model_dir):
        model = tree.load(model_dir / "model.json")
        assert model.scaler is not None
        assert model.lam == 0.01

    def test_missing_data_exit_3(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_train_from_raw_traces(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["simulate", "--seed", "6", "--out-dir", str(gen)]) == 0
        out = tmp_path / "fit"
        rc = main(["train", "--traces", str(gen / "trace.csv"), "--depth", "2",
                   "--lambda", "0.01", "--init", "cart", "--seed", "6",
                   "--out-dir", str(out)])
        assert rc == 0
        assert tree.load(out / "model.json").scaler is not None

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # --data missing
        assert exc.value.code == 2

    def test_lambda_and_sweep_lambdas_exit_2(self, tmp_path, data_csv, capsys):
        """One fixed lambda and a grid cannot both be given."""
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data_csv), "--lambda", "0.5",
                  "--sweep-lambdas", "0,1e-3", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "not allowed with argument --lambda" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # sha256 of model.json and of the manifest's training section (its
    # solver stats left out) from the README's `simulate --seed 1` and
    # `train --depth 4 --seed 1`, recorded when each training ran alone;
    # per lambda, (solves, iterations, cap hits) as counted then by wrapping
    # the solver's calls. The digests are pinned per SIMD class and BLAS
    # kernel family (the kernels of the solver's products); the counts are
    # the same in all four.
    README_MODEL = {
        ("X86_V4", "SkylakeX"): "951fe7125dda2af4062a3841258a5788319376b46c21617be59294c57b80e88d",
        ("no_X86_V4", "SkylakeX"):
            "41e3a52f8a3c1c2cfb1e75d75d5ab16b0993468532ce6a47fa33809022524b04",
        ("X86_V4", "Haswell"): "7683bda4a0c9674a711fa3a8e17298e4d0d4c7af8fe168da2ca187f9008afb86",
        ("no_X86_V4", "Haswell"):
            "39a19b5e21ad9235a8f19496e9e7c8fb976a75848958ddad7263b8a1c9321920"}
    README_TRAINING = {
        ("X86_V4", "SkylakeX"): "34f229d6a350d503eb7411993df22d399bde1b7a0be3e3bc011f61c2518d77be",
        ("no_X86_V4", "SkylakeX"):
            "bf8ff82625a7df3358fb7ab3fe2585a0782f6670b92961d5356e8d7f62a583d0",
        ("X86_V4", "Haswell"): "3ba3ef28cd80654154d00fa34f5164757b22b280680c5d650715a96c8a6124da",
        ("no_X86_V4", "Haswell"):
            "231e031b660365afe9b092e122123be3b76cceac6900213f48f2e77ace1b63d0"}
    README_SWEEP_STATS = [(51, 5853, 1), (55, 6274, 2), (57, 6438, 1), (69, 7752, 3),
                          (43, 4144, 0)]
    # the chosen model's training.pass_stats, loss evaluations included
    # (line-search candidates tried, evaluated or rejected by the bound);
    # the same in both SIMD classes
    README_PASS_STATS = [
        {"solves": 11, "iters": 1315, "loss_evals": 1865, "cap_hits": 1},
        {"solves": 10, "iters": 1137, "loss_evals": 1605, "cap_hits": 0},
        {"solves": 5, "iters": 470, "loss_evals": 650, "cap_hits": 0}]

    def test_readme_seed_1_train_pinned(self, readme_fit):
        out = readme_fit[1]
        assert_kernels_pinned(_sha256(out / "model.json"), self.README_MODEL)
        doc = json.loads((out / "manifest.json").read_text())
        training = {k: v for k, v in doc["training"].items() if k != "pass_stats"}
        assert_kernels_pinned(
            hashlib.sha256(json.dumps(training, sort_keys=True).encode()).hexdigest(),
            self.README_TRAINING)
        assert doc["training"]["pass_stats"] == self.README_PASS_STATS
        assert [(row["solves"], row["iters"], row["cap_hits"])
                for row in doc["lambda_sweep"]] == self.README_SWEEP_STATS

    @staticmethod
    def scaled(data_csv, path, column, factor):
        """data_csv with one column times factor, written as text: the
        result need not pass Dataset's checks."""
        lines = data_csv.read_text().splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(lines[0] + "\n")
            for line in lines[1:]:
                cells = line.split(",")
                cells[column] = repr(float(cells[column]) * factor)
                fh.write(",".join(cells) + "\n")
        return str(path)

    def test_huge_raw_features_train_quiet(self, tmp_path, data_csv):
        data = self.scaled(data_csv, tmp_path / "d.csv", 1, 1e150)   # rssi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--data", data, "--raw-features", "--depth", "2",
                         "--lambda", "0", "--seed", "1", "--out-dir", str(tmp_path)]) == 0

    def test_non_finite_init_objective_exit_4_names_the_node(self, tmp_path, data_csv,
                                                              capsys):
        data = self.scaled(data_csv, tmp_path / "d.csv", 1, 1e306)
        for grid in (["--lambda", "0"], []):   # the default grid's unit overflows
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["train", "--data", data, "--raw-features", "--depth", "2",
                             "--init", "random", "--seed", "1", "--out-dir", str(tmp_path),
                             *grid]) == 4
            err = capsys.readouterr().err
            assert err.startswith("numeric failure: lambda 0, init random, pass 1, level ")
            assert ": non-finite objective at init" in err

    def test_overflowing_total_cost_exit_3_quiet(self, tmp_path, data_csv, capsys):
        costs = dataset.load_dataset(data_csv).c
        data = self.scaled(data_csv, tmp_path / "d.csv", 5, 1e307 / float(costs.max()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--data", data, "--seed", "1",
                         "--out-dir", str(tmp_path / "fit")]) == 3
        assert "costs sum past the float range" in capsys.readouterr().err

    def test_beats_always_majority_baseline(self, data_csv, model_dir):
        # the trained selector must out-score predicting the cost-majority
        # class everywhere, on the same held-out split
        model = tree.load(model_dir / "model.json")
        ds = dataset.standardize(dataset.load_dataset(data_csv))
        _, _, test = dataset.split(ds, (0.6, 0.2, 0.2), seed=7)
        from radiosel.metrics import cwa
        majority = max((0, 1), key=lambda lbl: float(np.sum(ds.c[ds.y == lbl])))
        baseline = 100.0 * float(np.sum(test.c[test.y == majority])) / float(np.sum(test.c))
        stripped = tree.ObliqueTree(model.nodes, model.root)  # model-space eval
        assert cwa(stripped, test) > baseline


class TestLambdaGrid:
    """Without --lambda or --sweep-lambdas, train sweeps 0 and decades of the
    training split's lambda unit; given lambdas are absolute."""

    @staticmethod
    def _sweep(tmp_path, data_csv, *flags):
        out = tmp_path / "fit"
        assert main(["train", "--data", str(data_csv), "--depth", "1", "--init", "cart",
                     "--seed", "4", *flags, "--out-dir", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        return [row["lambda"] for row in doc["lambda_sweep"]], doc["training"]["lambda_unit"]

    def test_default_grid_is_decades_of_the_unit(self, tmp_path, data_csv):
        ds = dataset.standardize(dataset.load_dataset(data_csv))
        unit = tao.lambda_unit(dataset.split(ds, (0.6, 0.2, 0.2), seed=4)[0])
        assert unit > 0
        assert self._sweep(tmp_path, data_csv) == (
            [0.0, unit * 1e-6, unit * 1e-5, unit * 1e-4, unit * 1e-3], unit)

    @pytest.mark.parametrize("unit, recorded", [(0.0, 0.0), (math.nan, None),
                                                 (math.inf, None)])
    def test_degenerate_unit_sweeps_zero_only(self, tmp_path, data_csv, monkeypatch,
                                              unit, recorded):
        monkeypatch.setattr(tao, "lambda_unit", lambda ds: unit)
        assert self._sweep(tmp_path, data_csv) == ([0.0], recorded)

    @pytest.mark.parametrize("flags, lambdas", [
        (["--lambda", "0.01"], [0.01]),
        (["--sweep-lambdas", "0,3e-05,0.5"], [0.0, 3e-05, 0.5]),
    ])
    def test_given_lambdas_are_absolute(self, tmp_path, data_csv, flags, lambdas):
        assert self._sweep(tmp_path, data_csv, *flags) == (lambdas, None)

    @pytest.mark.parametrize("argv", [
        ["train", "--lambda", "nan"],
        ["train", "--lambda", "inf"],
        ["train", "--sweep-lambdas", "0,nan"],
        ["stability", "--lambda", "nan"],
    ])
    def test_non_finite_lambda_exit_3(self, tmp_path, data_csv, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--data", str(data_csv), "--out-dir", str(out)]) == 3
        assert f"got {argv[-1].split(',')[-1]}" in capsys.readouterr().err
        assert list(out.iterdir()) == []   # no model.json, no manifest


@pytest.mark.parametrize("argv", [["train"], ["stability", "--init", "random"]])
def test_depth_above_maximum_exit_3(tmp_path, data_csv, capsys, argv):
    """The depth bound is checked before any tree is built: a complete
    random init of depth 40 would have about 10**12 nodes."""
    out = tmp_path / "out"
    assert main([*argv, "--depth", "40", "--data", str(data_csv), "--out-dir", str(out)]) == 3
    assert f"depth must be <= {tao.MAX_DEPTH}, got 40" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["train", "--sweep-lambdas", ","],
    ["stability", "--fractions", ","],
    ["stability", "--fractions", "nan"],
    ["sweep", "--intervals", "nan"],
    ["sweep", "--intervals", "inf"],
    ["sweep", "--intervals", ","],
])
def test_empty_or_non_finite_float_list_exit_3(tmp_path, data_csv, capsys, argv):
    out = tmp_path / "out"
    data = [] if argv[0] == "sweep" else ["--data", str(data_csv)]
    assert main([*argv, *data, "--out-dir", str(out)]) == 3
    assert argv[1] in capsys.readouterr().err
    assert list(out.iterdir()) == []


class TestEval:
    def test_metrics_and_breakdown(self, tmp_path, data_csv, model_dir):
        out = tmp_path / "eval"
        rc = main(["eval", "--model", str(model_dir / "model.json"),
                   "--data", str(data_csv), "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "model,location,split,cwa_mean,cwa_std,depth_mean,leaves_mean"
        assert len(lines) == 2
        b = (out / "breakdown.csv").read_text().splitlines()
        header, row = b[0].split(","), b[1].split(",")
        loss = dict(zip(header, row))
        assert float(loss["loss_high_bps"]) >= 0.0

    # the eval manifest's kfold block for the README's `eval --kfold 5`;
    # the same in both SIMD classes
    README_KFOLD = [
        {"solves": 16, "iters": 1870, "cap_hits": 1, "n_passes": 4, "stop_reason": "fixed_point"},
        {"solves": 4, "iters": 441, "cap_hits": 0, "n_passes": 2, "stop_reason": "fixed_point"},
        {"solves": 8, "iters": 872, "cap_hits": 0, "n_passes": 2, "stop_reason": "fixed_point"},
        {"solves": 8, "iters": 823, "cap_hits": 0, "n_passes": 2, "stop_reason": "fixed_point"},
        {"solves": 21, "iters": 2355, "cap_hits": 1, "n_passes": 5,
         "stop_reason": "fixed_point"}]

    def test_readme_seed_1_kfold_pinned(self, tmp_path, readme_fit):
        sim, fit = readme_fit
        assert main(["eval", "--model", str(fit / "model.json"), "--data",
                     str(sim / "dataset.csv"), "--kfold", "5", "--out-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["kfold"] == self.README_KFOLD

    def test_text_cells_are_quoted(self, tmp_path, data_csv, model_dir):
        """A model file name and a location holding commas and quotes read
        back through csv.reader as written, in rows as wide as the header."""
        model = tmp_path / "my,model.json"
        model.write_bytes((model_dir / "model.json").read_bytes())
        location = 'site "A", north'
        out = tmp_path / "ev"
        assert main(["eval", "--model", str(model), "--data", str(data_csv),
                     "--location", location, "--kfold", "2", "--out-dir", str(out)]) == 0
        with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 1 + 2 + 2
        assert all(len(row) == 7 for row in rows)
        assert {(row[0], row[1]) for row in rows[1:]} == {("my,model", location)}

    def test_kfold_rows(self, tmp_path, data_csv, model_dir):
        out = tmp_path / "evalk"
        rc = main(["eval", "--model", str(model_dir / "model.json"),
                   "--data", str(data_csv), "--kfold", "5",
                   "--seed", "1", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        # header + all + 5 folds + train/test summaries
        assert len(lines) == 1 + 1 + 5 + 2
        assert sum("fold" in ln for ln in lines) == 5

    def test_kfold_summary_rows_are_mean_and_sample_std(self, tmp_path, data_csv, model_dir,
                                                         monkeypatch, capsys):
        """metrics.csv's fold rows hold kfold_cwa's test CWAs, and its train
        and test rows their mean and n-1 standard deviation, as stdout does."""
        folds = []
        real_kfold_cwa = metrics.kfold_cwa

        def spy(*args, **kwargs):
            folds.append(real_kfold_cwa(*args, **kwargs))
            return folds[-1]

        monkeypatch.setattr(metrics, "kfold_cwa", spy)
        out = tmp_path / "evalk"
        assert main(["eval", "--model", str(model_dir / "model.json"), "--data", str(data_csv),
                     "--kfold", "4", "--seed", "3", "--out-dir", str(out)]) == 0
        (train_cwa, test_cwa), = folds
        with open(out / "metrics.csv", newline="") as fh:
            rows = {row["split"]: row for row in csv.DictReader(fh)}
        assert [rows[f"fold{i}-test"]["cwa_mean"] for i in range(4)] \
            == ["%.6f" % v for v in test_cwa]
        for split, values in (("train", train_cwa), ("test", test_cwa)):
            assert (rows[split]["cwa_mean"], rows[split]["cwa_std"]) \
                == ("%.6f" % np.mean(values), "%.6f" % np.std(values, ddof=1))
        assert "%.6f" % np.std(test_cwa, ddof=1) != "%.6f" % np.std(test_cwa)   # ddof shows
        leaves = [int(rows[f"fold{i}-test"]["leaves_mean"]) for i in range(4)]
        assert rows["test"]["leaves_mean"] == "%.6g" % np.mean(leaves)
        assert (f"4-fold test CWA = {np.mean(test_cwa):.4f} +- "
                f"{np.std(test_cwa, ddof=1):.4f}%") in capsys.readouterr().out

    def test_kfold_manifest_rows(self, tmp_path, data_csv, model_dir):
        out = tmp_path / "evalk"
        assert main(["eval", "--model", str(model_dir / "model.json"),
                     "--data", str(data_csv), "--kfold", "4", "--seed", "2",
                     "--out-dir", str(out)]) == 0
        rows = json.loads((out / "manifest.json").read_text())["kfold"]
        assert len(rows) == 4
        # each fold's row holds the counts of training its split alone
        model = tree.load(model_dir / "model.json")
        ds = dataset.standardize(dataset.load_dataset(data_csv))
        folds = dataset.stratified_kfold_indices(ds, 4, seed=2)
        cfg = tao.TaoConfig(depth=model.depth, lam=model.lam, seed=2, init_policy="cart")
        for fold, row in zip(folds, rows):
            alone = tao.train(ds.subset(np.setdiff1d(np.arange(ds.n), fold)), cfg)
            assert row == {**{k: alone.solver_stats[k] for k in ("solves", "iters", "cap_hits")},
                           "n_passes": alone.n_passes, "stop_reason": alone.stop_reason}

    def test_non_finite_fold_training_exit_4_names_the_fold(self, tmp_path, data_csv, capsys):
        lines = data_csv.read_text().splitlines()
        top = max(abs(float(line.split(",")[1])) for line in lines[1:])
        data = TestTrain.scaled(data_csv, tmp_path / "d.csv", 1, 1e308 / top)   # rssi
        model = tmp_path / "model.json"   # raw features: the folds train on the 1e308s
        tree.save(ObliqueTree({0: DecisionNode([1.0, 0.0, 0.0, 0.0], -2.5, 1, 2),
                               1: DecisionNode([0.0, 0.0, 1.0, 0.0], -0.5, 3, 4),
                               2: LeafNode(1), 3: LeafNode(0), 4: LeafNode(1)}, 0), model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--model", str(model), "--data", data, "--kfold", "5",
                         "--out-dir", str(tmp_path / "ev")]) == 4
        err = capsys.readouterr().err
        assert re.match(r"numeric failure: fold 0, lambda 0, init cart, pass 1, "
                        r"level \d+, node \d+: non-finite ", err), err
        assert not (tmp_path / "ev" / "manifest.json").exists()

    def test_single_class_fold_exit_3_names_the_fold(self, tmp_path, model_dir, capsys):
        """Leave-one-out over one lora row: the fold holding it leaves a
        training split of one class."""
        data = tmp_path / "d.csv"
        data.write_text("hn,rssi,prr,rnp,label,cost\n1,-90,0.9,1.1,zigbee,10\n"
                        "2,-80,0.8,1.2,zigbee,20\n3,-70,0.7,1.3,lora,30\n"
                        "4,-60,0.6,1.4,zigbee,40\n")
        folds = dataset.stratified_kfold_indices(dataset.load_dataset(data), 4, seed=0)
        lora_fold = next(i for i, fold in enumerate(folds) if fold.tolist() == [2])
        assert main(["eval", "--model", str(model_dir / "model.json"), "--data", str(data),
                     "--kfold", "4", "--out-dir", str(tmp_path / "ev")]) == 3
        assert (f"data error: fold {lora_fold}: single-class dataset: nothing to separate"
                in capsys.readouterr().err)
        assert not (tmp_path / "ev" / "manifest.json").exists()

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_cost_threshold_exit_3(self, tmp_path, data_csv, model_dir, capsys,
                                              value):
        out = tmp_path / "eval"
        rc = main(["eval", "--model", str(model_dir / "model.json"), "--data", str(data_csv),
                   f"--cost-threshold={value}", "--out-dir", str(out)])
        assert rc == 3
        assert f"--cost-threshold must be finite, got {value}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("k", ["0", "1", "-2"])
    def test_kfold_below_two_exit_3_before_output(self, tmp_path, data_csv, model_dir,
                                                   capsys, k):
        out = tmp_path / "evalk"
        rc = main(["eval", "--model", str(model_dir / "model.json"),
                   "--data", str(data_csv), "--kfold", k, "--out-dir", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""   # no whole-data CWA printed first
        assert f"--kfold {k}: k must be >= 2" in captured.err
        assert list(out.iterdir()) == []


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            rc = main(["simulate", "--seed", "1", "--out-dir", str(out)])
            assert rc == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "dataset.csv").exists()
        cdf = (out1 / "cdf.csv").read_text().splitlines()
        # 4 built-in selectors x 100 percentiles + header
        assert len(cdf) == 1 + 4 * 100

    def test_scenario_file_and_model(self, tmp_path, model_dir):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(simulator.ScenarioConfig(n_packets=30).to_json())
        out = tmp_path / "sim"
        rc = main(["simulate", "--scenario", str(scenario), "--seed", "2",
                   "--model", str(model_dir / "model.json"), "--out-dir", str(out)])
        assert rc == 0
        rows = (out / "replay.csv").read_text().splitlines()
        selectors = {r.split(",")[0] for r in rows[1:]}
        assert "tree" in selectors and "oracle" in selectors

    @pytest.mark.parametrize("text, message", [
        ('{"bogus": true}', "unknown scenario fields: ['bogus']"),
        ('[1, 2]', "one JSON object"),
        ('{"n_packets": 1.5}', "'n_packets' must be an integer, got 1.5"),
        ('{"n_packets": true}', "'n_packets' must be an integer, got True"),
        ('{"distances_m": "abc"}', "'distances_m' must be a list of numbers, got 'abc'"),
        ('{"lora_rate_tiers": [[1]]}', "'lora_rate_tiers' must be a list of 2-number lists"),
        ('{"packet_interval_s": "x"}', "'packet_interval_s' must be a finite number, got 'x'"),
        ('{"prr_floor": NaN}', "'prr_floor' must be a finite number, got nan"),
        ('{"gray_region_m": [500]}', "unknown scenario fields: ['gray_region_m']"),
        ('{"hop_range_m": 0}', "hop_range_m must be > 0"),
        ('{"zigbee_hop_overhead": -1}', "zigbee_hop_overhead must be >= 0"),
        ('{"shadowing_std_db": -1}', "shadowing_std_db must be >= 0"),
        ('{"seed": -1}', "unknown scenario fields: ['seed']"),
        ('{"payload_bytes": 29}', "unknown scenario fields: ['payload_bytes']"),
        ('{"n_nodes": 15}', "unknown scenario fields: ['n_nodes']"),   # len(distances_m)
        ('{"zigbee_hop_capacity_bps": 0.0}', "zigbee_hop_capacity_bps must be > 0"),
        ('{"zigbee_hop_capacity_bps": -1.0}', "zigbee_hop_capacity_bps must be > 0"),
        ('{"lora_base_rate_bps": -1.0}', "lora_base_rate_bps must be > 0"),
        ('{"lora_rate_tiers": [[-85.0, -1.0]]}', "lora_rate_tiers[0] rate must be > 0"),
        ('{"service_time_s": -1.0}', "service_time_s must be > 0"),
        ('{"service_time_s": 0.0}', "service_time_s must be > 0"),
        ('{"prr_floor": 0.9, "prr_ceil": 0.2}',
         "prr_floor must be in [0, prr_ceil], got 0.9 with prr_ceil 0.2"),
        ('{"prr_floor": -0.1}', "prr_floor must be in [0, prr_ceil], got -0.1"),
        ('{"prr_ceil": 0}', "prr_ceil must be in (0, 1], got 0.0"),
        ('{"prr_ceil": 1.5}', "prr_ceil must be in (0, 1], got 1.5"),
        ('{"stale_prob_max": 5.0}', "stale_prob_max must be in [0, 1], got 5.0"),
        ('{"stale_prob_max": -1.0}', "stale_prob_max must be in [0, 1], got -1.0"),
        ('{"stale_occupancy_floor": 2.0}', "stale_occupancy_floor must be in [0, 1), got 2.0"),
        ('{"stale_occupancy_floor": -0.5}',
         "stale_occupancy_floor must be in [0, 1), got -0.5"),
    ], ids=["unknown_field", "not_an_object", "int_float", "int_bool", "list_string",
            "pair_width", "real_string", "real_nan", "gray_region_width", "hop_range_zero",
            "hop_overhead_negative", "std_negative", "seed_negative", "payload_bytes",
            "n_nodes_derived", "zigbee_capacity_zero", "zigbee_capacity_negative",
            "lora_base_negative", "lora_tier_negative", "service_time_negative",
            "service_time_zero", "prr_floor_above_ceil", "prr_floor_negative", "prr_ceil_zero",
            "prr_ceil_above_one", "stale_prob_above_one", "stale_prob_negative",
            "stale_floor_above_one", "stale_floor_negative"])
    def test_bad_scenario_exit_3(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for command in ("simulate", "sweep"):
            out = tmp_path / command
            rc = main([command, "--scenario", str(bad), "--out-dir", str(out)])
            assert rc == 3
            assert message in capsys.readouterr().err
            assert list(out.iterdir()) == []

    def test_overflowing_feature_exit_3_names_the_column(self, tmp_path, capsys):
        """A scenario whose rnp measurement noise overflows labels a
        non-finite rnp: the error names the row and the column, and
        nothing is written."""
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"rnp_meas_sigma": 1e308}))
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(scenario), "--out-dir", str(out)]) == 3
        assert re.search(r"data error: row \d+: non-finite feature value rnp=",
                         capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_exit_3(self, tmp_path, capsys, value):
        rc = main(["simulate", f"--threshold-hn={value}", "--out-dir", str(tmp_path)])
        assert rc == 3
        assert f"--threshold-hn must be finite, got {value}" in capsys.readouterr().err

    def test_replay_node_ids_that_need_quotes(self, tmp_path):
        """A replayed trace whose node ids hold "," or '"' is written so
        that it loads back."""
        trace = dataset.Trace(("a,b", 'c"d'), [0, 1, 0, 1], [0.0, 0.0, 1.0, 1.0],
                              [5000.0, 800.0, 4000.0, 900.0], [3000.0] * 4, [2.0] * 4,
                              [-95.0] * 4, [0.8] * 4, [1.4] * 4)
        dataset.save_traces(trace, tmp_path / "in.csv")
        assert main(["simulate", "--traces", str(tmp_path / "in.csv"),
                     "--out-dir", str(tmp_path / "o")]) == 0
        assert dataset.load_traces(tmp_path / "o" / "trace.csv") == trace

    @pytest.mark.parametrize("tp_zigbee, message", [
        ([0.0, 0.0], "mean zigbee throughput of the trace is 0.0 bps"),
        ([900.0, 800.0], "all trace records tied"),
    ], ids=["zero_zigbee", "all_tied"])
    def test_bad_trace_exit_3_before_output(self, tmp_path, capsys, tp_zigbee, message):
        """Replay gains divide by each radio's mean throughput, and a trace
        of ties labels no sample: either is a data error, and nothing is
        written."""
        trace = dataset.Trace(("n0",), [0, 0], [0.0, 3.0], tp_zigbee, [900.0, 800.0],
                              [2.0] * 2, [-95.0] * 2, [0.8] * 2, [1.4] * 2)
        dataset.save_traces(trace, tmp_path / "z.csv")
        rc = main(["simulate", "--traces", str(tmp_path / "z.csv"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("value", [1e308, 5e-324, 0.0, -1.0])
    @pytest.mark.parametrize("field", [name for name, default in
                                       simulator.ScenarioConfig().__dict__.items()
                                       if isinstance(default, float)])
    def test_scenario_float_at_the_edges_exit_0_or_3_silently(self, tmp_path, capsys,
                                                              field, value):
        """One float field of a scenario at an edge of the float range, run
        through simulate and sweep: each exits 0 or 3 with no warning and no
        traceback, and a run that exits 0 writes only finite numbers."""
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({field: value}))
        for command in ("simulate", "sweep"):
            out = tmp_path / command
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main([command, "--scenario", str(scenario), "--out-dir", str(out)])
            err = capsys.readouterr().err
            assert rc in (0, 3) and "Traceback" not in err, (command, rc, err)
            assert [str(w.message) for w in caught] == [], command
            cells = {cell for path in out.glob("*.csv")
                     for row in csv.reader(path.read_text().splitlines()) for cell in row}
            assert rc == 3 or not cells & {"nan", "inf", "-inf"}, command

    @pytest.mark.parametrize("n_packets", [-1, 0])
    def test_no_packets_exit_3(self, tmp_path, capsys, n_packets):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_packets": n_packets}))
        rc = main(["simulate", "--scenario", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert "at least one packet" in capsys.readouterr().err

    def test_missing_model_leaves_no_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(_scenario_file(tmp_path)),
                     "--model", str(tmp_path / "missing.json"),
                     "--out-dir", str(out)]) == 3
        assert list(out.iterdir()) == []

    def test_replay_existing_traces(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["simulate", "--seed", "4", "--out-dir", str(gen)]) == 0
        rep = tmp_path / "rep"
        rc = main(["simulate", "--traces", str(gen / "trace.csv"),
                   "--out-dir", str(rep)])
        assert rc == 0
        assert (rep / "trace.csv").read_bytes() == (gen / "trace.csv").read_bytes()
        assert (rep / "replay.csv").read_text() == (gen / "replay.csv").read_text()


class TestSweep:
    def test_row_count_is_intervals_times_selectors(self, tmp_path):
        out = tmp_path / "sw"
        rc = main(["sweep", "--intervals", "5,3,2,1.5,1.4,1.3", "--seed", "1",
                   "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "interval_s,selector,performance_ratio,mean_latency_ms"
        assert len(lines) - 1 == 6 * 4  # 4 built-in selectors

    def test_tiny_intervals_cap_the_lag(self, tmp_path):
        out = tmp_path / "sw"
        rc = main(["sweep", "--intervals", "1e-300,1e-320", "--seed", "1",
                   "--out-dir", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2 * 4
        assert all(0.0 < float(ratio) <= 1.0 for _, _, ratio, _ in rows)

    def test_oracle_rows_ratio_one(self, tmp_path):
        out = tmp_path / "sw2"
        main(["sweep", "--intervals", "3,1.3", "--seed", "1", "--out-dir", str(out)])
        for line in (out / "sweep.csv").read_text().splitlines()[1:]:
            interval, sel, ratio, _ = line.split(",")
            if sel == "oracle":
                assert float(ratio) == 1.0


class TestStabilityCmd:
    def test_artifacts(self, tmp_path, data_csv):
        out = tmp_path / "st"
        rc = main(["stability", "--data", str(data_csv), "--depth", "2",
                   "--lambda", "0.01", "--seed", "2", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "stability.csv").read_text().splitlines()
        assert lines[0].startswith("node_id,fraction,w_hn,w_rssi,w_prr,w_rnp,constant")
        assert (out / "stability_table.txt").exists()
        doc = json.loads((out / "manifest.json").read_text())
        assert len(doc["stability"]["signatures"]) == 3

    def test_non_positive_fraction_exit_3(self, tmp_path, data_csv, capsys):
        out = tmp_path / "st"
        assert main(["stability", "--data", str(data_csv), "--fractions=-0.5,1",
                     "--out-dir", str(out)]) == 3
        assert "got [-0.5, 1.0]" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestExportCmd:
    def test_program_matches_model(self, tmp_path, model_dir):
        out = tmp_path / "ex"
        rc = main(["export", "--model", str(model_dir / "model.json"),
                   "--out-dir", str(out)])
        assert rc == 0
        text = (out / "program.txt").read_text()
        model = tree.load(model_dir / "model.json")
        interp = ProgramInterpreter(text)
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.uniform(1, 6, 200), rng.uniform(-130, -60, 200),
                             rng.uniform(0, 1, 200), rng.uniform(1, 8, 200)])
        for x in X:
            assert interp.predict(x) == model.predict(x)
        report = (out / "report.csv").read_text().splitlines()
        assert len(report) - 1 == len(tree.prune(model).decision_ids())
        assert report[0].endswith("l0,dominant")


    def test_three_feature_model(self, tmp_path):
        path = tmp_path / "m3.json"
        tree.save(ObliqueTree({0: DecisionNode(np.array([1.0, -2.0, 0.5]), 0.25, 1, 2),
                               1: LeafNode(0), 2: LeafNode(1)}, 0,
                              scaler=Scaler(np.array([1.0, -2.0, 3.0]),
                                            np.array([0.5, 2.0, 4.0]))), path)
        out = tmp_path / "ex"
        assert main(["export", "--model", str(path), "--out-dir", str(out)]) == 0
        text = (out / "program.txt").read_text()
        assert "z_x1 = (x1 + 2.0) / 2.0;" in text
        interp = ProgramInterpreter(text, ("x0", "x1", "x2"))
        X = np.random.default_rng(1).normal(0.0, 3.0, (200, 3))
        assert [interp.predict(x) for x in X] == tree.load(path).predict_many(X).tolist()


class TestMalformedModel:
    @staticmethod
    def edited_model(model_dir, tmp_path, edit):
        doc = json.loads((model_dir / "model.json").read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_scaler_length_mismatch_exit_3(self, tmp_path, data_csv, model_dir, capsys):
        def drop_feature(doc):
            doc["scaler"] = {k: v[:3] for k, v in doc["scaler"].items()}
        model = self.edited_model(model_dir, tmp_path, drop_feature)
        assert main(["eval", "--model", model, "--data", str(data_csv),
                     "--out-dir", str(tmp_path / "ev")]) == 3
        assert main(["export", "--model", model, "--out-dir", str(tmp_path / "ex")]) == 3
        assert "scaler has 3 features, hyperplanes have 4" in capsys.readouterr().err

    @staticmethod
    def inflate(doc):
        for node in doc["nodes"]:
            if node["kind"] == "decision":
                node["w"] = [1e308 if v != 0.0 else 0.0 for v in node["w"]]

    def test_huge_weights_export_exact(self, tmp_path, model_dir):
        # the program standardizes, then uses the model's own 1e308 weights
        model = self.edited_model(model_dir, tmp_path, self.inflate)
        out = tmp_path / "ex"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["export", "--model", model, "--out-dir", str(out)]) == 0
            loaded = tree.load(model)
            interp = ProgramInterpreter((out / "program.txt").read_text())
            # the rows export verifies on (--seed 0)
            X = loaded.scaler.inverse(np.random.default_rng(0).uniform(-5.0, 5.0, (2000, 4)))
            assert [interp.predict(x) for x in X] == loaded.predict_many(X).tolist()

    def test_huge_weights_eval_and_simulate_quiet(self, tmp_path, data_csv, model_dir):
        # scores overflow to +-inf, which routes as IEEE comparisons say
        model = self.edited_model(model_dir, tmp_path, self.inflate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--model", model, "--data", str(data_csv),
                         "--out-dir", str(tmp_path / "ev")]) == 0
            assert main(["simulate", "--model", model, "--scenario",
                         str(_scenario_file(tmp_path)), "--out-dir",
                         str(tmp_path / "sim")]) == 0

    # Every field is typed by the rule scenario files use: no value is cast,
    # so a float id, a string child or a bool weight does not load as
    # another tree.
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(root="x"), "malformed model field 'root'"),
        (lambda doc: doc.update({"lambda": "abc"}), "malformed model field 'lambda'"),
        (lambda doc: doc["nodes"][0].update(w=[[1.0, 2.0], [3.0, 4.0]]),
         "node 0: weights must be a flat list"),
        (lambda doc: doc["nodes"][1].update(id=1.7),
         "node entry 1: id must be an integer, got 1.7"),
        (lambda doc: doc["nodes"][1].update(id=True),
         "node entry 1: id must be an integer, got True"),
        (lambda doc: doc["nodes"][0].update(left="1"), "node 0: left must be an integer, got '1'"),
        (lambda doc: doc.update(root=0.9),
         "malformed model field 'root' must be an integer, got 0.9"),
        (lambda doc: doc["nodes"][0].update(w0="-2"),
         "node 0: w0 must be a finite number, got '-2'"),
        (lambda doc: doc["nodes"][0].update(w0=True),
         "node 0: w0 must be a finite number, got True"),
        (lambda doc: doc["nodes"][0].update(w=["1", "0", "0", "0"]),
         "node 0: weights[0] must be a finite number, got '1'"),
        (lambda doc: doc["nodes"][3].update(label=1.0),
         "node 3: label must be an integer, got 1.0"),
        (lambda doc: doc.update({"lambda": "0.5"}),
         "malformed model field 'lambda' must be a finite number, got '0.5'"),
        (lambda doc: doc.update(version=True),
         "malformed model field 'version' must be an integer, got True"),
        (lambda doc: doc["scaler"].update(mean=["0", "0", "0", "0"]),
         "model scaler mean[0] must be a finite number, got '0'"),
    ], ids=["root_not_int", "lambda_not_number", "w_two_dimensional", "id_float", "id_bool",
            "left_string", "root_float", "w0_string", "w0_bool", "w_strings", "label_float",
            "lambda_string", "version_bool", "scaler_mean_strings"])
    def test_malformed_field_exit_3(self, tmp_path, data_csv, model_dir, capsys,
                                    edit, message):
        model = self.edited_model(model_dir, tmp_path, edit)
        assert main(["eval", "--model", model, "--data", str(data_csv),
                     "--out-dir", str(tmp_path / "ev")]) == 3
        assert main(["export", "--model", model, "--out-dir", str(tmp_path / "ex")]) == 3
        assert capsys.readouterr().err.count(message) == 2

    def test_leaf_only_scaler_width_exit_3(self, tmp_path, data_csv, capsys):
        path = tmp_path / "leaf.json"
        tree.save(ObliqueTree({0: LeafNode(1)}, 0,
                              scaler=Scaler(mean=np.zeros(3), std=np.ones(3))), path)
        assert main(["eval", "--model", str(path), "--data", str(data_csv),
                     "--out-dir", str(tmp_path / "ev")]) == 3
        assert main(["simulate", "--model", str(path), "--out-dir",
                     str(tmp_path / "sim")]) == 3
        err = capsys.readouterr().err
        assert err.count("input has 4 features, model scaler has 3") == 2
        # a constant program over the scaler's 3 features is well formed
        assert main(["export", "--model", str(path), "--out-dir", str(tmp_path / "ex")]) == 0


def _chain_model(path, depth):
    """A model file whose decision nodes form one left-going chain."""
    nodes = {i: DecisionNode(np.array([1.0, 0.0, 0.0, 0.0]), 0.0,
                             i + 1 if i + 1 < depth else 2 * depth, depth + i)
             for i in range(depth)}
    nodes.update({i: LeafNode(i % 2) for i in range(depth, 2 * depth + 1)})
    tree.save(ObliqueTree(nodes, 0), path)
    return str(path)


def test_model_at_the_depth_bound_exports(tmp_path):
    model = _chain_model(tmp_path / "deep.json", tree.MAX_DEPTH)
    assert main(["export", "--model", model, "--out-dir", str(tmp_path / "ex")]) == 0


@pytest.mark.parametrize("depth", [tree.MAX_DEPTH + 1, 1000])
def test_model_past_the_depth_bound_exit_3(tmp_path, data_csv, capsys, depth):
    """codegen, prune and the program parser recurse once per level: a
    deep model file is refused as it loads, not by a RecursionError."""
    model = _chain_model(tmp_path / "deep.json", depth)
    for argv in (["export"], ["eval", "--data", str(data_csv)], ["simulate"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--model", model, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"model depth must be <= {tree.MAX_DEPTH}, got {depth}" in err
        assert "Traceback" not in err


def _decision(nid, left, right):
    return {"id": nid, "kind": "decision", "w": [1.0, 0.0, 0.0, 0.0], "w0": 0.0,
            "left": left, "right": right}


def _leaves(*ids):
    return [{"id": i, "kind": "leaf", "label": i % 2} for i in ids]


_CYCLE_NODES = [_decision(0, 1, 2), _decision(1, 0, 3), *_leaves(2, 3)]
_SHARED_CHILD_NODES = [_decision(0, 1, 1), *_leaves(1)]
# 0 -> 1 -> 3 -> 1: the cycle returns to node 1, not to the root
_INNER_CYCLE_NODES = [_decision(0, 1, 2), _decision(1, 3, 4), _decision(3, 1, 5), *_leaves(2, 4, 5)]
_DEEP_JSON = "[" * 200000
_BIG_INT_JSON = '{"version": ' + "9" * 5000 + "}"


@pytest.mark.parametrize("files, argv, message", [
    ({"s.json": "{"}, ["simulate", "--scenario", "s.json"], "scenario file is not valid JSON"),
    ({}, ["simulate", "--scenario", "none.json"], "no such scenario file: none.json"),
    ({"s.json": '{"distances_m": [100.0, -5.0]}'}, ["sweep", "--scenario", "s.json"],
     "distances must be > 0"),
    ({}, ["sweep", "--intervals", "5,abc"],
     "--intervals expects a comma-separated list of numbers, got '5,abc'"),
    ({"d.csv": ""}, ["train", "--data", "d.csv"],
     "d.csv: empty file, expected header hn,rssi,prr,rnp,label,cost"),
    ({"d.csv": "rssi,hn,prr,rnp,label,cost\n"}, ["train", "--data", "d.csv"],
     "d.csv: columns must be ordered hn,rssi,prr,rnp,label,cost"),
    ({"m.json": "[1,2]"}, ["export", "--model", "m.json"], "model file must hold a JSON object"),
    ({"m.json": json.dumps({"version": 1, "root": 0,
                           "nodes": [{"id": 0, "kind": "leaf", "label": 0}] * 2})},
     ["export", "--model", "m.json"], "duplicate node id 0"),
    ({"m.json": json.dumps({"version": 1, "root": 0, "nodes": _CYCLE_NODES})},
     ["export", "--model", "m.json"], "node 0 reached twice: cycle or shared child"),
    ({"m.json": json.dumps({"version": 1, "root": 0, "nodes": _SHARED_CHILD_NODES})},
     ["export", "--model", "m.json"], "node 1 reached twice: cycle or shared child"),
    ({"m.json": json.dumps({"version": 1, "root": 0, "nodes": _INNER_CYCLE_NODES})},
     ["export", "--model", "m.json"], "node 1 reached twice: cycle or shared child"),
    ({"m.json": b'{"version": 1\xff}'}, ["export", "--model", "m.json"],
     "m.json: not a UTF-8 model file"),
    ({"s.json": b'{"n_packets": 30\xff}'}, ["simulate", "--scenario", "s.json"],
     "s.json: not a UTF-8 scenario file"),
    ({"m.json": _DEEP_JSON}, ["export", "--model", "m.json"],
     "model file is not valid JSON: maximum recursion depth exceeded"),
    ({"s.json": _DEEP_JSON}, ["simulate", "--scenario", "s.json"],
     "scenario file is not valid JSON: maximum recursion depth exceeded"),
    ({"m.json": _BIG_INT_JSON}, ["export", "--model", "m.json"],
     "model file is not valid JSON: Exceeds the limit (4300 digits)"),
    ({"s.json": _BIG_INT_JSON}, ["simulate", "--scenario", "s.json"],
     "scenario file is not valid JSON: Exceeds the limit (4300 digits)"),
    ({"s.json": '{"stale_occupancy_floor": 0.0}'},
     ["sweep", "--scenario", "s.json", "--intervals", "5,1e306"],
     "interval 1e+306 s is past the float range in ms"),
], ids=["scenario_not_json", "scenario_missing", "distance_negative", "intervals_not_numbers",
        "dataset_empty", "dataset_header_order", "model_not_object", "model_duplicate_id",
        "model_cycle_through_root", "model_shared_child", "model_cycle_through_inner_node",
        "model_not_utf8", "scenario_not_utf8", "model_nested_too_deep",
        "scenario_nested_too_deep", "model_int_too_long", "scenario_int_too_long",
        "sweep_interval_past_ms_range"])
def test_input_error_exit_3(tmp_path, monkeypatch, capsys, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():   # bytes where a row tests a non-UTF-8 file
        Path(name).write_bytes(content if isinstance(content, bytes) else content.encode())
    assert main([*argv, "--out-dir", "out"]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


class TestFileErrors:
    """Filesystem failures exit 3 and name the path, without a traceback."""

    def test_out_dir_is_a_file_exit_3(self, tmp_path, data_csv, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["stability", "--data", str(data_csv), "--out-dir", str(taken)]) == 3
        assert str(taken) in capsys.readouterr().err

    def test_data_is_a_directory_exit_3(self, tmp_path, model_dir, capsys):
        assert main(["eval", "--model", str(model_dir / "model.json"),
                     "--data", str(tmp_path), "--out-dir", str(tmp_path / "ev")]) == 3
        assert str(tmp_path) in capsys.readouterr().err

    def test_model_is_a_directory_exit_3(self, tmp_path, capsys):
        assert main(["export", "--model", str(tmp_path),
                     "--out-dir", str(tmp_path / "ex")]) == 3
        assert str(tmp_path) in capsys.readouterr().err


def test_sha256_reads_in_pieces_with_the_whole_file_digest(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(3).bytes((1 << 21) + 12345))
    assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def _scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(simulator.ScenarioConfig(n_packets=30).to_json())
    return path


MANIFEST_KEYS = {"tool", "version", "subcommand", "config", "seed", "numpy", "inputs",
                 "outputs", "wall_time_s"}


@pytest.mark.parametrize("command", ["train", "eval", "simulate", "sweep", "stability",
                                     "export"])
def test_manifest_names_exactly_the_files_read_and_written(tmp_path, data_csv, model_dir,
                                                           command):
    model, scenario = str(model_dir / "model.json"), str(_scenario_file(tmp_path))
    data = str(data_csv)
    argv, inputs, extra = {
        "train": (["--data", data, "--depth", "2", "--lambda", "0.01", "--init", "cart"],
                  [data], {"training", "lambda_sweep"}),
        "eval": (["--model", model, "--data", data], [model, data], set()),
        "simulate": (["--scenario", scenario, "--model", model], [scenario, model], set()),
        "sweep": (["--scenario", scenario, "--model", model, "--intervals", "3,1.3"],
                  [scenario, model], set()),
        "stability": (["--data", data, "--depth", "2", "--lambda", "0.01"], [data],
                      {"stability"}),
        "export": (["--model", model], [model], set()),
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--seed", "2", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert set(doc) == MANIFEST_KEYS | extra
    assert doc["subcommand"] == command and doc["seed"] == 2
    assert doc["config"]["out_dir"] == str(out)

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert doc["inputs"] == {p: digest(Path(p)) for p in inputs}
    written = sorted(p for p in out.iterdir() if p.name != "manifest.json")
    assert doc["outputs"] == {str(p): digest(p) for p in written}


def test_manifest_stamps_the_blas_build(model_dir):
    """The solver's products run in numpy's BLAS, so manifests name its
    build, and the kernel family it picked when it loaded, next to the SIMD
    dispatch targets."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = json.loads((model_dir / "manifest.json").read_text())
    assert set(doc["numpy"]) == {"version", "simd_dispatch", "blas"}
    assert doc["numpy"]["blas"] == {**{k: blas.get(k)
                                       for k in ("name", "version", "openblas configuration")},
                                    "core": blas_core()}
    assert doc["numpy"]["blas"]["name"]
    if blas["name"] == "scipy-openblas":   # numpy's wheels: the core is queryable
        assert doc["numpy"]["blas"]["core"]


@pytest.mark.skipif(blas_core() is None or platform.machine() not in ("x86_64", "AMD64"),
                    reason="needs numpy's bundled OpenBLAS on x86-64")
def test_manifest_names_the_forced_blas_core(tmp_path, model_dir):
    """OPENBLAS_CORETYPE makes OpenBLAS load another x86-64 kernel family,
    which the manifest then names, while the build string stays the same."""
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(tree.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "radiosel.cli", "export", "--model",
                           str(model_dir / "model.json"), "--out-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    forced = json.loads((tmp_path / "manifest.json").read_text())["numpy"]["blas"]
    native = json.loads((model_dir / "manifest.json").read_text())["numpy"]["blas"]
    assert forced == {**native, "core": "Haswell"}


def test_console_entry_point(tmp_path):
    rc = subprocess.run([sys.executable, "-m", "radiosel.cli", "--version"],
                        capture_output=True, text=True)
    assert rc.returncode == 0


AVX2_ONLY = "AVX512_SPR AVX512_ICL X86_V4"   # NPY_DISABLE_CPU_FEATURES


@pytest.mark.skipif(SIMD_CLASS != "X86_V4",
                    reason="X86_V4 is not enabled on this CPU: no SIMD level to disable")
def test_same_bytes_per_simd_level(tmp_path):
    """test_golden's simulate and a small train, run twice at the default
    SIMD level and once with the AVX-512 targets disabled: the reruns at one
    level write the same bytes, the manifests name the two levels apart,
    and each level's simulate writes the digests pinned for its class."""
    model = save_fixed_model(tmp_path / "model.json")
    src = str(Path(tree.__file__).resolve().parents[1])

    def run(name, disable):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if disable:
            env["NPY_DISABLE_CPU_FEATURES"] = disable
        out = tmp_path / name
        for argv in (simulate_argv(model, out / "sim"),
                     ["train", "--data", str(out / "sim" / "dataset.csv"), "--depth", "2",
                      "--lambda", "0.01", "--seed", "3", "--out-dir", str(out / "fit")]):
            proc = subprocess.run([sys.executable, "-m", "radiosel.cli", *argv],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                 if p.is_file() and p.name != "manifest.json"}
        levels = [json.loads((out / step / "manifest.json").read_text())["numpy"]
                  for step in ("sim", "fit")]
        assert levels[0] == levels[1]
        return files, levels[0]

    (first, default), (again, default_again), (lower, avx2) = \
        run("a", None), run("b", None), run("c", AVX2_ONLY)
    assert {"sim/trace.csv", "sim/dataset.csv", "fit/model.json"} <= set(first)
    assert first == again and default == default_again
    for files, level in ((first, "X86_V4"), (lower, "no_X86_V4")):
        assert {name: hashlib.sha256(files[f"sim/{name}"]).hexdigest()
                for name in SIMULATE[level]} == SIMULATE[level]
    assert "X86_V4" in default["simd_dispatch"] and "X86_V4" not in avx2["simd_dispatch"]
    assert avx2["version"] == default["version"] == np.__version__


@pytest.mark.parametrize("command", ["simulate", "sweep", "train", "eval", "stability",
                                     "export"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_is_a_usage_error(tmp_path, data_csv, model_dir, capsys, command, seed):
    """--seed takes an integer >= 0; anything else exits 2 before any output."""
    argv = {"simulate": [], "sweep": ["--intervals", "3"],
            "train": ["--data", str(data_csv)],
            "eval": ["--model", str(model_dir / "model.json"), "--data", str(data_csv),
                     "--kfold", "5"],
            "stability": ["--data", str(data_csv)],
            "export": ["--model", str(model_dir / "model.json")]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--seed", seed, "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: expected an integer >= 0, got '{seed}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


class TestSeedOutcomes:
    """The discrete outcomes of training at README seeds 2 and 3 and of the
    10x fit at seed 1, pinned as recorded before the solver's products
    moved to one design matrix per problem. They hold at both SIMD classes:
    integers and strings exactly, floats within rel 1e-12, far tighter
    than one row's weight in a CWA (about 1e-4) and looser than the
    classes' last-bit differences in lambda."""

    # seed -> (lambda, init, leaves, val CWA, test CWA,
    #          (solves, iters, cap_hits) per lambda_sweep row)
    README = {
        2: (52.25544772550022, "random", 14, 96.1423182913338, 94.85385333074757,
            [(44, 5073, 1), (47, 5493, 4), (48, 5692, 3), (46, 5491, 5), (35, 3172, 0)]),
        3: (0.0, "cart", 8, 97.43992696396093, 96.3849547000611,
            [(31, 3640, 3), (32, 3880, 3), (33, 4020, 3), (27, 3352, 2), (23, 2769, 1)]),
    }
    TEN_X = ("random", 16, 95.92457418231758, 95.54329892414995,
             {"solves": 36, "iters": 4261, "loss_evals": 6207, "cap_hits": 4})

    @pytest.mark.parametrize("seed", sorted(README))
    def test_readme_seed(self, tmp_path, seed):
        sim, fit = tmp_path / "sim", tmp_path / "fit"
        assert main(["simulate", "--seed", str(seed), "--out-dir", str(sim)]) == 0
        assert main(["train", "--data", str(sim / "dataset.csv"), "--depth", "4",
                     "--seed", str(seed), "--out-dir", str(fit)]) == 0
        doc = json.loads((fit / "manifest.json").read_text())
        model = tree.load(fit / "model.json")
        # train's val and test splits, scored as train scores them
        ds = dataset.standardize(dataset.load_dataset(sim / "dataset.csv"))
        _, val, test = dataset.split(ds, (0.6, 0.2, 0.2), seed=seed)
        plain = ObliqueTree(model.nodes, model.root)
        lam, init, leaves, val_cwa, test_cwa, sweep = self.README[seed]
        assert doc["training"]["config"]["lambda"] == pytest.approx(lam, rel=1e-12)
        assert (doc["training"]["init_used"], model.n_leaves()) == (init, leaves)
        assert metrics.cwa(plain, val) == pytest.approx(val_cwa, rel=1e-12)
        assert metrics.cwa(plain, test) == pytest.approx(test_cwa, rel=1e-12)
        assert [(row["solves"], row["iters"], row["cap_hits"])
                for row in doc["lambda_sweep"]] == sweep

    def test_ten_x_fit_seed_1(self):
        scenario = replace(simulator.ScenarioConfig(), n_packets=1200)
        ds = dataset.standardize(dataset.label_traces(simulator.generate(scenario, seed=1)))
        train_ds, val, test = dataset.split(ds, (0.6, 0.2, 0.2), seed=1)
        result = tao.train(train_ds, tao.TaoConfig(depth=4, lam=0.01, seed=1), val=val)
        init, leaves, val_cwa, test_cwa, stats = self.TEN_X
        assert (result.init_used, result.tree.n_leaves()) == (init, leaves)
        assert metrics.cwa(result.tree, val) == pytest.approx(val_cwa, rel=1e-12)
        assert metrics.cwa(result.tree, test) == pytest.approx(test_cwa, rel=1e-12)
        assert result.solver_stats == stats


README = Path(__file__).resolve().parents[1] / "README.md"
# the argv of each `radiosel` line of the README's "CLI walkthrough" block
WALKTHROUGH = [line.split()[1:] for line in
               README.read_text().split("## CLI walkthrough")[1].split("```")[1].splitlines()
               if line.startswith("radiosel ")]


def _walk(root):
    """Run the walkthrough in process with root as the working directory.
    Returns root, each step's stdout, and the bytes of every file written,
    keyed by path relative to root."""
    stdouts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in WALKTHROUGH:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == 0, argv
            stdouts.append(out.getvalue())
    return root, stdouts, {str(p.relative_to(root)): p.read_bytes()
                           for p in root.rglob("*") if p.is_file()}


class TestWalkthrough:
    """The README's seven steps, run twice in two new directories."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        return [_walk(tmp_path_factory.mktemp(name)) for name in ("a", "b")]

    def test_reruns_byte_for_byte(self, runs):
        """Every output and stdout is byte-identical, and the manifests are
        equal apart from wall_time_s: the contract holds on any host and
        BLAS core, with no pinned digest."""
        (_, stdouts, files), (_, stdouts_again, files_again) = runs
        assert len(WALKTHROUGH) == 7 and stdouts == stdouts_again
        assert set(files) == set(files_again)
        manifests = sorted(name for name in files if Path(name).name == "manifest.json")
        assert len(manifests) == 7 and len(files) == 7 + 16
        for name, data in files.items():
            if name in manifests:
                doc, doc_again = json.loads(data), json.loads(files_again[name])
                assert doc.pop("wall_time_s") >= 0 and doc_again.pop("wall_time_s") >= 0
                assert doc == doc_again, name
            else:
                assert data == files_again[name], name

    def test_float_cells_read_back_exactly(self, runs):
        """replay.csv, cdf.csv and report.csv hold every float to its last
        bit: each cell parses back to the value the library computes."""
        root = runs[0][0]
        traces = dataset.load_traces(root / "sim" / "trace.csv")
        model = tree.load(root / "fit" / "model.json")
        results = [simulator.replay(traces, selector) for selector in (
            simulator.AlwaysSelector(0), simulator.AlwaysSelector(1),
            simulator.OracleSelector(), simulator.ThresholdSelector(3.0),
            simulator.TreeSelector(model))]

        def rows(path):
            with open(root / path, newline="") as fh:
                return list(csv.reader(fh))[1:]

        assert [[row[0], *map(float, row[1:])] for row in rows("replay/replay.csv")] == \
            [[r.selector, r.mean_throughput_bps, r.performance_ratio, r.oracle_gap_bps,
              r.gain_vs_best_single_pct, r.gain_vs_worst_single_pct] for r in results]
        assert [[s, int(p), float(tp)] for s, p, tp in rows("replay/cdf.csv")] == \
            [[r.selector, p, tp] for r in results for p, tp in r.cdf]
        assert [[float(v) for v in row[2:-2]] for row in rows("ex/report.csv")] == \
            [[*r.weights, r.bias] for r in export.report(tree.prune(model))]
