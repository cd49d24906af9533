import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from radiosel import dataset, simulator, tao, tree
from radiosel.cli import _sha256, main
from radiosel.dataset import Scaler
from radiosel.export import ProgramInterpreter
from radiosel.tree import DecisionNode, LeafNode, ObliqueTree


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
    # the solver's calls
    README_MODEL = "1c01b5728ce1136e49275beb34aec2dc58d07c82c16e56b5b5ac794626ac6e32"
    README_TRAINING = "7e80832de6fb6fb45ba5cf006247e92e392b4bf04d3ce9834a08747454b2c098"
    README_SWEEP_STATS = [(51, 5853, 1), (55, 6274, 2), (57, 6438, 1), (69, 7752, 3),
                          (43, 4144, 0)]

    def test_readme_seed_1_train_pinned(self, tmp_path):
        sim, out = tmp_path / "sim", tmp_path / "fit"
        assert main(["simulate", "--seed", "1", "--out-dir", str(sim)]) == 0
        assert main(["train", "--data", str(sim / "dataset.csv"), "--depth", "4",
                     "--seed", "1", "--out-dir", str(out)]) == 0
        assert _sha256(out / "model.json") == self.README_MODEL
        doc = json.loads((out / "manifest.json").read_text())
        training = {k: v for k, v in doc["training"].items() if k != "pass_stats"}
        assert hashlib.sha256(json.dumps(training, sort_keys=True).encode()).hexdigest() \
            == self.README_TRAINING
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
        ('{"n_nodes": true}', "'n_nodes' must be an integer, got True"),
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
    ], ids=["unknown_field", "not_an_object", "int_float", "int_bool", "list_string",
            "pair_width", "real_string", "real_nan", "gray_region_width", "hop_range_zero",
            "hop_overhead_negative", "std_negative", "seed_negative", "payload_bytes"])
    def test_bad_scenario_exit_3(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["simulate", "--scenario", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []

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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(root="x"), "malformed model field 'root'"),
        (lambda doc: doc.update({"lambda": "abc"}), "malformed model field 'lambda'"),
        (lambda doc: doc["nodes"][0].update(w=[[1.0, 2.0], [3.0, 4.0]]),
         "node 0: weights must be a flat list"),
    ], ids=["root_not_int", "lambda_not_number", "w_two_dimensional"])
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


def test_console_entry_point(tmp_path):
    rc = subprocess.run([sys.executable, "-m", "radiosel.cli", "--version"],
                        capture_output=True, text=True)
    assert rc.returncode == 0


AVX2_ONLY = "AVX512_SPR AVX512_ICL X86_V4"   # NPY_DISABLE_CPU_FEATURES


@pytest.mark.skipif(not ("X86_V4" in __cpu_dispatch__ and __cpu_features__["X86_V4"]),
                    reason="X86_V4 is not enabled on this CPU: no SIMD level to disable")
def test_same_bytes_per_simd_level(tmp_path):
    """simulate and a small train, run twice at the default SIMD level and
    once with the AVX-512 targets disabled: the reruns at one level write
    the same bytes, and the manifests name the two levels apart."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(simulator.ScenarioConfig(n_packets=60).to_json())
    src = str(Path(tree.__file__).resolve().parents[1])

    def run(name, disable):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if disable:
            env["NPY_DISABLE_CPU_FEATURES"] = disable
        out = tmp_path / name
        for argv in (["simulate", "--scenario", str(scenario), "--out-dir", str(out / "sim")],
                     ["train", "--data", str(out / "sim" / "dataset.csv"), "--depth", "2",
                      "--lambda", "0.01", "--out-dir", str(out / "fit")]):
            proc = subprocess.run([sys.executable, "-m", "radiosel.cli", *argv, "--seed", "3"],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                 if p.is_file() and p.name != "manifest.json"}
        levels = [json.loads((out / step / "manifest.json").read_text())["numpy"]
                  for step in ("sim", "fit")]
        assert levels[0] == levels[1]
        return files, levels[0]

    (first, default), (again, default_again), (_, avx2) = \
        run("a", None), run("b", None), run("c", AVX2_ONLY)
    assert {"sim/trace.csv", "sim/dataset.csv", "fit/model.json"} <= set(first)
    assert first == again and default == default_again
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
