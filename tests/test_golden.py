"""Pinned SHA-256 digests of the CLI's trace, dataset, replay and sweep
outputs at fixed seeds. The digests were recorded on the row-by-row trace
code; a change to trace generation, labelling, CSV writing, replay or
staleness injection that moves a single byte fails here. The export
digests were recorded on the first program format with a standardization
prologue (program v2). The k-fold eval digests were recorded on the
fold-at-a-time trainer, before the folds trained in lockstep. The trace and
dataset bytes follow numpy's SIMD exp, so SIMULATE is pinned per SIMD class
(conftest.SIMD_CLASS); the other digests agree across classes."""

import hashlib

import numpy as np
import pytest

from conftest import assert_pinned
from radiosel import simulator, tree
from radiosel.cli import main
from radiosel.dataset import Scaler
from radiosel.tree import DecisionNode, LeafNode, ObliqueTree

SIMULATE = {
    "X86_V4": {
        "trace.csv": "3d4b26cc6f6ab0b0c8871eb64436a41f4244f2d424be5610c9124dee49205452",
        "dataset.csv": "d92b8ad8175846031f5d1fba99d0a570353ee286e2e1a6e5c186c2ac99f5247b",
        "cdf.csv": "dad798369c4be1f61041df9337f6fca9c14be2235f490bfb3f88240a458bd717",
        "replay.csv": "50e9bc58d96cb4efa2440b3d5fee62728cc5da4e827733c7045bd561d8691f2a",
    },
    "no_X86_V4": {
        "trace.csv": "7961aa984981e566b9058bef6651508db5f891dd4ef136543a32971ec3fc1a47",
        "dataset.csv": "9c06046c6340db3e023acf95e211b22d2e0b3de041c13b8be180ea0879224f88",
        "cdf.csv": "69c30f16268caf3c53c0b0b732c6c8d35d9b5b28a7fd12a1e51d6241bcb93ab9",
        "replay.csv": "50e9bc58d96cb4efa2440b3d5fee62728cc5da4e827733c7045bd561d8691f2a",
    },
}
SWEEP = "f0319dca476b6ce8c7f8fa2b14e3a91f3eff6da3bda40ac53ca5c905bbc91812"
# 101 nodes: "n100" sorts between "n10" and "n11", so staleness draws that
# follow node-code order instead of sorted-name order change this digest.
SWEEP_101_NODES = "8ab66217ee3bd5ccddcaa480c80f6a3a1b4a3dc8c167dac04ea89edd519b4865"
EXPORT = {
    "program.txt": "b2fce2713f5417ecb54170b07e03be2777f71315664ed4cccfad68d8f2ce3830",
    "report.csv": "8ad99bb8f47ef8e587b0924bd2d01ef5632d7b7a5b80c06376612ef6460998a1",
}
EVAL_KFOLD = {
    "metrics.csv": "88b9cefcc92ee80597a422e684468029c616ea94732e8c16859ceab89ffa94ab",
    "breakdown.csv": "8f1bd60bd69176acc2e9cd7165acb90c60a33740b1c0f9ab4fdb03327ccd27f0",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def save_fixed_model(path):
    """Write a fixed depth-2 tree over standardized features to path."""
    nodes = {0: DecisionNode([0.8, -0.3, -0.5, 0.2], 0.1, 1, 2),
             1: DecisionNode([0.0, 0.4, -0.9, 0.0], -0.2, 3, 4),
             2: DecisionNode([1.1, 0.0, 0.3, -0.6], 0.05, 5, 6),
             3: LeafNode(0), 4: LeafNode(1), 5: LeafNode(0), 6: LeafNode(1)}
    scaler = Scaler(mean=np.array([3.0, -95.0, 0.6, 1.8]),
                    std=np.array([1.4, 6.0, 0.25, 0.9]))
    tree.save(ObliqueTree(nodes, 0, scaler=scaler, lam=0.01), path)
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return save_fixed_model(tmp_path_factory.mktemp("model") / "model.json")


def simulate_argv(model, out):
    """The simulate run that SIMULATE pins."""
    return ["simulate", "--seed", "7", "--model", str(model), "--out-dir", str(out)]


def test_simulate_outputs(tmp_path, model_path):
    out = tmp_path / "sim"
    assert main(simulate_argv(model_path, out)) == 0
    assert_pinned({name: sha256(out / name) for name in SIMULATE["X86_V4"]}, SIMULATE)


def test_sweep_output(tmp_path, model_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--seed", "7", "--model", str(model_path),
                 "--intervals", "5,2,1.5,1.3", "--out-dir", str(out)]) == 0
    assert sha256(out / "sweep.csv") == SWEEP


def test_sweep_output_many_nodes(tmp_path, model_path):
    scenario = tmp_path / "scenario.json"
    distances = tuple(float(d) for d in np.linspace(150.0, 1600.0, 101))
    scenario.write_text(simulator.ScenarioConfig(
        distances_m=distances, n_packets=20).to_json())
    out = tmp_path / "sw"
    assert main(["sweep", "--seed", "3", "--scenario", str(scenario),
                 "--model", str(model_path), "--intervals", "2,1.3",
                 "--out-dir", str(out)]) == 0
    assert sha256(out / "sweep.csv") == SWEEP_101_NODES


def test_export_outputs(tmp_path, model_path):
    out = tmp_path / "ex"
    assert main(["export", "--model", str(model_path), "--out-dir", str(out)]) == 0
    assert {name: sha256(out / name) for name in EXPORT} == EXPORT


def test_eval_kfold_outputs(tmp_path, model_path):
    sim, out = tmp_path / "sim", tmp_path / "ev"
    assert main(["simulate", "--seed", "7", "--out-dir", str(sim)]) == 0
    assert main(["eval", "--model", str(model_path), "--data", str(sim / "dataset.csv"),
                 "--kfold", "5", "--seed", "3", "--out-dir", str(out)]) == 0
    assert {name: sha256(out / name) for name in EVAL_KFOLD} == EVAL_KFOLD
