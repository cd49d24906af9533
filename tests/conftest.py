"""Shared builders for randomized tests. Everything is seed-deterministic."""

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from radiosel.cli import blas_core
from radiosel.dataset import Dataset
from radiosel.tree import DecisionNode, LeafNode, ObliqueTree, scores

# The dispatch targets numpy enabled, as manifests record them. Its float64
# exp and log1p kernels round one way with X86_V4 (AVX-512) enabled and
# another at X86_V3 and the X86_V2 baseline, so a value that follows their
# last bits (a trace or tree digest) is pinned once per class.
SIMD_TARGETS = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
SIMD_CLASS = "X86_V4" if __cpu_features__.get("X86_V4") else "no_X86_V4"
SIMD_NOTE = f"pinned for SIMD class {SIMD_CLASS}; numpy enables {SIMD_TARGETS} here"

# A value that also follows the solver's products with Z (a tree digest) is
# pinned per (SIMD class, BLAS kernel family): numpy's OpenBLAS picks its
# kernels by the CPU when it loads, and each family orders its multiply-adds
# its own way. The family of each core name blas_core() reads; forced with
# OPENBLAS_CORETYPE on an AVX-512 Xeon, Cooperlake and SapphireRapids load
# the SkylakeX kernels and Zen the Haswell ones.
BLAS_FAMILIES = {"SkylakeX": "SkylakeX", "Cooperlake": "SkylakeX",
                 "SapphireRapids": "SkylakeX", "Haswell": "Haswell", "Zen": "Haswell"}
BLAS_CORE = blas_core()
KERNELS = (SIMD_CLASS, BLAS_FAMILIES.get(BLAS_CORE))
KERNELS_NOTE = f"pinned for {KERNELS}; numpy enables {SIMD_TARGETS}, BLAS core {BLAS_CORE}"


def pytest_report_header(config):
    return f"numpy {np.__version__}, SIMD dispatch targets {SIMD_TARGETS}, " \
           f"pinned-digest class {SIMD_CLASS}, BLAS core {BLAS_CORE} " \
           f"(kernel family {KERNELS[1]})"


def assert_pinned(got, per_class):
    """got equals the value pinned for this host's SIMD class. A host whose
    bytes match neither class fails with its dispatch targets named."""
    assert got == per_class[SIMD_CLASS], SIMD_NOTE


def kernels_pin(per_kernels):
    """The value pinned for this host's (SIMD class, BLAS kernel family).
    A BLAS core of no known family fails, named."""
    assert KERNELS[1] is not None, \
        f"no pins for BLAS core {BLAS_CORE!r}: it is in no family of conftest.BLAS_FAMILIES"
    return per_kernels[KERNELS]


def assert_kernels_pinned(got, per_kernels):
    """got equals the value pinned for this host's SIMD class and BLAS
    kernel family (kernels_pin)."""
    assert got == kernels_pin(per_kernels), KERNELS_NOTE


def random_dataset(rng, n=60, dim=4, cost_scale=1000.0, separation=1.0):
    """Noisy linearly-flavored classification data with positive costs."""
    X = rng.normal(0.0, 1.0, size=(n, dim))
    w = rng.normal(0.0, 1.0, size=dim)
    score = X @ w + separation * rng.normal(0.0, 0.3, size=n)
    y = (score > 0).astype(int)
    if len(np.unique(y)) < 2:  # force both classes
        y[0], y[1] = 0, 1
    c = rng.uniform(1.0, cost_scale, size=n)
    return Dataset(X, y, c)


def random_tree(rng, dim=4, depth=2, zero_prob=0.0):
    """Complete random tree; with zero_prob, some hyperplanes are all-zero."""
    nodes = {}
    n_dec = 2 ** depth - 1
    for nid in range(n_dec):
        if zero_prob and rng.random() < zero_prob:
            w = np.zeros(dim)
        else:
            w = rng.normal(0.0, 1.0, size=dim)
        nodes[nid] = DecisionNode(w, float(rng.normal(0.0, 1.0)), 2 * nid + 1, 2 * nid + 2)
    for i in range(2 ** depth):
        nodes[n_dec + i] = LeafNode(int(rng.integers(0, 2)))
    return ObliqueTree(nodes, 0)


def leaf_tree(label):
    return ObliqueTree({0: LeafNode(label)}, 0)


def check_replay(result, traces, selector):
    """result is replay(traces, selector): its mean, ratio and CDF equal,
    bit for bit, those of the per-packet throughputs that selector.choose
    and the trace's columns give. Returns (choices, achieved, oracle)."""
    choices = np.asarray(selector.choose(traces))
    achieved = np.where(choices == 0, traces.tp_zigbee, traces.tp_lora)
    oracle = np.maximum(traces.tp_zigbee, traces.tp_lora)
    mean = float(np.mean(achieved))
    assert result.mean_throughput_bps == mean
    assert result.performance_ratio == mean / float(np.mean(oracle))
    assert result.cdf == [(p, float(np.percentile(achieved, p))) for p in range(1, 101)]
    return choices, achieved, oracle


def boundary_adjacent_inputs(tree, rng, per_node=50, eps_rel=1e-6):
    """Model-space points solving w.x + w0 = +-eps for every hyperplane."""
    rows = []
    for nid in tree.decision_ids():
        node = tree.nodes[nid]
        nrm2 = float(node.w @ node.w)
        scale = max(1.0, abs(node.w0))
        for _ in range(per_node):
            x = rng.normal(0.0, 2.0, size=node.w.shape[0])
            x = x - (float(node.w @ x) + node.w0) / nrm2 * node.w  # onto the plane
            for sign in (1.0, -1.0):
                rows.append(x + sign * eps_rel * scale * node.w / nrm2)
    return np.array(rows) if rows else np.empty((0, tree.dim or 4))


def child(node, x):
    """Child id a decision node sends x to, by the routing kernel on a
    one-row matrix (score 0 goes right): one step of ObliqueTree.predict."""
    s = scores(node.w, node.w0, np.asarray(x, dtype=float).reshape(1, -1))[0]
    return node.left if s < 0 else node.right


def stump(w, w0, left_label, right_label):
    return ObliqueTree({0: DecisionNode(np.asarray(w, dtype=float), w0, 1, 2),
                        1: LeafNode(left_label), 2: LeafNode(right_label)}, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
