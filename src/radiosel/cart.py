"""Greedy axis-aligned tree induction and random complete trees.

Both produce ObliqueTree instances: axis splits x_j < tau become one-hot
hyperplanes (w = e_j, w0 = -tau), so the alternating optimizer and every
downstream tool consume them unchanged. Split search minimizes Gini
impurity weighted by per-sample cost, which makes the greedy baseline
cost-aware as well.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .tree import DecisionNode, LeafNode, ObliqueTree


def _majority_label(y: np.ndarray, c: np.ndarray) -> int:
    w_zigbee = float(np.sum(c[y == 0]))
    w_lora = float(np.sum(c[y == 1]))
    # tie keeps the lower encoding (Zigbee) for determinism
    return 1 if w_lora > w_zigbee else 0


def _best_split(X, y, c):
    """(feature, threshold, score) of the best cost-weighted Gini split,
    or None when every feature is constant. Ties resolved to the lowest
    feature index, then threshold. Costs are positive, so both children of
    every candidate split carry positive weight."""
    total = float(np.sum(c))
    best = None
    for j in range(X.shape[1]):
        vals = X[:, j]
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        cw0 = np.cumsum(np.where(y[order] == 0, c[order], 0.0))
        cw1 = np.cumsum(np.where(y[order] == 1, c[order], 0.0))
        # boundary after position k separates v[k] < v[k+1]
        distinct = np.flatnonzero(v[:-1] < v[1:])
        if distinct.size == 0:
            continue
        wl0, wl1 = cw0[distinct], cw1[distinct]
        wl = wl0 + wl1
        wr0, wr1 = cw0[-1] - wl0, cw1[-1] - wl1
        wr = wr0 + wr1
        gini_l = wl - (wl0 * wl0 + wl1 * wl1) / wl
        gini_r = wr - (wr0 * wr0 + wr1 * wr1) / wr
        score = (gini_l + gini_r) / total
        k = int(np.argmin(score))  # first minimum: lowest threshold wins ties
        if best is None or score[k] < best[2]:
            tau = (v[distinct[k]] + v[distinct[k] + 1]) / 2.0
            best = (j, float(tau), float(score[k]))
    return best


def grow(ds: Dataset, max_depth: int) -> ObliqueTree:
    """Greedy recursive partitioning; stops at depth, purity, or when the
    node's samples share one value on every feature."""
    if ds.n < 2:
        raise DataError("need at least 2 samples to grow a tree")
    if max_depth < 0:
        raise DataError("max_depth must be >= 0")
    nodes: dict[int, DecisionNode | LeafNode] = {}
    next_id = [0]

    def alloc() -> int:
        nid = next_id[0]
        next_id[0] += 1
        return nid

    # breadth-first construction so ids read level by level
    root = alloc()
    queue = [(root, np.arange(ds.n), 0)]
    while queue:
        nid, idx, depth = queue.pop(0)
        y, c = ds.y[idx], ds.c[idx]
        pure = np.all(y == y[0])
        split = None
        if depth < max_depth and not pure:
            split = _best_split(ds.X[idx], y, c)
        if split is None:
            nodes[nid] = LeafNode(_majority_label(y, c))
            continue
        j, tau, _ = split
        w = np.zeros(ds.dim)
        w[j] = 1.0
        left, right = alloc(), alloc()
        nodes[nid] = DecisionNode(w, -tau, left, right)
        mask = ds.X[idx, j] < tau
        queue.append((left, idx[mask], depth + 1))
        queue.append((right, idx[~mask], depth + 1))
    return ObliqueTree(nodes, root)


def random_complete(dim: int, depth: int, seed: int = 0) -> ObliqueTree:
    """Complete tree of the given depth: weights and biases i.i.d. uniform
    on [-1, 1], leaf labels alternating. Node ids are level-order."""
    if depth < 1:
        raise DataError("depth must be >= 1")
    rng = np.random.default_rng(seed)
    nodes: dict[int, DecisionNode | LeafNode] = {}
    n_decisions = 2 ** depth - 1
    for nid in range(n_decisions):
        w = rng.uniform(-1.0, 1.0, size=dim)
        w0 = float(rng.uniform(-1.0, 1.0))
        nodes[nid] = DecisionNode(w, w0, 2 * nid + 1, 2 * nid + 2)
    for i in range(2 ** depth):
        nodes[n_decisions + i] = LeafNode(i % 2)
    return ObliqueTree(nodes, 0)
