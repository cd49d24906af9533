import itertools

import numpy as np
import pytest

from radiosel.cart import grow, random_complete
from radiosel.dataset import Dataset
from radiosel.errors import DataError
from radiosel.tree import DecisionNode, LeafNode


def training_error(tree, ds):
    pred = tree.predict_model(ds.X)
    return float(np.sum(ds.c[pred != ds.y]))


def tiny_dataset(rng, n):
    X = rng.normal(0, 1.5, size=(n, 4))
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    return Dataset(X, y, rng.uniform(0.5, 20.0, n))


def midpoints(values):
    v = np.unique(values)
    return [(a + b) / 2.0 for a, b in zip(v[:-1], v[1:])]


def best_depth2_error(ds):
    """Exhaustive search over all axis-aligned trees of depth <= 2 with
    midpoint thresholds, leaves labeled by cost-weighted majority."""

    def cell_error(mask):
        if not np.any(mask):
            return 0.0
        w0 = float(np.sum(ds.c[mask & (ds.y == 0)]))
        w1 = float(np.sum(ds.c[mask & (ds.y == 1)]))
        return min(w0, w1)

    def splits():
        for j in range(ds.dim):
            for tau in midpoints(ds.X[:, j]):
                yield ds.X[:, j] < tau

    full = np.ones(ds.n, dtype=bool)
    best = cell_error(full)  # depth 0

    def child_error(mask):
        # leaf, or the best single split below this cell
        e = cell_error(mask)
        for s in splits():
            e = min(e, cell_error(mask & s) + cell_error(mask & ~s))
        return e

    for s in splits():
        best = min(best, child_error(s) + child_error(~s))
    return best


class TestGrow:
    def test_separable_single_split(self):
        X = np.zeros((10, 4))
        X[:, 0] = np.concatenate([np.arange(5), np.arange(5) + 10])
        X[:, 1] = np.linspace(-1, 1, 10)
        y = np.array([0] * 5 + [1] * 5)
        ds = Dataset(X, y, np.full(10, 7.0))
        t = grow(ds, max_depth=3)
        assert t.depth == 1
        assert training_error(t, ds) == 0.0

    def test_pure_data_single_leaf(self, rng):
        X = rng.normal(0, 1, size=(12, 4))
        ds = Dataset(X, np.ones(12, dtype=int), np.ones(12))
        t = grow(ds, max_depth=4)
        assert t.n_leaves() == 1
        assert t.nodes[t.root].label == 1

    def test_never_beats_exhaustive_search(self, rng):
        for _ in range(8):
            ds = tiny_dataset(rng, int(rng.integers(6, 13)))
            greedy = training_error(grow(ds, max_depth=2), ds)
            optimum = best_depth2_error(ds)
            assert greedy >= optimum - 1e-9

    def test_splits_are_one_hot(self, rng):
        ds = tiny_dataset(rng, 40)
        t = grow(ds, max_depth=4)
        for nid in t.decision_ids():
            w = t.nodes[nid].w
            assert np.sum(w != 0) == 1
            assert np.max(np.abs(w)) == 1.0

    def test_error_nonincreasing_in_depth(self, rng):
        for _ in range(5):
            ds = tiny_dataset(rng, 60)
            errors = [training_error(grow(ds, max_depth=d), ds) for d in range(6)]
            assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_deterministic_tie_break(self):
        # features 0 and 1 are identical separators; feature 0 must win
        X = np.zeros((4, 4))
        X[:, 0] = [0, 0, 1, 1]
        X[:, 1] = [0, 0, 1, 1]
        ds = Dataset(X + [[1, 1, 0, 1]], np.array([0, 0, 1, 1]), np.ones(4))
        t = grow(ds, max_depth=1)
        node = t.nodes[t.root]
        assert node.w[0] == 1.0

    def test_needs_two_samples(self):
        ds = Dataset(np.ones((1, 4)), np.array([0]), np.array([1.0]))
        with pytest.raises(DataError):
            grow(ds, max_depth=2)


class TestRandomComplete:
    def test_shape(self):
        t = random_complete(dim=4, depth=2, seed=0)
        assert len(t.decision_ids()) == 3
        assert t.n_leaves() == 4
        assert t.depth == 2

    def test_deterministic(self):
        a = random_complete(4, 3, seed=42)
        b = random_complete(4, 3, seed=42)
        for nid in a.decision_ids():
            assert np.array_equal(a.nodes[nid].w, b.nodes[nid].w)
            assert a.nodes[nid].w0 == b.nodes[nid].w0

    def test_golden_seed_123(self):
        # frozen once from the implementation; guards the rng draw order
        t = random_complete(dim=4, depth=1, seed=123)
        node = t.nodes[0]
        assert np.array_equal(node.w, np.array([
            0.3647037264962869, -0.8923579623955546,
            -0.5592802544547772, -0.6312563786026606]))
        assert node.w0 == -0.6481881978299393
        assert t.nodes[1].label == 0 and t.nodes[2].label == 1

    def test_alternating_leaves(self):
        t = random_complete(4, 3, seed=7)
        labels = [t.nodes[i].label for i in t.leaf_ids()]
        assert labels == [i % 2 for i in range(8)]

    def test_weights_in_range(self):
        t = random_complete(4, 4, seed=5)
        for nid in t.decision_ids():
            assert np.all(np.abs(t.nodes[nid].w) <= 1.0)
            assert abs(t.nodes[nid].w0) <= 1.0

    def test_depth_zero_rejected(self):
        with pytest.raises(DataError):
            random_complete(4, 0, seed=0)
