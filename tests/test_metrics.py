import numpy as np
import pytest

from conftest import leaf_tree, random_dataset, random_tree, stump
from radiosel.dataset import Dataset, stratified_kfold_indices
from radiosel.errors import DataError
from radiosel.metrics import (ErrorBreakdown, cwa, error_breakdown, kfold_cwa,
                              predictions)


def table1_pair():
    """The two zigbee-wins samples with costs 5000 (high) and 100 (low)."""
    X = np.array([[1.0, 0, 0, 0], [3.0, 0, 0, 0]])
    return Dataset(X, np.array([0, 0]), np.array([5000.0, 100.0]))


class TestCwa:
    def test_all_correct_is_100(self, rng):
        ds = random_dataset(rng, n=30)
        t = leaf_tree(0)
        ds.y[:] = 0
        assert cwa(t, ds) == 100.0

    def test_only_low_cost_correct(self):
        ds = table1_pair()
        t = stump([1.0, 0, 0, 0], -2.0, left_label=1, right_label=0)
        # hn=1 -> left (wrong, costs 5000); hn=3 -> right (correct, 100)
        assert cwa(t, ds) == pytest.approx(100.0 * 100.0 / 5100.0, abs=1e-9)

    def test_only_high_cost_correct(self):
        ds = table1_pair()
        t = stump([1.0, 0, 0, 0], -2.0, left_label=0, right_label=1)
        assert cwa(t, ds) == pytest.approx(100.0 * 5000.0 / 5100.0, abs=1e-9)

    def test_uniform_costs_equal_plain_accuracy(self, rng):
        for _ in range(30):
            ds = random_dataset(rng, n=40)
            ds.c[:] = 7.0
            t = random_tree(rng, depth=2)
            acc = float(np.mean(predictions(t, ds) == ds.y))
            assert cwa(t, ds) == pytest.approx(100.0 * acc, rel=1e-12)

    def test_cost_rescaling_invariant(self, rng):
        ds = random_dataset(rng, n=50)
        t = random_tree(rng, depth=2)
        before = cwa(t, ds)
        scaled = Dataset(ds.X, ds.y, ds.c * 37.5)
        assert cwa(t, scaled) == pytest.approx(before, rel=1e-12)

    def test_bounds_and_100_iff_no_misclassified_cost(self, rng):
        for _ in range(20):
            ds = random_dataset(rng, n=30)
            t = random_tree(rng, depth=2)
            value = cwa(t, ds)
            assert 0.0 <= value <= 100.0
            mis = float(np.sum(ds.c[predictions(t, ds) != ds.y]))
            assert (value == 100.0) == (mis == 0.0)


class TestErrorBreakdown:
    def test_no_errors(self, rng):
        ds = random_dataset(rng, n=10)
        ds.y[:] = 1
        b = error_breakdown(leaf_tree(1), ds)
        assert (b.n_high, b.n_low, b.loss_high, b.loss_low) == (0, 0, 0.0, 0.0)

    def test_table1_costs_bucketized(self):
        ds = table1_pair()
        t = leaf_tree(1)  # misclassifies both zigbee samples
        b = error_breakdown(t, ds)
        assert b.n_low == 1 and b.n_high == 1
        assert b.loss_low == 100.0 and b.loss_high == 5000.0

    def test_exactly_200_is_low(self):
        ds = Dataset(np.ones((1, 4)), np.array([0]), np.array([200.0]))
        b = error_breakdown(leaf_tree(1), ds)
        assert b.n_low == 1 and b.n_high == 0

    def test_matches_brute_filter(self, rng):
        for _ in range(30):
            ds = random_dataset(rng, n=40, cost_scale=500.0)
            t = random_tree(rng, depth=2)
            b = error_breakdown(t, ds)
            pred = predictions(t, ds)
            high = [c for p, yy, c in zip(pred, ds.y, ds.c) if p != yy and c > 200.0]
            low = [c for p, yy, c in zip(pred, ds.y, ds.c) if p != yy and c <= 200.0]
            assert b.n_high == len(high) and b.n_low == len(low)
            assert b.loss_high == pytest.approx(sum(high), rel=1e-12, abs=1e-12)
            assert b.loss_low == pytest.approx(sum(low), rel=1e-12, abs=1e-12)

    def test_loss_identity_with_cwa(self, rng):
        for _ in range(20):
            ds = random_dataset(rng, n=60, cost_scale=3000.0)
            t = random_tree(rng, depth=2)
            b = error_breakdown(t, ds)
            total = float(np.sum(ds.c))
            expected = (1.0 - cwa(t, ds) / 100.0) * total
            assert b.total_loss == pytest.approx(expected, rel=1e-9, abs=1e-9)


class ConstantTrainer:
    """Batch trainer returning a single-leaf majority-cost model per split;
    it records the splits of each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, train_sets):
        self.calls.append(train_sets)
        return [leaf_tree(int(np.sum(ds.c[ds.y == 1]) > np.sum(ds.c[ds.y == 0])))
                for ds in train_sets]


class TestKFold:
    def test_constant_trainer_cost_share(self, rng):
        # dominant class 0: every fold's model predicts 0, so test CWA is
        # exactly class 0's cost share of that fold
        n = 60
        X = rng.normal(0, 1, (n, 4))
        y = np.array([0] * 50 + [1] * 10)
        c = rng.uniform(1, 10, n)
        ds = Dataset(X, y, c)
        train_cwa, test_cwa = kfold_cwa(ds, ConstantTrainer(), k=5, seed=1)
        folds = stratified_kfold_indices(ds, 5, seed=1)
        for i, fold in enumerate(folds):
            share = 100.0 * float(np.sum(c[fold][y[fold] == 0])) / float(np.sum(c[fold]))
            assert test_cwa[i] == pytest.approx(share, rel=1e-12)
            rest = np.setdiff1d(np.arange(n), fold)
            share = 100.0 * float(np.sum(c[rest][y[rest] == 0])) / float(np.sum(c[rest]))
            assert train_cwa[i] == pytest.approx(share, rel=1e-12)

    def test_leave_one_out_boundary(self, rng):
        ds = random_dataset(rng, n=8)
        train_cwa, test_cwa = kfold_cwa(ds, ConstantTrainer(), k=8, seed=0)
        assert train_cwa.shape == test_cwa.shape == (8,)
        assert train_cwa.dtype == test_cwa.dtype == np.float64

    def test_deterministic(self, rng):
        ds = random_dataset(rng, n=40)
        a = kfold_cwa(ds, ConstantTrainer(), k=4, seed=3)
        b = kfold_cwa(ds, ConstantTrainer(), k=4, seed=3)
        assert len(a) == len(b) == 2
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_class_too_small_errors(self, rng):
        X = rng.normal(0, 1, (20, 4))
        y = np.array([0] * 17 + [1] * 3)
        ds = Dataset(X, y, np.ones(20))
        with pytest.raises(DataError, match="fewer than"):
            kfold_cwa(ds, ConstantTrainer(), k=5, seed=0)

    def test_trainer_called_once_with_the_fold_complements_in_order(self, rng):
        ds = random_dataset(rng, n=45)
        trainer = ConstantTrainer()
        kfold_cwa(ds, trainer, k=5, seed=4)
        assert len(trainer.calls) == 1
        folds = stratified_kfold_indices(ds, 5, seed=4)
        splits = trainer.calls[0]
        assert len(splits) == 5
        for fold, split in zip(folds, splits):
            rest = np.setdiff1d(np.arange(ds.n), fold)
            assert np.array_equal(split.X, ds.X[rest])
            assert np.array_equal(split.y, ds.y[rest]) and np.array_equal(split.c, ds.c[rest])

    def test_trainer_must_return_one_tree_per_fold(self, rng):
        ds = random_dataset(rng, n=40)
        with pytest.raises(DataError, match="trainer returned 4 trees for 5 folds"):
            kfold_cwa(ds, lambda train_sets: ConstantTrainer()(train_sets)[:4], k=5, seed=0)
