"""Cost-weighted accuracy and the high/low-cost error decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, stratified_kfold_indices
from .errors import DataError
from .tree import ObliqueTree

HIGH_COST_THRESHOLD_BPS = 200.0


def predictions(tree: ObliqueTree, ds: Dataset) -> np.ndarray:
    """Labels for every sample, honoring the feature-space convention:
    a standardized dataset is already in model space, a raw one is scaled
    by the tree's own scaler (if any)."""
    if ds.scaler is not None:
        return tree.predict_model(ds.X)
    return tree.predict_many(ds.X)


def cwa(tree: ObliqueTree, ds: Dataset) -> float:
    """Cost-weighted accuracy in percent: correct cost share of total cost."""
    pred = predictions(tree, ds)
    return 100.0 * float(np.sum(ds.c[pred == ds.y])) / float(np.sum(ds.c))


@dataclass
class ErrorBreakdown:
    n_high: int
    n_low: int
    loss_high: float
    loss_low: float
    threshold: float = HIGH_COST_THRESHOLD_BPS

    @property
    def total_loss(self) -> float:
        return self.loss_high + self.loss_low

    @property
    def n_errors(self) -> int:
        return self.n_high + self.n_low


def error_breakdown(tree: ObliqueTree, ds: Dataset,
                    threshold: float = HIGH_COST_THRESHOLD_BPS) -> ErrorBreakdown:
    """Partition misclassified samples into low-cost (c <= threshold) and
    high-cost (c > threshold) buckets with their summed losses."""
    pred = predictions(tree, ds)
    err_cost = ds.c[pred != ds.y]
    high = err_cost > threshold
    return ErrorBreakdown(
        n_high=int(np.sum(high)),
        n_low=int(np.sum(~high)),
        loss_high=float(np.sum(err_cost[high])),
        loss_low=float(np.sum(err_cost[~high])),
        threshold=threshold,
    )


def kfold_cwa(ds: Dataset, trainer, k: int = 5,
              seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stratified k-fold evaluation of a batch trainer: a callable that
    takes the k training splits in fold order, each the complement of its
    fold with rows in dataset order, and returns one tree per split. So a
    trainer can train all folds together, as eval --kfold does in one
    lockstep TAO run (see tao's module doc).

    Returns (train_cwa, test_cwa): two float arrays of k CWAs in percent,
    in fold order, each fold's tree scored on its training split and on
    the fold. The folds, and the checks on k, are those of
    dataset.stratified_kfold_indices. Each fold's test split is built only
    after training, so the k training splits are the only copies of the
    data alive while the trainer runs.
    """
    folds = stratified_kfold_indices(ds, k, seed)
    train_sets = [ds.subset(np.delete(np.arange(ds.n), fold)) for fold in folds]
    models = list(trainer(train_sets))
    if len(models) != len(folds):
        raise DataError(f"trainer returned {len(models)} trees for {len(folds)} folds")
    train_cwa = np.array([cwa(model, part) for model, part in zip(models, train_sets)])
    test_cwa = np.array([cwa(model, ds.subset(fold)) for model, fold in zip(models, folds)])
    return train_cwa, test_cwa
