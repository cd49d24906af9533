"""Warm-started retraining on growing data subsets and structural diffing.

Trains on the smallest fraction, then re-optimizes the converged tree on
each larger (nested) subset. Skeleton equality is the stability criterion;
each stage's tree carries its weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, tao
from .dataset import Dataset, nested_subsets
from .errors import DataError
from .tree import ObliqueTree

DEFAULT_FRACTIONS = (0.5, 0.75, 1.0)


@dataclass
class StabilityStage:
    fraction: float
    signature: str
    test_error_pct: float
    tree: ObliqueTree


@dataclass
class StabilityReport:
    stages: list                      # StabilityStage per fraction
    all_signatures_equal: bool        # every stage's signature is the first's
    test_error_monotone_nonincreasing: bool


def stability_run(train_ds: Dataset, test_ds: Dataset, cfg: tao.TaoConfig,
                  fractions=DEFAULT_FRACTIONS, seed: int = 0) -> StabilityReport:
    """Chain of trainings on nested subsets, each warm-started from the
    previous converged tree; reports each stage's signature, test error and
    tree, and whether every stage kept the first stage's signature.

    Whether the test error repeats the decreasing pattern seen on growing
    field data is reported, never asserted.
    """
    fractions = [float(f) for f in fractions]
    subsets = nested_subsets(train_ds, fractions, seed)

    stages = []
    prev_tree = None
    for f, idx in zip(fractions, subsets):
        sub = train_ds.subset(idx)
        if len(np.unique(sub.y)) < 2:
            raise DataError(f"subset for fraction {f} has a single class")
        if prev_tree is None:
            result = tao.train(sub, cfg)
        else:
            result = tao.optimize_tree(prev_tree, sub, cfg)
        prev_tree = result.tree
        stages.append(StabilityStage(
            fraction=f,
            signature=result.tree.structural_signature(),
            test_error_pct=100.0 - metrics.cwa(result.tree, test_ds),
            tree=result.tree,
        ))

    same = all(s.signature == stages[0].signature for s in stages)
    errors = [s.test_error_pct for s in stages]
    monotone = all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    return StabilityReport(stages, same, monotone)
