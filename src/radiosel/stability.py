"""Warm-started retraining on growing data subsets and structural diffing.

Trains on the smallest fraction, then re-optimizes the converged tree on
each larger (nested) subset. Skeleton equality is the stability criterion;
each stage's tree carries its weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, tao
from .dataset import Dataset, class_permutations
from .errors import DataError
from .tree import ObliqueTree


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


def _nested_subsets(ds: Dataset, fractions, seed: int) -> list[np.ndarray]:
    """One stratified shuffle; fraction f takes the first ceil(f * n_c) of
    each class, so smaller subsets are contained in larger ones."""
    per_class = class_permutations(ds.y, seed)
    subsets = []
    for f in fractions:
        take = []
        for cls, members in enumerate(per_class):
            k = int(np.ceil(f * members.size))
            if members.size and k == 0:
                raise DataError(f"fraction {f} leaves class {cls} empty")
            take.extend(members[:k].tolist())
        subsets.append(np.array(sorted(take), dtype=int))
    return subsets


def stability_run(train_ds: Dataset, test_ds: Dataset, cfg: tao.TaoConfig,
                  fractions=(0.5, 0.75, 1.0), seed: int = 0) -> StabilityReport:
    """Chain of trainings on nested subsets, each warm-started from the
    previous converged tree; reports each stage's signature, test error and
    tree, and whether every stage kept the first stage's signature.

    Whether the test error repeats the decreasing pattern seen on growing
    field data is reported, never asserted.
    """
    fractions = [float(f) for f in fractions]
    if not (fractions and fractions[0] > 0 and abs(fractions[-1] - 1.0) <= 1e-12
            and all(a < b for a, b in zip(fractions, fractions[1:]))):
        # for f < 0, ceil(f * n) is a negative slice bound: it takes rows from the end
        raise DataError(f"fractions must rise strictly from above 0 to 1.0, got {fractions}")
    subsets = _nested_subsets(train_ds, fractions, seed)

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
