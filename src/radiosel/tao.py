"""Alternating node-wise tree optimization with monotone objective decrease.

Each pass sweeps depth levels deepest-to-root. Nodes on one level have
disjoint reach sets (they are non-descendants of each other), so their
updates are independent, and the reach sets computed at the start of a pass
stay valid: a node's reach set depends only on its ancestors, which are
visited after it.

Decision nodes delegate to the weighted L1 logistic surrogate, which
proposes its best-scoring iterate under SOLVER_CFG's patience rule (see
solver), and accept the candidate only if it strictly improves weighted 0/1
loss plus the L1 penalty under the tree's routing; leaves take the
cost-weighted majority label. Acceptance uses a tiny relative margin so that
rounding-level "improvements" never make the independently recomputed
objective tick upward. Training stops at a fixed point (a pass that changes
no node) or after max_passes.

Solve reuse: within one optimize_tree call each decision node remembers the
solver inputs of its last rejected proposal (care-set X, side, omega and the
node's w, w0, compared by bytes so that -0.0/0.0 stay distinct). When a
later visit finds the same inputs, the node is left unchanged without
solving. This is exact: the solve and the accept test are pure functions of
those inputs, lambda and the solver config, which are fixed within the call,
so a repeated solve would be rejected again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cart, metrics, solver, tree as treemod
from .dataset import Dataset
from .errors import DataError, NumericError
from .tree import DecisionNode, LeafNode, ObliqueTree

ACCEPT_MARGIN = 1e-9   # relative to a node's reaching cost; see the module doc
SOLVER_CFG = solver.SolverConfig(max_iter=200, tol=1e-8, patience=100)


@dataclass
class TaoConfig:
    depth: int = 3
    lam: float = 0.0
    max_passes: int = 20
    init_policy: str = "best_of_both"   # random | cart | best_of_both
    seed: int = 0
    debug_checks: bool = False    # recompute+assert objective after every node

    def __post_init__(self):
        if self.depth < 1:
            raise DataError("depth must be >= 1")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise DataError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if self.max_passes < 1:
            raise DataError("max_passes must be >= 1")
        if self.init_policy not in ("random", "cart", "best_of_both"):
            raise DataError(f"unknown init policy {self.init_policy!r}")


@dataclass
class CareSet:
    """Reduced problem at a decision node: points whose two child subtrees
    disagree in loss, pseudo-labeled with the cheaper side."""

    X: np.ndarray
    side: np.ndarray    # +1 send right, -1 send left
    omega: np.ndarray   # |loss_left - loss_right| (= c_n for 0/1 loss)

    @property
    def size(self) -> int:
        return self.X.shape[0]


@dataclass
class TaoResult:
    tree: ObliqueTree
    history: list          # objective after init and after each pass
    init_used: str         # random | cart | warm
    stop_reason: str       # fixed_point | max_passes
    n_passes: int

    def to_manifest(self, cfg: TaoConfig) -> dict:
        return {
            "config": {
                "depth": cfg.depth, "lambda": cfg.lam,
                "max_passes": cfg.max_passes,
                "init_policy": cfg.init_policy, "seed": cfg.seed,
                "solver": {"max_iter": SOLVER_CFG.max_iter, "tol": SOLVER_CFG.tol,
                           "patience": SOLVER_CFG.patience},
            },
            "objective_history": [float(v) for v in self.history],
            "init_used": self.init_used,
            "stop_reason": self.stop_reason,
            "n_passes": self.n_passes,
        }


def objective(t: ObliqueTree, ds: Dataset, lam: float) -> float:
    """Cost-weighted misclassification plus lam * sum of |w| over nodes."""
    pred = t.predict_model(ds.X)
    return float(np.sum(ds.c[pred != ds.y])) + lam * t.l1_penalty()


def lambda_unit(ds: Dataset) -> float:
    """glmnet's lambda_max for the dataset: ||X^T (c * (p - [y = 1]))||_inf
    with p = sum(c[y = 1]) / sum(c). That is the largest weight gradient of
    the L1-logistic stump with labels y and weights c at w = 0 and its best
    intercept logit(p), so it is the smallest lambda at which the stump
    keeps w = 0. It has the units of c: a lambda grid in multiples of it
    follows the data's cost scale."""
    p = np.sum(ds.c[ds.y == 1]) / np.sum(ds.c)
    return float(np.max(np.abs(ds.X.T @ (ds.c * (p - (ds.y == 1))))))


def build_care_set(t: ObliqueTree, nid: int, reach_idx: np.ndarray, ds: Dataset) -> CareSet:
    """Reduced binary problem for a decision node given its reaching rows."""
    node = t.nodes[nid]
    if not isinstance(node, DecisionNode):
        raise DataError(f"node {nid} is not a decision node")
    X = ds.X[reach_idx]
    y = ds.y[reach_idx]
    c = ds.c[reach_idx]
    if reach_idx.size == 0:
        return CareSet(X, np.empty(0), np.empty(0))
    loss_left = np.where(t.subtree_predict(node.left, X) != y, c, 0.0)
    loss_right = np.where(t.subtree_predict(node.right, X) != y, c, 0.0)
    keep = loss_left != loss_right
    side = np.where(loss_right[keep] < loss_left[keep], 1.0, -1.0)
    return CareSet(X[keep], side, np.abs(loss_left - loss_right)[keep])


def optimize_decision_node(t: ObliqueTree, nid: int, care: CareSet, lam: float):
    """Solver candidate for one node; returns (w, w0) if strictly better
    under weighted 0/1 loss + L1 penalty, else None (keep current)."""
    node = t.nodes[nid]
    if care.size == 0:
        return None
    problem = solver.WeightedBinaryProblem(care.X, care.side, care.omega, lam)
    current = solver.LinearModel(node.w, node.w0)
    candidate = solver.solve(problem, current, SOLVER_CFG)
    cur_score = solver.weighted_01_loss(current, problem) + lam * float(np.sum(np.abs(node.w)))
    cand_score = solver.weighted_01_loss(candidate, problem) \
        + lam * float(np.sum(np.abs(candidate.w)))
    margin = ACCEPT_MARGIN * max(1.0, float(np.sum(care.omega)))
    if cand_score < cur_score - margin:
        return candidate.w.copy(), candidate.w0
    return None


def optimize_leaf(t: ObliqueTree, nid: int, reach_idx: np.ndarray, ds: Dataset):
    """Cost-weighted majority label; returns new label or None to keep.
    Empty reach and exact ties keep the incumbent."""
    node = t.nodes[nid]
    if not isinstance(node, LeafNode):
        raise DataError(f"node {nid} is not a leaf")
    if reach_idx.size == 0:
        return None
    y, c = ds.y[reach_idx], ds.c[reach_idx]
    loss = [float(np.sum(c[y != 0])), float(np.sum(c[y != 1]))]
    other = 1 - node.label
    margin = ACCEPT_MARGIN * max(1.0, float(np.sum(c)))
    if loss[other] < loss[node.label] - margin:
        return other
    return None


def _decision_proposal(t, nid, reach_idx, ds, cfg, rejected: dict):
    """optimize_decision_node, skipped when the node's solver inputs are
    byte-identical to those of its last rejected proposal (see module doc)."""
    node = t.nodes[nid]
    care = build_care_set(t, nid, reach_idx, ds)
    key = (care.X.tobytes(), care.side.tobytes(), care.omega.tobytes(),
           node.w.tobytes(), np.float64(node.w0).tobytes())
    if rejected.get(nid) == key:
        return None
    prop = optimize_decision_node(t, nid, care, cfg.lam)
    if prop is None:
        rejected[nid] = key
    return prop


def optimize_tree(t: ObliqueTree, ds: Dataset, cfg: TaoConfig) -> TaoResult:
    """Run alternating passes on a copy of the given tree (warm start).

    Final tree is pruned; objective history (init value plus one entry per
    pass) is monotonically nonincreasing, enforced with zero tolerance.
    """
    work = t.copy()
    history = [objective(work, ds, cfg.lam)]
    stop_reason = "max_passes"
    n_passes = 0
    rejected = {}   # decision node id -> solver inputs of its last rejection
    for _ in range(cfg.max_passes):
        n_passes += 1
        changed = False
        e_debug = history[-1]
        reach = work.reach_sets(ds.X)
        depths = work.node_depths()
        for nid in sorted(depths, key=lambda n: (-depths[n], n)):
            node = work.nodes[nid]
            if isinstance(node, LeafNode):
                label = optimize_leaf(work, nid, reach[nid], ds)
                if label is None:
                    continue
                node.label = label
            else:
                prop = _decision_proposal(work, nid, reach[nid], ds, cfg, rejected)
                if prop is None:
                    continue
                node.w, node.w0 = prop
            changed = True
            if cfg.debug_checks:
                e_now = objective(work, ds, cfg.lam)
                if e_now > e_debug:
                    raise NumericError(
                        f"objective increased after updating node {nid}: "
                        f"{e_debug} -> {e_now}")
                e_debug = e_now
        e_pass = objective(work, ds, cfg.lam)
        if e_pass > history[-1]:
            raise NumericError(f"objective increased across a pass: "
                               f"{history[-1]} -> {e_pass}")
        history.append(e_pass)
        if not changed:
            stop_reason = "fixed_point"
            break
    pruned = treemod.prune(work)
    return TaoResult(pruned, history, "warm", stop_reason, n_passes)


def _initial_tree(ds: Dataset, cfg: TaoConfig, policy: str) -> ObliqueTree:
    if policy == "random":
        return cart.random_complete(ds.dim, cfg.depth, cfg.seed)
    return cart.grow(ds, cfg.depth)


def train(ds: Dataset, cfg: TaoConfig, val: Dataset | None = None) -> TaoResult:
    """Initialize per cfg.init_policy and optimize.

    best_of_both trains from the random and the greedy init and keeps the
    tree with the lower validation error (higher CWA); without a validation
    set it falls back to the lower final training objective.
    """
    if ds.n < 2:
        raise DataError("need at least 2 training samples")
    if len(np.unique(ds.y)) < 2:
        raise DataError("single-class dataset: nothing to separate")
    if cfg.init_policy in ("random", "cart"):
        init = _initial_tree(ds, cfg, cfg.init_policy)
        result = optimize_tree(init, ds, cfg)
        return replace(result, init_used=cfg.init_policy)

    candidates = []
    for policy in ("random", "cart"):
        res = replace(optimize_tree(_initial_tree(ds, cfg, policy), ds, cfg),
                      init_used=policy)
        if val is not None:
            score = -metrics.cwa(res.tree, val)
        else:
            score = res.history[-1]
        candidates.append((score, policy, res))
    candidates.sort(key=lambda item: (item[0], item[1]))  # tie prefers 'cart'
    return candidates[0][2]

