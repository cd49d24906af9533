"""Alternating node-wise tree optimization with monotone objective decrease.

Each pass sweeps depth levels deepest-to-root. Nodes on one level have
disjoint reach sets (they are non-descendants of each other), so their
updates are independent, and the reach sets computed at the start of a pass
stay valid: a node's reach set depends only on its ancestors, which are
visited after it. The tree does not change between passes, so each pass
boundary walks it once (reach_sets): the leaves' reach sets give the
objective of the history, by objective's formula, and are where the next
pass starts. A pass that changes no node is not walked: its tree, and so
its objective, are those of the last walk, and training stops there. So a
job walks its whole tree passes + 1 times if it stops at max_passes and
passes times at a fixed point, and drops the sets when it stops.

A decision node's care set (build_care_set) is its weighted binary problem:
the reaching rows whose child subtrees disagree in loss. The weighted L1
logistic surrogate proposes its best-scoring iterate for it under
SOLVER_CFG's patience rule (see solver), and optimize_decision_node accepts
the candidate only if it strictly improves weighted 0/1 loss plus the L1
penalty under the tree's routing (a candidate with the node's own bytes,
as a solve that returns its init gives, cannot, and is not scored); leaves
take the cost-weighted majority label. Both accept tests use one rule
(_improves) with a tiny relative margin so that rounding-level
"improvements" never make the independently recomputed objective tick
upward. Training stops at a fixed point (a pass that changes no node) or
after max_passes.

Lockstep: optimize_trees advances independent trainings (jobs) together,
pass by pass and, within a pass, level by level (each job's deepest level
first). At each level step a leaf takes its new label when visited, and the
decision nodes of every job that need a solve share one solver.solve_many
call, after which each proposal goes through optimize_decision_node and is
applied if it passes. Because the level's updates are independent, their
order changes no byte, and because solve_many is batch invariant, each
job's tree, history and stats are those it gets alone: optimize_tree is the
one-job case, train runs best_of_both's two inits together, and train_grid
trains any list of (dataset, config) runs in one call: radiosel train's
lambda grid on one split, or eval --kfold's k training splits at the
model's lambda and depth. The care sets of a level are dropped after its
accept tests.

Solve reuse: within one job each decision node remembers the solver inputs
of its last rejected proposal: a SHA-256 digest of the bytes of the care
set's X, y and omega and the node's w, w0, so that -0.0/0.0 stay distinct
and a job holds 32 bytes per node rather than its care sets. When a later
visit finds the same inputs, the node is left unchanged without solving. An
empty care set is never solved and clears the node's key. This is exact (up
to a SHA-256 collision): the solve and the accept test are pure functions
of those inputs, lambda and the solver config, which are fixed within the
job, so a repeated solve would be rejected again.

Telemetry: per pass, each job counts its solves, their iterations and loss
evaluations, and the solves that hit max_iter (TaoResult.pass_stats). A
NumericError from a solve names the job's label (such as "fold 0") if it
has one, its lambda and init, the pass, the level and the node.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import cart, metrics, solver, tree as treemod
from .dataset import Dataset
from .errors import DataError, NumericError
from .tree import DecisionNode, LeafNode, ObliqueTree

ACCEPT_MARGIN = 1e-9   # relative to a node's reaching cost; see the module doc
SOLVER_CFG = solver.SolverConfig(max_iter=200, tol=1e-8, patience=100)
INIT_POLICIES = ("random", "cart", "best_of_both")
MAX_DEPTH = 12   # the random init is a complete tree of 2**depth - 1 decision nodes


@dataclass
class TaoConfig:
    depth: int = 3
    lam: float = 0.0
    max_passes: int = 20
    init_policy: str = "best_of_both"   # one of INIT_POLICIES
    seed: int = 0
    debug_checks: bool = False    # recompute+assert objective after every node

    def __post_init__(self):
        for name in ("depth", "max_passes"):
            if not solver._is_count(getattr(self, name)):
                raise DataError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if self.depth > MAX_DEPTH:
            raise DataError(f"depth must be <= {MAX_DEPTH}, got {self.depth}")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise DataError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise DataError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.init_policy not in INIT_POLICIES:
            raise DataError(f"unknown init policy {self.init_policy!r}")


STAT_KEYS = ("solves", "iters", "loss_evals", "cap_hits")


@dataclass
class TaoResult:
    tree: ObliqueTree
    history: list          # objective after init and after each pass
    init_used: str         # random | cart | warm
    stop_reason: str       # fixed_point | max_passes
    n_passes: int
    pass_stats: list = field(default_factory=list)   # STAT_KEYS counts per pass
    # STAT_KEYS summed over every optimization behind the result (both inits
    # under best_of_both)
    solver_stats: dict = field(default_factory=dict)

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
            "pass_stats": self.pass_stats,
        }


class TaoJob(NamedTuple):
    """One training for optimize_trees: a start tree (copied, not changed),
    its data and config, a name for its init in results and errors, and a
    label that tells apart jobs sharing lambda and init in errors."""

    tree: ObliqueTree
    ds: Dataset
    cfg: TaoConfig
    init: str = "warm"
    label: str = ""


def objective(t: ObliqueTree, ds: Dataset, lam: float) -> float:
    """Cost-weighted misclassification plus lam * sum of |w| over nodes."""
    return _objective(t, ds, lam, t.predict_model(ds.X))


def _objective(t: ObliqueTree, ds: Dataset, lam: float, pred: np.ndarray) -> float:
    """objective from the tree's predictions pred on ds.X."""
    return float(np.sum(ds.c[pred != ds.y])) + lam * t.l1_penalty()


def lambda_unit(ds: Dataset) -> float:
    """glmnet's lambda_max for the dataset: ||X^T (c * (p - [y = 1]))||_inf
    with p = sum(c[y = 1]) / sum(c). That is the largest weight gradient of
    the L1-logistic stump with labels y and weights c at w = 0 and its best
    intercept logit(p), so it is the smallest lambda at which the stump
    keeps w = 0. It has the units of c: a lambda grid in multiples of it
    follows the data's cost scale. Overflow is silent: the unit is then inf."""
    p = np.sum(ds.c[ds.y == 1]) / np.sum(ds.c)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(ds.X.T @ (ds.c * (p - (ds.y == 1))))))


def build_care_set(t: ObliqueTree, nid: int, reach_idx: np.ndarray, ds: Dataset,
                   lam: float) -> solver.WeightedBinaryProblem | None:
    """Care set of a decision node: its reaching rows whose child subtrees
    disagree in loss, y = +1 (send right) or -1 by the cheaper side, omega =
    |loss_left - loss_right| (= c_n for 0/1 loss). None if there is none."""
    node = t.nodes[nid]
    if not isinstance(node, DecisionNode):
        raise DataError(f"node {nid} is not a decision node")
    X, y, c = ds.X[reach_idx], ds.y[reach_idx], ds.c[reach_idx]
    loss_left = np.where(t.subtree_predict(node.left, X) != y, c, 0.0)
    loss_right = np.where(t.subtree_predict(node.right, X) != y, c, 0.0)
    keep = loss_left != loss_right
    if not keep.any():
        return None
    side = np.where(loss_right[keep] < loss_left[keep], 1.0, -1.0)
    return solver.WeightedBinaryProblem(X[keep], side, np.abs(loss_left - loss_right)[keep], lam)


def _improves(new: float, old: float, weight: float) -> bool:
    """The accept rule: a margin relative to the weight at stake (module doc)."""
    return new < old - ACCEPT_MARGIN * max(1.0, weight)


def optimize_decision_node(t: ObliqueTree, nid: int, problem: solver.WeightedBinaryProblem,
                           candidate: solver.LinearModel):
    """The exact accept test of a solver candidate for decision node nid:
    its (w, w0) if it is strictly better than the node's own under weighted
    0/1 loss + L1 penalty on the node's care set, else None (keep current).
    A candidate with the node's own bytes is None unscored."""
    def score(model):
        return solver.weighted_01_loss(model, problem) \
            + problem.lam * float(np.sum(np.abs(model.w)))

    current = solver.LinearModel(t.nodes[nid].w, t.nodes[nid].w0)
    if candidate.w.tobytes() == current.w.tobytes() \
            and np.float64(candidate.w0).tobytes() == np.float64(current.w0).tobytes():
        return None
    if _improves(score(candidate), score(current), float(np.sum(problem.omega))):
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
    if _improves(loss[other], loss[node.label], float(np.sum(c))):
        return other
    return None


class _Training:
    """The state of one job in optimize_trees."""

    def __init__(self, job: TaoJob):
        self.job, self.cfg, self.ds = job, job.cfg, job.ds
        self.tree = job.tree.copy()
        self.history = [self.walk()]
        self.rejected = {}   # decision node id -> solver inputs of its last rejection
        self.pass_stats = []
        self.stop_reason = None

    def begin_pass(self) -> None:
        self.pass_stats.append(dict.fromkeys(STAT_KEYS, 0))
        self.changed = False
        self.e_debug = self.history[-1]
        depths = self.tree.node_depths()
        levels = {}   # depth -> node ids, deepest level first
        for nid in sorted(depths, key=lambda n: (-depths[n], n)):
            levels.setdefault(depths[nid], []).append(nid)
        self.levels = list(levels.items())

    def walk(self) -> float:
        """The pass boundary's one walk of the whole tree: keeps the leaves'
        reach sets, which the next pass starts from, and returns the
        objective their labels give."""
        pred = np.empty(self.ds.n, dtype=int)
        self.reach = {}
        for nid, idx in self.tree.reach_sets(self.ds.X).items():
            node = self.tree.nodes[nid]
            if isinstance(node, LeafNode):
                self.reach[nid] = idx
                pred[idx] = node.label
        return _objective(self.tree, self.ds, self.cfg.lam, pred)

    def take_reach(self, nid: int) -> np.ndarray:
        """The reach set of a decision node: the sorted union of its
        children's, which partition it and are dropped. So a job holds each
        row index once, not once per level, while other jobs run."""
        node = self.tree.nodes[nid]
        both = (self.reach.pop(node.left), self.reach.pop(node.right))
        self.reach[nid] = np.sort(np.concatenate(both))
        return self.reach[nid]

    def where(self, depth: int, nid: int) -> str:
        at = (f"lambda {self.cfg.lam:g}, init {self.job.init}, pass {len(self.pass_stats)}, "
              f"level {depth}, node {nid}")
        return f"{self.job.label}, {at}" if self.job.label else at

    def update(self, nid: int) -> None:
        self.changed = True
        if self.cfg.debug_checks:
            e_now = objective(self.tree, self.ds, self.cfg.lam)
            if e_now > self.e_debug:
                raise NumericError(f"objective increased after updating node {nid}: "
                                   f"{self.e_debug} -> {e_now}")
            self.e_debug = e_now

    def end_pass(self) -> None:
        self.reach = self.levels = None
        if not self.changed:   # the tree the last walk scored
            self.history.append(self.history[-1])
            self.stop_reason = "fixed_point"
            return
        e_pass = self.walk()
        if e_pass > self.history[-1]:
            raise NumericError(f"objective increased across a pass: "
                               f"{self.history[-1]} -> {e_pass}")
        self.history.append(e_pass)
        if len(self.pass_stats) == self.cfg.max_passes:
            self.stop_reason = "max_passes"
            self.reach = None

    def result(self) -> TaoResult:
        totals = {k: sum(p[k] for p in self.pass_stats) for k in STAT_KEYS}
        return TaoResult(treemod.prune(self.tree), self.history, self.job.init,
                         self.stop_reason, len(self.pass_stats), self.pass_stats, totals)


def _reuse_key(problem: solver.WeightedBinaryProblem, node: DecisionNode) -> bytes:
    """SHA-256 of the bytes of a node's solver inputs (see the module doc)."""
    digest = hashlib.sha256()
    for part in (problem.X, problem.y, problem.omega, node.w, np.float64(node.w0)):
        digest.update(part.tobytes())
    return digest.digest()


def _optimize_level(trainings, step: int) -> None:
    """Visit the step-th deepest level of each training: leaves update when
    visited, then one solve_many serves the decision nodes that need a solve."""
    solves = []   # (training, node id, level, problem, reuse key)
    for tr in trainings:
        depth, nids = tr.levels[step]
        for nid in nids:
            node = tr.tree.nodes[nid]
            if isinstance(node, LeafNode):
                label = optimize_leaf(tr.tree, nid, tr.reach[nid], tr.ds)
                if label is not None:
                    node.label = label
                    tr.update(nid)
                continue
            problem = build_care_set(tr.tree, nid, tr.take_reach(nid), tr.ds, tr.cfg.lam)
            if problem is None:
                tr.rejected.pop(nid, None)
                continue
            key = _reuse_key(problem, node)
            if tr.rejected.get(nid) != key:
                solves.append((tr, nid, depth, problem, key))
    stats = []
    candidates = solver.solve_many(
        [problem for _, _, _, problem, _ in solves],
        [solver.LinearModel(tr.tree.nodes[nid].w, tr.tree.nodes[nid].w0)
         for tr, nid, _, _, _ in solves],
        SOLVER_CFG, stats, [tr.where(depth, nid) for tr, nid, depth, _, _ in solves])
    for (tr, nid, _, problem, key), candidate, st in zip(solves, candidates, stats):
        counts = tr.pass_stats[-1]
        counts["solves"] += 1
        counts["iters"] += st.iters
        counts["loss_evals"] += st.loss_evals
        counts["cap_hits"] += st.exit == "cap"
        accepted = optimize_decision_node(tr.tree, nid, problem, candidate)
        if accepted is None:
            tr.rejected[nid] = key
            continue
        tr.tree.nodes[nid].w, tr.tree.nodes[nid].w0 = accepted
        tr.update(nid)


def optimize_trees(jobs) -> list:
    """Run alternating passes for independent jobs in lockstep, one
    TaoResult per job, each as optimize_tree gives it alone (see the module
    doc). The jobs share one feature dimension."""
    trainings = [_Training(job) for job in jobs]
    if len({tr.ds.dim for tr in trainings}) > 1:
        raise DataError("optimize_trees jobs must share one feature dimension")
    active = trainings
    while active:
        for tr in active:
            tr.begin_pass()
        for step in range(max(len(tr.levels) for tr in active)):
            _optimize_level([tr for tr in active if step < len(tr.levels)], step)
        for tr in active:
            tr.end_pass()
        active = [tr for tr in active if tr.stop_reason is None]
    return [tr.result() for tr in trainings]


def optimize_tree(t: ObliqueTree, ds: Dataset, cfg: TaoConfig) -> TaoResult:
    """Run alternating passes on a copy of the given tree (warm start).

    Final tree is pruned; objective history (init value plus one entry per
    pass) is monotonically nonincreasing, enforced with zero tolerance.
    """
    return optimize_trees([TaoJob(t, ds, cfg)])[0]


def _initial_tree(ds: Dataset, cfg: TaoConfig, policy: str) -> ObliqueTree:
    if policy == "random":
        return cart.random_complete(ds.dim, cfg.depth, cfg.seed)
    return cart.grow(ds, cfg.depth)


def train_grid(runs, val: Dataset | None = None, labels=None) -> list:
    """train for each (dataset, config) run, with every optimization in one
    lockstep optimize_trees call; one TaoResult per run. Every dataset is
    checked before any tree is grown. labels, one per run, name the runs
    in errors: a dataset check's and a NumericError from the run's jobs."""
    runs = list(runs)
    labels = labels or [""] * len(runs)
    for (ds, _), label in zip(runs, labels):
        prefix = f"{label}: " if label else ""
        if ds.n < 2:
            raise DataError(f"{prefix}need at least 2 training samples")
        if len(np.unique(ds.y)) < 2:
            raise DataError(f"{prefix}single-class dataset: nothing to separate")
    jobs = [TaoJob(_initial_tree(ds, cfg, policy), ds, cfg, policy, label)
            for (ds, cfg), label in zip(runs, labels)
            for policy in (("random", "cart") if cfg.init_policy == "best_of_both"
                           else (cfg.init_policy,))]
    results = iter(optimize_trees(jobs))
    chosen = []
    for _, cfg in runs:
        if cfg.init_policy != "best_of_both":
            chosen.append(next(results))
            continue
        pair = (next(results), next(results))
        stats = {k: sum(res.solver_stats[k] for res in pair) for k in STAT_KEYS}
        best = min(pair, key=lambda res: (  # a tie prefers 'cart'
            -metrics.cwa(res.tree, val) if val is not None else res.history[-1], res.init_used))
        chosen.append(replace(best, solver_stats=stats))
    return chosen


def train(ds: Dataset, cfg: TaoConfig, val: Dataset | None = None) -> TaoResult:
    """Initialize per cfg.init_policy and optimize.

    best_of_both trains from the random and the greedy init and keeps the
    tree with the lower validation error (higher CWA); without a validation
    set it falls back to the lower final training objective.
    """
    return train_grid([(ds, cfg)], val)[0]
