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

Lockstep: each training (job) is one generator, _train, that runs its
passes in algorithm order; per level, deepest first, it yields its decision
nodes' solver requests and is sent their candidates for the accept tests.
optimize_trees advances the jobs pass by pass and, within a pass, level
step by level step (the k-th step is each job's k-th deepest level), and
serves each step's requests, in job order, with one solver.solve_many call.
A job whose levels are done waits at the pass's barrier (it yields None)
until every job has finished the pass, so each call holds one level step of
one pass whatever the jobs' depths: the batches, and so the solver's
rounds, follow from the pass and the level alone. Because a level's updates
are independent, their order changes no byte, and because solve_many is
batch invariant, each job's tree, history and stats are those it gets
alone: optimize_tree is the one-job case, train runs best_of_both's two
inits together, and train_grid trains any list of (dataset, config) runs in
one call: radiosel train's lambda grid on one split, or eval --kfold's k
training splits at the model's lambda and depth. A job keeps a level's
care sets until it builds the next level's.

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
from .tree import MAX_DEPTH, DecisionNode, LeafNode, ObliqueTree

ACCEPT_MARGIN = 1e-9   # relative to a node's reaching cost; see the module doc
SOLVER_CFG = solver.SolverConfig(max_iter=200, tol=1e-8, patience=100)
INIT_POLICIES = ("random", "cart", "best_of_both")


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


def _reuse_key(problem: solver.WeightedBinaryProblem, node: DecisionNode) -> bytes:
    """SHA-256 of the bytes of a node's solver inputs (see the module doc)."""
    digest = hashlib.sha256()
    for part in (problem.X, problem.y, problem.omega, node.w, np.float64(node.w0)):
        digest.update(part.tobytes())
    return digest.digest()


def _walk(t: ObliqueTree, ds: Dataset, lam: float):
    """The pass boundary's one walk of the whole tree: the leaves' reach
    sets, which the pass starts from, and the objective their labels give."""
    pred, reach = np.empty(ds.n, dtype=int), {}
    for nid, idx in t.reach_sets(ds.X).items():
        if isinstance(t.nodes[nid], LeafNode):
            reach[nid] = idx
            pred[idx] = t.nodes[nid].label
    return reach, _objective(t, ds, lam, pred)


def _train(job: TaoJob):
    """One job's passes in algorithm order, as a generator that returns its
    TaoResult. For each level, deepest first, it yields the level's solver
    requests (node id, problem, reuse key, init, error name) and is sent
    one (candidate, SolveStats) per request; at the end of each pass it
    yields None (the barrier of the module doc)."""
    cfg, ds, t = job.cfg, job.ds, job.tree.copy()
    depths = t.node_depths()
    levels = {}   # depth -> node ids, deepest level first; the topology is fixed
    for nid in sorted(depths, key=lambda n: (-depths[n], n)):
        levels.setdefault(depths[nid], []).append(nid)
    history, pass_stats, rejected = [], [], {}   # rejected: node id -> its last reuse key
    prefix = f"{job.label}, " if job.label else ""

    def update(nid: int) -> None:
        nonlocal changed, e_debug
        changed = True
        if cfg.debug_checks:
            e_now = objective(t, ds, cfg.lam)
            if e_now > e_debug:
                raise NumericError(f"objective increased after updating node {nid}: "
                                   f"{e_debug} -> {e_now}")
            e_debug = e_now

    while True:
        reach, e_pass = _walk(t, ds, cfg.lam)
        if history and e_pass > history[-1]:
            raise NumericError(f"objective increased across a pass: {history[-1]} -> {e_pass}")
        history.append(e_pass)
        if len(pass_stats) == cfg.max_passes:
            stop_reason = "max_passes"
            break
        counts = dict.fromkeys(STAT_KEYS, 0)
        pass_stats.append(counts)
        changed, e_debug = False, e_pass
        for depth, nids in levels.items():
            requests = []
            for nid in nids:
                node = t.nodes[nid]
                if isinstance(node, LeafNode):
                    label = optimize_leaf(t, nid, reach[nid], ds)
                    if label is not None:
                        node.label = label
                        update(nid)
                    continue
                # a decision node's reach set is the sorted union of its
                # children's, which partition it and are dropped: a job holds
                # each row index once, not once per level
                reach[nid] = np.sort(np.concatenate((reach.pop(node.left), reach.pop(node.right))))
                problem = build_care_set(t, nid, reach[nid], ds, cfg.lam)
                if problem is None:
                    rejected.pop(nid, None)
                    continue
                key = _reuse_key(problem, node)
                if rejected.get(nid) != key:
                    requests.append((nid, problem, key, solver.LinearModel(node.w, node.w0),
                                     f"{prefix}lambda {cfg.lam:g}, init {job.init}, "
                                     f"pass {len(pass_stats)}, level {depth}, node {nid}"))
            for (nid, problem, key, _, _), (candidate, st) in zip(requests, (yield requests)):
                counts["solves"] += 1
                counts["iters"] += st.iters
                counts["loss_evals"] += st.loss_evals
                counts["cap_hits"] += st.exit == "cap"
                accepted = optimize_decision_node(t, nid, problem, candidate)
                if accepted is None:
                    rejected[nid] = key
                    continue
                t.nodes[nid].w, t.nodes[nid].w0 = accepted
                update(nid)
        yield None
        if not changed:   # the tree the last walk scored
            history.append(history[-1])
            stop_reason = "fixed_point"
            break
    totals = {k: sum(p[k] for p in pass_stats) for k in STAT_KEYS}
    return TaoResult(treemod.prune(t), history, job.init, stop_reason, len(pass_stats),
                     pass_stats, totals)


def optimize_trees(jobs) -> list:
    """Run alternating passes for independent jobs in lockstep, one
    TaoResult per job, each as optimize_tree gives it alone (see the module
    doc). The jobs share one feature dimension."""
    jobs = list(jobs)
    if len({job.ds.dim for job in jobs}) > 1:
        raise DataError("optimize_trees jobs must share one feature dimension")
    results = [None] * len(jobs)
    live = {i: _train(job) for i, job in enumerate(jobs)}
    while live:   # one pass: each live job stops or steps up to its barrier
        replies = dict.fromkeys(live)   # job -> what it is sent at this level step
        while replies:
            asked, stepping = [], {}
            for i, reply in replies.items():
                try:
                    requests = live[i].send(reply)
                except StopIteration as stop:
                    results[i] = stop.value
                    del live[i]
                    continue
                if requests is not None:   # None: the job waits at the barrier
                    stepping[i] = []
                    asked += [(i, problem, init, name) for _, problem, _, init, name in requests]
            if asked:
                stats = []
                candidates = solver.solve_many([problem for _, problem, _, _ in asked],
                                               [init for _, _, init, _ in asked], SOLVER_CFG,
                                               stats, [name for _, _, _, name in asked])
                for (i, _, _, _), candidate, st in zip(asked, candidates, stats):
                    stepping[i].append((candidate, st))
            replies = stepping
    return results


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
    inits = [("random", "cart") if cfg.init_policy == "best_of_both" else (cfg.init_policy,)
             for _, cfg in runs]
    jobs = [TaoJob(_initial_tree(ds, cfg, policy), ds, cfg, policy, label)
            for (ds, cfg), label, policies in zip(runs, labels, inits) for policy in policies]
    results = iter(optimize_trees(jobs))
    chosen = []
    for policies in inits:
        group = [next(results) for _ in policies]
        stats = {k: sum(res.solver_stats[k] for res in group) for k in STAT_KEYS}
        best = min(group, key=lambda res: (  # a tie prefers 'cart'
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
