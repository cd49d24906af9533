import hashlib
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_kernels_pinned, child, random_dataset, random_tree, stump
from radiosel import cart, metrics, solver, tao
from radiosel.dataset import Dataset
from radiosel.errors import DataError, NumericError
from radiosel.tao import (SOLVER_CFG, TaoConfig, build_care_set, lambda_unit, objective,
                          optimize_decision_node, optimize_leaf,
                          optimize_tree, train)
from radiosel.tree import DecisionNode, LeafNode, ObliqueTree, to_json


def manual_reach(tree, nid, X):
    """Sample indices that reach nid, via scalar root-to-node routing."""
    out = []
    for i, x in enumerate(X):
        cur = tree.root
        while cur != nid and isinstance(tree.nodes[cur], DecisionNode):
            cur = child(tree.nodes[cur], x)
        if cur == nid:
            out.append(i)
    return np.array(out, dtype=int)


def manual_subtree_label(tree, nid, x):
    cur = nid
    while isinstance(tree.nodes[cur], DecisionNode):
        cur = child(tree.nodes[cur], x)
    return tree.nodes[cur].label


class TestObjective:
    def test_perfect_tree_zero(self):
        ds = Dataset(np.array([[1.0, 0, 0, 0], [3.0, 0, 0, 0]]),
                     np.array([0, 1]), np.array([10.0, 20.0]))
        t = stump([1.0, 0, 0, 0], -2.0, left_label=0, right_label=1)
        assert objective(t, ds, 0.0) == 0.0

    def test_single_low_cost_error_plus_penalty(self):
        # two zigbee-wins samples with the field-trace costs 5000 and 100;
        # the stump gets only the 5000 one right
        ds = Dataset(np.array([[1.0, 0, 0, 0], [3.0, 0, 0, 0]]),
                     np.array([0, 0]), np.array([5000.0, 100.0]))
        t = stump([1.0, 0, 0, 0], -2.0, left_label=0, right_label=1)
        lam = 0.5
        assert objective(t, ds, lam) == 100.0 + lam * 1.0

    def test_matches_per_sample_accumulation(self, rng):
        for _ in range(20):
            ds = random_dataset(rng, n=40)
            t = random_tree(rng, depth=2)
            lam = float(rng.uniform(0, 2))
            total = 0.0
            for i in range(ds.n):
                if manual_subtree_label(t, t.root, ds.X[i]) != ds.y[i]:
                    total += ds.c[i]
            penalty = sum(np.sum(np.abs(t.nodes[n].w)) for n in t.decision_ids())
            assert objective(t, ds, lam) == pytest.approx(total + lam * penalty, rel=1e-12)


class TestCareSet:
    def test_leaf_children_disagree(self):
        t = stump([1.0, 0, 0, 0], 0.0, left_label=0, right_label=1)
        ds = Dataset(np.array([[5.0, 0, 0, 0]]), np.array([1]), np.array([5000.0]))
        care = build_care_set(t, 0, np.array([0]), ds, 0.25)
        assert care.X.shape == (1, 4) and care.lam == 0.25
        assert care.y[0] == 1.0      # lora leaf is on the right
        assert care.omega[0] == 5000.0

    def test_agreeing_children_empty(self, rng):
        t = stump([1.0, 0, 0, 0], 0.0, left_label=0, right_label=0)
        ds = random_dataset(rng, n=30)
        assert build_care_set(t, 0, np.arange(30), ds, 0.0) is None
        assert build_care_set(t, 0, np.array([], dtype=int), ds, 0.0) is None

    def test_matches_reroute_oracle(self, rng):
        for _ in range(200):
            t = random_tree(rng, depth=int(rng.integers(1, 4)))
            ds = random_dataset(rng, n=25)
            for nid in t.decision_ids():
                reach = manual_reach(t, nid, ds.X)
                care = build_care_set(t, nid, reach, ds, 0.0)
                node = t.nodes[nid]
                exp_rows, exp_side, exp_w = [], [], []
                for i in reach:
                    ll = ds.c[i] * (manual_subtree_label(t, node.left, ds.X[i]) != ds.y[i])
                    lr = ds.c[i] * (manual_subtree_label(t, node.right, ds.X[i]) != ds.y[i])
                    if ll == lr:
                        continue
                    exp_rows.append(ds.X[i])
                    exp_side.append(1.0 if lr < ll else -1.0)
                    exp_w.append(abs(ll - lr))
                assert (care is None) == (not exp_rows)
                if exp_rows:
                    assert np.array_equal(care.X, np.array(exp_rows))
                    assert np.array_equal(care.y, np.array(exp_side))
                    assert np.array_equal(care.omega, np.array(exp_w))


class TestOptimizeDecisionNode:
    @staticmethod
    def propose(t, nid, care):
        """Training's decision-node step: a solve, then the accept test."""
        node = t.nodes[nid]
        candidate = solver.solve(care, solver.LinearModel(node.w, node.w0), SOLVER_CFG)
        return optimize_decision_node(t, nid, care, candidate)

    def test_separated_care_set_keeps_params(self):
        t = stump([1.0, 0, 0, 0], 0.0, left_label=0, right_label=1)
        care = solver.WeightedBinaryProblem(np.array([[-1.0, 0, 0, 0], [1.0, 0, 0, 0]]),
                                            np.array([-1.0, 1.0]), np.array([3.0, 4.0]))
        assert self.propose(t, 0, care) is None

    def test_single_point_rerouted(self):
        # current node sends x=(1,0,0,0) right; the care set wants it left
        t = stump([1.0, 0, 0, 0], 0.0, left_label=0, right_label=1)
        care = solver.WeightedBinaryProblem(np.array([[1.0, 0, 0, 0]]), np.array([-1.0]),
                                            np.array([10.0]))
        prop = self.propose(t, 0, care)
        assert prop is not None
        w, w0 = prop
        assert float(np.dot(w, [1.0, 0, 0, 0])) + w0 < 0

    def test_update_never_increases_objectives(self, rng):
        for _ in range(30):
            t = random_tree(rng, depth=2)
            ds = random_dataset(rng, n=50)
            lam = float(rng.choice([0.0, 0.1, 1.0]))
            nid = int(rng.choice(t.decision_ids()))
            reach = manual_reach(t, nid, ds.X)
            care = build_care_set(t, nid, reach, ds, lam)
            before = objective(t, ds, lam)
            prop = None if care is None else self.propose(t, nid, care)
            if prop is not None:
                t.nodes[nid].w, t.nodes[nid].w0 = prop
            assert objective(t, ds, lam) <= before

    def test_training_accept_tests_every_solve(self, monkeypatch):
        calls = []
        real = tao.optimize_decision_node

        def counting(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(tao, "optimize_decision_node", counting)
        ds = random_dataset(np.random.default_rng(2024), n=120, cost_scale=2000.0)
        res = train(ds, TaoConfig(depth=3, lam=0.01, init_policy="best_of_both", seed=5))
        assert len(calls) == res.solver_stats["solves"] > 0
        assert any(prop is not None for prop in calls)


    def test_unchanged_proposal_is_not_scored(self, monkeypatch):
        """A candidate with the node's own bytes is rejected unscored; one
        that differs from them only in the sign of a zero is scored."""
        scored = []
        real = solver.weighted_01_loss
        monkeypatch.setattr(solver, "weighted_01_loss",
                            lambda model, problem: scored.append(model) or real(model, problem))
        t = stump([1.0, 0.0, -2.0, 0.5], 0.0, left_label=0, right_label=1)
        care = solver.WeightedBinaryProblem(np.eye(4), np.array([-1.0, 1.0, 1.0, -1.0]),
                                            np.ones(4), 0.1)
        node = t.nodes[0]
        assert optimize_decision_node(t, 0, care, solver.LinearModel(node.w.copy(), 0.0)) is None
        assert scored == []
        for w, w0 in (([1.0, -0.0, -2.0, 0.5], 0.0), ([1.0, 0.0, -2.0, 0.5], -0.0)):
            scored.clear()
            assert optimize_decision_node(t, 0, care, solver.LinearModel(np.array(w), w0)) is None
            assert len(scored) == 2


class TestPassBoundaries:
    def test_one_tree_walk_per_pass_boundary(self, monkeypatch):
        """Each job walks its whole tree once before the first pass and
        once after each pass that changed a node: the walk gives the
        objective and the next pass's reach sets. The pass that finds a
        fixed point keeps the last walk's objective."""
        walks = Counter()
        real = ObliqueTree._walk

        def counting(tree, nid, X):
            if nid == tree.root:
                walks[id(X)] += 1
            return real(tree, nid, X)

        monkeypatch.setattr(ObliqueTree, "_walk", counting)
        rng = np.random.default_rng(7)
        jobs = [tao.TaoJob(random_tree(rng, depth=3), random_dataset(rng, n=90, cost_scale=50.0),
                           TaoConfig(depth=3, lam=lam)) for lam in (0.0, 0.01, 0.1)]
        results = tao.optimize_trees(jobs)
        assert [walks[id(job.ds.X)] for job in jobs] \
            == [res.n_passes + (res.stop_reason == "max_passes") for res in results]
        assert max(res.n_passes for res in results) >= 2


class TestOptimizeLeaf:
    def test_weighted_majority(self):
        t = stump([1.0, 0, 0, 0], 0.0, left_label=0, right_label=0)
        ds = Dataset(np.zeros((3, 4)) + 1.0,
                     np.array([0, 1, 1]), np.array([5.0, 3.0, 3.0]))
        assert optimize_leaf(t, 2, np.arange(3), ds) == 1  # 6 > 5

    def test_empty_reach_keeps(self, rng):
        t = stump([1.0, 0, 0, 0], 0.0, 0, 1)
        ds = random_dataset(rng, n=10)
        assert optimize_leaf(t, 1, np.array([], dtype=int), ds) is None

    def test_tie_keeps_incumbent(self):
        t = stump([1.0, 0, 0, 0], 0.0, left_label=1, right_label=0)
        ds = Dataset(np.ones((2, 4)), np.array([0, 1]), np.array([4.0, 4.0]))
        assert optimize_leaf(t, 1, np.arange(2), ds) is None

    def test_matches_two_candidate_enumeration(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            ds = Dataset(rng.normal(0, 1, (n, 4)), rng.integers(0, 2, n),
                         rng.uniform(0.5, 30, n))
            incumbent = int(rng.integers(0, 2))
            t = stump([1.0, 0, 0, 0], 0.0, incumbent, incumbent)
            prop = optimize_leaf(t, 1, np.arange(n), ds)
            final = incumbent if prop is None else prop
            losses = {lbl: float(np.sum(ds.c[ds.y != lbl])) for lbl in (0, 1)}
            best = min(losses.values())
            assert losses[final] == best or (
                losses[final] == losses[incumbent] == best)
            # strictly-better flips only
            if prop is not None:
                assert losses[prop] < losses[incumbent]


class TestTrain:
    def test_init_already_perfect_constant_history(self, rng):
        X = np.zeros((20, 4))
        X[:, 0] = np.concatenate([np.arange(10), np.arange(10) + 50])
        X[:, 1:] = rng.normal(0, 0.1, (20, 3))
        ds = Dataset(X, np.array([0] * 10 + [1] * 10), np.full(20, 2.0))
        cfg = TaoConfig(depth=1, lam=0.0, init_policy="cart", seed=0)
        res = train(ds, cfg)
        assert len(res.history) >= 1
        assert all(v == res.history[0] for v in res.history)
        assert res.history[0] == 0.0

    def test_xor_pattern_reaches_perfect_training_cwa(self, rng):
        centers = [(-1, -1, 0), (1, 1, 0), (-1, 1, 1), (1, -1, 1)]
        rows, labels = [], []
        gen = np.random.default_rng(5)
        for cx, cy, lbl in centers:
            pts = gen.normal(0, 0.15, size=(10, 2)) + [cx, cy]
            rows.append(pts)
            labels += [lbl] * 10
        ds = Dataset(np.vstack(rows), np.array(labels), np.full(40, 3.0))
        cfg = TaoConfig(depth=2, lam=0.0, init_policy="best_of_both", seed=1)
        res = train(ds, cfg)
        assert metrics.cwa(res.tree, ds) == 100.0

    def test_cost_skew_stump_matches_exhaustive(self):
        # five cheap samples and one expensive one on a line; no single
        # threshold is perfect, so the cheap mass must be sacrificed
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        X = np.zeros((6, 4))
        X[:, 0] = x
        y = np.array([0, 0, 1, 0, 0, 0])
        c = np.array([1.0, 1.0, 100.0, 1.0, 1.0, 1.0])
        ds = Dataset(X, y, c)
        cfg = TaoConfig(depth=1, lam=0.0, init_policy="cart", seed=0)
        res = train(ds, cfg)

        # exhaustive optimum over all (threshold, left label, right label)
        best = min(float(np.sum(c[y != lbl])) for lbl in (0, 1))
        for tau in (x[:-1] + x[1:]) / 2.0:
            for ll in (0, 1):
                for rl in (0, 1):
                    pred = np.where(x < tau, ll, rl)
                    best = min(best, float(np.sum(c[pred != y])))
        assert objective(res.tree, ds, 0.0) == best
        # the expensive sample is classified correctly
        assert res.tree.predict(X[2]) == 1

    def test_single_class_errors(self, rng):
        ds = Dataset(rng.normal(0, 1, (10, 4)), np.zeros(10, dtype=int), np.ones(10))
        with pytest.raises(DataError, match="single-class"):
            train(ds, TaoConfig(depth=2))

    def test_history_monotone_nonincreasing(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, n=80, cost_scale=5000.0)
            cfg = TaoConfig(depth=3, lam=float(rng.choice([0.0, 0.01, 0.1])),
                            init_policy="random", seed=int(rng.integers(1000)))
            res = train(ds, cfg)
            assert all(b <= a for a, b in zip(res.history, res.history[1:]))

    def test_best_of_both_uses_validation(self, rng):
        ds = random_dataset(rng, n=120)
        val = random_dataset(rng, n=40)
        res = train(ds, TaoConfig(depth=2, init_policy="best_of_both", seed=3), val=val)
        assert res.init_used in ("random", "cart")

    def test_pruned_output_has_no_zero_hyperplanes(self, rng):
        ds = random_dataset(rng, n=100, cost_scale=10.0)
        res = train(ds, TaoConfig(depth=3, lam=5.0, init_policy="random", seed=2))
        for nid in res.tree.decision_ids():
            assert np.any(res.tree.nodes[nid].w != 0.0)

    def test_leaf_reach_partition(self, rng):
        ds = random_dataset(rng, n=60)
        res = train(ds, TaoConfig(depth=3, init_policy="random", seed=4))
        reach = res.tree.reach_sets(ds.X)
        leaf_total = sum(reach[nid].size for nid in res.tree.leaf_ids())
        assert leaf_total == ds.n
        combined = np.sort(np.concatenate([reach[n] for n in res.tree.leaf_ids()]))
        assert np.array_equal(combined, np.arange(ds.n))


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_config_rejects_bad_lambda(lam):
    with pytest.raises(DataError, match=f"lambda must be finite and >= 0, got {lam}"):
        TaoConfig(lam=lam)


@pytest.mark.parametrize("kwargs, message", [
    ({"depth": 0}, "depth must be an integer >= 1, got 0"),
    ({"depth": 2.0}, "depth must be an integer >= 1, got 2.0"),
    ({"depth": True}, "depth must be an integer >= 1, got True"),
    ({"depth": 13}, "depth must be <= 12, got 13"),
    ({"max_passes": 0}, "max_passes must be an integer >= 1, got 0"),
    ({"max_passes": 1.5}, "max_passes must be an integer >= 1, got 1.5"),
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"seed": False}, "seed must be an integer >= 0, got False"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
], ids=["depth_zero", "depth_float", "depth_bool", "depth_above_max", "max_passes_zero",
        "max_passes_float", "seed_float", "seed_bool", "seed_negative"])
def test_config_validation(kwargs, message):
    with pytest.raises(DataError, match=message):
        TaoConfig(**kwargs)


class TestLambdaUnit:
    # lambda_unit is the surrogate's lambda_max, so the stump is fit by the
    # surrogate minimizer (no patience), not by TAO's proposal config
    SURROGATE_CFG = solver.SolverConfig(max_iter=200, tol=1e-8)

    def test_doubling_costs_doubles_unit(self, rng):
        for _ in range(5):
            ds = random_dataset(rng, n=80, cost_scale=2000.0)
            # a power-of-two scale is exact in every product and sum
            assert lambda_unit(Dataset(ds.X, ds.y, 2.0 * ds.c)) == 2.0 * lambda_unit(ds)

    def test_stump_is_all_zero_from_the_unit_up(self, rng):
        for _ in range(5):
            ds = random_dataset(rng, n=80)
            unit = lambda_unit(ds)
            p = np.sum(ds.c[ds.y == 1]) / np.sum(ds.c)
            init = solver.LinearModel(np.zeros(ds.dim), np.log(p / (1 - p)))
            side = np.where(ds.y == 1, 1.0, -1.0)
            for factor, all_zero in ((1.01, True), (0.99, False)):
                problem = solver.WeightedBinaryProblem(ds.X, side, ds.c, factor * unit)
                fit = solver.solve(problem, init, self.SURROGATE_CFG)
                assert (not np.any(fit.w)) == all_zero

    def test_zero_features_zero_unit(self):
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), np.ones(4))
        assert lambda_unit(ds) == 0.0


class TestFixedPointAndSeparability:
    def test_rerun_fixed_point(self, rng):
        for _ in range(5):
            ds = random_dataset(rng, n=60, cost_scale=2000.0)
            cfg = TaoConfig(depth=2, lam=0.01, init_policy="cart",
                            seed=int(rng.integers(100)))
            res = train(ds, cfg)
            again = optimize_tree(res.tree, ds, cfg)
            assert again.history[-1] == res.history[-1]
            assert again.tree.structural_signature() == res.tree.structural_signature()

    def test_rerun_determinism(self, rng):
        for seed in (0, 1, 2):
            ds = random_dataset(rng, n=100, cost_scale=4000.0)
            cfg = TaoConfig(depth=3, lam=0.01, init_policy="random", seed=seed)
            first, second = train(ds, cfg), train(ds, cfg)
            assert first.history == second.history
            assert to_json(first.tree) == to_json(second.tree)

    def test_debug_checks_pass(self, rng):
        ds = random_dataset(rng, n=70, cost_scale=3000.0)
        cfg = TaoConfig(depth=3, lam=0.1, init_policy="random", seed=9,
                        debug_checks=True)
        res = train(ds, cfg)
        assert all(b <= a for a, b in zip(res.history, res.history[1:]))

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_debug_checks_change_no_byte(self, rng, depth):
        """Checking the objective after every update, in the order a level
        applies them, leaves the trees, histories and counts of a run
        without the checks, through train and through train_grid."""
        ds, val = random_dataset(rng, n=90, cost_scale=3000.0), random_dataset(rng, n=30)

        def summary(results):
            return [(to_json(r.tree), r.history, r.pass_stats) for r in results]

        for seed in (0, 1, 2):
            plain = [TaoConfig(depth=depth, lam=lam, seed=seed, init_policy="best_of_both")
                     for lam in (0.0, 0.01)]
            checked = [replace(cfg, debug_checks=True) for cfg in plain]
            grid = tao.train_grid([(ds, cfg) for cfg in plain + checked], val)
            assert summary(grid[:2]) == summary(grid[2:]) \
                == summary([train(ds, cfg, val) for cfg in checked])

    def test_warm_start_helps_on_grown_data(self, rng):
        wins = 0
        trials = 10
        for trial in range(trials):
            ds = random_dataset(rng, n=60, cost_scale=500.0)
            cfg = TaoConfig(depth=2, lam=0.0, init_policy="cart", seed=trial)
            base = train(ds, cfg)
            grown = Dataset(np.vstack([ds.X, ds.X[:1]]),
                            np.concatenate([ds.y, ds.y[:1]]),
                            np.concatenate([ds.c, ds.c[:1]]))
            warm = optimize_tree(base.tree, grown, cfg)
            cold = train(grown, cfg)
            if warm.history[-1] <= cold.history[-1]:
                wins += 1
        assert wins >= trials // 2


class TestSolveReuse:
    # sha256 of to_json(tree) for _train(lam) under TAO's proposal config,
    # recorded with solve reuse disabled: reuse must not change a byte of
    # the trained model. The solver's exp makes them differ per SIMD class,
    # and the BLAS kernels of its products with Z per kernel family.
    GOLDEN = {
        0.0: {
            ("X86_V4", "SkylakeX"):
                "f4f595d370161bc15d6947c0f19ef27f1c979eb83f3b9055c84f4f0763042266",
            ("no_X86_V4", "SkylakeX"):
                "f06f4aded4efbbb5304d2bfcb7fa219ed96fbde2a2bf093e8022d7d3ba0a11e0",
            ("X86_V4", "Haswell"):
                "48b3b164bd0e72f9c50062bb2708b694911cc29dd09eaf1a2399068bf64fea0a",
            ("no_X86_V4", "Haswell"):
                "434f8d689bee8825cae862b569a8db4398042ebee57e4dd326fcc021721ce9d5"},
        0.01: {
            ("X86_V4", "SkylakeX"):
                "d8a8ad6c3f1a7789fee55b23aef0f8cf22a9b17634929917295be24e5142812d",
            ("no_X86_V4", "SkylakeX"):
                "d8e55b512139cf90a668edf0d5bf9d6f55d2c91af654238076cdd6ac24f3c9fe",
            ("X86_V4", "Haswell"):
                "aad27c9f3b4e20aab7553b87064cc24c1f9ab15e1221ae46adc291fd15e53790",
            ("no_X86_V4", "Haswell"):
                "6710e81ebd0716c2cdac584dd7c5d9297e3a7dbe67b95a93ce50b6e366a36af1"},
    }

    @staticmethod
    def _train(lam):
        ds = random_dataset(np.random.default_rng(2024), n=120, cost_scale=2000.0)
        return train(ds, TaoConfig(depth=4, lam=lam, init_policy="best_of_both", seed=5))

    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_golden_digest(self, lam):
        digest = hashlib.sha256(to_json(self._train(lam).tree).encode()).hexdigest()
        assert_kernels_pinned(digest, self.GOLDEN[lam])

    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_no_repeated_solve_within_optimize_tree(self, lam, monkeypatch):
        per_init = {}   # init named in the solve's label -> Counter of solver inputs
        real_solve_many = solver.solve_many

        def counting_solve_many(problems, inits, cfg=None, stats=None, names=None):
            for problem, init, name in zip(problems, inits, names):
                key = (problem.X.tobytes(), problem.y.tobytes(), problem.omega.tobytes(),
                       init.w.tobytes(), np.float64(init.w0).tobytes())
                per_init.setdefault(name.split(", ")[1], Counter())[key] += 1
            return real_solve_many(problems, inits, cfg, stats, names)

        monkeypatch.setattr(solver, "solve_many", counting_solve_many)
        result = self._train(lam)
        assert sorted(per_init) == ["init cart", "init random"]   # best_of_both
        assert sum(sum(c.values()) for c in per_init.values()) \
            == result.solver_stats["solves"] > 0
        assert all(n == 1 for c in per_init.values() for n in c.values())


    def test_empty_care_set_clears_the_reuse_key(self, monkeypatch):
        """A node whose care set goes C -> empty -> C is solved on both visits
        with C: the empty care set clears the node's last rejected inputs,
        so solve counts are those of a run without reuse."""
        # the stump already separates C, so its proposal is rejected
        C = solver.WeightedBinaryProblem(np.array([[-1.0, 0, 0, 0], [1.0, 0, 0, 0]]),
                                         np.array([-1.0, 1.0]), np.ones(2))
        cares = iter([C, None, C])
        monkeypatch.setattr(tao, "build_care_set", lambda *args: next(cares))
        # the left leaf reaches no row; flipping it keeps every pass changing
        monkeypatch.setattr(tao, "optimize_leaf", lambda t, nid, reach, ds:
                            1 - t.nodes[nid].label if nid == 1 else None)
        ds = Dataset(np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]]), np.array([0, 1]), np.ones(2))
        res = optimize_tree(stump([1.0, 0, 0, 0], 0.0, 0, 1), ds, TaoConfig(depth=1, max_passes=3))
        assert [p["solves"] for p in res.pass_stats] == [1, 0, 1]


class TestOptimizeTrees:
    @staticmethod
    def _jobs(rng):
        """Jobs that differ in data, lambda, init, depth, max_passes and
        debug_checks."""
        datasets = [random_dataset(rng, n=90, cost_scale=2000.0),
                    random_dataset(rng, n=60, cost_scale=50.0)]
        jobs = []
        for i, (lam, depth, passes, debug) in enumerate([
                (0.0, 2, 20, False), (0.01, 3, 1, True), (0.5, 4, 3, False),
                (0.01, 4, 20, True), (0.0, 3, 2, False), (2.0, 1, 20, False)]):
            ds = datasets[i % 2]
            cfg = TaoConfig(depth=depth, lam=lam, max_passes=passes, seed=i,
                            debug_checks=debug)
            if i % 3:
                jobs.append(tao.TaoJob(cart.random_complete(ds.dim, depth, i), ds, cfg,
                                       "random"))
            else:
                jobs.append(tao.TaoJob(cart.grow(ds, depth), ds, cfg, "cart"))
        return jobs

    def test_lockstep_matches_one_job_at_a_time(self, rng):
        jobs = self._jobs(rng)
        starts = [to_json(job.tree) for job in jobs]
        together = tao.optimize_trees(jobs)
        assert [to_json(job.tree) for job in jobs] == starts   # start trees untouched
        assert {res.stop_reason for res in together} == {"fixed_point", "max_passes"}
        for job, res in zip(jobs, together):
            alone = tao.optimize_trees([job])[0]
            assert to_json(res.tree) == to_json(alone.tree)
            assert res.history == alone.history
            assert (res.stop_reason, res.n_passes, res.init_used) \
                == (alone.stop_reason, alone.n_passes, job.init)
            assert res.pass_stats == alone.pass_stats
            assert len(res.pass_stats) == res.n_passes <= job.cfg.max_passes
            if res.stop_reason == "max_passes":
                assert res.n_passes == job.cfg.max_passes
            assert res.solver_stats == {k: sum(p[k] for p in res.pass_stats)
                                        for k in tao.STAT_KEYS}
            warm = optimize_tree(job.tree, job.ds, job.cfg)
            assert to_json(warm.tree) == to_json(res.tree) and warm.init_used == "warm"

    def test_each_solve_many_call_is_one_level_step(self, rng, monkeypatch):
        """Every solve_many call of optimize_trees holds the solves of one
        pass and one level step (a tree's depth minus the node's level), in
        job order, and each step has at most one call: a job whose levels
        are done waits for the others before its next pass."""
        jobs = [job._replace(label=f"job {i}") for i, job in enumerate(self._jobs(rng))]
        depths = [max(job.tree.node_depths().values()) for job in jobs]
        calls = []
        real_solve_many = solver.solve_many

        def spy(problems, inits, cfg=None, stats=None, names=None):
            if names:
                calls.append([tuple(map(int, re.match(
                    r"job (\d+), .*, pass (\d+), level (\d+), node (\d+)$", name).groups()))
                    for name in names])
            return real_solve_many(problems, inits, cfg, stats, names)

        monkeypatch.setattr(solver, "solve_many", spy)
        results = tao.optimize_trees(jobs)
        assert sum(len(call) for call in calls) == sum(r.solver_stats["solves"] for r in results)
        steps = []
        for call in calls:
            in_call = {(p, depths[job] - level) for job, p, level, _ in call}
            assert len(in_call) == 1
            assert call == sorted(call)   # job order, then node order within a job
            steps += in_call
        assert steps == sorted(set(steps))
        # calls that mix depths, over several passes: where waiting matters
        assert any(len({depths[job] for job, *_ in call}) > 1 for call in calls)
        assert len({p for p, _ in steps}) > 1

    @staticmethod
    def _assert_train_grid_matches_train(runs, val=None):
        for (ds, cfg), res in zip(runs, tao.train_grid(runs, val=val), strict=True):
            alone = train(ds, cfg, val=val)
            assert to_json(res.tree) == to_json(alone.tree)
            assert (res.history, res.init_used, res.stop_reason, res.n_passes,
                    res.pass_stats, res.solver_stats) \
                == (alone.history, alone.init_used, alone.stop_reason, alone.n_passes,
                    alone.pass_stats, alone.solver_stats)

    def test_train_grid_matches_train(self, rng):
        ds, val = random_dataset(rng, n=80, cost_scale=900.0), random_dataset(rng, n=30)
        self._assert_train_grid_matches_train(
            [(ds, TaoConfig(depth=3, lam=lam, seed=4, init_policy=policy))
             for lam, policy in ((0.0, "best_of_both"), (0.01, "cart"),
                                 (0.1, "random"), (0.01, "best_of_both"))], val=val)

    def test_train_grid_over_datasets_matches_train(self, rng):
        # eval --kfold's shape: one config over several training splits,
        # plus runs that differ in both dataset and config
        datasets = [random_dataset(rng, n=n, cost_scale=scale)
                    for n, scale in ((70, 900.0), (50, 30.0), (90, 5000.0), (40, 1.0))]
        cfg = TaoConfig(depth=3, lam=0.01, seed=2, init_policy="cart")
        self._assert_train_grid_matches_train([(ds, cfg) for ds in datasets])
        self._assert_train_grid_matches_train(
            [(ds, TaoConfig(depth=depth, lam=lam, seed=i, init_policy=policy, max_passes=passes))
             for i, (ds, depth, lam, policy, passes) in enumerate(zip(
                 datasets, (2, 4, 3, 1), (0.0, 0.1, 0.01, 0.5),
                 ("best_of_both", "random", "cart", "best_of_both"), (20, 2, 20, 20)))],
            val=datasets[0])

    def test_train_grid_checks_every_dataset_before_growing(self, rng, monkeypatch):
        good = random_dataset(rng, n=30)
        one_class = Dataset(good.X, np.zeros(good.n, dtype=int), good.c)
        grown = []
        monkeypatch.setattr(tao, "_initial_tree", lambda *args: grown.append(args))
        cfg = TaoConfig(depth=2, init_policy="cart")
        for bad, message in ((good.subset([0]), "at least 2 training samples"),
                             (one_class, "single-class")):
            with pytest.raises(DataError, match=message):
                tao.train_grid([(good, cfg), (good, cfg), (bad, cfg)])
        assert grown == []

    def test_labels_tell_apart_jobs_in_errors(self, rng):
        # x0 + x1 overflows on every row of the second job's data
        X = np.array([[1e308, 1e308, 0.0, 1.0], [-1e308, -1e308, 1.0, 0.0],
                      [1e308, 1e308, 0.5, 0.5], [-1e308, -1e308, 1.0, 1.0]])
        t = stump([1.0, 1.0, 0.0, 0.0], 0.0, left_label=1, right_label=0)
        cfg = TaoConfig(depth=1)
        jobs = [tao.TaoJob(t, random_dataset(rng, n=20), cfg, label="fold 0"),
                tao.TaoJob(t, Dataset(X, np.array([0, 1, 1, 0]), np.ones(4)), cfg,
                           label="fold 1")]
        with pytest.raises(NumericError, match="^fold 1, lambda 0, init warm, pass 1, "
                                               "level 0, node 0: non-finite objective"):
            tao.optimize_trees(jobs)

    def test_jobs_share_a_dimension(self, rng):
        a, b = random_dataset(rng, n=20), random_dataset(rng, n=20, dim=3)
        jobs = [tao.TaoJob(cart.grow(ds, 2), ds, TaoConfig(depth=2)) for ds in (a, b)]
        with pytest.raises(DataError, match="share one feature dimension"):
            tao.optimize_trees(jobs)

    def test_non_finite_objective_names_the_node(self):
        # x0 + x1 overflows on every row: the loss at the node's init is inf
        X = np.array([[1e308, 1e308, 0.0, 1.0], [-1e308, -1e308, 1.0, 0.0],
                      [1e308, 1e308, 0.5, 0.5], [-1e308, -1e308, 1.0, 1.0]])
        ds = Dataset(X, np.array([0, 1, 1, 0]), np.ones(4))
        t = stump([1.0, 1.0, 0.0, 0.0], 0.0, left_label=1, right_label=0)
        with pytest.raises(NumericError, match="^lambda 0.25, init warm, pass 1, level 0, "
                                               "node 0: non-finite objective at init"):
            optimize_tree(t, ds, TaoConfig(depth=1, lam=0.25))
