import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from conftest import child, random_dataset, random_tree, stump
from radiosel import cart, metrics, solver, tao
from radiosel.dataset import Dataset
from radiosel.errors import DataError, NumericError
from radiosel.tao import (CareSet, TaoConfig, build_care_set, lambda_unit, objective,
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
        care = build_care_set(t, 0, np.array([0]), ds)
        assert care.size == 1
        assert care.side[0] == 1.0      # lora leaf is on the right
        assert care.omega[0] == 5000.0

    def test_agreeing_children_empty(self, rng):
        t = stump([1.0, 0, 0, 0], 0.0, left_label=0, right_label=0)
        ds = random_dataset(rng, n=30)
        care = build_care_set(t, 0, np.arange(30), ds)
        assert care.size == 0

    def test_matches_reroute_oracle(self, rng):
        for _ in range(200):
            t = random_tree(rng, depth=int(rng.integers(1, 4)))
            ds = random_dataset(rng, n=25)
            for nid in t.decision_ids():
                reach = manual_reach(t, nid, ds.X)
                care = build_care_set(t, nid, reach, ds)
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
                assert care.size == len(exp_rows)
                if exp_rows:
                    assert np.array_equal(care.X, np.array(exp_rows))
                    assert np.array_equal(care.side, np.array(exp_side))
                    assert np.array_equal(care.omega, np.array(exp_w))


class TestOptimizeDecisionNode:
    def test_separated_care_set_keeps_params(self):
        t = stump([1.0, 0, 0, 0], 0.0, left_label=0, right_label=1)
        care = CareSet(np.array([[-1.0, 0, 0, 0], [1.0, 0, 0, 0]]),
                       np.array([-1.0, 1.0]), np.array([3.0, 4.0]))
        assert optimize_decision_node(t, 0, care, 0.0) is None

    def test_empty_care_set_keeps_params(self):
        t = stump([1.0, 0, 0, 0], 0.0, 0, 1)
        care = CareSet(np.empty((0, 4)), np.empty(0), np.empty(0))
        assert optimize_decision_node(t, 0, care, 0.0) is None

    def test_single_point_rerouted(self):
        # current node sends x=(1,0,0,0) right; the care set wants it left
        t = stump([1.0, 0, 0, 0], 0.0, left_label=0, right_label=1)
        care = CareSet(np.array([[1.0, 0, 0, 0]]), np.array([-1.0]), np.array([10.0]))
        prop = optimize_decision_node(t, 0, care, 0.0)
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
            care = build_care_set(t, nid, reach, ds)
            before = objective(t, ds, lam)
            prop = optimize_decision_node(t, nid, care, lam)
            if prop is not None:
                t.nodes[nid].w, t.nodes[nid].w0 = prop
            assert objective(t, ds, lam) <= before


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
    ({"max_passes": 0}, "max_passes must be an integer >= 1, got 0"),
    ({"max_passes": 1.5}, "max_passes must be an integer >= 1, got 1.5"),
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"seed": False}, "seed must be an integer >= 0, got False"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
], ids=["depth_zero", "depth_float", "depth_bool", "max_passes_zero", "max_passes_float",
        "seed_float", "seed_bool", "seed_negative"])
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
    # the trained model
    GOLDEN = {
        0.0: "874b978acd021b0c9dbbe3facd93ef6291a0b25869dc5aaa571eb9e54c488c28",
        0.01: "2834d3393c957af95818cf4100b492c110ea7346e36d6f74d56eec223b816fa9",
    }

    @staticmethod
    def _train(lam):
        ds = random_dataset(np.random.default_rng(2024), n=120, cost_scale=2000.0)
        return train(ds, TaoConfig(depth=4, lam=lam, init_policy="best_of_both", seed=5))

    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_golden_digest(self, lam):
        digest = hashlib.sha256(to_json(self._train(lam).tree).encode()).hexdigest()
        assert digest == self.GOLDEN[lam]

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
