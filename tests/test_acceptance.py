"""Acceptance suite: one test per contracted criterion, each printing a
[PASS]/[FAIL] line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import time

import numpy as np
import pytest

from conftest import boundary_adjacent_inputs, check_replay, child, random_dataset, random_tree
from radiosel import cart, dataset, metrics, simulator, solver, stability, tao
from radiosel import tree as treemod
from radiosel.export import ProgramInterpreter, codegen
from radiosel.tree import DecisionNode, ObliqueTree, prune


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {title}")
                raise
            print(f"\n[PASS] criterion {num}: {title}")
        return wrapper
    return deco


# ---------- shared field-scenario runs (criteria 4, 5, 6) ----------

@pytest.fixture(scope="module")
def field_runs():
    """Per seed: cost-weighted and cost-blind TAO trees plus a greedy
    baseline, all on default-scenario data."""
    cfg_s = simulator.ScenarioConfig()
    runs = []
    for seed in range(10):
        traces = simulator.generate(cfg_s, seed=seed)
        ds = dataset.standardize(dataset.label_traces(traces))
        tr, va, te = dataset.split(ds, (0.6, 0.2, 0.2), seed=seed)
        tcfg = tao.TaoConfig(depth=4, lam=0.01, init_policy="cart", seed=seed)
        res_cw = tao.train(tr, tcfg, val=va)
        tr_blind = dataset.Dataset(tr.X, tr.y, np.ones(tr.n), scaler=tr.scaler)
        res_cb = tao.train(tr_blind, tcfg, val=va)
        cart_tree = cart.grow(tr, max_depth=8)
        runs.append(dict(seed=seed, traces=traces, ds=ds, train=tr, val=va, test=te,
                         scaler=ds.scaler, cw=res_cw, cb=res_cb, cart=cart_tree))
    return runs


def _with_scaler(t, scaler):
    return ObliqueTree(t.nodes, t.root, scaler=scaler, lam=t.lam)


@criterion(1, "training objective nonincreasing, zero tolerance, under 1 minute")
def test_criterion_01_monotonic_decrease():
    start = time.time()
    master = np.random.default_rng(2024)
    cfg_s = simulator.ScenarioConfig()
    depths = [1, 2, 3, 4]
    lams = [0.0, 0.01, 0.1]
    for run in range(50):
        seed = int(master.integers(100_000))
        rng = np.random.default_rng(seed)
        if run % 2 == 0:
            n = int(rng.integers(100, 2001))
            ds = random_dataset(rng, n=n, cost_scale=float(rng.choice([10, 1000, 5000])))
        else:
            traces = simulator.generate(cfg_s, seed=seed)
            full = dataset.standardize(dataset.label_traces(traces))
            n = int(rng.integers(200, full.n + 1))
            ds = full.subset(rng.choice(full.n, size=n, replace=False))
        cfg = tao.TaoConfig(depth=depths[run % 4], lam=lams[run % 3],
                            init_policy="random" if run % 5 else "cart",
                            seed=seed, debug_checks=True)
        res = tao.train(ds, cfg)  # debug mode asserts node-level monotonicity
        hist = res.history
        assert all(b <= a for a, b in zip(hist, hist[1:])), \
            f"history increased (seed {seed}): {hist}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"50 runs took {elapsed:.1f}s"
    print(f"  50 runs in {elapsed:.1f}s", end="")


@criterion(2, "leaf and care-set updates match brute-force oracles exactly")
def test_criterion_02_reduced_problem_oracles():
    rng = np.random.default_rng(7)
    # 1000 random reach sets vs two-candidate enumeration
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        ds = dataset.Dataset(rng.normal(0, 1, (n, 4)), rng.integers(0, 2, n),
                             rng.uniform(0.5, 100, n))
        incumbent = int(rng.integers(0, 2))
        t = ObliqueTree({0: DecisionNode(np.array([1.0, 0, 0, 0]), 0.0, 1, 2),
                         1: treemod.LeafNode(incumbent),
                         2: treemod.LeafNode(incumbent)}, 0)
        prop = tao.optimize_leaf(t, 1, np.arange(n), ds)
        final = incumbent if prop is None else prop
        brute = {lbl: float(np.sum(ds.c[ds.y != lbl])) for lbl in (0, 1)}
        assert brute[final] == min(brute.values())
        if prop is not None:
            assert brute[prop] < brute[incumbent]

    # 200 random depth-<=3 trees vs reroute-both-ways oracle
    for _ in range(200):
        t = random_tree(rng, depth=int(rng.integers(1, 4)))
        ds = random_dataset(rng, n=30)
        reach_all = t.reach_sets(ds.X)
        for nid in t.decision_ids():
            node = t.nodes[nid]
            care = tao.build_care_set(t, nid, reach_all[nid], ds, 0.0)
            rows, sides, weights = [], [], []
            for i in reach_all[nid]:
                x = ds.X[i]
                go_left, go_right = node.left, node.right
                lab_l, lab_r = go_left, go_right
                cur = node.left
                while isinstance(t.nodes[cur], DecisionNode):
                    cur = child(t.nodes[cur], x)
                loss_l = ds.c[i] * (t.nodes[cur].label != ds.y[i])
                cur = node.right
                while isinstance(t.nodes[cur], DecisionNode):
                    cur = child(t.nodes[cur], x)
                loss_r = ds.c[i] * (t.nodes[cur].label != ds.y[i])
                if loss_l == loss_r:
                    continue
                rows.append(x)
                sides.append(1.0 if loss_r < loss_l else -1.0)
                weights.append(abs(loss_l - loss_r))
            assert (care is None) == (not rows)
            if rows:
                assert np.array_equal(care.X, np.array(rows))
                assert np.array_equal(care.y, np.array(sides))
                assert np.array_equal(care.omega, np.array(weights))


@criterion(3, "solver gradient matches finite differences; large-lambda closed form")
def test_criterion_03_solver_correctness():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(100):
        n = int(rng.integers(5, 60))
        problem = solver.WeightedBinaryProblem(
            rng.normal(0, 2, (n, 4)), rng.choice([-1.0, 1.0], n),
            rng.uniform(0.1, 40.0, n))
        model = solver.LinearModel(rng.normal(0, 1, 4), float(rng.normal(0, 1)))
        gw, gw0 = solver.smooth_gradient(problem, model)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (solver.smooth_loss(problem, solver.LinearModel(model.w + e, model.w0))
                  - solver.smooth_loss(problem, solver.LinearModel(model.w - e, model.w0))) / (2 * h)
            assert gw[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        fd0 = (solver.smooth_loss(problem, solver.LinearModel(model.w, model.w0 + h))
               - solver.smooth_loss(problem, solver.LinearModel(model.w, model.w0 - h))) / (2 * h)
        assert gw0 == pytest.approx(fd0, rel=1e-5, abs=1e-7)

    for _ in range(10):
        n = int(rng.integers(10, 50))
        omega = rng.uniform(0.1, 10.0, n)
        y = rng.choice([-1.0, 1.0], n)
        lam = 1e6 * float(np.sum(omega))
        problem = solver.WeightedBinaryProblem(rng.normal(0, 2, (n, 4)), y, omega, lam)
        out = solver.solve(problem, solver.LinearModel(rng.normal(0, 1, 4), 0.0),
                           solver.SolverConfig(max_iter=5000, tol=1e-15))
        assert np.array_equal(out.w, np.zeros(4))
        expected = np.log(np.sum(omega[y > 0]) / np.sum(omega[y < 0]))
        assert out.w0 == pytest.approx(expected, abs=1e-6)


@criterion(4, "cost-weighted training beats cost-blind in >=8/10 seeds (CWA and replay)")
def test_criterion_04_cost_sensitivity_effect(field_runs):
    cwa_wins = tp_wins = 0
    for run in field_runs:
        cwa_cw = metrics.cwa(run["cw"].tree, run["test"])
        cwa_cb = metrics.cwa(run["cb"].tree, run["test"])
        rep_cw = simulator.replay(run["traces"], simulator.TreeSelector(
            _with_scaler(run["cw"].tree, run["scaler"])))
        rep_cb = simulator.replay(run["traces"], simulator.TreeSelector(
            _with_scaler(run["cb"].tree, run["scaler"])))
        cwa_wins += cwa_cw > cwa_cb
        tp_wins += rep_cw.mean_throughput_bps > rep_cb.mean_throughput_bps
    print(f"  CWA wins {cwa_wins}/10, replay-throughput wins {tp_wins}/10", end="")
    assert cwa_wins >= 8, f"CWA wins only {cwa_wins}/10"
    assert tp_wins >= 8, f"throughput wins only {tp_wins}/10"


@criterion(5, "cost-blind tree: high-cost errors a count minority but >=30% of loss")
def test_criterion_05_gray_region_economics(field_runs):
    run = field_runs[0]  # the frozen default scenario, its default seed
    b = metrics.error_breakdown(run["cb"].tree, run["ds"])
    count_share = b.n_high / b.n_errors
    loss_share = b.loss_high / b.total_loss
    print(f"  high-cost: {100 * count_share:.1f}% of errors, "
          f"{100 * loss_share:.1f}% of loss", end="")
    assert count_share < 0.5
    assert loss_share >= 0.30


@criterion(6, "median leaves: alternating-optimized oblique <= greedy baseline at matched CWA")
def test_criterion_06_tree_size(field_runs):
    tao_leaves = [run["cw"].tree.n_leaves() for run in field_runs]
    cart_leaves = [run["cart"].n_leaves() for run in field_runs]
    tao_cwa = [metrics.cwa(run["cw"].tree, run["val"]) for run in field_runs]
    cart_cwa = [metrics.cwa(run["cart"], run["val"]) for run in field_runs]
    med = lambda v: float(np.median(v))
    print(f"  leaves {med(tao_leaves):g} vs {med(cart_leaves):g}, "
          f"val CWA {med(tao_cwa):.2f} vs {med(cart_cwa):.2f}", end="")
    assert med(tao_cwa) >= med(cart_cwa) - 2.0, "validation CWA not matched"
    assert med(tao_leaves) <= med(cart_leaves)


@criterion(7, "converged trees are exact fixed points; warm-start chain stable >=7/10")
def test_criterion_07_stability(field_runs):
    cfg_s = simulator.ScenarioConfig()
    rng = np.random.default_rng(7)
    fixed = 0
    for trial in range(20):
        seed = int(rng.integers(10_000))
        traces = simulator.generate(cfg_s, seed=seed)
        ds = dataset.standardize(dataset.label_traces(traces))
        sub = ds.subset(np.arange(0, ds.n, 3))
        cfg = tao.TaoConfig(depth=int(rng.integers(1, 4)),
                            lam=float(rng.choice([0.0, 0.01, 0.1])),
                            init_policy=str(rng.choice(["random", "cart"])), seed=seed)
        res = tao.train(sub, cfg)
        again = tao.optimize_tree(res.tree, sub, cfg)
        assert again.history[-1] == res.history[-1], f"objective moved (seed {seed})"
        assert again.tree.structural_signature() == res.tree.structural_signature(), \
            f"signature changed (seed {seed})"
        fixed += res.stop_reason == "fixed_point"

    stable = 0
    for seed in range(10):
        traces = simulator.generate(cfg_s, seed=100 + seed)
        ds = dataset.standardize(dataset.label_traces(traces))
        tr, te = dataset.split(ds, (0.8, 0.2), seed=seed)
        cfg = tao.TaoConfig(depth=3, lam=0.01, init_policy="cart", seed=seed)
        rep = stability.stability_run(tr, te, cfg, fractions=(0.5, 0.75, 1.0), seed=seed)
        stable += rep.all_signatures_equal
    print(f"  exact reruns 20/20 ({fixed} converged), stable chains {stable}/10", end="")
    assert stable >= 7


@criterion(8, "emitted IF/ELSE programs agree with the model exactly on 1e4 inputs each")
def test_criterion_08_export_equivalence():
    rng = np.random.default_rng(21)
    for m in range(20):
        t = prune(random_tree(rng, depth=int(rng.integers(1, 4)), zero_prob=0.15))
        scaler = None
        if m % 2:
            scaler = dataset.Scaler(rng.normal(0, 2, 4), rng.uniform(0.5, 3.0, 4))
            t = ObliqueTree(t.nodes, t.root, scaler=scaler)
        program = codegen(t)
        interp = ProgramInterpreter(program.text)
        n_boundary_nodes = max(1, len(t.decision_ids()))
        per_node = max(1, 2000 // (2 * n_boundary_nodes))
        Xb = boundary_adjacent_inputs(t, rng, per_node=per_node)
        Xr = rng.normal(0.0, 3.0, size=(10_000 - len(Xb), 4))
        X = np.vstack([Xr, Xb]) if len(Xb) else Xr
        if scaler is not None:
            X = scaler.inverse(X)  # the program and predict consume raw features
        mismatches = sum(interp.predict(x) != t.predict(x) for x in X)
        assert mismatches == 0, f"model {m}: {mismatches} disagreements"
        if scaler is None or not t.decision_ids():
            continue
        # on-plane points: projected in model space, then in raw space onto
        # the same plane written over raw features
        Z = boundary_adjacent_inputs(t, rng, per_node=per_node, eps_rel=0.0)
        on_plane = [scaler.inverse(Z)]
        for nid in t.decision_ids():
            a = t.nodes[nid].w / scaler.std
            a0 = t.nodes[nid].w0 - float(a @ scaler.mean)
            R = scaler.inverse(rng.normal(0.0, 2.0, size=(per_node, 4)))
            on_plane.append(R - np.outer((R @ a + a0) / (a @ a), a))
        X = np.vstack(on_plane)
        expected = [interp.predict(x) for x in X]
        mismatches = sum(t.predict(x) != e for x, e in zip(X, expected))
        mismatches += int(np.sum(t.predict_many(X) != expected))
        assert mismatches == 0, f"model {m}: {mismatches} on-plane disagreements"


@criterion(9, "oracle dominance, ratio bounds, latency monotone in interval")
def test_criterion_09_replay_bounds():
    cfg_s = simulator.ScenarioConfig()
    rng = np.random.default_rng(3)
    model = prune(random_tree(rng, depth=2))
    for seed in (0, 1, 2):
        traces = simulator.generate(cfg_s, seed=seed)
        for sel in (simulator.AlwaysSelector(0), simulator.AlwaysSelector(1),
                    simulator.OracleSelector(), simulator.ThresholdSelector(3),
                    simulator.TreeSelector(model)):
            res = simulator.replay(traces, sel)
            _, achieved, oracle = check_replay(res, traces, sel)
            assert np.all(achieved <= oracle)
            assert 0.0 < res.performance_ratio <= 1.0
        assert simulator.replay(traces, simulator.OracleSelector()).performance_ratio == 1.0

    intervals = [5.0, 3.0, 2.0, 1.5, 1.4, 1.3]
    for seed in range(10):
        rows = simulator.interval_sweep(cfg_s, intervals, simulator.OracleSelector(),
                                        seed=seed)
        assert all(r.performance_ratio == 1.0 for r in rows)
        latencies = [r.mean_latency_ms for r in rows]
        # intervals listed longest first: latency must not decrease
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))


@criterion(10, "CWA reproduces the worked single-error values and uniform-cost accuracy")
def test_criterion_10_cwa_identities():
    X = np.array([[1.0, 0, 0, 0], [3.0, 0, 0, 0]])
    ds = dataset.Dataset(X, np.array([0, 0]), np.array([5000.0, 100.0]))
    only_low = ObliqueTree({0: DecisionNode(np.array([1.0, 0, 0, 0]), -2.0, 1, 2),
                            1: treemod.LeafNode(1), 2: treemod.LeafNode(0)}, 0)
    only_high = ObliqueTree({0: DecisionNode(np.array([1.0, 0, 0, 0]), -2.0, 1, 2),
                             1: treemod.LeafNode(0), 2: treemod.LeafNode(1)}, 0)
    assert abs(metrics.cwa(only_low, ds) - 100.0 * 100.0 / 5100.0) < 1e-9
    assert abs(metrics.cwa(only_high, ds) - 100.0 * 5000.0 / 5100.0) < 1e-9

    rng = np.random.default_rng(5)
    for _ in range(100):
        d = random_dataset(rng, n=int(rng.integers(5, 80)))
        d.c[:] = float(rng.uniform(0.5, 100.0))
        t = random_tree(rng, depth=int(rng.integers(1, 4)))
        acc = float(np.mean(metrics.predictions(t, d) == d.y))
        assert metrics.cwa(t, d) == pytest.approx(100.0 * acc, rel=1e-12)
