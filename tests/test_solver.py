import math
import warnings

import numpy as np
import pytest

from conftest import KERNELS_NOTE, boundary_adjacent_inputs, kernels_pin, stump
from radiosel import solver, tao
from radiosel.errors import DataError, NumericError
from radiosel.solver import (LinearModel, SolverConfig, WeightedBinaryProblem,
                             objective, smooth_gradient, smooth_loss,
                             soft_threshold, solve, weighted_01_loss)


def design(problem):
    """The problem's augmented design matrix Z^T = -y * [X, 1], column-major."""
    ones = np.ones(problem.X.shape[0])
    return np.asfortranarray(-problem.y[:, None] * np.column_stack([problem.X, ones]))


def reference_terms(problem, model):
    """The solver's row kernel written out for one problem: with
    negm = Z^T [w, w0] = -margin and E = exp(-|negm|), the loss terms
    max(negm, 0) + log1p(E) and the gradient factors
    sigma(negm) = (negm > 0 ? 1 : E) / (1 + E)."""
    negm = design(problem) @ np.append(model.w, model.w0)
    E = np.exp(-np.abs(negm))
    return np.maximum(negm, 0.0) + np.log1p(E), np.where(negm > 0, 1.0, E) / (1.0 + E)


def reference_gradient(problem, model):
    """Z (omega * sigma): the weight gradient, then the bias part."""
    g = design(problem).T @ (problem.omega * reference_terms(problem, model)[1])
    return g[:-1], float(g[-1])


def reference_iterates(problem, init, cfg):
    """The proximal-gradient loop as first written (soft_threshold call,
    LinearModel per iterate, np.sum wrappers), with the quadratic bound's
    dot products taken over [w, w0]. Yields the init and then each accepted
    iterate; stops as solve does without a patience."""
    def loss(model):
        return float(np.sum(problem.omega * reference_terms(problem, model)[0]))

    w = np.asarray(init.w, dtype=float).copy()
    cur = LinearModel(w, float(init.w0))
    f_cur = loss(cur)
    F_cur = f_cur + problem.lam * float(np.sum(np.abs(w)))
    yield cur
    step = solver.INIT_STEP
    for _ in range(cfg.max_iter):
        gw, gw0 = reference_gradient(problem, cur)
        g = np.append(gw, gw0)
        accepted = False
        while step >= solver.MIN_STEP:
            w_new = soft_threshold(cur.w - step * gw, step * problem.lam)
            w0_new = cur.w0 - step * gw0
            cand = LinearModel(w_new, w0_new)
            f_new = loss(cand)
            d = np.append(w_new - cur.w, w0_new - cur.w0)
            quad = f_cur + float(g @ d) + float(d @ d) / (2.0 * step)
            if np.isfinite(f_new) and f_new <= quad:
                accepted = True
                break
            step *= solver.STEP_SHRINK
        if not accepted:
            break
        F_new = f_new + problem.lam * float(np.sum(np.abs(w_new)))
        if F_new > F_cur:
            break
        rel_drop = (F_cur - F_new) / max(abs(F_cur), 1.0)
        cur, f_cur, F_cur = cand, f_new, F_new
        yield cur
        if rel_drop < cfg.tol:
            break
        step *= solver.STEP_GROW


def reference_solve(problem, init, cfg):
    """The last iterate; solve without a patience must match it bit for bit."""
    for cur in reference_iterates(problem, init, cfg):
        pass
    return cur


def proposal_score(problem, model):
    """Total weight of the points with margin < 0 plus the L1 penalty."""
    margins = problem.y * (problem.X @ model.w + model.w0)
    return float(np.sum(problem.omega[margins < 0])) \
        + problem.lam * float(np.sum(np.abs(model.w)))


def reference_propose(problem, init, cfg):
    """The iterate with the lowest proposal_score, the earliest on ties,
    stopping once cfg.patience iterates pass without a strictly lower one;
    solve with a patience must match it bit for bit."""
    best, best_score, stale = None, math.inf, 0
    for cur in reference_iterates(problem, init, cfg):
        score = proposal_score(problem, cur)
        if score < best_score:
            best, best_score, stale = cur, score, 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best


def random_problem(rng, n=30, dim=4, lam=0.0):
    X = rng.normal(0, 2, size=(n, dim))
    y = rng.choice([-1.0, 1.0], size=n)
    omega = rng.uniform(0.1, 50.0, size=n)
    return WeightedBinaryProblem(X, y, omega, lam)


class TestSoftThreshold:
    def test_closed_form(self, rng):
        v = rng.normal(0, 3, size=200)
        t = 0.7
        expected = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        assert np.array_equal(soft_threshold(v, t), expected)

    def test_zeroing(self):
        assert np.array_equal(soft_threshold(np.array([0.5, -0.5]), 1.0), [0.0, 0.0])


class TestGradient:
    def test_matches_central_differences(self, rng):
        h = 1e-6
        for _ in range(100):
            problem = random_problem(rng, n=int(rng.integers(5, 40)))
            model = LinearModel(rng.normal(0, 1, 4), float(rng.normal(0, 1)))
            gw, gw0 = smooth_gradient(problem, model)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd = (smooth_loss(problem, LinearModel(model.w + e, model.w0))
                      - smooth_loss(problem, LinearModel(model.w - e, model.w0))) / (2 * h)
                assert gw[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            fd0 = (smooth_loss(problem, LinearModel(model.w, model.w0 + h))
                   - smooth_loss(problem, LinearModel(model.w, model.w0 - h))) / (2 * h)
            assert gw0 == pytest.approx(fd0, rel=1e-5, abs=1e-7)

    def test_stable_for_huge_margins(self):
        problem = WeightedBinaryProblem(np.array([[1000.0], [-1000.0]]),
                                        np.array([1.0, -1.0]), np.array([1.0, 1.0]))
        model = LinearModel(np.array([5.0]), 0.0)
        gw, gw0 = smooth_gradient(problem, model)
        assert np.all(np.isfinite(gw)) and np.isfinite(gw0)
        assert smooth_loss(problem, model) >= 0.0


def ulp_distance(a, b):
    """|a - b| in units in the last place: the distance between their bit
    patterns laid on one monotone integer line (+0 and -0 coincide)."""
    ia, ib = (np.asarray(v, dtype=float).view(np.int64) for v in (a, b))
    ia, ib = (np.where(i < 0, np.iinfo(np.int64).min - i, i) for i in (ia, ib))
    return np.abs(ia - ib)


class TestKernelAccuracy:
    EDGES = (0.0, 1e-300, 37.0, 40.0, 800.0, np.inf)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="the gradient reference needs an extended long double")
    def test_within_few_ulp_of_logaddexp_formulas(self, rng):
        """On one-point problems (the loss is the term, the bias gradient
        minus the factor), the loss term agrees with libm's logaddexp(0, -m)
        and the gradient factor with exp(-logaddexp(0, m)) within 4 ULP,
        infinities and NaN exactly. The factor's reference runs in long
        double: in float64 the sum m + log1p(exp(-m)) alone loses up to 32
        ULP of exp's result at m = 33."""
        margins = np.concatenate([self.EDGES, np.negative(self.EDGES), [np.nan],
                                  rng.uniform(-50.0, 50.0, 500),
                                  rng.uniform(-760.0, 760.0, 500)])
        problem = WeightedBinaryProblem(np.ones((1, 1)), np.ones(1), np.ones(1))
        models = [LinearModel([m], -0.0) for m in margins]   # margin m + -0.0 == m
        loss = np.array([smooth_loss(problem, model) for model in models])
        sig = np.array([-smooth_gradient(problem, model)[1] for model in models])
        with np.errstate(invalid="ignore"):
            loss_ref = np.logaddexp(0.0, -margins)
            sig_ref = np.exp(-np.logaddexp(0.0, margins.astype(np.longdouble))).astype(float)
        for got, ref in ((loss, loss_ref), (sig, sig_ref)):
            finite = np.isfinite(ref)
            assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
            assert ulp_distance(got[finite], ref[finite]).max() <= 4


class TestSolve:
    def test_large_lambda_closed_form(self, rng):
        for _ in range(10):
            problem = random_problem(rng, n=40)
            lam = 1e6 * float(np.sum(problem.omega))
            problem = WeightedBinaryProblem(problem.X, problem.y, problem.omega, lam)
            cfg = SolverConfig(max_iter=5000, tol=1e-15)
            model = solve(problem, LinearModel(rng.normal(0, 1, 4), 0.0), cfg)
            assert np.array_equal(model.w, np.zeros(4))
            wp = float(np.sum(problem.omega[problem.y > 0]))
            wn = float(np.sum(problem.omega[problem.y < 0]))
            assert model.w0 == pytest.approx(np.log(wp / wn), abs=1e-6)

    def test_separable_two_points(self):
        problem = WeightedBinaryProblem(np.array([[-1.0], [1.0]]),
                                        np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
        model = solve(problem, LinearModel(np.zeros(1), 0.0))
        assert model.w[0] > 0
        assert weighted_01_loss(model, problem) == 0.0

    def test_objective_never_above_init(self, rng):
        for _ in range(20):
            problem = random_problem(rng, lam=float(rng.uniform(0, 5)))
            init = LinearModel(rng.normal(0, 2, 4), float(rng.normal(0, 2)))
            out = solve(problem, init, SolverConfig(max_iter=50, tol=1e-10))
            assert objective(problem, out) <= objective(problem, init)

    def test_monotone_objective_sequence(self, rng):
        # re-solving from each iterate must keep decreasing: emulate by
        # chaining short runs, each warm-started at the previous solution
        problem = random_problem(rng, n=50, lam=0.5)
        model = LinearModel(rng.normal(0, 1, 4), 0.0)
        values = [objective(problem, model)]
        for _ in range(30):
            model = solve(problem, model, SolverConfig(max_iter=1, tol=1e-16))
            values.append(objective(problem, model))
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_lambda_grid_shrinks_weights(self, rng):
        problem_base = random_problem(rng, n=60)
        norms = []
        for lam in (0.0, 0.1, 1.0, 10.0, 100.0, 1000.0):
            problem = WeightedBinaryProblem(problem_base.X, problem_base.y,
                                            problem_base.omega, lam)
            model = solve(problem, LinearModel(np.zeros(4), 0.0),
                          SolverConfig(max_iter=3000, tol=1e-14))
            norms.append(float(np.sum(np.abs(model.w))))
        assert all(b <= a + 1e-8 for a, b in zip(norms, norms[1:]))

    def test_deterministic(self, rng):
        problem = random_problem(rng, lam=0.3)
        init = LinearModel(rng.normal(0, 1, 4), 0.5)
        a = solve(problem, init)
        b = solve(problem, init)
        assert np.array_equal(a.w, b.w) and a.w0 == b.w0

    def test_init_shape_checked(self, rng):
        problem = random_problem(rng)
        with pytest.raises(DataError):
            solve(problem, LinearModel(np.zeros(3), 0.0))


class ReferenceFamilies:
    """Problem families on which solve must match its plain-loop reference
    byte for byte: reference_solve without a patience, reference_propose
    with one."""

    TAO_CFG: SolverConfig     # the 200-iteration config under test
    SHORT_CFG: SolverConfig   # a short run with a tighter tol

    def assert_same(self, problem, init, cfg):
        reference = reference_solve if cfg.patience is None else reference_propose
        got, ref = solve(problem, init, cfg), reference(problem, init, cfg)
        assert got.w.tobytes() == ref.w.tobytes()
        assert np.float64(got.w0).tobytes() == np.float64(ref.w0).tobytes()

    def test_random_problems(self, rng):
        for _ in range(60):
            problem = random_problem(rng, n=int(rng.integers(1, 150)),
                                     lam=float(rng.choice([0.0, 0.01, 0.5, 20.0])))
            init = LinearModel(rng.normal(0, 1, 4), float(rng.normal(0, 1)))
            for cfg in (self.TAO_CFG, self.SHORT_CFG):
                self.assert_same(problem, init, cfg)

    def test_weights_spanning_twelve_decades(self, rng):
        for lam in (0.0, 0.01, 3.0):
            base = random_problem(rng, n=80)
            omega = 10.0 ** rng.uniform(-6.0, 6.0, size=80)
            problem = WeightedBinaryProblem(base.X, base.y, omega, lam)
            self.assert_same(problem, LinearModel(rng.normal(0, 1, 4), 0.2), self.TAO_CFG)

    def test_single_point(self):
        problem = WeightedBinaryProblem(np.array([[0.3, -1.2, 2.0, 0.0]]),
                                        np.array([-1.0]), np.array([7.0]), 0.01)
        self.assert_same(problem, LinearModel(np.array([1.0, 0.0, -0.5, 2.0]), 0.0),
                         self.TAO_CFG)

    def test_fit_large_scale(self, rng):
        for lam in (0.0, 0.01):
            problem = random_problem(rng, n=3200, lam=lam)
            self.assert_same(problem, LinearModel(rng.normal(0, 1, 4), 0.1), self.TAO_CFG)

    def test_points_on_initial_hyperplane(self, rng):
        # small dyadic coordinates keep every partial sum exact, so each
        # margin at the init is +0 or -0, depending on the label
        init = LinearModel(np.array([1.0, -2.0, 0.5, 3.0]), -1.5)
        X = rng.integers(-8, 9, size=(60, 4)).astype(float)
        X[:, 0] = 1.5 + 2.0 * X[:, 1] - 0.5 * X[:, 2] - 3.0 * X[:, 3]
        assert not np.any(X @ init.w + init.w0)
        y = rng.choice([-1.0, 1.0], size=60)
        for lam in (0.0, 0.5):
            problem = WeightedBinaryProblem(X, y, rng.uniform(0.5, 5.0, 60), lam)
            self.assert_same(problem, init, self.TAO_CFG)

    def test_fortran_and_strided_X(self, rng):
        base = random_problem(rng, n=120, lam=0.01)
        wide = np.repeat(base.X, 2, axis=1)
        for X in (np.asfortranarray(base.X), wide[:, ::2], base.X[::-1][::-1]):
            assert np.array_equal(X, base.X)
            problem = WeightedBinaryProblem(X, base.y, base.omega, base.lam)
            self.assert_same(problem, LinearModel(rng.normal(0, 1, 4), -0.3), self.TAO_CFG)

    def test_all_negative_labels(self, rng):
        base = random_problem(rng, n=90)
        for lam in (0.0, 2.0):
            problem = WeightedBinaryProblem(base.X, -np.ones(90), base.omega, lam)
            self.assert_same(problem, LinearModel(rng.normal(0, 1, 4), 0.4), self.TAO_CFG)


class TestMatchesReference(ReferenceFamilies):
    """solve as a surrogate minimizer (no patience) is byte-identical to
    reference_solve."""

    TAO_CFG = SolverConfig(max_iter=200, tol=1e-8)
    SHORT_CFG = SolverConfig(max_iter=40, tol=1e-12)

    def test_loss_and_gradient_match_kernel_formulas(self, rng):
        """smooth_loss and smooth_gradient on a plain LinearModel equal the
        kernel's formulas written out per problem (reference_terms and
        reference_gradient), bit for bit, margins of +-0 and overflowing ones
        included. One-point problems too, so that a change to a single term
        cannot vanish in the sum."""
        base = random_problem(rng, n=300)
        base.X[:40] = 0.0
        base.X[40:80] *= 1e3
        problems = [base] + [WeightedBinaryProblem(base.X[i:i + 1], base.y[i:i + 1],
                                                   base.omega[i:i + 1]) for i in range(300)]
        for w0 in (0.0, 0.7):
            model = LinearModel(rng.normal(0, 1, 4), w0)
            for problem in problems:
                loss = float(np.sum(problem.omega * reference_terms(problem, model)[0]))
                ref_w, ref_w0 = reference_gradient(problem, model)
                gw, gw0 = smooth_gradient(problem, model)
                assert np.float64(smooth_loss(problem, model)).tobytes() \
                    == np.float64(loss).tobytes()
                assert gw.tobytes() == ref_w.tobytes()
                assert np.float64(gw0).tobytes() == np.float64(ref_w0).tobytes()

    def test_separable_lambda_zero_hits_cap(self, rng):
        X = rng.normal(0, 1, size=(40, 4))
        y = np.where(X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 >= 0, 1.0, -1.0)
        problem = WeightedBinaryProblem(X, y, rng.uniform(1.0, 100.0, 40), 0.0)
        init = LinearModel(np.array([0.5, -0.5, 0.0, 0.1]), 0.0)
        self.assert_same(problem, init, self.TAO_CFG)
        stats = []
        solve(problem, init, self.TAO_CFG, stats)
        assert stats[0].iters == self.TAO_CFG.max_iter   # no minimizer: runs to the cap
        assert stats[0].exit == "cap"


class TestProposalMatchesReference(ReferenceFamilies):
    """Under TAO's config, solve proposes the best-scoring iterate and stops
    on patience, byte-identical to reference_propose."""

    TAO_CFG = tao.SOLVER_CFG
    SHORT_CFG = SolverConfig(max_iter=40, tol=1e-12, patience=5)

    def test_unbeaten_init_returned_bytes(self, rng):
        # the init separates the points and has lambda 0, so no iterate
        # scores strictly lower: solve stops after `patience` iterations
        # and returns the init, signed zeros included
        X = rng.normal(0, 1, size=(50, 4))
        init = LinearModel(np.array([1.0, -0.0, 0.0, -2.0]), -0.0)
        y = np.where(X @ init.w + init.w0 >= 0, 1.0, -1.0)
        problem = WeightedBinaryProblem(X, y, rng.uniform(1.0, 10.0, 50), 0.0)
        stats = []
        got = solve(problem, init, self.TAO_CFG, stats)
        assert got.w.tobytes() == init.w.tobytes()
        assert np.float64(got.w0).tobytes() == np.float64(init.w0).tobytes()
        assert stats[0].iters == self.TAO_CFG.patience
        assert (stats[0].exit, stats[0].returned) == ("patience", 0)
        self.assert_same(problem, init, self.TAO_CFG)

    def test_separable_lambda_zero_stops_before_cap(self, rng):
        # the care set of TestMatchesReference::test_separable_lambda_zero_hits_cap
        X = rng.normal(0, 1, size=(40, 4))
        y = np.where(X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 >= 0, 1.0, -1.0)
        problem = WeightedBinaryProblem(X, y, rng.uniform(1.0, 100.0, 40), 0.0)
        init = LinearModel(np.array([0.5, -0.5, 0.0, 0.1]), 0.0)
        assert weighted_01_loss(init, problem) > 0.0
        stats = []
        got = solve(problem, init, self.TAO_CFG, stats)
        assert stats[0].iters < self.TAO_CFG.max_iter
        assert weighted_01_loss(got, problem) == 0.0
        self.assert_same(problem, init, self.TAO_CFG)

    def test_proposal_never_scores_above_init(self, rng):
        for _ in range(30):
            problem = random_problem(rng, lam=float(rng.choice([0.0, 0.1, 2.0])))
            init = LinearModel(rng.normal(0, 2, 4), float(rng.normal(0, 2)))
            got = solve(problem, init, self.TAO_CFG)
            assert proposal_score(problem, got) <= proposal_score(problem, init)


def reference_stats(problem, init, cfg):
    """SolveStats of the loop as solve first ran it, one problem at a time:
    one iteration per gradient, one loss evaluation per smooth_loss call
    (the init's included), the stop taken and the returned iterate."""
    w, w0 = np.asarray(init.w, dtype=float).copy(), float(init.w0)
    f = smooth_loss(problem, LinearModel(w, w0))
    F = f + problem.lam * float(np.sum(np.abs(w)))
    best_score = proposal_score(problem, LinearModel(w, w0))
    iters, evals, accepted, best_at, stale, step = 0, 1, 0, 0, 0, solver.INIT_STEP

    def stats(exit):
        return solver.SolveStats(iters, evals, exit,
                                 accepted if cfg.patience is None else best_at)

    for _ in range(cfg.max_iter):
        gw, gw0 = smooth_gradient(problem, LinearModel(w, w0))
        iters += 1
        while step >= solver.MIN_STEP:
            w_new = soft_threshold(w - step * gw, step * problem.lam)
            w0_new = w0 - step * gw0
            f_new = smooth_loss(problem, LinearModel(w_new, w0_new))
            evals += 1
            g, d = np.append(gw, gw0), np.append(w_new - w, w0_new - w0)
            quad = f + float(g @ d) + float(d @ d) / (2.0 * step)
            if np.isfinite(f_new) and f_new <= quad:
                break
            step *= solver.STEP_SHRINK
        else:
            return stats("linesearch")
        F_new = f_new + problem.lam * float(np.sum(np.abs(w_new)))
        if F_new > F:
            return stats("rounding")
        rel_drop = (F - F_new) / max(abs(F), 1.0)
        w, w0, f, F = w_new, w0_new, f_new, F_new
        accepted += 1
        if cfg.patience is not None:
            score = proposal_score(problem, LinearModel(w, w0))
            if score < best_score:
                best_score, best_at, stale = score, accepted, 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    return stats("patience")
        if rel_drop < cfg.tol:
            return stats("tol")
        step *= solver.STEP_GROW
    return stats("cap")


class TestSolveMany:
    """A batch returns, per problem, the bytes and stats of solve on that
    problem alone, and those are the bytes and stats of the loop as first
    run (reference_solve or reference_propose, and reference_stats)."""

    CFGS = (tao.SOLVER_CFG, SolverConfig(max_iter=40, tol=1e-12, patience=5),
            SolverConfig(max_iter=40, tol=1e-12))
    # pairwise-sum block edges (8, 128, 8192) and their neighbours
    ROW_COUNTS = (1, 7, 8, 9, 129, 8200)

    @staticmethod
    def _problem(rng, n):
        """Weights over 12 decades, a random lambda (0 included), and X
        C-ordered, Fortran-ordered or strided; rows on the init's plane
        for a third of the problems. Returns (problem, init)."""
        lam = float(rng.choice([0.0, 0.0, 0.01, 0.5, 20.0]))
        init = LinearModel(rng.normal(0, 1, 4), float(rng.normal(0, 1)))
        X = rng.normal(0, 2, size=(n, 4))
        if rng.random() < 1 / 3:
            # small dyadic coordinates keep every partial sum exact: margins
            # at the init are +0 or -0
            init = LinearModel(np.array([1.0, -2.0, 0.5, 3.0]), -1.5)
            X = rng.integers(-8, 9, size=(n, 4)).astype(float)
            X[:, 0] = 1.5 + 2.0 * X[:, 1] - 0.5 * X[:, 2] - 3.0 * X[:, 3]
        layout = rng.integers(3)
        if layout == 1:
            X = np.asfortranarray(X)
        elif layout == 2:
            X = np.repeat(X, 2, axis=1)[:, ::2]
        y = rng.choice([-1.0, 1.0], size=n)
        omega = 10.0 ** rng.uniform(-6.0, 6.0, size=n)
        return WeightedBinaryProblem(X, y, omega, lam), init

    def assert_batch_matches(self, problems, inits, cfg):
        batch_stats, alone_stats = [], []
        got = solver.solve_many(problems, inits, cfg, batch_stats)
        for problem, init, model in zip(problems, inits, got):
            alone = solve(problem, init, cfg, alone_stats)
            assert model.w.tobytes() == alone.w.tobytes()
            assert np.float64(model.w0).tobytes() == np.float64(alone.w0).tobytes()
            reference = reference_solve if cfg.patience is None else reference_propose
            with np.errstate(all="ignore"):
                assert alone_stats[-1] == reference_stats(problem, init, cfg)
                expected = reference(problem, init, cfg)
            assert model.w.tobytes() == expected.w.tobytes()
            assert np.float64(model.w0).tobytes() == np.float64(expected.w0).tobytes()
        assert batch_stats == alone_stats

    @pytest.mark.parametrize("cfg", CFGS, ids=["tao", "short_patience", "short_minimizer"])
    def test_random_batches(self, cfg):
        rng = np.random.default_rng(2718)
        for _ in range(6):
            k = int(rng.integers(1, 13))
            sizes = [int(rng.choice(self.ROW_COUNTS[:5])) if rng.random() < 0.5
                     else int(rng.integers(1, 200)) for _ in range(k)]
            pairs = [self._problem(rng, n) for n in sizes]
            self.assert_batch_matches([p for p, _ in pairs], [i for _, i in pairs], cfg)

    def test_large_problem_between_small_ones(self):
        rng = np.random.default_rng(31)
        pairs = [self._problem(rng, n) for n in self.ROW_COUNTS]
        self.assert_batch_matches([p for p, _ in pairs], [i for _, i in pairs],
                                  tao.SOLVER_CFG)

    def test_separable_lambda_zero_cap_in_a_batch(self, rng):
        X = rng.normal(0, 1, size=(40, 4))
        y = np.where(X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 >= 0, 1.0, -1.0)
        separable = WeightedBinaryProblem(X, y, rng.uniform(1.0, 100.0, 40), 0.0)
        init = LinearModel(np.array([0.5, -0.5, 0.0, 0.1]), 0.0)
        others = [random_problem(rng, n=n, lam=0.01) for n in (3, 60)]
        inits = [init, LinearModel(np.zeros(4), 0.0), LinearModel(rng.normal(0, 1, 4), 1.0)]
        cfg = SolverConfig(max_iter=200, tol=1e-8)
        stats = []
        solver.solve_many([separable, *others], inits, cfg, stats)
        assert (stats[0].iters, stats[0].exit) == (cfg.max_iter, "cap")
        self.assert_batch_matches([separable, *others], inits, cfg)

    def test_underflowing_gradient_keeps_signed_zero_bias(self):
        # margins past exp's range make every gradient coefficient -0.0,
        # which the bias gradient must sum to +0.0 as np.add.reduce does
        X = np.column_stack([np.arange(1.0, 31.0), np.ones((30, 3))])
        problem = WeightedBinaryProblem(X, np.ones(30), np.ones(30), 0.0)
        init = LinearModel(np.array([1000.0, 0.0, 0.0, 0.0]), -0.0)
        near = random_problem(np.random.default_rng(3), n=20)
        inits = [init, LinearModel(np.zeros(4), 0.0)]
        for cfg in (tao.SOLVER_CFG, SolverConfig(max_iter=5, tol=1e-12)):
            self.assert_batch_matches([problem, near], inits, cfg)
            got = solve(problem, init, cfg)
            ref = (reference_solve if cfg.patience is None else reference_propose)(
                problem, init, cfg)
            assert np.float64(got.w0).tobytes() == np.float64(ref.w0).tobytes()

    def test_every_exit_reason(self):
        """A batch whose problems stop for each of the five reasons."""
        pairs = []
        # drawn to stop on rounding and on tol; the first seed that stops on
        # rounding (and at patience 5 on patience) follows the last bits of
        # the SIMD class's exp and of the BLAS kernel family's products with Z
        rounding = kernels_pin({("X86_V4", "SkylakeX"): 18, ("no_X86_V4", "SkylakeX"): 39,
                                ("X86_V4", "Haswell"): 55, ("no_X86_V4", "Haswell"): 47})
        for seed in (rounding, 0):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            problem = WeightedBinaryProblem(rng.normal(0, 2, (n, 4)),
                                            rng.choice([-1.0, 1.0], n),
                                            rng.uniform(0.1, 5, n),
                                            float(rng.choice([0.0, 0.1, 1.0])))
            pairs.append((problem, LinearModel(rng.normal(0, 1, 4), 0.0)))
        # every candidate overflows until the step is below MIN_STEP
        huge = WeightedBinaryProblem(np.array([[1e200], [-1e200], [5e199]]) * np.ones(4),
                                     np.array([1.0, -1.0, 1.0]), np.ones(3))
        pairs.append((huge, LinearModel(np.zeros(4), 0.0)))
        rng = np.random.default_rng(12345)
        X = rng.normal(0, 1, size=(40, 4))
        y = np.where(X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 >= 0, 1.0, -1.0)
        pairs.append((WeightedBinaryProblem(X, y, rng.uniform(1.0, 100.0, 40), 0.0),
                      LinearModel(np.array([0.5, -0.5, 0.0, 0.1]), 0.0)))   # separable
        problems, inits = [p for p, _ in pairs], [i for _, i in pairs]
        cfg = SolverConfig(max_iter=300, tol=1e-300)
        stats = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # the kernel overflows silently
            solver.solve_many(problems, inits, cfg, stats)
        assert [st.exit for st in stats] == ["rounding", "tol", "linesearch", "cap"], KERNELS_NOTE
        self.assert_batch_matches(problems, inits, cfg)
        patience_cfg = SolverConfig(max_iter=300, tol=1e-300, patience=5)
        solver.solve_many(problems[:1], inits[:1], patience_cfg, stats)
        assert stats[-1].exit == "patience"
        self.assert_batch_matches(problems, inits, patience_cfg)

    def test_same_bytes_at_every_stack_offset(self, monkeypatch):
        """numpy's SIMD exp and log1p loops treat full lanes and the tail
        apart, so one problem is put at each stack offset mod 8, behind a
        pad and another problem, and either last in the stack or before a
        problem whose candidates have infinite margins. Each gets the bytes
        and stats it gets alone, and no RuntimeWarning escapes."""
        rng = np.random.default_rng(8)
        target = random_problem(rng, n=21, lam=0.01)
        # The init classifies row 0 by a margin of 1.7e308, so that row adds
        # nothing to the loss or the gradient, and every other row pulls w_0
        # up: the first candidate the first-step ladder keeps, and most after
        # it, have w_0 > 1.06, so their margin on row 0 overflows to inf, and
        # the row's loss term is 0
        X = rng.normal(0, 1, (13, 4))
        X[0] = [1.7e308, 0.0, 0.0, 0.0]
        X[1:, 0] = np.abs(X[1:, 0])
        wild = WeightedBinaryProblem(X, np.ones(13), rng.uniform(0.5, 2.0, 13), 0.01)
        inits = [LinearModel(rng.normal(0, 1, 4), 0.3),
                 LinearModel(np.array([1.0, 0.0, 0.0, 0.0]), -1.0)]
        infinite_margins = []
        losses = solver._Stack.losses

        def spy(stack, W):
            out = losses(stack, W)
            if len(W) > 1:   # a batch, not a one-problem call of the references
                infinite_margins.append(bool(np.isinf(stack.negm).any()))
            return out

        monkeypatch.setattr(solver._Stack, "losses", spy)
        for offset in range(8):
            lead = random_problem(rng, n=6 + offset)   # the target's rows start at 8 + offset
            for problems in ([lead, target], [lead, target, wild]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    self.assert_batch_matches(problems, [LinearModel(np.zeros(4), 0.0),
                                                         *inits][:len(problems)],
                                              tao.SOLVER_CFG)
        assert any(infinite_margins)

    @pytest.mark.parametrize("cfg", CFGS, ids=["tao", "short_patience", "short_minimizer"])
    def test_first_steps_the_bound_rejects_are_not_evaluated(self, cfg, monkeypatch):
        """A batch mixing bps-scale and extreme weights (omega up to 1e12),
        lambda > 0 among them: the steps whose quadratic bound is < 0 or NaN
        count in loss_evals, but the stack evaluates fewer candidates, and
        every problem keeps the bytes and stats of the references."""
        rng = np.random.default_rng(99)
        problems, inits = [], []
        for scale in (1.0, 3e3, 2e5, 1e12):
            for lam in (0.0, 0.01 * scale):
                n = int(rng.integers(5, 120))
                problems.append(WeightedBinaryProblem(rng.normal(0, 1.5, (n, 4)),
                                                      rng.choice([-1.0, 1.0], n),
                                                      scale * rng.uniform(0.01, 1.0, n), lam))
                inits.append(LinearModel(rng.normal(0, 1, 4), float(rng.normal(0, 1))))
        evaluated = []
        losses = solver._Stack.losses

        def spy(stack, W):
            evaluated.append(len(W))
            return losses(stack, W)

        monkeypatch.setattr(solver._Stack, "losses", spy)
        stats = []
        solver.solve_many(problems, inits, cfg, stats)
        assert sum(evaluated) < sum(st.loss_evals for st in stats)
        self.assert_batch_matches(problems, inits, cfg)

    def test_inputs_checked(self, rng):
        a, b = random_problem(rng), random_problem(rng, dim=3)
        with pytest.raises(DataError, match="problem 1 has dimension 3, the batch 4"):
            solver.solve_many([a, b], [None, None])
        with pytest.raises(DataError, match="2 problems but 1 inits"):
            solver.solve_many([a, a], [None])
        assert solver.solve_many([], []) == []

    def test_non_finite_init_named(self):
        huge = WeightedBinaryProblem(np.full((2, 4), 1e308), np.array([1.0, -1.0]),
                                     np.ones(2))
        fine = WeightedBinaryProblem(np.eye(4), np.array([1.0, -1.0, 1.0, -1.0]),
                                     np.ones(4))
        inits = [LinearModel(np.ones(4), 0.0)] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^b: non-finite objective at init"):
                solver.solve_many([fine, huge, huge], inits, tao.SOLVER_CFG,
                                  names=["a", "b", "c"])


class TestWeighted01Loss:
    def test_perfect_separator_zero(self):
        problem = WeightedBinaryProblem(np.array([[-2.0], [2.0]]),
                                        np.array([-1.0, 1.0]), np.array([3.0, 4.0]))
        assert weighted_01_loss(LinearModel(np.array([1.0]), 0.0), problem) == 0.0

    def test_zero_model_tie_counts_negatives(self):
        # 3 positive, 5 negative, unit weights: score 0 -> +1, so the
        # negative mass is the loss
        X = np.zeros((8, 2))
        y = np.array([1.0] * 3 + [-1.0] * 5)
        problem = WeightedBinaryProblem(X, y, np.ones(8))
        assert weighted_01_loss(LinearModel(np.zeros(2), 0.0), problem) == 5.0

    def test_matches_per_point_check(self, rng):
        for _ in range(50):
            problem = random_problem(rng, n=25)
            model = LinearModel(rng.normal(0, 1, 4), float(rng.normal(0, 1)))
            total = 0.0
            for i in range(25):
                s = float(problem.X[i] @ model.w + model.w0)
                pred = 1.0 if s >= 0 else -1.0
                if pred != problem.y[i]:
                    total += problem.omega[i]
            assert weighted_01_loss(model, problem) == pytest.approx(total, rel=1e-12)

    def test_matches_tree_routing_on_plane(self, rng):
        # the accept test scores a node's hyperplane as the tree routes it
        for _ in range(10):
            w, w0 = rng.normal(0, 1, 4), float(rng.normal(0, 1))
            t = stump(w, w0, 0, 1)
            X = boundary_adjacent_inputs(t, rng, per_node=200, eps_rel=0.0)
            y = rng.choice([-1.0, 1.0], size=len(X))
            omega = rng.uniform(1.0, 10.0, size=len(X))
            pred = np.where(t.predict_model(X) == 1, 1.0, -1.0)
            assert weighted_01_loss(LinearModel(w, w0), WeightedBinaryProblem(X, y, omega)) \
                == float(np.sum(omega[pred != y]))

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": np.nan}, "tol must be finite and > 0, got nan"),
        ({"tol": np.inf}, "tol must be finite and > 0, got inf"),
        ({"tol": 0.0}, "tol must be finite and > 0, got 0.0"),
        ({"patience": 0}, "patience must be None or an integer >= 1, got 0"),
        ({"patience": -3}, "got -3"),
        ({"patience": 2.0}, "got 2.0"),
        ({"patience": True}, "got True"),
        ({"max_iter": 0}, "max_iter must be an integer >= 1, got 0"),
        ({"max_iter": 2.5}, "max_iter must be an integer >= 1, got 2.5"),
    ], ids=["tol_nan", "tol_inf", "tol_zero", "patience_zero", "patience_negative",
            "patience_float", "patience_bool", "max_iter_zero", "max_iter_float"])
    def test_config_validation(self, kwargs, message):
        with pytest.raises(DataError, match=message):
            SolverConfig(**kwargs)
        assert SolverConfig(patience=1).patience == 1

    def test_problem_validation(self):
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(DataError, match=f"lambda must be finite and >= 0, got {lam}"):
                WeightedBinaryProblem(np.zeros((2, 2)), np.array([1.0, -1.0]), np.ones(2), lam)
        with pytest.raises(DataError):
            WeightedBinaryProblem(np.zeros((2, 2)), np.array([1.0, 2.0]), np.ones(2))
        with pytest.raises(DataError):
            WeightedBinaryProblem(np.zeros((2, 2)), np.array([1.0, -1.0]),
                                  np.array([1.0, 0.0]))
