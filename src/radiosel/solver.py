"""Weighted L1-regularized logistic regression via proximal gradient.

Minimizes  F(w, w0) = sum_n  omega_n * log(1 + exp(-ytil_n (w.x_n + w0)))
                      + lambda * ||w||_1
with the bias unpenalized. Proximal gradient with backtracking line search:
the objective sequence is monotonically nonincreasing by construction.

Two uses. With SolverConfig.patience None, solve is a surrogate minimizer
and returns its last iterate. With a patience (the tree trainer's config),
solve proposes a candidate for an accept test on weighted 0/1 loss + L1,
for which the surrogate is only a guide: it scores every accepted iterate,
the init included, by sum(omega[negm > 0]) + lambda * ||w||_1 from the
kernel terms already on the point, returns the lowest-scoring one (the
earliest on ties), and stops once `patience` accepted iterations pass
without a strictly lower score. tol and max_iter stay as backstops. The
score counts a margin of exactly 0 as correct for either label, while the
tree sends score 0 right, and X @ w may round apart from the tree's routing
kernel, so it only selects; the caller's exact accept test decides.

Kernel. Let negm_n = -ytil_n (w.x_n + w0) and L_n = log1p(exp(-|negm_n|)).
numpy's logaddexp computes logaddexp(0, +-negm) as max(+-negm, 0) + L through
the same log1p(exp(.)) call, so one logaddexp per point gives both the loss
term max(negm, 0) + L and the gradient factor
sigma(-m) = exp(-(max(-negm, 0) + L)) = exp(min(negm, 0) - L), and solve
reuses the terms of an accepted point for its gradient. This is bit-identical
to evaluating logaddexp once for each: ytil is +-1, so the factors -ytil and
-omega*ytil only flip signs, which is exact, as is negating a rounded result;
and a signed zero in negm reaches the output only through max(+-0, 0) + L
with L = log(2) > 0, which loses its sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .tree import scores


@dataclass
class WeightedBinaryProblem:
    """Points (x_n, ytil_n in {-1,+1}, omega_n > 0) plus L1 strength."""

    X: np.ndarray
    y: np.ndarray       # +-1
    omega: np.ndarray   # positive weights
    lam: float = 0.0

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        n = self.X.shape[0]
        if n < 1:
            raise DataError("problem needs at least one point")
        if self.y.shape != (n,) or self.omega.shape != (n,):
            raise DataError("X, y, omega length mismatch")
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise DataError("pseudo-labels must be +-1")
        if not np.all(np.isfinite(self.omega) & (self.omega > 0)):
            raise DataError("weights must be finite and positive")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise DataError(f"lambda must be finite and >= 0, got {self.lam!r}")
        # the kernel's sign-flipped factors, exact since y is +-1; fixed here,
        # so y and omega are not to be changed after construction
        self._neg_y = -self.y
        self._neg_omega_y = -self.omega * self.y

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass
class LinearModel:
    w: np.ndarray
    w0: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.w0 = float(self.w0)


# line search: first step, shrink on a failed test, growth after a success, floor
INIT_STEP = 1.0
STEP_SHRINK = 0.5
STEP_GROW = 1.25
MIN_STEP = 1e-18


@dataclass
class SolverConfig:
    max_iter: int = 1000
    tol: float = 1e-8          # relative objective decrease
    patience: int | None = None   # None: last iterate; else best-score proposal

    def __post_init__(self):
        if not _is_count(self.max_iter):
            raise DataError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DataError(f"tol must be finite and > 0, got {self.tol!r}")
        if self.patience is not None and not _is_count(self.patience):
            raise DataError(f"patience must be None or an integer >= 1, "
                            f"got {self.patience!r}")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Prox of t*||.||_1: sign(v) * max(|v| - t, 0) elementwise."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class _Point(LinearModel):
    """An iterate of solve: smooth_loss leaves its kernel terms on it, and
    smooth_gradient at the same point reuses them."""

    terms = None


def _terms(problem: WeightedBinaryProblem, model: LinearModel):
    """(negm, L): negm = -ytil * (X w + w0) and L = log1p(exp(-|negm|))."""
    negm = problem._neg_y * (problem.X @ model.w + model.w0)
    return negm, np.logaddexp(0.0, -np.abs(negm))


def smooth_loss(problem: WeightedBinaryProblem, model: LinearModel) -> float:
    """Weighted logistic loss, the differentiable part of the objective."""
    negm, L = terms = _terms(problem, model)
    if isinstance(model, _Point):
        model.terms = terms
    return float(np.add.reduce(problem.omega * (np.maximum(negm, 0.0) + L)))


def smooth_gradient(problem: WeightedBinaryProblem, model: LinearModel):
    """(grad_w, grad_w0) of smooth_loss."""
    negm, L = getattr(model, "terms", None) or _terms(problem, model)
    # sigma(-m) = exp(min(negm, 0) - L) <= 1: overflow-free for any m
    coeff = problem._neg_omega_y * np.exp(np.minimum(negm, 0.0) - L)
    return problem.X.T @ coeff, float(np.add.reduce(coeff))


def objective(problem: WeightedBinaryProblem, model: LinearModel) -> float:
    return smooth_loss(problem, model) + problem.lam * float(np.sum(np.abs(model.w)))


def _selection_score(problem: WeightedBinaryProblem, point: _Point, penalty: float) -> float:
    """Total weight of the points with negm > 0 plus the L1 penalty, from the
    kernel terms smooth_loss left on the point."""
    return float(np.add.reduce(problem.omega[point.terms[0] > 0])) + penalty


def solve(problem: WeightedBinaryProblem, init: LinearModel | None = None,
          cfg: SolverConfig | None = None) -> LinearModel:
    """Proximal-gradient descent with backtracking, warm-started at init.

    Deterministic; F(last iterate) <= F(init). Stops on relative objective
    decrease < cfg.tol, after cfg.max_iter iterations, or with cfg.patience
    once that many accepted iterations pass without a strictly lower
    selection score. Returns the last iterate, or with cfg.patience the
    lowest-scoring one (see the module doc). Calls smooth_loss once per loss
    evaluation and smooth_gradient once per iteration.
    """
    cfg = cfg or SolverConfig()
    if init is None:
        init = LinearModel(np.zeros(problem.dim), 0.0)
    w = np.asarray(init.w, dtype=float).copy()
    if w.shape != (problem.dim,):
        raise DataError(f"init has {w.shape} weights, problem wants ({problem.dim},)")
    w0 = float(init.w0)
    lam = problem.lam
    patience = cfg.patience

    cur = _Point(w, w0)
    f_cur = smooth_loss(problem, cur)
    penalty = lam * float(np.add.reduce(np.abs(w)))
    F_cur = f_cur + penalty
    if not math.isfinite(F_cur):
        raise NumericError("non-finite objective at init: rescale the problem")
    if patience is not None:
        best, best_score, stale = cur, _selection_score(problem, cur, penalty), 0
    step = INIT_STEP

    for _ in range(cfg.max_iter):
        gw, gw0 = smooth_gradient(problem, cur)
        if not (np.isfinite(gw).all() and math.isfinite(gw0)):
            raise NumericError("non-finite gradient: rescale the problem")
        while step >= MIN_STEP:
            v = w - step * gw
            w_new = np.sign(v) * np.maximum(np.abs(v) - step * lam, 0.0)  # soft_threshold
            w0_new = w0 - step * gw0
            cand = _Point(w_new, w0_new)
            f_new = smooth_loss(problem, cand)
            dw = w_new - w
            dw0 = w0_new - w0
            quad = f_cur + float(gw @ dw) + gw0 * dw0 \
                + (float(dw @ dw) + dw0 * dw0) / (2.0 * step)
            if math.isfinite(f_new) and f_new <= quad:
                break
            step *= STEP_SHRINK
        else:  # line search exhausted
            break
        penalty = lam * float(np.add.reduce(np.abs(w_new)))
        F_new = f_new + penalty
        if F_new > F_cur:
            # sufficient-decrease passed but rounding nudged F up: stop, keep cur
            break
        rel_drop = (F_cur - F_new) / max(abs(F_cur), 1.0)
        cur, w, w0, f_cur, F_cur = cand, w_new, cand.w0, f_new, F_new
        if patience is not None:
            score = _selection_score(problem, cur, penalty)
            if score < best_score:
                best, best_score, stale = cur, score, 0
            else:
                stale += 1
                if stale >= patience:
                    break
        if rel_drop < cfg.tol:
            break
        step *= STEP_GROW
    if patience is not None:
        cur = best
    return LinearModel(cur.w, cur.w0)


def weighted_01_loss(model: LinearModel, problem: WeightedBinaryProblem) -> float:
    """Total weight of sign-rule misclassifications under the tree's routing
    kernel (tree.scores), so score 0 counts as +1, as it goes right."""
    pred = np.where(scores(model.w, model.w0, problem.X) < 0, -1.0, 1.0)
    return float(np.sum(problem.omega[pred != problem.y]))
