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
kernel terms of the point, returns the lowest-scoring one (the earliest on
ties), and stops once `patience` accepted iterations pass without a strictly
lower score. tol and max_iter stay as backstops. The score counts a margin
of exactly 0 as correct for either label, while the tree sends score 0
right, and Z^T w~ may round apart from the tree's routing kernel, so it only
selects; the caller's exact accept test decides. Each solve can report its
SolveStats: iterations, loss evaluations, why it stopped and which iterate
it returned.

Kernel. Each problem's Z, whose column n is -ytil_n [x_n, 1], is built
once per solve_many call as a C-contiguous (D+1, n) array, and an iterate
is one row w~ = [w, w0]. Per row, negm = Z^T w~ = -ytil (w.x + w0) and
one exp, E = exp(-|negm|). The loss term is max(negm, 0) + log1p(E), and
the gradient is Z (omega * sigma(negm)), bias part last, with the factor
sigma(negm) = 1 / (1 + exp(-negm)) taken as (negm > 0 ? 1 : E) / (1 + E)
from the accepted point's E. Both agree with the softplus formulas
logaddexp(0, negm) and exp(-logaddexp(0, -negm)) within a few ULP,
infinities and NaN exactly. ytil is +-1, so its sign flip is exact, and a
signed zero in negm reaches the output only through max(+-0, 0) + log(2)
and the test negm > 0, which lose its sign. The bytes follow numpy's
float64 exp and log1p, picked by the CPU's SIMD level, and the BLAS
kernels of the products with Z, picked by OpenBLAS when it loads (the CLI
manifests record both, as numpy.simd_dispatch and numpy.blas.core). _Stack
holds the one copy of the kernel (smooth_loss and smooth_gradient are its
one-problem calls), run under np.errstate(all="ignore"): a candidate whose
loss is not finite fails the line search, while a non-finite objective at
the init or a non-finite gradient raises NumericError. BLAS fuses a row's
multiply-adds, so products that overflow with both signs give an infinite
margin, not NaN.

Line search. The candidate at step t is w~ - t g~ with its weights (not
its bias) soft-thresholded by t * lambda. It passes if its smooth loss is
at most the quadratic bound f + g~.d + |d|^2 / (2t) of its move d;
else the step shrinks, and below MIN_STEP the solve stops. The smooth loss
is a sum of terms each >= +0.0 or NaN, so no candidate passes where the
bound is < 0 or NaN (a bound of -0.0 still can). INIT_STEP is absolute,
and under weights in bps it lies many halvings above the data's scale, so
before the first round the bounds of the ladder INIT_STEP * STEP_SHRINK^k,
down to MIN_STEP, are computed for all the problems of a batch together,
bit for bit as the rounds would, LADDER_CHUNK steps at a time until each
problem has a step they do not reject; each problem starts there. A
skipped step counts as a rejected candidate: loss_evals counts the
candidates tried, evaluated or rejected by the bound, and stays the count
of the loop that evaluates them all.

Batches. solve_many runs one loop over a batch of problems in lockstep
rounds: in each round every unfinished problem evaluates one line-search
candidate, and those that accept it take their next gradient. A problem
gets the same bytes and stats in any batch as alone, and solve is the
one-problem batch:
- each problem keeps its own BLAS products with Z, so no product depends
  on the batch;
- every other row-wise step runs once over the stacked rows of all the
  problems, and the weight-vector steps over (problems, D+1) arrays, with
  np.vecdot as the 1-d dot product row by row; these steps are elementwise,
  and numpy's SIMD exp and log1p give an element the same bytes in a full
  lane as in the tail, so a row's bytes do not depend on where it sits;
- the sums over rows are one np.add.reduceat over the stack, in which each
  problem's rows follow one pad row of weight +0.0: np.add.reduce adds
  the pairwise sum of the rows to its identity 0.0, and reduceat adds the
  same pairwise sum to the segment's first element, the pad;
- the branching (accept, stop, patience) is per problem in Python floats,
  which round as numpy's float64 does.
After a round in which some problems stop, the stack is laid out again,
in place, from the others: it copies their omega rows (Z stays where it
is), and the round loops then touch live rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
LADDER_CHUNK = 16   # first steps whose bounds are computed together (_Lockstep._first_steps)


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


def smooth_loss(problem: WeightedBinaryProblem, model: LinearModel) -> float:
    """Weighted logistic loss, the differentiable part of the objective."""
    with np.errstate(all="ignore"):
        return _Stack([problem]).losses([np.append(model.w, model.w0)])[0]


def smooth_gradient(problem: WeightedBinaryProblem, model: LinearModel):
    """(grad_w, grad_w0) of smooth_loss."""
    stack, G = _Stack([problem]), np.empty((1, problem.dim + 1))
    with np.errstate(all="ignore"):
        stack.losses([np.append(model.w, model.w0)])
        stack.gradients([0], G)
    return G[0, :-1], float(G[0, -1])


def objective(problem: WeightedBinaryProblem, model: LinearModel) -> float:
    return smooth_loss(problem, model) + problem.lam * float(np.sum(np.abs(model.w)))


class SolveStats(NamedTuple):
    """What one solve did: iters gradient evaluations (proximal-gradient
    iterations), loss_evals line-search candidates tried, evaluated or
    rejected by their bound (module doc), plus one for the init,
    the exit reason (tol, cap, patience, linesearch or rounding) and the
    index of the returned iterate (0 is the init, i the i-th accepted one)."""

    iters: int
    loss_evals: int
    exit: str
    returned: int


class _Stack:
    """The rows of a batch's problems, stacked: the rows of the problem in
    slot s follow one pad row at pads[s] (see the module doc). Holds each
    problem's Z, built once, and the omega row and the work rows, in one
    block allocated once per batch, and each slot's views into them."""

    def __init__(self, problems):
        self.problems = problems
        # Z of the module doc; exact, since y is +-1
        self.designs = [np.ascontiguousarray(np.vstack([p.X.T * -p.y, -p.y])) for p in problems]
        self.block = np.empty((5, sum(p.X.shape[0] + 1 for p in problems)))
        self.fill(range(len(problems)))

    def fill(self, ids) -> None:
        """Lay out the rows of the problems ids (the batch, or the problems
        still iterating) at the start of the block."""
        self.Z = [self.designs[j] for j in ids]
        self.ZT = [Z.T for Z in self.Z]
        self.sizes = np.array([Z.shape[1] + 1 for Z in self.Z])
        self.pads = np.cumsum(self.sizes) - self.sizes
        self.omega, self.negm, self.E, self.L, self.buf = self.block[:, :int(self.sizes.sum())]
        self.negm_rows, self.buf_rows = [], []
        for j, pad, size in zip(ids, self.pads.tolist(), self.sizes.tolist()):
            rows = slice(pad + 1, pad + size)
            self.omega[rows] = self.problems[j].omega
            self.negm_rows.append(self.negm[rows])
            self.buf_rows.append(self.buf[rows])
        self.omega[self.pads] = 0.0

    def losses(self, W) -> list:
        """Smooth loss at the weights W[s] = [w, w0] of each slot s. The
        kernel terms stay in negm and E."""
        negm, E, L, P = self.negm, self.E, self.L, self.buf
        for ZT, w, out in zip(self.ZT, W, self.negm_rows):
            np.matmul(ZT, w, out=out)
        negm[self.pads] = 1.0   # any finite value > 0: scores keeps the pads
        np.copysign(negm, -1.0, out=E)   # -|negm|
        np.exp(E, out=E)
        np.log1p(E, out=L)
        np.maximum(negm, 0.0, out=P)
        P += L
        P *= self.omega
        return np.add.reduceat(P, self.pads).tolist()

    def scores(self) -> list:
        """Weight of each slot's rows with negm > 0, from the last losses."""
        idx = (self.negm > 0).nonzero()[0]
        return np.add.reduceat(self.omega[idx], idx.searchsorted(self.pads)).tolist()

    def gradients(self, slots, GW) -> None:
        """Gradient of the smooth loss at the points of the last losses, bias
        part last, into GW[s] for s in slots. The elementwise factor is
        computed on all rows: masking it off the other slots' rows costs
        more than it saves."""
        C, D, E = self.buf, self.L, self.E   # L's row is free once the losses are summed
        # E <= 1, so max(E, sign(negm)) is 1 where negm > 0 and E elsewhere
        np.sign(self.negm, out=C)
        np.maximum(E, C, out=C)
        np.add(E, 1.0, out=D)
        C /= D
        C *= self.omega
        for s in slots:
            np.matmul(self.Z[s], self.buf_rows[s], out=GW[s])


class _Slot:
    """The scalar state of one problem in the lockstep loop: its index in
    the batch, its lambda, step and objective (f the smooth part, F with
    the penalty), the best-scoring iterate's score and index, and the
    counters."""

    __slots__ = ("id", "lam", "step", "f", "F", "best_score", "best_at", "stale", "accepted",
                 "iters", "evals")

    def __init__(self, j: int, lam: float):
        self.id, self.lam, self.step = j, lam, INIT_STEP
        self.best_at = self.stale = self.accepted = self.iters = 0
        self.evals = 1


def _prox_steps(W, GW, steps):
    """The candidates W - step * GW row by row, with steps[:, 0] the step
    and steps[:, 1] step * lam: the weight columns soft-thresholded by
    step * lam, the bias column as it is; and the weight columns' |.|."""
    Wn = W - steps[:, :1] * GW
    w = Wn[:, :-1]
    A = np.abs(w)
    A -= steps[:, 1:]
    np.maximum(A, 0.0, out=A)
    np.sign(w, out=w)
    w *= A
    return Wn, A


def _bound(f, gd, dd, step):
    """The line search's quadratic upper bound on the smooth loss at a
    candidate: on floats in _round and on arrays in _first_steps, which
    round alike."""
    return f + gd + dd / (2.0 * step)


class _Lockstep:
    """The proximal-gradient loop of solve_many over one batch. The
    problems still iterating have one slot each: a row of the (slots, D+1)
    weight arrays, bias last, a _Slot and a segment of the stack."""

    def __init__(self, problems, W, cfg: SolverConfig):
        self.cfg = cfg
        self.slots = [_Slot(j, p.lam) for j, p in enumerate(problems)]
        self.W, self.GW, self.best_W = W, np.zeros_like(W), W.copy()
        self.stack = _Stack(problems)
        self.stopped = []
        self.models = [None] * len(problems)
        self.stats = [None] * len(problems)
        self.errors = {}

        f = self.stack.losses(W)
        l1 = np.add.reduce(np.abs(W[:, :-1]), axis=1).tolist()
        score = self.stack.scores()
        for s, sl in enumerate(self.slots):
            penalty = sl.lam * l1[s]
            sl.f, sl.F, sl.best_score = f[s], f[s] + penalty, score[s] + penalty
            if not math.isfinite(sl.F):
                self._fail(s, "non-finite objective at init: rescale the problem")
        self._gradients([s for s in range(len(problems)) if s not in self.stopped])
        self._first_steps([s for s in range(len(problems)) if s not in self.stopped])

    def _first_steps(self, live) -> None:
        """Move each live problem's first step down past the steps whose
        quadratic bound is < 0 or NaN, which no loss passes (module doc).
        The bounds are those _round computes, bit for bit, for every
        problem at once, LADDER_CHUNK steps of the ladder at a time; a
        skipped step counts as a rejected candidate, and a problem that
        skips them all stops."""
        ladder, step = [], INIT_STEP
        while step >= MIN_STEP:
            ladder.append(step)
            step *= STEP_SHRINK
        for lo in range(0, len(ladder), LADDER_CHUNK):
            if not live:
                return
            rungs = ladder[lo:lo + LADDER_CHUNK]
            k = len(rungs)
            steps = np.tile(rungs, len(live))
            lam, f = (np.repeat([getattr(self.slots[s], a) for s in live], k)
                      for a in ("lam", "f"))
            W, GW = np.repeat(self.W[live], k, axis=0), np.repeat(self.GW[live], k, axis=0)
            DW = _prox_steps(W, GW, np.column_stack([steps, steps * lam]))[0]
            DW -= W
            quad = _bound(f, np.vecdot(GW, DW), np.vecdot(DW, DW), steps)
            passes = (quad >= 0).reshape(len(live), k)
            first = np.where(passes.any(axis=1), passes.argmax(axis=1), k).tolist()
            for s, skip in zip(live, first):
                self.slots[s].evals += skip
                if skip < k:
                    self.slots[s].step = rungs[skip]
            live = [s for s, skip in zip(live, first) if skip == k]
        for s in live:
            self._finish(s, "linesearch")

    def run(self):
        while self._settle():
            self._round()
        return self.models, self.stats, self.errors

    def _round(self) -> None:
        cfg, slots, W, GW = self.cfg, self.slots, self.W, self.GW
        Wn, A = _prox_steps(W, GW, np.array([[sl.step, sl.step * sl.lam] for sl in slots]))
        fn = self.stack.losses(Wn)
        DW = Wn - W
        gd, dd = np.vecdot(GW, DW).tolist(), np.vecdot(DW, DW).tolist()

        accepted, l1 = [], None
        for s, sl in enumerate(slots):
            sl.evals += 1
            f_new = fn[s]
            if not (math.isfinite(f_new) and f_new <= _bound(sl.f, gd[s], dd[s], sl.step)):
                sl.step *= STEP_SHRINK
                if sl.step < MIN_STEP:
                    self._finish(s, "linesearch")
                continue
            if l1 is None:
                l1 = np.add.reduce(A, axis=1).tolist()   # A == |Wn[:, :-1]|
            penalty = sl.lam * l1[s]
            F_new = f_new + penalty
            if F_new > sl.F:   # the line search passed, but rounding nudged F up
                self._finish(s, "rounding")
                continue
            accepted.append((s, (sl.F - F_new) / max(abs(sl.F), 1.0), penalty))
            sl.f, sl.F = f_new, F_new
            sl.accepted += 1
        if not accepted:
            return
        if len(accepted) == len(slots):
            self.W = Wn
        else:
            idx = np.array([s for s, _, _ in accepted])
            W[idx] = Wn[idx]

        patience = cfg.patience
        score = self.stack.scores() if patience is not None else None
        grad = []
        for s, rel_drop, penalty in accepted:
            sl = slots[s]
            if patience is not None:
                value = score[s] + penalty
                if value < sl.best_score:
                    self.best_W[s] = Wn[s]
                    sl.best_score, sl.best_at, sl.stale = value, sl.accepted, 0
                else:
                    sl.stale += 1
                    if sl.stale >= patience:
                        self._finish(s, "patience")
                        continue
            if rel_drop < cfg.tol:
                self._finish(s, "tol")
                continue
            sl.step *= STEP_GROW
            if sl.iters >= cfg.max_iter:
                self._finish(s, "cap")
                continue
            grad.append(s)
        self._gradients(grad)

    def _gradients(self, grad) -> None:
        if not grad:
            return
        self.stack.gradients(grad, self.GW)
        # a sum is finite only if all its terms are, so one sum clears every
        # row unless it overflows
        finite = math.isfinite(np.add.reduce(self.GW, axis=None))
        for s in grad:
            self.slots[s].iters += 1
            if not (finite or np.isfinite(self.GW[s]).all()):
                self._fail(s, "non-finite gradient: rescale the problem")

    def _finish(self, s: int, reason: str) -> None:
        sl = self.slots[s]
        if self.cfg.patience is None:
            w, at = self.W[s], sl.accepted
        else:
            w, at = self.best_W[s], sl.best_at
        self.models[sl.id] = LinearModel(w[:-1].copy(), w[-1])
        self.stats[sl.id] = SolveStats(sl.iters, sl.evals, reason, at)
        self.stopped.append(s)

    def _fail(self, s: int, message: str) -> None:
        self.errors[self.slots[s].id] = message
        self.stopped.append(s)

    def _settle(self) -> bool:
        """Rebuild the slots and the stack without the problems that stopped
        in the last round; True while any problem is left."""
        if self.stopped:
            stopped, self.stopped = set(self.stopped), []
            keep = [s for s in range(len(self.slots)) if s not in stopped]
            self.slots = [self.slots[s] for s in keep]
            self.W, self.GW, self.best_W = self.W[keep], self.GW[keep], self.best_W[keep]
            if keep:
                self.stack.fill([sl.id for sl in self.slots])
        return bool(self.slots)


def solve_many(problems, inits, cfg: SolverConfig | None = None, stats: list | None = None,
               names=None) -> list:
    """solve for a batch of problems, each from its init (None: zeros).

    The problems must share one dimension. They advance in lockstep rounds,
    and each returns the bytes that solve returns for it alone (see the
    module doc). If stats is a list, one SolveStats per problem is appended
    to it, in order. A non-finite objective at an init, or a non-finite
    gradient, raises NumericError after the other problems finish; the
    message names the first such problem in order by names[j] if names is
    given.
    """
    cfg = cfg or SolverConfig()
    problems = list(problems)
    inits = list(inits)
    if len(inits) != len(problems):
        raise DataError(f"{len(problems)} problems but {len(inits)} inits")
    if not problems:
        return []
    dim = problems[0].dim
    W = np.zeros((len(problems), dim + 1))   # rows [w, w0]
    for j, (problem, init) in enumerate(zip(problems, inits)):
        if problem.dim != dim:
            raise DataError(f"problem {j} has dimension {problem.dim}, the batch {dim}")
        if init is not None:
            w = np.asarray(init.w, dtype=float)
            if w.shape != (dim,):
                raise DataError(f"init has {w.shape} weights, problem wants ({dim},)")
            W[j, :-1], W[j, -1] = w, float(init.w0)
    with np.errstate(all="ignore"):
        models, solve_stats, errors = _Lockstep(problems, W, cfg).run()
    if errors:
        j = min(errors)
        raise NumericError(errors[j] if names is None else f"{names[j]}: {errors[j]}")
    if stats is not None:
        stats.extend(solve_stats)
    return models


def solve(problem: WeightedBinaryProblem, init: LinearModel | None = None,
          cfg: SolverConfig | None = None, stats: list | None = None) -> LinearModel:
    """Proximal-gradient descent with backtracking, warm-started at init.

    Deterministic; F(last iterate) <= F(init). Stops on relative objective
    decrease < cfg.tol, after cfg.max_iter iterations, or with cfg.patience
    once that many accepted iterations pass without a strictly lower
    selection score. Returns the last iterate, or with cfg.patience the
    lowest-scoring one (see the module doc). The one-problem case of
    solve_many; stats as there.
    """
    return solve_many([problem], [init], cfg, stats)[0]


def weighted_01_loss(model: LinearModel, problem: WeightedBinaryProblem) -> float:
    """Total weight of sign-rule misclassifications under the tree's routing
    kernel (tree.scores), so score 0 counts as +1, as it goes right."""
    pred = np.where(scores(model.w, model.w0, problem.X) < 0, -1.0, 1.0)
    return float(np.sum(problem.omega[pred != problem.y]))
