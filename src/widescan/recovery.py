"""Sparse spectrum recovery: constrained l1 solvers, weights, and metrics.

The l1 family (plain, block-weighted, column-scaled, basis pursuit) solves

    minimize sum_i w_i |z_i|   subject to   ||Psi z - y||_2 <= eps

by operator splitting: a weighted complex soft-threshold step on the
objective alternating with an exact Euclidean projection onto the residual
ball, coupled through a scaled dual variable. The splitting is over-relaxed
(Boyd et al. 2011, sec. 3.4.3): the other two steps see the projection
pushed RELAXATION times as far from the previous soft-threshold point. The
projected iterate is returned, so every result is feasible up to
root-finding precision. The projection splits into a per-matrix SVD (an
SvdFactor) and a per-measurement part. Its Lagrange multiplier is the root
of a trust-region secular equation, found by Newton's method on the
reciprocal residual norm (concave, so the steps never overshoot from the
left) and warm-started from the previous projection's root.

l1_batch solves many problems as one row-batched iteration, each row through
its own Psi's factor, or through one factor when they all share a Psi (a
cooperative SU's rounds). It pays numpy's per-call cost once per step for all
of them, and no row depends on its batch-mates. Recovery sweeps batch a block
of trials' lasso and wlasso problems, and vote fusion each SU's rounds. A lone
problem runs faster on the serial core, which the timing table, the drift
windows and pooled rounds use. Greedy pursuits live in widescan.greedy.
"""

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .measurement import SensingMatrix
from .spectrum import BlockPartition

SPARSITY_FLOOR = 0.1

# Over-relaxation factor of the l1 splitting, in (0, 2); 1 is the plain
# iteration. Chosen by measured iteration counts on the shipped configs.
RELAXATION = 1.7


@dataclass(frozen=True)
class RecoveryProblem:
    """Inputs to an l1 recovery: sensing matrix, measurements, budget, weights."""

    psi: SensingMatrix
    y: np.ndarray
    epsilon: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=complex)
        if y.shape != (self.psi.m,):
            raise ValueError(f"y has shape {y.shape}, expected ({self.psi.m},)")
        object.__setattr__(self, "y", y)
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and non-negative, got {self.epsilon}")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or w.size < 1:
                raise ValueError("weights must be a non-empty 1-D sequence")
            if np.any(w <= 0):
                raise ValueError("block weights must be strictly positive")
            if abs(w.sum() - 1.0) > 1e-9:
                raise ValueError(f"block weights must sum to 1, got {w.sum()}")
            object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class RecoveryResult:
    """Solver output: estimate, achieved residual, and run accounting."""

    z_star: np.ndarray
    residual_norm: float
    iterations: int
    wall_time: float
    converged: bool


def design_weights(k_bar, floor: float = SPARSITY_FLOOR) -> np.ndarray:
    """Inverse-sparsity block weights, normalized to sum to one.

    Blocks believed emptier get larger weights. Non-positive averages are
    floored (default 0.1) so no weight is ever infinite.
    """
    k_bar = np.maximum(np.asarray(k_bar, dtype=float), floor)
    inv = 1.0 / k_bar
    return inv / inv.sum()


# ---------------------------------------------------------------------------
# Constrained l1 core


class SvdFactor:
    """The per-matrix half of the ball projection: Psi's thin SVD, without
    singular values at or below 1e-12 s_max. It holds no state of a solve, so
    every measurement through one Psi can share it."""

    def __init__(self, a_mat: np.ndarray):
        u, s, vh = np.linalg.svd(a_mat, full_matrices=False)
        cutoff = (s[0] if s.size else 0.0) * 1e-12
        keep = s > cutoff
        self.u = u[:, keep]
        self.s = s[keep]
        self.vh = vh[keep]
        self.ssq = self.s**2

    @cached_property
    def v(self) -> np.ndarray:
        """Contiguous V = vh^H, which only the one-problem projection reads."""
        return np.ascontiguousarray(self.vh.conj().T)


class _BallProjection:
    """Exact Euclidean projection onto {z : ||A z - y||_2 <= eps} via one SVD.

    The SVD is an SvdFactor of A. The rest is per measurement y: b = U^H y,
    the unreachable norm, the least-squares point and the warm-started
    multiplier, which never outlives one solve.

    In the right singular basis the projection of a point with coefficients
    c0 is c(lam) = (c0 + lam s b) / (1 + lam s^2), whose residual is
    r_i(lam) = d_i / (1 + lam s_i^2) with d = s c0 - b. The multiplier lam is
    the root of ||r(lam)||^2 = target. That norm equals ||(D + lam I)^-1 g||
    with D = diag(1/s^2) and g = d/s^2, the trust-region secular function, so
    1/||r(lam)|| is concave and increasing in lam (Reinsch 1971; More &
    Sorensen 1983). Newton on 1/||r|| - 1/sqrt(target) therefore climbs
    monotonically to the root from its left and, from its right, lands on
    the left (or at lam = 0, where ||r||^2 = ||d||^2 > target) in one step.
    Each solve starts from the previous projection's root: successive
    splitting iterates move little, so a few steps usually suffice.
    """

    def __init__(self, a_mat: np.ndarray, y: np.ndarray):
        f = SvdFactor(a_mat)
        self.s, self.vh, self._v, self._ssq = f.s, f.vh, f.v, f.ssq
        b = f.u.conj().T @ y
        self.b = b
        self._sb = self.s * b
        # Norm of the unreachable component of y, formed explicitly to avoid
        # the cancellation in ||y||^2 - ||b||^2.
        y_perp = y - f.u @ b
        self.y_perp_sq = float(np.vdot(y_perp, y_perp).real)
        # Least-squares coefficients, the limit point when eps is unattainable.
        self._c_ls = b / self.s if self.s.size else b
        self._lam = 0.0

    def project(self, a: np.ndarray, eps: float) -> np.ndarray:
        c0 = self.vh @ a
        d = self.s * c0 - self.b
        miss = float(np.vdot(d, d).real)
        if miss + self.y_perp_sq <= eps * eps:
            return a
        target = eps * eps - self.y_perp_sq
        if target <= 0.0:
            c = self._c_ls
        else:
            c = self._solve_secular(c0, d, target)
        return a + self._v @ (c - c0)

    def _solve_secular(self, c0, d, target):
        dsq = d.real**2 + d.imag**2
        ssq = self._ssq
        lam = self._lam
        for _ in range(60):
            q = 1.0 + lam * ssq
            r = dsq / (q * q)
            phi = float(r.sum())
            if abs(phi - target) <= 1e-9 * target:
                break
            dphi = -2.0 * float(np.dot(r, ssq / q))
            lam = max(0.0, lam + 2.0 * phi * (1.0 - math.sqrt(phi / target)) / dphi)
        else:  # step cap reached: q must match the last lam
            q = 1.0 + lam * ssq
        self._lam = lam
        return (c0 + lam * self._sb) / q


def _soft_threshold(v: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Complex soft-threshold: shrink magnitudes, keep phases."""
    mag = np.abs(v)
    scale = np.maximum(mag - thresh, 0.0)
    np.divide(scale, mag, out=scale, where=scale > 0)
    return v * scale


def _norm(x: np.ndarray) -> float:
    return math.sqrt(np.vdot(x, x).real)


def _solve_constrained_l1(
    psi_mat: np.ndarray,
    y: np.ndarray,
    eps: float,
    entry_weights: np.ndarray,
    max_iter: int = 5000,
    tol: float = 1e-6,
    rho: float = 1.0,
) -> RecoveryResult:
    """Splitting iteration for the weighted constrained l1 program.

    Entry weights are rescaled to unit mean internally; the minimizer is
    invariant to that scaling and uniform weights then reproduce the plain
    l1 path exactly. The projected iterate is returned, so converged results
    satisfy the residual bound to projection precision.
    """
    t0 = time.perf_counter()
    n = psi_mat.shape[1]
    proj = _BallProjection(psi_mat, y)
    feas_slack = 1e-12 * max(1.0, float(np.linalg.norm(y)))
    infeasible = math.sqrt(proj.y_perp_sq) > eps + feas_slack

    w = entry_weights / np.mean(entry_weights)
    thresh = w / rho
    z = proj.project(np.zeros(n, dtype=complex), eps)
    v = np.zeros(n, dtype=complex)
    u = np.zeros(n, dtype=complex)

    hit_tol = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        z_prev = z
        z = proj.project(v - u, eps)
        zu = (RELAXATION * z + (1.0 - RELAXATION) * v) + u
        v_new = _soft_threshold(zu, thresh)
        u = zu - v_new

        primal = _norm(z - v_new)
        scale = max(_norm(z), 1e-12)
        change = _norm(z - z_prev)
        if max(change, primal) <= tol * scale:
            hit_tol = True
            break
        # Residual balancing keeps the splitting well-conditioned across
        # problem scales without changing the fixed point.
        if iterations % 10 == 0:
            dual = rho * _norm(v_new - v)
            if primal > 10.0 * dual and rho < 1e8:
                rho *= 2.0
                u = u / 2.0
                thresh = w / rho
            elif dual > 10.0 * primal and rho > 1e-8:
                rho /= 2.0
                u = u * 2.0
                thresh = w / rho
        v = v_new

    residual = float(np.linalg.norm(psi_mat @ z - y))
    return RecoveryResult(
        z_star=z,
        residual_norm=residual,
        iterations=iterations,
        wall_time=time.perf_counter() - t0,
        converged=hit_tol and not infeasible,
    )


# ---------------------------------------------------------------------------
# Row-batched core: row r of every array is problem r, with row r of a stack of
# SvdFactor parts, or row 0 for every row when they share one Psi. A 2-D
# product or einsum rounds a row by its batch-mates, so products and norms go
# row by row.


def _row_sq_norms(x: np.ndarray) -> np.ndarray:
    """||x[r]||^2 for every row r of a complex x, each summed on its own."""
    return np.square(x.view(np.float64)).sum(axis=1)


def _rank_stacks(mats, ys):
    """Yield (rows, s, vh, b, y_perp_sq) for each rank the rows' factors keep.

    mats holds one matrix per row of ys, or one that every row shares; all
    have one shape. s and vh stack the SvdFactor of each matrix, zero-padded
    to min(m, n) singular values; b = U^H y and the unreachable norm
    y_perp_sq are formed row by row as _BallProjection forms them. rows are
    the indices into ys of the rows whose factor keeps that rank, and the
    stacks are cut to it. A factor is dropped once copied, so u is never
    stacked.
    """
    (_, n), width = mats[0].shape, min(mats[0].shape)
    s = np.zeros((len(mats), width))
    vh = np.zeros((len(mats), width, n), dtype=complex)
    b = np.zeros((len(ys), width), dtype=complex)
    y_perp_sq, ranks = np.empty(len(ys)), np.empty(len(ys), dtype=int)
    for r, y in enumerate(ys):
        if r < len(mats):
            f = SvdFactor(mats[r])
            k = f.s.size
            s[r, :k], vh[r, :k] = f.s, f.vh
        ranks[r] = k
        b[r, :k] = f.u.conj().T @ y
        y_perp = y - f.u @ b[r, :k]
        y_perp_sq[r] = float(np.vdot(y_perp, y_perp).real)
    for k in np.unique(ranks):
        rows = np.flatnonzero(ranks == k)
        if len(mats) == 1:
            yield rows, s[:, :k], vh[:, :k], b[:, :k], y_perp_sq
        elif rows.size == len(ys) and k == width:
            yield rows, s, vh, b, y_perp_sq
        else:
            yield rows, s[rows, :k], vh[rows, :k], b[rows, :k], y_perp_sq[rows]


class _RowBallProjection:
    """_BallProjection with the per-measurement state of each row of y, each
    through its own factor; keep() drops the rows whose solves have stopped.

    s, vh, b and y_perp_sq come from _rank_stacks: s and vh have a row per
    row of y, or one row that every row shares. The product with V is taken
    as conj(conj(delta) vh), so V is never stored.
    """

    def __init__(self, s, vh, b, y_perp_sq, eps: np.ndarray):
        self.s, self.ssq, self.vh = s, s * s, vh
        self.shared = vh.shape[0] == 1
        self.b, self.sb, self.c_ls = b, s * b, b / s
        self.y_perp_sq = y_perp_sq
        self.eps_sq, self.target = eps * eps, eps * eps - y_perp_sq
        self.lam = np.zeros(b.shape[0])

    def keep(self, rows: np.ndarray):
        names = ("b", "sb", "c_ls", "y_perp_sq", "eps_sq", "target", "lam")
        for name in names + (() if self.shared else ("s", "ssq")):
            setattr(self, name, getattr(self, name)[rows])
        if not self.shared:  # compact vh in place: a copy would double the stack
            kept = np.flatnonzero(rows)
            for to, frm in enumerate(kept):
                if to != frm:
                    self.vh[to] = self.vh[frm]
            self.vh = self.vh[:kept.size]

    def project(self, a: np.ndarray) -> np.ndarray:
        c0 = np.matmul(self.vh, a[:, :, None])[:, :, 0]
        d = self.s * c0 - self.b
        move = np.flatnonzero(~(_row_sq_norms(d) + self.y_perp_sq <= self.eps_sq))
        if not move.size:
            return a
        c = self.c_ls[move]
        sec = self.target[move] > 0.0
        if sec.any():
            c[sec] = self._solve_secular(move[sec], c0[move[sec]], d[move[sec]])
        if move.size == a.shape[0]:
            return a + np.conj(np.matmul(np.conj(c - c0)[:, None, :], self.vh))[:, 0, :]
        delta = np.zeros_like(c0)  # rows that stay get exactly a back
        delta[move] = c - c0[move]
        step = np.conj(np.matmul(np.conj(delta)[:, None, :], self.vh))[:, 0, :]
        stay = np.ones(a.shape[0], dtype=bool)
        stay[move] = False
        return np.where(stay[:, None], a, a + step)

    def _solve_secular(self, rows, c0, d):
        """_BallProjection._solve_secular; a row within tolerance stops stepping."""
        dsq = d.real**2 + d.imag**2
        ssq = self.ssq if self.shared else self.ssq[rows]
        target, lam = self.target[rows], self.lam[rows]
        todo = np.ones(rows.size, dtype=bool)
        for _ in range(60):
            q = 1.0 + lam[:, None] * ssq
            r = dsq / (q * q)
            phi = r.sum(axis=1)
            todo &= ~(np.abs(phi - target) <= 1e-9 * target)
            if not todo.any():
                break
            step = 2.0 * phi * (1.0 - np.sqrt(phi / target)) / (-2.0 * (r * (ssq / q)).sum(axis=1))
            lam = np.where(todo, np.maximum(0.0, lam + step), lam)
        q = 1.0 + lam[:, None] * ssq
        self.lam[rows] = lam
        return (c0 + lam[:, None] * self.sb[rows]) / q


def _solve_batched_l1(s, vh, b, y_perp_sq, y_rows, eps, entry_weights, max_iter: int = 5000,
                      tol: float = 1e-6):
    """_solve_constrained_l1 of each row of y_rows, eps and entry_weights.

    s, vh, b and y_perp_sq are one rank's stacks from _rank_stacks. Each row
    keeps its own rho, warm start, stop test, balancing and flags, and leaves
    the batch when it stops. Returns the estimates, iteration counts and
    converged flags, which agree with the serial core's up to rounding.
    """
    n_rows, n = y_rows.shape[0], vh.shape[2]
    proj = _RowBallProjection(s, vh, b, y_perp_sq, eps)
    feas_slack = 1e-12 * np.maximum(1.0, np.sqrt(_row_sq_norms(y_rows)))
    infeasible = np.sqrt(proj.y_perp_sq) > eps + feas_slack
    w = entry_weights / entry_weights.mean(axis=1, keepdims=True)
    rho, thresh = np.ones(n_rows), w  # thresh is w / rho
    z = proj.project(np.zeros((n_rows, n), dtype=complex))
    v, u = np.zeros_like(z), np.zeros_like(z)
    live, z_out = np.arange(n_rows), z.copy()
    iterations, hit_tol = np.zeros(n_rows, dtype=int), np.zeros(n_rows, dtype=bool)
    for it in range(1, max_iter + 1):
        z_prev = z
        z = proj.project(v - u)
        zu = (RELAXATION * z + (1.0 - RELAXATION) * v) + u
        v_new = _soft_threshold(zu, thresh)
        u = zu - v_new
        primal = np.sqrt(_row_sq_norms(z - v_new))
        scale = np.maximum(np.sqrt(_row_sq_norms(z)), 1e-12)
        change = np.sqrt(_row_sq_norms(z - z_prev))
        stop = np.maximum(change, primal) <= tol * scale
        if it % 10 == 0:  # residual balancing, as in the serial core
            dual = rho * np.sqrt(_row_sq_norms(v_new - v))
            up = (primal > 10.0 * dual) & (rho < 1e8)
            down = ~up & (dual > 10.0 * primal) & (rho > 1e-8)
            rho = np.where(up, rho * 2.0, np.where(down, rho / 2.0, rho))
            u = np.where(up[:, None], u / 2.0, np.where(down[:, None], u * 2.0, u))
            thresh = w / rho[:, None]
        v = v_new
        end = stop | (it == max_iter)
        if end.any():
            z_out[live[end]], iterations[live[end]], hit_tol[live[end]] = z[end], it, stop[end]
            live, z, v, u, rho, w, thresh = (a[~end] for a in (live, z, v, u, rho, w, thresh))
            proj.keep(~end)
            if not live.size:
                break
    return z_out, iterations, hit_tol & ~infeasible


def _entry_weights(problem: RecoveryProblem, part: BlockPartition, solver: str) -> np.ndarray:
    """The problem's block weights expanded to one weight per entry of z."""
    if problem.weights is None:
        raise ValueError(f"{solver} requires block weights on the problem")
    if part.n != problem.psi.n:
        raise ValueError(f"partition n={part.n} does not match psi n={problem.psi.n}")
    if problem.weights.shape != (part.g,):
        raise ValueError(f"need {part.g} block weights, got shape {problem.weights.shape}")
    return np.repeat(problem.weights, part.block_sizes)


def solve_lasso(problem: RecoveryProblem, **opts) -> RecoveryResult:
    """Plain constrained l1 recovery (uniform weights)."""
    if problem.weights is not None:
        raise ValueError("plain l1 takes no block weights; use solve_wlasso")
    ones = np.ones(problem.psi.n)
    return _solve_constrained_l1(problem.psi.psi, problem.y, problem.epsilon, ones, **opts)


def solve_wlasso(problem: RecoveryProblem, part: BlockPartition, **opts) -> RecoveryResult:
    """Block-weighted constrained l1 recovery."""
    w = _entry_weights(problem, part, "solve_wlasso")
    return _solve_constrained_l1(problem.psi.psi, problem.y, problem.epsilon, w, **opts)


def l1_batch(problems, part: BlockPartition | None = None, **opts) -> list[RecoveryResult]:
    """solve_lasso (no part) or solve_wlasso (with part) of every problem.

    Problems whose Psi have the same shape and whose SvdFactor keeps the same
    rank are solved as one row-batched iteration, which pays numpy's per-call
    cost once per step for all of them. Each problem gets its own factor,
    unless every problem of a shape is on one SensingMatrix object, which
    then has one factor for all. No row depends on its batch-mates, so a
    problem's result is bitwise the same in any batch, and matches the
    one-problem solver's up to rounding. wall_time is the call's time over
    its number of problems.
    """
    t0 = time.perf_counter()
    problems = list(problems)
    if not problems:
        raise ValueError("l1_batch needs at least one problem")
    if part is None and any(p.weights is not None for p in problems):
        raise ValueError("plain l1 takes no block weights; pass the partition")
    weights = [np.ones(p.psi.n) if part is None else _entry_weights(p, part, "l1_batch")
               for p in problems]
    solved = [None] * len(problems)
    by_shape = {}
    for i, p in enumerate(problems):
        by_shape.setdefault(p.psi.psi.shape, []).append(i)
    for rows in by_shape.values():
        psis = [problems[i].psi for i in rows]
        shared = all(psi is psis[0] for psi in psis)
        ys = np.stack([problems[i].y for i in rows])
        eps = np.array([problems[i].epsilon for i in rows])
        w = np.stack([weights[i] for i in rows])
        mats = [psi.psi for psi in (psis[:1] if shared else psis)]
        for sel, *stacks in _rank_stacks(mats, ys):  # rows of one rank share a stack
            z, iterations, converged = _solve_batched_l1(*stacks, ys[sel], eps[sel], w[sel],
                                                         **opts)
            for r, j in enumerate(sel):
                p = problems[rows[j]]
                solved[rows[j]] = (z[r], float(np.linalg.norm(p.psi.psi @ z[r] - p.y)),
                                   int(iterations[r]), bool(converged[r]))
    wall_time = (time.perf_counter() - t0) / len(problems)
    return [RecoveryResult(z, residual, iterations, wall_time, converged)
            for z, residual, iterations, converged in solved]


def solve_wlasso_scaled(problem: RecoveryProblem, part: BlockPartition, **opts) -> RecoveryResult:
    """Column-scaled reformulation of the block-weighted recovery.

    Solves the plain l1 program on Psi with columns divided by the per-band
    weights (boosting believed-busy blocks), then maps the solution back.
    Equivalent to solve_wlasso up to solver tolerance.
    """
    diag = _entry_weights(problem, part, "solve_wlasso_scaled")
    diag = diag / diag.mean()  # the minimizer is invariant to this scaling
    scaled = problem.psi.psi / diag[np.newaxis, :]
    inner = _solve_constrained_l1(scaled, problem.y, problem.epsilon, np.ones(part.n), **opts)
    x_star = inner.z_star / diag
    residual = float(np.linalg.norm(problem.psi.psi @ x_star - problem.y))
    return replace(inner, z_star=x_star, residual_norm=residual)


def solve_bp(psi: SensingMatrix, y, **opts) -> RecoveryResult:
    """Equality-constrained l1 recovery for noise-free measurements.

    Implemented as the constrained solver with a tolerance-sized residual
    budget; an inconsistent system is reported through converged=False.
    """
    y = np.asarray(y, dtype=complex)
    eps = 1e-9 * float(np.linalg.norm(y))
    problem = RecoveryProblem(psi=psi, y=y, epsilon=eps)
    return solve_lasso(problem, **opts)


# ---------------------------------------------------------------------------
# Occupancy decision and error metrics


def decide_occupancy(spectra, threshold: float) -> np.ndarray:
    """Energy detection over M recovered windows.

    Band b is declared occupied when sum_t |z_b[t]|^2 meets the threshold.
    """
    if not threshold > 0:  # NaN fails too
        raise ValueError(f"threshold must be positive, got {threshold}")
    stack = np.atleast_2d(np.asarray(spectra))
    if stack.shape[0] < 1:
        raise ValueError("need at least one recovered window")
    energy = np.sum(np.abs(stack) ** 2, axis=0)
    return energy >= threshold


def nmse(z_star, x) -> float:
    """Recovery error over the occupied-band count: ||z - x||_2 / ||x||_0."""
    x = np.asarray(x)
    support = int(np.count_nonzero(x))
    if support == 0:
        raise ValueError("nmse needs a non-zero reference vector")
    return float(np.linalg.norm(np.asarray(z_star) - x)) / support


def nmse_l2(z_star, x) -> float:
    """Energy-normalized recovery error: ||z - x||_2 / ||x||_2."""
    x = np.asarray(x)
    denom = float(np.linalg.norm(x))
    if denom == 0:
        raise ValueError("nmse_l2 needs a non-zero reference vector")
    return float(np.linalg.norm(np.asarray(z_star) - x)) / denom


def error_gain(e_other: float, e_wlasso: float) -> float:
    """Relative error reduction of the weighted recovery vs a competitor."""
    if e_other <= 0:
        raise ValueError(f"competitor error must be positive, got {e_other}")
    return (e_other - e_wlasso) / e_other
