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
SvdFactor, which a caller whose Psi never changes reuses) and a
per-measurement part. Its Lagrange multiplier is the root of a trust-region
secular equation, found by Newton's method on the reciprocal residual norm
(concave, so the steps never overshoot from the left) and warm-started from
the previous projection's root. Greedy pursuits live in
widescan.greedy.
"""

import math
import time
from dataclasses import dataclass, replace

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
    a device whose Psi is fixed keeps one across measurements."""

    def __init__(self, a_mat: np.ndarray):
        u, s, vh = np.linalg.svd(a_mat, full_matrices=False)
        cutoff = (s[0] if s.size else 0.0) * 1e-12
        keep = s > cutoff
        self.u = u[:, keep]
        self.s = s[keep]
        self.vh = vh[keep]
        self.v = np.ascontiguousarray(self.vh.conj().T)
        self.ssq = self.s**2


class _BallProjection:
    """Exact Euclidean projection onto {z : ||A z - y||_2 <= eps} via one SVD.

    The SVD is an SvdFactor of A (built here unless one is given). The rest
    is per measurement y: b = U^H y, the unreachable norm, the least-squares
    point and the warm-started multiplier, which never outlives one solve.

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

    def __init__(self, a_mat: np.ndarray, y: np.ndarray, factor: SvdFactor | None = None):
        f = SvdFactor(a_mat) if factor is None else factor
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
    factor: SvdFactor | None = None,
) -> RecoveryResult:
    """Splitting iteration for the weighted constrained l1 program.

    Entry weights are rescaled to unit mean internally; the minimizer is
    invariant to that scaling and uniform weights then reproduce the plain
    l1 path exactly. The projected iterate is returned, so converged results
    satisfy the residual bound to projection precision. A given factor must
    be SvdFactor(psi_mat); without one, the solve builds its own.
    """
    t0 = time.perf_counter()
    n = psi_mat.shape[1]
    proj = _BallProjection(psi_mat, y, factor)
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
