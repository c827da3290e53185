"""Tracking and forecasting per-block occupancy levels to size the sampler.

Each block's realized occupied-band count is a time series; a lag-window
linear model per block forecasts the next value. Two trainers are provided:
full-batch gradient descent on squared error, and epsilon-insensitive
support-vector regression by primal subgradient descent. The forecast total
feeds the measurement-budget rule m = ceil(c * k * ln(n/k)).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

SPARSITY_FLOOR = 0.1


@dataclass(frozen=True)
class OccupancyHistory:
    """Realized occupied-band counts per block, one row per sensing window."""

    counts: np.ndarray  # shape (T, g)
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        counts = np.array(self.counts, dtype=float)
        if counts.ndim != 2 or counts.shape[0] < 1:
            raise ValueError(f"counts must be (T, g) with T >= 1, got {counts.shape}")
        sizes = tuple(int(s) for s in self.block_sizes)
        if counts.shape[1] != len(sizes):
            raise ValueError(
                f"counts has {counts.shape[1]} blocks but {len(sizes)} sizes given"
            )
        limits = np.asarray(sizes, dtype=float)
        if np.any(counts < 0) or np.any(counts > limits):
            raise ValueError("counts must lie in [0, block size] per block")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def T(self) -> int:
        return self.counts.shape[0]

    @property
    def g(self) -> int:
        return self.counts.shape[1]


@dataclass(frozen=True)
class Predictor:
    """Per-block lag-window linear forecaster (coefficients plus intercept)."""

    kind: str
    lag: int
    coef: np.ndarray  # shape (g, lag)
    intercept: np.ndarray  # shape (g,)
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if not np.all(np.isfinite(self.coef)) or not np.all(np.isfinite(self.intercept)):
            raise ValueError("predictor coefficients must be finite")
        self.coef.flags.writeable = False
        self.intercept.flags.writeable = False


def _lag_design(series: np.ndarray, lag: int):
    """Rows of the last `lag` values (oldest first) and the next value."""
    T = series.shape[0]
    rows = np.stack([series[t - lag : t] for t in range(lag, T)])
    return rows, series[lag:]


def _check_history(history: OccupancyHistory, lag: int):
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if history.T <= lag:
        raise ValueError(f"history length {history.T} must exceed lag {lag}")


def fit_gd(
    history: OccupancyHistory,
    lag: int = 5,
    learning_rate: float | None = None,
    epochs: int = 500,
) -> Predictor:
    """Least-squares lag model per block, trained by full-batch gradient descent.

    With the default (auto) rate the step equals the inverse curvature bound,
    so the training loss never increases beyond rounding and is not checked.
    Ten consecutive loss increases with a user-supplied rate raise an error
    suggesting a smaller one.
    """
    _check_history(history, lag)
    if learning_rate is not None and learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    g = history.g
    coef = np.zeros((g, lag))
    intercept = np.zeros(g)
    for j in range(g):
        feats, targets = _lag_design(history.counts[:, j], lag)
        n_rows = feats.shape[0]
        design = np.hstack([np.ones((n_rows, 1)), feats])
        lipschitz = 2.0 * np.linalg.norm(design, 2) ** 2 / n_rows
        rate = learning_rate if learning_rate is not None else 1.0 / lipschitz
        theta = np.zeros(lag + 1)
        prev_loss = math.inf
        rising = 0
        for _ in range(epochs):
            err = design @ theta - targets
            # Under the auto rate an exact fit leaves a loss near 1e-32 that
            # rounding wobble can raise ten times in a row: no divergence.
            if learning_rate is not None:
                loss = float(err @ err) / n_rows
                if loss > prev_loss:
                    rising += 1
                    if rising >= 10:
                        raise ValueError(
                            "gradient descent diverged; use a smaller learning_rate"
                        )
                else:
                    rising = 0
                prev_loss = loss
            theta = theta - rate * (2.0 / n_rows) * (design.T @ err)
        intercept[j] = theta[0]
        coef[j] = theta[1:]
    return Predictor(
        kind="gd_linear",
        lag=lag,
        coef=coef,
        intercept=intercept,
        block_sizes=history.block_sizes,
    )


def fit_svr(
    history: OccupancyHistory,
    lag: int = 5,
    C: float = 10.0,
    epsilon_tube: float = 0.0,
    epochs: int = 4000,
    learning_rate: float | None = None,
) -> Predictor:
    """Linear epsilon-insensitive regression by primal subgradient descent.

    Residuals inside the tube cost nothing; outside, the loss grows linearly
    with weight C against a ridge on the lag coefficients. Features are
    standardized internally for conditioning (targets are left raw, so a
    zero start inside the tube stays exactly zero); the best iterate and the
    tail average compete and the lower-loss one is returned.
    """
    _check_history(history, lag)
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    if epsilon_tube < 0:
        raise ValueError(f"epsilon_tube must be non-negative, got {epsilon_tube}")
    if learning_rate is not None and learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    g = history.g
    coef = np.zeros((g, lag))
    intercept = np.zeros(g)
    for j in range(g):
        feats, targets = _lag_design(history.counts[:, j], lag)
        n_rows = feats.shape[0]
        mu = feats.mean(axis=0)
        scale = feats.std(axis=0)
        scale[scale == 0] = 1.0
        design = np.hstack([np.ones((n_rows, 1)), (feats - mu) / scale])
        base_rate = (
            learning_rate
            if learning_rate is not None
            else 0.25 * (1.0 + float(targets.std()))
        )

        def loss_of(theta):
            excess = np.abs(design @ theta - targets) - epsilon_tube
            reg = 0.5 * float(theta[1:] @ theta[1:]) / (C * n_rows)
            return reg + float(np.maximum(excess, 0.0).mean())

        theta = np.zeros(lag + 1)
        best_theta = theta.copy()
        best_loss = loss_of(theta)
        prev_loss = best_loss
        tail_sum = np.zeros(lag + 1)
        tail_count = 0
        tail_start = epochs - max(1, epochs // 4)
        rising = 0
        for step in range(1, epochs + 1):
            err = design @ theta - targets
            active = np.abs(err) > epsilon_tube
            grad = np.concatenate(([0.0], theta[1:])) / (C * n_rows)
            if np.any(active):
                grad = grad + (design[active].T @ np.sign(err[active])) / n_rows
            theta = theta - (base_rate / math.sqrt(step)) * grad
            loss = loss_of(theta)
            if loss < best_loss:
                best_loss = loss
                best_theta = theta.copy()
            if step > tail_start:
                tail_sum += theta
                tail_count += 1
            if loss > prev_loss:
                rising += 1
                if rising >= 10 and learning_rate is not None:
                    raise ValueError(
                        "subgradient descent diverged; use a smaller learning_rate"
                    )
            else:
                rising = 0
            prev_loss = loss
        if tail_count:
            averaged = tail_sum / tail_count
            if loss_of(averaged) < best_loss:
                best_theta = averaged
        coef[j] = best_theta[1:] / scale
        intercept[j] = best_theta[0] - float((best_theta[1:] * mu / scale).sum())
    return Predictor(
        kind="svr_linear",
        lag=lag,
        coef=coef,
        intercept=intercept,
        block_sizes=history.block_sizes,
    )


def predict_sparsity(pred: Predictor, recent) -> np.ndarray:
    """Forecast each block's next occupied count from its last lag values.

    Predictions are clamped to [0.1, block size] so downstream weight design
    and measurement budgeting stay well-posed.
    """
    recent = np.asarray(recent, dtype=float)
    g = len(pred.block_sizes)
    if recent.shape != (g, pred.lag):
        raise ValueError(f"recent must have shape ({g}, {pred.lag}), got {recent.shape}")
    raw = np.sum(pred.coef * recent, axis=1) + pred.intercept
    return np.clip(raw, SPARSITY_FLOOR, np.asarray(pred.block_sizes, dtype=float))


def required_measurements(k_hat_total: float, n: int, c: float = 2.0) -> int:
    """Measurement budget from the sparsity forecast: ceil(c * k * ln(n/k)).

    Capped at n; a forecast at or above n returns n outright.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if k_hat_total <= 0:
        raise ValueError(f"k_hat_total must be positive, got {k_hat_total}")
    if k_hat_total >= n:
        return n
    m = math.ceil(c * k_hat_total * math.log(n / k_hat_total))
    return min(n, max(1, m))


def history_to_csv(history: OccupancyHistory, path):
    """Write the history as rows of (window, block, count)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "block", "k"])
        for t in range(history.T):
            for j in range(history.g):
                writer.writerow([t, j, repr(float(history.counts[t, j]))])


def history_from_csv(path, block_sizes) -> OccupancyHistory:
    """Read a history written by history_to_csv."""
    cells: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            cells[(int(row["t"]), int(row["block"]))] = float(row["k"])
    T = max(t for t, _ in cells) + 1
    g = len(block_sizes)
    counts = np.zeros((T, g))
    for (t, j), val in cells.items():
        counts[t, j] = val
    return OccupancyHistory(counts=counts, block_sizes=tuple(block_sizes))
