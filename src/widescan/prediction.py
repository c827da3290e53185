"""Tracking and forecasting per-block occupancy levels to size the sampler.

Each block's realized occupied-band count is a time series; a lag-window
linear model per block forecasts the next value. The model is trained by a
fixed number of full-batch gradient-descent epochs on squared error from a
zero start. Gradient descent on a quadratic loss is a linear spectral filter
(Landweber iteration), so the K-th iterate is computed in closed form from
one eigendecomposition of each block's Gram matrix; the early stopping that
K imposes stays part of the model. The forecast total feeds the
measurement-budget rule m = ceil(c * k * ln(n/k)).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .recovery import SPARSITY_FLOOR


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


def fit_gd(
    history: OccupancyHistory,
    lag: int = 5,
    learning_rate: float | None = None,
    epochs: int = 500,
) -> Predictor:
    """Least-squares lag model per block after `epochs` gradient-descent steps.

    Per block, with lag design D (a ones column, then the last `lag` values,
    oldest first), targets t and N rows, the loss (1/N)||D theta - t||^2 has
    gradient A theta - b with A = (2/N) D^T D = V diag(lam) V^T and
    b = (2/N) D^T t. Each step theta <- theta - rate (A theta - b) from
    theta = 0 scales the eigencomponents of b independently, so after K
    steps theta = V diag(phi(lam)) V^T b with
    phi(lam) = (1 - (1 - rate lam)^K) / lam, and phi = K rate for lam <= 0
    (rank-deficient designs, such as a constant history). This is the K-th
    gradient-descent iterate exactly, up to rounding.

    The default (auto) rate is 1/lam_max per block, the inverse curvature
    bound. A supplied rate applies to every block; the iteration diverges
    when rate * lam_max > 2 in some block, which raises a ValueError
    suggesting a smaller rate whenever `epochs` >= 1.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if history.T <= lag:
        raise ValueError(f"history length {history.T} must exceed lag {lag}")
    if learning_rate is not None and learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    # (g, N, lag + 1) windows: the first lag values are features, the last the target
    windows = sliding_window_view(history.counts.T, lag + 1, axis=1)
    n_rows = windows.shape[1]
    design = np.concatenate((np.ones(windows.shape[:2] + (1,)), windows[..., :lag]), axis=2)
    design_t = design.transpose(0, 2, 1)
    gram = (2.0 / n_rows) * (design_t @ design)
    rhs = (2.0 / n_rows) * (design_t @ windows[..., lag:])[..., 0]
    lam, vecs = np.linalg.eigh(gram)
    rate = 1.0 / lam[:, -1:] if learning_rate is None else float(learning_rate)
    step = rate * lam
    if learning_rate is not None and epochs and np.max(step) > 2.0:
        raise ValueError("gradient descent diverged; use a smaller learning_rate")
    # 1 - (1 - rate lam)^K; the auto rate puts the top step at 1 up to rounding,
    # where log1p(-step) is undefined, so that side takes the plain power
    shrink = 1.0 - (1.0 - step) ** epochs
    below = step < 1.0
    shrink[below] = -np.expm1(epochs * np.log1p(-step[below]))
    positive = lam > 0
    filt = np.where(positive, shrink / np.where(positive, lam, 1.0), epochs * rate)
    proj = (vecs.transpose(0, 2, 1) @ rhs[..., None])[..., 0]
    theta = (vecs @ (filt * proj)[..., None])[..., 0]
    return Predictor(
        kind="gd_linear",
        lag=lag,
        coef=theta[:, 1:],
        intercept=theta[:, 0],
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
