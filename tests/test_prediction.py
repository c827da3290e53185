import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widescan.prediction import (
    OccupancyHistory,
    fit_gd,
    predict_sparsity,
    required_measurements,
)


def lag_design(series, lag):
    rows = np.stack([series[t - lag : t] for t in range(lag, len(series))])
    return np.hstack([np.ones((rows.shape[0], 1)), rows]), series[lag:]


def least_squares_oracle(series, lag):
    """Minimum-norm least-squares fit of (intercept, lag coefficients)."""
    design, targets = lag_design(series, lag)
    theta = np.linalg.pinv(design) @ targets
    return theta


def curvature(series, lag):
    """Top eigenvalue of the loss Hessian (2/N) D^T D."""
    design, _ = lag_design(series, lag)
    return 2.0 * np.linalg.norm(design, 2) ** 2 / design.shape[0]


def gd_loop(series, lag, epochs, rate=None):
    """Reference: fit_gd's estimator as an explicit epoch loop from zero."""
    design, targets = lag_design(series, lag)
    n_rows = design.shape[0]
    rate = 1.0 / curvature(series, lag) if rate is None else rate
    theta = np.zeros(lag + 1)
    for _ in range(epochs):
        err = design @ theta - targets
        theta = theta - rate * (2.0 / n_rows) * (design.T @ err)
    return theta


def fitted(pred, block=0):
    return np.concatenate(([pred.intercept[block]], pred.coef[block]))


def one_block_history(series):
    counts = np.asarray(series, dtype=float)[:, None]
    return OccupancyHistory(counts=counts, block_sizes=(int(counts.max()) + 5,))


class TestHistory:
    def test_counts_must_respect_block_sizes(self):
        with pytest.raises(ValueError):
            OccupancyHistory(counts=[[5.0]], block_sizes=(4,))


class TestFitGd:
    def test_constant_series_predicts_constant(self):
        hist = one_block_history([3.0] * 30)
        pred = fit_gd(hist, lag=3, epochs=4000)
        out = predict_sparsity(pred, np.full((1, 3), 3.0))
        assert abs(out[0] - 3.0) <= 1e-3

    def test_linear_trend_matches_normal_equations(self):
        series = 1.0 + 0.35 * np.arange(40)
        hist = one_block_history(series)
        lag = 2
        pred = fit_gd(hist, lag=lag, epochs=60000)
        oracle = least_squares_oracle(series, lag)
        fitted = np.concatenate(([pred.intercept[0]], pred.coef[0]))
        assert np.max(np.abs(fitted - oracle)) <= 1e-2

    def test_zero_epochs_is_zero_predictor(self):
        hist = one_block_history([2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        pred = fit_gd(hist, lag=2, epochs=0)
        assert np.all(pred.coef == 0) and np.all(pred.intercept == 0)

    def test_divergent_rate_raises(self):
        hist = one_block_history(np.linspace(1, 20, 30))
        with pytest.raises(ValueError, match="smaller learning_rate"):
            fit_gd(hist, lag=2, learning_rate=5.0, epochs=200)

    def test_loss_never_increases_with_auto_rate(self):
        # monotone descent oracle: track the loss trajectory externally
        rng = np.random.default_rng(0)
        series = np.clip(5 + np.cumsum(rng.normal(0, 0.4, 50)), 0, 20)
        hist = one_block_history(series)
        design, targets = lag_design(series, 3)
        n_rows = design.shape[0]
        rate = 1.0 / (2.0 * np.linalg.norm(design, 2) ** 2 / n_rows)
        theta = np.zeros(4)
        losses = []
        for _ in range(300):
            err = design @ theta - targets
            losses.append(float(err @ err) / n_rows)
            theta = theta - rate * (2.0 / n_rows) * (design.T @ err)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        fit_gd(hist, lag=3, epochs=300)  # must not raise

    def test_exact_fit_under_auto_rate_does_not_report_divergence(self):
        # miss_detect_cdf at master seed 3317326368, window 9: blocks 1 and 2
        # have four lag rows for six parameters and fit exactly, after which
        # the loss wobbles at 1e-32
        counts = [
            [2, 0, 2], [5, 2, 0], [2, 0, 1], [2, 2, 0], [1, 2, 1],
            [2, 2, 1], [2, 0, 0], [5, 0, 0], [3, 0, 0],
        ]
        hist = OccupancyHistory(counts=counts, block_sizes=(20, 20, 20))
        pred = fit_gd(hist, lag=5)
        for j in (1, 2):
            design, targets = lag_design(hist.counts[:, j], 5)
            fitted = np.concatenate(([pred.intercept[j]], pred.coef[j]))
            assert np.max(np.abs(design @ fitted - targets)) <= 1e-9

    def test_history_shorter_than_lag_rejected(self):
        hist = one_block_history([1.0, 2.0])
        with pytest.raises(ValueError):
            fit_gd(hist, lag=5)


class TestClosedForm:
    """fit_gd's closed form against the explicit epoch loop `gd_loop`."""

    def test_auto_rate_matches_epoch_loop(self):
        rng = np.random.default_rng(7)
        counts = np.clip(4 + np.cumsum(rng.normal(0, 0.8, (60, 3)), axis=0), 0, 20)
        hist = OccupancyHistory(counts=counts, block_sizes=(20, 20, 20))
        pred = fit_gd(hist, lag=5)
        for j in range(3):
            ref = gd_loop(hist.counts[:, j], 5, 500)
            assert np.max(np.abs(fitted(pred, j) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_first_epochs_match_epoch_loop(self, epochs):
        series = np.array([2.0, 3.0, 1.0, 4.0, 4.0, 2.0, 5.0, 3.0, 2.0, 6.0])
        pred = fit_gd(one_block_history(series), lag=3, epochs=epochs)
        ref = gd_loop(series, 3, epochs)
        assert np.max(np.abs(fitted(pred) - ref)) <= 1e-14 * (1 + np.max(np.abs(ref)))

    def test_constant_series_matches_epoch_loop(self):
        # every lag row is the same, so the Gram matrix has rank one and its
        # other eigenvalues are rounding noise of either sign
        series = np.full(25, 3.0)
        pred = fit_gd(one_block_history(series), lag=4)
        ref = gd_loop(series, 4, 500)
        assert np.all(np.isfinite(fitted(pred)))
        assert np.max(np.abs(fitted(pred) - ref)) <= 1e-12

    def test_oscillating_supplied_rate_matches_epoch_loop(self):
        # rate * lam_max = 1.9: the top component flips sign every epoch but
        # shrinks, so the loop converges and nothing may raise
        series = 5.0 + 2.0 * np.sin(0.7 * np.arange(40))
        rate = 1.9 / curvature(series, 2)
        pred = fit_gd(one_block_history(series), lag=2, learning_rate=rate, epochs=200)
        ref = gd_loop(series, 2, 200, rate)
        assert np.max(np.abs(fitted(pred) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_rate_past_two_over_curvature_raises_at_first_epoch(self):
        series = 5.0 + 2.0 * np.sin(0.7 * np.arange(40))
        hist = one_block_history(series)
        rate = 2.1 / curvature(series, 2)
        with pytest.raises(ValueError, match="smaller learning_rate"):
            fit_gd(hist, lag=2, learning_rate=rate, epochs=1)
        pred = fit_gd(hist, lag=2, learning_rate=rate, epochs=0)
        assert np.all(pred.coef == 0) and np.all(pred.intercept == 0)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            fit_gd(one_block_history(np.arange(10.0)), lag=2, epochs=-1)


class TestPredictSparsity:
    def test_clamps_below(self):
        pred = fit_gd(one_block_history([0.0] * 10), lag=2, epochs=0)
        out = predict_sparsity(pred, np.array([[0.0, 0.0]]))
        assert out[0] == 0.1

    def test_clamps_above_block_size(self):
        hist = OccupancyHistory(counts=np.full((10, 1), 4.0), block_sizes=(4,))
        pred = fit_gd(hist, lag=2, epochs=3000)
        out = predict_sparsity(pred, np.array([[40.0, 40.0]]))
        assert out[0] <= 4.0

    def test_shape_checked(self):
        pred = fit_gd(one_block_history([1.0] * 10), lag=2, epochs=1)
        with pytest.raises(ValueError):
            predict_sparsity(pred, np.zeros((2, 2)))


class TestRequiredMeasurements:
    def test_frozen_example(self):
        # ceil(2 * 5 * ln(100/5)) = ceil(29.957) = 30
        assert required_measurements(5.0, 100, c=2.0) == 30

    def test_cap_at_n(self):
        assert required_measurements(100.0, 100) == 100
        assert required_measurements(250.0, 100) == 100

    def test_doubling_c_never_decreases(self):
        for k in (0.5, 2.0, 10.0, 40.0):
            assert required_measurements(k, 100, c=4.0) >= required_measurements(
                k, 100, c=2.0
            )

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            required_measurements(0.0, 100)
        with pytest.raises(ValueError):
            required_measurements(5.0, 100, c=0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.integers(20, 300))
def test_budget_monotone_below_n_over_e(a, b, n):
    # k -> k ln(n/k) increases on (0, n/e]; the budget inherits that
    lo, hi = sorted((a, b))
    cap = n / math.e
    k_lo, k_hi = lo * cap, hi * cap
    assert required_measurements(k_lo, n) <= required_measurements(k_hi, n)
    assert required_measurements(k_hi, n) <= n
