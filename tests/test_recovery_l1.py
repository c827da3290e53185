import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import gaussian_sensing, sparse_signal
from widescan.measurement import ReductionMatrix, SensingMatrix, compose_sensing
from widescan.recovery import (
    RecoveryProblem,
    SvdFactor,
    _BallProjection,
    _rank_stacks,
    _solve_batched_l1,
    _solve_constrained_l1,
    design_weights,
    l1_batch,
    solve_bp,
    solve_lasso,
    solve_wlasso,
    solve_wlasso_scaled,
)
from widescan.spectrum import make_block_partition


def brute_force_l0(psi_mat, y, k_max, tol):
    """Exhaustive minimal-support search: least-squares fit on every support
    of size <= k_max; returns (supports achieving the tolerance at the
    minimal size, that size)."""
    n = psi_mat.shape[1]
    y_norm = np.linalg.norm(y)
    for size in range(k_max + 1):
        hits = []
        for support in itertools.combinations(range(n), size):
            if size == 0:
                resid = y_norm
            else:
                cols = psi_mat[:, list(support)]
                coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
                resid = np.linalg.norm(y - cols @ coef)
            if resid <= tol * max(y_norm, 1e-30):
                hits.append(tuple(support))
        if hits:
            return hits, size
    return [], None


def support_of(z, rel=1e-3):
    z = np.asarray(z)
    top = np.abs(z).max()
    if top == 0:
        return ()
    return tuple(np.flatnonzero(np.abs(z) > rel * top))


class TestDesignWeights:
    def test_uniform(self):
        assert np.allclose(design_weights([1, 1, 1]), [1 / 3] * 3)

    def test_inverse_proportional(self):
        assert np.allclose(design_weights([1, 2, 4]), [4 / 7, 2 / 7, 1 / 7])

    def test_half_split(self):
        assert np.allclose(design_weights([2, 2, 1]), [0.25, 0.25, 0.5])

    def test_zero_floored_not_infinite(self):
        w = design_weights([0.0, 1.0])
        assert np.all(np.isfinite(w)) and np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_sparser_block_weighs_more(self):
        w = design_weights([5.0, 0.5, 2.0])
        assert w[1] > w[2] > w[0]


class TestProblemValidation:
    def test_negative_epsilon_rejected(self):
        psi = gaussian_sensing(4, 8, seed=0)
        with pytest.raises(ValueError):
            RecoveryProblem(psi=psi, y=np.zeros(4), epsilon=-1.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, eps):
        psi = gaussian_sensing(4, 8, seed=0)
        with pytest.raises(ValueError, match="finite"):
            RecoveryProblem(psi=psi, y=np.zeros(4), epsilon=eps)

    def test_weights_must_sum_to_one(self):
        psi = gaussian_sensing(4, 8, seed=0)
        with pytest.raises(ValueError):
            RecoveryProblem(psi=psi, y=np.zeros(4), epsilon=0.0, weights=[0.7, 0.7])

    def test_nonpositive_weights_rejected(self):
        psi = gaussian_sensing(4, 8, seed=0)
        with pytest.raises(ValueError):
            RecoveryProblem(psi=psi, y=np.zeros(4), epsilon=0.0, weights=[1.5, -0.5])

    def test_lasso_refuses_weights(self):
        psi = gaussian_sensing(4, 8, seed=0)
        prob = RecoveryProblem(psi=psi, y=np.zeros(4), epsilon=0.0, weights=[0.5, 0.5])
        with pytest.raises(ValueError):
            solve_lasso(prob)

    def test_wlasso_requires_weights(self):
        psi = gaussian_sensing(4, 8, seed=0)
        part = make_block_partition(8, [4, 4], [0.5, 0.5])
        with pytest.raises(ValueError):
            solve_wlasso(RecoveryProblem(psi=psi, y=np.zeros(4), epsilon=0.0), part)

    def test_weight_partition_mismatch_rejected(self):
        psi = gaussian_sensing(4, 8, seed=0)
        part = make_block_partition(8, [2, 3, 3], [0.5, 0.5, 0.5])
        prob = RecoveryProblem(psi=psi, y=np.zeros(4), epsilon=0.0, weights=[0.5, 0.5])
        with pytest.raises(ValueError):
            solve_wlasso(prob, part)


class TestLasso:
    def test_zero_data_zero_solution(self):
        psi = gaussian_sensing(6, 12, seed=1)
        res = solve_lasso(RecoveryProblem(psi=psi, y=np.zeros(6), epsilon=0.0))
        assert np.all(res.z_star == 0) and res.converged

    def test_one_sparse_exact_recovery_matches_exhaustive_search(self):
        # oracle: exhaustive 1-sparse support search per seed
        for seed in range(20):
            rng = np.random.default_rng(seed)
            psi = gaussian_sensing(8, 32, seed=seed)
            x, support = sparse_signal(32, 1, rng)
            y = psi.psi @ x
            res = solve_lasso(RecoveryProblem(psi=psi, y=y, epsilon=1e-8))
            assert np.linalg.norm(res.z_star - x) <= 1e-4 * np.linalg.norm(x)
            hits, size = brute_force_l0(psi.psi, y, 1, tol=1e-8)
            assert size == 1 and support_of(res.z_star) == hits[0] == tuple(support)

    def test_large_epsilon_returns_zero(self):
        rng = np.random.default_rng(0)
        psi = gaussian_sensing(6, 12, seed=2)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        res = solve_lasso(
            RecoveryProblem(psi=psi, y=y, epsilon=1.01 * np.linalg.norm(y))
        )
        assert np.all(res.z_star == 0) and res.converged

    def test_infeasible_epsilon_flagged(self):
        # rank-deficient Psi cannot reach every y; tiny epsilon is infeasible
        entries = np.zeros((3, 8))
        entries[0, 0] = entries[1, 1] = 1.0  # row 2 all zero -> rank 2
        phi = ReductionMatrix(kind="gaussian", m=3, n=8, entries=entries, seed=None)
        psi = compose_sensing(phi)
        y = np.array([0.0, 0.0, 1.0], dtype=complex)
        res = solve_lasso(RecoveryProblem(psi=psi, y=y, epsilon=1e-6))
        assert not res.converged

    def test_residual_norm_reported_consistently(self):
        rng = np.random.default_rng(3)
        psi = gaussian_sensing(10, 24, seed=3)
        x, _ = sparse_signal(24, 2, rng)
        y = psi.psi @ x + 0.05 * (rng.standard_normal(10) + 1j * rng.standard_normal(10))
        res = solve_lasso(RecoveryProblem(psi=psi, y=y, epsilon=0.2))
        recomputed = np.linalg.norm(psi.psi @ res.z_star - y)
        assert abs(recomputed - res.residual_norm) <= 1e-9


class TestWlasso:
    def test_uniform_weights_reduce_to_lasso(self):
        rng = np.random.default_rng(4)
        part = make_block_partition(24, [8, 8, 8], [0.2, 0.2, 0.2])
        psi = gaussian_sensing(10, 24, seed=4)
        x, _ = sparse_signal(24, 3, rng)
        y = psi.psi @ x + 0.02 * (rng.standard_normal(10) + 1j * rng.standard_normal(10))
        prob_w = RecoveryProblem(psi=psi, y=y, epsilon=0.1, weights=[1 / 3] * 3)
        prob_p = RecoveryProblem(psi=psi, y=y, epsilon=0.1)
        zw = solve_wlasso(prob_w, part).z_star
        zp = solve_lasso(prob_p).z_star
        assert np.linalg.norm(zw - zp) <= 1e-4 * max(np.linalg.norm(zp), 1e-12)

    def test_zero_data(self):
        part = make_block_partition(12, [6, 6], [0.5, 0.5])
        psi = gaussian_sensing(6, 12, seed=5)
        prob = RecoveryProblem(psi=psi, y=np.zeros(6), epsilon=0.0, weights=[0.5, 0.5])
        res = solve_wlasso(prob, part)
        assert np.all(res.z_star == 0)

    def test_weight_scale_invariance_of_minimizer(self):
        # scaling all entry weights leaves the constrained minimizer unchanged
        from widescan.recovery import _solve_constrained_l1

        rng = np.random.default_rng(6)
        psi = gaussian_sensing(9, 20, seed=6)
        x, _ = sparse_signal(20, 3, rng)
        y = psi.psi @ x + 0.02 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
        base = np.repeat([4.0, 1.0], 10)
        res_a = _solve_constrained_l1(psi.psi, y, 0.1, base)
        res_b = _solve_constrained_l1(psi.psi, y, 0.1, 7.3 * base)
        assert np.linalg.norm(res_a.z_star - res_b.z_star) <= 1e-4 * max(
            np.linalg.norm(res_a.z_star), 1e-12
        )

    def test_feasibility_of_converged_results(self):
        rng = np.random.default_rng(7)
        part = make_block_partition(30, [10, 10, 10], [0.3, 0.1, 0.05])
        w = design_weights([3.0, 1.0, 0.5])
        for seed in range(15):
            psi = gaussian_sensing(12, 30, seed=100 + seed)
            x, _ = sparse_signal(30, 4, rng)
            noise = 0.05 * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
            y = psi.psi @ x + noise
            eps = 0.3
            res = solve_wlasso(
                RecoveryProblem(psi=psi, y=y, epsilon=eps, weights=w), part
            )
            if res.converged:
                assert res.residual_norm <= eps * (1 + 1e-6)


class TestScaledFormulation:
    def test_uniform_weights_match_lasso(self):
        rng = np.random.default_rng(8)
        part = make_block_partition(16, [8, 8], [0.3, 0.3])
        psi = gaussian_sensing(8, 16, seed=8)
        x, _ = sparse_signal(16, 2, rng)
        y = psi.psi @ x + 0.02 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        prob = RecoveryProblem(psi=psi, y=y, epsilon=0.1, weights=[0.5, 0.5])
        scaled = solve_wlasso_scaled(prob, part).z_star
        plain = solve_lasso(RecoveryProblem(psi=psi, y=y, epsilon=0.1)).z_star
        assert np.linalg.norm(scaled - plain) <= 1e-4 * max(np.linalg.norm(plain), 1e-12)

    def test_matches_direct_weighted_solver_on_random_instances(self):
        # 50 seeded instances: the two formulations agree within 1e-3 relative
        part = make_block_partition(24, [8, 8, 8], [0.5, 0.1, 0.05])
        w = design_weights([4.0, 0.8, 0.4])
        failures = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            psi = gaussian_sensing(10, 24, seed=300 + seed)
            x, _ = sparse_signal(24, 3, rng)
            y = psi.psi @ x + 0.03 * (rng.standard_normal(10) + 1j * rng.standard_normal(10))
            prob = RecoveryProblem(psi=psi, y=y, epsilon=0.15, weights=w)
            direct = solve_wlasso(prob, part).z_star
            scaled = solve_wlasso_scaled(prob, part).z_star
            gap = np.linalg.norm(scaled - direct)
            if gap > 1e-3 * (np.linalg.norm(direct) + 1e-12):
                failures += 1
        assert failures == 0

    def test_zero_data(self):
        part = make_block_partition(12, [6, 6], [0.5, 0.5])
        psi = gaussian_sensing(6, 12, seed=9)
        prob = RecoveryProblem(psi=psi, y=np.zeros(6), epsilon=0.0, weights=[0.5, 0.5])
        assert np.all(solve_wlasso_scaled(prob, part).z_star == 0)


def bisection_projection(proj, a, eps):
    """Reference ball projection: the multiplier found by plain bisection on
    the squared residual norm to a relative width of 1e-14."""
    c0 = proj.vh @ a
    d = proj.s * c0 - proj.b
    target = eps**2 - proj.y_perp_sq

    def phi(lam):
        return float(np.sum(np.abs(d) ** 2 / (1.0 + lam * proj.s**2) ** 2))

    lo, hi = 0.0, 1.0
    while phi(hi) > target:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if phi(mid) > target else (lo, mid)
    lam = 0.5 * (lo + hi)
    c = (c0 + lam * proj.s * proj.b) / (1.0 + lam * proj.s**2)
    return a + proj.vh.conj().T @ (c - c0), lam


class TestBallProjection:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.a_mat = gaussian_sensing(8, 20, seed=12).psi
        self.y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        self.a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        self.eps = 0.3 * np.linalg.norm(self.a_mat @ self.a - self.y)

    def assert_matches_reference(self, proj, eps):
        ref, lam = bisection_projection(proj, self.a, eps)
        got = proj.project(self.a, eps)
        assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)
        assert abs(proj._lam - lam) <= 1e-8 * lam
        return got, lam

    def test_result_lies_on_the_ball_boundary(self):
        proj = _BallProjection(self.a_mat, self.y)
        got, _ = self.assert_matches_reference(proj, self.eps)
        residual = np.linalg.norm(self.a_mat @ got - self.y)
        assert abs(residual - self.eps) <= 1e-9 * self.eps

    @pytest.mark.parametrize("start", [0.0, 0.5, 20.0])
    def test_warm_start_left_or_right_of_the_root_converges(self, start):
        proj = _BallProjection(self.a_mat, self.y)
        _, lam = bisection_projection(proj, self.a, self.eps)
        proj._lam = start * lam
        self.assert_matches_reference(proj, self.eps)

    def test_tiny_budget(self):
        # the budget solve_bp sets: the root lies about 1e9 right of a cold start
        eps = 1e-9 * np.linalg.norm(self.y)
        proj = _BallProjection(self.a_mat, self.y)
        got, lam = self.assert_matches_reference(proj, eps)
        assert lam > 1e8
        assert np.linalg.norm(self.a_mat @ got - self.y) <= eps * (1 + 1e-6)

    def test_unattainable_budget_returns_least_squares_point(self):
        # rank 2 of 3 rows: the unreachable part of y exceeds the budget
        a_mat = np.zeros((3, 8), dtype=complex)
        a_mat[0, 0] = a_mat[1, 1] = 1.0
        y = np.array([1.0, 2.0, 1.0], dtype=complex)
        proj = _BallProjection(a_mat, y)
        got = proj.project(self.a[:8], 0.5)
        expected = self.a[:8] + np.linalg.pinv(a_mat) @ (y - a_mat @ self.a[:8])
        assert np.allclose(got, expected, rtol=0, atol=1e-12)


def _shared_psi_batch(seed, rows=12, m=12, n=30, noise=0.05, scale=1.0):
    """(psi, measurements, block partition, weights) of rows problems on one Psi."""
    rng = np.random.default_rng(seed)
    psi = gaussian_sensing(m, n, seed=seed)
    part = make_block_partition(n, [10, 10, 10], [0.3, 0.1, 0.05])
    ys = []
    for _ in range(rows):
        x, _ = sparse_signal(n, 3, rng)
        e = noise * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        ys.append(scale * (psi.psi @ x + e))
    return psi, np.stack(ys), part, design_weights([3.0, 1.0, 0.5])


def _per_row_psi_problems(seed, rows=12, m=12, n=30, noise=0.05, budget=0.3, weighted=True):
    """(problems, block partition) of rows problems, each on its own Psi."""
    rng = np.random.default_rng(seed)
    part = make_block_partition(n, [10, 10, 10], [0.3, 0.1, 0.05])
    w = design_weights([3.0, 1.0, 0.5]) if weighted else None
    problems = []
    for r in range(rows):
        psi = gaussian_sensing(m, n, seed=seed * 1000 + r)
        x, _ = sparse_signal(n, 3, rng)
        y = psi.psi @ x + noise * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        problems.append(RecoveryProblem(psi=psi, y=y, epsilon=budget, weights=w))
    return problems, part


def _fingerprint(result):
    return (result.z_star.tobytes(), result.residual_norm, result.iterations, result.converged)


def _assert_batch_is_split_and_order_free(problems, part, pieces):
    whole = [_fingerprint(r) for r in l1_batch(problems, part)]
    for piece in pieces:
        split = [
            _fingerprint(r)
            for i in range(0, len(problems), piece)
            for r in l1_batch(problems[i:i + piece], part)
        ]
        assert split == whole
    order = np.random.default_rng(0).permutation(len(problems))
    shuffled = l1_batch([problems[i] for i in order], part)
    assert [_fingerprint(shuffled[k]) for k in np.argsort(order)] == whole


class TestSharedPsiBatch:
    def test_no_row_depends_on_its_batch_mates(self):
        # every product and norm is taken row by row, so any split or order
        # of the batch gives bitwise the same rows
        psi, ys, part, w = _shared_psi_batch(21, rows=15)
        problems = [RecoveryProblem(psi=psi, y=y, epsilon=0.3, weights=w) for y in ys]
        _assert_batch_is_split_and_order_free(problems, part, (1, 4, 7))

    def test_rows_on_one_psi_share_its_factor(self, monkeypatch):
        import widescan.recovery as recovery

        built = []

        class SpyFactor(recovery.SvdFactor):
            def __init__(self, a_mat):
                built.append(a_mat.shape)
                super().__init__(a_mat)

        monkeypatch.setattr(recovery, "SvdFactor", SpyFactor)
        psi, ys, part, w = _shared_psi_batch(8, rows=5)
        l1_batch([RecoveryProblem(psi=psi, y=y, epsilon=0.3, weights=w) for y in ys], part)
        assert built == [psi.psi.shape]

    @pytest.mark.parametrize("case", ["unreachable", "tiny_budget", "max_iter_cap",
                                      "rho_both_ways", "per_row_weights", "per_row_psi"])
    def test_agrees_with_the_serial_core(self, case):
        psi, ys, _, _ = _shared_psi_batch(
            5, rows=6, scale=1e-2 if case == "rho_both_ways" else 1.0
        )
        a = psi.psi
        eps = np.full(len(ys), 0.3 * (1e-2 if case == "rho_both_ways" else 1.0))
        weights = np.ones((len(ys), a.shape[1]))
        mats, opts = [a] * len(ys), {}
        if case == "unreachable":  # rank 8 of 12 rows: the part of y outside range(Psi)
            mats = [np.vstack([a[:8], a[:4]])] * len(ys)
            eps[::2] = 1e-3  # is out of reach for these rows only
        elif case == "tiny_budget":  # the budget solve_bp sets
            eps = 1e-9 * np.linalg.norm(ys, axis=1)
        elif case == "max_iter_cap":
            opts = {"max_iter": 30}
        elif case == "per_row_weights":
            weights = np.random.default_rng(9).uniform(0.2, 3.0, weights.shape)
        elif case == "per_row_psi":
            mats = [gaussian_sensing(12, 30, seed=40 + r).psi for r in range(len(ys))]
        ((_, *stacks),) = _rank_stacks(mats if case == "per_row_psi" else mats[:1], ys)
        z, iterations, converged = _solve_batched_l1(*stacks, ys, eps, weights, **opts)
        for r, (b, y, e, w) in enumerate(zip(mats, ys, eps, weights)):
            want = _solve_constrained_l1(b, y, e, w, **opts)
            assert (iterations[r], converged[r]) == (want.iterations, want.converged)
            assert np.linalg.norm(z[r] - want.z_star) <= 1e-9 * np.linalg.norm(want.z_star)
        if case == "unreachable":
            assert not converged[::2].any()
        if case == "max_iter_cap":
            assert set(iterations) == {30}

    def test_rejects_an_empty_batch_and_weights_without_a_partition(self):
        with pytest.raises(ValueError, match="at least one problem"):
            l1_batch([])
        psi, ys, _, w = _shared_psi_batch(3, rows=2)
        with pytest.raises(ValueError, match="no block weights"):
            l1_batch([RecoveryProblem(psi=psi, y=ys[0], epsilon=0.3, weights=w)])


class TestPerRowPsiBatch:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_no_row_depends_on_its_batch_mates(self, weighted):
        problems, part = _per_row_psi_problems(31, rows=15, weighted=weighted)
        _assert_batch_is_split_and_order_free(problems, part if weighted else None, (1, 3, 7))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_agrees_with_the_one_problem_solvers(self, weighted):
        problems, part = _per_row_psi_problems(32, rows=8, weighted=weighted)
        for problem, got in zip(problems, l1_batch(problems, part if weighted else None)):
            want = solve_wlasso(problem, part) if weighted else solve_lasso(problem)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            assert np.linalg.norm(got.z_star - want.z_star) <= 1e-9 * np.linalg.norm(want.z_star)
            assert abs(got.residual_norm - want.residual_norm) <= 1e-9 * want.residual_norm

    def test_mixed_ranks_match_the_serial_core(self):
        # a duplicated row makes one Psi rank 11 of 12: its SvdFactor drops a
        # singular value, so it runs in a stack of its own
        problems, part = _per_row_psi_problems(33, rows=7, budget=0.2)
        a = problems[3].psi.psi
        deficient = SensingMatrix(psi=np.vstack([a[:11], a[:1]]))
        assert SvdFactor(deficient.psi).s.size == 11
        rng = np.random.default_rng(5)
        y = deficient.psi @ sparse_signal(30, 3, rng)[0] + 0.05 * rng.standard_normal(12)
        problems[3] = replace(problems[3], psi=deficient, y=y)
        unreachable = replace(problems[5], psi=deficient, epsilon=1e-4)
        problems.append(unreachable)
        batch = l1_batch(problems, part)
        for problem, got in zip(problems, batch):
            want = solve_wlasso(problem, part)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            assert np.linalg.norm(got.z_star - want.z_star) <= 1e-9 * np.linalg.norm(want.z_star)
        assert not batch[-1].converged  # y's part outside range(Psi) exceeds the budget
        assert [_fingerprint(r) for r in l1_batch(problems[3:4], part)] == [
            _fingerprint(batch[3])
        ]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31), st.floats(0.02, 0.8), st.booleans())
def test_converged_batched_rows_are_feasible(seed, eps_scale, per_row_psi):
    budgets = eps_scale * np.random.default_rng(seed).uniform(0.5, 1.5, 5)
    if per_row_psi:
        problems, part = _per_row_psi_problems(seed % 2**20, rows=5)
        problems = [replace(p, epsilon=e) for p, e in zip(problems, budgets)]
    else:
        psi, ys, part, w = _shared_psi_batch(seed, rows=5)
        problems = [RecoveryProblem(psi=psi, y=y, epsilon=e, weights=w)
                    for y, e in zip(ys, budgets)]
    for problem, res in zip(problems, l1_batch(problems, part)):
        if res.converged:
            assert res.residual_norm <= problem.epsilon * (1 + 1e-6)
        residual = np.linalg.norm(problem.psi.psi @ res.z_star - problem.y)
        assert abs(residual - res.residual_norm) <= 1e-9


class TestBasisPursuit:
    def test_exact_support_recovery_rate(self):
        # standard phase-transition regime: k=3, n=64, m=32
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            psi = gaussian_sensing(32, 64, seed=seed)
            x, support = sparse_signal(64, 3, rng)
            res = solve_bp(psi, psi.psi @ x)
            hits += support_of(res.z_star) == tuple(support)
        assert hits >= 95

    def test_zero_data(self):
        psi = gaussian_sensing(6, 12, seed=10)
        assert np.all(solve_bp(psi, np.zeros(6)).z_star == 0)

    def test_square_invertible_system(self):
        rng = np.random.default_rng(11)
        n = 12
        phi = ReductionMatrix(
            kind="gaussian", m=n, n=n, entries=rng.standard_normal((n, n)), seed=None
        )
        psi = compose_sensing(phi)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res = solve_bp(psi, y)
        expected = np.linalg.solve(psi.psi, y)
        assert np.linalg.norm(res.z_star - expected) <= 1e-8 * np.linalg.norm(expected)
        assert res.residual_norm <= 1e-8 * np.linalg.norm(y)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31))
def test_converged_results_are_feasible(seed):
    rng = np.random.default_rng(seed)
    psi = gaussian_sensing(8, 20, seed=seed)
    x, _ = sparse_signal(20, 2, rng)
    y = psi.psi @ x + 0.05 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    eps = float(rng.uniform(0.05, 0.8))
    res = solve_lasso(RecoveryProblem(psi=psi, y=y, epsilon=eps))
    if res.converged:
        assert res.residual_norm <= eps * (1 + 1e-6)
        assert abs(np.linalg.norm(psi.psi @ res.z_star - y) - res.residual_norm) <= 1e-9
