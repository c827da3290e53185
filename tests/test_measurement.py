import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widescan.fourier import freq_to_time, inverse_dft_matrix, time_to_freq
from widescan.measurement import (
    AfeBank,
    ReductionMatrix,
    afe_measure,
    bank_to_reduction,
    build_reduction,
    coherence,
    compose_sensing,
    make_afe_bank,
    measure,
)
from widescan.spectrum import NoiseModel, add_time_noise


class TestBuildReduction:
    def test_gaussian_entry_statistics(self):
        m = n = 1000
        phi = build_reduction("gaussian", m, n, seed=0)
        entries = phi.entries
        mean_bound = 3 * np.sqrt(1.0 / (m * m * n))
        assert abs(entries.mean()) <= mean_bound
        assert abs(entries.var() - 1.0 / m) <= 0.05 / m

    def test_bernoulli_entries_exact(self):
        phi = build_reduction("bernoulli", 16, 64, seed=1)
        assert np.all(np.isin(phi.entries, [1 / 4.0, -1 / 4.0]))

    def test_circulant_rows_are_shifts(self):
        phi = build_reduction("circulant", 4, 8, seed=2)
        stride = 8 // 4
        assert np.array_equal(phi.entries[1], np.roll(phi.entries[0], stride))
        assert np.array_equal(phi.entries[2], np.roll(phi.entries[0], 2 * stride))

    def test_m_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            build_reduction("gaussian", 10, 5, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_reduction("hadamard", 4, 8, seed=0)

    def test_deterministic_in_seed(self):
        a = build_reduction("gaussian", 8, 32, seed=5)
        b = build_reduction("gaussian", 8, 32, seed=5)
        assert np.array_equal(a.entries, b.entries)


def test_inverse_dft_matrix_is_built_once_and_read_only():
    basis = inverse_dft_matrix(16)
    assert inverse_dft_matrix(16) is basis
    assert not basis.flags.writeable
    assert np.array_equal(basis, np.fft.ifft(np.eye(16), axis=0, norm="ortho"))


class TestComposeSensing:
    def test_identity_reduction_gives_unitary_psi(self):
        n = 16
        phi = ReductionMatrix(kind="gaussian", m=n, n=n, entries=np.eye(n), seed=None)
        psi = compose_sensing(phi)
        assert np.allclose(psi.psi, inverse_dft_matrix(n), atol=1e-12)
        gram = psi.psi.conj().T @ psi.psi
        assert np.linalg.norm(gram - np.eye(n)) <= 1e-10

    def test_matches_reduction_after_inverse_dft(self, rng):
        phi = build_reduction("gaussian", 12, 48, seed=3)
        psi = compose_sensing(phi)
        x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        direct = psi.psi @ x
        path = phi.entries @ freq_to_time(x)
        assert np.linalg.norm(direct - path) <= 1e-10 * np.linalg.norm(x)

    def test_gaussian_column_norms_near_unit(self):
        psi = compose_sensing(build_reduction("gaussian", 64, 256, seed=4))
        norms = np.linalg.norm(psi.psi, axis=0)
        assert abs(norms.mean() - 1.0) <= 0.05


class TestMeasure:
    def test_selection_rows_pick_first_entries(self, rng):
        m, n = 4, 12
        entries = np.hstack([np.eye(m), np.zeros((m, n - m))])
        phi = ReductionMatrix(kind="gaussian", m=m, n=n, entries=entries, seed=None)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(measure(phi, r), r[:m])

    def test_zero_signal(self):
        phi = build_reduction("bernoulli", 4, 16, seed=0)
        assert np.all(measure(phi, np.zeros(16)) == 0)

    def test_dimension_mismatch_rejected(self):
        phi = build_reduction("gaussian", 4, 16, seed=0)
        with pytest.raises(ValueError):
            measure(phi, np.zeros(8))

    def test_noisy_measurement_bookkeeping(self, rng):
        # y from noisy r must equal Psi x + Phi F^-1 W for the same draw
        n, m = 32, 12
        phi = build_reduction("gaussian", m, n, seed=6)
        psi = compose_sensing(phi)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = freq_to_time(x)
        noisy = add_time_noise(r, NoiseModel(0.3), seed=9)
        w_time = noisy - r
        w_freq = time_to_freq(w_time)
        lhs = measure(phi, noisy)
        rhs = psi.psi @ x + phi.entries @ freq_to_time(w_freq)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))


class TestAfePath:
    def test_matches_matrix_path_on_random_signals(self, rng):
        bank = make_afe_bank(8, 32, seed=3)
        phi = bank_to_reduction(bank)
        for _ in range(100):
            r = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            gap = np.linalg.norm(afe_measure(bank, r) - measure(phi, r))
            assert gap <= 1e-12

    def test_all_plus_one_bank_sums_signal(self, rng):
        pn = np.vstack([np.ones(16), -np.ones(16)])
        bank = AfeBank(pn_sequences=pn)
        r = rng.standard_normal(16)
        out = afe_measure(bank, r)
        assert abs(out[0] - r.sum() / np.sqrt(2)) < 1e-12

    def test_time_impulse_reads_first_chip(self):
        bank = make_afe_bank(4, 16, seed=8)
        r = np.zeros(16)
        r[0] = 1.0
        out = afe_measure(bank, r)
        assert np.allclose(out, bank.pn_sequences[:, 0] / 2.0)

    def test_duplicate_sequences_rejected(self):
        pn = np.ones((2, 8))
        with pytest.raises(ValueError):
            AfeBank(pn_sequences=pn)


class TestCoherence:
    def test_orthonormal_columns_zero(self):
        psi = compose_sensing(
            ReductionMatrix(kind="gaussian", m=8, n=8, entries=np.eye(8), seed=None)
        )
        assert coherence(psi) <= 1e-10

    def test_identical_columns_one(self):
        mat = np.ones((4, 2))
        assert abs(coherence(mat) - 1.0) < 1e-12

    def test_zero_column_rejected(self):
        mat = np.zeros((4, 3))
        mat[:, 0] = 1.0
        with pytest.raises(ValueError):
            coherence(mat)

    def test_gaussian_below_circulant(self):
        # Monte Carlo: random matrix should win in at least 80% of 50 draws
        wins = 0
        for seed in range(50):
            g = coherence(compose_sensing(build_reduction("gaussian", 64, 256, seed=seed)))
            c = coherence(
                compose_sensing(build_reduction("circulant", 64, 256, seed=seed))
            )
            wins += g < c
        assert wins >= 40


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31))
def test_measure_linearity(seed):
    rng = np.random.default_rng(seed)
    phi = build_reduction("gaussian", 6, 20, seed=seed)
    r1 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    r2 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    a, b = rng.standard_normal(2)
    lhs = measure(phi, a * r1 + b * r2)
    rhs = a * measure(phi, r1) + b * measure(phi, r2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))


def test_gaussian_energy_preserved_in_expectation(rng):
    # E ||Phi r||^2 = ||r||^2 over matrix draws; 500 draws within 5%
    n, m = 40, 10
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ratios = []
    for seed in range(500):
        phi = build_reduction("gaussian", m, n, seed=seed)
        ratios.append(np.linalg.norm(phi.entries @ r) ** 2 / np.linalg.norm(r) ** 2)
    assert abs(np.mean(ratios) - 1.0) <= 0.05
