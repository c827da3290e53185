import numpy as np
import pytest

from widescan.recovery import decide_occupancy, error_gain, nmse, nmse_l2


class TestDecideOccupancy:
    def test_all_zero_recoveries_all_vacant(self):
        spectra = np.zeros((3, 10), dtype=complex)
        assert not decide_occupancy(spectra, threshold=0.5).any()

    def test_single_window_single_band(self):
        z = np.zeros(8, dtype=complex)
        z[5] = np.sqrt(2.0)  # energy = 2 * threshold
        occ = decide_occupancy([z], threshold=1.0)
        assert occ[5] and occ.sum() == 1

    def test_energy_accumulates_over_windows(self):
        z = np.zeros(4, dtype=complex)
        z[1] = 1.0  # per-window energy 1, three windows -> 3
        occ = decide_occupancy([z, z, z], threshold=2.5)
        assert occ[1] and occ.sum() == 1

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            decide_occupancy(np.zeros((1, 4)), threshold=0.0)

    def test_nan_threshold_rejected(self):
        # a NaN threshold would declare every band vacant
        with pytest.raises(ValueError):
            decide_occupancy(np.ones((1, 4)), threshold=float("nan"))


class TestMetrics:
    def test_perfect_recovery_zero_error_full_gain(self):
        x = np.array([1.0, 0, 2.0], dtype=complex)
        assert nmse(x, x) == 0.0
        assert nmse_l2(x, x) == 0.0
        assert error_gain(2.0, 1.0) == 0.5

    def test_gain_arithmetic(self):
        assert error_gain(2.0, 1.0) == 0.5
        assert error_gain(4.0, 1.0) == 0.75

    def test_paper_definition_uses_support_size(self):
        # ||z - x|| = 3 with ||x||_0 = 9 gives 1/3
        x = np.zeros(16, dtype=complex)
        x[:9] = 1.0
        z = x.copy()
        z[0] += 3.0
        assert abs(nmse(np.zeros(16), x) - np.linalg.norm(x) / 9) < 1e-12
        assert abs(nmse(z, x) - 3.0 / 9.0) < 1e-12

    def test_l2_variant(self):
        x = np.zeros(4, dtype=complex)
        x[0] = 3.0
        assert abs(nmse_l2(np.zeros(4), x) - 1.0) < 1e-12

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            nmse_l2(np.zeros(4), np.zeros(4))

    def test_zero_competitor_error_rejected(self):
        with pytest.raises(ValueError):
            error_gain(0.0, 1.0)
