import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widescan.fourier import freq_to_time, time_to_freq
from widescan.spectrum import (
    BlockPartition,
    NoiseModel,
    add_time_noise,
    average_block_sparsity,
    make_block_partition,
    sample_instance,
)


class TestBlockPartition:
    def test_degenerate_probs_expand_per_band(self):
        part = make_block_partition(6, [3, 3], [0.0, 1.0])
        assert np.array_equal(part.probs, [0, 0, 0, 1, 1, 1])

    def test_single_block_uniform(self):
        part = make_block_partition(4, [4], [0.5])
        assert part.g == 1
        assert np.array_equal(part.probs, [0.5] * 4)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_block_partition(5, [2, 2], [0.1, 0.2])

    def test_prob_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_block_partition(4, [2, 2], [0.5, 1.2])

    def test_band_to_block_contiguous_disjoint(self):
        part = make_block_partition(10, [3, 3, 4], [0.1, 0.2, 0.3])
        assert np.array_equal(part.band_to_block, [0, 0, 0, 1, 1, 1, 2, 2, 2, 2])

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-0.1)


class TestAverageBlockSparsity:
    def test_degenerate_blocks(self):
        part = make_block_partition(6, [3, 3], [0.0, 1.0])
        assert np.allclose(average_block_sparsity(part), [0.0, 3.0])

    def test_uniform_half(self):
        part = make_block_partition(4, [4], [0.5])
        assert np.allclose(average_block_sparsity(part), [2.0])

    def test_two_blocks_arithmetic(self):
        part = BlockPartition(n=4, block_sizes=(2, 2), probs=np.array([0.1, 0.2, 0.3, 0.4]))
        assert np.allclose(average_block_sparsity(part), [0.3, 0.7])


class TestSampleInstance:
    def test_all_vacant(self):
        part = make_block_partition(8, [8], [0.0])
        inst = sample_instance(part, seed=0)
        assert not inst.occupancy.any()
        assert np.all(inst.x == 0) and np.allclose(inst.r, 0)

    def test_all_occupied(self):
        part = make_block_partition(8, [8], [1.0])
        inst = sample_instance(part, seed=0)
        assert inst.k == 8
        assert np.all(inst.x[inst.occupancy] != 0)

    def test_occupancy_rate_within_binomial_bound(self):
        # oracle: 3-sigma binomial bound on the empirical rate, n=1000, p=0.3
        n, p = 1000, 0.3
        bound = 3 * math.sqrt(p * (1 - p) / n)
        part = make_block_partition(n, [n], [p])
        inst = sample_instance(part, seed=7)
        assert abs(inst.occupancy.mean() - p) <= bound

    def test_vacant_bands_exactly_zero(self):
        part = make_block_partition(32, [16, 16], [0.4, 0.1])
        inst = sample_instance(part, seed=3)
        assert np.all(inst.x[~inst.occupancy] == 0)
        assert np.all(inst.x[inst.occupancy] != 0)

    def test_deterministic_in_seed(self):
        part = make_block_partition(32, [16, 16], [0.4, 0.1])
        a = sample_instance(part, seed=11)
        b = sample_instance(part, seed=11)
        assert np.array_equal(a.occupancy, b.occupancy)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.r, b.r)

    def test_constant_amplitude_model(self):
        part = make_block_partition(16, [16], [1.0])
        inst = sample_instance(part, amplitude_model="constant", seed=5)
        assert np.allclose(np.abs(inst.x), 1.0)

    def test_time_domain_is_unitary_inverse_dft(self):
        part = make_block_partition(16, [16], [0.5])
        inst = sample_instance(part, seed=9)
        assert np.allclose(inst.r, freq_to_time(inst.x), atol=1e-14)


class TestAddTimeNoise:
    def test_sigma_zero_is_identity(self):
        r = np.arange(8) + 1j * np.arange(8)
        out = add_time_noise(r, NoiseModel(0.0), seed=0)
        assert np.array_equal(out, r)

    def test_sample_variance_matches_sigma(self):
        # oracle: chi-square concentration, 4096 samples at sigma=1
        out = add_time_noise(np.zeros(4096, complex), NoiseModel(1.0), seed=2)
        var = np.mean(np.abs(out) ** 2)
        assert abs(var - 1.0) <= 0.1

    def test_same_seed_identical(self):
        r = np.ones(64, complex)
        a = add_time_noise(r, NoiseModel(0.5), seed=42)
        b = add_time_noise(r, NoiseModel(0.5), seed=42)
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2**31))
def test_unitary_round_trip_and_parseval(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r = freq_to_time(x)
    back = time_to_freq(r)
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)
    assert abs(np.linalg.norm(r) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)


def test_block_sparsity_statistics_over_many_draws():
    # 3-sigma binomial bounds per block over 1000 seeded draws
    part = make_block_partition(40, [10, 10, 20], [0.1, 0.5, 0.25])
    kbar = average_block_sparsity(part)
    draws = 1000
    totals = np.zeros(part.g)
    for seed in range(draws):
        inst = sample_instance(part, seed=seed)
        totals += [np.count_nonzero(inst.occupancy[s]) for s in part.block_slices()]
    means = totals / draws
    sizes = np.asarray(part.block_sizes, float)
    probs_per_block = kbar / sizes
    sigma = np.sqrt(sizes * probs_per_block * (1 - probs_per_block) / draws)
    assert np.all(np.abs(means - kbar) <= 3 * sigma)
