import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widescan.cooperative import (
    PENDING,
    Contribution,
    FusionCenter,
    SecondaryUser,
    fuse_votes,
    pool_and_recover,
    su_sense,
)
from widescan.measurement import ReductionMatrix, measure
from widescan.recovery import design_weights, nmse_l2
from widescan.spectrum import (
    NoiseModel,
    average_block_sparsity,
    make_block_partition,
    sample_instance,
)


def make_su(su_id, n, branches=4, scans=3, seed=None, gains=None):
    if gains is None:
        gains = np.ones(n)
    return SecondaryUser(
        su_id=su_id,
        branches=branches,
        scans=scans,
        channel_gains=gains,
        seed=seed if seed is not None else 100 + su_id,
    )


class TestSuSense:
    def test_row_count_is_branches_times_scans(self):
        part = make_block_partition(32, [32], [0.3])
        inst = sample_instance(part, seed=0)
        su = make_su(0, 32, branches=4, scans=3)
        contrib = su_sense(su, inst, NoiseModel(0.0), noise_seed=0)
        assert contrib.pn_rows.shape == (12, 32)
        assert contrib.values.shape == (12,)

    def test_zero_gains_see_pure_noise(self):
        part = make_block_partition(16, [16], [1.0])
        inst = sample_instance(part, seed=1)
        su = make_su(0, 16, gains=np.zeros(16))
        quiet = su_sense(su, inst, NoiseModel(0.0), noise_seed=3)
        assert np.allclose(quiet.values, 0.0)
        noisy = su_sense(su, inst, NoiseModel(0.5), noise_seed=3)
        assert np.linalg.norm(noisy.values) > 0

    def test_unit_gains_noiseless_match_measurement_path(self):
        # SU path == measure() with the bank assembled into a reduction matrix
        part = make_block_partition(24, [24], [0.4])
        inst = sample_instance(part, seed=2)
        su = make_su(0, 24, branches=3, scans=2)
        contrib = su_sense(su, inst, NoiseModel(0.0), noise_seed=0)
        rows = contrib.pn_rows.shape[0]
        phi = ReductionMatrix(
            kind="bernoulli",
            m=rows,
            n=24,
            entries=contrib.pn_rows / np.sqrt(rows),
            seed=None,
        )
        assert np.allclose(
            contrib.values / np.sqrt(rows), measure(phi, inst.r), atol=1e-12
        )

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf_gain", "nan_gain"])
    def test_non_finite_gains_rejected(self, bad):
        gains = np.ones(8)
        gains[3] = bad
        with pytest.raises(ValueError):
            make_su(0, 8, gains=gains)


class TestPoolAndRecover:
    def setup_method(self):
        self.part = make_block_partition(40, [20, 20], [0.3, 0.05])
        self.weights = design_weights(average_block_sparsity(self.part))
        self.inst = sample_instance(self.part, seed=5)

    def _contribs(self, count, rows_each=12):
        out = []
        for j in range(count):
            su = make_su(j, 40, branches=rows_each // 3, scans=3, seed=50 + j)
            out.append(su_sense(su, self.inst, NoiseModel(0.01), noise_seed=900 + j))
        return out

    def test_pending_until_budget_met_then_fires(self):
        fc = FusionCenter(target_m=30)
        first_two = self._contribs(2)
        assert pool_and_recover(fc, first_two, self.part, self.weights, 0.1) == PENDING
        assert fc.pooled_rows == 24
        third = self._contribs(3)[2:]
        result = pool_and_recover(fc, third, self.part, self.weights, 0.1)
        assert result != PENDING
        assert fc.pooled_rows == 36
        assert result.z_star.shape == (40,)

    def test_pooled_rows_conserve_measurements(self):
        # composite (Phi', y') reproduces y' = Phi' r row by row per SU
        part = make_block_partition(16, [16], [1.0])
        inst = sample_instance(part, seed=7)
        su = make_su(0, 16, branches=2, scans=2)
        contrib = su_sense(su, inst, NoiseModel(0.0), noise_seed=0)
        scale = 1.0 / np.sqrt(contrib.pn_rows.shape[0])
        lhs = contrib.values * scale
        rhs = (contrib.pn_rows * scale) @ inst.r
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_duplicate_seed_across_sus_rejected(self):
        fc = FusionCenter(target_m=100)
        a = self._contribs(1)[0]
        clash = Contribution(
            su_id=99, seed=a.seed, pn_rows=a.pn_rows, values=a.values
        )
        fc.ingest(a)
        with pytest.raises(ValueError):
            fc.ingest(clash)

    def test_mismatched_row_length_rejected(self):
        fc = FusionCenter(target_m=100)
        fc.ingest(self._contribs(1)[0])
        other_part = make_block_partition(20, [20], [0.5])
        other = sample_instance(other_part, seed=1)
        su = make_su(7, 20, seed=777)
        bad = su_sense(su, other, NoiseModel(0.0), noise_seed=0)
        with pytest.raises(ValueError):
            fc.ingest(bad)

    def test_pooling_beats_single_su_with_fewer_rows(self):
        # three SUs x 12 rows pooled vs one SU's 24 rows, 60 trials
        part = make_block_partition(40, [20, 20], [0.35, 0.05])
        weights = design_weights(average_block_sparsity(part))
        pooled_err, solo_err = [], []
        for trial in range(60):
            inst = sample_instance(part, seed=1000 + trial)
            if inst.k == 0:
                continue
            noise = NoiseModel(0.05)
            contribs = []
            for j in range(3):
                su = make_su(j, 40, branches=4, scans=3, seed=60 + j)
                contribs.append(su_sense(su, inst, noise, noise_seed=3000 + 10 * trial + j))
            fc = FusionCenter(target_m=30)
            pooled = pool_and_recover(fc, contribs, part, weights, 0.6)
            assert pooled != PENDING
            solo_su = make_su(9, 40, branches=4, scans=6, seed=99)
            solo_c = su_sense(solo_su, inst, noise, noise_seed=4000 + trial)
            rows = solo_c.pn_rows.shape[0]
            fc_solo = FusionCenter(target_m=rows)
            solo = pool_and_recover(fc_solo, [solo_c], part, weights, 0.6)
            pooled_err.append(nmse_l2(pooled.z_star, inst.x))
            solo_err.append(nmse_l2(solo.z_star, inst.x))
        assert np.mean(pooled_err) <= np.mean(solo_err)


class TestFuseVotes:
    def test_single_voter_identity(self):
        votes = [np.array([True, False, True])]
        assert np.array_equal(fuse_votes(votes, 0.7), votes[0])

    def test_majority_two_of_three(self):
        votes = [np.array([True]), np.array([False]), np.array([True])]
        assert fuse_votes(votes, 0.5)[0]

    def test_empty_voter_list_rejected(self):
        with pytest.raises(ValueError):
            fuse_votes([], 0.5)

    def test_or_and_extremes(self):
        votes = [
            np.array([True, False, False]),
            np.array([True, True, False]),
            np.array([True, True, False]),
        ]
        assert np.array_equal(fuse_votes(votes, 1e-9), [True, True, False])  # OR
        assert np.array_equal(fuse_votes(votes, 1.0), [True, False, False])  # AND


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.booleans(), min_size=5, max_size=5), min_size=1, max_size=7),
    st.floats(0.01, 1.0),
    st.integers(0, 4),
)
def test_vote_monotonicity(votes, quorum, band):
    # adding an occupied vote never flips a band from occupied to vacant
    base = fuse_votes([np.array(v) for v in votes], quorum)
    extra = np.zeros(5, dtype=bool)
    extra[band] = True
    more = fuse_votes([np.array(v) for v in votes] + [extra], quorum)
    if base[band]:
        assert more[band]


def test_hidden_terminal_fusion_beats_shadowed_su():
    # one SU 20 dB down on an always-occupied band, four healthy SUs,
    # majority vote: fused misses on that band < shadowed SU's solo misses
    n = 40
    part = make_block_partition(n, [8, 16, 16], [1.0, 0.1, 0.05])
    weights = design_weights(average_block_sparsity(part))
    band = 0
    threshold = 0.25
    fused_miss = solo_miss = trials = 0
    for trial in range(80):
        inst = sample_instance(part, seed=2000 + trial)
        sigma = np.linalg.norm(inst.x) / (np.sqrt(n) * 10 ** (10 / 20))
        noise = NoiseModel(sigma)
        decisions = []
        shadow_detects = None
        for j in range(5):
            gains = np.ones(n)
            if j == 0:
                gains[band] = 1e-2  # 20 dB attenuation
            su = make_su(j, n, branches=5, scans=5, seed=700 + j, gains=gains)
            contrib = su_sense(su, inst, noise, noise_seed=5000 + 10 * trial + j)
            rows = contrib.pn_rows.shape[0]
            fc = FusionCenter(target_m=rows)
            eps = sigma * np.sqrt(2 * rows) * 1.1
            rec = pool_and_recover(fc, [contrib], part, weights, eps)
            energy = np.abs(rec.z_star) ** 2
            occ = energy >= threshold
            decisions.append(occ)
            if j == 0:
                shadow_detects = occ[band]
        fused = fuse_votes(decisions, 0.5)
        trials += 1
        fused_miss += not fused[band]
        solo_miss += not shadow_detects
    assert fused_miss < solo_miss
