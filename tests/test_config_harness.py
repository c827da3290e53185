import dataclasses
import math

import numpy as np
import pytest

from widescan.config import (
    KNOWN_SOLVERS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_hash,
    parse_config,
    write_config_echo,
)
from widescan.cooperative import pool_and_recover, pooled_sensing
from widescan.harness import (
    RECORD_COLUMNS,
    TrialRecord,
    emit_csv,
    emit_summary,
    parse_records,
    run_experiment,
    sigma_for_snr,
    timing_table,
)
from widescan.recovery import l1_batch


# A small cooperative_round on top of small_cfg: 3 SUs of 20 rows, n = 40.
COOP_FIELDS = dict(
    kind="cooperative_round", sweep=("round",), block_sizes=(10, 30), block_probs=(1.0, 0.05),
    m=20, su_count=3, su_branches=4, su_scans=5, solvers=("wlasso",),
)


def small_cfg(**overrides):
    base = dict(
        kind="nmse_vs_snr",
        trials=3,
        master_seed=99,
        n=40,
        block_sizes=(20, 20),
        block_probs=(0.35, 0.05),
        m=16,
        sweep=("5", "15"),
        solvers=("lasso", "omp"),
        max_iter=1500,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_minimal_file_fills_defaults(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nkind = nmse_vs_snr\n")
        cfg = parse_config(path)
        assert cfg.trials == 200
        assert cfg.sweep == ("0", "5", "10", "15", "20")
        assert cfg.matrix_kind == "gaussian"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[wat]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nkind = nmse_vs_snr\nbogus = 2\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nkind = nmse_vs_snr\ntrials = soon\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("/no/such/file.ini")

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(solvers=("lasso", "magic"))

    def test_empty_solver_list_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(solvers=())

    def test_block_layout_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(block_sizes=(10, 10), block_probs=(0.5, 0.5), n=40)

    def test_overrides(self):
        cfg = small_cfg()
        apply_overrides(cfg, seed=7, out="elsewhere", solvers="wlasso", trials=9)
        assert cfg.master_seed == 7
        assert cfg.out_dir == "elsewhere"
        assert cfg.solvers == ("wlasso",)
        assert cfg.trials == 9

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(small_cfg(), solvers="nope")

    @pytest.mark.parametrize("override", [{"solvers": " , "}, {"trials": 0}])
    def test_empty_override_rejected(self, override):
        with pytest.raises(ConfigError):
            apply_overrides(small_cfg(), **override)

    @pytest.mark.parametrize(
        "override",
        [
            {"snr_db": math.nan},
            {"snr_db": -math.inf},
            {"sweep": ("5", "nan")},
            {"sweep": ("-inf", "15")},
            {"max_iter": 0},
            {"tol": -1.0},
            {"tol": math.nan},
            {"shadow_db": math.inf},
            {"shadow_db": math.nan},
            {"eps_delta": math.nan},
            {"eps_delta": -5.0},
            {"eps_delta": -1.0},
            {"energy_threshold": math.nan},
            {"energy_threshold": 0.0},
            {"energy_threshold": -0.25},
            {"energy_threshold": math.inf},
        ],
        ids=["nan_snr", "minus_inf_snr", "nan_in_sweep", "minus_inf_in_sweep",
             "zero_max_iter", "negative_tol", "nan_tol", "inf_shadow_db", "nan_shadow_db",
             "nan_eps_delta", "eps_delta_below_minus_one", "eps_delta_minus_one",
             "nan_energy_threshold", "zero_energy_threshold", "negative_energy_threshold",
             "inf_energy_threshold"],
    )
    def test_bad_numeric_input_rejected(self, override):
        with pytest.raises(ConfigError):
            small_cfg(**override)

    @pytest.mark.parametrize(
        "override",
        [
            {"quorum": 0.0},
            {"quorum": 1.5},
            {"quorum": math.nan},
            {"su_count": 0},
            {"su_branches": 0},
            {"su_scans": 0},
            {"su_branches": 9, "su_scans": 5},
            {"shadow_su": 3},
            {"shadow_su": -1},
            {"shadow_band": 40},
            {"shadow_band": -1},
        ],
        ids=["zero_quorum", "quorum_above_one", "nan_quorum", "no_sus", "no_branches",
             "no_scans", "more_su_rows_than_n", "shadow_su_too_large", "negative_shadow_su",
             "shadow_band_too_large", "negative_shadow_band"],
    )
    def test_bad_cooperative_input_rejected(self, override):
        # each of these used to parse, then fail the run or shadow no SU
        with pytest.raises(ConfigError):
            small_cfg(**dict(COOP_FIELDS, **override))

    @pytest.mark.parametrize("kind", ["timing_table", "miss_detect_cdf", "cooperative_round"])
    def test_ignored_sweep_values_rejected(self, kind, tmp_path):
        # these kinds run one fixed point, so sweep values would be ignored
        with pytest.raises(ConfigError):
            small_cfg(kind=kind, sweep=("1", "2", "3"))
        path = tmp_path / "c.ini"
        path.write_text(f"[experiment]\nkind = {kind}\n[sweep]\nvalues = 1, 2, 3\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_parsed_fields_take_their_declared_types(self, tmp_path):
        path = tmp_path / "echo.ini"
        write_config_echo(small_cfg(drift_probs_end=(0.5, 0.1)), path)
        back = parse_config(path)
        for f in dataclasses.fields(ExperimentConfig):
            value = getattr(back, f.name)
            assert isinstance(value, f.type), f.name
            if f.type is tuple:
                assert len({type(v) for v in value}) <= 1, f.name
        assert isinstance(back.block_sizes[0], int)
        assert isinstance(back.block_probs[0], float)
        assert isinstance(back.snr_db, float) and isinstance(back.m, int)

    def test_noise_free_snr_allowed(self):
        assert small_cfg(snr_db=math.inf, sweep=("inf",)).snr_db == math.inf

    def test_echo_round_trip(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "echo.ini"
        write_config_echo(cfg, path)
        back = parse_config(path)
        assert dataclasses.asdict(back) == dataclasses.asdict(cfg)

    def test_hash_sensitive_to_every_field(self):
        # 20 config perturbations, each must change the hash
        cfg = small_cfg()
        base_hash = config_hash(cfg)
        perturbations = [
            {"kind": "error_gain_vs_m"},
            {"trials": 4},
            {"master_seed": 100},
            {"out_dir": "x"},
            {"n": 44, "block_sizes": (22, 22)},
            {"block_sizes": (30, 10)},
            {"block_probs": (0.3, 0.05)},
            {"amplitude": "constant"},
            {"matrix_kind": "bernoulli"},
            {"m": 17},
            {"snr_db": 8.0},
            {"sweep": ("5",)},
            {"solvers": ("lasso",)},
            {"eps_delta": 0.2},
            {"max_iter": 1501},
            {"tol": 2e-6},
            {"energy_threshold": 0.3},
            {"su_count": 6},
            {"lag": 4},
            {"m_rule_c": 2.5},
        ]
        assert len(perturbations) == 20
        for change in perturbations:
            mutated = dataclasses.replace(cfg, **change)
            assert config_hash(mutated) != base_hash, change


def _records_sample():
    return [
        TrialRecord(
            experiment="nmse_vs_snr",
            sweep_value="5",
            trial=0,
            seed=123,
            solver="lasso",
            nmse_paper=0.1234567891234,
            nmse_l2=0.5,
            miss=1,
            false_alarm=2,
            wall_time=0.01,
            iterations=42,
            converged=True,
        ),
        TrialRecord(
            experiment="nmse_vs_snr",
            sweep_value="5",
            trial=1,
            seed=456,
            solver="omp",
            nmse_paper=math.nan,
            nmse_l2=1e-17,
            miss=0,
            false_alarm=0,
            wall_time=0.0,
            iterations=0,
            converged=False,
            extra=0.75,
        ),
    ]


class TestRecordsIo:
    def test_round_trip_exact(self, tmp_path):
        records = _records_sample()
        path = tmp_path / "records.csv"
        emit_csv(records, path)
        back = parse_records(path)
        for orig, parsed in zip(records, back):
            for col in RECORD_COLUMNS:
                a, b = getattr(orig, col), getattr(parsed, col)
                if isinstance(a, float) and math.isnan(a):
                    assert math.isnan(b)
                else:
                    assert a == b

    def test_header_matches_documented_schema(self, tmp_path):
        path = tmp_path / "records.csv"
        emit_csv(_records_sample(), path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(RECORD_COLUMNS)

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "records.csv")

    def test_summary_carries_provenance(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "summary.csv"
        emit_summary(_records_sample(), path, cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# config_hash={config_hash(cfg)}"
        assert lines[1] == f"# master_seed={cfg.master_seed}"


def _strip_wall_time(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    drop = [i for i, name in enumerate(header) if "wall_time" in name]
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        out.append([c for i, c in enumerate(cells) if i not in drop])
    return out


class TestHarnessRuns:
    def test_noise_free_sweep_recovers_exactly(self):
        # exact-recovery regime at sigma = 0: every solver error is tiny
        cfg = small_cfg(
            kind="nmse_vs_snr",
            sweep=("200",),  # effectively noise-free
            trials=4,
            block_probs=(0.15, 0.05),
            m=24,
            solvers=("lasso", "omp"),
            omp_k_max=12,  # cover instances drawn above the expected sparsity
        )
        records, summary, _ = run_experiment(cfg)
        for row in summary:
            assert row["mean_nmse_l2"] <= 1e-4

    def test_determinism_same_seed_same_records(self, tmp_path):
        cfg = small_cfg()
        rec_a, _, _ = run_experiment(cfg)
        rec_b, _, _ = run_experiment(small_cfg())
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rec_a, path_a)
        emit_csv(rec_b, path_b)
        assert _strip_wall_time(path_a) == _strip_wall_time(path_b)

    def test_trial_prefix_stable_when_trials_grow(self):
        # per-trial seeding is order-free, so a shorter run is a prefix
        rec3, _, _ = run_experiment(small_cfg(trials=3))
        rec5, _, _ = run_experiment(small_cfg(trials=5))
        per_sweep3 = [r for r in rec3 if r.sweep_value == "5"]
        per_sweep5 = [r for r in rec5 if r.sweep_value == "5" and r.trial < 3]
        for a, b in zip(per_sweep3, per_sweep5):
            assert a.seed == b.seed and a.nmse_l2 == b.nmse_l2

    def test_timing_table_reports_checks(self):
        cfg = small_cfg(
            kind="timing_table",
            sweep=("timing",),
            trials=4,
            solvers=("lasso", "wlasso", "omp", "cosamp"),
        )
        records, table, checks = timing_table(cfg)
        assert {row["solver"] for row in table} == set(cfg.solvers)
        assert "omp_faster_than_cosamp" in checks
        assert "wlasso_lasso_time_ratio" in checks

    def test_coherence_study_emits_coherence_rows(self):
        cfg = small_cfg(
            kind="coherence_study",
            sweep=("gaussian", "circulant"),
            trials=2,
            solvers=("omp",),
        )
        records, _, _ = run_experiment(cfg)
        coh = [r for r in records if r.solver == "coherence"]
        assert len(coh) == 4
        assert all(0 <= r.extra <= 1 for r in coh)

    def test_miss_cdf_requires_enough_windows(self):
        # a config error, so `widescan run` rejects it before any config runs
        with pytest.raises(ConfigError):
            small_cfg(kind="miss_detect_cdf", sweep=("drift",), trials=4, lag=5)

    def test_cooperative_round_shapes(self):
        cfg = small_cfg(
            kind="cooperative_round",
            sweep=("round",),
            trials=2,
            n=40,
            block_sizes=(10, 30),
            block_probs=(1.0, 0.05),
            m=20,
            su_count=3,
            su_branches=4,
            su_scans=5,
            solvers=("wlasso",),
        )
        records, _, artifacts = run_experiment(cfg)
        fused = [r for r in records if r.solver == "fused"]
        assert len(fused) == 2
        log = artifacts["fusion_log.csv"]
        assert log[0] == "round,su_id,rows_contributed,decision_hash"
        assert len(log) == 1 + 2 * 3

    def test_vote_rounds_draw_each_bank_and_factor_once(self, monkeypatch):
        import widescan.cooperative as cooperative
        import widescan.recovery as recovery

        banks, factors = [], []
        make_afe_bank = cooperative.make_afe_bank

        def spy_bank(m, n, seed=None):
            banks.append(seed)
            return make_afe_bank(m, n, seed=seed)

        class SpyFactor(recovery.SvdFactor):
            def __init__(self, a_mat):
                factors.append(a_mat.shape)
                super().__init__(a_mat)

        monkeypatch.setattr(cooperative, "make_afe_bank", spy_bank)
        monkeypatch.setattr(recovery, "SvdFactor", SpyFactor)
        cfg = small_cfg(
            kind="cooperative_round", sweep=("round",), trials=4, n=40,
            block_sizes=(10, 30), block_probs=(1.0, 0.05), m=20,
            su_count=3, su_branches=4, su_scans=5, solvers=("wlasso",),
        )
        records, _, _ = run_experiment(cfg)
        assert sum(r.solver.startswith("su") for r in records) == 12
        assert len(banks) == len(set(banks)) == 3
        assert factors == [(20, 40)] * 3

    @pytest.mark.parametrize("kind", ["nmse_vs_snr", "timing_table"])
    def test_sweeps_build_one_factor_per_solve(self, monkeypatch, kind):
        # lasso and wlasso share each Psi; sharing the factor too would make
        # wlasso look cheaper in the timing table (criterion 08's ratio)
        import widescan.recovery as recovery

        built = []

        class SpyFactor(recovery.SvdFactor):
            def __init__(self, a_mat):
                built.append(a_mat.shape)
                super().__init__(a_mat)

        monkeypatch.setattr(recovery, "SvdFactor", SpyFactor)
        cfg = small_cfg(kind=kind, sweep=("15",) if kind == "nmse_vs_snr" else ("timing",),
                        solvers=("lasso", "wlasso"), trials=2)
        records = timing_table(cfg)[0] if kind == "timing_table" else run_experiment(cfg)[0]
        assert len(records) == len(built) == 4

    def test_pool_mode_honours_solver_settings(self):
        cfg = small_cfg(
            kind="cooperative_round",
            sweep=("round",),
            trials=2,
            block_sizes=(10, 30),
            block_probs=(1.0, 0.05),
            m=20,
            su_count=3,
            su_branches=4,
            su_scans=5,
            fusion_mode="pool",
            max_iter=3,
        )
        records, _, _ = run_experiment(cfg)
        assert len(records) == 2
        assert all(0 < r.iterations <= 3 for r in records)

    @pytest.mark.parametrize("fusion_mode", ["pool", "vote"])
    def test_noise_free_budget_floor_follows_the_solved_measurements(self, monkeypatch,
                                                                     fusion_mode):
        # at sigma = 0 the budget is its floor, 1e-9 ||y||, of the y the solver sees
        import widescan.harness as harness

        seen = []

        def spy_pool(fc, contributions, part, weights, epsilon, **opts):
            seen.append((pooled_sensing(contributions)[1], epsilon))
            return pool_and_recover(fc, contributions, part, weights, epsilon, **opts)

        def spy_batch(problems, part, **opts):
            seen.extend((p.y, p.epsilon) for p in problems)
            return l1_batch(problems, part, **opts)

        monkeypatch.setattr(harness, "pool_and_recover", spy_pool)
        monkeypatch.setattr(harness, "l1_batch", spy_batch)
        cfg = small_cfg(**dict(COOP_FIELDS, trials=2, snr_db=math.inf, fusion_mode=fusion_mode))
        run_experiment(cfg)
        assert len(seen) == (2 if fusion_mode == "pool" else 6)
        for y, epsilon in seen:
            assert epsilon == 1e-9 * float(np.linalg.norm(y))

    @pytest.mark.parametrize("solver", KNOWN_SOLVERS)
    def test_every_known_solver_dispatches(self, solver):
        records, _, _ = run_experiment(small_cfg(trials=1, sweep=("15",), solvers=(solver,)))
        (rec,) = records
        assert rec.solver == solver
        assert rec.iterations > 0
        assert math.isfinite(rec.nmse_l2)

    def test_sigma_for_snr_matches_definition(self):
        x = np.array([3.0, 4.0], dtype=complex)  # norm 5
        sigma = sigma_for_snr(x, n=25, snr_db=20.0)
        assert abs(sigma - 5.0 / (5 * 10.0)) < 1e-12
