"""Units of work: order-free, and every solve visible to a wrapper.

run_experiment runs each kind's planned units in plan order. These tests run
the same plan in reverse, put the results back in plan order and compare, and
install counting spies where perfbench's tracer wraps names (the solver names
in widescan.harness and widescan.cooperative, and
widescan.cooperative.make_afe_bank).
"""

from collections import Counter
from dataclasses import replace

import pytest

import widescan.cooperative as cooperative
import widescan.harness as harness
from widescan.config import ExperimentConfig
from widescan.harness import plan_units, run_experiment

SMALL = dict(
    trials=2, master_seed=99, n=40, block_sizes=(20, 20), block_probs=(0.35, 0.05),
    m=16, max_iter=1500,
)
COOP = dict(
    SMALL, kind="cooperative_round", block_sizes=(10, 30), block_probs=(1.0, 0.05), m=20,
    su_count=3, su_branches=4, su_scans=5,
)
CASES = {
    "nmse_vs_snr": dict(SMALL, kind="nmse_vs_snr", sweep=("5", "15"),
                        solvers=("lasso", "wlasso", "wlasso_scaled", "bp", "omp")),
    "error_gain_vs_m": dict(SMALL, kind="error_gain_vs_m", sweep=("14", "18"),
                            solvers=("lasso", "wlasso", "cosamp")),
    "coherence_study": dict(SMALL, kind="coherence_study", sweep=("gaussian", "circulant"),
                            solvers=("omp", "assamp")),
    "timing_table": dict(SMALL, kind="timing_table", solvers=("lasso", "wlasso", "omp")),
    "miss_detect_cdf": dict(SMALL, kind="miss_detect_cdf", trials=9, lag=3),
    "cooperative_vote": COOP,
    "cooperative_pool": dict(COOP, fusion_mode="pool"),
    "cooperative_pending": dict(COOP, fusion_mode="pool", su_count=1, m=40),
}
SOLVER_NAMES = (
    "solve_lasso", "solve_wlasso", "solve_wlasso_scaled", "solve_bp",
    "solve_omp", "solve_cosamp", "solve_assamp",
)


def _comparable(records):
    return [repr(replace(r, wall_time=0.0)) for r in records]


@pytest.mark.parametrize("case", CASES)
def test_units_run_in_reverse_give_the_same_records(case):
    cfg = ExperimentConfig(**CASES[case])
    units = list(plan_units(cfg))
    results = [None] * len(units)
    for i in reversed(range(len(units))):
        unit, args = units[i]
        results[i] = unit(*args)
    records = [rec for unit_records, _ in results for rec in unit_records]
    log = [line for _, unit_log in results for line in unit_log]

    expected, _, artifacts = run_experiment(cfg)
    assert _comparable(records) == _comparable(expected)
    if cfg.kind == "cooperative_round":
        assert artifacts["fusion_log.csv"][1:] == log
    else:
        assert log == []


@pytest.mark.parametrize("case", CASES)
def test_spies_see_every_solve_and_bank_draw(monkeypatch, case):
    calls = Counter()

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (harness, cooperative):
        for name in SOLVER_NAMES:
            if hasattr(module, name):
                spy(module, name)
    spy(cooperative, "make_afe_bank")

    cfg = ExperimentConfig(**CASES[case])
    records, _, _ = run_experiment(cfg)
    banks = calls.pop("make_afe_bank", 0)
    assert banks == (cfg.su_count if cfg.kind == "cooperative_round" else 0)
    # every record that carries an estimate came from a spied solve
    solved = [r for r in records if r.iterations > 0]
    assert sum(calls.values()) == len(solved)
    if cfg.kind in ("nmse_vs_snr", "error_gain_vs_m", "coherence_study", "timing_table"):
        per_point = cfg.trials * len(cfg.sweep)
        assert calls == Counter({f"solve_{s}": per_point for s in cfg.solvers})
    elif case == "cooperative_pending":
        assert not calls
    else:
        assert set(calls) == {"solve_wlasso"}
