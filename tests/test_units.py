"""Units of work: order-free, and every solve visible to a wrapper.

run_experiment runs each kind's planned units in plan order. These tests run
the same plan in reverse, put the results back in plan order and compare,
split the vote rounds' one unit into several, resize the sweep's blocks of
cells, and install counting spies where perfbench's tracer wraps names (the
solver names and l1_batch in widescan.harness and widescan.cooperative, and
widescan.cooperative.make_afe_bank).
"""

from collections import Counter
from dataclasses import replace

import pytest

import widescan.cooperative as cooperative
import widescan.harness as harness
from widescan.config import ExperimentConfig
from widescan.harness import plan_units, run_experiment, timing_table

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
    "solve_omp", "solve_cosamp", "solve_assamp", "l1_batch",
)
BATCHED = ("lasso", "wlasso")  # solved by l1_batch in a recovery sweep


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


def _install_spies(monkeypatch) -> Counter:
    """Count every solve and bank draw; a batch counts one call per problem
    it solves, under l1_batch[lasso] or l1_batch[wlasso]."""
    calls = Counter()

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            if name == "l1_batch":
                part = args[1] if len(args) > 1 else kwargs.get("part")
                calls[f"l1_batch[{'lasso' if part is None else 'wlasso'}]"] += len(args[0])
            else:
                calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (harness, cooperative):
        for name in SOLVER_NAMES:
            if hasattr(module, name):
                spy(module, name)
    spy(cooperative, "make_afe_bank")
    return calls


@pytest.mark.parametrize("case", CASES)
def test_spies_see_every_solve_and_bank_draw(monkeypatch, case):
    calls = _install_spies(monkeypatch)
    cfg = ExperimentConfig(**CASES[case])
    records, _, _ = run_experiment(cfg)
    banks = calls.pop("make_afe_bank", 0)
    assert banks == (cfg.su_count if cfg.kind == "cooperative_round" else 0)
    # every record that carries an estimate came from a spied solve
    solved = [r for r in records if r.iterations > 0]
    assert sum(calls.values()) == len(solved)
    if cfg.kind == "timing_table":  # one solve at a time: criterion 08 times each
        assert calls == Counter({f"solve_{s}": cfg.trials for s in cfg.solvers})
    elif cfg.kind in ("nmse_vs_snr", "error_gain_vs_m", "coherence_study"):
        per_point = cfg.trials * len(cfg.sweep)
        assert calls == Counter({
            f"l1_batch[{s}]" if s in BATCHED else f"solve_{s}": per_point for s in cfg.solvers
        })
    elif case == "cooperative_pending":
        assert not calls
    elif case == "cooperative_vote":  # one batch per SU
        assert calls == Counter({"l1_batch[wlasso]": cfg.trials * cfg.su_count})
    else:
        assert set(calls) == {"solve_wlasso"}


def test_vote_rounds_split_into_units_give_the_same_records():
    cfg = ExperimentConfig(**dict(COOP, trials=7))
    ((unit, args),) = plan_units(cfg)
    whole = unit(*args)
    parts = [unit(*args[:-1], rounds) for rounds in (range(0, 1), range(1, 4), range(4, 7))]
    assert _comparable([r for recs, _ in parts for r in recs]) == _comparable(whole[0])
    assert [line for _, log in parts for line in log] == whole[1]


def test_vote_run_is_a_prefix_of_a_longer_run():
    # trial counts can grow without disturbing earlier rows, batched or not
    short, _, _ = run_experiment(ExperimentConfig(**dict(COOP, trials=20)))
    long, _, _ = run_experiment(ExperimentConfig(**dict(COOP, trials=40)))
    assert _comparable(short) == _comparable(long[:len(short)])


def test_timing_table_solves_one_problem_at_a_time(monkeypatch):
    # criterion 08 compares per-solve times, so no timing solve is batched
    calls = _install_spies(monkeypatch)
    cfg = ExperimentConfig(**dict(CASES["timing_table"], trials=3, solvers=("lasso", "wlasso")))
    records, _, _ = timing_table(cfg)
    assert calls == Counter({"solve_lasso": 3, "solve_wlasso": 3})
    assert len(records) == 6


@pytest.mark.parametrize("case", ["nmse_vs_snr", "error_gain_vs_m", "coherence_study"])
def test_sweep_block_size_moves_no_output_bit(monkeypatch, case):
    cfg = ExperimentConfig(**dict(CASES[case], trials=5))
    if case == "coherence_study":  # coherence rows between batched solver rows
        cfg = replace(cfg, solvers=("lasso", "omp", "wlasso"))
    runs = []
    for block in (1, 7, 20):
        monkeypatch.setattr(harness, "SWEEP_BLOCK", block)
        assert len(list(plan_units(cfg))) == -(-cfg.trials * len(cfg.sweep) // block)
        runs.append(_comparable(run_experiment(cfg)[0]))
    assert runs[0] == runs[1] == runs[2]
