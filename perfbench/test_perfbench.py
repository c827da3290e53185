"""Tests of the benchmark itself: tracing, accounting, checks and a smoke run.

    python -m pytest perfbench
"""

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, self_time_by_name, self_times  # noqa: E402

# Trials per pass small enough for a smoke run; drift needs more than lag + 1.
SMOKE_TRIALS = {"l1_sweep": 1, "coop_vote": 2, "drift_forecast": 8, "greedy_kinds": 4}


def smoke(name):
    return dataclasses.replace(bench.BY_NAME[name], trials=SMOKE_TRIALS[name], min_passes=2)


def _widescan_attributes():
    import widescan  # noqa: F401

    return {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name == "widescan" or name.startswith("widescan.")
        for attr, value in vars(module).items()
    }


def test_install_and_restore_leave_every_module_attribute_identical():
    for name in layers.TRACED_MODULES:
        importlib.import_module(name)
    before = _widescan_attributes()
    tracer = Tracer("t")
    try:
        for name in layers.TRACED_MODULES:
            tracer.install(sys.modules[name], layers.SolveLog().describe)
        during = _widescan_attributes()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        assert ("widescan.harness", "solve_lasso") in wrapped
        assert ("widescan.cooperative", "make_afe_bank") in wrapped
        assert ("widescan.measurement", "inverse_dft_matrix") in wrapped
        assert all(key[1][0] != "_" for key in wrapped)
    finally:
        tracer.restore()
    after = _widescan_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_of_a_synthetic_nested_call():
    now = [0.0]
    tracer = Tracer("t", clock=lambda: now[0])

    def leaf(seconds):
        now[0] += seconds

    def middle():
        now[0] += 1.0
        tracer.call("leaf", leaf, (2.0,))
        now[0] += 0.5

    def top():
        now[0] += 0.25
        tracer.call("middle", middle)
        tracer.call("leaf", leaf, (4.0,))
        now[0] += 0.125

    tracer.call("top", top)
    spans = tracer.finished()
    by_name = {s.name: s for s in spans if s.name != "leaf"}
    assert by_name["top"].parent is None
    assert by_name["middle"].parent == by_name["top"].sid
    assert sorted(s.parent for s in spans if s.name == "leaf") == [0, 1]
    assert self_times(spans) == [0.375, 1.5, 2.0, 4.0]
    assert self_time_by_name(spans) == {"top": 0.375, "middle": 1.5, "leaf": 6.0}


def test_layer_self_times_and_unattributed_add_up_to_the_run():
    spans = [
        Span(0, "recovery.solve_lasso", 1.0, 3.0, None),
        Span(1, layers.EMIT, 3.0, 4.0, None),
        Span(2, "config.config_hash", 3.5, 3.75, 1),
        Span(3, "measurement.compose_sensing", 4.0, 4.5, None),
        Span(4, "fourier.inverse_dft_matrix", 4.125, 4.25, 3),
    ]
    values = layers.layer_values(spans, layers.SolveLog(), traced_s=5.0, untraced_s=4.0)
    assert values["harness.emit_s"] == 0.75
    assert values["trace.other_s"] == 0.25
    assert values["measurement.compose_sensing.self_s"] == 0.375
    assert values["harness.unattributed_s"] == 1.5
    assert values["trace.overhead_s"] == 1.0
    accounted = sum(v for k, v in values.items() if k.endswith(".self_s"))
    accounted += sum(values[k] for k in ("harness.emit_s", "trace.other_s", "trace.observe_s",
                                         "harness.unattributed_s"))
    assert accounted == values["trace.run_s"]


def test_l1_observer_checks_feasibility_and_counts_repeated_psi():
    import numpy as np
    from widescan.measurement import build_reduction, compose_sensing
    from widescan.recovery import RecoveryProblem, solve_bp, solve_lasso

    psi = compose_sensing(build_reduction("gaussian", 10, 20, seed=1))
    x = np.zeros(20, dtype=complex)
    x[3] = 1.0
    y = psi.psi @ x
    log, tracer = layers.SolveLog(), Tracer("t")
    for fn, args in ((solve_lasso, (RecoveryProblem(psi=psi, y=y, epsilon=0.01),)),
                     (solve_bp, (psi, y))):
        name, observer = log.describe(fn)
        tracer.call(name, fn, args, observer=observer)
    assert (log.l1_solves, log.repeat_psi) == (2, 1)
    assert log.finite.checked == 2 and log.finite.violations == 0
    assert log.feasible.checked == 1 and log.feasible.violations == 0
    assert [s.name for s in tracer.finished()] == [
        "recovery.solve_lasso", "trace.observe", "recovery.solve_bp", "trace.observe"
    ]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert layers.tail(list(range(200))) == (95.0, pytest.approx(189.05))
    assert layers.tail(list(range(1000)))[0] == 99.0
    assert layers.tail(list(range(20)))[0] == 50.0
    assert layers.tail(list(range(19))) == (0.0, 0.0)


def test_record_comparison_ignores_only_wall_time():
    from widescan.harness import TrialRecord

    rec = TrialRecord("k", "0", 1, 7, "omp", 0.5, math.nan, 1, 0, 0.01, 3, True)
    slower = dataclasses.replace(rec, wall_time=0.02)
    other = dataclasses.replace(rec, miss=2)
    mismatches = bench.record_mismatches
    assert mismatches(bench.rows([rec]), bench.rows([slower]), ignore_wall_time=True) == 0
    assert mismatches(bench.rows([rec]), bench.rows([slower]), ignore_wall_time=False) == 1
    assert mismatches(bench.rows([rec]), bench.rows([other]), ignore_wall_time=True) == 1
    assert mismatches(bench.rows([rec, rec]), bench.rows([rec]), ignore_wall_time=True) == 1


def test_benchmark_json_lists_exactly_the_metrics_and_workloads_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [wl.name for wl in bench.WORKLOADS]
    assert tuple(run.WORKLOAD_NAMES) == tuple(wl.name for wl in bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER
    ]


def test_greedy_workload_keeps_every_matrix_kind():
    wl = bench.BY_NAME["greedy_kinds"]
    cfg = bench.make_config(wl, 1, ROOT / "unused")
    assert cfg.sweep == ("gaussian", "bernoulli", "circulant")
    assert cfg.solvers == ("omp", "cosamp", "assamp")


@pytest.fixture
def out_root(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_ROOT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", [wl.name for wl in bench.WORKLOADS])
def test_smoke_run_of_each_workload(name, out_root):
    wl = smoke(name)
    result = bench.run_workload(wl, seed=3, seconds=0.01)
    assert result["correct"], result["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert len(result["pass_s"]) >= wl.min_passes
    assert set(result["end_to_end"]) == {row[0] for row in bench.END_TO_END}
    assert all(math.isfinite(v) and v > 0 for v in result["end_to_end"].values())
    per_layer = result["per_layer"]
    assert list(per_layer) == [row[0] for row in layers.PER_LAYER]
    assert all(math.isfinite(v) for v in per_layer.values())
    self_s = sum(v for k, v in per_layer.items() if k.endswith(".self_s"))
    others = ("harness.emit_s", "trace.other_s", "trace.observe_s", "harness.unattributed_s")
    assert self_s + sum(per_layer[k] for k in others) == pytest.approx(per_layer["trace.run_s"])
    assert per_layer["harness.unattributed_s"] >= 0
    assert result["checks"]["traced_equals_untraced"]["checked"] > 0
    out = out_root / name
    assert (out / "spans.csv").is_file() and (out / "result.json").is_file()
    assert result["provenance"]["seed"] == 3


def test_a_pass_that_raises_is_counted_and_the_run_goes_on(out_root, monkeypatch, capsys):
    wl = smoke("greedy_kinds")
    bad_master = bench.master_seed(3, 0)
    real = bench.run_experiment

    def flaky(cfg):
        if cfg.master_seed == bad_master:
            raise ValueError("injected failure")
        return real(cfg)

    monkeypatch.setattr(bench, "run_experiment", flaky)
    result = bench.run_workload(wl, seed=3, seconds=0.01)
    assert result["correct"], result["checks"]
    assert result["checks"]["raised"]["violations"] == 1
    assert result["failed"] == 1
    assert result["end_to_end"]["solve_ok_share"] == 1.0 - 1 / result["attempted"]
    assert len(result["pass_s"]) >= wl.min_passes
    assert result["checks"]["traced_equals_untraced"]["violations"] == 0
    assert result["provenance"]["passes_raised"] == 1
    assert "injected failure" in capsys.readouterr().err


def test_last_line_has_exactly_the_contract_keys(out_root, monkeypatch, capsys):
    monkeypatch.setitem(bench.BY_NAME, "greedy_kinds", smoke("greedy_kinds"))
    monkeypatch.setattr(run, "pin_blas_threads", lambda: None)
    for trace, table in ((0, bench.END_TO_END), (1, layers.PER_LAYER)):
        argv = ["--workload", "greedy_kinds", "--seed", "5", "--seconds", "0.01",
                "--trace", str(trace)]
        assert run.main(argv) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        assert list(last["metrics"]) == [row[0] for row in table]
        assert all(m["unit"] == row[1] for m, row in zip(last["metrics"].values(), table))


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "l1_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
