from pathlib import Path

import pytest

from widescan.cli import main
from widescan.config import parse_config
from widescan.harness import parse_records

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SMALL_SPECTRUM = """
[experiment]
kind = nmse_vs_snr
trials = 2
master_seed = 11
out_dir = {out}

[spectrum]
n = 40
block_sizes = 20, 20
block_probs = 0.3, 0.05

[measurement]
matrix_kind = gaussian
m = 16

[sweep]
values = 5, 15

[solvers]
names = lasso, omp
max_iter = 1500
"""


def write_cfg(tmp_path, out_dir, body=SMALL_SPECTRUM):
    path = tmp_path / "exp.ini"
    path.write_text(body.format(out=out_dir))
    return path


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "results"
    cfg = write_cfg(tmp_path, out)
    assert main(["run", str(cfg)]) == 0
    records = parse_records(out / "records.csv")
    assert len(records) == 2 * 2 * 2  # sweeps x trials x solvers
    assert (out / "summary.csv").exists()
    assert (out / "config_echo.ini").exists()


def test_run_with_overrides(tmp_path):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, tmp_path / "ignored")
    code = main(
        ["run", str(cfg), "--seed", "5", "--trials", "1", "--solvers", "omp", "--out", str(out)]
    )
    assert code == 0
    records = parse_records(out / "records.csv")
    assert {r.solver for r in records} == {"omp"}
    assert len(records) == 2  # 2 sweep values x 1 trial


def test_timing_subcommand(tmp_path, capsys):
    out = tmp_path / "t"
    cfg = write_cfg(tmp_path, out)
    assert main(["timing", str(cfg), "--trials", "2"]) == 0
    printed = capsys.readouterr().out
    assert "mean_time" in printed
    records = parse_records(out / "records.csv")
    assert all(r.experiment == "timing_table" for r in records)


def test_config_error_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_solver_override_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tmp_path / "r")
    assert main(["run", str(cfg), "--solvers", "sorcery"]) == 2


@pytest.mark.parametrize(
    "name,trials",
    [
        ("nmse_vs_snr.ini", 1),
        ("error_gain_vs_m.ini", 1),
        ("coherence_study.ini", 1),
        ("timing_table.ini", 1),
        ("miss_detect_cdf.ini", 8),
        ("cooperative_round.ini", 1),
    ],
)
def test_every_shipped_config_runs_from_cli(tmp_path, name, trials):
    code = main(
        ["run", str(CONFIG_DIR / name), "--trials", str(trials), "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "records.csv").exists()


def test_shipped_defaults_carry_figure_operating_points():
    # the SNR sweep fixes m=27; the gain-vs-m sweep fixes SNR=7 dB
    snr_cfg = parse_config(CONFIG_DIR / "nmse_vs_snr.ini")
    assert snr_cfg.m == 27
    gain_cfg = parse_config(CONFIG_DIR / "error_gain_vs_m.ini")
    assert gain_cfg.snr_db == 7.0
    assert gain_cfg.m == 27


def test_same_seed_byte_identical_outside_wall_time(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = write_cfg(tmp_path, tmp_path / "unused")
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg), "--out", str(out_b)]) == 0

    def rows_without_time(path):
        lines = (path / "records.csv").read_text().splitlines()
        idx = lines[0].split(",").index("wall_time")
        return [
            [c for i, c in enumerate(line.split(",")) if i != idx] for line in lines
        ]

    assert rows_without_time(out_a) == rows_without_time(out_b)


def _write_named(tmp_path, name, out_dir, body=SMALL_SPECTRUM):
    path = tmp_path / f"{name}.ini"
    path.write_text(body.format(out=out_dir))
    return path


def test_run_takes_several_configs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = _write_named(tmp_path, "a", out_a)
    cfg_b = _write_named(tmp_path, "b", out_b)
    assert main(["run", str(cfg_a), str(cfg_b), "--trials", "1"]) == 0
    for out in (out_a, out_b):
        assert len(parse_records(out / "records.csv")) == 2 * 1 * 2


def test_out_with_several_configs_exits_2_before_running(tmp_path, capsys):
    out_a, out_b, forced = tmp_path / "a", tmp_path / "b", tmp_path / "forced"
    cfg_a = _write_named(tmp_path, "a", out_a)
    cfg_b = _write_named(tmp_path, "b", out_b)
    assert main(["run", str(cfg_a), str(cfg_b), "--out", str(forced)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not any(p.exists() for p in (out_a, out_b, forced))


def test_bad_second_config_fails_before_the_first_runs(tmp_path, capsys):
    out_a = tmp_path / "a"
    good = _write_named(tmp_path, "a", out_a)
    bad = _write_named(tmp_path, "b", tmp_path / "b", SMALL_SPECTRUM.replace("m = 16", "m = x"))
    assert main(["run", str(good), str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out_a.exists()


def test_configs_sharing_an_out_dir_rejected(tmp_path):
    shared = tmp_path / "shared"
    cfg_a = _write_named(tmp_path, "a", shared)
    cfg_b = _write_named(tmp_path, "b", shared)
    assert main(["run", str(cfg_a), str(cfg_b)]) == 2
    assert not shared.exists()


def test_run_on_a_timing_config_prints_the_timing_table(tmp_path, capsys):
    body = SMALL_SPECTRUM.replace("kind = nmse_vs_snr", "kind = timing_table")
    body = body.replace("[sweep]\nvalues = 5, 15\n", "")
    out = tmp_path / "t"
    cfg = _write_named(tmp_path, "t", out, body)
    assert main(["run", str(cfg), "--trials", "2", "--solvers", "lasso,wlasso"]) == 0
    printed = capsys.readouterr().out
    assert "wlasso" in printed and "mean_time" in printed
    assert "check time_parity" in printed
    records = parse_records(out / "records.csv")
    assert {r.sweep_value for r in records} == {"timing"}
