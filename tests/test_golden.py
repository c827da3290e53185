"""Golden fingerprints of every shipped config's outputs.

Each run below writes its outputs the way `widescan run` does, in a child
process with BLAS on one thread: with more threads, OpenBLAS rounds the
larger products of error_gain_vs_m differently. The test hashes records.csv
without `wall_time`, summary.csv without `mean_wall_time` and every artifact,
and checks the hashes against `golden/fingerprints.json`. Floats are written
with repr, so a one-ulp change anywhere changes a hash. The table is keyed
by numpy version; on an unlisted version the test skips.

On a mismatch the test prints record_diff's report against the reference rows in
`golden/<numpy version>/`, which are kept only to explain a mismatch.

A change that moves no float never changes a fingerprint. A change that moves
floats rewrites the table and the reference rows in the same commit, with
record_diff's report in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import widescan
from record_diff import ONE_THREAD, RECORDS, comparable_outputs, compare, parse_rows
from widescan.cli import _write_outputs
from widescan.config import apply_overrides, parse_config
from widescan.harness import run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE = GOLDEN / "fingerprints.json"

# run name -> (config file stem, trials, config fields set on top).
# Trial counts follow criterion 11; miss_detect_cdf needs lag + 2 windows.
# cooperative_pending pools 30 rows against a budget of 40, so every round
# stays pending.
RUNS = {
    "nmse_vs_snr": ("nmse_vs_snr", 2, {}),
    "error_gain_vs_m": ("error_gain_vs_m", 2, {}),
    "coherence_study": ("coherence_study", 2, {}),
    "timing_table": ("timing_table", 2, {}),
    "miss_detect_cdf": ("miss_detect_cdf", 8, {}),
    "cooperative_round": ("cooperative_round", 2, {}),
    "cooperative_pool": ("cooperative_round", 2, {"fusion_mode": "pool"}),
    "cooperative_pending": (
        "cooperative_round", 2, {"fusion_mode": "pool", "su_count": 1, "m": 40}
    ),
}


def write_outputs(workdir: Path):
    """Run every entry of RUNS from workdir, each into workdir/<name>.

    The output directories are relative, so the config hash in summary.csv
    does not depend on where the runs happen.
    """
    os.chdir(workdir)
    for name, (stem, trials, fields) in RUNS.items():
        cfg = apply_overrides(parse_config(CONFIG_DIR / f"{stem}.ini"), trials=trials, out=name)
        cfg = replace(cfg, **fields)
        records, _, artifacts = run_experiment(cfg)
        _write_outputs(cfg, records, artifacts)


def run_all(workdir: Path) -> dict[str, dict[str, str]]:
    """comparable_outputs of every run, made by a child with BLAS on one thread."""
    src = Path(widescan.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), **ONE_THREAD)
    cmd = [sys.executable, __file__, "--run", str(workdir)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"golden runs failed (exit {proc.returncode}):\n{proc.stderr}")
    return {name: comparable_outputs(workdir / name) for name in RUNS}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _mismatch_report(name: str, texts: dict[str, str], want: dict[str, str]) -> str:
    got = {file: _sha(text) for file, text in texts.items()}
    lines = [f"{name}: outputs differ from the golden table (numpy {np.__version__})"]
    for file in sorted(got.keys() | want.keys()):
        if got.get(file) != want.get(file):
            lines.append(f"  {file}: {want.get(file, 'absent')} -> {got.get(file, 'absent')}")
    reference = GOLDEN / np.__version__ / f"{name}.records.csv"
    if got.get(RECORDS) != want.get(RECORDS) and reference.is_file():
        old = parse_rows(reference.read_bytes().decode())
        lines += compare(old, parse_rows(texts.get(RECORDS, "")))[0]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def golden():
    table = json.loads(TABLE.read_text())
    if np.__version__ not in table:
        pytest.skip(
            f"no golden fingerprints for numpy {np.__version__} "
            f"(listed: {', '.join(sorted(table))})"
        )
    return table[np.__version__]


@pytest.fixture(scope="module")
def outputs(golden, tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_golden(name, golden, outputs):
    texts = outputs[name]
    if {file: _sha(text) for file, text in texts.items()} != golden[name]:
        pytest.fail(_mismatch_report(name, texts, golden[name]), pytrace=False)


def write_table():
    """Record this tree's fingerprints and reference rows for this numpy."""
    table = json.loads(TABLE.read_text()) if TABLE.is_file() else {}
    reference = GOLDEN / np.__version__
    reference.mkdir(parents=True, exist_ok=True)
    entry = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, texts in run_all(Path(tmp)).items():
            entry[name] = {file: _sha(text) for file, text in texts.items()}
            (reference / f"{name}.records.csv").write_bytes(texts[RECORDS].encode())
    table[np.__version__] = entry
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entry)} fingerprints for numpy {np.__version__} to {TABLE}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"] and len(sys.argv) == 3:
        write_outputs(Path(sys.argv[2]))
    elif sys.argv[1:] == ["--write"]:
        write_table()
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
