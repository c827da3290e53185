"""Compare the outputs two source trees write for every shipped config.

    python tests/record_diff.py OLD_SRC NEW_SRC [--seed S] [--trials N]
                                [--config NAME ...]

OLD_SRC and NEW_SRC are directories holding the `widescan` package (the
`src` folder of two checkouts). Each config in `configs/` is run once per
tree through `python -m widescan run` in its own subprocess, with BLAS on one
thread, at the given master seed (default: the config's own) and trial count;
`--config NAME` (repeatable, the file stem such as `miss_detect_cdf`) runs only
the named configs. Both trees write to the same relative output directory, so
the config hash in `summary.csv` matches when the configs do.

For each config the report gives the count of records that are
byte-identical apart from `wall_time`, the max absolute and relative
difference of every float column, the rows whose `iterations`,
`converged`, `miss` or `false_alarm` changed, per solver, and each solver's
mean `iterations` in the old and the new tree. It then compares
`summary.csv` without `mean_wall_time` and every artifact (`error_gain.csv`,
`fusion_log.csv`) byte for byte.

Exit status: 0 when every run succeeded and only float columns of
`records.csv` moved, 1 when a run failed, the record keys, iterations,
convergence flags or detection decisions differ, or `summary.csv` or an
artifact differs. pytest does not collect this file (no `test_` prefix).
"""

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RECORDS = "records.csv"
# The one column of each file that holds wall time, which no two runs share.
WALL_COLUMNS = {RECORDS: "wall_time", "summary.csv": "mean_wall_time"}
KEY_COLUMNS = ("experiment", "sweep_value", "trial", "seed", "solver")
FLOAT_COLUMNS = ("nmse_paper", "nmse_l2", "extra")
EXACT_COLUMNS = ("iterations", "converged", "miss", "false_alarm")
ONE_THREAD = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def _drop_column(text: str, column: str) -> str:
    """CSV text without one column; `#` lines and line endings are kept."""
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    drop = lines[header].split(",").index(column)
    return "\n".join(
        line if i < header or not line
        else ",".join(cell for j, cell in enumerate(line.split(",")) if j != drop)
        for i, line in enumerate(lines)
    )


def comparable_outputs(out: Path) -> dict[str, str]:
    """Every CSV a run wrote, by file name, with its wall-time column removed."""
    texts = {}
    for path in sorted(out.glob("*.csv")):
        text = path.read_bytes().decode()
        column = WALL_COLUMNS.get(path.name)
        texts[path.name] = _drop_column(text, column) if column else text
    return texts


def parse_rows(text: str) -> list[dict]:
    """Records as dicts of strings, from comparable_outputs' records.csv text."""
    return list(csv.DictReader(io.StringIO(text, newline="")))


def run_config(src: Path, config: Path, workdir: Path, seed, trials) -> dict[str, str]:
    """Run one config against one source tree; comparable_outputs of the run."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, "-m", "widescan", "run", str(config), "--out", config.stem]
    cmd += ["--trials", str(trials)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), **ONE_THREAD)
    proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{config.name} failed under {src} (exit {proc.returncode}):\n{proc.stderr}"
        )
    return comparable_outputs(workdir / config.stem)


def _rel(a: float, b: float) -> float:
    top = max(abs(a), abs(b))
    return abs(a - b) / top if top > 0 else 0.0


def compare(old: list[dict], new: list[dict]) -> tuple[list[str], bool]:
    """Report lines for one config, and whether anything beyond floats moved."""
    if len(old) != len(new) or any(
        o[k] != n[k] for o, n in zip(old, new) for k in KEY_COLUMNS
    ):
        return [f"  record keys differ ({len(old)} vs {len(new)} rows)"], True
    same = sum(
        all(o[k] == n[k] for k in o if k != "wall_time") for o, n in zip(old, new)
    )
    lines = [f"  {len(old)} records, {same} byte-identical apart from wall_time"]
    for col in FLOAT_COLUMNS:
        worst_abs = worst_rel = 0.0
        for o, n in zip(old, new):
            a, b = float(o[col]), float(n[col])
            if math.isnan(a) and math.isnan(b):
                continue
            if math.isnan(a) != math.isnan(b):
                worst_abs = worst_rel = math.inf
                continue
            worst_abs = max(worst_abs, abs(a - b))
            worst_rel = max(worst_rel, _rel(a, b))
        lines.append(f"  {col:11s} max abs {worst_abs:.3g}  max rel {worst_rel:.3g}")
    moved = False
    for col in EXACT_COLUMNS:
        changed = Counter(n["solver"] for o, n in zip(old, new) if o[col] != n[col])
        moved = moved or bool(changed)
        detail = "".join(f", {s}: {c}" for s, c in sorted(changed.items()))
        lines.append(f"  {col:11s} {sum(changed.values())} rows changed{detail}")
    lines += [
        f"  mean iterations {solver}: {old_mean:.1f} -> {new_mean:.1f}"
        for solver, old_mean, new_mean in mean_iterations(old, new)
    ]
    return lines, moved


def mean_iterations(old: list[dict], new: list[dict]) -> list[tuple[str, float, float]]:
    """(solver, old mean, new mean) of `iterations` for every solver that iterates."""
    by_solver: dict[str, list[tuple[int, int]]] = {}
    for o, n in zip(old, new):
        by_solver.setdefault(n["solver"], []).append((int(o["iterations"]), int(n["iterations"])))
    return [
        (solver, sum(a for a, _ in pairs) / len(pairs), sum(b for _, b in pairs) / len(pairs))
        for solver, pairs in sorted(by_solver.items())
        if any(a or b for a, b in pairs)
    ]


def compare_files(old: dict[str, str], new: dict[str, str]) -> tuple[list[str], bool]:
    """Report lines for every file but records.csv, and whether any differs."""
    lines, differs = [], False
    for name in sorted((old.keys() | new.keys()) - {RECORDS}):
        same = old.get(name) == new.get(name)
        differs = differs or not same
        without = f" without {WALL_COLUMNS[name]}" if name in WALL_COLUMNS else ""
        lines.append(f"  {name}{without}: {'identical' if same else 'DIFFERS'}")
    return lines, differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--trials", type=int, default=10, help="trials per config (>= 7)")
    parser.add_argument(
        "--config",
        action="append",
        metavar="NAME",
        help="run only this config (file stem; repeatable, default: all)",
    )
    args = parser.parse_args(argv)
    configs = sorted(CONFIG_DIR.glob("*.ini"))
    if args.config:
        unknown = set(args.config) - {c.stem for c in configs}
        if unknown:
            parser.error(f"unknown config(s): {', '.join(sorted(unknown))}")
        configs = [c for c in configs if c.stem in args.config]
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            print(config.stem)
            try:
                old, new = (
                    run_config(src, config, Path(tmp) / side / config.stem, args.seed, args.trials)
                    for side, src in (("old", args.old_src), ("new", args.new_src))
                )
            except RuntimeError as exc:
                print(f"  {exc}")
                status = 1
                continue
            lines, moved = compare(parse_rows(old[RECORDS]), parse_rows(new[RECORDS]))
            file_lines, differs = compare_files(old, new)
            print("\n".join(lines + file_lines))
            status = max(status, int(moved or differs))
    return status


if __name__ == "__main__":
    sys.exit(main())
