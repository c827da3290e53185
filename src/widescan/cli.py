"""Command-line experiment runner.

    widescan run CONFIG [CONFIG ...] [--seed S] [--out DIR] [--solvers a,b,c] [--trials N]
    widescan timing CONFIG [CONFIG ...] [--seed S] [--out DIR] [--trials N]

Every config is parsed and validated, overrides applied, before the first
run starts. `--out` takes one config only. `timing` is `run` with the kind
forced to timing_table, whose runs also print a per-solver table and checks.
Outputs land in each config's out_dir: records.csv, summary.csv,
config_echo.ini and any kind-specific artifacts (error_gain.csv,
fusion_log.csv). Exit status 0 on success, 2 on configuration errors.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, apply_overrides, config_hash, parse_config, write_config_echo
from .harness import emit_csv, emit_summary, run_experiment, timing_report


def _add_common(sub):
    sub.add_argument("configs", nargs="+", metavar="CONFIG",
                     help="paths to INI experiment configs, run in turn")
    sub.add_argument("--seed", type=int, default=None, help="override master seed")
    sub.add_argument("--out", default=None, help="override output directory (one config only)")
    sub.add_argument("--trials", type=int, default=None, help="override trial count")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widescan",
        description="Compressed wideband spectrum sensing experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    run_p = _add_common(subs.add_parser("run", help="run the configured experiments"))
    run_p.add_argument("--solvers", default=None, help="comma-separated solver subset override")
    _add_common(subs.add_parser("timing", help="run the solver timing benchmark"))
    return parser


def _load_configs(args):
    """Every config with its overrides applied, all validated before any run."""
    if args.out is not None and len(args.configs) > 1:
        raise ConfigError("--out takes a single config")
    cfgs = [
        apply_overrides(parse_config(path), seed=args.seed, out=args.out,
                        solvers=getattr(args, "solvers", None), trials=args.trials)
        for path in args.configs
    ]
    if args.command == "timing":
        cfgs = [replace(cfg, kind="timing_table", sweep=()) for cfg in cfgs]
    out_dirs = [Path(cfg.out_dir).resolve() for cfg in cfgs]
    if len(set(out_dirs)) < len(out_dirs):
        raise ConfigError("two configs write to the same out_dir")
    return cfgs


def _write_outputs(cfg, records, artifacts):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(records, out / "records.csv")
    emit_summary(records, out / "summary.csv", cfg)
    write_config_echo(cfg, out / "config_echo.ini")
    for name, lines in artifacts.items():
        (out / name).write_text("\n".join(lines) + "\n")
    return out


def _run(cfg):
    records, summary, artifacts = run_experiment(cfg)
    out = _write_outputs(cfg, records, artifacts)
    print(
        f"{cfg.kind}: {len(records)} records over {len(cfg.sweep)} sweep values "
        f"x {cfg.trials} trials -> {out}"
    )
    print(f"config_hash={config_hash(cfg)} master_seed={cfg.master_seed}")
    if cfg.kind == "timing_table":
        table, checks = timing_report(summary)
        for row in table:
            print(
                f"  {row['solver']:14s} mean_time={row['mean_time'] * 1e3:9.3f} ms"
                f"  mean_iterations={row['mean_iterations']:8.1f}"
            )
        for name, value in checks.items():
            print(f"  check {name}: {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for cfg in _load_configs(args):
            _run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
