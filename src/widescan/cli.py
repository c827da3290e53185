"""Command-line experiment runner.

    widescan run <config> [--seed S] [--out DIR] [--solvers a,b,c] [--trials N]
    widescan timing <config> [--seed S] [--out DIR] [--trials N]

Outputs land in the config's out_dir: records.csv, summary.csv, a
config_echo.ini copy of the effective configuration, and any kind-specific
artifacts (error_gain.csv, fusion_log.csv). Exit status 0 on success,
2 on configuration errors.
"""

import argparse
import sys
from pathlib import Path

from .config import ConfigError, apply_overrides, config_hash, parse_config, write_config_echo
from .harness import emit_csv, emit_summary, run_experiment, timing_table


def _add_common(sub):
    sub.add_argument("config", help="path to an INI experiment config")
    sub.add_argument("--seed", type=int, default=None, help="override master seed")
    sub.add_argument("--out", default=None, help="override output directory")
    sub.add_argument("--trials", type=int, default=None, help="override trial count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widescan",
        description="Compressed wideband spectrum sensing experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    run_p = subs.add_parser("run", help="run the configured experiment")
    _add_common(run_p)
    run_p.add_argument(
        "--solvers", default=None, help="comma-separated solver subset override"
    )
    timing_p = subs.add_parser("timing", help="run the solver timing benchmark")
    _add_common(timing_p)
    return parser


def _write_outputs(cfg, records, artifacts):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(records, out / "records.csv")
    emit_summary(records, out / "summary.csv", cfg)
    write_config_echo(cfg, out / "config_echo.ini")
    for name, lines in artifacts.items():
        (out / name).write_text("\n".join(lines) + "\n")
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        apply_overrides(
            cfg,
            seed=args.seed,
            out=args.out,
            solvers=getattr(args, "solvers", None),
            trials=args.trials,
        )
        if args.command == "timing":
            cfg.kind = "timing_table"
            cfg.sweep = ("timing",)
            records, table, checks = timing_table(cfg)
            out = _write_outputs(cfg, records, {})
            print(f"timing table ({len(records)} records) -> {out}")
            for row in table:
                print(
                    f"  {row['solver']:14s} mean_time={row['mean_time'] * 1e3:9.3f} ms"
                    f"  mean_iterations={row['mean_iterations']:8.1f}"
                )
            for name, value in checks.items():
                print(f"  check {name}: {value}")
        else:
            records, _, artifacts = run_experiment(cfg)
            out = _write_outputs(cfg, records, artifacts)
            print(
                f"{cfg.kind}: {len(records)} records over {len(cfg.sweep)} sweep values "
                f"x {cfg.trials} trials -> {out}"
            )
            print(f"config_hash={config_hash(cfg)} master_seed={cfg.master_seed}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
