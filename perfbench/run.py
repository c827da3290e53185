"""widescan benchmark: timed Monte Carlo workloads and a traced pass per run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the repository root and builds nothing: the library is imported
from ./src. Prints a provenance block, every metric by name with its unit,
and as the last line one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1). See README.md beside this file.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("l1_sweep", "coop_vote", "drift_forecast", "greedy_kinds")


def pin_blas_threads():
    """Run BLAS on one thread; must happen before numpy is imported.

    The problems are at most 100 columns wide, too small for OpenBLAS to
    split, so a second thread only spin-waits: the same throughput at twice
    the CPU time, taken from whatever else shares the machine.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Import widescan from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "widescan" / "__init__.py").is_file():
        raise ImportError(f"no widescan sources under {src}")
    sys.path.insert(0, str(src))
    import widescan

    origin = Path(widescan.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"widescan was imported from {origin}, not from {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_block(title, values, table):
    print(title)
    for name, unit, _ in table:
        print(f"  {name:44s} {values[name]!r:>24} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import bench
    import layers

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = bench.run_workload(bench.BY_NAME[name], args.seed, args.seconds)
        results.append(result)
        print(json.dumps({"provenance": result["provenance"]}))
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} passes={len(result['pass_s'])} "
              f"checks={result['checks']}")
        _print_block(f"[{name}] end-to-end", result["end_to_end"], bench.END_TO_END)
        if args.trace:
            _print_block(f"[{name}] per-layer (traced pass)", result["per_layer"], layers.PER_LAYER)

    key, table = ("per_layer", layers.PER_LAYER) if args.trace else ("end_to_end", bench.END_TO_END)
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": r[key][name], "unit": unit}
        for r in results
        for name, unit, _ in table
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
