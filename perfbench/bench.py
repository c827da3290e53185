"""Workloads, timed passes, output checks and end-to-end metrics.

One run of a workload:
1. set-up probes: fresh processes time import, config parse and the
   partition/weight set-up (median of SETUP_REPEATS after one warm-up);
2. a short warm-up pass, then timed passes through the public API
   (`run_experiment` plus CSV emission) until the time is up and at least
   the workload's min_passes have run. Each pass gets its own master seed,
   derived from the workload seed, so no pass repeats another's problems.
   A pass in which the library raises is counted as a failed operation and
   the next pass runs;
3. one traced pass with the master seed of the first timed pass that did
   not raise, whose records must match that pass apart from wall_time.

Accuracy metrics come from the first min_passes passes that did not raise,
so they depend on the seed alone, never on how fast the machine is.
"""

import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from widescan.config import apply_overrides, parse_config, write_config_echo
from widescan.harness import TrialRecord, emit_csv, emit_summary, parse_records, run_experiment

import layers
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".perfbench_out"

# Single probes spread from about 52 to 84 ms on a 2-CPU EPYC VM, so the
# median needs many of them.
SETUP_REPEATS = 25
WARMUP_TRIALS = 8
WARMUP_PASS = 2**31  # pass index of the warm-up; timed passes count up from 0
MAX_RAISED = 3  # passes that may raise before the run gives up

# Records that carry no estimate of their own: the coherence row of the
# coherence study and the vote-fused decision of a cooperative round.
DERIVED_ROWS = ("coherence", "fused")
NON_DECISION_ROWS = ("coherence",)

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("trials_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("nmse_l2_median", "ratio", "lower"),
    ("band_error_rate", "share", "lower"),
    ("solve_ok_share", "share", "higher"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the repository root
    trials: int  # trials, windows or rounds per pass
    min_passes: int  # timed passes run whatever the time; accuracy uses these
    solvers: str | None = None  # solver override, None keeps the config's list


# Why each workload exists is in README.md and BENCHMARK.json. Pass sizes
# keep a pass near one second, except drift_forecast, whose 320 windows
# are the shipped history length that fit_gd's cost depends on. coop_vote
# scores 20 passes: with 10, its band_error_rate varied by 4% across seeds.
WORKLOADS = (
    Workload("l1_sweep", "configs/nmse_vs_snr.ini", trials=8, min_passes=10),
    Workload("coop_vote", "configs/cooperative_round.ini", trials=40, min_passes=20),
    Workload("drift_forecast", "configs/miss_detect_cdf.ini", trials=320, min_passes=2),
    Workload("greedy_kinds", "configs/coherence_study.ini", trials=500, min_passes=10,
             solvers="omp,cosamp,assamp"),
)
BY_NAME = {wl.name: wl for wl in WORKLOADS}


def master_seed(seed: int, pass_index: int) -> int:
    """The seed the library sees for one pass of a run with workload seed `seed`."""
    return int(np.random.SeedSequence((seed, pass_index)).generate_state(1)[0])


def make_config(wl: Workload, master: int, out_dir: Path, trials: int | None = None):
    cfg = parse_config(ROOT / wl.config)
    return apply_overrides(
        cfg, seed=master, out=out_dir, solvers=wl.solvers, trials=trials or wl.trials
    )


def emit_outputs(cfg, records, artifacts):
    """Write what the CLI writes for a run: records, summary, config echo, artifacts."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(records, out / "records.csv")
    emit_summary(records, out / "summary.csv", cfg)
    write_config_echo(cfg, out / "config_echo.ini")
    for name, lines in artifacts.items():
        (out / name).write_text("\n".join(lines) + "\n")


def fresh_out_dir(cfg):
    """Remove a pass's output directory before the pass, outside its timing.

    Rewriting an existing file truncates it, and ext4 (auto_da_alloc) then
    flushes it on close: about 0.2 s per pass that measures the disk, not
    the library. New files are written without that flush.
    """
    shutil.rmtree(cfg.out_dir, ignore_errors=True)


def run_pass(cfg):
    records, _, artifacts = run_experiment(cfg)
    emit_outputs(cfg, records, artifacts)
    return records


def try_pass(cfg, label: str):
    """run_pass, or None when the library raises; the error goes to stderr.

    A pass that raises is a failed operation of the program under test: it
    is counted in `failed`, and the run goes on with the next pass instead
    of ending without a result.
    """
    try:
        return run_pass(cfg)
    except Exception as exc:
        print(f"perfbench: {label} (master_seed {cfg.master_seed}) raised "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def time_setup(wl: Workload) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh processes, after one warm-up."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), str(ROOT), wl.config, wl.solvers or ""]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times[1:]


# ---------------------------------------------------------------------------
# Output checks


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


_WALL = [f.name for f in fields(TrialRecord)].index("wall_time")


def rows(records) -> list[tuple]:
    """Records as plain tuples, which the garbage collector stops tracking."""
    return [astuple(r) for r in records]


def record_mismatches(left: list[tuple], right: list[tuple], ignore_wall_time: bool) -> int:
    """Rows that differ between two runs, plus any difference in count."""
    bad = abs(len(left) - len(right))
    for a, b in zip(left, right):
        bad += not all(
            _same(x, y) for i, (x, y) in enumerate(zip(a, b))
            if not (ignore_wall_time and i == _WALL)
        )
    return bad


def solve_records(records):
    return [r for r in records if r.solver not in DERIVED_ROWS]


def non_finite(records) -> int:
    """Solve records whose estimate scored as NaN or infinite."""
    return sum(
        not (math.isfinite(r.nmse_l2) and math.isfinite(r.nmse_paper))
        for r in solve_records(records)
    )


def units_done(records) -> int:
    return len({(r.sweep_value, r.trial) for r in records})


# ---------------------------------------------------------------------------
# One workload


@dataclass
class Accuracy:
    """Running accuracy over passes; keeps floats and counts, not records.

    Holding every record of ten passes would keep tens of thousands of
    objects alive, and each full garbage collection walks all of them,
    slowing the later passes.
    """

    errors: list = field(default_factory=list)
    wrong: int = 0
    bands: int = 0

    def add(self, records, n: int):
        self.errors += [r.nmse_l2 for r in solve_records(records) if math.isfinite(r.nmse_l2)]
        decisions = [r for r in records if r.solver not in NON_DECISION_ROWS]
        self.wrong += sum(r.miss + r.false_alarm for r in decisions)
        self.bands += len(decisions) * n

    def values(self) -> dict[str, float]:
        return {
            "nmse_l2_median": statistics.median(self.errors),
            "band_error_rate": self.wrong / self.bands,
        }


def traced_pass(cfg, run_id: str):
    """Run one pass with every layer wrapped; returns (records, seconds, tracer, log)."""
    tracer = Tracer(run_id)
    log = layers.SolveLog()
    fresh_out_dir(cfg)
    try:
        for module in layers.TRACED_MODULES:
            tracer.install(importlib.import_module(module), log.describe)
        t0 = tracer.clock()
        records, _, artifacts = run_experiment(cfg)
        tracer.call(layers.EMIT, emit_outputs, (cfg, records, artifacts))
        seconds = tracer.clock() - t0
    finally:
        tracer.restore()
    return records, seconds, tracer, log


def write_spans(path: Path, run_id: str, spans):
    """One CSV row per span; times in seconds from the first span's start."""
    origin = spans[0].start if spans else 0.0
    with open(path, "w") as fh:
        fh.write("run_id,span_id,name,start_s,end_s,parent\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(
                f"{run_id},{s.sid},{s.name},{s.start - origin!r},"
                f"{s.end - origin!r},{parent}\n"
            )


def run_workload(wl: Workload, seed: int, seconds: float) -> dict:
    """Run one workload; returns metrics, checks and provenance as a dict.

    Writes the last pass's outputs, spans.csv and result.json to
    OUT_ROOT/<workload>.
    """
    out_dir = OUT_ROOT / wl.name
    setup = time_setup(wl)

    checks = {"raised": layers.Check(), "units": layers.Check(), "finite": layers.Check()}
    warm = make_config(wl, master_seed(seed, WARMUP_PASS), out_dir, min(wl.trials, WARMUP_TRIALS))
    fresh_out_dir(warm)
    checks["raised"].add(try_pass(warm, "warm-up pass") is not None)

    pass_s, rates, acc, first = [], [], Accuracy(), None
    deadline = time.perf_counter() + seconds
    index = 0
    while len(pass_s) < wl.min_passes or time.perf_counter() < deadline:
        if checks["raised"].violations > MAX_RAISED:
            raise RuntimeError(f"{checks['raised'].violations} passes raised; see stderr")
        cfg = make_config(wl, master_seed(seed, index), out_dir)
        fresh_out_dir(cfg)
        t0 = time.perf_counter()
        records = try_pass(cfg, f"pass {index}")
        dt = time.perf_counter() - t0
        index += 1
        checks["raised"].add(records is not None)
        if records is None:
            continue
        units = len(cfg.sweep) * cfg.trials
        checks["units"].add(units_done(records) == units)
        pass_s.append(dt)
        rates.append(units / dt)
        checks["finite"].checked += len(solve_records(records))
        checks["finite"].violations += non_finite(records)
        if len(pass_s) <= wl.min_passes:
            acc.add(records, cfg.n)
        if first is None:
            first, first_cfg = rows(records), cfg
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_id = f"{wl.name}-seed{seed}"
    traced, traced_s, tracer, log = traced_pass(first_cfg, run_id)
    spans = tracer.finished()
    write_spans(out_dir / "spans.csv", run_id, spans)
    checks["traced_equals_untraced"] = layers.Check(
        len(traced), record_mismatches(rows(traced), first, ignore_wall_time=True)
    )
    checks["csv_round_trip"] = layers.Check(
        len(traced),
        record_mismatches(rows(parse_records(out_dir / "records.csv")), rows(traced), False),
    )
    checks["finite_traced"] = log.finite
    checks["l1_feasible"] = log.feasible

    # A pass that raised is one attempted operation that failed; every other
    # violation is a wrong output, and only those make the run incorrect.
    raised = checks["raised"].violations
    wrong = sum(c.violations for name, c in checks.items() if name != "raised")
    attempted = checks["finite"].checked + len(solve_records(traced)) + raised
    failed = min(attempted, wrong + raised)
    e2e = {
        "trials_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        **acc.values(),
        "solve_ok_share": 1.0 - failed / attempted,
    }
    per_layer = layers.layer_values(spans, log, traced_s, pass_s[0])
    result = {
        "workload": wl.name,
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": per_layer,
        "checks": {name: vars(c) for name, c in checks.items()},
        "provenance": provenance(wl, seed, first_cfg, len(pass_s), raised),
        "pass_s": pass_s,
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


# ---------------------------------------------------------------------------
# Provenance


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    """Digest of the library sources, which identifies the code without git."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_info() -> dict:
    """BLAS name and version from numpy's build, and its live thread count."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": threads,
        "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(wl: Workload, seed: int, cfg, passes: int, raised: int) -> dict:
    return {
        "git_commit": git_commit(),
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": wl.name,
        "config": wl.config,
        "seed": seed,
        "trials_per_pass": cfg.trials,
        "units_per_pass": len(cfg.sweep) * cfg.trials,
        "passes": passes,
        "passes_raised": raised,
        "accuracy_passes": wl.min_passes,
    }
