"""Per-layer metrics of one traced pass, and the checks made while tracing.

Layers are the widescan modules. A span is named after the module that
defines the function and the function itself (`measurement.build_reduction`);
the three scoring helpers share the span `recovery.scoring`. Solver spans
also feed a SolveLog, which keeps iterations, convergence, the accuracy of
each estimate and whether its Psi was seen before.
"""

import hashlib
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from widescan.recovery import RecoveryProblem

from spans import OBSERVE, Span, self_time_by_name

# Where the callers look the layer functions up.
TRACED_MODULES = ("widescan.harness", "widescan.cooperative", "widescan.measurement")

EMIT = "harness.emit"
SCORING = ("decide_occupancy", "nmse", "nmse_l2")
L1_SOLVERS = ("recovery.solve_lasso", "recovery.solve_wlasso")
GREEDY_SOLVERS = ("greedy.solve_omp", "greedy.solve_cosamp", "greedy.solve_assamp")
CALL_LAYERS = (
    "spectrum.sample_instance",
    "spectrum.add_time_noise",
    "spectrum.make_block_partition",
    "spectrum.average_block_sparsity",
    "fourier.inverse_dft_matrix",
    "fourier.freq_to_time",
    "measurement.build_reduction",
    "measurement.compose_sensing",
    "measurement.coherence",
    "measurement.measure",
    "measurement.make_afe_bank",
    "cooperative.su_sense",
    "prediction.fit_gd",
    "prediction.predict_sparsity",
    "prediction.required_measurements",
    "recovery.design_weights",
    "recovery.scoring",
) + L1_SOLVERS + GREEDY_SOLVERS

# Converged l1 estimates lie on or inside the residual ball to this precision.
FEASIBILITY_RTOL = 1e-6

# Percentiles tried for the tail, highest first; the tail is the highest one
# with at least TAIL_BEYOND samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def _solver_metrics(solver: str, l1: bool) -> list[tuple[str, str, str]]:
    rows = [
        ("p50_ms", "ms", "lower"),
        ("tail_ms", "ms", "lower"),
        ("tail_pct", "%", "higher"),
        ("iterations", "count", "lower"),
    ]
    if l1:
        rows.append(("ms_per_iter", "ms", "lower"))
    rows += [
        ("converged_rate", "share", "higher"),
        ("nmse_l2_median", "ratio", "lower"),
        ("nmse_l2_tail", "ratio", "lower"),
    ]
    return [(f"{solver}.{name}", unit, better) for name, unit, better in rows]


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{layer}.calls", "count", "lower") for layer in CALL_LAYERS]
    + [(f"{layer}.self_s", "s", "lower") for layer in CALL_LAYERS]
    + [row for s in L1_SOLVERS for row in _solver_metrics(s, l1=True)]
    + [row for s in GREEDY_SOLVERS for row in _solver_metrics(s, l1=False)]
    + [
        ("recovery.repeat_psi_share", "share", "higher"),
        ("harness.emit_s", "s", "lower"),
        ("harness.unattributed_s", "s", "lower"),
        ("trace.other_s", "s", "lower"),
        ("trace.observe_s", "s", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.untraced_run_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def span_name(fn) -> str | None:
    """Span name of a widescan function: its module's short name and its own."""
    if not fn.__module__.startswith("widescan."):
        return None
    module = fn.__module__.rsplit(".", 1)[-1]
    if module == "recovery" and fn.__name__ in SCORING:
        return "recovery.scoring"
    return f"{module}.{fn.__name__}"


@dataclass
class Check:
    checked: int = 0
    violations: int = 0

    def add(self, ok: bool):
        self.checked += 1
        self.violations += not ok


@dataclass
class Solve:
    seconds: float
    iterations: int
    converged: bool
    nmse_l2: float | None = None


@dataclass
class SolveLog:
    """What the solver and scoring observers saw during one traced pass."""

    solves: dict[str, list[Solve]] = field(default_factory=dict)
    finite: Check = field(default_factory=Check)
    feasible: Check = field(default_factory=Check)
    l1_solves: int = 0
    repeat_psi: int = 0
    _psi_seen: set = field(default_factory=set)
    _unscored: dict = field(default_factory=dict)  # id(z_star) -> (z_star, Solve)

    def describe(self, fn):
        """Span name and observer for a function the tracer may wrap."""
        name = span_name(fn)
        if name is None:
            return None
        if name.startswith("recovery.solve_"):
            return name, self._on_l1
        if name.startswith("greedy.solve_"):
            return name, self._on_solve
        if fn.__name__ == "nmse_l2":
            return name, self._on_nmse_l2
        return name, None

    def _on_solve(self, name, args, kwargs, result, seconds):
        self.finite.add(bool(np.all(np.isfinite(result.z_star))))
        solve = Solve(seconds, result.iterations, result.converged)
        self.solves.setdefault(name, []).append(solve)
        self._unscored[id(result.z_star)] = (result.z_star, solve)

    def _on_l1(self, name, args, kwargs, result, seconds):
        self._on_solve(name, args, kwargs, result, seconds)
        first = args[0] if args else kwargs.get("problem", kwargs.get("psi"))
        problem = first if isinstance(first, RecoveryProblem) else None
        psi = (problem.psi if problem else first).psi  # solve_bp takes Psi itself
        key = (psi.shape, hashlib.blake2b(psi.tobytes(), digest_size=16).digest())
        self.l1_solves += 1
        self.repeat_psi += key in self._psi_seen
        self._psi_seen.add(key)
        if result.converged and problem is not None:
            self.feasible.add(
                result.residual_norm <= problem.epsilon * (1.0 + FEASIBILITY_RTOL)
            )

    def _on_nmse_l2(self, name, args, kwargs, result, seconds):
        z = args[0] if args else kwargs["z_star"]
        entry = self._unscored.pop(id(z), None)
        if entry is not None and entry[0] is z:
            entry[1].nmse_l2 = result


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with enough beyond it.

    Fewer than 2 * TAIL_BEYOND samples have no such percentile: (0, 0).
    """
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct, float(np.percentile(values, pct))
    return 0.0, 0.0


def _solver_values(solver: str, solves: list[Solve], self_s: float) -> dict[str, float]:
    ms = [s.seconds * 1e3 for s in solves]
    errors = [s.nmse_l2 for s in solves if s.nmse_l2 is not None]
    iterations = sum(s.iterations for s in solves)
    pct, tail_ms = tail(ms)
    values = {
        "p50_ms": statistics.median(ms) if ms else 0.0,
        "tail_ms": tail_ms,
        "tail_pct": pct,
        "iterations": iterations / len(solves) if solves else 0.0,
        "ms_per_iter": self_s * 1e3 / iterations if iterations else 0.0,
        "converged_rate": sum(s.converged for s in solves) / len(solves) if solves else 0.0,
        "nmse_l2_median": statistics.median(errors) if errors else 0.0,
        "nmse_l2_tail": tail(errors)[1],
    }
    return {f"{solver}.{key}": value for key, value in values.items()}


def layer_values(spans: list[Span], log: SolveLog, traced_s: float,
                 untraced_s: float) -> dict[str, float]:
    """Every PER_LAYER metric of one traced pass that took traced_s seconds.

    Self times of all spans plus harness.unattributed_s add up to traced_s.
    """
    calls = Counter(span.name for span in spans)
    own = self_time_by_name(spans)
    values: dict[str, float] = {}
    for layer in CALL_LAYERS:
        values[f"{layer}.calls"] = calls[layer]
        values[f"{layer}.self_s"] = own.get(layer, 0.0)
    for solver in L1_SOLVERS + GREEDY_SOLVERS:
        values.update(_solver_values(solver, log.solves.get(solver, []), own.get(solver, 0.0)))
    named = set(CALL_LAYERS) | {EMIT, OBSERVE}
    values.update({
        "recovery.repeat_psi_share": log.repeat_psi / log.l1_solves if log.l1_solves else 0.0,
        "harness.emit_s": own.get(EMIT, 0.0),
        "harness.unattributed_s": traced_s - math.fsum(own.values()),
        "trace.other_s": math.fsum(t for name, t in own.items() if name not in named),
        "trace.observe_s": own.get(OBSERVE, 0.0),
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(spans),
    })
    return {name: values[name] for name, _, _ in PER_LAYER}
