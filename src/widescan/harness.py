"""Seeded Monte Carlo experiment runner with CSV emission.

Every kind plans independent units of work (a block of sweep cells, whose
lasso and wlasso problems are solved as one batch each, a drift window, a
pooled round, or the vote rounds, solved as one batch per SU) and
run_experiment runs them in one loop. Draws are seeded from (master seed,
sweep index, trial index), so records are reproducible row-by-row whatever
the execution order or batching. Output files: records.csv (one row per
trial per solver), summary.csv (aggregates with config hash and master seed
in the header), plus kind-specific artifacts such as the cooperative fusion
log.
"""

import csv
import hashlib
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import ExperimentConfig, config_hash
from .cooperative import (
    PENDING,
    FusionCenter,
    SecondaryUser,
    fuse_votes,
    pool_and_recover,
    pooled_sensing,
    pooled_values,
    su_sense,
)
from .measurement import SensingMatrix, build_reduction, coherence, compose_sensing, measure
from .prediction import (
    OccupancyHistory,
    fit_gd,
    predict_sparsity,
    required_measurements,
)
from .recovery import (
    RecoveryProblem,
    decide_occupancy,
    design_weights,
    error_gain,
    l1_batch,
    nmse,
    nmse_l2,
    solve_bp,
    solve_lasso,
    solve_wlasso,
    solve_wlasso_scaled,
)
from .greedy import solve_assamp, solve_cosamp, solve_omp
from .spectrum import (
    NoiseModel,
    add_time_noise,
    average_block_sparsity,
    make_block_partition,
    sample_instance,
)


@dataclass(frozen=True)
class TrialRecord:
    """One solver's outcome on one trial of one sweep point."""

    experiment: str
    sweep_value: str
    trial: int
    seed: int
    solver: str
    nmse_paper: float
    nmse_l2: float
    miss: int
    false_alarm: int
    wall_time: float
    iterations: int
    converged: bool
    extra: float = math.nan


RECORD_COLUMNS = tuple(f.name for f in fields(TrialRecord))


# ---------------------------------------------------------------------------
# Seeding and per-trial plumbing


def _trial_seeds(master: int, sweep_idx: int, trial_idx: int):
    """(record seed, instance seed, matrix seed, noise seed), order-free."""
    root = np.random.SeedSequence(entropy=(master, sweep_idx, trial_idx))
    record_seed = int(root.generate_state(1)[0])
    children = root.spawn(3)
    return (record_seed,) + tuple(int(c.generate_state(1)[0]) for c in children)


def _sample_occupied(part, amplitude, seed):
    """Draw instances from one stream until at least one band is occupied."""
    gen = np.random.default_rng(seed)
    for _ in range(1000):
        inst = sample_instance(part, amplitude, seed=gen)
        if inst.k > 0:
            return inst
    raise RuntimeError("could not draw an occupied instance; are all probs zero?")


def sigma_for_snr(x, n: int, snr_db: float) -> float:
    """Noise level hitting a target measured SNR in expectation.

    The measured noise energy through any of the unit-column-energy sensing
    matrices is sigma^2 * n in expectation, so sigma follows directly.
    """
    return float(np.linalg.norm(x)) / (math.sqrt(n) * 10.0 ** (snr_db / 20.0))


def _budget(sigma: float, dof: int, delta: float, y) -> float:
    """Residual budget sigma * sqrt(dof) * (1 + delta), floored at 1e-9 ||y||."""
    return max(sigma * math.sqrt(dof) * (1.0 + delta), 1e-9 * float(np.linalg.norm(y)))


def epsilon_for(sigma: float, m: int, delta: float, y) -> float:
    """Default l1 residual budget from the expected noise norm (configurable)."""
    return _budget(sigma, 2 * m, delta, y)


def greedy_tolerance(sigma: float, n: int, delta: float, y) -> float:
    """Residual stopping level for the pursuit solvers.

    The measured noise norm concentrates at sigma * sqrt(n), so this level is
    actually reachable; stopping there keeps the adaptive pursuits from
    growing their supports into the noise.
    """
    return _budget(sigma, n, delta, y)


def _default_k(kbar_total: float, m: int) -> int:
    return max(1, min(int(round(kbar_total)), m))


def _run_solver(name, cfg, psi, y, eps, part, weights, kbar_total=0.0, greedy_tol=0.0):
    """Solve one problem with the named solver: every solve but a batch's.

    Batches are a sweep block's lasso and wlasso problems and an SU's vote
    rounds. Solvers (and l1_batch, in _sweep_cells and _vote_rounds) are looked
    up by module-global name at each call, so a wrapper installed on this
    module's names sees them.
    """
    if name == "lasso":
        problem = RecoveryProblem(psi=psi, y=y, epsilon=eps)
        return solve_lasso(problem, max_iter=cfg.max_iter, tol=cfg.tol)
    if name in ("wlasso", "wlasso_scaled"):
        problem = RecoveryProblem(psi=psi, y=y, epsilon=eps, weights=weights)
        if name == "wlasso_scaled":
            return solve_wlasso_scaled(problem, part, max_iter=cfg.max_iter, tol=cfg.tol)
        return solve_wlasso(problem, part, max_iter=cfg.max_iter, tol=cfg.tol)
    if name == "bp":
        return solve_bp(psi, y, max_iter=cfg.max_iter, tol=cfg.tol)
    m = psi.m
    if name == "omp":
        k_max = cfg.omp_k_max or _default_k(kbar_total, m)
        return solve_omp(psi, y, k_max=min(k_max, m), residual_tol=greedy_tol)
    if name == "cosamp":
        k = cfg.cosamp_k or _default_k(kbar_total, m)
        return solve_cosamp(psi, y, k=min(k, m), residual_tol=greedy_tol)
    if name == "assamp":
        step = cfg.assamp_step or _default_k(kbar_total, m)
        return solve_assamp(psi, y, initial_step=step, residual_tol=greedy_tol)
    raise ValueError(f"unknown solver {name!r}")


def _record(cfg, sweep_value, trial, seed, solver, inst, result=None, decision=None,
            converged=True, extra=math.nan) -> TrialRecord:
    """The one place a TrialRecord is built.

    With a solver result the estimate is scored against the instance, and
    its occupancy is decided at the configured threshold unless `decision`
    is given. Without one, the record has no error, time or iterations and
    the `converged` given; a bare `decision` is scored for detections, and
    with no decision either, miss and false alarm are 0.
    """
    nmse_paper = nmse_2 = math.nan
    wall_time, iterations = 0.0, 0
    if result is not None:
        if decision is None:
            decision = decide_occupancy([result.z_star], cfg.energy_threshold)
        nmse_paper = nmse(result.z_star, inst.x)
        # The solver's own array: a tracer matches scores to solves by id.
        nmse_2 = nmse_l2(result.z_star, inst.x)
        wall_time, iterations, converged = result.wall_time, result.iterations, result.converged
    miss = false_alarm = 0
    if decision is not None:
        miss = int(np.count_nonzero(inst.occupancy & ~decision))
        false_alarm = int(np.count_nonzero(~inst.occupancy & decision))
    return TrialRecord(
        experiment=cfg.kind,
        sweep_value=str(sweep_value),
        trial=trial,
        seed=seed,
        solver=solver,
        nmse_paper=nmse_paper,
        nmse_l2=nmse_2,
        miss=miss,
        false_alarm=false_alarm,
        wall_time=wall_time,
        iterations=iterations,
        converged=converged,
        extra=extra,
    )


# ---------------------------------------------------------------------------
# Units of work
#
# Each kind plans independent units of work in record order: a block of
# (sweep point, trial) cells, a drift window, a pooled round or a range of
# vote rounds. A unit is a module-level function and its plain data arguments;
# it returns (records, fusion-log lines) and reads no other unit's output, so
# any run order gives the same records once they are put back in plan order.

# (sweep point, trial) cells per unit of a recovery sweep. A batched l1 row
# does not depend on its batch-mates, so the block size moves no output bit;
# larger blocks cost memory and ran no faster.
SWEEP_BLOCK = 20


def _sweep_cells(cfg: ExperimentConfig, part, weights, kbar_total, cells):
    """Every configured solver on the instances of some (sweep point, trial) cells.

    The cells' lasso problems are one l1_batch, and so are their wlasso
    problems; every other solver runs cell by cell. The timing table solves
    its lasso and wlasso problems one at a time instead: criterion 08
    compares their per-solve times.
    """
    batched = () if cfg.kind == "timing_table" else ("lasso", "wlasso")
    problems = {solver: [] for solver in batched if solver in cfg.solvers}
    rows = []
    for sweep_idx, trial in cells:
        sval = cfg.sweep[sweep_idx]
        m, snr_db, mat_kind = cfg.m, cfg.snr_db, cfg.matrix_kind  # timing_table's one point
        if cfg.kind == "error_gain_vs_m":
            m = int(sval)
        elif cfg.kind == "coherence_study":
            mat_kind = str(sval)
        elif cfg.kind == "nmse_vs_snr":
            snr_db = float(sval)
        rec_seed, inst_seed, mat_seed, noise_seed = _trial_seeds(cfg.master_seed, sweep_idx, trial)
        inst = _sample_occupied(part, cfg.amplitude, inst_seed)
        phi = build_reduction(mat_kind, m, cfg.n, seed=mat_seed)
        psi = compose_sensing(phi)
        head = []
        if cfg.kind == "coherence_study":
            head.append(_record(cfg, sval, trial, rec_seed, "coherence", inst,
                                extra=coherence(psi)))
        sigma = sigma_for_snr(inst.x, cfg.n, snr_db)
        noisy = add_time_noise(inst.r, NoiseModel(sigma), seed=noise_seed)
        y = measure(phi, noisy)
        eps = epsilon_for(sigma, m, cfg.eps_delta, y)
        gtol = greedy_tolerance(sigma, cfg.n, cfg.eps_delta, y)
        results = {}
        psi_alone = SensingMatrix(psi=psi.psi)  # a batched problem keeps no Phi alive
        for solver in cfg.solvers:
            if solver in problems:
                problems[solver].append(RecoveryProblem(
                    psi=psi_alone, y=y, epsilon=eps,
                    weights=weights if solver == "wlasso" else None,
                ))
            else:
                results[solver] = _run_solver(solver, cfg, psi, y, eps, part, weights,
                                              kbar_total, gtol)
        rows.append((sval, trial, rec_seed, inst, head, results))
    for solver, group in problems.items():
        solved = l1_batch(group, part if solver == "wlasso" else None,
                          max_iter=cfg.max_iter, tol=cfg.tol)
        for (*_, results), result in zip(rows, solved):
            results[solver] = result
    records = []
    for sval, trial, rec_seed, inst, head, results in rows:
        records += head
        records += [_record(cfg, sval, trial, rec_seed, solver, inst, results[solver])
                    for solver in cfg.solvers]
    return records, []


def _plan_sweep(cfg: ExperimentConfig):
    """Units of up to SWEEP_BLOCK consecutive (sweep point, trial) cells; the
    timing table's units hold one cell each."""
    part = make_block_partition(cfg.n, cfg.block_sizes, cfg.block_probs)
    kbar = average_block_sparsity(part)
    weights = design_weights(kbar)
    kbar_total = float(kbar.sum())
    cells = [(s, t) for s in range(len(cfg.sweep)) for t in range(cfg.trials)]
    size = 1 if cfg.kind == "timing_table" else SWEEP_BLOCK
    for start in range(0, len(cells), size):
        yield _sweep_cells, (cfg, part, weights, kbar_total, tuple(cells[start:start + size]))


def _drift_window(cfg: ExperimentConfig, part, inst, window, seeds, arms):
    """One drift window: one noise draw, then one solve per (arm, m, weights)."""
    rec_seed, _, mat_seed, noise_seed = seeds
    sigma = sigma_for_snr(inst.x, cfg.n, cfg.snr_db)
    noisy = add_time_noise(inst.r, NoiseModel(sigma), seed=noise_seed)
    records = []
    for arm, m_arm, w_arm in arms:
        phi = build_reduction(cfg.matrix_kind, m_arm, cfg.n, seed=mat_seed)
        psi = compose_sensing(phi)
        y = measure(phi, noisy)
        eps = epsilon_for(sigma, m_arm, cfg.eps_delta, y)
        result = _run_solver("wlasso", cfg, psi, y, eps, part, w_arm)
        records.append(_record(cfg, "drift", window, rec_seed, arm, inst, result,
                               extra=float(m_arm)))
    return records, []


def _plan_drift(cfg: ExperimentConfig):
    """Drifting occupancy: forecast-driven budget vs a stale fixed budget.

    A window's forecast reads only the true block counts of earlier windows'
    instances, and an instance depends only on (master seed, window), so no
    solve feeds the forecast. This is a generator: only the window being run
    is alive.
    """
    probs_start = np.asarray(cfg.block_probs, dtype=float)
    probs_end = np.asarray(cfg.drift_probs_end or np.minimum(probs_start * 3.0, 0.9), dtype=float)
    T = cfg.trials  # more than lag + 1 windows, as the config checks
    kbar0 = probs_start * np.asarray(cfg.block_sizes, dtype=float)
    k0 = float(np.clip(kbar0.sum(), 1.0, cfg.n - 1))
    stale = ("stale_m", required_measurements(k0, cfg.n, cfg.m_rule_c), design_weights(kbar0))

    history_rows: list[np.ndarray] = []
    for t in range(T):
        frac = t / (T - 1)
        probs_t = (1 - frac) * probs_start + frac * probs_end
        part_t = make_block_partition(cfg.n, cfg.block_sizes, tuple(probs_t))
        seeds = _trial_seeds(cfg.master_seed, 0, t)
        inst = _sample_occupied(part_t, cfg.amplitude, seeds[1])
        if len(history_rows) > cfg.lag:
            history = OccupancyHistory(counts=np.stack(history_rows), block_sizes=cfg.block_sizes)
            predictor = fit_gd(history, lag=cfg.lag)
            recent = np.stack(history_rows[-cfg.lag:]).T
            k_hat = predict_sparsity(predictor, recent)
            m_pred = required_measurements(
                float(np.clip(k_hat.sum(), 1.0, cfg.n - 1)), cfg.n, cfg.m_rule_c
            )
            predicted = ("predicted_m", m_pred, design_weights(k_hat))
        else:
            predicted = ("predicted_m",) + stale[1:]
        history_rows.append(np.array(
            [np.count_nonzero(inst.occupancy[s]) for s in part_t.block_slices()],
            dtype=float,
        ))
        yield _drift_window, (cfg, part_t, inst, t, seeds, (predicted, stale))


def _decision_hash(decision: np.ndarray) -> str:
    return hashlib.sha256(decision.astype(np.uint8).tobytes()).hexdigest()[:12]


def _sense_round(cfg: ExperimentConfig, part, sus, t):
    """(record seed, instance, sigma, every SU's contribution) of round t."""
    rec_seed, inst_seed, _, noise_base = _trial_seeds(cfg.master_seed, 0, t)
    inst = _sample_occupied(part, cfg.amplitude, inst_seed)
    sigma = sigma_for_snr(inst.x, cfg.n, cfg.snr_db)
    noise = NoiseModel(sigma)
    contributions = [su_sense(su, inst, noise, noise_seed=(noise_base + j) % (2**63))
                     for j, su in enumerate(sus)]
    return rec_seed, inst, sigma, contributions


def _pool_round(cfg: ExperimentConfig, part, weights, sus, t):
    """One round of pooled measurements, recovered once at the fusion center."""
    rec_seed, inst, sigma, contributions = _sense_round(cfg, part, sus, t)
    fc = FusionCenter(target_m=cfg.m, quorum=cfg.quorum)
    total_rows = sum(c.pn_rows.shape[0] for c in contributions)
    eps = epsilon_for(sigma, max(total_rows, cfg.m), cfg.eps_delta, pooled_values(contributions))
    outcome = pool_and_recover(fc, contributions, part, weights, eps,
                               max_iter=cfg.max_iter, tol=cfg.tol)
    if outcome == PENDING:
        fused = np.zeros(cfg.n, dtype=bool)
        record = _record(cfg, "round", t, rec_seed, "fused", inst, decision=fused,
                         converged=False)
    else:
        fused = decide_occupancy([outcome.z_star], cfg.energy_threshold)
        record = _record(cfg, "round", t, rec_seed, "fused", inst, outcome, decision=fused)
    log = [f"{t},{c.su_id},{c.pn_rows.shape[0]},{_decision_hash(fused)}" for c in contributions]
    return [record], log


def _vote_rounds(cfg: ExperimentConfig, part, weights, sus, rounds):
    """Rounds of per-SU recoveries, each fused by quorum vote. An SU's Psi is
    fixed with its bank, so its problems of all the rounds are one l1_batch,
    whose rows are independent: any split of the rounds gives the same records."""
    sensed = [_sense_round(cfg, part, sus, t) for t in rounds]
    solved = []  # per SU, one result per round
    for j in range(len(sus)):
        psi, _ = pooled_sensing([sensed[0][3][j]])  # SU j's Psi, the same every round
        problems = []
        for _, _, sigma, contributions in sensed:
            y = pooled_values([contributions[j]])
            eps = epsilon_for(sigma, psi.m, cfg.eps_delta, y)
            problems.append(RecoveryProblem(psi=psi, y=y, epsilon=eps, weights=weights))
        solved.append(l1_batch(problems, part, max_iter=cfg.max_iter, tol=cfg.tol))
    records, log = [], []
    for i, (t, (rec_seed, inst, _, contributions)) in enumerate(zip(rounds, sensed)):
        locals_occ = []
        for c, results in zip(contributions, solved):
            occ = decide_occupancy([results[i].z_star], cfg.energy_threshold)
            locals_occ.append(occ)
            records.append(_record(cfg, "round", t, rec_seed, f"su{c.su_id}", inst, results[i],
                                   decision=occ))
            log.append(f"{t},{c.su_id},{c.pn_rows.shape[0]},{_decision_hash(occ)}")
        fused = fuse_votes(locals_occ, cfg.quorum)
        records.append(_record(cfg, "round", t, rec_seed, "fused", inst, decision=fused))
    return records, log


def _plan_rounds(cfg: ExperimentConfig):
    part = make_block_partition(cfg.n, cfg.block_sizes, cfg.block_probs)
    weights = design_weights(average_block_sparsity(part))
    sus = []
    for j in range(cfg.su_count):
        gains = np.ones(cfg.n)
        if j == cfg.shadow_su:
            gains[cfg.shadow_band] = 10.0 ** (-cfg.shadow_db / 10.0)
        seed = int(np.random.SeedSequence(entropy=(cfg.master_seed, 777, j)).generate_state(1)[0])
        sus.append(SecondaryUser(su_id=j, branches=cfg.su_branches, scans=cfg.su_scans,
                                 channel_gains=gains, seed=seed))
    if cfg.fusion_mode == "vote":
        yield _vote_rounds, (cfg, part, weights, sus, range(cfg.trials))
        return
    for t in range(cfg.trials):
        yield _pool_round, (cfg, part, weights, sus, t)


def plan_units(cfg: ExperimentConfig):
    """The configured kind's units of work, as (function, args) in record order."""
    planners = {"miss_detect_cdf": _plan_drift, "cooperative_round": _plan_rounds}
    return planners.get(cfg.kind, _plan_sweep)(cfg)


def run_experiment(cfg: ExperimentConfig):
    """Run the configured experiment; returns (records, summary, artifacts).

    The one loop that runs units of work, joining their records and
    fusion-log lines in plan order.
    """
    records, log = [], []
    for unit, args in plan_units(cfg):
        unit_records, unit_log = unit(*args)
        records += unit_records
        log += unit_log
    artifacts: dict[str, list[str]] = {}
    if cfg.kind == "cooperative_round":
        artifacts["fusion_log.csv"] = ["round,su_id,rows_contributed,decision_hash"] + log
    elif cfg.kind == "error_gain_vs_m" and "wlasso" in cfg.solvers:
        artifacts["error_gain.csv"] = _gain_lines(records)
    return records, summarize(records), artifacts


def timing_table(cfg: ExperimentConfig):
    """Matched-instance timing benchmark: per-solver means plus order checks.

    Runs cfg as a timing_table experiment at its own (m, SNR, matrix kind).
    Returns (records, table rows, checks).
    """
    records, summary, _ = run_experiment(replace(cfg, kind="timing_table", sweep=()))
    return (records,) + timing_report(summary)


def timing_report(summary):
    """(table rows, checks) of a timing_table run's summary rows.

    The checks report whether the greedy solvers order as expected by cost
    and whether the weighted and plain l1 runs take comparable time.
    """
    table = [
        {"solver": row["solver"], "trials": row["trials"], "mean_time": row["mean_wall_time"],
         "mean_iterations": row["mean_iterations"]}
        for row in summary
    ]
    mean_time = {row["solver"]: row["mean_time"] for row in table}
    checks = {}
    if "omp" in mean_time and "cosamp" in mean_time:
        checks["omp_faster_than_cosamp"] = mean_time["omp"] < mean_time["cosamp"]
    if "cosamp" in mean_time and "lasso" in mean_time:
        checks["cosamp_faster_than_lasso"] = mean_time["cosamp"] < mean_time["lasso"]
    if "wlasso" in mean_time and "lasso" in mean_time:
        ratio = mean_time["wlasso"] / mean_time["lasso"]
        checks["wlasso_lasso_time_ratio"] = ratio
        checks["time_parity"] = 1.0 / 1.5 <= ratio <= 1.5
    return table, checks


def _gain_lines(records) -> list[str]:
    """Per-sweep mean error gain of the weighted solver over each other one."""
    by_key: dict[tuple[str, str], dict[int, float]] = {}
    for rec in records:
        by_key.setdefault((rec.sweep_value, rec.solver), {})[rec.trial] = rec.nmse_l2
    lines = ["sweep_value,solver,mean_gain,se_gain,trials"]
    sweeps = sorted({k[0] for k in by_key}, key=float)
    solvers = sorted({k[1] for k in by_key})
    for sval in sweeps:
        wl = by_key.get((sval, "wlasso"), {})
        for solver in solvers:
            if solver == "wlasso":
                continue
            other = by_key.get((sval, solver), {})
            gains = [
                error_gain(other[t], wl[t]) for t in other if t in wl and other[t] > 0
            ]
            if not gains:
                continue
            mean, se = _mean_se(gains)
            lines.append(f"{sval},{solver},{mean!r},{se!r},{len(gains)}")
    return lines


# ---------------------------------------------------------------------------
# CSV emission


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(records, path):
    """Write records with the fixed column header; floats round-trip exactly."""
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for rec in records:
            writer.writerow([_format_cell(getattr(rec, col)) for col in RECORD_COLUMNS])


def parse_records(path) -> list:
    """Read back a records.csv written by emit_csv."""
    types = {f.name: f.type for f in fields(TrialRecord)}
    with open(path, newline="") as fh:
        return [
            TrialRecord(**{
                col: cell == "1" if types[col] is bool else types[col](cell)
                for col, cell in row.items()
            })
            for row in csv.DictReader(fh)
        ]


def _mean_se(values):
    vals = [v for v in values if not math.isnan(v)]
    if not vals:
        return math.nan, math.nan
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean, se


def summarize(records) -> list[dict]:
    """Per (sweep value, solver) aggregate rows; their keys are summary.csv's columns."""
    groups: dict[tuple[str, str], list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.sweep_value, rec.solver), []).append(rec)
    rows = []
    for key, rows_for in groups.items():
        mean_p, se_p = _mean_se([r.nmse_paper for r in rows_for])
        mean_l2, se_l2 = _mean_se([r.nmse_l2 for r in rows_for])
        rows.append(
            {
                "sweep_value": key[0],
                "solver": key[1],
                "trials": len(rows_for),
                "mean_nmse_paper": mean_p,
                "se_nmse_paper": se_p,
                "mean_nmse_l2": mean_l2,
                "se_nmse_l2": se_l2,
                "mean_miss": float(np.mean([r.miss for r in rows_for])),
                "median_miss": float(np.median([r.miss for r in rows_for])),
                "mean_false_alarm": float(np.mean([r.false_alarm for r in rows_for])),
                "mean_wall_time": float(np.mean([r.wall_time for r in rows_for])),
                "mean_iterations": float(np.mean([r.iterations for r in rows_for])),
                "converged_rate": float(np.mean([r.converged for r in rows_for])),
            }
        )
    return rows


def emit_summary(records, path, cfg: ExperimentConfig):
    """Write aggregate rows with provenance (config hash, master seed)."""
    rows = summarize(records)
    if not rows:
        raise ValueError("no records to summarize")
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n")
        fh.write(f"# master_seed={cfg.master_seed}\n")
        writer = csv.writer(fh)
        writer.writerow(rows[0])  # the column names, in summarize's order
        for row in rows:
            writer.writerow([_format_cell(value) for value in row.values()])
