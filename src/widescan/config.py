"""Experiment configuration: INI-style files, CLI overrides, provenance hash.

A config file has sections [experiment], [spectrum], [measurement], [noise],
[sweep], [solvers], [cooperative], [prediction]; every key has a default, so
minimal files stay short. Unknown keys are rejected to catch typos early.
"""

import configparser
import hashlib
import math
from dataclasses import asdict, dataclass, field, fields

KNOWN_SOLVERS = ("lasso", "wlasso", "wlasso_scaled", "bp", "omp", "cosamp", "assamp")

_DEFAULT_SWEEPS = {
    "nmse_vs_snr": ("0", "5", "10", "15", "20"),
    "error_gain_vs_m": ("15", "20", "25", "30", "35", "40", "45"),
    "coherence_study": ("gaussian", "bernoulli", "circulant"),
    "timing_table": ("timing",),
    "miss_detect_cdf": ("drift",),
    "cooperative_round": ("round",),
}
EXPERIMENT_KINDS = tuple(_DEFAULT_SWEEPS)
# Kinds whose sweep is a fixed label: a given [sweep] values must be it.
_FIXED_SWEEP_KINDS = ("timing_table", "miss_detect_cdf", "cooperative_round")


class ConfigError(ValueError):
    """Raised for unreadable, unknown, or inconsistent configuration input."""


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment, seeded end to end."""

    kind: str = "nmse_vs_snr"
    trials: int = 200
    master_seed: int = 20260808
    out_dir: str = "results"
    # spectrum
    n: int = 100
    block_sizes: tuple = (25, 25, 25, 25)
    block_probs: tuple = (0.6, 0.04, 0.02, 0.02)
    amplitude: str = "rayleigh"
    # measurement
    matrix_kind: str = "gaussian"
    m: int = 27
    # noise
    snr_db: float = 7.0
    # sweep
    sweep: tuple = ()
    # solvers
    solvers: tuple = ("lasso", "wlasso", "omp", "cosamp", "assamp")
    eps_delta: float = 0.1
    max_iter: int = 5000
    tol: float = 1e-6
    omp_k_max: int = 0  # 0 = derive from expected total sparsity
    cosamp_k: int = 0
    assamp_step: int = 0
    energy_threshold: float = 0.25
    # cooperative
    su_count: int = 5
    su_branches: int = 4
    su_scans: int = 2
    shadow_su: int = 0
    shadow_band: int = 0
    shadow_db: float = 20.0
    fusion_mode: str = "vote"
    quorum: float = 0.5
    # prediction
    lag: int = 5
    m_rule_c: float = 2.0
    drift_probs_end: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.kind == "miss_detect_cdf" and self.trials <= self.lag + 1:
            raise ConfigError(f"need more windows than lag+1={self.lag + 1}, got {self.trials}")
        if not self.sweep:
            self.sweep = _DEFAULT_SWEEPS[self.kind]
        if self.kind in _FIXED_SWEEP_KINDS and self.sweep != _DEFAULT_SWEEPS[self.kind]:
            raise ConfigError(f"{self.kind} takes no sweep values, got {self.sweep}")
        unknown = [s for s in self.solvers if s not in KNOWN_SOLVERS]
        if unknown:
            raise ConfigError(f"unknown solvers {unknown}; expected among {KNOWN_SOLVERS}")
        if not self.solvers:
            raise ConfigError("solver list must be non-empty")
        if len(self.block_sizes) != len(self.block_probs):
            raise ConfigError("block_sizes and block_probs must have equal length")
        if sum(self.block_sizes) != self.n:
            raise ConfigError(
                f"block_sizes sum to {sum(self.block_sizes)}, expected n={self.n}"
            )
        if self.fusion_mode not in ("vote", "pool"):
            raise ConfigError(f"fusion_mode must be 'vote' or 'pool', got {self.fusion_mode!r}")
        if self.drift_probs_end and len(self.drift_probs_end) != len(self.block_sizes):
            raise ConfigError("drift_probs_end must match the number of blocks")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")
        snrs = (self.snr_db,) + (self.sweep if self.kind == "nmse_vs_snr" else ())
        if not all(_is_snr(s) for s in snrs):
            raise ConfigError(f"SNRs must be numbers in dB or +inf, got {snrs}")
        if not math.isfinite(self.shadow_db):
            raise ConfigError(f"shadow_db must be finite, got {self.shadow_db}")
        if not self.eps_delta > -1:  # NaN fails too
            raise ConfigError(f"eps_delta must be a number above -1, got {self.eps_delta}")
        if not self.energy_threshold > 0:
            raise ConfigError(f"energy_threshold must be positive, got {self.energy_threshold}")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _is_snr(value) -> bool:
    try:
        return float(value) > -math.inf  # NaN and -inf fail; +inf is noise-free
    except ValueError:
        return False


_SECTION_FIELDS = {
    "experiment": ("kind", "trials", "master_seed", "out_dir"),
    "spectrum": ("n", "block_sizes", "block_probs", "amplitude"),
    "measurement": ("matrix_kind", "m"),
    "noise": ("snr_db",),
    "sweep": ("values",),
    "solvers": (
        "names",
        "eps_delta",
        "max_iter",
        "tol",
        "omp_k_max",
        "cosamp_k",
        "assamp_step",
        "energy_threshold",
    ),
    "cooperative": (
        "su_count",
        "su_branches",
        "su_scans",
        "shadow_su",
        "shadow_band",
        "shadow_db",
        "fusion_mode",
        "quorum",
    ),
    "prediction": ("lag", "m_rule_c", "drift_probs_end"),
}

_KEY_ALIASES = {"values": "sweep", "names": "solvers"}


# Element type of each tuple field; scalar fields coerce to their annotation.
_TUPLE_ITEMS = {
    "sweep": str, "solvers": str, "block_sizes": int, "block_probs": float,
    "drift_probs_end": float,
}


def _coerce(name: str, raw: str):
    raw = raw.strip()
    if name in _TUPLE_ITEMS:
        return tuple(_TUPLE_ITEMS[name](tok.strip()) for tok in raw.split(",") if tok.strip())
    return _FIELD_TYPES[name](raw)


def parse_config(path) -> ExperimentConfig:
    """Read a config file, filling unspecified keys from the defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values = {}
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTION_FIELDS[section]
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name = _KEY_ALIASES.get(key, key)
            try:
                values[name] = _coerce(name, raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def apply_overrides(cfg: ExperimentConfig, seed=None, out=None, solvers=None, trials=None):
    """Apply CLI flag overrides on top of a parsed config, then revalidate it."""
    if seed is not None:
        cfg.master_seed = int(seed)
    if out is not None:
        cfg.out_dir = str(out)
    if solvers is not None:
        cfg.solvers = _coerce("solvers", str(solvers))
    if trials is not None:
        cfg.trials = int(trials)
    cfg.__post_init__()  # the one validation path, as for a parsed config
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable short hash over every effective config field."""
    canon = "\n".join(f"{k}={v!r}" for k, v in sorted(asdict(cfg).items()))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_config_echo(cfg: ExperimentConfig, path):
    """Write the effective configuration back out as an INI file."""
    parser = configparser.ConfigParser()
    for section, keys in _SECTION_FIELDS.items():
        parser[section] = {}
        for key in keys:
            name = _KEY_ALIASES.get(key, key)
            val = getattr(cfg, name)
            if isinstance(val, tuple):
                val = ", ".join(str(v) for v in val)
            parser[section][key] = str(val)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n")
        parser.write(fh)
