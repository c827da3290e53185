"""Multi-user sensing with a fusion center: measurement pooling and voting.

Each secondary user sees its own faded copy of the spectrum (per-band power
gains model distance and shadowing), mixes it through a private PN bank of
branches * scans rows, and reports raw rows plus accumulations. The bank is
hardware, fixed per device: it is drawn once from the SU's seed, and every
round reuses it. The fusion center either pools rows until the measurement
budget is met and recovers once, or fuses per-user occupancy decisions by
quorum voting.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fourier import freq_to_time, inverse_dft_matrix
from .measurement import ReductionMatrix, SensingMatrix, make_afe_bank
from .recovery import RecoveryProblem, solve_wlasso
from .spectrum import NoiseModel, SpectrumInstance, add_time_noise

PENDING = "pending"


@dataclass(frozen=True)
class SecondaryUser:
    """A sensing device with limited branches and its own channel to the PUs."""

    su_id: int
    branches: int
    scans: int
    channel_gains: np.ndarray  # per-band linear power gains, length n
    seed: int

    def __post_init__(self):
        if self.branches < 1:
            raise ValueError(f"branches must be >= 1, got {self.branches}")
        if self.scans < 1:
            raise ValueError(f"scans must be >= 1, got {self.scans}")
        gains = np.array(self.channel_gains, dtype=float)
        if not np.all(np.isfinite(gains) & (gains >= 0)):
            raise ValueError("channel gains must be finite and non-negative")
        gains.flags.writeable = False
        object.__setattr__(self, "channel_gains", gains)

    @property
    def rows_per_round(self) -> int:
        return self.branches * self.scans

    @cached_property
    def bank(self):
        """The SU's PN bank (rows_per_round x n), drawn once from its seed."""
        return make_afe_bank(self.rows_per_round, self.channel_gains.shape[0], seed=self.seed)


@dataclass(frozen=True)
class Contribution:
    """One SU's report for a round: raw PN rows and their accumulations."""

    su_id: int
    seed: int
    pn_rows: np.ndarray  # (rows, n) of +/-1, unscaled
    values: np.ndarray  # (rows,) accumulations sum_l pn[l] * r[l]

    def __post_init__(self):
        if self.pn_rows.shape[0] != self.values.shape[0]:
            raise ValueError("row count and value count disagree")


@dataclass
class FusionCenter:
    """Pools SU measurement rows and recovers once the budget is reached."""

    target_m: int
    quorum: float = 0.5
    _rows: list[Contribution] = field(default_factory=list)
    _seeds: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.target_m < 1:
            raise ValueError(f"target_m must be >= 1, got {self.target_m}")
        if not 0 < self.quorum <= 1:
            raise ValueError(f"quorum must lie in (0, 1], got {self.quorum}")

    @property
    def pooled_rows(self) -> int:
        return sum(c.pn_rows.shape[0] for c in self._rows)

    def ingest(self, contribution: Contribution):
        seen = self._seeds.get(contribution.su_id)
        if seen is None:
            for other_id, other_seed in self._seeds.items():
                if other_seed == contribution.seed:
                    raise ValueError(
                        f"SU {contribution.su_id} reuses SU {other_id}'s seed"
                    )
            self._seeds[contribution.su_id] = contribution.seed
        if self._rows and contribution.pn_rows.shape[1] != self._rows[0].pn_rows.shape[1]:
            raise ValueError("contribution row length does not match pooled rows")
        self._rows.append(contribution)


def su_sense(
    su: SecondaryUser,
    instance: SpectrumInstance,
    noise: NoiseModel,
    noise_seed=None,
) -> Contribution:
    """One sensing round at one SU: fade, mix, accumulate.

    The SU receives the global band vector scaled by the square root of its
    per-band power gains, resamples it in time, adds its own noise draw, and
    pushes it through its fixed PN bank (branches * scans rows). Values are
    raw accumulations; normalization happens when rows are pooled.
    """
    n = instance.x.shape[0]
    if su.channel_gains.shape != (n,):
        raise ValueError(
            f"gains have shape {su.channel_gains.shape}, expected ({n},)"
        )
    x_seen = np.sqrt(su.channel_gains) * instance.x
    r_seen = add_time_noise(freq_to_time(x_seen), noise, seed=noise_seed)
    bank = su.bank
    return Contribution(
        su_id=su.su_id,
        seed=su.seed,
        pn_rows=bank.pn_sequences,
        values=bank.pn_sequences @ r_seen,
    )


def pooled_sensing(contributions) -> tuple[SensingMatrix, np.ndarray]:
    """Stack SU reports into one sensing matrix Psi and its measurements y.

    The raw PN rows and accumulations are both scaled by 1/sqrt(rows), which
    gives the composite reduction matrix unit expected column energy. Rows
    from different SUs may coincide, so no distinctness check is made.
    """
    raw = np.vstack([c.pn_rows for c in contributions])
    values = np.concatenate([c.values for c in contributions])
    scale = 1.0 / math.sqrt(raw.shape[0])
    phi = ReductionMatrix(
        kind="bernoulli", m=raw.shape[0], n=raw.shape[1], entries=raw * scale, seed=None
    )
    psi = SensingMatrix(psi=phi.entries @ inverse_dft_matrix(phi.n), provenance=phi)
    return psi, values * scale


def pool_and_recover(fc: FusionCenter, contributions, part, weights, epsilon, **solver_opts):
    """Ingest contributions; recover once pooled rows reach the budget.

    Returns PENDING while the pool is short of target_m rows. Otherwise all
    pooled rows (including any beyond the budget) go through pooled_sensing
    and the block-weighted solver, which gets solver_opts (max_iter, tol).
    """
    for contribution in contributions:
        fc.ingest(contribution)
    if fc.pooled_rows < fc.target_m:
        return PENDING
    psi, y = pooled_sensing(fc._rows)
    problem = RecoveryProblem(psi=psi, y=y, epsilon=epsilon, weights=weights)
    return solve_wlasso(problem, part, **solver_opts)


def fuse_votes(local_occupancies, quorum: float) -> np.ndarray:
    """Quorum vote across SU decisions: occupied iff the vote share >= quorum.

    quorum -> 0 approaches OR fusion; quorum = 1 is AND fusion.
    """
    votes = [np.asarray(v, dtype=bool) for v in local_occupancies]
    if len(votes) == 0:
        raise ValueError("need at least one voter")
    lengths = {v.shape for v in votes}
    if len(lengths) != 1:
        raise ValueError(f"vote vectors disagree in shape: {lengths}")
    if not 0 < quorum <= 1:
        raise ValueError(f"quorum must lie in (0, 1], got {quorum}")
    share = np.mean(np.stack(votes), axis=0)
    return share >= quorum
