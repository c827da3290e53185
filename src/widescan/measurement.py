"""Sub-Nyquist measurement: reduction matrices and the PN-mixing front end.

A reduction matrix Phi maps n Nyquist samples to m < n measurements; the
sensing matrix Psi = Phi @ Finv acts directly on the sparse band vector.
The multi-branch analog front end is simulated as per-branch PN mixing
followed by integrate-and-dump, which reproduces the matrix path exactly.
"""

from dataclasses import dataclass

import numpy as np

from .fourier import inverse_dft_matrix

MATRIX_KINDS = ("gaussian", "bernoulli", "circulant")


@dataclass(frozen=True)
class ReductionMatrix:
    """m-by-n real reduction matrix with its construction metadata."""

    kind: str
    m: int
    n: int
    entries: np.ndarray
    seed: int | None

    def __post_init__(self):
        if self.entries.shape != (self.m, self.n):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match ({self.m}, {self.n})"
            )
        self.entries.flags.writeable = False


@dataclass(frozen=True)
class SensingMatrix:
    """Psi = Phi @ Finv, acting on the frequency-domain band vector."""

    psi: np.ndarray
    provenance: ReductionMatrix | None = None

    def __post_init__(self):
        self.psi.flags.writeable = False

    @property
    def m(self) -> int:
        return self.psi.shape[0]

    @property
    def n(self) -> int:
        return self.psi.shape[1]


@dataclass(frozen=True)
class AfeBank:
    """m parallel mixing branches, one distinct +/-1 PN sequence per branch."""

    pn_sequences: np.ndarray

    def __post_init__(self):
        pn = self.pn_sequences
        if pn.ndim != 2:
            raise ValueError(f"pn_sequences must be 2-D, got shape {pn.shape}")
        if not np.all(np.abs(pn) == 1.0):
            raise ValueError("PN sequences must take values in {+1, -1}")
        if len(np.unique(pn, axis=0)) != pn.shape[0]:
            raise ValueError("PN sequences must be pairwise distinct")
        pn.flags.writeable = False

    @property
    def m(self) -> int:
        return self.pn_sequences.shape[0]

    @property
    def n(self) -> int:
        return self.pn_sequences.shape[1]


def _check_dims(m: int, n: int):
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m > n:
        raise ValueError(f"m={m} exceeds n={n}; sub-Nyquist requires m <= n")


def build_reduction(kind: str, m: int, n: int, seed=None, stride=None) -> ReductionMatrix:
    """Construct an m-by-n reduction matrix of the given kind.

    gaussian: i.i.d. N(0, 1/m) entries.
    bernoulli: +/-1/sqrt(m) equiprobable entries.
    circulant: one +/-1/sqrt(m) PN base row, cyclically shifted by a fixed
        stride (default floor(n/m)) so the m shifts are distinct.

    All kinds have unit expected column energy. Deterministic in the seed.
    """
    _check_dims(m, n)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(m)
    if kind == "gaussian":
        entries = rng.normal(0.0, scale, size=(m, n))
    elif kind == "bernoulli":
        entries = scale * rng.choice([-1.0, 1.0], size=(m, n))
    elif kind == "circulant":
        if stride is None:
            stride = max(1, n // m)
        stride = int(stride)
        if not 1 <= stride or (m - 1) * stride >= n:
            raise ValueError(
                f"stride {stride} does not give {m} distinct shifts for n={n}"
            )
        # A base row whose DFT has a zero bin leaves that band unobservable
        # (the sensing column vanishes), so redraw until the spectrum is clean.
        base = rng.choice([-1.0, 1.0], size=n)
        while np.min(np.abs(np.fft.fft(base))) < 1e-9:
            base = rng.choice([-1.0, 1.0], size=n)
        base = scale * base
        entries = np.stack([np.roll(base, j * stride) for j in range(m)])
    else:
        raise ValueError(f"unknown matrix kind {kind!r}; expected one of {MATRIX_KINDS}")
    return ReductionMatrix(kind=kind, m=m, n=n, entries=entries, seed=seed)


def compose_sensing(phi: ReductionMatrix) -> SensingMatrix:
    """Fold the unitary inverse DFT into the reduction matrix."""
    psi = phi.entries @ inverse_dft_matrix(phi.n)
    return SensingMatrix(psi=psi, provenance=phi)


def measure(phi: ReductionMatrix, r: np.ndarray) -> np.ndarray:
    """Take m linear measurements y = Phi @ r of the time-domain samples."""
    r = np.asarray(r)
    if r.shape != (phi.n,):
        raise ValueError(f"signal has shape {r.shape}, expected ({phi.n},)")
    return phi.entries @ r


def make_afe_bank(m: int, n: int, seed=None) -> AfeBank:
    """Draw m distinct random +/-1 PN sequences of length n."""
    _check_dims(m, n)
    rng = np.random.default_rng(seed)
    rows = rng.choice([-1.0, 1.0], size=(m, n))
    # Redraw duplicated rows; collisions are astronomically rare for n >= ~30.
    while len(np.unique(rows, axis=0)) != m:
        _, first = np.unique(rows, axis=0, return_index=True)
        dup = np.setdiff1d(np.arange(m), first)
        rows[dup] = rng.choice([-1.0, 1.0], size=(len(dup), n))
    return AfeBank(pn_sequences=rows)


def afe_measure(bank: AfeBank, r: np.ndarray) -> np.ndarray:
    """Simulate the multi-branch front end on one sensing window.

    Branch i mixes r with its PN sequence and integrate-and-dumps the whole
    window to a single sample: (1/sqrt(m)) * sum_l pn_i[l] * r[l].
    """
    r = np.asarray(r)
    if r.shape != (bank.n,):
        raise ValueError(f"signal has shape {r.shape}, expected ({bank.n},)")
    return (bank.pn_sequences @ r) / np.sqrt(bank.m)


def bank_to_reduction(bank: AfeBank) -> ReductionMatrix:
    """View the PN bank as the Bernoulli reduction matrix it implements."""
    return ReductionMatrix(
        kind="bernoulli",
        m=bank.m,
        n=bank.n,
        entries=bank.pn_sequences / np.sqrt(bank.m),
        seed=None,
    )


def coherence(psi) -> float:
    """Mutual coherence: max normalized inner product between distinct columns."""
    mat = psi.psi if isinstance(psi, SensingMatrix) else np.asarray(psi)
    if mat.shape[1] < 2:
        raise ValueError("coherence needs at least two columns")
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0):
        raise ValueError("zero column encountered")
    normalized = mat / norms
    gram = np.abs(normalized.conj().T @ normalized)
    np.fill_diagonal(gram, 0.0)
    return min(float(gram.max()), 1.0)

