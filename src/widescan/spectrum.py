"""Block-structured wideband occupancy model and received-signal synthesis.

A wideband of n narrowbands is split into g contiguous blocks. Each band i is
occupied independently with probability p_i (block-constant by construction),
and an occupied band carries a faded complex amplitude. The time-domain
receive vector is the unitary inverse DFT of the band vector, optionally
corrupted by circular complex AWGN.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import freq_to_time


@dataclass(frozen=True)
class BlockPartition:
    """g disjoint contiguous blocks of narrowbands with per-band occupancy probs.

    Attributes:
        n: total number of narrowbands.
        block_sizes: sizes n_1..n_g, summing to n.
        probs: length-n per-band occupancy probabilities (block-constant when
            built through make_block_partition).
    """

    n: int
    block_sizes: tuple[int, ...]
    probs: np.ndarray
    band_to_block: np.ndarray = field(init=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if len(sizes) < 1 or any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        if sum(sizes) != self.n:
            raise ValueError(
                f"block sizes {sizes} sum to {sum(sizes)}, expected n={self.n}"
            )
        probs = np.array(self.probs, dtype=float)
        if probs.shape != (self.n,):
            raise ValueError(f"probs must have shape ({self.n},), got {probs.shape}")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("occupancy probabilities must lie in [0, 1]")
        object.__setattr__(self, "block_sizes", sizes)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        mapping = np.repeat(np.arange(len(sizes)), sizes)
        mapping.flags.writeable = False
        object.__setattr__(self, "band_to_block", mapping)

    @property
    def g(self) -> int:
        return len(self.block_sizes)

    def block_slices(self) -> list[slice]:
        edges = np.concatenate(([0], np.cumsum(self.block_sizes)))
        return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


@dataclass(frozen=True)
class SpectrumInstance:
    """One sensing window's ground truth: occupancy, band vector, time samples."""

    occupancy: np.ndarray
    x: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        for name in ("occupancy", "x", "r"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def k(self) -> int:
        """Number of occupied bands."""
        return int(np.count_nonzero(self.occupancy))


@dataclass(frozen=True)
class NoiseModel:
    """Circular complex AWGN with per-sample variance sigma**2."""

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")


def make_block_partition(n, block_sizes, block_probs) -> BlockPartition:
    """Build a partition from per-block occupancy probabilities.

    Each block's probability is expanded to every band inside the block.
    """
    sizes = tuple(int(s) for s in block_sizes)
    block_probs = list(block_probs)
    if len(block_probs) != len(sizes):
        raise ValueError(
            f"got {len(block_probs)} block probabilities for {len(sizes)} blocks"
        )
    probs = np.repeat(np.asarray(block_probs, dtype=float), sizes)
    return BlockPartition(n=int(n), block_sizes=sizes, probs=probs)


def average_block_sparsity(part: BlockPartition) -> np.ndarray:
    """Expected occupied-band count per block (sum of the block's probs)."""
    return np.array([part.probs[s].sum() for s in part.block_slices()])


def _draw_amplitudes(rng: np.random.Generator, size: int, model) -> np.ndarray:
    """Per-band complex amplitudes for occupied bands.

    "rayleigh" draws a circular complex Gaussian gain with unit average power
    (Rayleigh magnitude, uniform phase); "constant" fixes unit magnitude with
    uniform phase. A callable (rng, size) -> complex array is also accepted.
    """
    if callable(model):
        return np.asarray(model(rng, size), dtype=complex)
    if model == "rayleigh":
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)
    if model == "constant":
        return np.exp(2j * math.pi * rng.random(size))
    raise ValueError(f"unknown amplitude model {model!r}")


def sample_instance(part: BlockPartition, amplitude_model="rayleigh", seed=None) -> SpectrumInstance:
    """Draw one occupancy realization and synthesize its received signal.

    Occupancy is Bernoulli(p_i) per band; occupied bands get an amplitude from
    the model, vacant bands are exactly zero. Deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    occupancy = rng.random(part.n) < part.probs
    x = np.zeros(part.n, dtype=complex)
    k = int(np.count_nonzero(occupancy))
    if k:
        x[occupancy] = _draw_amplitudes(rng, k, amplitude_model)
    return SpectrumInstance(occupancy=occupancy, x=x, r=freq_to_time(x))


def add_time_noise(r: np.ndarray, noise: NoiseModel, seed=None) -> np.ndarray:
    """Add i.i.d. circular complex Gaussian noise (variance sigma**2 per sample)."""
    r = np.asarray(r, dtype=complex)
    if noise.sigma == 0.0:
        return r.copy()
    rng = np.random.default_rng(seed)
    scale = noise.sigma / math.sqrt(2)
    w = scale * (rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape))
    return r + w

