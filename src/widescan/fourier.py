"""Unitary DFT helpers shared by the signal model and the measurement path.

All transforms use the symmetric 1/sqrt(n) convention so that the frequency
and time representations carry the same energy (Parseval) and sensing-matrix
column norms stay scale-free.
"""

import functools

import numpy as np


def freq_to_time(x: np.ndarray) -> np.ndarray:
    """Map a frequency-domain band vector to time-domain Nyquist samples."""
    return np.fft.ifft(np.asarray(x, dtype=complex), norm="ortho")


def time_to_freq(r: np.ndarray) -> np.ndarray:
    """Map time-domain Nyquist samples back to the band vector."""
    return np.fft.fft(np.asarray(r, dtype=complex), norm="ortho")


def inverse_dft_matrix(n: int) -> np.ndarray:
    """Dense n-by-n unitary inverse-DFT basis (column b synthesizes band b),
    built once per n and shared read-only."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _inverse_dft_matrix(n)


@functools.cache
def _inverse_dft_matrix(n: int) -> np.ndarray:
    basis = np.fft.ifft(np.eye(n), axis=0, norm="ortho")
    basis.flags.writeable = False
    return basis
