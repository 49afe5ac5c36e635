"""Seeded random ensembles: states, observations, and game streams.

All randomness flows through make_rng so that every artifact in the package
is reproducible from a recorded integer seed, and so that paired classical
and quantum runs can consume identical random sequences when they draw the
same number of variates per round.
"""

from __future__ import annotations

import numpy as np

from .linalg import _block_len, hermitianize

RNG_NAME = "philox"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; stable streams across platforms and versions."""
    return np.random.Generator(np.random.Philox(seed))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """GUE-style random Hermitian matrix with entries of order `scale`."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitianize(G) * scale


def random_psd(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Wishart random PSD matrix G G^dagger, normalized to unit operator norm."""
    r = dim if rank is None else rank
    G = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    A = G @ G.conj().T
    return hermitianize(A / np.linalg.eigvalsh(A)[-1])


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random density matrix from the trace-normalized Wishart ensemble."""
    r = dim if rank is None else rank
    G = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    A = G @ G.conj().T
    return hermitianize(A / np.trace(A).real)


def uniform_returns(rng: np.random.Generator, rounds: int, dim: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """(rounds, dim) array of i.i.d. Uniform(0, 1) return vectors.

    Entries are almost surely positive, so every prefix of the stream keeps
    the best-fixed-portfolio objective finite. With `out`, a C-contiguous
    (rounds, dim) float64 array, the same draws are written into it.
    """
    return rng.random((rounds, dim), out=out)


def rank1_observation_stream(rng: np.random.Generator, rounds: int, dim: int) -> np.ndarray:
    """(rounds, dim, dim) stream of projectors onto Haar-random directions.

    Each round draws the real then the imaginary parts of one Gaussian
    vector and normalizes it on its own.
    """
    stream = np.empty((rounds, dim, dim), dtype=complex)
    for t in range(rounds):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        stream[t] = np.outer(v, v.conj())
    return stream


def psd_observation_stream(rng: np.random.Generator, rounds: int, dim: int) -> np.ndarray:
    """(rounds, dim, dim) stream of full-rank random PSD observations.

    Round t is the `random_psd(rng, dim)` draw that a loop of them would make,
    bit for bit, and consecutive calls on one generator draw what one call
    would. The rounds are drawn a block at a time (see `linalg._block_len`),
    each block by one draw, one stacked product and one stacked `eigvalsh`,
    and written into the returned stack, so no temporary grows with the
    rounds.
    """
    stream = np.empty((rounds, dim, dim), dtype=complex)
    step = _block_len(dim)
    for start in range(0, rounds, step):
        out = stream[start : start + step]
        # the draws, then G, then G G^dagger: rebinding one name frees each
        # temporary as the next is made
        A = rng.standard_normal((len(out), 2, dim, dim))
        A = A[:, 0] + 1j * A[:, 1]
        A = A @ A.conj().swapaxes(-1, -2)
        A /= np.linalg.eigvalsh(A)[:, -1, None, None]
        out[...] = hermitianize(A)
    return stream
