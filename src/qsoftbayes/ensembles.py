"""Seeded random ensembles: states, observations, and game streams.

All randomness flows through make_rng so that every artifact in the package
is reproducible from a recorded integer seed, and so that paired classical
and quantum runs can consume identical random sequences when they draw the
same number of variates per round.
"""

from __future__ import annotations

import numpy as np

from .linalg import _block_len, _hermitian_psd, hermitianize

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
    return _psd_block(rng, 1, dim, rank)[0][0]


def _psd_block(rng: np.random.Generator, n: int, dim: int, rank: int | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`n` consecutive `random_psd` draws as one stack H, with its spectrum.

    Each matrix draws the real then the imaginary parts of its (D, rank) G,
    and G G^dagger is checked, hermitianized and decomposed in one stacked
    `eigh` (`linalg._hermitian_psd`). H and its eigenvalues mu (ascending)
    are then divided by each matrix's top eigenvalue, so H = U diag(mu) U^dagger
    has unit operator norm and needs no second decomposition.
    """
    r = dim if rank is None else rank
    # the draws, then G, then G G^dagger: rebinding one name frees each
    # temporary as the next is made
    A = rng.standard_normal((n, 2, dim, r))
    A = A[:, 0] + 1j * A[:, 1]
    A = A @ A.conj().swapaxes(-1, -2)
    H, (mu, U) = _hermitian_psd(A, lambda i: f"draw {i + 1}: ", vectors=True)
    top = mu[:, -1:]
    H /= top[..., None]
    mu /= top
    return H, mu, U


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random density matrix from the trace-normalized Wishart ensemble."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
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
    vector and normalizes it on its own. The rounds are drawn a block at a
    time (see `linalg._block_len`), with the bits of a loop of rounds: the
    norm is taken as `np.linalg.norm` takes it, from the dot products of the
    strided real and imaginary parts.
    """
    stream = np.empty((rounds, dim, dim), dtype=complex)
    step = _block_len(dim)
    for start in range(0, rounds, step):
        out = stream[start : start + step]
        z = rng.standard_normal((len(out), 2, dim))
        v = z[:, 0] + 1j * z[:, 1]
        norm = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
        v /= norm[:, None]
        np.multiply(v[:, :, None], v.conj()[:, None, :], out=out)
    return stream


def psd_observation_stream(rng: np.random.Generator, rounds: int, dim: int) -> np.ndarray:
    """(rounds, dim, dim) stream of full-rank random PSD observations.

    Round t is the `random_psd(rng, dim)` draw that a loop of them would make,
    bit for bit, and consecutive calls on one generator draw what one call
    would. The rounds are drawn a block at a time (see `linalg._block_len`),
    each block by one `_psd_block`, and written into the returned stack, so
    no temporary grows with the rounds.
    """
    stream = np.empty((rounds, dim, dim), dtype=complex)
    step = _block_len(dim)
    for start in range(0, rounds, step):
        out = stream[start : start + step]
        out[...] = _psd_block(rng, len(out), dim)[0]
    return stream
