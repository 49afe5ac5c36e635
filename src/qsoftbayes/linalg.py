"""Hermitian-matrix primitives shared by every learner in the package."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
import numpy.linalg as npl


# Validator tolerances: SYM_TOL is relative to the matrix scale, the others
# are absolute. An eigenvalue at or below EVAL_FLOOR is outside the domain of
# the matrix logarithm.
SYM_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-9
EVAL_FLOOR = 1e-300


class ValidationError(ValueError):
    """An input fails a structural invariant (shape, hermiticity, trace...)."""


class DomainError(ValueError):
    """A value is outside the mathematical domain of the requested operation."""


class SpectralDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # ascending, real
    eigenvectors: np.ndarray  # columns, unitary


def hermitianize(M: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M^dagger) / 2 of a matrix or of a stack's matrices."""
    return (M + M.conj().swapaxes(-1, -2)) / 2


def spectral(H: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of the Hermitian part of H, eigenvalues ascending."""
    return hermitian_eigh(hermitianize(np.asarray(H)))


def hermitian_eigh(H: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of an exactly Hermitian H, eigenvalues ascending.

    H is decomposed as given, so it must already equal its conjugate
    transpose bit for bit (a `hermitianize` result, or a sum of them).
    """
    try:
        w, V = npl.eigh(H)
    except npl.LinAlgError as exc:
        raise DomainError(f"eigendecomposition failed: {exc}") from exc
    return SpectralDecomposition(w, V)


def matrix_fn(H: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its eigenvalues."""
    w, V = spectral(H)
    with np.errstate(all="ignore"):
        fw = f(w)
    if not np.all(np.isfinite(fw)):
        bad = w[~np.isfinite(fw)][0]
        raise DomainError(f"eigenvalue {bad!r} is outside the domain of {f}")
    return hermitianize((V * fw) @ V.conj().T)


def herm_exp(H: np.ndarray) -> np.ndarray:
    """exp(H) for Hermitian H. No internal shift; the caller owns the scale."""
    return matrix_fn(H, np.exp)


def herm_log(H: np.ndarray) -> np.ndarray:
    """log(H) for Hermitian positive-definite H.

    Eigenvalues at or below EVAL_FLOOR are rejected rather than clipped: the
    learners only ever take logs of matrices that are provably bounded away
    from singular, so hitting the floor means something upstream went wrong.
    """
    w, V = spectral(H)
    if w[0] <= EVAL_FLOOR:
        raise DomainError(f"eigenvalue {w[0]!r} is outside the domain of log")
    return hermitianize((V * np.log(w)) @ V.conj().T)


def hs_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Hilbert-Schmidt inner product tr(A B) for Hermitian A and B.

    Computed as Re vdot(A, B) = Re tr(A^dagger B), which equals tr(A B) when
    A is Hermitian. The products and summation order are identical for
    hs_inner(A, B) and hs_inner(B, A), so the result is bitwise symmetric.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"shape mismatch: {A.shape} vs {B.shape}")
    return float(np.vdot(A, B).real)


def _hermitian_psd(M: np.ndarray, symbol: str) -> np.ndarray:
    """Checks shared by the validators: a square, finite, Hermitian, PSD matrix.

    Returns the hermitianized copy. `symbol` names the matrix in messages.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    norm = float(npl.norm(M))
    if not math.isfinite(norm):
        raise ValidationError(f"matrix norm is {norm!r}: an entry is non-finite or too large")
    scale = max(1.0, norm)
    dev = float(npl.norm(M - M.conj().T))
    if dev > SYM_TOL * scale:
        raise ValidationError(
            f"not Hermitian: ||{symbol} - {symbol}^dagger|| = {dev:.3e} exceeds {SYM_TOL:.1e} relative"
        )
    H = hermitianize(M)
    w = npl.eigvalsh(H)
    if w[0] < -PSD_TOL:
        raise ValidationError(
            f"not positive semidefinite: min eigenvalue {w[0]:.3e} below -{PSD_TOL:.1e}"
        )
    return H


def validate_density(M: np.ndarray) -> np.ndarray:
    """Check that M is a density matrix; return its hermitianized copy.

    Raises ValidationError naming the violated invariant and by how much.
    """
    H = _hermitian_psd(M, "M")
    tr_dev = abs(float(np.trace(H).real) - 1.0)
    if tr_dev > TRACE_TOL:
        raise ValidationError(
            f"trace deviates from 1 by {tr_dev:.3e}, tolerance {TRACE_TOL:.1e}"
        )
    return H


def validate_observation(A: np.ndarray) -> np.ndarray:
    """Check that A is a nonzero PSD Hermitian matrix; return it hermitianized."""
    H = _hermitian_psd(A, "A")
    if not np.any(A):
        raise ValidationError("observation matrix is exactly zero")
    return H


def golden_thompson_gap(A: np.ndarray, B: np.ndarray) -> float:
    """tr(exp(A) exp(B)) - tr(exp(A + B)) for Hermitian A, B. Nonnegative."""
    A = hermitianize(np.asarray(A))
    B = hermitianize(np.asarray(B))
    if A.shape != B.shape:
        raise ValidationError(f"shape mismatch: {A.shape} vs {B.shape}")
    product_side = hs_inner(herm_exp(A), herm_exp(B))
    sum_side = float(np.sum(np.exp(npl.eigvalsh(A + B))))
    return product_side - sum_side
