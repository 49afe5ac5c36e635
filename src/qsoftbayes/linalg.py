"""Hermitian-matrix primitives shared by every learner in the package."""

from __future__ import annotations

import math
from typing import Callable

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


class SolverError(RuntimeError):
    """An iterative solver hit its iteration cap before certifying tolerance."""

    def __init__(self, message: str, gap: float, iterations: int):
        super().__init__(message)
        self.gap = gap
        self.iterations = iterations


# Complex division by 2 gives ((a + b*0) / 2, (b - a*0) / 2); the product with
# complex(0.5, -0.0) gives (a/2 + b*0, b/2 - a*0): the same bits, signed zeros
# included, at a fifth of the cost (only a part of magnitude 5e-324, which
# halves to zero, can get the other zero's sign). A plain `* 0.5` flips some
# zeros' signs, which changes eigh's reflections and so the artifacts' last bits.
_HALF = complex(0.5, -0.0)


def hermitianize(M: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M^dagger) / 2 of a matrix or of a stack's matrices."""
    H = M + M.conj().swapaxes(-1, -2)
    return H * (_HALF if H.dtype.kind == "c" else 0.5)


def spectral(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Hermitian part of H, eigenvalues ascending."""
    return hermitian_eigh(hermitianize(np.asarray(H)))


def hermitian_eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian H: `eigenvalues` ascending, and
    `eigenvectors` unitary, as columns.

    H is decomposed as given: `eigh` reads only its lower triangle and the
    real part of its diagonal, and decomposes the Hermitian matrix they
    define. So H must hold that matrix there bit for bit (a `hermitianize`
    result, or a sum of them); its strict upper triangle and imaginary
    diagonal are ignored.
    """
    try:
        return npl.eigh(H)
    except npl.LinAlgError as exc:
        raise DomainError(f"eigendecomposition failed: {exc}") from exc


def _from_spectrum(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V diag(w) V^dagger, hermitianized, for a matrix or a stack of them."""
    return hermitianize((V * w[..., None, :]) @ V.conj().swapaxes(-1, -2))


def herm_exp(H: np.ndarray) -> np.ndarray:
    """exp(H) for Hermitian H. No internal shift; the caller owns the scale."""
    w, V = spectral(H)
    with np.errstate(over="ignore"):
        ew = np.exp(w)
    if not math.isfinite(ew[-1]):
        raise DomainError(f"eigenvalue {float(w[-1])!r} is outside the domain of exp")
    return _from_spectrum(ew, V)


def herm_log(H: np.ndarray) -> np.ndarray:
    """log(H) for Hermitian positive-definite H.

    Eigenvalues at or below EVAL_FLOOR are rejected rather than clipped: the
    learners only ever take logs of matrices that are provably bounded away
    from singular, so hitting the floor means something upstream went wrong.
    """
    w, V = spectral(H)
    if w[0] <= EVAL_FLOOR:
        raise DomainError(f"eigenvalue {float(w[0])!r} is outside the domain of log")
    return _from_spectrum(np.log(w), V)


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


# Matrix entries checked at a time by `_hermitian_psd`, and held at a time in
# each stack of the learner loop's blocks. A block holds at least one round
# of S matrices, so a block's temporaries stay at or under 128 kB only while
# S D^2 <= 2^13 (D <= 90 at S = 1). Blocks of 1 MB left their freed
# temporaries resident and raised scaling-bench's peak RSS by 0.6 MB.
_CHECK_BLOCK = 2 ** 13


def _block_len(dim: int, count: int = 1) -> int:
    """Rounds of `count` D x D matrices in one block of `_CHECK_BLOCK` entries, at least one."""
    return max(1, _CHECK_BLOCK // (count * dim * dim))


def _hermitian_psd(M: np.ndarray, label: Callable[[int], str], symbol: str = "A",
                   nonzero: bool = True, vectors: bool = False
                   ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]] | None:
    """The validators' checks on every matrix of an (N, D, D) stack, in one pass.

    Each matrix must be finite, Hermitian and PSD and, with `nonzero`, not
    exactly zero. Norms, Hermitian deviations and `eigvalsh` run stacked,
    a block of the stack at a time. The first failing matrix i raises the
    message of its first failed check, prefixed by `label(i)`; `symbol`
    names the matrix in messages.

    With `vectors`, the stack is checked as one block, whose size the caller
    chooses, and the PSD check reads its smallest eigenvalues from one
    stacked `eigh`: returns the hermitianized stack and that decomposition.
    """
    dim = M.shape[-1]
    if dim < 1:
        raise ValidationError(f"{label(0)}expected a nonempty matrix, got shape {M.shape[1:]}")
    if not np.issubdtype(M.dtype, np.inexact):
        M = M.astype(float)  # integer squares in the norms could wrap
    step = max(1, len(M)) if vectors else _block_len(dim)
    for start in range(0, len(M), step):
        X = M[start : start + step]
        flat = X.reshape(len(X), -1)
        # row norms by vecdot, which makes no temporary the size of the block
        with np.errstate(all="ignore"):  # non-finite entries are reported below
            diff = (X - X.conj().swapaxes(-1, -2)).reshape(len(X), -1)
            norm = np.sqrt(np.vecdot(flat, flat).real)
            dev = np.sqrt(np.vecdot(diff, diff).real)
        sound = np.isfinite(norm) & (dev <= SYM_TOL * np.maximum(1.0, norm))
        upto = len(X) if sound.all() else int(np.argmin(sound))
        H = hermitianize(X[:upto])
        if vectors:
            spectrum = hermitian_eigh(H)
            low = spectrum.eigenvalues[:, 0]
        else:
            low = npl.eigvalsh(H)[:, 0]
        bad = low < -PSD_TOL
        if nonzero:
            bad |= ~flat[:upto].any(axis=1)
        i = int(np.argmax(bad)) if bad.any() else upto
        if i == len(X):
            continue
        if i == upto and not math.isfinite(norm[i]):
            msg = f"matrix norm is {float(norm[i])!r}: an entry is non-finite or too large"
        elif i == upto:
            msg = (f"not Hermitian: ||{symbol} - {symbol}^dagger|| = {dev[i]:.3e} "
                   f"exceeds {SYM_TOL:.1e} relative")
        elif low[i] < -PSD_TOL:
            msg = f"not positive semidefinite: min eigenvalue {low[i]:.3e} below -{PSD_TOL:.1e}"
        else:
            msg = "observation matrix is exactly zero"
        raise ValidationError(label(start + i) + msg)
    return (H, spectrum) if vectors else None


def _check_one(M: np.ndarray, symbol: str, nonzero: bool) -> np.ndarray:
    """`_hermitian_psd` on one square matrix; returns its hermitianized copy."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    _hermitian_psd(M[None], lambda i: "", symbol, nonzero)
    return hermitianize(M)


def validate_density(M: np.ndarray) -> np.ndarray:
    """Check that M is a density matrix; return its hermitianized copy.

    Raises ValidationError naming the violated invariant and by how much.
    """
    H = _check_one(M, "M", nonzero=False)
    _check_unit_trace(H)
    return H


def _check_unit_trace(H: np.ndarray) -> None:
    """`validate_density`'s last test, on a matrix its other tests have passed."""
    tr_dev = abs(float(np.trace(H).real) - 1.0)
    if tr_dev > TRACE_TOL:
        raise ValidationError(
            f"trace deviates from 1 by {tr_dev:.3e}, tolerance {TRACE_TOL:.1e}"
        )


def validate_observation(A: np.ndarray) -> np.ndarray:
    """Check that A is a nonzero PSD Hermitian matrix; return it hermitianized."""
    return _check_one(A, "A", nonzero=True)


def golden_thompson_gap(A: np.ndarray, B: np.ndarray) -> float:
    """tr(exp(A) exp(B)) - tr(exp(A + B)) for Hermitian A, B. Nonnegative."""
    A = hermitianize(np.asarray(A))
    B = hermitianize(np.asarray(B))
    if A.shape != B.shape:
        raise ValidationError(f"shape mismatch: {A.shape} vs {B.shape}")
    product_side = hs_inner(herm_exp(A), herm_exp(B))
    sum_side = float(np.sum(np.exp(npl.eigvalsh(A + B))))
    return product_side - sum_side
