"""Online quantum state tomography with the matrix Soft-Bayes learner.

Each round the learner announces a density matrix rho_t, an opponent reveals
a nonzero PSD observation A_t, and the learner pays -log tr(A_t rho_t). The
update multiplies unnormalized weights W_t by (1 - eta) I + eta A_t / tr(A_t rho_t)
inside a matrix exponential/logarithm sandwich.

The state keeps log W_t as a running Hermitian accumulator: each step adds
one matrix logarithm, which is exact (exp and log of Hermitian matrices
invert each other) and avoids re-taking logs of stored exponentials. The
accumulator's top eigenvalue is folded into a scalar `shift` every step so
that taking exp never over- or underflows, even over 10^5-round runs where
the unnormalized trace drops below double-precision range. The trace of the
true weights, exp(shift) * tr(exp(logW)), is tracked per step because the
theory guarantees it never exceeds 1 and never increases.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    DEFAULT_TOLS,
    DomainError,
    SpectralDecomposition,
    ValidationError,
    hermitian_eigh,
    hermitianize,
    hs_inner,
    spectral,
    validate_observation,
)
from .portfolio import learning_rate, ops_regret_bound


@dataclass(frozen=True)
class QsbState:
    """Immutable per-round state of the learner.

    log_weights carries log W_t minus shift * I; its largest eigenvalue is
    zero after the first update, so exp(log_weights) is always representable.
    true_trace and rho_min_eig are cached from the eigendecomposition that
    produced rho, since transcripts report both every round.
    """

    log_weights: np.ndarray
    shift: float
    rho: np.ndarray
    round: int
    true_trace: float
    rho_min_eig: float

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class QstTranscript:
    """Per-round record of one online tomography game."""

    eta: float
    losses: np.ndarray         # (T,)
    true_traces: np.ndarray    # (T,), trace of the announced state's weights
    min_eigs: np.ndarray       # (T,), smallest eigenvalue of announced rho
    step_times_ns: np.ndarray  # (T,), decomposing A_t plus the update, monotonic clock
    average_state: np.ndarray  # mean of the announced density matrices
    final_state: QsbState

    @property
    def cumulative_losses(self) -> np.ndarray:
        return np.cumsum(self.losses)

    @property
    def total_loss(self) -> float:
        return float(np.sum(self.losses))


def qsb_init(dim: int) -> QsbState:
    """Start at the maximally mixed state with unit weight trace."""
    if dim < 1:
        raise ValidationError(f"dim must be positive, got {dim}")
    return QsbState(
        log_weights=-math.log(dim) * np.eye(dim, dtype=complex),
        shift=0.0,
        rho=np.eye(dim, dtype=complex) / dim,
        round=1,
        true_trace=1.0,
        rho_min_eig=1.0 / dim,
    )


def qsb_step(state: QsbState, A: np.ndarray, eta: float) -> QsbState:
    """One update of the weights by (1 - eta) I + eta A / tr(A rho)."""
    A = np.asarray(A, dtype=complex)
    if not np.any(A):
        raise ValidationError("observation matrix is exactly zero")
    return _qsb_update(state, A, spectral(A), eta)[0]


def _qsb_update(
    state: QsbState, A: np.ndarray, spectrum: SpectralDecomposition, eta: float
) -> tuple[QsbState, float]:
    """qsb_step for a complex observation A whose `spectral(A)` is given.

    Also returns c = tr(A rho), whose negative log is the round's loss.
    G = (1 - eta) I + (eta / c) A has A's eigenvectors, so log G is built
    from A's spectrum (mu, U) as U diag(log((1 - eta) + (eta / c) mu)) U^dagger
    and the step decomposes only the new accumulator. A caller that sees one
    observation many times can decompose it once and pass the spectrum.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must be in (0, 1), got {eta!r}")
    overlap = float(np.vdot(A, state.rho).real)
    if overlap <= 0.0:
        raise DomainError(f"tr(A rho) = {overlap!r} is not positive")
    mu, U = spectrum
    g = (1.0 - eta) + (eta / overlap) * mu
    if g[0] <= DEFAULT_TOLS.eval_floor:
        raise DomainError(f"eigenvalue {g[0]!r} of G is outside the domain of log")
    # both terms are exactly Hermitian, so their sum is too
    L = state.log_weights + hermitianize((U * np.log(g)) @ U.conj().T)
    lam, V = hermitian_eigh(L)

    # fold the top eigenvalue into the scalar shift so exp stays in range
    top = float(lam[-1])
    p = np.exp(lam - top)
    total = float(p.sum())
    rho = hermitianize((V * (p / total)) @ V.conj().T)
    shift = state.shift + top
    L.flat[:: state.dim + 1] -= top
    return QsbState(
        log_weights=L,
        shift=shift,
        rho=rho,
        round=state.round + 1,
        true_trace=math.exp(shift + math.log(total)),
        rho_min_eig=float(p[0]) / total,
    ), overlap


# The quantum game has the classical game's regret guarantee, in one definition.
qsb_regret_bound = ops_regret_bound


def _play(
    dim: int,
    rounds: int,
    eta: float,
    observe: Callable[[int], tuple[np.ndarray, SpectralDecomposition]],
    checkpoints: frozenset[int] = frozenset(),
) -> tuple[QstTranscript, list[np.ndarray]]:
    """The learner loop shared by the online game and the stochastic estimator.

    Round t (from 0) announces the state, takes a complex observation and its
    `spectral` decomposition from `observe(t)`, pays -log tr(A_t rho_t) and
    updates; its step time covers `observe` and the update. Also returns
    the average announced state after each round numbered in `checkpoints`.
    """
    state = qsb_init(dim)
    losses = np.empty(rounds)
    true_traces = np.empty(rounds)
    min_eigs = np.empty(rounds)
    step_times = np.empty(rounds, dtype=np.int64)
    rho_sum = np.zeros((dim, dim), dtype=complex)
    averages = []
    for t in range(rounds):
        true_traces[t] = state.true_trace
        min_eigs[t] = state.rho_min_eig
        rho_sum += state.rho
        if t + 1 in checkpoints:
            averages.append(hermitianize(rho_sum / (t + 1)))
        t0 = time.perf_counter_ns()
        A, spectrum = observe(t)
        try:
            state, overlap = _qsb_update(state, A, spectrum, eta)
        except DomainError as exc:
            raise DomainError(f"round {t + 1}: {exc}") from exc
        step_times[t] = time.perf_counter_ns() - t0
        losses[t] = -math.log(overlap)
    transcript = QstTranscript(
        eta=eta,
        losses=losses,
        true_traces=true_traces,
        min_eigs=min_eigs,
        step_times_ns=step_times,
        average_state=hermitianize(rho_sum / rounds),
        final_state=state,
    )
    return transcript, averages


def run_qst_game(stream: np.ndarray, eta: float | None = None) -> QstTranscript:
    """Play the tomography game against a (T, D, D) stream of observations.

    Validation happens up front; a recorded step time covers decomposing
    the round's observation and updating the state.
    """
    stream = np.asarray(stream, dtype=complex)
    if stream.ndim != 3 or stream.shape[0] < 1:
        raise ValidationError(f"expected a nonempty (T, D, D) stream, got shape {stream.shape}")
    rounds, dim = stream.shape[0], stream.shape[1]
    for t in range(rounds):
        try:
            validate_observation(stream[t])
        except ValidationError as exc:
            raise ValidationError(f"round {t + 1}: {exc}") from exc
    if eta is None:
        eta = learning_rate(dim, rounds)

    def observe(t: int) -> tuple[np.ndarray, SpectralDecomposition]:
        A = hermitianize(stream[t])  # the Hermitian part that was validated
        return A, spectral(A)

    return _play(dim, rounds, eta, observe)[0]


def eta_bar(eta: float) -> float:
    """The rate eta / (1 - eta) that the regret analysis is written in."""
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must be in (0, 1), got {eta!r}")
    return eta / (1.0 - eta)


def reverse_jensen_gap(X: np.ndarray, rho: np.ndarray, eta: float) -> float:
    """Slack of the reverse Jensen inequality for the matrix logarithm.

    Returns (1/eta) <log((1-eta) I + eta X), rho> + tr log(I + eta/(1-eta) X)
    minus log <X, rho>, which is nonnegative for PSD X and density rho.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must be in (0, 1), got {eta!r}")
    X = np.asarray(X)
    rho = np.asarray(rho)
    overlap = hs_inner(X, rho)
    if overlap <= 0.0:
        raise DomainError(f"tr(X rho) = {overlap!r} is not positive")
    mu, V = spectral(X)
    if (1.0 - eta) + eta * mu[0] <= 0.0:
        raise DomainError(f"X eigenvalue {mu[0]!r} makes the mixed matrix singular")
    log_mix = hermitianize((V * np.log((1.0 - eta) + eta * mu)) @ V.conj().T)
    term1 = hs_inner(log_mix, rho) / eta
    term2 = float(np.sum(np.log1p(eta_bar(eta) * mu)))
    return term1 + term2 - math.log(overlap)
