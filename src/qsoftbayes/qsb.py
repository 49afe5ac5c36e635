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
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .linalg import (
    EVAL_FLOOR,
    DomainError,
    SpectralDecomposition,
    ValidationError,
    _block_len,
    _from_spectrum,
    _hermitian_psd,
    hermitian_eigh,
    hermitianize,
    hs_inner,
    spectral,
)
from .portfolio import _check_eta, learning_rate, ops_regret_bound


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
    step_times_ns: np.ndarray  # (T,), the learner update, including the accumulator's
                               # eigendecomposition, monotonic clock
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
    learners, _ = _qsb_update(
        state.log_weights[None], np.array([state.shift]), state.rho[None],
        A[None], spectral(A[None]), eta,
    )
    return learners.state(0, state.round + 1)


class _Learners(NamedTuple):
    """S learners' states as stacks: row s belongs to learner s.

    The true weight trace of learner s is exp(shift[s]) * total[s], where
    total is the trace of exp(log_weights) before normalizing it to rho.
    """

    log_weights: np.ndarray  # (S, D, D)
    shift: np.ndarray        # (S,)
    rho: np.ndarray          # (S, D, D)
    total: np.ndarray        # (S,)
    min_eig: np.ndarray      # (S,), smallest eigenvalue of rho

    def true_trace(self, s: int) -> float:
        return math.exp(self.shift[s] + math.log(self.total[s]))

    def state(self, s: int, round: int) -> QsbState:
        return QsbState(
            log_weights=self.log_weights[s],
            shift=float(self.shift[s]),
            rho=self.rho[s],
            round=round,
            true_trace=self.true_trace(s),
            rho_min_eig=float(self.min_eig[s]),
        )


def _qsb_update(
    log_weights: np.ndarray,
    shift: np.ndarray,
    rho: np.ndarray,
    A: np.ndarray,
    spectrum: SpectralDecomposition,
    eta: float,
    labels: Sequence[str] = ("",),
) -> tuple[_Learners, np.ndarray]:
    """qsb_step for S learners at once, learner s observing A[s].

    A is an (S, D, D) complex stack and `spectrum` its stacked `spectral`
    decomposition. Also returns each learner's c = tr(A rho), whose negative
    log is the round's loss. G = (1 - eta) I + (eta / c) A has A's
    eigenvectors, so log G is built from A's spectrum (mu, U) as
    U diag(log((1 - eta) + (eta / c) mu)) U^dagger and the step decomposes
    only the new accumulators, as one stack. A caller that sees one
    observation many times can decompose it once and pass the spectrum.
    The overlaps are one stacked `vecdot`, equal bit for bit to each
    learner's own `vdot`; a failed check names the first failing learner by
    its label.
    """
    _check_eta(eta)
    overlaps = np.vecdot(A.reshape(len(A), -1), rho.reshape(len(rho), -1)).real
    if (overlaps <= 0.0).any():
        s = int(np.argmax(overlaps <= 0.0))
        raise DomainError(f"{labels[s]}tr(A rho) = {float(overlaps[s])!r} is not positive")
    mu, U = spectrum
    g = (1.0 - eta) + (eta / overlaps)[:, None] * mu
    if (g[:, 0] <= EVAL_FLOOR).any():
        s = int(np.argmax(g[:, 0] <= EVAL_FLOOR))
        raise DomainError(f"{labels[s]}eigenvalue {float(g[s, 0])!r} of G is outside the domain of log")
    # both terms are exactly Hermitian, so their sum is too; C order, for the
    # diagonal view below
    L = np.add(log_weights, _from_spectrum(np.log(g), U), order="C")
    lam, V = hermitian_eigh(L)

    # fold the top eigenvalues into the scalar shifts so exp stays in range
    top = lam[:, -1]
    p = np.exp(lam - top[:, None])
    total = p.sum(axis=1)
    rho = _from_spectrum(p / total[:, None], V)
    L.reshape(len(L), -1)[:, :: L.shape[-1] + 1] -= top[:, None]
    return _Learners(L, shift + top, rho, total, p[:, 0] / total), overlaps


# The quantum game has the classical game's regret guarantee, in one definition.
qsb_regret_bound = ops_regret_bound


class _Played(NamedTuple):
    """What `_play` returns for S learners run in lockstep."""

    final_states: list[QsbState]
    average_states: np.ndarray              # (S, D, D), mean announced state
    checkpoint_averages: list[np.ndarray]   # (S, D, D) per checkpoint, in order
    per_round: tuple[np.ndarray, ...] | None  # see `_play`


def _play(
    dim: int,
    rounds: int,
    eta: float,
    observe: Callable[[int], tuple[np.ndarray, SpectralDecomposition]],
    labels: Sequence[str] = ("",),
    checkpoints: frozenset[int] = frozenset(),
    transcript: bool = False,
) -> _Played:
    """The learner loop shared by the online game and the stochastic estimator.

    Runs one learner per label in lockstep. Round t (from 0) announces the
    states, takes from `observe(t)` the (S, D, D) complex stack of the
    learners' observations and its `spectral` decomposition, and updates all
    learners with one `_qsb_update`. Also returns the average announced
    states after each round numbered in `checkpoints`. With `transcript`,
    `per_round` holds the losses -log tr(A_t rho_t), the announced states'
    true traces and min eigenvalues, each (S, T), and the step times (T,)
    in ns, which cover the update alone, not `observe`; without it, none of
    these is kept.
    """
    count = len(labels)
    start = qsb_init(dim)
    learners = _Learners(
        log_weights=np.stack([start.log_weights] * count),
        shift=np.zeros(count),
        rho=np.stack([start.rho] * count),
        total=np.ones(count),
        min_eig=np.full(count, start.rho_min_eig),
    )
    if transcript:
        losses = np.empty((count, rounds))
        true_traces = np.empty((count, rounds))
        min_eigs = np.empty((count, rounds))
        step_times = np.empty(rounds, dtype=np.int64)
    rho_sum = np.zeros((count, dim, dim), dtype=complex)
    averages = []
    for t in range(rounds):
        rho_sum += learners.rho
        if t + 1 in checkpoints:
            averages.append(hermitianize(rho_sum / (t + 1)))
        if transcript:
            true_traces[:, t] = [learners.true_trace(s) for s in range(count)]
            min_eigs[:, t] = learners.min_eig
        try:
            A, spectrum = observe(t)
            if transcript:
                t0 = time.perf_counter_ns()
            learners, overlaps = _qsb_update(
                learners.log_weights, learners.shift, learners.rho, A, spectrum, eta, labels
            )
        except DomainError as exc:
            raise DomainError(f"round {t + 1}: {exc}") from exc
        if transcript:
            step_times[t] = time.perf_counter_ns() - t0
            losses[:, t] = [-math.log(c) for c in overlaps.tolist()]
    return _Played(
        final_states=[learners.state(s, rounds + 1) for s in range(count)],
        average_states=hermitianize(rho_sum / rounds),
        checkpoint_averages=averages,
        per_round=(losses, true_traces, min_eigs, step_times) if transcript else None,
    )


def run_qst_game(stream: np.ndarray, eta: float | None = None) -> QstTranscript:
    """Play the tomography game against a (T, D, D) stream of observations.

    The stream is checked a block of rounds at a time, each block just
    before its rounds are played; a failure names the first failing round,
    after the rounds of the blocks before it were played. A recorded step
    time covers the learner update, including the accumulator's
    eigendecomposition.
    """
    stream = np.asarray(stream, dtype=complex)
    if stream.ndim != 3 or stream.shape[0] < 1 or stream.shape[1] != stream.shape[2]:
        raise ValidationError(f"expected a nonempty (T, D, D) stream, got shape {stream.shape}")
    rounds, dim = stream.shape[:2]
    step = _block_len(dim)
    blocks = (stream[start : start + step] for start in range(0, rounds, step))
    return _qst_game(blocks, rounds, dim, eta)


def _qst_game(blocks: Iterable[np.ndarray], rounds: int, dim: int, eta: float | None,
              checked: bool = False) -> QstTranscript:
    """`run_qst_game` on the `rounds` observations that `blocks` holds in order.

    Each block, an (n, D, D) stack of consecutive rounds, is checked (unless
    `checked`: its matrices passed the check already), hermitianized and
    decomposed in one stacked `eigh` when its first round comes up, so only
    the current block's spectra are held; round t observes its slice of them.
    """
    if eta is None:
        eta = learning_rate(dim, rounds)

    def observations():
        first = 0
        for block in blocks:
            if checked:
                H = hermitianize(block)
                mu, U = hermitian_eigh(H)
            else:
                H, (mu, U) = _hermitian_psd(block, lambda i: f"round {first + i + 1}: ",
                                            vectors=True)
            for i in range(len(H)):
                yield H[i : i + 1], SpectralDecomposition(mu[i : i + 1], U[i : i + 1])
            first += len(H)

    source = observations()
    played = _play(dim, rounds, eta, lambda t: next(source), transcript=True)
    losses, true_traces, min_eigs, step_times = played.per_round
    return QstTranscript(
        eta=eta,
        losses=losses[0],
        true_traces=true_traces[0],
        min_eigs=min_eigs[0],
        step_times_ns=step_times,
        average_state=played.average_states[0],
        final_state=played.final_states[0],
    )


def eta_bar(eta: float) -> float:
    """The rate eta / (1 - eta) that the regret analysis is written in."""
    _check_eta(eta)
    return eta / (1.0 - eta)


def reverse_jensen_gap(X: np.ndarray, rho: np.ndarray, eta: float) -> float:
    """Slack of the reverse Jensen inequality for the matrix logarithm.

    Returns (1/eta) <log((1-eta) I + eta X), rho> + tr log(I + eta/(1-eta) X)
    minus log <X, rho>, which is nonnegative for PSD X and density rho.
    """
    _check_eta(eta)
    X = np.asarray(X)
    rho = np.asarray(rho)
    overlap = hs_inner(X, rho)
    if overlap <= 0.0:
        raise DomainError(f"tr(X rho) = {overlap!r} is not positive")
    mu, V = spectral(X)
    if (1.0 - eta) + eta * mu[0] <= 0.0:
        raise DomainError(f"X eigenvalue {float(mu[0])!r} makes the mixed matrix singular")
    log_mix = _from_spectrum(np.log((1.0 - eta) + eta * mu), V)
    term1 = hs_inner(log_mix, rho) / eta
    term2 = float(np.sum(np.log1p(eta_bar(eta) * mu)))
    return term1 + term2 - math.log(overlap)
