"""Online quantum state tomography with the matrix Soft-Bayes learner.

Each round the learner announces a density matrix rho_t, an opponent reveals
a nonzero PSD observation A_t, and the learner pays -log tr(A_t rho_t). The
update multiplies unnormalized weights W_t by (1 - eta) I + eta A_t / tr(A_t rho_t)
inside a matrix exponential/logarithm sandwich.

The state keeps log W_t as a running Hermitian accumulator: each step adds
one matrix logarithm, which is exact (exp and log of Hermitian matrices
invert each other) and avoids re-taking logs of stored exponentials. For a
rank-one observation the logarithm is a scalar times the identity plus a
scaled projector, and the scalar goes to the shift instead. The
learner loop keeps only the accumulator's lower triangle and real diagonal,
which are all that `eigh` reads, and rebuilds each state it hands out from
them, exactly Hermitian. The accumulator's top eigenvalue is folded into a
scalar `shift` every step so
that taking exp never over- or underflows, even over 10^5-round runs where
the unnormalized trace drops below double-precision range. The trace of the
true weights, exp(shift) * tr(exp(logW)), is tracked per step because the
theory guarantees it never exceeds 1 and never increases.

Each announced state is kept as its spectrum, the accumulator's
eigenvectors V and the normalized weights w, and rho = V diag(w) V^dagger
is built only where it is read. A rank-one observation A = mu u u^dagger
reads its overlap from the spectrum, mu sum_j w_j |v_j^dagger u|^2, in
O(D^2); any other observation reads tr(A rho) from the built state. So
the learner loop builds the states of a block of rounds whose
observations are all rank one in one stack, for the running average
alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .linalg import (
    EVAL_FLOOR,
    DomainError,
    ValidationError,
    _block_len,
    _from_spectrum,
    _hermitian_psd,
    hermitian_eigh,
    hs_inner,
    spectral,
)
from .portfolio import _check_eta, learning_rate, ops_regret_bound


@dataclass(frozen=True)
class QsbState:
    """Immutable per-round state of the learner.

    log_weights carries log W_t minus shift * I; its largest eigenvalue is
    zero after the first update, so exp(log_weights) is always representable.
    The announced state is kept as the spectrum of the decomposition that
    produced it, which also gave true_trace: its eigenvalues `spectrum`
    (ascending), which sum to `total`, and its eigenvectors `vectors`
    (columns). So rho = vectors diag(spectrum / total) vectors^dagger, and
    `rho` is built, exactly Hermitian, when first read.
    """

    log_weights: np.ndarray
    shift: float
    spectrum: np.ndarray
    total: float
    vectors: np.ndarray
    round: int
    true_trace: float

    @property
    def dim(self) -> int:
        return self.spectrum.shape[0]

    @cached_property
    def rho(self) -> np.ndarray:
        """The announced density matrix."""
        return _from_spectrum(self.spectrum / self.total, self.vectors)

    @property
    def rho_min_eig(self) -> float:
        return float(self.spectrum[0] / self.total)


@dataclass(frozen=True)
class QstTranscript:
    """Per-round record of one online tomography game."""

    eta: float
    losses: np.ndarray         # (T,)
    true_traces: np.ndarray    # (T,), trace of the announced state's weights
    min_eigs: np.ndarray       # (T,), smallest eigenvalue of announced rho
    step_times_ns: np.ndarray  # (T,), the learner update, including the accumulator's
                               # eigendecomposition, monotonic clock; see `_play`
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
        spectrum=np.full(dim, 1.0 / dim),
        total=1.0,
        vectors=np.eye(dim, dtype=complex),
        round=1,
        true_trace=1.0,
    )


def qsb_step(state: QsbState, A: np.ndarray, eta: float) -> QsbState:
    """One update of the weights by (1 - eta) I + eta A / tr(A rho).

    Runs the lockstep update with one learner on a copy of the state's
    accumulator, so `state` is left as it was. Like the learner loop, it
    takes the rank-one overlap and update when A is rank one by `_records`'
    test on its spectrum, and reads rho only when A is not, so a chain of
    `qsb_step` calls equals the loop bit for bit.
    """
    A = np.asarray(A, dtype=complex)
    if not np.any(A):
        raise ValidationError("observation matrix is exactly zero")
    _check_eta(eta)
    mu, U = spectral(A[None])
    L = np.array(state.log_weights[None], dtype=complex)
    shift = [state.shift]
    block = _records(A[None, None], mu[None], U[None])
    ones = block.one[0].tolist()
    rho = None if all(ones) else state.rho[None]
    p, total, V, _ = _qsb_update(L, _diagonals(L).real, shift, state.spectrum[None],
                                 np.array([state.total]), state.vectors[None], rho, block, 0,
                                 ones, mu[:, -1].tolist(), eta)
    return _states(L, shift, p, total, V, state.round + 1)[0]


def _diagonals(L: np.ndarray) -> np.ndarray:
    """A writable (S, D) view of the diagonals of a C-contiguous (S, D, D) stack."""
    return L.reshape(len(L), -1)[:, :: L.shape[-1] + 1]


def _true_traces(shift: list[float], total: np.ndarray) -> list[float]:
    """Each learner's true weight trace exp(shift) * total."""
    return [math.exp(s + math.log(x)) for s, x in zip(shift, total.tolist())]


def _states(L: np.ndarray, shift: list[float], p: np.ndarray, total: np.ndarray,
            V: np.ndarray, round: int) -> list[QsbState]:
    """The S learners' states, learner s from row s of the lockstep arrays.

    Each state's log weights are the Hermitian matrix that `eigh` reads from
    its accumulator: the lower triangle, mirrored, and the real diagonal.
    """
    log_weights = np.where(np.tri(L.shape[-1], k=-1, dtype=bool), L, L.conj().swapaxes(-1, -2))
    _diagonals(log_weights)[:] = _diagonals(L).real
    return [
        QsbState(log_weights=log_weights[s], shift=shift[s], spectrum=p[s], total=t,
                 vectors=V[s], round=round, true_trace=trace)
        for s, (t, trace) in enumerate(zip(total.tolist(), _true_traces(shift, total)))
    ]


_EPS = 2.0 ** -52  # the machine epsilon of float64


class _Records(NamedTuple):
    """Records A, their eigenvalues mu (ascending), eigenvectors U and U's
    conjugate transposes UH, over any leading axes; `one` marks the rank-one
    records and P holds the projectors u u^dagger onto the top eigenvectors
    u = U[..., -1]. P is None when no record is rank one, A and UH when every
    record is."""

    A: np.ndarray | None
    mu: np.ndarray
    U: np.ndarray
    UH: np.ndarray | None
    one: np.ndarray
    P: np.ndarray | None

    def take(self, index: np.ndarray) -> _Records:
        """The records at `index` along the first axis, one fancy index per stack."""
        return _Records(*(None if x is None else x[index] for x in self))


def _records(A: np.ndarray, mu: np.ndarray, U: np.ndarray) -> _Records:
    """Decomposed records, each marked rank one or not, with their projectors built once.

    A record is rank one when every eigenvalue below its top one is at most
    D eps times the top in magnitude: the rounding left by decomposing a
    scaled projector (a Pauli record's lower eigenvalues measure at most
    2.8e-16 against a top of 1 at q = 1-3). The criterion reads only the
    record's own spectrum, so a learner takes the same update whichever
    learners it steps beside. A rank-one record is read through mu, U and P
    alone; A and UH, a view of U's conjugate transpose, are kept only when
    some record is not rank one.
    """
    one = (np.abs(mu[..., :-1]) <= (mu.shape[-1] * _EPS) * mu[..., -1:]).all(axis=-1)
    P = None
    if one.any():
        u = U[..., -1]
        P = u[..., :, None] * u.conj()[..., None, :]
    if one.all():
        return _Records(None, mu, U, None, one, P)
    return _Records(A, mu, U, U.conj().swapaxes(-1, -2), one, P)


def _spectral_overlaps(p: np.ndarray, total: np.ndarray, V: np.ndarray, u: np.ndarray,
                       top: list[float]) -> list[float]:
    """Each learner's tr(A rho) for a rank-one record A = mu_top u u^dagger.

    Read from the announced state's spectrum, the (S, D) eigenvalues p that
    sum to the (S,) totals and the (S, D, D) eigenvectors V, as
    mu_top sum_j p_j |v_j^dagger u|^2 / total: O(D^2), and without rho.
    u is the (S, D, 1) stack of top eigenvectors and `top` each learner's
    mu_top. The sums run per learner, so each learner gets the bits of a
    run of its own.
    """
    y = np.abs(np.vecdot(u, V, axis=-2))  # (S, D): |u^dagger v_j|
    sums = np.vecdot(p, y * y).tolist()
    return [m * x / t for m, x, t in zip(top, sums, total.tolist())]


def _qsb_update(
    L: np.ndarray,
    diagonals: np.ndarray,
    shift: list[float],
    p: np.ndarray,
    total: np.ndarray,
    V: np.ndarray,
    rho: np.ndarray | None,
    block: _Records,
    i: int,
    ones: list[bool],
    mu_top: list[float],
    eta: float,
    labels: Sequence[str] = ("",),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """qsb_step for S learners at once, learner s observing its record of round i, in place.

    L is the (S, D, D) accumulator of log weights, `diagonals` a view of the
    real parts of its diagonals and `shift` the list of S shifts; the update
    writes all three. The announced states come as their spectra, the
    (S, D) eigenvalues p, their (S,) sums `total` and the (S, D, D)
    eigenvectors V, and as the stack rho built from them, which may be None
    when every record of the round is rank one: a rank-one record reads its
    overlap from the spectrum (see `_spectral_overlaps`), any other from
    rho. Row i of the (n, S) `block` holds the records; `ones` and
    `mu_top`, row i of `block.one` and of the top eigenvalues as lists, mark
    the rank-one ones and give their mu_top. Returns the new states'
    spectra, in the same form: p (ascending), with the top eigenvalue
    folded out, total = tr(exp(L)) and V; and each learner's c = tr(A rho),
    whose negative log is the round's loss.
    G = (1 - eta) I + (eta / c) A has A's eigenvectors, so log G needs no
    decomposition of its own: a rank-one record steps by `_rank_one_step`,
    any other by `_log_g_step` (in a round with both kinds, each learner
    steps alone), and the step decomposes only the new accumulators, as one
    stack. A failed check names the first failing learner by its label.
    The caller checks eta.
    """
    every, some = all(ones), any(ones)
    if some:
        u = block.U[i, ..., -1, None]
    if every:  # rho is not read
        c = _spectral_overlaps(p, total, V, u, mu_top)
    else:  # one stacked vecdot, equal bit for bit to each learner's own vdot
        A = block.A[i]
        overlaps = np.vecdot(A.reshape(len(A), -1), rho.reshape(len(rho), -1)).real
        c = overlaps.tolist()
        if some:
            spectral = _spectral_overlaps(p, total, V, u, mu_top)
            c = [x if one else y for one, x, y in zip(ones, spectral, c)]
            overlaps = np.array(c)
    if min(c) <= 0.0:
        s = next(s for s, x in enumerate(c) if x <= 0.0)
        raise DomainError(f"{labels[s]}tr(A rho) = {c[s]!r} is not positive")
    if every:
        _rank_one_step(L, c, mu_top, block.P[i], eta)
    elif not some:
        _log_g_step(L, overlaps, block.mu[i], block.U[i], block.UH[i], eta, labels)
    else:  # records of both kinds: each learner steps alone, on views of its rows
        for s, one in enumerate(ones):
            k = slice(s, s + 1)
            if one:
                _rank_one_step(L[k], c[k], mu_top[k], block.P[i, k], eta)
            else:
                _log_g_step(L[k], overlaps[k], block.mu[i, k], block.U[i, k], block.UH[i, k],
                            eta, labels[k])
    lam, V = hermitian_eigh(L)

    # fold the top eigenvalues into the scalar shifts so exp stays in range;
    # a rank-one step's shift gains log(1 - eta) first (see `_rank_one_step`)
    top = lam[:, -1:]
    p = np.exp(lam - top)
    total = np.add.reduce(p, 1)
    diagonals -= top
    keep = math.log1p(-eta)
    shift[:] = [(x + keep if one else x) + y for x, one, y in zip(shift, ones, top[:, 0].tolist())]
    return p, total, V, c


def _log_g_step(L: np.ndarray, overlaps: np.ndarray, mu: np.ndarray, U: np.ndarray,
                UH: np.ndarray, eta: float, labels: Sequence[str]) -> None:
    """Add log G = U diag(log((1 - eta) + (eta / c) mu)) U^dagger to each accumulator of L.

    The general update, for records of any rank; it fails when an
    eigenvalue of G is at or below EVAL_FLOOR.
    """
    g = (1.0 - eta) + (eta / overlaps)[:, None] * mu
    low = g[:, 0].tolist()
    if min(low) <= EVAL_FLOOR:
        s = next(s for s, x in enumerate(low) if x <= EVAL_FLOOR)
        raise DomainError(f"{labels[s]}eigenvalue {low[s]!r} of G is outside the domain of log")
    # eigh reads only the lower triangles and the real diagonals, so the
    # accumulators need not be Hermitian, and log G is not hermitianized
    np.add(L, (U * np.log(g)[:, None, :]) @ UH, out=L)


def _rank_one_step(L: np.ndarray, c: list[float], top: list[float], P: np.ndarray,
                   eta: float) -> None:
    """Add log G of rank-one records A = mu_top P to the accumulators L, less its constant.

    log G = log(1 - eta) I + log1p(kappa mu_top) P with kappa = eta / ((1 - eta) c):
    the accumulator gains the scaled projector, and `_qsb_update` adds the
    constant to the shift, one scalar per learner, as Soft-Bayes scales each
    weight by one factor. c and top hold each learner's overlap and mu_top.
    Both logarithms are of numbers above 1 - eta > 0, so no floor check is
    needed.
    """
    rate = eta / (1.0 - eta)
    # complex, as numpy would cast it for the product anyway
    w = np.array([math.log1p(rate / x * m) for x, m in zip(c, top)], dtype=complex)
    L += w.reshape(-1, 1, 1) * P


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
    draw: Callable[[int, int], _Records],
    labels: Sequence[str] = ("",),
    checkpoints: frozenset[int] = frozenset(),
    transcript: bool = False,
) -> _Played:
    """The learner loop shared by the online game and the stochastic estimator.

    Runs one learner per label in lockstep, S in all. `draw(start, stop)`
    returns rounds start to stop - 1 (from 0) of all learners as `_Records`
    of shape (n, S), their rank-one records marked and projectors built (see
    `_records`). It is called for blocks of `_block_len(D, S)` rounds, each
    when its first round comes up. Round t announces the states and updates
    all learners with one `_qsb_update` on its row of the block, which writes
    the loop's accumulator in place; each learner takes the rank-one or the
    general overlap and update by its own record, as `qsb_step` does.

    A block whose records are all rank one reads no rho, so it keeps its
    announced states as their spectra and builds them at its end, or at a
    checkpoint, by one stacked `_from_spectrum`; `np.add.accumulate` adds
    them to the running sum in round order, which gives the bits of adding
    each in its round. Any other block builds each round's states at the
    end of the round before, while its eigenvectors are fresh, and adds
    them in their round. Also
    returns the average announced states after each round numbered in
    `checkpoints`, exactly Hermitian as each announced state is.
    With `transcript`, `per_round` holds the losses -log tr(A_t rho_t), the
    announced states' true traces and min eigenvalues, each (S, T), and the
    step times (T,) in ns, which cover the update and, in a block that
    builds its states round by round, the build of the next state and the
    addition of this one to the running sum, but not `draw` or a block's
    stacked build; without it, none of these is kept.
    """
    _check_eta(eta)
    count = len(labels)
    start = qsb_init(dim)
    L = np.stack([start.log_weights] * count)
    diagonals = _diagonals(L).real
    shift = [0.0] * count
    p = np.stack([start.spectrum] * count)  # the announced states' spectra
    total = np.full(count, start.total)
    V = np.stack([start.vectors] * count)
    if transcript:
        losses = np.empty((count, rounds))
        true_traces = np.empty((count, rounds))
        min_eigs = np.empty((count, rounds))
        step_times = np.empty(rounds, dtype=np.int64)
    rho_sum = np.zeros((count, dim, dim), dtype=complex)
    step = _block_len(dim, count)
    # the spectra of a block's announced states not yet in rho_sum, in round
    # order: rows :kept of these buffers
    kept_p = np.empty((step, count, dim))
    kept_total = np.empty((step, count))
    kept_V = np.empty((step, count, dim, dim), dtype=complex)
    kept = 0

    def add_kept() -> None:
        nonlocal kept
        if not kept:
            return
        built = _from_spectrum((kept_p[:kept] / kept_total[:kept, :, None]).reshape(-1, dim),
                               kept_V[:kept].reshape(-1, dim, dim))
        sums = np.concatenate([rho_sum, built]).reshape(-1, count, dim, dim)
        np.add.accumulate(sums, axis=0, out=sums)
        rho_sum[:] = sums[-1]
        kept = 0

    averages = []
    rho = None  # the announced states, when the round before built them
    for t in range(rounds):
        i = t % step
        if i == 0:
            add_kept()
            block = draw(t, min(t + step, rounds))
            ones = block.one.tolist()
            keep = bool(block.one.all())  # no round of the block reads rho
            tops = block.mu[..., -1].tolist()
        if transcript:
            true_traces[:, t] = _true_traces(shift, total)
            min_eigs[:, t] = p[:, 0] / total
            t0 = time.perf_counter_ns()
        if keep:
            kept_p[kept], kept_total[kept], kept_V[kept] = p, total, V
            kept += 1
            rho = None  # a block before may have built it
        elif rho is None:
            rho = _from_spectrum(p / total[:, None], V)
        try:
            p, total, V, c = _qsb_update(L, diagonals, shift, p, total, V, rho, block, i, ones[i],
                                         tops[i], eta, labels)
        except DomainError as exc:
            raise DomainError(f"round {t + 1}: {exc}") from exc
        if not keep:
            rho_sum += rho
            # a block's last round builds the next states too, as if the next
            # block were of its kind
            rho = _from_spectrum(p / total[:, None], V) if t + 1 < rounds else None
        if transcript:
            step_times[t] = time.perf_counter_ns() - t0
            losses[:, t] = [-math.log(x) for x in c]
        if t + 1 in checkpoints:
            add_kept()
            averages.append(rho_sum / (t + 1))
    add_kept()
    return _Played(
        final_states=_states(L, shift, p, total, V, rounds + 1),
        average_states=rho_sum / rounds,
        checkpoint_averages=averages,
        per_round=(losses, true_traces, min_eigs, step_times) if transcript else None,
    )


# What a game's `draw(start, stop)` returns: rounds start to stop - 1 as an
# (n, D, D) Hermitian stack H, its (n, D) eigenvalues mu (ascending) and its
# eigenvectors U.
_Block = tuple[np.ndarray, np.ndarray, np.ndarray]


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

    def checked(start: int, stop: int) -> _Block:
        H, (mu, U) = _hermitian_psd(stream[start:stop], lambda i: f"round {start + i + 1}: ",
                                    vectors=True)
        return H, mu, U

    return _qst_game(checked, rounds, dim, eta)


def _qst_game(draw: Callable[[int, int], _Block], rounds: int, dim: int,
              eta: float | None) -> QstTranscript:
    """`run_qst_game` on `rounds` observations, drawn a block at a time.

    `draw(start, stop)` returns rounds start to stop - 1 (from 0), already
    checked and decomposed (see `_Block`): the caller says how. `_play`
    calls it a block at a time, and the learner axis is added here, where
    `_records` marks the block's rank-one records.
    """
    if eta is None:
        eta = learning_rate(dim, rounds)

    def one_learner(start: int, stop: int) -> _Records:
        H, mu, U = draw(start, stop)
        return _records(H[:, None], mu[:, None], U[:, None])

    played = _play(dim, rounds, eta, one_learner, transcript=True)
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
