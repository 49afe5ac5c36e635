"""Online quantum state tomography with the matrix Soft-Bayes learner.

Each round the learner announces a density matrix rho_t, an opponent reveals
a nonzero PSD observation A_t, and the learner pays -log tr(A_t rho_t). The
update multiplies the weights W_t by (1 - eta) I + eta A_t / tr(A_t rho_t).

The state keeps log W_t as a running Hermitian accumulator and adds one
matrix logarithm per step, which is exact, as exp and log of Hermitian
matrices invert each other. Its top eigenvalue is folded into a scalar
`shift` every step, so that exp never over- or underflows, even where the
true trace exp(shift) * tr(exp(log W_t)) drops below double range over
10^5 rounds. That trace is tracked because the theory says it is at most 1
and never increases. An announced state is kept as its spectrum and built
only where it is read, and a rank-one observation reads tr(A rho) from that
spectrum in O(D^2).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
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
    learner_rounds: dict[str, int] = field(default_factory=dict)  # by block kind; see `_play`

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

    Plays A as a one-round block of one learner, by the learner loop's own
    code (`_Lockstep`), on a copy of the state's accumulator, so `state` is
    left as it was and a chain of `qsb_step` calls equals the loop bit for
    bit. A domain error names the round, `state.round`.
    """
    A = np.asarray(A, dtype=complex)
    if not np.any(A):
        raise ValidationError("observation matrix is exactly zero")
    _check_eta(eta)
    mu, U = spectral(A[None])
    block = _records(A[None, None], mu[None], U[None])
    loop = _Lockstep([state], eta, 1, 1, first=state.round)
    loop.kind_of(block)(block, 0, 0, 1)
    return loop.states(state.round + 1)[0]


def _diagonals(L: np.ndarray) -> np.ndarray:
    """A writable (S, D) view of the diagonals of a C-contiguous (S, D, D) stack."""
    return L.reshape(len(L), -1)[:, :: L.shape[-1] + 1]


@lru_cache
def _below_diagonal(dim: int) -> np.ndarray:
    """The (D, D) mask of the strict lower triangle, read-only as it is shared."""
    mask = np.tri(dim, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _true_traces(shift: list[float], total: np.ndarray) -> list[float]:
    """Each learner's true weight trace exp(shift) * total."""
    return [math.exp(s + math.log(x)) for s, x in zip(shift, total.tolist())]


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
    ones, P = np.count_nonzero(one), None
    if ones:
        u = U[..., -1]
        P = u[..., :, None] * u.conj()[..., None, :]
    if ones == one.size:
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


def _log_g_step(overlaps: np.ndarray, mu: np.ndarray, U: np.ndarray, UH: np.ndarray,
                eta: float, labels: Sequence[str]) -> np.ndarray:
    """log G = U diag(log((1 - eta) + (eta / c) mu)) U^dagger of each record.

    The general update, for records of any rank; it fails, naming the first
    failing learner by its label, when an eigenvalue of G is at or below
    EVAL_FLOOR. G has A's eigenvectors, so log G needs no decomposition of
    its own. `eigh` reads only the lower triangles and the real diagonals,
    so the accumulators need not be Hermitian, and log G is not
    hermitianized.
    """
    g = (1.0 - eta) + (eta / overlaps)[:, None] * mu
    low = g[:, 0].tolist()
    if min(low) <= EVAL_FLOOR:
        s = next(s for s, x in enumerate(low) if x <= EVAL_FLOOR)
        raise DomainError(f"{labels[s]}eigenvalue {low[s]!r} of G is outside the domain of log")
    return (U * np.log(g)[:, None, :]) @ UH


def _rank_one_step(c: list[float], top: list[float], P: np.ndarray, eta: float,
                   w: np.ndarray) -> np.ndarray:
    """log G of rank-one records A = mu_top P, less its constant.

    log G = log(1 - eta) I + log1p(kappa mu_top) P with kappa = eta / ((1 - eta) c):
    the accumulator gains the scaled projector, and the loop adds the
    constant to the shift, one scalar per learner, as Soft-Bayes scales each
    weight by one factor. c and top hold each learner's overlap and mu_top;
    the scalars go into the complex (S, 1, 1) buffer w. Both logarithms are
    of numbers above 1 - eta > 0, so no floor check is needed.
    """
    rate = eta / (1.0 - eta)
    w[:, 0, 0] = [math.log1p(rate / x * m) for x, m in zip(c, top)]
    return w * P


def _fold(lam: np.ndarray, diagonals: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Fold the accumulators' top eigenvalues out of their diagonals, so exp stays in range.

    Returns the new states' spectra p = exp(lam - top) (ascending), their
    sums total = tr(exp(L)) and the tops, which the caller adds to the shifts.
    """
    top = lam[:, -1:]
    p = np.exp(lam - top)
    diagonals -= top
    return p, np.add.reduce(p, 1), top[:, 0].tolist()


def _announced(p: np.ndarray, total: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The (S, D, D) announced states, built from their spectra."""
    return _from_spectrum(p / total[:, None], V)


@lru_cache(maxsize=1024)
def _subsets(one: tuple[bool, ...]) -> tuple[slice | np.ndarray | None, ...]:
    """The learner rows of a round's rank-one and of its other records.

    Each is a slice when its rows are consecutive, so the round steps them
    on views, else an index array; None when the round has none. Cached by
    the round's rank-one marks, which repeat from round to round.
    """
    def rows(kind: bool) -> slice | np.ndarray | None:
        picked = [s for s, x in enumerate(one) if x is kind]
        if not picked:
            return None
        if picked[-1] - picked[0] == len(picked) - 1:
            return slice(picked[0], picked[-1] + 1)
        return np.array(picked)

    return rows(True), rows(False)


# The quantum game has the classical game's regret guarantee, in one definition.
qsb_regret_bound = ops_regret_bound


def _kind(block: _Records) -> str:
    """Whether all of a block's records are rank one, none or some: `_records`
    keeps no A for the first and no P for the second."""
    return "rank_one" if block.A is None else "general" if block.P is None else "mixed"


class _Lockstep:
    """S learners stepped in lockstep from `states`, a block of rounds at a time.

    Owns the (S, D, D) accumulator L of log weights, of which `eigh` reads
    only the lower triangles and real diagonals (`diagonals` is a view of
    their real parts), the S shifts, and the announced states as their
    spectra: eigenvalues p, their sums `total` and eigenvectors V. Each
    round loop takes a block of `_Records` of shape (n, S), its first round
    `start` (from 0) and its rows a to b - 1, and writes the state in place.
    `rho_sum` is the running sum of the announced states; `kept` buffers
    up to `block` rounds of spectra until `add_kept` builds them. Error
    messages number round 0 as `first` and name the learner by `labels`.
    """

    def __init__(self, states: Sequence[QsbState], eta: float, rounds: int, block: int,
                 labels: Sequence[str] = ("",), first: int = 1,
                 per_round: tuple[np.ndarray, ...] | None = None) -> None:
        count, dim = len(states), states[0].dim
        self.L = np.array([s.log_weights for s in states], dtype=complex)
        self.diagonals, self.shift = _diagonals(self.L).real, [s.shift for s in states]
        self.p = np.array([s.spectrum for s in states])
        self.total = np.array([s.total for s in states])
        self.V = np.array([s.vectors for s in states])
        self.rho = None  # the announced states, when the round before built them
        self.eta, self.rounds, self.first = eta, rounds, first
        self.labels = np.array(labels, dtype=object)  # indexed by row subsets
        self.rho_sum = np.zeros((count, dim, dim), dtype=complex)
        self.kept = (np.empty((block, count, dim)), np.empty((block, count)),
                     np.empty((block, count, dim, dim), dtype=complex))
        self.kept_rounds, self.per_round = 0, per_round
        self.w = np.empty((count, 1, 1), dtype=complex)  # see `_rank_one_step`

    def kind_of(self, block: _Records) -> Callable[[_Records, int, int, int], None]:
        """The loop for a block of records all rank one, or not."""
        return self.rank_one_rounds if _kind(block) == "rank_one" else self.mixed_rounds

    def states(self, round: int) -> list[QsbState]:
        """The S learners' states. Each state's log weights are the Hermitian
        matrix that `eigh` reads from its accumulator: the lower triangle,
        mirrored, and the real diagonal."""
        L, total = self.L, self.total
        log_weights = np.where(_below_diagonal(L.shape[-1]), L, L.conj().swapaxes(-1, -2))
        _diagonals(log_weights)[:] = self.diagonals
        return [
            QsbState(log_weights=log_weights[s], shift=self.shift[s], spectrum=self.p[s],
                     total=t, vectors=self.V[s], round=round, true_trace=trace)
            for s, (t, trace) in enumerate(zip(total.tolist(), _true_traces(self.shift, total)))
        ]

    def _failed(self, t: int, exc: DomainError) -> DomainError:
        return DomainError(f"round {self.first + t}: {exc}")

    def _overlap(self, c: list[float]) -> DomainError:
        s = next(s for s, x in enumerate(c) if x <= 0.0)
        return DomainError(f"{self.labels[s]}tr(A rho) = {c[s]!r} is not positive")

    def _before(self, t: int, shift: list[float], p: np.ndarray, total: np.ndarray) -> int:
        """Record round t's announced true traces and min eigenvalues; start its clock."""
        self.per_round[1][:, t] = _true_traces(shift, total)
        self.per_round[2][:, t] = p[:, 0] / total
        return time.perf_counter_ns()

    def _after(self, t: int, c: list[float], t0: int) -> None:
        """Record round t's step time and its losses -log tr(A rho)."""
        self.per_round[3][t] = time.perf_counter_ns() - t0
        self.per_round[0][:, t] = [-math.log(x) for x in c]

    def rank_one_rounds(self, block: _Records, start: int, a: int, b: int) -> None:
        """Rounds whose records are all rank one: no rho is read, so the
        announced states are kept as their spectra, to be built and added to
        `rho_sum` in one stack (`add_kept`)."""
        self.add_kept()
        L, diagonals, shift, w, eta = self.L, self.diagonals, self.shift, self.w, self.eta
        p, total, V = self.p, self.total, self.V
        kept_p, kept_total, kept_V = self.kept
        record, eigh, keep = self.per_round is not None, hermitian_eigh, math.log1p(-eta)
        rows = zip(range(start + a, start + b), block.U[a:b, ..., -1, None], block.P[a:b],
                   block.mu[a:b, :, -1].tolist())
        try:
            for k, (t, u, P, top) in enumerate(rows):
                if record:
                    t0 = self._before(t, shift, p, total)
                kept_p[k], kept_total[k], kept_V[k] = p, total, V
                c = _spectral_overlaps(p, total, V, u, top)
                if min(c) <= 0.0:
                    raise self._overlap(c)
                L += _rank_one_step(c, top, P, eta, w)
                lam, V = eigh(L)
                p, total, tops = _fold(lam, diagonals)
                shift[:] = [x + keep + y for x, y in zip(shift, tops)]
                if record:
                    self._after(t, c, t0)
        except DomainError as exc:
            raise self._failed(t, exc) from exc
        self.p, self.total, self.V, self.rho = p, total, V, None
        self.kept_rounds = b - a

    def add_kept(self) -> None:
        """Build the kept states in one stack and add them to `rho_sum` in
        round order: `np.add.accumulate`, seeded with the sum, gives the bits
        of adding each in its round. Called before `rho_sum` is read or
        added to."""
        n, self.kept_rounds = self.kept_rounds, 0
        if not n:
            return
        kept_p, kept_total, kept_V = self.kept
        count, dim = kept_p.shape[1:]
        built = _from_spectrum((kept_p[:n] / kept_total[:n, :, None]).reshape(-1, dim),
                               kept_V[:n].reshape(-1, dim, dim))
        sums = np.concatenate([self.rho_sum, built]).reshape(-1, count, dim, dim)
        np.add.accumulate(sums, axis=0, out=sums)
        self.rho_sum[:] = sums[-1]

    def mixed_rounds(self, block: _Records, start: int, a: int, b: int) -> None:
        """Rounds of a block with some record of higher rank. Each round
        steps its rank-one rows and its other rows each as one stack
        (`_subsets`), each kind taking its own overlap and update on its own
        rows only. The other rows read tr(A rho) from the built states,
        which each round builds for the next while its eigenvectors are
        fresh, and adds to `rho_sum` in its round; the last round of the run
        builds none."""
        self.add_kept()
        L, diagonals, shift, eta = self.L, self.diagonals, self.shift, self.eta
        p, total, V, rho, rho_sum = self.p, self.total, self.V, self.rho, self.rho_sum
        record, eigh, vecdot = self.per_round is not None, hermitian_eigh, np.vecdot
        w, keep, last = self.w, math.log1p(-eta), self.rounds - 1
        labels, cbuf = self.labels, np.empty(len(L))  # a round's overlaps, in learner order
        if rho is None:
            rho = _announced(p, total, V)
        rows = zip(range(start + a, start + b), block.one[a:b].tolist(), block.A[a:b],
                   block.mu[a:b], block.U[a:b], block.UH[a:b],
                   repeat(None) if block.P is None else block.P[a:b])
        try:
            for t, one, A, mu, U, UH, P in rows:
                if record:
                    t0 = self._before(t, shift, p, total)
                r, g = _subsets(tuple(one))
                if r is not None:
                    top = mu[r, -1].tolist()
                    cr = _spectral_overlaps(p[r], total[r], V[r], U[r, :, -1, None], top)
                    cbuf[r] = cr
                if g is not None:  # one stacked vecdot, equal bit for bit to each vdot
                    Ag, rg = A[g], rho[g]
                    cg = vecdot(Ag.reshape(len(Ag), -1), rg.reshape(len(rg), -1)).real
                    cbuf[g] = cg
                c = cbuf.tolist()
                if min(c) <= 0.0:
                    raise self._overlap(c)
                if r is not None:
                    L[r] += _rank_one_step(cr, top, P[r], eta, w[r])
                if g is not None:
                    L[g] += _log_g_step(cg, mu[g], U[g], UH[g], eta, labels[g])
                lam, V = eigh(L)
                p, total, tops = _fold(lam, diagonals)
                shift[:] = [(x + keep if o else x) + y for x, o, y in zip(shift, one, tops)]
                rho_sum += rho
                rho = _announced(p, total, V) if t < last else None
                if record:
                    self._after(t, c, t0)
        except DomainError as exc:
            raise self._failed(t, exc) from exc
        self.p, self.total, self.V, self.rho = p, total, V, rho


class _Played(NamedTuple):
    """What `_play` returns for S learners run in lockstep."""

    final_states: list[QsbState]
    average_states: np.ndarray              # (S, D, D), mean announced state
    checkpoint_averages: list[np.ndarray]   # (S, D, D) per checkpoint, in order
    per_round: tuple[np.ndarray, ...] | None  # see `_play`
    learner_rounds: dict[str, int]          # rounds by block kind


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

    Runs one learner per label in lockstep. `draw(start, stop)` returns
    rounds start to stop - 1 (from 0) of all learners as `_Records` of shape
    (n, S); it is called for blocks of `_block_len(D, S)` rounds, in order,
    and each block runs in the loop of its kind (`_Lockstep.kind_of`). Also
    returns the average announced states after each round in `checkpoints`
    and the rounds in blocks of each kind (`_kind`). With `transcript`,
    `per_round` holds the (S, T) losses, true traces and min eigenvalues of
    the announced states and the (T,) step times in ns. A step time covers
    the update and, in a block that builds its states round by round, the
    build of the next state, but not `draw` or a rank-one block's stacked
    build.
    """
    _check_eta(eta)
    count = len(labels)
    step = _block_len(dim, count)
    per_round = None
    if transcript:
        per_round = (np.empty((count, rounds)), np.empty((count, rounds)),
                     np.empty((count, rounds)), np.empty(rounds, dtype=np.int64))
    loop = _Lockstep([qsb_init(dim)] * count, eta, rounds, min(step, rounds), labels,
                     per_round=per_round)
    marks, done = sorted(checkpoints), 0
    averages = []
    learner_rounds = dict.fromkeys(("rank_one", "general", "mixed"), 0)
    for t in range(0, rounds, step):
        stop = min(t + step, rounds)
        block = draw(t, stop)
        learner_rounds[_kind(block)] += stop - t
        run = loop.kind_of(block)
        a = t
        while done < len(marks) and marks[done] <= stop:  # a checkpoint ends a run of rounds
            b = marks[done]
            run(block, t, a - t, b - t)
            loop.add_kept()
            averages.append(loop.rho_sum / b)
            a, done = b, done + 1
        if a < stop:
            run(block, t, a - t, stop - t)
    loop.add_kept()
    return _Played(
        final_states=loop.states(rounds + 1),
        average_states=loop.rho_sum / rounds,
        checkpoint_averages=averages,
        per_round=per_round,
        learner_rounds=learner_rounds,
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

    def checked(start: int, stop: int) -> _Records:
        H, (mu, U) = _hermitian_psd(stream[start:stop], lambda i: f"round {start + i + 1}: ",
                                    vectors=True)
        return _records(H[:, None], mu[:, None], U[:, None])

    return _qst_game(checked, rounds, dim, eta)[0]


def _qst_game(draw: Callable[[int, int], _Records], rounds: int, dim: int, eta: float | None,
              labels: Sequence[str] = ("",)) -> list[QstTranscript]:
    """`run_qst_game` on S streams of `rounds` observations, one per label,
    played in lockstep and drawn a block at a time.

    `draw(start, stop)` returns rounds start to stop - 1 (from 0) of every
    stream as `_Records` of shape (n, S), already checked and decomposed:
    the caller says how (see `_play`). A domain error names the round and
    the stream's label. Returns one transcript per stream; they share the
    step times, each of which covers one round of all S streams.
    """
    if eta is None:
        eta = learning_rate(dim, rounds)
    played = _play(dim, rounds, eta, draw, labels, transcript=True)
    losses, traces, min_eigs, step_times = played.per_round
    return [QstTranscript(eta=eta, losses=loss, true_traces=trace, min_eigs=low,
                          step_times_ns=step_times, average_state=average, final_state=final,
                          learner_rounds=played.learner_rounds)
            for loss, trace, low, average, final
            in zip(losses, traces, min_eigs, played.average_states, played.final_states)]


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
