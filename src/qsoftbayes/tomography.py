"""Maximum-likelihood quantum state tomography.

Provides the measurement side of the problem (POVMs, synthetic datasets
sampled from a true state), the negative average log-likelihood objective,
the stochastic online-to-batch estimator built on the Q-Soft-Bayes learner,
and an independent batch solver used as the optimization-error oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ensembles import make_rng
from .linalg import (
    TRACE_TOL,
    DomainError,
    ValidationError,
    _from_spectrum,
    _hermitian_psd,
    hermitian_eigh,
    hermitianize,
    spectral,
    validate_density,
)
from .portfolio import _accelerated_ml, _simplex_projection, learning_rate
from .qsb import QsbState, _play, _records


class Dataset:
    """Measurement records as their distinct elements plus a record index.

    Record n is `elements[index[n]]`. The (K, D, D) complex `elements` are
    distinct bit for bit and in order of first appearance; `counts` holds
    each one's number of records. Build from a record stack, `matrices=M`,
    or from candidates and each record's candidate, `elements=C, index=i`.

    Building one runs `validate_dataset`, with `label`, so every instance
    holds valid records and its consumers need not check them again.
    `elements` may share memory with the stack it was built from: do not
    modify either in place.
    """

    def __init__(self, matrices=None, povm_indices=None, outcome_indices=None, *,
                 elements=None, index=None, label: Callable[[int], str] | None = None) -> None:
        if (matrices is None) == (elements is None) or (elements is None) != (index is None):
            raise ValidationError("a dataset takes either matrices, or elements and an index")
        stack = np.asarray(elements if matrices is None else matrices)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[0] < 1:
            raise ValidationError(f"expected a nonempty stack of D x D matrices, got shape {stack.shape}")
        index = np.arange(len(stack)) if index is None else np.asarray(index)
        if index.ndim != 1 or len(index) < 1 or index.dtype.kind not in "iu":
            raise ValidationError(f"index must be a nonempty list of integers, got {index!r}")
        if index.min() < 0 or index.max() >= len(stack):
            raise ValidationError(f"index holds values outside [0, {len(stack)})")
        self.elements, self.index = _canonical(stack, index.astype(np.int64, copy=False))
        self.counts = np.bincount(self.index)
        self.povm_indices, self.outcome_indices = povm_indices, outcome_indices
        validate_dataset(self, label)

    def __len__(self) -> int:
        return self.index.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def has_provenance(self) -> bool:
        return self.povm_indices is not None and self.outcome_indices is not None

    @property
    def matrices(self) -> np.ndarray:
        """The (N, D, D) record stack, built anew on every access."""
        return self.elements[self.index]


def _canonical(candidates: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge bit-equal candidates, drop unused ones, number the rest by first use.

    Returns `(elements, index)`; `elements[index]` equals `candidates[index]`
    cast to complex bit for bit, so count-weighted sums over the elements add
    exactly the values sums over the records would. Input already in that
    form comes back as given: a complex stack without repeats is not copied.
    """
    C = np.ascontiguousarray(candidates, dtype=complex)
    rows = C.reshape(len(C), -1)
    # maps a hash of each distinct candidate's bytes to the first candidate
    # holding them; a match is confirmed on the bytes (not by value: -0.0 and
    # 0.0 differ), and a hash shared by unequal candidates moves on to the
    # next free key. No candidate's bytes outlive its turn.
    firsts: dict[int, int] = {}
    owner = np.empty(len(C), dtype=np.int64)
    for k, row in enumerate(rows):
        data = row.tobytes()
        key = hash(data)
        while (j := firsts.setdefault(key, k)) != k and rows[j].tobytes() != data:
            key += 1
        owner[k] = j
    used, first, inverse = np.unique(owner[index], return_index=True, return_inverse=True)
    order = np.argsort(first)  # positions in used, by first appearance
    if np.array_equal(used[order], np.arange(len(C))):
        return C, index
    # argsort(order) is the inverse permutation: each used candidate's number
    return C[used[order]], np.argsort(order)[inverse]


@dataclass(frozen=True)
class MlResult:
    """Output of one stochastic estimation run."""

    rho_bar: np.ndarray
    checkpoints: np.ndarray       # rounds at which the objective was evaluated
    objective_values: np.ndarray  # f of the running average at each checkpoint
    eta: float
    seed: int
    rounds: int
    final_state: QsbState         # the learner's state after the last round
    # rounds by block kind, shared by the lockstep seeds; see `qsb._play`
    learner_rounds: dict[str, int] = field(default_factory=dict)

    @property
    def final_objective(self) -> float:
        if len(self.objective_values) == 0:
            raise ValueError("no checkpoints were recorded")
        return float(self.objective_values[-1])


def validate_povm(elements: np.ndarray) -> np.ndarray:
    """Check PSD elements summing to the identity; return a (..., J, D, D) stack.

    Leading axes hold several POVMs. All elements get `validate_observation`'s
    checks in one stacked pass. A failure names the first failing element j and,
    given several POVMs, its POVM k, or the POVM furthest from summing to I.
    """
    try:
        M = np.asarray(elements, dtype=complex)
    except ValueError as exc:  # a ragged list
        raise ValidationError(f"elements must form one (..., J, D, D) stack: {exc}") from exc
    if M.ndim < 3 or M.shape[-1] != M.shape[-2] or 0 in M.shape[:-2]:
        raise ValidationError(f"expected a (..., J, D, D) stack of elements, got shape {M.shape}")
    J = M.shape[-3]
    povm = (lambda k: "") if M.ndim == 3 else (lambda k: f"POVM {k} ")
    _hermitian_psd(M.reshape(-1, *M.shape[-2:]), lambda i: f"{povm(i // J)}element {i % J}: ")
    dev = np.abs(M.sum(axis=-3) - np.eye(M.shape[-1])).max(axis=(-2, -1)).ravel()
    k = int(np.argmax(dev))
    if dev[k] > TRACE_TOL:
        raise ValidationError(f"{povm(k)}elements sum to identity only within {dev[k]:.3e}")
    return M


def validate_dataset(data: Dataset, label: Callable[[int], str] | None = None) -> Dataset:
    """Check every record is a valid observation; return the dataset.

    The distinct elements get `validate_observation`'s checks in one stacked
    pass, so each is checked once however many records hold it; a failure
    names the first record n holding the first failing element, by the
    prefix `label(n)` (default `record n: `). Every `Dataset` runs this when
    it is built.
    """
    prefix = label or (lambda n: f"record {n}: ")
    _hermitian_psd(data.elements, lambda k: prefix(int(np.argmax(data.index == k))))
    for name, idx in (("povm_indices", data.povm_indices), ("outcome_indices", data.outcome_indices)):
        if idx is not None and len(idx) != len(data):
            raise ValidationError(f"{name} has length {len(idx)}, expected {len(data)}")
    return data


def _overlaps(matrices: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """tr(A rho) for every matrix A of a (K, D, D) stack, as a real vector.

    One matrix-vector product over the stack's (K, D^2) view:
    tr(A rho) = sum_ij A_ij (rho^T)_ij.
    """
    return (matrices.reshape(len(matrices), -1) @ rho.T.ravel()).real


def _positive_overlaps(data: Dataset, rho: np.ndarray) -> np.ndarray:
    """tr(E_k rho) for every element; a nonpositive one names its first record."""
    p = _overlaps(data.elements, np.asarray(rho))
    if p.min() <= 0.0:
        k = int(np.argmin(p))
        raise DomainError(
            f"tr(A_n rho) = {float(p[k])!r} is not positive at record n={np.argmax(data.index == k)}"
        )
    return p


def _neg_log_likelihood(data: Dataset, p: np.ndarray) -> float:
    """-(1/N) sum_k c_k log p_k, the record mean in frequency form."""
    return float(-(data.counts @ np.log(p)) / len(data))


def _stationarity(data: Dataset, p: np.ndarray) -> np.ndarray:
    """(1/N) sum_k (c_k / p_k) E_k, the record mean in frequency form.

    One matrix-vector product over the (K, 2 D^2) real view of the elements.
    """
    E = data.elements
    R = ((data.counts / p) @ E.view(float).reshape(len(E), -1)).view(complex)
    return hermitianize(R.reshape(data.dim, data.dim) / len(data))


def ml_objective(rho: np.ndarray, data: Dataset) -> float:
    """Negative mean log-likelihood (1/N) sum_n -log tr(A_n rho).

    Evaluated over the distinct records as -(1/N) sum_k c_k log tr(E_k rho).
    """
    return _neg_log_likelihood(data, _positive_overlaps(data, rho))


def _outcome_cdf(rho: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The outcome CDFs of (..., J, D, D) POVMs `M` on `rho`: the cumulative tr(M_j rho).

    The probabilities are clipped to [0, 1] and renormalized, but only when
    they deviate from the simplex by at most TRACE_TOL; larger deviations
    mean the inputs were not POVMs and a density matrix.
    """
    p = _overlaps(M.reshape(-1, *M.shape[-2:]), rho).reshape(M.shape[:-2])
    total = p.sum(axis=-1)
    worst = total.flat[np.argmax(np.abs(total - 1.0))]
    if p.min() < -TRACE_TOL or p.max() > 1.0 + TRACE_TOL or abs(worst - 1.0) > TRACE_TOL:
        raise DomainError(
            f"outcome probabilities deviate from the simplex beyond {TRACE_TOL:.1e}: "
            f"min {p.min():.3e}, max {p.max():.3e}, sum {worst:.12f}"
        )
    p = np.clip(p, 0.0, 1.0)
    return np.cumsum(p / p.sum(axis=-1, keepdims=True), axis=-1)


def generate_dataset(
    rho_true: np.ndarray,
    povms: np.ndarray,
    shots: int,
    rng: np.random.Generator,
) -> Dataset:
    """Simulate `shots` measurements of rho_true, cycling through the POVMs.

    Shot n uses POVM n mod P of the (P, J, D, D) `povms`: one uniform draw,
    made in shot order, inverted through that POVM's CDF, so outcome j has
    probability tr(M_j rho) and the records are a pure function of the
    generator. Only the POVMs the shots use become candidates, as a view.
    """
    if shots < 1:
        raise ValidationError(f"shots must be positive, got {shots}")
    rho_true = validate_density(rho_true)
    M = validate_povm(povms)
    if M.ndim != 4:
        raise ValidationError(f"expected a (P, J, D, D) stack of POVMs, got shape {M.shape}")
    cdfs = _outcome_cdf(rho_true, M)
    P, J = cdfs.shape
    # one double per shot, in shot order: the same draws as rng.random() per shot
    uniforms = rng.random(shots)
    povm_idx = np.arange(shots, dtype=np.int64) % P
    out_idx = np.empty(shots, dtype=np.int64)
    for k, cdf in enumerate(cdfs[:shots]):
        own = slice(k, None, P)  # the shots that use POVM k
        j = np.searchsorted(cdf, uniforms[own], side="right")
        out_idx[own] = np.minimum(j, J - 1)
    # shot n is outcome j of POVM k: candidate k * J + j of the used POVMs' elements
    return Dataset(elements=M[:shots].reshape(-1, *M.shape[2:]), index=povm_idx * J + out_idx,
                   povm_indices=povm_idx, outcome_indices=out_idx)


_QUBIT_BASES = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex).T / math.sqrt(2),
    "Y": np.array([[1, 1j], [1, -1j]], dtype=complex).T / math.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}


def pauli_basis_povms(qubits: int) -> np.ndarray:
    """Rank-one projective POVMs for every Pauli string in {X, Y, Z}^q.

    Returns one (3^q, 2^q, 2^q, 2^q) stack, the strings in lexicographic order;
    outcome j of a POVM projects onto the tensor product of single-qubit
    eigenvectors selected by the bits of j, the first qubit's the most
    significant: column j of the Kronecker product of the single-qubit bases.
    """
    if qubits < 1:
        raise ValidationError(f"qubits must be positive, got {qubits}")
    bases = np.stack(list(_QUBIT_BASES.values()))
    U = np.ones((1, 1, 1), dtype=complex)  # not the first bases: that flips signed zeros
    for _ in range(qubits):  # each string's Kronecker product with each qubit basis
        n = 2 * U.shape[-1]
        U = (U[:, None, :, None, :, None] * bases[:, None, :, None, :]).reshape(-1, n, n)
    C = np.ascontiguousarray(U.swapaxes(-1, -2))  # row j of POVM k: outcome j's vector
    return C[:, :, :, None] * C.conj()[:, :, None, :]


def _normalize_checkpoints(checkpoints, rounds: int) -> np.ndarray:
    if checkpoints is None:
        cps = []
        k = 1
        while k < rounds:
            cps.append(k)
            k *= 2
        cps.append(rounds)
        return np.array(sorted(set(cps)), dtype=np.int64)
    cps = np.array(sorted(set(int(c) for c in checkpoints)), dtype=np.int64)
    if len(cps) and (cps[0] < 1 or cps[-1] > rounds):
        raise ValidationError(f"checkpoints must lie in [1, {rounds}]")
    return cps


def stochastic_qsb(
    data: Dataset,
    rounds: int,
    seeds,
    eta: float | None = None,
    checkpoints=None,
) -> list[MlResult]:
    """Estimate the ML state by running one learner per seed on resampled records.

    Each round every learner draws one record uniformly from its seed's
    generator, as one `integers(N)` call would, plays that record's distinct
    element (equal to it bit for bit) and accumulates the announced state.
    The learners run in lockstep, yet result s equals a loop of `qsb_step`
    over seed s's drawn records, bit for bit, whatever the other seeds. Each
    estimate is the average of all announced states; the objective of the
    running average is evaluated at the requested checkpoints (default: a
    geometric schedule plus the final round). A domain error names the seed
    and the round.
    """
    if rounds < 1:
        raise ValidationError(f"rounds must be at least 1, got {rounds}")
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValidationError("at least one seed is required")
    dim = data.dim
    n_records = len(data)
    if eta is None:
        eta = learning_rate(dim, rounds)
    cps = _normalize_checkpoints(checkpoints, rounds)

    # every element's spectrum, kind and projector, gathered a block at a time
    elements = data.elements
    mu, U = spectral(elements)
    records = _records(elements, mu, U)
    rngs = [make_rng(seed) for seed in seeds]

    def draw(start: int, stop: int) -> _Records:
        # integers(N, size=n) yields the draws of n integers(N) calls, in
        # order (pinned by the tests that replay the draws one at a time)
        drawn = np.stack([rng.integers(n_records, size=stop - start) for rng in rngs], axis=1)
        return records.take(data.index[drawn])  # (n, S) elements

    played = _play(dim, rounds, eta, draw, [f"seed {seed}: " for seed in seeds],
                   frozenset(cps.tolist()))
    return [
        MlResult(
            rho_bar=played.average_states[s],
            checkpoints=cps,
            objective_values=np.array(
                [ml_objective(avg[s], data) for avg in played.checkpoint_averages], dtype=float
            ),
            eta=eta,
            seed=seed,
            rounds=rounds,
            final_state=played.final_states[s],
            learner_rounds=played.learner_rounds,
        )
        for s, seed in enumerate(seeds)
    ]


def stationarity_operator(rho: np.ndarray, data: Dataset) -> np.ndarray:
    """R(rho) = (1/N) sum_n A_n / tr(A_n rho).

    At an interior ML optimum R(rho) = I; in general the largest eigenvalue
    of R minus one is a duality gap for the ML problem, and tr(R(rho) rho)
    is identically one. Evaluated over the distinct records as
    (1/N) sum_k (c_k / tr(E_k rho)) E_k.
    """
    return _stationarity(data, _positive_overlaps(data, rho))


def batch_ml_solve(
    data: Dataset, tol: float = 1e-7, max_iters: int = 100_000
) -> tuple[np.ndarray, float]:
    """Minimize the ML objective over density matrices; certified by duality gap.

    Runs the accelerated projected-gradient loop shared with the classical
    comparator (Shang, Zhang and Ng, PRA 95, 062336, 2017) from the maximally
    mixed state. Minus the gradient of f is R(rho), and each step projects
    back onto the density matrices with one eigendecomposition.

    Terminates when lambda_max(R(rho)) - 1 <= tol, which certifies rho
    within tol of stationarity regardless of the path taken. The certificate
    is taken on exactly the returned matrix, through the same sums as
    `stationarity_operator`; f is its `ml_objective`. Every sum runs over
    the distinct records, weighted by their counts.
    """
    return _ml_oracle(data, tol, max_iters)[:2]


def _ml_oracle(data: Dataset, tol: float = 1e-7, max_iters: int = 100_000
               ) -> tuple[np.ndarray, float, float, int, int, int]:
    """`batch_ml_solve`'s `(rho, f)`, then the certificate lambda_max(R(rho)) - 1
    it stopped on and the solver's counts of steps, restarts and backtracks."""
    solved = _accelerated_ml(
        np.eye(data.dim, dtype=complex) / data.dim,
        overlaps=lambda x: _overlaps(data.elements, x),
        gradient=lambda q: _stationarity(data, q),
        project=_density_projection,
        certificate=lambda R: float(np.linalg.eigvalsh(R)[-1]) - 1.0,
        counts=data.counts, total=len(data),
        tol=tol, max_iters=max_iters, what="ML solver",
    )
    return (solved.x, _neg_log_likelihood(data, solved.p), solved.gap, solved.iterations,
            solved.restarts, solved.backtracks)


def _density_projection(H: np.ndarray) -> np.ndarray:
    """The density matrix nearest in Frobenius norm to an exactly Hermitian H.

    Keeps H's eigenvectors and projects its eigenvalues onto the simplex.
    """
    w, V = hermitian_eigh(H)
    w = _simplex_projection(w)
    keep = w > 0.0
    return _from_spectrum(w[keep], V[:, keep])
