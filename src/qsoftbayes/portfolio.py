"""Soft-Bayes online portfolio selection and its batch comparator.

The learner plays a point on the probability simplex each round, observes a
nonnegative return vector a_t, and pays -log<a_t, w_t>. The update mixes the
multiplicative-weights direction with the current iterate, which keeps the
iterate on the simplex with no renormalization step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import make_rng
from .linalg import DomainError, ValidationError


class SolverError(RuntimeError):
    """An iterative solver hit its iteration cap before certifying tolerance."""

    def __init__(self, message: str, gap: float, iterations: int):
        super().__init__(message)
        self.gap = gap
        self.iterations = iterations


@dataclass(frozen=True)
class OpsTranscript:
    """Per-round record of one online portfolio game."""

    eta: float
    portfolios: np.ndarray  # (T, D), row t is the portfolio announced at round t
    losses: np.ndarray      # (T,)

    @property
    def cumulative_losses(self) -> np.ndarray:
        return np.cumsum(self.losses)

    @property
    def total_loss(self) -> float:
        return float(np.sum(self.losses))

    @property
    def average_portfolio(self) -> np.ndarray:
        return self.portfolios.mean(axis=0)


@dataclass(frozen=True)
class ComparatorResult:
    """Certified best fixed portfolio in hindsight."""

    weights: np.ndarray
    loss: float        # cumulative loss of `weights` on the stream
    gap: float         # duality-gap certificate at termination
    iterations: int


def validate_portfolio(w: np.ndarray, trace_tol: float = 1e-9) -> np.ndarray:
    """Check nonnegativity and unit sum; return the vector as float64."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValidationError(f"portfolio must be a vector, got shape {w.shape}")
    if np.any(w < 0):
        raise ValidationError(f"portfolio has negative entry {w.min():.3e}")
    dev = abs(float(w.sum()) - 1.0)
    if dev > trace_tol:
        raise ValidationError(f"portfolio sum deviates from 1 by {dev:.3e}")
    return w


def validate_returns(a: np.ndarray) -> np.ndarray:
    """Check a return vector: finite, nonnegative entries, not identically zero."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ValidationError(f"return must be a vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("return has a non-finite entry")
    if np.any(a < 0):
        raise ValidationError(f"return has negative entry {a.min():.3e}")
    if not np.any(a > 0):
        raise ValidationError("return vector is identically zero")
    return a


def validate_return_stream(returns: np.ndarray) -> np.ndarray:
    """Check a (T, D) stream of return vectors; return it as float64.

    Every row gets `validate_returns`' checks in one stacked pass; an error
    names the first failing round.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2 or returns.shape[0] < 1:
        raise ValidationError(f"expected a nonempty (T, D) stream, got shape {returns.shape}")
    bad = ~np.isfinite(returns).all(axis=1) | (returns < 0).any(axis=1) | ~(returns > 0).any(axis=1)
    if bad.any():
        t = int(np.argmax(bad))
        try:
            validate_returns(returns[t])
        except ValidationError as exc:
            raise ValidationError(f"round {t + 1}: {exc}") from exc
    return returns


def soft_bayes_step(w: np.ndarray, a: np.ndarray, eta: float) -> np.ndarray:
    """One update w' = (1 - eta) w + eta (a * w) / <a, w>.

    Both terms are convex combinations of simplex points, so w' is on the
    simplex without renormalization.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must be in (0, 1), got {eta!r}")
    dot = float(np.dot(a, w))
    if dot <= 0.0:
        raise DomainError(f"degenerate return: <a, w> = {dot!r}")
    return (1.0 - eta) * w + eta * (a * w) / dot


def learning_rate(dim: int, rounds: float) -> float:
    """Horizon-tuned rate sqrt(log D) / (sqrt(T D) + sqrt(log D)).

    Equivalently eta / (1 - eta) = sqrt(log D / (T D)). `rounds` may be any
    real >= 1 so the identity is checkable at non-integer horizons.
    """
    if dim < 2:
        raise DomainError(f"dim must be at least 2, got {dim}")
    if rounds < 1:
        raise DomainError(f"rounds must be at least 1, got {rounds}")
    root_log = math.sqrt(math.log(dim))
    return root_log / (math.sqrt(rounds * dim) + root_log)


def ops_regret_bound(dim: int, rounds: float) -> float:
    """Worst-case regret guarantee 2 sqrt(T D log D) + log D for the tuned rate."""
    if dim < 2:
        raise DomainError(f"dim must be at least 2, got {dim}")
    if rounds < 1:
        raise DomainError(f"rounds must be at least 1, got {rounds}")
    return 2.0 * math.sqrt(rounds * dim * math.log(dim)) + math.log(dim)


def run_ops_game(returns: np.ndarray, eta: float | None = None) -> OpsTranscript:
    """Play Soft-Bayes against a (T, D) stream of return vectors."""
    returns = validate_return_stream(returns)
    rounds, dim = returns.shape
    if eta is None:
        eta = learning_rate(dim, rounds)

    w = np.full(dim, 1.0 / dim)
    portfolios = np.empty_like(returns)
    losses = np.empty(rounds)
    for t in range(rounds):
        a = returns[t]
        portfolios[t] = w
        losses[t] = -math.log(float(np.dot(a, w)))
        w = soft_bayes_step(w, a, eta)
    return OpsTranscript(eta=eta, portfolios=portfolios, losses=losses)


def best_fixed_portfolio(
    returns: np.ndarray, tol: float = 1e-8, max_iters: int = 100_000
) -> ComparatorResult:
    """Best fixed portfolio in hindsight, certified by a duality gap.

    Runs the multiplicative fixed-point iteration w <- w * G / T with
    G_j = sum_t a_tj / <a_t, w>, which is monotone in the cumulative loss,
    and stops once the first-order gap max_j G_j - T is at most `tol`.
    Columns that never pay out lose all weight after one step, so streams
    whose optimum sits on a simplex face need no special casing.
    """
    returns = validate_return_stream(returns)
    rounds, dim = returns.shape

    w = np.full(dim, 1.0 / dim)
    gap = math.inf
    for it in range(1, max_iters + 1):
        payoff = returns @ w
        if payoff.min() <= 0.0:
            raise DomainError("comparator objective is infinite at the current iterate")
        G = returns.T @ (1.0 / payoff)
        gap = float(G.max()) - rounds
        if gap <= tol:
            loss = -float(np.log(payoff).sum())
            return ComparatorResult(weights=w, loss=loss, gap=gap, iterations=it - 1)
        w = w * G / rounds
        w = w / w.sum()  # absorb rounding drift; mathematically already 1
    raise SolverError(
        f"comparator gap {gap:.3e} above tolerance {tol:.1e} after {max_iters} iterations",
        gap=gap,
        iterations=max_iters,
    )


def kelly_online_to_batch(sampler, rounds: int, seed: int, eta: float | None = None) -> np.ndarray:
    """Average of the portfolios announced against a sampled return stream.

    `sampler(rng)` must draw exactly one return vector per call; with a fixed
    seed the sequence of announced portfolios is deterministic. Drawing one
    variate per round keeps the stream alignable with other learners run on
    the same seed.
    """
    if rounds < 1:
        raise ValidationError(f"rounds must be at least 1, got {rounds}")
    rng = make_rng(seed)
    a = validate_returns(sampler(rng))
    dim = a.shape[0]
    if eta is None:
        eta = learning_rate(dim, rounds)
    w = np.full(dim, 1.0 / dim)
    w_sum = np.zeros(dim)
    for t in range(rounds):
        if t > 0:
            a = validate_returns(sampler(rng))
        w_sum += w
        w = soft_bayes_step(w, a, eta)
    return w_sum / rounds
