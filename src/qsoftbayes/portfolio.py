"""Soft-Bayes online portfolio selection and its batch comparator.

The learner plays a point on the probability simplex each round, observes a
nonnegative return vector a_t, and pays -log<a_t, w_t>. The update multiplies
each weight by a factor whose weighted mean is 1, which keeps the iterate on
the simplex with no renormalization step. The batch comparator
runs the accelerated projected-gradient loop that the quantum ML oracle in
`tomography` also runs; the loop lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .linalg import DomainError, SolverError, ValidationError


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


@dataclass(frozen=True)
class ComparatorResult:
    """Certified best fixed portfolio in hindsight."""

    weights: np.ndarray
    loss: float        # cumulative loss of `weights` on the stream
    gap: float         # duality-gap certificate at termination
    iterations: int
    restarts: int      # momentum restarts (see `_accelerated_ml`)
    backtracks: int    # step halvings


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
    """One update w' = w * ((1 - eta) + (eta / <a, w>) a), Soft-Bayes' factor form.

    The factor is the diagonal of the quantum learner's G = (1 - eta) I +
    (eta / c) A. It is at least 1 - eta > 0, and its w-weighted mean is
    (1 - eta) + eta <a, w> / <a, w> = 1. So w' is nonnegative and sums to
    what w sums to: the iterate stays on the simplex without renormalizing.
    """
    _check_eta(eta)
    dot = float(np.dot(a, w))  # must be positive for the loss and the update to exist
    if dot <= 0.0:
        raise DomainError(f"degenerate return: <a, w> = {dot!r}")
    return w * ((1.0 - eta) + (eta / dot) * a)


def _check_eta(eta: float) -> None:
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must be in (0, 1), got {eta!r}")


def _check_horizon(dim: int, rounds: float) -> None:
    if dim < 2:
        raise DomainError(f"dim must be at least 2, got {dim}")
    if rounds < 1:
        raise DomainError(f"rounds must be at least 1, got {rounds}")


def learning_rate(dim: int, rounds: float) -> float:
    """Horizon-tuned rate sqrt(log D) / (sqrt(T D) + sqrt(log D)).

    Equivalently eta / (1 - eta) = sqrt(log D / (T D)). `rounds` may be any
    real >= 1 so the identity is checkable at non-integer horizons.
    """
    _check_horizon(dim, rounds)
    root_log = math.sqrt(math.log(dim))
    return root_log / (math.sqrt(rounds * dim) + root_log)


def ops_regret_bound(dim: int, rounds: float | np.ndarray) -> float | np.ndarray:
    """Worst-case regret guarantee 2 sqrt(T D log D) + log D for the tuned rate.

    `rounds` may be an array of horizons; each entry of the result is then
    the scalar call's float at that horizon, bit for bit.
    """
    horizons = np.asarray(rounds)
    _check_horizon(dim, horizons.min())
    bound = 2.0 * np.sqrt(horizons * dim * math.log(dim)) + math.log(dim)
    return bound if horizons.ndim else float(bound)


def run_ops_game(returns: np.ndarray, eta: float | None = None) -> OpsTranscript:
    """Play Soft-Bayes against a (T, D) stream of return vectors."""
    returns = validate_return_stream(returns)
    eta, losses, portfolios = _soft_bayes_lockstep(returns[None], eta, keep_portfolios=True)
    return OpsTranscript(eta=eta, portfolios=portfolios[0], losses=losses[0])


def _soft_bayes_lockstep(
    returns: np.ndarray,
    eta: float | None,
    keep_portfolios: bool = False,
    seeds: Sequence[int] | None = None,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Play Soft-Bayes on each (T, D) stream of a checked (S, T, D) stack, in lockstep.

    Returns `(eta, losses, portfolios)`: the rate played (the horizon-tuned
    one when `eta` is None), the (S, T) losses, and the (S, T, D) portfolios
    announced each round, or None unless `keep_portfolios`. Each round takes
    the S payoffs <a, w> from one `vecdot`, which equals `np.dot` bit for
    bit, and updates all S portfolios by `soft_bayes_step`'s expression in
    five ufunc calls into preallocated buffers, so every stream's losses
    and portfolios are those of a game played alone. A nonpositive payoff
    raises `DomainError`; given the streams' `seeds`, the message names the
    seed and the round.
    """
    streams, rounds, dim = returns.shape
    if eta is None:
        eta = learning_rate(dim, rounds)
    _check_eta(eta)

    keep = 1.0 - eta
    w = np.full((streams, dim), 1.0 / dim)
    ratio = np.empty((streams, 1))  # the round's eta / <a, w>
    factor = np.empty_like(w)       # the round's (1 - eta) + (eta / <a, w>) a
    payoffs = np.empty((rounds, streams))
    portfolios = np.empty_like(returns) if keep_portfolios else None
    # ufunc outputs are passed by position, which is cheaper per call than out=
    rows = zip(returns.swapaxes(0, 1), payoffs, payoffs[:, :, None])
    # after a zero payoff the updates divide by it; that round raises below
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, (a, dot, dot_column) in enumerate(rows):
            if portfolios is not None:
                portfolios[:, t] = w
            np.vecdot(a, w, dot)
            np.divide(eta, dot_column, ratio)
            np.multiply(ratio, a, factor)
            np.add(keep, factor, factor)
            np.multiply(w, factor, w)

    bad = payoffs <= 0.0
    if bad.any():
        t, s = np.unravel_index(int(np.argmax(bad)), bad.shape)
        where = "" if seeds is None else f"seed {seeds[s]}, round {t + 1}: "
        raise DomainError(f"{where}degenerate return: <a, w> = {float(payoffs[t, s])!r}")
    by_stream = payoffs.T.ravel().tolist()
    losses = -np.fromiter(map(math.log, by_stream), float, len(by_stream))
    return eta, losses.reshape(streams, rounds), portfolios


def best_fixed_portfolio(
    returns: np.ndarray, tol: float = 1e-8, max_iters: int = 100_000
) -> ComparatorResult:
    """Best fixed portfolio in hindsight, certified by a duality gap.

    Minimizes the cumulative loss -sum_t log<a_t, w> over the simplex with
    the batch oracle's accelerated projected gradient, from the uniform
    portfolio. Minus its gradient is G_j = sum_t a_tj / <a_t, w>, and the
    solver stops once the first-order gap max_j G_j - T is at most `tol`.
    The projection onto the simplex zeroes coordinates exactly, so optima on
    a face or a vertex of the simplex need no special casing. The loss and
    the gap are those of the returned weights.
    """
    return _best_fixed_portfolio(validate_return_stream(returns), tol, max_iters)


def _best_fixed_portfolio(returns: np.ndarray, tol: float = 1e-8,
                          max_iters: int = 100_000) -> ComparatorResult:
    """`best_fixed_portfolio` on a checked (T, D) float64 stream."""
    rounds, dim = returns.shape
    solved = _accelerated_ml(
        np.full(dim, 1.0 / dim),
        overlaps=lambda v: returns @ v,
        gradient=lambda p: returns.T @ (1.0 / p),
        project=_simplex_projection,
        certificate=lambda G: float(G.max()) - rounds,
        counts=np.ones(rounds), total=1,
        tol=tol, max_iters=max_iters, what="comparator",
    )
    loss = -float(np.log(solved.p).sum())
    return ComparatorResult(weights=solved.x, loss=loss, gap=solved.gap,
                            iterations=solved.iterations, restarts=solved.restarts,
                            backtracks=solved.backtracks)


class _Solved(NamedTuple):
    """What `_accelerated_ml` returns: the point x, its overlaps p, the
    certificate it stopped on, and its counts of steps, momentum restarts
    and step halvings."""

    x: np.ndarray
    p: np.ndarray
    gap: float
    iterations: int
    restarts: int
    backtracks: int


def _accelerated_ml(
    x: np.ndarray,
    overlaps: Callable[[np.ndarray], np.ndarray],
    gradient: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    certificate: Callable[[np.ndarray], float],
    counts: np.ndarray,
    total: int,
    tol: float,
    max_iters: int,
    what: str,
) -> _Solved:
    """Minimize f = -(1/total) sum_k counts_k log p_k(x) over a convex set.

    Accelerated projected gradient with restarts (Shang, Zhang and Ng, PRA
    95, 062336, 2017), the one solver loop of both the quantum ML oracle and
    the classical comparator. Each p_k is linear in x and positive where f
    is finite. The caller supplies its problem's pieces:
    `overlaps(x)`, the vector p at a point x; `gradient(p)`, minus the
    gradient of f at a point with overlaps p; `project(v)`, the feasible
    point nearest to v; and `certificate(g)`, the duality gap at a point
    where minus the gradient is g. `x` is the feasible start; a
    `DomainError` is raised unless its overlaps are all positive.

    Each step moves along minus the gradient from a FISTA extrapolation of
    the last two iterates and projects back. The step halves until it keeps
    every overlap positive and passes a sufficient-decrease test, and grows
    by a fifth after each accepted step; the momentum restarts whenever f
    would rise. Both tests compare overlaps, not values of f, so they stay
    exact to the last bits near the optimum.

    Returns x, p and the certificate once `certificate <= tol` at x, the
    certificate taken on exactly the returned point, with the number of
    steps, of restarts (a step whose momentum was dropped, because f would
    rise or the extrapolated point left the domain) and of step halvings;
    raises `SolverError` with the best gap seen after `max_iters` steps.
    """
    p = overlaps(x)
    if p.min() <= 0.0:
        raise DomainError(f"{what} objective is infinite at the start")
    prev, p_prev = x, p  # the previous iterate and its overlaps
    # theta is Nesterov's t_k from t_0 = 0: the first two steps, like the two
    # after a restart (which sets t = 1), carry no momentum
    theta, step = 0.0, 1.0
    best_gap = math.inf
    restarts = backtracks = 0

    for steps in range(max_iters):
        grad_x = gradient(p)
        gap = certificate(grad_x)
        best_gap = min(best_gap, gap)
        if gap <= tol:
            return _Solved(x, p, gap, steps, restarts, backtracks)

        theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        y, p_y, grad = x, p, grad_x
        if theta > 1.0:
            beta = (theta - 1.0) / theta_next
            p_y = p + beta * (p - p_prev)  # overlaps are linear in the point
            if p_y.min() > 0.0:
                y = x + beta * (x - prev)
                grad = gradient(p_y)
            else:
                p_y, theta_next = p, 1.0
                restarts += 1
        while True:
            cand = project(y + step * grad)
            q = overlaps(cand)
            d = cand - y
            if q.min() <= 0.0 or _bregman(counts, total, p_y, q) > np.vdot(d, d).real / (2.0 * step):
                step /= 2.0
                backtracks += 1
                # from x a short enough step always passes; from an
                # extrapolated y, whose projection may zero an overlap, it
                # need not
                if q.min() > 0.0 or y is x:
                    continue
            elif y is x or _objective_change(counts, total, p, q) <= 0.0:
                break
            # restart the momentum: step from x itself
            y, p_y, grad, theta_next = x, p, grad_x, 1.0
            restarts += 1
        prev, p_prev = x, p
        x, p, theta = cand, q, theta_next
        step *= 1.2

    raise SolverError(
        f"{what} gap {best_gap:.3e} above tolerance {tol:.1e} after {max_iters} iterations",
        gap=best_gap,
        iterations=max_iters,
    )


def _simplex_projection(v: np.ndarray) -> np.ndarray:
    """The point of the probability simplex nearest in Euclidean norm to v.

    Shifts v by the tau with sum(max(v - tau, 0)) = 1 and clips at zero, so
    every coordinate at or below tau is exactly 0.
    """
    top = np.sort(v)[::-1]
    tau = (np.cumsum(top) - 1.0) / np.arange(1, len(v) + 1)
    tau = tau[np.flatnonzero(top > tau)[-1]]
    return np.maximum(v - tau, 0.0)


def _objective_change(counts: np.ndarray, total: int, p: np.ndarray, q: np.ndarray) -> float:
    """f at overlaps q minus f at overlaps p, taken from their ratios."""
    return float(-(counts @ np.log1p((q - p) / p)) / total)


def _bregman(counts: np.ndarray, total: int, p: np.ndarray, q: np.ndarray) -> float:
    """f(q) - f(p) - <grad f(p), q - p> in overlaps, without subtracting values of f.

    Equals (1/total) sum_k c_k (u_k - log(1 + u_k)) with u = q / p - 1, a
    sum of nonnegative terms that, unlike a difference of two values of f,
    stays accurate when q is close to p.
    """
    u = (q - p) / p
    return float(counts @ (u - np.log1p(u)) / total)
