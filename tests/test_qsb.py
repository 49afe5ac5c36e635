import dataclasses
import math

import numpy as np
import pytest

from qsoftbayes import qsb
from qsoftbayes.ensembles import (
    make_rng,
    psd_observation_stream,
    random_density,
    random_psd,
    rank1_observation_stream,
    uniform_returns,
)
from qsoftbayes.linalg import (
    DomainError,
    ValidationError,
    herm_exp,
    herm_log,
    hermitianize,
    spectral,
    validate_observation,
)
from qsoftbayes.portfolio import learning_rate, run_ops_game, soft_bayes_step
from qsoftbayes.qsb import (
    QsbState,
    eta_bar,
    qsb_init,
    qsb_regret_bound,
    qsb_step,
    reverse_jensen_gap,
    run_qst_game,
)
from qsoftbayes.tomography import Dataset, pauli_basis_povms, stochastic_qsb


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via the phase-fixed QR of a Ginibre matrix."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


class TestQsbInit:

    def test_starts_maximally_mixed(self):
        state = qsb_init(4)
        assert np.allclose(state.rho, np.eye(4) / 4)
        assert state.true_trace == 1.0
        assert state.round == 1
        assert state.rho_min_eig == 0.25
        assert state.dim == 4

    def test_log_weights_exponentiate_to_uniform(self):
        state = qsb_init(3)
        assert np.allclose(herm_exp(state.log_weights), np.eye(3) / 3, atol=1e-15)
        assert state.shift == 0.0

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValidationError):
            qsb_init(0)


class TestQsbStep:

    @pytest.mark.parametrize("dim, pairs", [(2, 2000), (4, 2000), (8, 2000), (16, 2000), (64, 300)])
    def test_stacked_overlaps_equal_each_learners_vdot(self, dim, pairs):
        """The update takes every learner's tr(A rho) from one stacked vecdot.
        It must equal each learner's own vdot bit for bit, or the losses, and
        with them every artifact, move."""
        rng = make_rng(40 + dim)
        G = rng.standard_normal((2, pairs, dim, dim)) + 1j * rng.standard_normal((2, pairs, dim, dim))
        A, W = G @ G.conj().swapaxes(-1, -2)  # Wishart PSD pairs
        rho = W / np.trace(W, axis1=1, axis2=2).real[:, None, None]
        stacked = np.vecdot(A.reshape(pairs, -1), rho.reshape(pairs, -1)).real
        assert np.array_equal(stacked, [np.vdot(a, r).real for a, r in zip(A, rho)])

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32, 64])
    def test_accumulated_states_equal_each_rounds_sum(self, dim):
        """The learner loop adds a block's deferred states to the running sum
        with one `np.add.accumulate`, seeded with the sum so far. It must
        equal adding them one round at a time, bit for bit, or the average
        states move."""
        rng = make_rng(50 + dim)
        rounds, learners = 40, 2
        G = rng.standard_normal((rounds, learners, dim, dim)) * (1 + 1j)
        states = G @ G.conj().swapaxes(-1, -2) / dim
        running = np.zeros((learners, dim, dim), dtype=complex)
        for rho in states[:7]:  # a running sum that is not zero
            running += rho
        sums = np.concatenate([running[None], states[7:]])
        np.add.accumulate(sums, axis=0, out=sums)
        for t, rho in enumerate(states[7:], start=1):
            running += rho
            assert np.array_equal(sums[t], running)

    def test_identity_observation_is_a_fixed_point(self):
        """tr(I rho) = 1, the multiplier collapses to I, nothing moves."""
        state = qsb_step(qsb_init(2), np.eye(2), eta=0.3)
        assert np.allclose(state.rho, np.eye(2) / 2, atol=1e-14)
        assert abs(state.true_trace - 1.0) <= 1e-12
        assert state.round == 2

    def test_diagonal_hand_case(self):
        # A = diag(2, 0), eta = 1/2: multiplier diag(1.5, 0.5) applied to I/2
        state = qsb_step(qsb_init(2), np.diag([2.0, 0.0]), eta=0.5)
        assert np.allclose(state.rho, np.diag([0.75, 0.25]), atol=1e-14)
        assert abs(state.true_trace - 1.0) <= 1e-12
        assert state.rho_min_eig == pytest.approx(0.25, abs=1e-14)

    def test_dense_hand_case(self):
        state = qsb_step(qsb_init(2), np.ones((2, 2)), eta=0.5)
        expected = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert np.allclose(state.rho, expected, atol=1e-14)
        assert abs(state.true_trace - 1.0) <= 1e-12

    def test_log_weights_stay_shifted_to_zero_top(self):
        rng = make_rng(5)
        state = qsb_init(3)
        for _ in range(4):
            state = qsb_step(state, random_psd(rng, 3), eta=0.2)
        top = np.linalg.eigvalsh(hermitianize(state.log_weights))[-1]
        assert abs(top) <= 1e-12
        assert math.isfinite(state.shift)

    def test_matches_direct_update_over_many_rounds(self):
        """The shifted accumulator must track exp(log W + log G) verbatim.

        The reference route keeps the unnormalized weights W explicitly and
        renormalizes afresh each round; fine for 40 rounds, it underflows
        on long horizons, which is the whole point of the shift.
        """
        rng = make_rng(77)
        eta = 0.2
        state = qsb_init(3)
        W = np.eye(3, dtype=complex) / 3
        for _ in range(40):
            A = random_psd(rng, 3)
            rho_ref = W / np.trace(W).real
            G = (1 - eta) * np.eye(3) + eta * A / np.vdot(A, rho_ref).real
            W = herm_exp(herm_log(W) + herm_log(G))
            state = qsb_step(state, A, eta)
            assert np.linalg.norm(state.rho - W / np.trace(W).real) <= 1e-9
            assert state.true_trace == pytest.approx(np.trace(W).real, rel=1e-9)

    def test_rank_deficient_observation_with_a_tiny_negative_eigenvalue(self):
        U = random_unitary(make_rng(6), 3)
        A = (U * np.array([-1e-12, 0.0, 1.0])) @ U.conj().T
        state = qsb_init(3)
        for _ in range(3):
            state = qsb_step(state, A, eta=0.4)
            assert np.all(np.isfinite(state.log_weights))
            assert np.all(np.isfinite(state.rho))
            assert math.isfinite(state.shift) and state.true_trace <= 1.0 + 1e-12

    def test_log_argument_at_the_floor_is_a_domain_error(self):
        # A = diag(1, -1/2) at rho = I/2, eta = 1/2: G = diag(1.5, 0.5 - 1) is singular
        with pytest.raises(DomainError, match="domain of log"):
            qsb_step(qsb_init(2), np.diag([1.0, -0.5]), eta=0.5)
        # A = diag(3, -1): c = 1 and (1 - eta) + (eta / c) mu_min is exactly 0
        with pytest.raises(DomainError, match="domain of log"):
            qsb_step(qsb_init(2), np.diag([3.0, -1.0]), eta=0.5)

    def test_rejects_zero_observation(self):
        with pytest.raises(ValidationError):
            qsb_step(qsb_init(2), np.zeros((2, 2)), eta=0.5)

    def test_rejects_eta_out_of_range(self):
        for eta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                qsb_step(qsb_init(2), np.eye(2), eta=eta)

    def test_rejects_orthogonal_observation(self):
        rank1 = QsbState(
            log_weights=np.zeros((2, 2), dtype=complex),
            shift=0.0,
            spectrum=np.array([0.0, 1.0]),  # rho = diag(1, 0)
            total=1.0,
            vectors=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            round=1,
            true_trace=1.0,
        )
        with pytest.raises(DomainError):
            qsb_step(rank1, np.diag([0.0, 1.0]), eta=0.5)


def exactly_hermitian(M: np.ndarray) -> bool:
    return np.array_equal(M, M.conj().T)


class TestExitStates:
    """The update decomposes accumulators whose strict upper triangles it
    never writes; every state it hands out is rebuilt exactly Hermitian."""

    @pytest.mark.parametrize("dim", [3, 4])
    def test_every_state_is_exactly_hermitian_and_qsb_step_copies(self, dim):
        """So are the game's average state and the estimator's rho_bar."""
        rng = make_rng(60 + dim)
        stream = psd_observation_stream(rng, 30, dim)
        game = run_qst_game(stream)
        states, averages = [game.final_state], [game.average_state]
        for seeds in ((5,), (5, 6)):
            for result in stochastic_qsb(Dataset(matrices=stream), 40, seeds):
                states.append(result.final_state)
                averages.append(result.rho_bar)
        state = qsb_init(dim)
        for A in stream[:10]:
            log_weights, rho = state.log_weights.copy(), state.rho.copy()
            stepped = qsb_step(state, A, eta=0.3)
            assert np.array_equal(state.log_weights, log_weights)
            assert np.array_equal(state.rho, rho)
            states.append(stepped)
            state = stepped
        for state in states:
            assert exactly_hermitian(state.log_weights)
            assert exactly_hermitian(state.rho)
        # the mean of exactly Hermitian states is one, so it is not hermitianized
        for average in averages:
            assert exactly_hermitian(average)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 64])
    def test_a_step_reads_only_the_lower_triangle_and_real_diagonal(self, dim):
        """Noise in the strict upper triangle and in the imaginary diagonal of
        the log weights changes no bit of the next step: `eigh` reads the
        lower triangle only (numpy's default UPLO='L') and the diagonal's
        real part."""
        rng = make_rng(70 + dim)
        stream = psd_observation_stream(rng, 4, dim)
        state = qsb_init(dim)
        for A in stream[:3]:
            state = qsb_step(state, A, eta=0.3)
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        upper = np.triu(np.ones((dim, dim), dtype=bool), k=1)
        noisy = state.log_weights + np.where(upper, noise, 0.0) + 1j * np.diag(noise.real.diagonal())
        assert not exactly_hermitian(noisy)
        ours = qsb_step(state, stream[3], eta=0.3)
        theirs = qsb_step(dataclasses.replace(state, log_weights=noisy), stream[3], eta=0.3)
        for field in ("log_weights", "rho"):
            assert np.array_equal(getattr(ours, field), getattr(theirs, field))
        for field in ("shift", "true_trace", "rho_min_eig"):
            assert getattr(ours, field) == getattr(theirs, field)


def rank_one_records() -> list[tuple[str, np.ndarray]]:
    """Rank-one records of every kind the package makes, each named."""
    records = []
    for q in (1, 2, 3):
        for k, E in enumerate(pauli_basis_povms(q).reshape(-1, 2 ** q, 2 ** q)):
            records.append((f"pauli q={q} element {k}", E))
    for dim in (2, 8, 64):
        for t, A in enumerate(rank1_observation_stream(make_rng(dim), 4, dim)):
            records.append((f"rank1 stream D={dim} round {t}", A))
    rng = make_rng(31)
    for dim in (2, 4, 16):
        records.append((f"random_psd rank 1 D={dim}", random_psd(rng, dim, rank=1)))
    return records


def is_rank_one(A: np.ndarray) -> bool:
    """Whether the update reads A as a rank-one record."""
    mu, U = spectral(A[None])
    return qsb._records(A[None, None], mu[None], U[None]).one.tolist() == [[True]]


class TestRankOneUpdate:
    """A rank-one record A = mu u u^dagger steps the accumulator by
    log1p(kappa mu) u u^dagger and the shift by log1p(-eta), in place of the
    general U diag(log g) U^dagger."""

    def general_step(self, monkeypatch, state, A, eta):
        """qsb_step with every record read as full rank."""
        with monkeypatch.context() as m:
            m.setattr(qsb, "_EPS", -1.0)  # no eigenvalue is at most a negative bound
            return qsb_step(state, A, eta)

    def test_a_rank_one_step_equals_the_general_step(self, monkeypatch):
        records = rank_one_records()
        starts = {}
        worst = 0.0
        for name, A in records:
            assert is_rank_one(A), name
            dim = A.shape[0]
            if dim not in starts:  # a state away from the maximally mixed one
                state = qsb_init(dim)
                for B in psd_observation_stream(make_rng(90 + dim), 3, dim):
                    state = qsb_step(state, B, eta=0.3)
                starts[dim] = state
            for eta in (0.05, 0.5):
                ours = qsb_step(starts[dim], A, eta)
                theirs = self.general_step(monkeypatch, starts[dim], A, eta)
                worst = max(worst,
                            np.abs(ours.log_weights - theirs.log_weights).max(),
                            np.abs(ours.rho - theirs.rho).max(),
                            abs(ours.shift - theirs.shift),
                            abs(ours.true_trace - theirs.true_trace))
        assert worst <= 1e-13

    def test_the_spectral_overlap_equals_the_overlap_with_rho(self):
        """A rank-one record A = mu u u^dagger reads tr(A rho) from the
        announced spectrum, mu sum_j w_j |v_j^dagger u|^2, without building
        rho; it agrees with vdot(A, rho) to 1e-14 relative."""
        starts = {}
        worst = 0.0
        for name, A in rank_one_records():
            dim = A.shape[0]
            if dim not in starts:  # a state away from the maximally mixed one
                state = qsb_init(dim)
                for B in psd_observation_stream(make_rng(95 + dim), 3, dim):
                    state = qsb_step(state, B, eta=0.3)
                starts[dim] = state
            state = starts[dim]
            mu, U = spectral(A[None])
            ours = qsb._spectral_overlaps(state.spectrum[None], np.array([state.total]),
                                          state.vectors[None], U[..., -1, None],
                                          mu[:, -1].tolist())[0]
            theirs = float(np.vdot(A, state.rho).real)
            worst = max(worst, abs(ours - theirs) / theirs)
        assert worst <= 1e-14

    def test_each_round_takes_the_update_of_its_record(self, monkeypatch):
        calls = []
        for name in ("_rank_one_step", "_log_g_step"):
            step = getattr(qsb, name)
            monkeypatch.setattr(qsb, name, lambda L, *args, _n=name, _s=step:
                                calls.append((_n, len(L))) or _s(L, *args))
        state = qsb_init(4)
        qsb_step(state, pauli_basis_povms(2)[5, 1], eta=0.3)
        assert calls == [("_rank_one_step", 1)]
        calls.clear()
        qsb_step(state, random_psd(make_rng(4), 4), eta=0.3)
        assert calls == [("_log_g_step", 1)]
        calls.clear()
        qsb_step(state, np.diag([1.0, 1e-12, 0.0, 0.0]), eta=0.3)  # rank two
        assert calls == [("_log_g_step", 1)]

    def test_the_weight_trace_never_grows_over_a_long_rank_one_run(self):
        stream = rank1_observation_stream(make_rng(33), 10_000, 4)
        assert all(is_rank_one(A) for A in stream[:50])
        transcript = run_qst_game(stream)
        traces = np.append(transcript.true_traces, transcript.final_state.true_trace)
        assert traces.max() <= 1.0 + 1e-12
        assert np.diff(traces).max() <= 1e-12
        assert traces[-1] < 1.0


class TestQsbRegretBound:

    def test_frozen_values(self):
        assert qsb_regret_bound(4, 100) == 48.482695261738876
        assert qsb_regret_bound(2, 8) == 7.353584069821527

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            qsb_regret_bound(1, 10)
        with pytest.raises(DomainError):
            qsb_regret_bound(4, 0)


class TestRunQstGame:

    def test_identity_stream_loses_nothing(self):
        transcript = run_qst_game(np.broadcast_to(np.eye(3), (5, 3, 3)))
        assert np.allclose(transcript.losses, 0.0, atol=1e-14)
        assert np.allclose(transcript.true_traces, 1.0, atol=1e-12)
        assert np.allclose(transcript.average_state, np.eye(3) / 3, atol=1e-13)
        assert transcript.final_state.round == 6

    def test_transcript_shapes_and_default_rate(self):
        rng = make_rng(3)
        transcript = run_qst_game(psd_observation_stream(rng, 7, 2))
        assert transcript.losses.shape == (7,)
        assert transcript.true_traces.shape == (7,)
        assert transcript.min_eigs.shape == (7,)
        assert transcript.step_times_ns.shape == (7,)
        assert np.all(transcript.step_times_ns >= 0)
        assert transcript.eta == learning_rate(2, 7)
        assert transcript.cumulative_losses[-1] == pytest.approx(transcript.total_loss)

    def test_reduces_to_classical_game_on_diagonal_streams(self):
        """Embedding return vectors on the diagonal replays Soft-Bayes."""
        rng = make_rng(21)
        returns = uniform_returns(rng, 60, 4)
        stream = np.zeros((60, 4, 4), dtype=complex)
        for t in range(60):
            np.fill_diagonal(stream[t], returns[t])
        quantum = run_qst_game(stream)
        classical = run_ops_game(returns)
        assert quantum.eta == classical.eta
        assert np.max(np.abs(quantum.losses - classical.losses)) <= 1e-10
        portfolios = [np.full(4, 0.25)]  # the portfolio announced at each round
        for a in returns[:-1]:
            portfolios.append(soft_bayes_step(portfolios[-1], a, classical.eta))
        assert np.max(np.abs(np.diag(quantum.average_state).real
                             - np.mean(portfolios, axis=0))) <= 1e-10
        off_diag = quantum.average_state - np.diag(np.diag(quantum.average_state))
        assert np.max(np.abs(off_diag)) <= 1e-12

    def test_unitary_covariance(self):
        rng = make_rng(8)
        stream = psd_observation_stream(rng, 30, 3)
        U = random_unitary(rng, 3)
        rotated = np.einsum("ij,tjk,lk->til", U, stream, U.conj())
        base = run_qst_game(stream)
        conj = run_qst_game(rotated)
        assert np.max(np.abs(base.losses - conj.losses)) <= 1e-8
        expected_avg = U @ base.average_state @ U.conj().T
        assert np.max(np.abs(conj.average_state - expected_avg)) <= 1e-8

    def test_trace_shrinks_and_state_stays_interior(self):
        rng = make_rng(13)
        transcript = run_qst_game(psd_observation_stream(rng, 200, 4))
        traces = transcript.true_traces
        assert np.all(traces <= 1.0 + 1e-9)
        assert np.all(np.diff(traces) <= 1e-12)
        assert np.all(transcript.min_eigs > 0.0)

    def test_equals_a_loop_of_qsb_step(self):
        """The shared learner loop changes no bit: the game must equal qsb_step
        applied to each round's validated observation."""
        rng = make_rng(17)
        stream = psd_observation_stream(rng, 40, 3)
        # off-Hermitian within tolerance, so the validated copy differs from the input
        stream = stream + 1e-14 * (rng.random((40, 3, 3)) + 1j * rng.random((40, 3, 3)))
        transcript = run_qst_game(stream)

        eta = learning_rate(3, 40)
        state = qsb_init(3)
        rho_sum = np.zeros((3, 3), dtype=complex)
        losses, true_traces, min_eigs = [], [], []
        for A in stream:
            A = validate_observation(A)
            losses.append(-math.log(float(np.vdot(A, state.rho).real)))
            true_traces.append(state.true_trace)
            min_eigs.append(state.rho_min_eig)
            rho_sum += state.rho
            state = qsb_step(state, A, eta)
        assert np.array_equal(transcript.losses, losses)
        assert np.array_equal(transcript.true_traces, true_traces)
        assert np.array_equal(transcript.min_eigs, min_eigs)
        assert np.array_equal(transcript.average_state, hermitianize(rho_sum / 40))
        assert np.array_equal(transcript.final_state.rho, state.rho)
        assert np.array_equal(transcript.final_state.log_weights, state.log_weights)
        assert transcript.final_state.shift == state.shift

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            run_qst_game(np.eye(2))
        stream = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
        stream[1] = np.array([[0.0, 1.0], [1.0, 0.0]])  # indefinite
        with pytest.raises(ValidationError, match="round 2"):
            run_qst_game(stream)


class TestEtaBar:

    def test_hand_values(self):
        assert eta_bar(0.5) == 1.0
        assert eta_bar(1.0 / 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_dominates_the_log_term(self):
        # -log(1 - eta) <= eta / (1 - eta) underpins the bound's constants
        for eta in np.linspace(0.05, 0.95, 19):
            assert -math.log1p(-eta) <= eta_bar(eta) + 1e-15

    def test_domain(self):
        for eta in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                eta_bar(eta)


class TestReverseJensenGap:

    def test_identity_observable_has_closed_form_gap(self):
        """At X = I both sides are explicit: the gap is D log(1/(1-eta))."""
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        gap = reverse_jensen_gap(np.eye(3), rho, eta=0.3)
        assert gap == pytest.approx(1.0700248318161971, abs=1e-13)

    def test_scalar_grid_is_nonnegative(self):
        for x in (0.1, 0.5, 1.0, 2.0, 10.0):
            for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
                gap = reverse_jensen_gap(np.array([[x]]), np.array([[1.0]]), eta)
                assert gap >= -1e-12

    def test_random_triples_are_nonnegative(self):
        rng = make_rng(99)
        for _ in range(100):
            X = random_psd(rng, 4)
            rho = random_density(rng, 4)
            eta = float(rng.uniform(0.05, 0.95))
            assert reverse_jensen_gap(X, rho, eta) >= -1e-9

    def test_orthogonal_support_rejected(self):
        with pytest.raises(DomainError):
            reverse_jensen_gap(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), eta=0.5)

    def test_a_singular_mix_names_the_eigenvalue(self):
        with pytest.raises(DomainError,
                           match=r"^X eigenvalue -20\.0 makes the mixed matrix singular$"):
            reverse_jensen_gap(np.diag([1.0, -20.0]), np.diag([1.0, 0.0]), eta=0.5)

    def test_eta_domain(self):
        with pytest.raises(DomainError):
            reverse_jensen_gap(np.eye(2), np.eye(2) / 2, eta=0.0)
