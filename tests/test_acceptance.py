"""End-to-end checks of the package's headline guarantees.

Every test here runs a full-size instance at the advertised tolerance and
prints a single verdict line (the -rP flag in pyproject.toml echoes those
lines into the report even when everything passes). The instance sizes are
the contract: do not shrink them to make the suite faster.
"""

import math
from pathlib import Path

import numpy as np

from qsoftbayes.cli import main, ml_error_bound
from qsoftbayes.ensembles import (
    make_rng,
    psd_observation_stream,
    random_density,
    random_hermitian,
    random_psd,
    rank1_observation_stream,
    uniform_returns,
)
from qsoftbayes.linalg import golden_thompson_gap
from qsoftbayes.portfolio import (
    best_fixed_portfolio,
    learning_rate,
    ops_regret_bound,
    run_ops_game,
    soft_bayes_step,
)
from qsoftbayes.qsb import (
    qsb_init,
    qsb_regret_bound,
    qsb_step,
    reverse_jensen_gap,
    run_qst_game,
)
from qsoftbayes.serialize import save_matrix
from qsoftbayes.tomography import (
    Dataset,
    batch_ml_solve,
    generate_dataset,
    pauli_basis_povms,
    stationarity_operator,
    stochastic_qsb,
)


def verdict(label: str, ok: bool, detail: str) -> None:
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_trace_bound():
    """Unnormalized weight trace never grows and never exceeds one.

    100 random PSD streams, dimensions cycling through 2/4/8, 1000 rounds
    each; the post-final-update state is included in the checked sequence.
    """
    worst_increase = -math.inf
    worst_trace = -math.inf
    for i in range(100):
        dim = (2, 4, 8)[i % 3]
        stream = psd_observation_stream(make_rng(1000 + i), 1000, dim)
        transcript = run_qst_game(stream)
        traces = np.append(transcript.true_traces, transcript.final_state.true_trace)
        worst_increase = max(worst_increase, float(np.diff(traces).max()))
        worst_trace = max(worst_trace, float(traces.max()))
    ok = worst_increase <= 1e-9 and worst_trace <= 1.0 + 1e-9
    verdict("trace bound", ok,
            f"100 streams x 1000 rounds, max increase {worst_increase:.2e}, "
            f"max trace {worst_trace:.12f}")


def test_classical_reduction():
    """On diagonal streams the quantum iterates equal the classical ones.

    D = 8, T = 1000, 10 seeds; the two learners are stepped side by side and
    the diagonal of every announced state is compared to the portfolio.
    """
    dim, rounds = 8, 1000
    eta = learning_rate(dim, rounds)
    worst = 0.0
    for seed in range(10):
        returns = uniform_returns(make_rng(2000 + seed), rounds, dim)
        state = qsb_init(dim)
        w = np.full(dim, 1.0 / dim)
        for t in range(rounds):
            worst = max(worst, float(np.abs(np.diag(state.rho).real - w).max()))
            A = np.zeros((dim, dim), dtype=complex)
            np.fill_diagonal(A, returns[t])
            state = qsb_step(state, A, eta)
            w = soft_bayes_step(w, returns[t], eta)
        worst = max(worst, float(np.abs(np.diag(state.rho).real - w).max()))
    ok = worst <= 1e-10
    verdict("classical reduction", ok,
            f"D=8, T=1000, 10 seeds, sup |diag(rho_t) - w_t| = {worst:.2e}")


def test_regret_bounds():
    """Realized regret <= 2 sqrt(T D log D) + log D in both games.

    50 classical streams (D split 17/17/16 over 2/4/8, T = 1000) and 50
    quantum rank-one streams (D = 4, T = 500); comparators are solved to a
    certified duality gap of at most 1e-7, re-verified here from scratch.
    """
    worst_excess = -math.inf
    worst_gap = 0.0

    dims = [2] * 17 + [4] * 17 + [8] * 16
    for i, dim in enumerate(dims):
        returns = uniform_returns(make_rng(3000 + i), 1000, dim)
        transcript = run_ops_game(returns)
        comparator = best_fixed_portfolio(returns, tol=1e-7)
        regret = transcript.total_loss - comparator.loss
        worst_excess = max(worst_excess, regret - ops_regret_bound(dim, 1000))
        worst_gap = max(worst_gap, comparator.gap)

    for i in range(50):
        stream = rank1_observation_stream(make_rng(3500 + i), 500, 4)
        transcript = run_qst_game(stream)
        rho_hat, f_star = batch_ml_solve(Dataset(matrices=stream), tol=1e-7)
        gap = float(np.linalg.eigvalsh(
            stationarity_operator(rho_hat, Dataset(matrices=stream)))[-1]) - 1.0
        regret = transcript.total_loss - 500 * f_star
        worst_excess = max(worst_excess, regret - qsb_regret_bound(4, 500))
        worst_gap = max(worst_gap, gap)

    ok = worst_excess <= 0.0 and worst_gap <= 1e-7
    verdict("regret bounds", ok,
            f"50 classical + 50 quantum streams, worst regret - bound = "
            f"{worst_excess:.3f}, worst comparator gap = {worst_gap:.2e}")


def test_online_to_batch_convergence():
    """Averaged stochastic estimates reach the batch optimum at the
    guaranteed rate: mean final optimality gap within the bound
    2 sqrt(D log D / T) + log D / T, and the seed-mean gap decreasing
    across geometric checkpoints with 10% slack.

    Two qubits, Pauli-basis dataset of 6000 shots, 100000 rounds, 20 seeds.
    """
    rng = make_rng(40)
    truth = random_density(rng, 4)
    data = generate_dataset(truth, pauli_basis_povms(2), 6000, rng)
    _, f_star = batch_ml_solve(data, tol=1e-7)

    rounds = 100_000
    results = stochastic_qsb(data, rounds, range(20))
    curves = np.array([result.objective_values - f_star for result in results])
    mean_final = float(curves[:, -1].mean())
    bound = ml_error_bound(4, rounds)

    seed_mean = curves.mean(axis=0)
    monotone = bool(np.all(seed_mean[1:] <= 1.1 * seed_mean[:-1]))
    ok = mean_final <= bound and monotone
    verdict("online-to-batch convergence", ok,
            f"20 seeds x 1e5 rounds, mean final gap {mean_final:.5f} vs bound "
            f"{bound:.5f}, seed-mean checkpoint curve "
            f"{'monotone within 10%' if monotone else 'NOT monotone'}")


def test_reverse_jensen_inequality():
    """The matrix reverse-Jensen gap is never below -1e-9.

    500 random (X, rho, eta) triples per dimension 2/4/8, plus the scalar
    grid x in [0.1, 10], eta in [0.1, 0.9] where the matrix statement
    collapses to the scalar one.
    """
    worst = math.inf
    for x in np.linspace(0.1, 10.0, 100):
        for eta in np.linspace(0.1, 0.9, 9):
            worst = min(worst, reverse_jensen_gap(
                np.array([[x]]), np.array([[1.0]]), float(eta)))
    triples = 0
    for dim in (2, 4, 8):
        rng = make_rng(50 + dim)
        for _ in range(500):
            X = random_psd(rng, dim) * float(rng.uniform(0.1, 4.0))
            rho = random_density(rng, dim)
            eta = float(rng.uniform(0.01, 0.99))
            worst = min(worst, reverse_jensen_gap(X, rho, eta))
            triples += 1
    ok = worst >= -1e-9
    verdict("reverse Jensen", ok,
            f"{triples} random triples + 900 scalar grid points, "
            f"min gap {worst:.2e}")


def test_golden_thompson_inequality():
    """tr(exp(A) exp(B)) >= tr(exp(A + B)) within -1e-9.

    200 random Hermitian pairs per dimension 2/4/8 at mixed scales.
    """
    worst = math.inf
    pairs = 0
    for dim in (2, 4, 8):
        rng = make_rng(60 + dim)
        for _ in range(200):
            A = random_hermitian(rng, dim, scale=float(rng.uniform(0.05, 1.5)))
            B = random_hermitian(rng, dim, scale=float(rng.uniform(0.05, 1.5)))
            worst = min(worst, golden_thompson_gap(A, B))
            pairs += 1
    ok = worst >= -1e-9
    verdict("Golden-Thompson", ok, f"{pairs} pairs, min gap {worst:.2e}")


def test_batch_oracle():
    """The batch solver reproduces the diagonal closed form, certifies a
    duality gap of at most 1e-7, and lower-bounds random states.

    20 random datasets (10 at D = 2, 10 at D = 4), 10^4 random states each.
    """
    records = [np.diag([1.0, 0.0])] * 3 + [np.diag([0.0, 1.0])] * 7
    _, f = batch_ml_solve(Dataset(matrices=np.array(records, dtype=complex)))
    closed_form_err = abs(f - 0.6108643020548935)

    worst_gap = 0.0
    worst_domination = -math.inf
    for i in range(20):
        dim, qubits = (2, 1) if i < 10 else (4, 2)
        rng = make_rng(7000 + i)
        truth = random_density(rng, dim)
        data = generate_dataset(truth, pauli_basis_povms(qubits), 240, rng)
        rho_hat, f_star = batch_ml_solve(data, tol=1e-7)
        gap = float(np.linalg.eigvalsh(stationarity_operator(rho_hat, data))[-1]) - 1.0
        worst_gap = max(worst_gap, gap)

        G = rng.standard_normal((10_000, dim, dim)) + 1j * rng.standard_normal((10_000, dim, dim))
        wishart = G @ np.conj(np.swapaxes(G, -1, -2))
        states = wishart / np.trace(wishart, axis1=-2, axis2=-1)[:, None, None]
        overlaps = np.einsum("nij,kji->kn", data.matrices, states).real
        f_random = -np.log(overlaps).mean(axis=1)
        worst_domination = max(worst_domination, f_star - float(f_random.min()))

    ok = closed_form_err <= 1e-8 and worst_gap <= 1e-7 and worst_domination <= 1e-12
    verdict("batch oracle", ok,
            f"closed-form |df| = {closed_form_err:.2e}, worst certified gap = "
            f"{worst_gap:.2e}, worst f* - min f(rho) = {worst_domination:.2e} "
            f"over 20 x 10^4 states")


def test_cubic_scaling():
    """Median per-step cost grows by at most 12x per dimension doubling
    over D in {8, 16, 32, 64} (a cubic step costs 8x; the slack absorbs
    cache effects).

    Each dimension's stream is drawn once and the four games are played
    three times, interleaved (8, 16, 32, 64, 8, ...); each dimension's
    least median is kept, so a stall of the host during one game moves at
    most one of its three medians.
    """
    run_qst_game(psd_observation_stream(make_rng(79), 50, 8))  # warm up BLAS
    dims = (8, 16, 32, 64)
    streams = {dim: psd_observation_stream(make_rng(80), 300, dim) for dim in dims}
    medians = {dim: math.inf for dim in dims}
    for _ in range(3):
        for dim in dims:
            transcript = run_qst_game(streams[dim])
            medians[dim] = min(medians[dim], float(np.median(transcript.step_times_ns)))
    ratios = [medians[2 * d] / medians[d] for d in (8, 16, 32)]
    ok = all(r <= 12.0 for r in ratios)
    verdict("cubic scaling", ok,
            "least of 3 median step-time ratios per doubling: "
            + ", ".join(f"{r:.2f}" for r in ratios) + " (cap 12)")


def test_byte_determinism(tmp_path, capsys):
    """Two runs of every mode with one config and seed write identical
    bytes for every CSV, matrix, and dataset artifact; wall-clock data is
    confined to manifests and *_times.json sidecars, which are excluded."""

    def stable_files(run_dir: Path) -> dict[str, bytes]:
        picked = {}
        for p in sorted(run_dir.iterdir()):
            if p.name == "manifest.json" or p.name.endswith("_times.json"):
                continue
            picked[p.name] = p.read_bytes()
        return picked

    runs = [
        (["ops-game", "--dim", "3", "--rounds", "50", "--seeds", "0,1"], True),
        (["qst-game", "--dim", "2", "--rounds", "40", "--seeds", "2",
          "--povm", "random-rank1"], True),
        (["ml-run", "--qubits", "1", "--shots", "120", "--rounds", "64",
          "--seeds", "0,1"], True),
        (["scaling-bench", "--dim", "2,4", "--rounds", "30", "--seeds", "0"], False),
    ]
    compared = 0
    csv_modes = 0
    for k, (args, expects_csv) in enumerate(runs):
        dir_a, dir_b = tmp_path / f"a{k}", tmp_path / f"b{k}"
        assert main(args + ["--out", str(dir_a)]) == 0
        assert main(args + ["--out", str(dir_b)]) == 0
        a, b = stable_files(dir_a), stable_files(dir_b)
        assert a.keys() == b.keys()
        assert all(a[name] == b[name] for name in a)
        compared += len(a)
        if expects_csv:
            assert any(name.endswith(".csv") for name in a), args[0]
            csv_modes += 1

    matrix_path = tmp_path / "m.json"
    save_matrix(matrix_path, random_density(make_rng(90), 2))
    capsys.readouterr()  # drop the progress lines of the runs above
    assert main(["validate", str(matrix_path)]) == 0
    first = capsys.readouterr().out
    assert main(["validate", str(matrix_path)]) == 0
    second = capsys.readouterr().out
    assert first == second and "all checks passed" in first

    ok = compared > 0 and csv_modes == 3
    verdict("determinism", ok,
            f"5 modes re-run, {compared} stable artifacts byte-identical, "
            f"{csv_modes} CSV-bearing modes confirmed non-empty")
