"""Traced replicas of the qsb pipelines, built from the package's public calls.

Each pipeline repeats what one CLI call does, in this process, with a timer
around every call into a module: `tomography`, `qsb`, `linalg`,
`ensembles`, `serialize` and `portfolio`. The stochastic loop and the game
loop are re-built from `make_rng`, `qsb_init`, `qsb_step` and `ml_objective`
so that sampling, stepping and checkpoint objectives are timed apart.

A replica is only worth its timings if it computes what the program
computes, so every pipeline is checked against the program: the ml and ops
replicas write their artifacts and compare them byte for byte with the CLI
call's artifacts, and the scaling replica compares its transcript with
`run_qst_game` on the same stream. Mismatches are reported, never dropped.

`validate_dataset` is the exception: the program calls it inside
`batch_ml_solve` and `stochastic_qsb` as well as in the CLI's loader, so
its figures come from the program's own CLI, run once more in this process
with the function wrapped wherever the program looks it up.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from qsoftbayes import (
    batch_ml_solve,
    best_fixed_portfolio,
    generate_dataset,
    herm_log,
    hermitianize,
    learning_rate,
    make_rng,
    ml_objective,
    ops_regret_bound,
    pauli_basis_povms,
    psd_observation_stream,
    qsb_init,
    qsb_step,
    random_density,
    run_ops_game,
    run_qst_game,
    spectral,
    stationarity_operator,
    uniform_returns,
    validate_dataset,
    validate_observation,
)
from qsoftbayes import cli, tomography
from qsoftbayes.cli import ML_COLUMNS, OPS_COLUMNS, ml_error_bound
from qsoftbayes.serialize import load_dataset, save_dataset, save_matrix, write_csv

from common import percentile, stable_artifacts
from workloads import INSTANCE_SEED, ORACLE_CERT_TOL

# Per-layer metrics, named <module>.<function>.<stat>, with their units.
# Generic percentiles are taken at the workload's largest dimension; the
# dNN keys are per dimension. A layer a workload never calls reads 0.
SCALING_DIMS = (16, 32, 64)
PER_LAYER = {
    "qsb.qsb_step.us_p50": "us",
    "qsb.qsb_step.us_p99": "us",
    "qsb.qsb_step.s": "s",
    "qsb.qsb_step.calls": "count",
    **{f"qsb.qsb_step.d{d}.{stat}": "us" for d in SCALING_DIMS for stat in ("us_p50", "us_p99")},
    "linalg.herm_log.us_p50": "us",
    "linalg.spectral.us_p50": "us",
    **{f"linalg.{fn}.d{d}.us_p50": "us" for fn in ("herm_log", "spectral") for d in SCALING_DIMS},
    "linalg.validate_observation.us_p50": "us",
    "tomography.loop.sample_s": "s",
    "tomography.ml_objective.s": "s",
    "tomography.ml_objective.calls": "count",
    "tomography.batch_ml_solve.s": "s",
    "tomography.batch_ml_solve.cert_gap": "ratio",
    "tomography.validate_dataset.s": "s",
    "tomography.validate_dataset.calls": "count",
    "tomography.generate_dataset.s": "s",
    "tomography.stochastic_qsb.gap_over_bound": "ratio",
    "serialize.load_dataset.s": "s",
    "serialize.save_dataset.s": "s",
    "serialize.save_matrix.s": "s",
    "serialize.write_csv.s": "s",
    "serialize.bytes_written": "bytes",
    "ensembles.psd_observation_stream.s": "s",
    "portfolio.run_ops_game.s": "s",
    "portfolio.run_ops_game.regret_over_bound": "ratio",
    "portfolio.best_fixed_portfolio.s": "s",
    "portfolio.best_fixed_portfolio.iterations": "count",
    "data.distinct_frac": "ratio",
    "trace.traced_total_s": "s",
    "trace.replica_mismatches": "count",
    "trace_overhead_frac": "ratio",
}

# Roughly this many (state, observation) pairs per loop are kept to time
# herm_log and spectral on the step's own G and L after the loop.
KERNEL_PROBES = 400

clock = time.perf_counter_ns


class Tracer:
    """Durations in ns per span name, plus counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.bytes_written = 0

    def call(self, name: str, fn, *args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        self.spans[name].append(clock() - t0)
        return out

    def write(self, name: str, fn, path: Path, *args):
        """Time a serializer call and count the bytes it wrote."""
        self.call(name, fn, path, *args)
        self.bytes_written += path.stat().st_size

    def seconds(self, name: str) -> float:
        return sum(self.spans.get(name, ())) / 1e9

    def us(self, name: str, q: float) -> float:
        return percentile(self.spans.get(name, ()), q) / 1e3


def default_checkpoints(rounds: int) -> list[int]:
    """The CLI's default schedule: powers of two below `rounds`, then `rounds`."""
    cps, k = [], 1
    while k < rounds:
        cps.append(k)
        k *= 2
    return cps + [rounds]


# --- loop replicas --------------------------------------------------------

def replica_stochastic_qsb(tr: Tracer, data, rounds: int, seed: int, probes: list):
    """stochastic_qsb with default eta and checkpoints, stage by stage."""
    dim, n_records = data.dim, len(data)
    eta = learning_rate(dim, rounds)
    cps = default_checkpoints(rounds)
    every = max(1, rounds // KERNEL_PROBES)

    rng = make_rng(seed)
    state = qsb_init(dim)
    rho_sum = np.zeros((dim, dim), dtype=complex)
    values = np.empty(len(cps))
    steps = tr.spans[f"qsb.qsb_step.d{dim}"]
    objective = tr.spans["tomography.ml_objective"]
    sample_ns = 0
    cp_pos = 0
    for t in range(1, rounds + 1):
        rho_sum += state.rho
        if cp_pos < len(cps) and t == cps[cp_pos]:
            avg = hermitianize(rho_sum / t)
            t0 = clock()
            values[cp_pos] = ml_objective(avg, data)
            objective.append(clock() - t0)
            cp_pos += 1
        t0 = clock()
        idx = int(rng.integers(n_records))
        t1 = clock()
        A = data.matrices[idx]
        if t % every == 0:
            probes.append((state, A, eta))
        t2 = clock()
        state = qsb_step(state, A, eta)
        steps.append(clock() - t2)
        sample_ns += t1 - t0
    tr.counts["sample_ns"] += sample_ns
    return hermitianize(rho_sum / rounds), cps, values


def replica_qst_game(tr: Tracer, stream: np.ndarray, probes: list) -> dict:
    """run_qst_game with default eta: validation, then the timed game loop."""
    stream = np.asarray(stream, dtype=complex)
    rounds, dim = stream.shape[0], stream.shape[1]
    validated = np.empty_like(stream)
    checks = tr.spans[f"linalg.validate_observation.d{dim}"]
    for t in range(rounds):
        t0 = clock()
        validated[t] = validate_observation(stream[t])
        checks.append(clock() - t0)
    eta = learning_rate(dim, rounds)
    every = max(1, rounds // KERNEL_PROBES)

    state = qsb_init(dim)
    losses = np.empty(rounds)
    true_traces = np.empty(rounds)
    min_eigs = np.empty(rounds)
    rho_sum = np.zeros((dim, dim), dtype=complex)
    steps = tr.spans[f"qsb.qsb_step.d{dim}"]
    for t in range(rounds):
        A = validated[t]
        losses[t] = -math.log(float(np.vdot(A, state.rho).real))
        true_traces[t] = state.true_trace
        min_eigs[t] = state.rho_min_eig
        rho_sum += state.rho
        if (t + 1) % every == 0:
            probes.append((state, A, eta))
        t0 = clock()
        state = qsb_step(state, A, eta)
        steps.append(clock() - t0)
    return {"losses": losses, "true_traces": true_traces, "min_eigs": min_eigs,
            "average_state": hermitianize(rho_sum / rounds), "final_rho": state.rho}


def time_step_kernels(tr: Tracer, probes: list) -> None:
    """Time herm_log on the step's G and spectral on its L, as qsb_step forms them."""
    for state, A, eta in probes:
        dim = state.dim
        overlap = float(np.vdot(A, state.rho).real)
        G = (1.0 - eta) * np.eye(dim) + (eta / overlap) * A
        t0 = clock()
        log_G = herm_log(G)
        t1 = clock()
        L = hermitianize(state.log_weights + log_G)
        t2 = clock()
        spectral(L)
        t3 = clock()
        tr.spans[f"linalg.herm_log.d{dim}"].append(t1 - t0)
        tr.spans[f"linalg.spectral.d{dim}"].append(t3 - t2)


def compare_artifacts(cli_out: Path, replica_out: Path) -> list[str]:
    ours = stable_artifacts(replica_out)
    theirs = stable_artifacts(cli_out) if cli_out.is_dir() else {}
    problems = [f"{name}: written by one side only"
                for name in sorted(set(ours) ^ set(theirs))]
    problems += [f"{name}: bytes differ from the CLI's"
                 for name in sorted(set(ours) & set(theirs)) if ours[name] != theirs[name]]
    return problems


# --- pipelines ------------------------------------------------------------

def trace_ml(tr: Tracer, params: dict, cli_out: Path, out: Path) -> tuple[float, dict, list[str]]:
    """The ml-run pipeline: dataset, oracle, one stochastic run per seed."""
    facts = {}
    if "input" in params:
        # The benchmark's own input generation, timed outside the pipeline.
        rng = make_rng(INSTANCE_SEED)
        truth = random_density(rng, 8)
        tr.call("tomography.generate_dataset", generate_dataset, truth,
                pauli_basis_povms(3), params["shots"], rng)

    started = clock()
    if "input" in params:
        data = validate_dataset(tr.call("serialize.load_dataset", load_dataset, params["input"]))
    else:
        rng = make_rng(params["data_seed"])
        truth = random_density(rng, 2 ** params["qubits"])
        data = tr.call("tomography.generate_dataset", generate_dataset, truth,
                       pauli_basis_povms(params["qubits"]), params["shots"], rng)
    tr.write("serialize.save_dataset", save_dataset, out / "dataset.json", data)
    rho_hat, f_star = tr.call("tomography.batch_ml_solve", batch_ml_solve, data, tol=ORACLE_CERT_TOL)
    tr.write("serialize.save_matrix", save_matrix, out / "rho_hat_oracle.json", rho_hat)

    probes: list = []
    gaps = []
    rounds, dim = params["rounds"], data.dim
    for seed in params["seeds"]:
        rho_bar, cps, values = replica_stochastic_qsb(tr, data, rounds, seed, probes)
        rows = [(k + 1, t, values[k], ml_error_bound(dim, t), values[k] - f_star)
                for k, t in enumerate(cps)]
        tr.write("serialize.write_csv", write_csv, out / f"ml_seed{seed}.csv", ML_COLUMNS, rows)
        tr.write("serialize.save_matrix", save_matrix, out / f"rho_bar_seed{seed}.json", rho_bar)
        gaps.append(values[-1] - f_star)
    traced_total = (clock() - started) / 1e9

    time_step_kernels(tr, probes)
    facts["cert_gap"] = float(np.linalg.eigvalsh(stationarity_operator(rho_hat, data))[-1]) - 1.0
    facts["gap_over_bound"] = float(np.mean(gaps)) / ml_error_bound(dim, rounds)
    facts["dims"] = [dim]
    return traced_total, facts, compare_artifacts(cli_out, out)


def trace_scaling(tr: Tracer, params: dict, cli_out: Path, out: Path) -> tuple[float, dict, list[str]]:
    """scaling-bench: one stream and one game per dimension."""
    seed, rounds = params["seeds"][0], params["rounds"]
    probes: list = []
    replicas = {}
    started = clock()
    for dim in params["dims"]:
        stream = tr.call("ensembles.psd_observation_stream", psd_observation_stream,
                         make_rng(seed), rounds, dim)
        replicas[dim] = (stream, replica_qst_game(tr, stream, probes))
    traced_total = (clock() - started) / 1e9

    time_step_kernels(tr, probes)
    problems = []
    for dim, (stream, ours) in replicas.items():
        ref = run_qst_game(stream)
        theirs = {"losses": ref.losses, "true_traces": ref.true_traces, "min_eigs": ref.min_eigs,
                  "average_state": ref.average_state, "final_rho": ref.final_state.rho}
        problems += [f"d{dim} {key}: differs from run_qst_game"
                     for key in ours if not np.array_equal(ours[key], theirs[key])]
    return traced_total, {"dims": list(params["dims"])}, problems


def trace_ops(tr: Tracer, params: dict, cli_out: Path, out: Path) -> tuple[float, dict, list[str]]:
    """ops-game: returns, the game, the comparator and the CSV, per seed."""
    dim, rounds = params["dim"], params["rounds"]
    worst = 0.0
    started = clock()
    for seed in params["seeds"]:
        returns = uniform_returns(make_rng(seed), rounds, dim)
        game = tr.call("portfolio.run_ops_game", run_ops_game, returns)
        comp = tr.call("portfolio.best_fixed_portfolio", best_fixed_portfolio, returns)
        tr.counts["comparator_iterations"] += comp.iterations
        cum = game.cumulative_losses
        comp_cum = np.cumsum(-np.log(returns @ comp.weights))
        rows = [(t + 1, game.losses[t], cum[t], comp_cum[t], cum[t] - comp_cum[t],
                 ops_regret_bound(dim, t + 1)) for t in range(rounds)]
        tr.write("serialize.write_csv", write_csv, out / f"ops_seed{seed}.csv", OPS_COLUMNS, rows)
        worst = max(worst, (game.total_loss - comp.loss) / ops_regret_bound(dim, rounds))
    traced_total = (clock() - started) / 1e9
    return traced_total, {"regret_over_bound": worst, "dims": []}, compare_artifacts(cli_out, out)


def count_validations(tr: Tracer, argv: list[str]) -> int:
    """Run the CLI on `argv` in this process, timing every validate_dataset call.

    The wrapper replaces the name in `tomography`, where batch_ml_solve and
    stochastic_qsb look it up, and in `cli`, which imported it. Returns the
    CLI's exit code; its stdout is discarded.
    """
    original = tomography.validate_dataset

    def timed(*args, **kwargs):
        return tr.call("tomography.validate_dataset", original, *args, **kwargs)

    tomography.validate_dataset = cli.validate_dataset = timed
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    finally:
        tomography.validate_dataset = cli.validate_dataset = original


PIPELINES = {
    "ml-rounds-2q": trace_ml,
    "ml-shots-3q": trace_ml,
    "scaling-d64": trace_scaling,
    "ops-d16": trace_ops,
}


def layer_metrics(tr: Tracer, facts: dict, distinct: float) -> dict:
    """Fill PER_LAYER from the spans; layers the workload never called read 0."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    dims = facts["dims"]
    step_names = [f"qsb.qsb_step.d{d}" for d in dims]
    m["qsb.qsb_step.calls"] = float(sum(len(tr.spans.get(n, ())) for n in step_names))
    m["qsb.qsb_step.s"] = float(sum(tr.seconds(n) for n in step_names))
    for d in dims:
        for key, span, q in ((f"qsb.qsb_step.d{d}.us_p50", f"qsb.qsb_step.d{d}", 50),
                             (f"qsb.qsb_step.d{d}.us_p99", f"qsb.qsb_step.d{d}", 99),
                             (f"linalg.herm_log.d{d}.us_p50", f"linalg.herm_log.d{d}", 50),
                             (f"linalg.spectral.d{d}.us_p50", f"linalg.spectral.d{d}", 50)):
            if key in m:
                m[key] = tr.us(span, q)
    if dims:
        top = max(dims)
        m["qsb.qsb_step.us_p50"] = tr.us(f"qsb.qsb_step.d{top}", 50)
        m["qsb.qsb_step.us_p99"] = tr.us(f"qsb.qsb_step.d{top}", 99)
        m["linalg.herm_log.us_p50"] = tr.us(f"linalg.herm_log.d{top}", 50)
        m["linalg.spectral.us_p50"] = tr.us(f"linalg.spectral.d{top}", 50)
        m["linalg.validate_observation.us_p50"] = tr.us(f"linalg.validate_observation.d{top}", 50)
    m["tomography.loop.sample_s"] = tr.counts["sample_ns"] / 1e9
    m["tomography.ml_objective.calls"] = float(len(tr.spans.get("tomography.ml_objective", ())))
    m["tomography.validate_dataset.calls"] = float(len(tr.spans.get("tomography.validate_dataset", ())))
    for name in ("tomography.ml_objective", "tomography.batch_ml_solve", "tomography.validate_dataset",
                 "tomography.generate_dataset", "serialize.load_dataset", "serialize.save_dataset",
                 "serialize.save_matrix", "serialize.write_csv", "ensembles.psd_observation_stream",
                 "portfolio.run_ops_game", "portfolio.best_fixed_portfolio"):
        m[f"{name}.s"] = tr.seconds(name)
    m["tomography.batch_ml_solve.cert_gap"] = facts.get("cert_gap", 0.0)
    m["tomography.stochastic_qsb.gap_over_bound"] = facts.get("gap_over_bound", 0.0)
    m["portfolio.run_ops_game.regret_over_bound"] = facts.get("regret_over_bound", 0.0)
    m["portfolio.best_fixed_portfolio.iterations"] = tr.counts["comparator_iterations"]
    m["serialize.bytes_written"] = float(tr.bytes_written)
    m["data.distinct_frac"] = distinct
    return m
