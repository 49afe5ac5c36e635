"""Experiment harness: config handling, seeded runs, and artifact emission.

Modes
-----
ops-game       classical portfolio game on uniform random return streams
qst-game       quantum tomography game on random or file-provided observations
ml-run         stochastic ML estimation against a fixed synthetic dataset
scaling-bench  per-step update cost across a list of dimensions
validate       invariant report for a container file (matrix/dataset/stream)

Every run writes a manifest (config echo + hash, library versions, RNG name,
wall-clock) next to its artifacts. CSV and matrix artifacts are pure
functions of config + seed, byte for byte; wall-clock quantities live only
in the manifest and the *_times.json sidecars.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensembles import (
    make_rng,
    psd_observation_stream,
    random_density,
    rank1_observation_stream,
    uniform_returns,
)
from .linalg import DomainError, ValidationError, validate_density, validate_observation
from .portfolio import (
    OpsTranscript,
    SolverError,
    best_fixed_portfolio,
    ops_regret_bound,
    run_ops_game,
    validate_return_stream,
)
from .qsb import QstTranscript, run_qst_game
from .serialize import (
    dataset_form,
    dataset_from_record,
    load_dataset,
    load_payload,
    load_return_stream,
    matrix_from_record,
    save_dataset,
    save_matrix,
    write_csv,
    write_manifest,
)
from .tomography import (
    Dataset,
    MlResult,
    batch_ml_solve,
    generate_dataset,
    pauli_basis_povms,
    stationarity_operator,
    stochastic_qsb_seeds,
)

MODES = ("ops-game", "qst-game", "ml-run", "scaling-bench", "validate")
POVM_KINDS = ("pauli-basis", "random-rank1", "from-file")

OPS_COLUMNS = ["round", "loss", "cum_loss", "comparator_loss", "regret", "bound"]
QST_COLUMNS = ["round", "loss", "cum_loss", "true_trace", "min_eig_rho"]
ML_COLUMNS = ["checkpoint", "t", "f_rho_bar", "bound", "gap_to_oracle"]

# Largest accepted dimension D (and qubit count, D = 2^q): far above any
# workload, so a request beyond it is refused before anything is allocated.
MAX_DIM = 2 ** 12
MAX_QUBITS = MAX_DIM.bit_length() - 1


class ConfigError(ValueError):
    """The requested run is malformed (bad mode, flag, or file value)."""


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    dims: tuple[int, ...] = ()
    povm: str = "pauli-basis"
    shots: int = 1000
    rounds: int = 1000
    eta: float | None = None
    seeds: tuple[int, ...] = (0,)
    checkpoints: tuple[int, ...] | None = None  # None means the default schedule
    out: str = "runs"
    input_path: str = ""
    data_seed: int = 0


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    if config.mode not in MODES:
        raise ConfigError(f"unknown mode {config.mode!r}; expected one of {', '.join(MODES)}")
    if config.mode == "validate":
        if not config.input_path:
            raise ConfigError("validate mode requires an input file")
        return config
    if not config.dims:
        raise ConfigError("a dimension is required (--dim or --qubits)")
    if any(d < 2 for d in config.dims):
        raise ConfigError(f"dimensions must be at least 2, got {config.dims}")
    if any(d > MAX_DIM for d in config.dims):
        raise ConfigError(f"dimensions must be at most {MAX_DIM}, got {config.dims}")
    if config.mode != "scaling-bench" and len(config.dims) != 1:
        raise ConfigError(f"mode {config.mode} takes exactly one dimension, got {config.dims}")
    if config.rounds < 1:
        raise ConfigError(f"rounds must be at least 1, got {config.rounds}")
    if config.shots < 1:
        raise ConfigError(f"shots must be at least 1, got {config.shots}")
    if not config.seeds:
        raise ConfigError("at least one seed is required")
    if config.eta is not None and not 0.0 < config.eta < 1.0:
        raise ConfigError(f"eta must be in (0, 1), got {config.eta}")
    if config.povm not in POVM_KINDS:
        raise ConfigError(f"unknown povm {config.povm!r}; expected one of {', '.join(POVM_KINDS)}")
    if config.povm == "from-file" and not config.input_path:
        raise ConfigError("povm=from-file requires --input")
    if config.mode == "ml-run":
        if config.povm == "random-rank1":
            raise ConfigError("ml-run needs a measurement model: povm must be pauli-basis or from-file")
        if config.povm == "pauli-basis" and config.dims[0] & (config.dims[0] - 1):
            raise ConfigError(f"pauli-basis requires a power-of-two dimension, got {config.dims[0]}")
    if config.checkpoints is not None:
        bad = [c for c in config.checkpoints if not 1 <= c <= config.rounds]
        if bad:
            raise ConfigError(f"checkpoints out of range [1, {config.rounds}]: {bad}")
    return config


# --- config serialization -------------------------------------------------

def config_to_mapping(config: ExperimentConfig) -> dict:
    """Flat string mapping echoed into manifests and accepted back as a config."""
    if config.checkpoints is None:
        checkpoints = "auto"
    else:
        checkpoints = ",".join(str(c) for c in config.checkpoints)
    return {
        "mode": config.mode,
        "dim": ",".join(str(d) for d in config.dims),
        "povm": config.povm,
        "shots": str(config.shots),
        "rounds": str(config.rounds),
        "eta": "" if config.eta is None else format(config.eta, ".17g"),
        "seeds": ",".join(str(s) for s in config.seeds),
        "checkpoints": checkpoints,
        "out": config.out,
        "input": config.input_path,
        "data-seed": str(config.data_seed),
    }


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} from {text!r}") from exc


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    known = {
        "mode", "dim", "qubits", "povm", "shots", "rounds", "eta",
        "seeds", "checkpoints", "out", "input", "data-seed",
    }
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    m = {k: str(v) for k, v in mapping.items()}
    if "mode" not in m:
        raise ConfigError("config is missing a mode")

    if m.get("dim") and m.get("qubits"):
        raise ConfigError("give either dim or qubits, not both")
    if m.get("qubits"):
        try:
            qubits = int(m["qubits"])
        except ValueError as exc:
            raise ConfigError(f"cannot parse qubits from {m['qubits']!r}") from exc
        if not 1 <= qubits <= MAX_QUBITS:
            raise ConfigError(f"qubits must be in [1, {MAX_QUBITS}], got {qubits}")
        dims: tuple[int, ...] = (2 ** qubits,)
    elif m.get("dim"):
        dims = _parse_int_list(m["dim"], "dim")
    else:
        dims = ()

    checkpoints_text = m.get("checkpoints", "auto")
    if checkpoints_text == "auto":
        checkpoints = None
    else:
        checkpoints = _parse_int_list(checkpoints_text, "checkpoints")

    try:
        return ExperimentConfig(
            mode=m["mode"],
            dims=dims,
            povm=m.get("povm", "pauli-basis"),
            shots=int(m.get("shots", "1000")),
            rounds=int(m.get("rounds", "1000")),
            eta=float(m["eta"]) if m.get("eta") else None,
            seeds=_parse_int_list(m.get("seeds", "0"), "seeds") or (0,),
            checkpoints=checkpoints,
            out=m.get("out", "runs"),
            input_path=m.get("input", ""),
            data_seed=int(m.get("data-seed", "0")),
        )
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def parse_config_file(path) -> dict:
    """Read a key=value config file, or the config echo of a JSON manifest."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON config: {exc}") from exc
        config = rec.get("config", rec)
        if not isinstance(config, dict):
            raise ConfigError(f"{path}: a JSON config must be an object of key-value pairs")
        return {str(k): str(v) for k, v in config.items()}
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


# --- report writers -------------------------------------------------------

def write_ops_report(path, transcript: OpsTranscript, returns: np.ndarray,
                     comparator_weights: np.ndarray) -> None:
    """Per-round CSV for the classical game against the hindsight comparator."""
    rounds, dim = returns.shape
    cum = transcript.cumulative_losses
    comp_cum = np.cumsum(-np.log(returns @ comparator_weights))
    rows = zip(range(1, rounds + 1), transcript.losses.tolist(), cum.tolist(),
               comp_cum.tolist(), (cum - comp_cum).tolist(),
               [ops_regret_bound(dim, t) for t in range(1, rounds + 1)])
    write_csv(path, OPS_COLUMNS, rows)


def write_qst_report(path, transcript: QstTranscript) -> None:
    """Per-round CSV for the quantum game; timing is reported elsewhere."""
    cum = transcript.cumulative_losses
    rows = [
        (t + 1, transcript.losses[t], cum[t],
         transcript.true_traces[t], transcript.min_eigs[t])
        for t in range(len(transcript.losses))
    ]
    write_csv(path, QST_COLUMNS, rows)


def ml_error_bound(dim: int, rounds: float) -> float:
    """Expected-error guarantee 2 sqrt(D log D / T) + (log D) / T of averaging."""
    return 2.0 * math.sqrt(dim * math.log(dim) / rounds) + math.log(dim) / rounds


def write_ml_report(path, result: MlResult, f_star: float) -> None:
    """Per-checkpoint CSV for one stochastic run; header-only when no checkpoints."""
    dim = result.rho_bar.shape[0]
    rows = [
        (k + 1, int(t), result.objective_values[k],
         ml_error_bound(dim, int(t)), result.objective_values[k] - f_star)
        for k, t in enumerate(result.checkpoints)
    ]
    write_csv(path, ML_COLUMNS, rows)


# --- per-seed pipelines ---------------------------------------------------

def _ops_seed(config: ExperimentConfig, seed: int, out_dir: str) -> dict:
    dim = config.dims[0]
    returns = uniform_returns(make_rng(seed), config.rounds, dim)
    transcript = run_ops_game(returns, config.eta)
    comparator = best_fixed_portfolio(returns)
    write_ops_report(Path(out_dir) / f"ops_seed{seed}.csv", transcript, returns,
                     comparator.weights)
    return {
        "seed": seed,
        "eta": transcript.eta,
        "total_loss": transcript.total_loss,
        "comparator_loss": comparator.loss,
        "regret": transcript.total_loss - comparator.loss,
        "regret_bound": ops_regret_bound(dim, config.rounds),
        "comparator_gap": comparator.gap,
        "comparator_iterations": comparator.iterations,
    }


def _qst_stream(config: ExperimentConfig, seed: int) -> np.ndarray:
    dim = config.dims[0]
    rng = make_rng(seed)
    if config.povm == "random-rank1":
        return rank1_observation_stream(rng, config.rounds, dim)
    if config.povm == "pauli-basis":
        if dim & (dim - 1):
            raise ConfigError(f"pauli-basis requires a power-of-two dimension, got {dim}")
        truth = random_density(rng, dim)
        data = generate_dataset(truth, pauli_basis_povms(dim.bit_length() - 1),
                                config.rounds, rng)
        return data.matrices
    data = load_dataset(config.input_path)
    if len(data) < config.rounds:
        raise ConfigError(
            f"{config.input_path} provides {len(data)} observations, need {config.rounds}"
        )
    return data.elements[data.index[: config.rounds]]


def _qst_seed(config: ExperimentConfig, seed: int, out_dir: str) -> dict:
    stream = _qst_stream(config, seed)
    transcript = run_qst_game(stream, config.eta)
    rho_hat, f_star = batch_ml_solve(Dataset(matrices=stream), tol=1e-7)
    comparator_loss = f_star * config.rounds
    out = Path(out_dir)
    write_qst_report(out / f"qst_seed{seed}.csv", transcript)
    save_matrix(out / f"rho_bar_seed{seed}.json", transcript.average_state)
    times = transcript.step_times_ns
    (out / f"qst_seed{seed}_times.json").write_text(
        json.dumps({"step_times_ns": [int(x) for x in times]}) + "\n", encoding="utf-8"
    )
    return {
        "seed": seed,
        "eta": transcript.eta,
        "total_loss": transcript.total_loss,
        "comparator_loss": comparator_loss,
        "regret": transcript.total_loss - comparator_loss,
        "final_true_trace": transcript.final_state.true_trace,
        "step_ns_median": float(np.median(times)),
        "step_ns_mean": float(np.mean(times)),
        "step_ns_p90": float(np.percentile(times, 90)),
    }


def _ml_seed(result: MlResult, out_dir: Path, f_star: float) -> dict:
    """Write one seed's ml-run artifacts; returns its manifest summary."""
    write_ml_report(out_dir / f"ml_seed{result.seed}.csv", result, f_star)
    save_matrix(out_dir / f"rho_bar_seed{result.seed}.json", result.rho_bar)
    summary = {
        "seed": result.seed,
        "eta": result.eta,
        "final_true_trace": result.final_state.true_trace,
        "final_min_eig": result.final_state.rho_min_eig,
    }
    if len(result.objective_values):
        summary["final_objective"] = result.final_objective
        summary["final_gap"] = result.final_objective - f_star
    return summary


def _ml_dataset(config: ExperimentConfig) -> Dataset:
    if config.povm == "from-file":
        return load_dataset(config.input_path)
    dim = config.dims[0]
    rng = make_rng(config.data_seed)
    truth = random_density(rng, dim)
    return generate_dataset(truth, pauli_basis_povms(dim.bit_length() - 1),
                            config.shots, rng)


# --- mode drivers ---------------------------------------------------------

def _run_ml(config: ExperimentConfig, out_dir: Path) -> dict:
    """Dataset, oracle, all seeds' learners in one lockstep call, artifacts.

    Returns the manifest fields, with the seconds spent in each phase.
    """
    phases: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[phase] = now - mark
        mark = now

    data = _ml_dataset(config)
    lap("dataset")
    save_dataset(out_dir / "dataset.json", data)
    lap("save_dataset")
    rho_hat, f_star = batch_ml_solve(data, tol=1e-7)
    cert_gap = float(np.linalg.eigvalsh(stationarity_operator(rho_hat, data))[-1]) - 1.0
    lap("oracle")
    checkpoints = list(config.checkpoints) if config.checkpoints is not None else None
    results = stochastic_qsb_seeds(data, config.rounds, config.seeds, eta=config.eta,
                                   checkpoints=checkpoints)
    lap("learners")
    save_matrix(out_dir / "rho_hat_oracle.json", rho_hat)
    summaries = [_ml_seed(result, out_dir, f_star) for result in results]
    lap("write")

    extra: dict = {
        "oracle_objective": f_star,
        "oracle_cert_gap": cert_gap,
        "records": len(data),
        "distinct_records": len(data.elements),
        "seed_summaries": summaries,
    }
    gaps = [s["final_gap"] for s in summaries if "final_gap" in s]
    if gaps:
        extra["mean_final_gap"] = float(np.mean(gaps))
        extra["error_bound"] = ml_error_bound(data.dim, config.rounds)
    extra["phase_seconds"] = phases
    return extra


def _run_scaling(config: ExperimentConfig, out_dir: str) -> dict:
    seed = config.seeds[0]
    table = []
    for dim in config.dims:
        stream = psd_observation_stream(make_rng(seed), config.rounds, dim)
        transcript = run_qst_game(stream, config.eta)
        times = transcript.step_times_ns
        table.append({
            "dim": dim,
            "rounds": config.rounds,
            "step_ns_median": float(np.median(times)),
            "step_ns_mean": float(np.mean(times)),
            "step_ns_p90": float(np.percentile(times, 90)),
        })
    ratios = [
        {"from_dim": a["dim"], "to_dim": b["dim"],
         "median_ratio": b["step_ns_median"] / a["step_ns_median"]}
        for a, b in zip(table, table[1:])
    ]
    report = {"kind": "scaling-times", "seed": seed, "table": table, "ratios": ratios}
    (Path(out_dir) / "scaling_times.json").write_text(
        json.dumps(report, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report


def _run_validate(config: ExperimentConfig) -> list[str]:
    rec = load_payload(config.input_path)
    kind = rec.get("kind")
    lines = [f"file: {config.input_path}", f"kind: {kind}"]
    if kind == "matrix":
        M = matrix_from_record(rec)
        validate_observation(M)
        lines.append(f"dim: {M.shape[0]}")
        lines.append("hermitian: ok")
        lines.append("psd: ok")
        trace = float(np.trace(M).real)
        try:
            validate_density(M)
            lines.append(f"trace: {trace:.12g} (valid density)")
        except ValidationError:
            lines.append(f"trace: {trace:.12g} (not a density)")
    elif kind == "dataset":
        data = dataset_from_record(rec)
        lines.append(f"form: {dataset_form(rec)}")
        lines.append(f"dim: {data.dim}")
        lines.append(f"records: {len(data)}")
        lines.append(f"distinct: {len(data.elements)}")
        lines.append(f"provenance: {'yes' if data.has_provenance else 'no'}")
        lines.append("records hermitian, psd, nonzero: ok")
    elif kind == "return-stream":
        rows = validate_return_stream(load_return_stream(config.input_path))
        lines.append(f"dim: {rows.shape[1]}")
        lines.append(f"rounds: {rows.shape[0]}")
        lines.append("rows finite, nonnegative and nonzero: ok")
    else:
        raise ValidationError(f"unrecognized container kind {kind!r}")
    lines.append("all checks passed")
    return lines


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one configured run; returns a process exit code."""
    try:
        validate_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        if config.mode == "validate":
            for line in _run_validate(config):
                print(line)
            return 0

        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        extra: dict = {"mode": config.mode}

        if config.mode == "ops-game":
            extra["seed_summaries"] = [_ops_seed(config, seed, str(out_dir))
                                       for seed in config.seeds]
        elif config.mode == "qst-game":
            extra["seed_summaries"] = [_qst_seed(config, seed, str(out_dir))
                                       for seed in config.seeds]
        elif config.mode == "ml-run":
            extra.update(_run_ml(config, out_dir))
        else:
            extra["scaling"] = _run_scaling(config, str(out_dir))

        extra["elapsed_seconds"] = time.monotonic() - started
        extra["wallclock_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        write_manifest(out_dir / "manifest.json", config_to_mapping(config), extra)
        print(f"wrote artifacts to {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


# --- argument parsing -----------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsb",
        description="Online learners for quantum state tomography and portfolio selection.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        if mode == "validate":
            p.add_argument("file", nargs="?", default=None, help="container file to check")
        p.add_argument("--dim", help="dimension D, or a comma list for scaling-bench")
        p.add_argument("--qubits", type=int, help="number of qubits q (D = 2^q)")
        p.add_argument("--povm", choices=POVM_KINDS)
        p.add_argument("--shots", type=int)
        p.add_argument("--rounds", type=int)
        p.add_argument("--eta", type=float)
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--checkpoints", help="comma list, 'auto', or '' for none")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="key=value file or a manifest JSON")
        p.add_argument("--input", help="input container file")
        p.add_argument("--data-seed", type=int, dest="data_seed",
                       help="seed for dataset/truth generation in ml-run")
    return parser


def _mapping_from_args(args: argparse.Namespace) -> dict:
    if args.dim is not None and args.qubits is not None:
        raise ConfigError("give either --dim or --qubits, not both")
    mapping: dict = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    flags = {
        "dim": args.dim,
        "qubits": args.qubits,
        "povm": args.povm,
        "shots": args.shots,
        "rounds": args.rounds,
        "eta": args.eta,
        "seeds": args.seeds,
        "checkpoints": args.checkpoints,
        "out": args.out,
        "input": getattr(args, "file", None) or args.input,
        "data-seed": args.data_seed,
    }
    for key, value in flags.items():
        if value is not None:
            mapping[key] = str(value)
    if args.qubits is not None:
        mapping.pop("dim", None)  # an explicit --qubits overrides a file's dim
    mapping["mode"] = args.mode
    return mapping


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = config_from_mapping(_mapping_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(config)


if __name__ == "__main__":
    sys.exit(main())
