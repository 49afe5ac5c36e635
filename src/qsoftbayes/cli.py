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
from typing import Any, Callable, NamedTuple

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
from .qsb import QstTranscript, _qst_game, run_qst_game
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
    stochastic_qsb,
)

POVM_KINDS = ("pauli-basis", "random-rank1", "from-file")

# The keys each mode takes, and the measurement models of the modes that
# take one. The subparsers, the --config reader and the manifest echo all
# read these tables and _KEYS.
_GAME_KEYS = ("dim", "qubits", "rounds", "eta", "seeds", "out")
MODE_KEYS = {
    "ops-game": _GAME_KEYS,
    "qst-game": _GAME_KEYS + ("povm", "input"),
    "ml-run": _GAME_KEYS + ("povm", "checkpoints", "input", "shots", "data-seed"),
    "scaling-bench": _GAME_KEYS,
    "validate": ("input",),
}
MODE_POVMS = {"qst-game": POVM_KINDS, "ml-run": ("pauli-basis", "from-file")}

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
    """One run. The CLI leaves a field its mode does not take at its default."""

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


def _mode_keys(mode: str, povm: str) -> tuple[str, ...]:
    """The config keys `mode` takes, with `povm` as its measurement model."""
    if mode not in MODE_KEYS:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(MODE_KEYS)}")
    if mode not in MODE_POVMS:
        return MODE_KEYS[mode]
    from_file = povm == "from-file"
    return tuple(k for k in MODE_KEYS[mode] if _KEYS[k].from_file in (None, from_file))


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    _mode_keys(config.mode, config.povm)  # refuses an unknown mode
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
    if min(config.seeds) < 0 or len(set(config.seeds)) != len(config.seeds):
        raise ConfigError(f"seeds must be distinct and nonnegative, got {config.seeds}")
    if config.mode == "scaling-bench" and len(config.seeds) != 1:
        raise ConfigError(f"mode scaling-bench takes exactly one seed, got {config.seeds}")
    if config.data_seed < 0:
        raise ConfigError(f"data-seed must be nonnegative, got {config.data_seed}")
    if config.eta is not None and not 0.0 < config.eta < 1.0:
        raise ConfigError(f"eta must be in (0, 1), got {config.eta}")
    povms = MODE_POVMS.get(config.mode, POVM_KINDS)
    if config.povm not in povms:
        raise ConfigError(f"povm must be one of {', '.join(povms)} in {config.mode}, got {config.povm!r}")
    if config.povm == "from-file" and not config.input_path:
        raise ConfigError("povm=from-file requires --input")
    if config.mode in MODE_POVMS and config.povm == "pauli-basis" and config.dims[0] & (config.dims[0] - 1):
        raise ConfigError(f"pauli-basis requires a power-of-two dimension, got {config.dims[0]}")
    if config.checkpoints is not None:
        bad = [c for c in config.checkpoints if not 1 <= c <= config.rounds]
        if bad:
            raise ConfigError(f"checkpoints out of range [1, {config.rounds}]: {bad}")
    return config


# --- config serialization -------------------------------------------------

def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _qubit_dims(text: str) -> tuple[int, ...]:
    q = int(text)
    if not 1 <= q <= MAX_QUBITS:
        raise ConfigError(f"qubits must be in [1, {MAX_QUBITS}], got {q}")
    return (2 ** q,)


class _Key(NamedTuple):
    """One config key, which the flag --<key> sets."""

    field: str  # the ExperimentConfig field it sets
    read: Callable[[str], Any]  # the key's text -> the field's value
    write: Callable[[Any], str] | None  # the field -> the manifest echo; None: not echoed
    help: str | None = None
    # Under a mode with a povm: the key applies only with povm=from-file
    # (True), only to a generated stream (False), or always (None).
    from_file: bool | None = None


_KEYS = {
    "dim": _Key("dims", _ints, _csv, "dimension D, or a comma list for scaling-bench"),
    "qubits": _Key("dims", _qubit_dims, None, "number of qubits q (D = 2^q)"),
    "rounds": _Key("rounds", int, str),
    "eta": _Key("eta", lambda text: float(text) if text else None,
                lambda eta: "" if eta is None else format(eta, ".17g"),
                "learning rate in (0, 1); defaults to the horizon-tuned rate"),
    "seeds": _Key("seeds", _ints, _csv, "comma-separated seed list"),
    "out": _Key("out", str, str),
    "povm": _Key("povm", str, str),
    "input": _Key("input_path", str, str, "input container file, with --povm from-file", True),
    "checkpoints": _Key("checkpoints", lambda text: None if text == "auto" else _ints(text),
                        lambda cps: "auto" if cps is None else _csv(cps),
                        "comma list, 'auto', or '' for none"),
    "shots": _Key("shots", int, str, "size of the generated dataset", False),
    "data-seed": _Key("data_seed", int, str, "seed of the generated truth state and dataset", False),
}


def config_to_mapping(config: ExperimentConfig) -> dict:
    """The keys the config's mode takes, as strings: the manifest echo, which
    is accepted back as a config."""
    keys = [k for k in _mode_keys(config.mode, config.povm) if _KEYS[k].write]
    return {"mode": config.mode,
            **{k: _KEYS[k].write(getattr(config, _KEYS[k].field)) for k in keys}}


def _read(key: str, text: str):
    try:
        return _KEYS[key].read(text)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} from {text!r}") from exc


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    m = {str(k): str(v) for k, v in mapping.items()}
    if "mode" not in m:
        raise ConfigError("config is missing a mode")
    mode = m.pop("mode")
    povm = m.get("povm", ExperimentConfig.povm)
    unknown = sorted(set(m) - set(_mode_keys(mode, povm)))
    if unknown:
        under = f" with povm={povm}" if mode in MODE_POVMS else ""
        raise ConfigError(f"unknown config keys for {mode}{under}: {', '.join(unknown)}")

    if m.get("qubits"):
        if m.pop("dim", ""):
            raise ConfigError("give either dim or qubits, not both")
    else:
        m.pop("qubits", None)  # an empty qubits leaves the dimension to dim
    fields = {_KEYS[k].field: _read(k, text) for k, text in m.items()}
    return ExperimentConfig(mode=mode, **fields)


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
    rows = zip(range(1, len(transcript.losses) + 1), transcript.losses.tolist(),
               transcript.cumulative_losses.tolist(), transcript.true_traces.tolist(),
               transcript.min_eigs.tolist())
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


def _input_dataset(config: ExperimentConfig) -> Dataset:
    """The --input dataset, which must have the configured dimension."""
    data = load_dataset(config.input_path)
    if data.dim != config.dims[0]:
        raise ConfigError(f"{config.input_path} has dimension {data.dim}, need {config.dims[0]}")
    return data


def _qst_dataset(config: ExperimentConfig, seed: int) -> Dataset:
    """One seed's game stream, as the dataset the oracle fits and the game plays."""
    dim = config.dims[0]
    rng = make_rng(seed)
    if config.povm == "random-rank1":
        return Dataset(matrices=rank1_observation_stream(rng, config.rounds, dim))
    if config.povm == "pauli-basis":
        truth = random_density(rng, dim)
        return generate_dataset(truth, pauli_basis_povms(dim.bit_length() - 1),
                                config.rounds, rng)
    data = _input_dataset(config)
    if len(data) < config.rounds:
        raise ConfigError(
            f"{config.input_path} provides {len(data)} observations, need {config.rounds}"
        )
    return Dataset(elements=data.elements, index=data.index[: config.rounds])


def _qst_seed(config: ExperimentConfig, seed: int, out_dir: str) -> dict:
    data = _qst_dataset(config, seed)
    transcript = _qst_game(data.elements, data.index, config.eta)
    rho_hat, f_star = batch_ml_solve(data, tol=1e-7)
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
        **_step_summary(times),
    }


def _step_summary(times: np.ndarray) -> dict:
    """The manifest's summary of a game's step times, in ns."""
    return {
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
        return _input_dataset(config)
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
    results = stochastic_qsb(data, config.rounds, config.seeds, eta=config.eta,
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


def _scaling_row(config: ExperimentConfig, seed: int, dim: int) -> dict:
    """Step times at one dimension; its stream is freed when this returns."""
    stream = psd_observation_stream(make_rng(seed), config.rounds, dim)
    times = run_qst_game(stream, config.eta).step_times_ns
    return {"dim": dim, "rounds": config.rounds, **_step_summary(times)}


def _run_scaling(config: ExperimentConfig, out_dir: str) -> dict:
    seed = config.seeds[0]
    table = [_scaling_row(config, seed, dim) for dim in config.dims]
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

class _Parser(argparse.ArgumentParser):
    """An argument parser, its subparsers too, whose errors are config errors."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsb",
        description="Online learners for quantum state tomography and portfolio selection.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, keys in MODE_KEYS.items():
        p = sub.add_parser(mode)
        if mode == "validate":
            p.add_argument("input", nargs="?", metavar="file", help="container file to check")
            continue
        for key in keys:
            metavar = "{" + ",".join(MODE_POVMS[mode]) + "}" if key == "povm" else None
            p.add_argument(f"--{key}", dest=key, metavar=metavar, help=_KEYS[key].help)
        p.add_argument("--config", help="key=value file or a manifest JSON")
    return parser


def _mapping_from_args(args: argparse.Namespace) -> dict:
    """The --config file's mapping, overridden by the flags that were given."""
    flags = {k: v for k, v in vars(args).items() if v is not None and k not in ("mode", "config")}
    mapping = parse_config_file(args.config) if getattr(args, "config", None) else {}
    if mapping.setdefault("mode", args.mode) != args.mode:
        raise ConfigError(f"{args.config} configures mode {mapping['mode']}, not {args.mode}")
    if "dim" in flags or "qubits" in flags:
        mapping.pop("dim", None)  # a dimension flag replaces the file's dimension
        mapping.pop("qubits", None)
    mapping.update(flags)
    return mapping


def main(argv=None) -> int:
    try:
        args, extras = _build_parser().parse_known_args(argv)
        if extras:
            raise ConfigError(f"unknown arguments for {args.mode}: {' '.join(extras)}")
        config = config_from_mapping(_mapping_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(config)


if __name__ == "__main__":
    sys.exit(main())
