"""Experiment harness: config handling, seeded runs, and artifact emission.

Modes
-----
ops-game       classical portfolio game on uniform random return streams
qst-game       quantum tomography game on random or file-provided observations
ml-run         stochastic ML estimation against a fixed synthetic dataset
scaling-bench  per-step update cost across a list of dimensions
validate       invariant report for a container file (matrix or dataset)

Every run writes a manifest (config echo + hash, library versions, RNG name,
wall-clock, peak memory) next to its artifacts. CSV and matrix artifacts are pure
functions of config + seed, byte for byte; wall-clock quantities live only
in the manifest and the *_times.json sidecars.

Importing this module loads numpy and `linalg`, which parsing, the config
checks and the exit codes need. A run loads the modules its mode runs,
`MODE_MODULES`, when it starts, and a function imports the names it uses.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from .linalg import (
    DomainError,
    SolverError,
    ValidationError,
    _block_len,
    _check_unit_trace,
    hermitian_eigh,
    hermitianize,
    validate_observation,
)

if TYPE_CHECKING:
    from .qsb import QstTranscript, _Records
    from .tomography import Dataset, MlResult

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
# The package modules each run mode runs (with the modules they import),
# loaded when its run starts; validate loads what reading its file needs.
MODE_MODULES = {
    "ops-game": ("ensembles", "portfolio", "serialize"),
    "qst-game": ("serialize", "tomography"),
    "ml-run": ("serialize", "tomography"),
    "scaling-bench": ("ensembles", "qsb", "serialize"),
}

OPS_COLUMNS = ["round", "loss", "cum_loss", "comparator_loss", "regret", "bound"]
QST_COLUMNS = ["round", "loss", "cum_loss", "true_trace", "min_eig_rho"]
ML_COLUMNS = ["checkpoint", "t", "f_rho_bar", "bound", "gap_to_oracle"]

# Largest accepted dimension D (and qubit count, D = 2^q): far above any
# workload, so a request beyond it is refused before anything is allocated.
MAX_DIM = 2 ** 12
MAX_QUBITS = MAX_DIM.bit_length() - 1
# Largest qubit count of a pauli-basis run: its 3^q POVMs take 24^q x 16
# bytes, 127 MB at q = 5 and 3.06 GB at q = 6.
MAX_PAULI_QUBITS = 5
# Largest accepted rounds and shots: far above any workload (10^5 rounds on
# 6000 shots), and small enough that numpy can size every array that grows
# with them, so a larger request is refused before anything is allocated.
MAX_ROUNDS = MAX_SHOTS = 10 ** 9


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
    if len(set(config.dims)) != len(config.dims):
        raise ConfigError(f"dimensions must be distinct, got {config.dims}")
    if not 1 <= config.rounds <= MAX_ROUNDS:
        raise ConfigError(f"rounds must be in [1, {MAX_ROUNDS}], got {config.rounds}")
    if not 1 <= config.shots <= MAX_SHOTS:
        raise ConfigError(f"shots must be in [1, {MAX_SHOTS}], got {config.shots}")
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
    if config.mode in MODE_POVMS and config.povm == "pauli-basis":
        dim = config.dims[0]
        if dim & (dim - 1):
            raise ConfigError(f"pauli-basis requires a power-of-two dimension, got {dim}")
        if dim > 2 ** MAX_PAULI_QUBITS:
            raise ConfigError(f"pauli-basis takes at most {MAX_PAULI_QUBITS} qubits "
                              f"(D = {2 ** MAX_PAULI_QUBITS}), got D = {dim}")
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            rec = json.loads(text)
        # ValueError covers JSONDecodeError and an integer literal over
        # Python's digit limit; RecursionError, nesting too deep
        except (ValueError, RecursionError) as exc:
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

def write_ops_report(path, losses: np.ndarray, returns: np.ndarray,
                     comparator_weights: np.ndarray, bound) -> None:
    """Per-round CSV for the classical game's (T,) losses against the hindsight comparator.

    `bound` is the `bound` column, `ops_regret_bound` at rounds 1 to T: an
    array, or its text from `format_column`, which a run of several seeds
    builds once for all of them.
    """
    from .serialize import write_columns

    rounds, dim = returns.shape
    cum = np.cumsum(losses)
    comp_cum = np.cumsum(-np.log(returns @ comparator_weights))
    write_columns(path, OPS_COLUMNS,
                  [range(1, rounds + 1), losses, cum, comp_cum, cum - comp_cum, bound])


def write_qst_report(path, transcript: QstTranscript) -> None:
    """Per-round CSV for the quantum game; timing is reported elsewhere."""
    from .serialize import write_columns

    write_columns(path, QST_COLUMNS, [
        range(1, len(transcript.losses) + 1), transcript.losses,
        transcript.cumulative_losses, transcript.true_traces, transcript.min_eigs,
    ])


def ml_error_bound(dim: int, rounds: float) -> float:
    """Expected-error guarantee 2 sqrt(D log D / T) + (log D) / T of averaging."""
    return 2.0 * math.sqrt(dim * math.log(dim) / rounds) + math.log(dim) / rounds


def write_ml_report(path, result: MlResult, f_star: float) -> None:
    """Per-checkpoint CSV for one stochastic run; header-only when no checkpoints."""
    from .serialize import write_columns

    dim = result.rho_bar.shape[0]
    checkpoints, values = result.checkpoints, result.objective_values
    write_columns(path, ML_COLUMNS, [
        range(1, len(checkpoints) + 1), checkpoints, values,
        [ml_error_bound(dim, t) for t in checkpoints.tolist()], values - f_star,
    ])


# --- per-seed pipelines ---------------------------------------------------

def _input_dataset(config: ExperimentConfig, label: Callable[[int], str] | None = None) -> Dataset:
    """The --input dataset, which must have the configured dimension; `label`
    names a failing record as in `validate_dataset`."""
    from .serialize import load_dataset

    data = load_dataset(config.input_path, label)
    if data.dim != config.dims[0]:
        raise ConfigError(f"{config.input_path} has dimension {data.dim}, need {config.dims[0]}")
    return data


def _qst_datasets(config: ExperimentConfig) -> list[Dataset]:
    """Each seed's game stream, as the dataset the oracle fits and the game plays;
    a from-file input is loaded and checked once, and is every seed's dataset:
    its first --rounds records."""
    from .ensembles import make_rng, rank1_observation_stream
    from .tomography import Dataset

    dim, rounds = config.dims[0], config.rounds
    if config.povm == "random-rank1":
        return [Dataset(matrices=rank1_observation_stream(make_rng(seed), rounds, dim))
                for seed in config.seeds]
    if config.povm == "pauli-basis":
        return [_pauli_dataset(make_rng(seed), dim, rounds) for seed in config.seeds]
    # record n is what round n + 1 of the game plays
    data = _input_dataset(config, lambda n: f"record {n} (round {n + 1}): ")
    if len(data) < rounds:
        raise ConfigError(f"{config.input_path} provides {len(data)} observations, need {rounds}")
    if len(data) > rounds:
        data = Dataset(elements=data.elements, index=data.index[:rounds])
    return [data] * len(config.seeds)


def _qst_seed(config: ExperimentConfig, seed: int, transcript: QstTranscript, oracle: tuple,
              out: Path) -> dict:
    """Write one seed's qst-game artifacts, given its `_ml_oracle` answer; returns its summary."""
    from .serialize import save_matrix, write_json

    _, f_star, *solve = oracle
    comparator_loss = f_star * config.rounds
    write_qst_report(out / f"qst_seed{seed}.csv", transcript)
    save_matrix(out / f"rho_bar_seed{seed}.json", transcript.average_state)
    times = transcript.step_times_ns
    write_json(out / f"qst_seed{seed}_times.json", {"step_times_ns": times.tolist()})
    return {
        "seed": seed,
        "eta": transcript.eta,
        "total_loss": transcript.total_loss,
        "comparator_loss": comparator_loss,
        "regret": transcript.total_loss - comparator_loss,
        "final_true_trace": transcript.final_state.true_trace,
        "final_min_eig": transcript.final_state.rho_min_eig,
        **dict(zip(_ORACLE_KEYS, solve)),
        **_step_summary(times),
        "learner_rounds": transcript.learner_rounds,
    }


# the manifest's keys for what `_ml_oracle` returns after (rho, f)
_ORACLE_KEYS = ("oracle_cert_gap", "oracle_iterations", "oracle_restarts", "oracle_backtracks")


def _step_summary(times: np.ndarray) -> dict:
    """The manifest's summary of a game's step times, in ns."""
    return {
        "step_ns_median": float(np.median(times)),
        "step_ns_mean": float(np.mean(times)),
        "step_ns_p90": float(np.percentile(times, 90)),
    }


def _ml_seed(result: MlResult, out_dir: Path, f_star: float) -> dict:
    """Write one seed's ml-run artifacts; returns its manifest summary."""
    from .serialize import save_matrix

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
    from .ensembles import make_rng

    if config.povm == "from-file":
        return _input_dataset(config)
    return _pauli_dataset(make_rng(config.data_seed), config.dims[0], config.shots)


def _pauli_dataset(rng: np.random.Generator, dim: int, shots: int) -> Dataset:
    """`shots` Pauli-basis records of a random D = `dim` truth state, both drawn from `rng`."""
    from .ensembles import random_density
    from .tomography import generate_dataset, pauli_basis_povms

    truth = random_density(rng, dim)
    return generate_dataset(truth, pauli_basis_povms(dim.bit_length() - 1), shots, rng)


# --- mode drivers ---------------------------------------------------------

class _Phases:
    """Wall-clock seconds of a run's phases, for its manifest's `phase_seconds`."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        """Add to `phase` the time since the previous lap (or since construction)."""
        now = time.perf_counter()
        self.seconds[phase] = self.seconds.get(phase, 0.0) + (now - self._mark)
        self._mark = now


def _run_ops(config: ExperimentConfig, out_dir: Path, phases: _Phases) -> dict:
    """Every seed's return stream, one lockstep game for all seeds, each
    seed's comparator, then each seed's CSV.

    The streams are drawn into one seed-major (S, T, D) stack and checked
    once each; every later phase reads a seed's stream as a view of it.
    Returns the manifest fields, with the seconds spent in each phase.
    """
    from .ensembles import make_rng, uniform_returns
    from .portfolio import (
        _best_fixed_portfolio,
        _soft_bayes_lockstep,
        ops_regret_bound,
        validate_return_stream,
    )
    from .serialize import format_column

    dim, rounds = config.dims[0], config.rounds
    returns = np.empty((len(config.seeds), rounds, dim))
    for seed, stream in zip(config.seeds, returns):
        uniform_returns(make_rng(seed), rounds, dim, out=stream)
        validate_return_stream(stream)
    phases.lap("returns")
    eta, losses, _ = _soft_bayes_lockstep(returns, config.eta, seeds=config.seeds)
    phases.lap("game")
    comparators = [_best_fixed_portfolio(stream) for stream in returns]
    phases.lap("comparator")
    bounds = ops_regret_bound(dim, np.arange(1, rounds + 1))
    bound_text = format_column(bounds)
    summaries = []
    for seed, stream, loss, comparator in zip(config.seeds, returns, losses, comparators):
        write_ops_report(out_dir / f"ops_seed{seed}.csv", loss, stream, comparator.weights,
                         bound_text)
        total_loss = float(np.sum(loss))
        summaries.append({
            "seed": seed,
            "eta": eta,
            "total_loss": total_loss,
            "comparator_loss": comparator.loss,
            "regret": total_loss - comparator.loss,
            "regret_bound": float(bounds[-1]),
            "comparator_gap": comparator.gap,
            "comparator_iterations": comparator.iterations,
            "comparator_restarts": comparator.restarts,
            "comparator_backtracks": comparator.backtracks,
        })
    phases.lap("write")
    return {"seed_summaries": summaries, "phase_seconds": phases.seconds}


def _dataset_block(streams: list[Dataset], start: int, stop: int) -> _Records:
    """Records start to stop - 1 of each stream, as one (n, S) block,
    hermitianized and decomposed in one stacked `eigh`.

    The datasets' checks passed them already, so they are not checked again.
    """
    from .qsb import _records

    H = hermitianize(np.stack([data.elements[data.index[start:stop]] for data in streams],
                              axis=1))
    return _records(H, *hermitian_eigh(H))


def _run_qst(config: ExperimentConfig, out_dir: Path, phases: _Phases) -> dict:
    """Every seed's dataset, one lockstep game over the distinct datasets,
    each one's oracle, then each seed's artifacts.

    A from-file input is the same dataset for every seed, so it is played
    as one stream, whose errors name no seed, and its oracle is solved
    once; every seed's files are written from that one result. A generated
    stream's errors name its seed. Returns the manifest fields, with the
    seconds spent in each phase.
    """
    from .qsb import _qst_game
    from .tomography import _ml_oracle

    datasets = _qst_datasets(config)
    phases.lap("dataset")
    streams = list({id(data): data for data in datasets}.values())
    labels = [""] if config.povm == "from-file" else [f"seed {s}: " for s in config.seeds]
    transcripts = _qst_game(lambda start, stop: _dataset_block(streams, start, stop),
                            config.rounds, config.dims[0], config.eta, labels)
    phases.lap("game")
    oracles = [_ml_oracle(data, tol=1e-7) for data in streams]
    phases.lap("oracle")
    answers = dict(zip(map(id, streams), zip(transcripts, oracles)))
    summaries = [_qst_seed(config, seed, *answers[id(data)], out_dir)
                 for seed, data in zip(config.seeds, datasets)]
    phases.lap("write")
    return {"seed_summaries": summaries, "phase_seconds": phases.seconds}


def _run_ml(config: ExperimentConfig, out_dir: Path, phases: _Phases) -> dict:
    """Dataset, oracle, all seeds' learners in one lockstep call, artifacts.

    Returns the manifest fields, with the seconds spent in each phase and
    the learners' microseconds per round (all seeds' steps of one round).
    """
    from .serialize import save_dataset, save_matrix
    from .tomography import _ml_oracle, stochastic_qsb

    data = _ml_dataset(config)
    phases.lap("dataset")
    save_dataset(out_dir / "dataset.json", data)
    phases.lap("save_dataset")
    rho_hat, f_star, *solve = _ml_oracle(data, tol=1e-7)
    phases.lap("oracle")
    checkpoints = list(config.checkpoints) if config.checkpoints is not None else None
    results = stochastic_qsb(data, config.rounds, config.seeds, eta=config.eta,
                             checkpoints=checkpoints)
    phases.lap("learners")
    save_matrix(out_dir / "rho_hat_oracle.json", rho_hat)
    summaries = [_ml_seed(result, out_dir, f_star) for result in results]
    phases.lap("write")

    extra: dict = {
        "oracle_objective": f_star,
        **dict(zip(_ORACLE_KEYS, solve)),
        "records": len(data),
        "distinct_records": len(data.elements),
        "seed_summaries": summaries,
    }
    gaps = [s["final_gap"] for s in summaries if "final_gap" in s]
    if gaps:
        extra["mean_final_gap"] = float(np.mean(gaps))
        extra["error_bound"] = ml_error_bound(data.dim, config.rounds)
    extra["phase_seconds"] = phases.seconds
    extra["learner_round_us"] = phases.seconds["learners"] / config.rounds * 1e6
    extra["learner_rounds"] = results[0].learner_rounds
    return extra


def _draws_ahead() -> bool:
    """Whether scaling-bench draws each block while the learner plays the one
    before: only on a one-thread OpenBLAS with a second CPU to draw on. A
    threaded BLAS called from both threads at once ran slower than the two
    one after the other (1.5x at D = 64 on 2 CPUs with 2 BLAS threads)."""
    from .serialize import _best_effort, _openblas_threads

    cpus = _best_effort(lambda: len(os.sched_getaffinity(0))) or os.cpu_count() or 1
    return _best_effort(_openblas_threads) == 1 and cpus > 1


@contextmanager
def _drawing_ahead(draw: Callable[[int, int], Any], rounds: int, step: int):
    """Yield `draw` as the learner loop calls it, a block of `step` rounds at a
    time, with each block drawn on a new thread while the loop plays the
    block before it.

    A block's draw starts when the block before it is handed over, so the
    draws run one at a time and in block order, and at most two blocks are
    held: the one playing and the one drawing. A failed draw raises when its
    block comes up, with its message. The thread drawing is joined on exit,
    also when the loop raises.
    """
    def drawing(start: int) -> tuple[threading.Thread, list]:
        answer: list = []

        def run() -> None:
            try:
                answer.append(draw(start, min(start + step, rounds)))
            except BaseException as exc:  # raised again by `drawn`, on the loop's thread
                answer.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        return thread, answer

    pending = drawing(0)

    def drawn(start: int, stop: int):
        nonlocal pending
        thread, answer = pending
        thread.join()
        (block,) = answer
        if isinstance(block, BaseException):
            raise block
        if stop < rounds:
            pending = drawing(stop)
        return block

    try:
        yield drawn
    finally:
        pending[0].join()


def _scaling_row(config: ExperimentConfig, seed: int, dim: int, ahead: bool) -> dict:
    """Step times at one dimension. The stream is drawn, checked and
    decomposed a block at a time, the learner loop's blocks, so no whole
    stream is held, and each block's one `eigh` both scales it and feeds the
    learner. With `ahead`, each block is drawn, and its records built, on a
    second thread while the learner plays the one before (`_drawing_ahead`);
    the generator gives every block the same bits either way."""
    from .ensembles import _psd_block, make_rng
    from .qsb import _qst_game, _records

    rng = make_rng(seed)

    def draw(start: int, stop: int) -> _Records:
        H, mu, U = _psd_block(rng, stop - start, dim)
        return _records(H[:, None], mu[:, None], U[:, None])

    source = _drawing_ahead(draw, config.rounds, _block_len(dim)) if ahead else nullcontext(draw)
    with source as blocks:
        (transcript,) = _qst_game(blocks, config.rounds, dim, config.eta)
    return {"dim": dim, "rounds": config.rounds, **_step_summary(transcript.step_times_ns)}


def _run_scaling(config: ExperimentConfig, out_dir: Path, phases: _Phases) -> dict:
    """Each dimension's row, then the report file.

    Returns the manifest fields, with the seconds spent drawing, checking and
    playing each dimension, keyed like `d64`.
    """
    from .serialize import write_json

    seed, ahead = config.seeds[0], _draws_ahead()
    table = []
    for dim in config.dims:
        table.append(_scaling_row(config, seed, dim, ahead))
        phases.lap(f"d{dim}")
    ratios = [
        {"from_dim": a["dim"], "to_dim": b["dim"],
         "median_ratio": b["step_ns_median"] / a["step_ns_median"]}
        for a, b in zip(table, table[1:])
    ]
    report = {"kind": "scaling-times", "seed": seed, "draws_ahead": ahead, "table": table,
              "ratios": ratios}
    write_json(out_dir / "scaling_times.json", report)
    return {"scaling": report, "phase_seconds": phases.seconds}


def _run_validate(config: ExperimentConfig) -> list[str]:
    from .serialize import dataset_form, dataset_from_record, load_payload, matrix_from_record

    rec = load_payload(config.input_path)
    kind = rec.get("kind")
    lines = [f"file: {config.input_path}", f"kind: {kind}"]
    if kind == "matrix":
        M = matrix_from_record(rec)
        H = validate_observation(M)
        lines.append(f"dim: {M.shape[0]}")
        lines.append("hermitian: ok")
        lines.append("psd: ok")
        trace = float(np.trace(M).real)
        try:
            _check_unit_trace(H)  # the one density test validate_observation did not make
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
    else:
        raise ValidationError(f"unrecognized container kind {kind!r}")
    lines.append("all checks passed")
    return lines


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one configured run; returns a process exit code.

    A run that fails before writing an artifact removes the directories it
    made for its output; a directory that existed before is kept.
    """
    made: list[Path] = []
    try:
        validate_config(config)
        if config.mode == "validate":
            for line in _run_validate(config):
                print(line)
            return 0

        started = time.monotonic()
        out_dir = Path(config.out)
        # the directories mkdir is about to make, innermost first
        made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        extra: dict = {"mode": config.mode}

        # numpy loads numpy.random on first use, and the mode's modules load
        # here: their one-off imports are a phase of their own, not a share of
        # the first phase that draws
        phases = _Phases()
        import numpy.random  # noqa: F401
        for name in MODE_MODULES[config.mode]:
            importlib.import_module(f".{name}", __package__)
        phases.lap("imports")
        driver = {"ops-game": _run_ops, "qst-game": _run_qst, "ml-run": _run_ml}
        extra.update(driver.get(config.mode, _run_scaling)(config, out_dir, phases))

        extra["elapsed_seconds"] = time.monotonic() - started
        extra["wallclock_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        from .serialize import write_manifest

        write_manifest(out_dir / "manifest.json", config_to_mapping(config), extra)
        print(f"wrote artifacts to {out_dir}")
        return 0
    except ConfigError as exc:
        message, code = f"config error: {exc}", 2
    except (ValidationError, DomainError, OSError) as exc:
        message, code = f"error: {exc}", 1
    except SolverError as exc:
        message, code = f"solver error: {exc}", 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        message, code = f"error: out of memory{detail}", 1
    print(message, file=sys.stderr)
    for path in made:
        try:
            path.rmdir()  # refused once the directory holds an artifact
        except FileNotFoundError:
            continue
        except OSError:
            break
    return code


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
