"""The four benchmark workloads: inputs from a seed, the qsb call, its checks.

Each workload is a closed loop with one client: the same `qsb` call is made
again and again, one at a time, each in a fresh process. `prepare` writes
any input file before timing starts and returns the call's arguments, the
parameters the traced replica needs, and the workload's descriptors.

Checks come in two kinds. `check_run` reads the manifest and the
wall-clock sidecars of one call. `check_artifacts` reads the byte-stable
artifacts; calls with equal artifact digests share its verdict, so it runs
once per distinct digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qsoftbayes import (
    Dataset,
    generate_dataset,
    make_rng,
    pauli_basis_povms,
    random_density,
    stationarity_operator,
    validate_density,
)
from qsoftbayes.serialize import load_dataset, load_matrix, save_dataset

ORACLE_CERT_TOL = 1e-7       # the tolerance the CLI asks batch_ml_solve for
COMPARATOR_GAP_TOL = 1e-8    # best_fixed_portfolio's default tolerance

# ml-run and ops-game inputs are one fixed problem instance per workload
# (the CLI's default data seed, and return streams 0 and 1). The oracle's
# iteration count varies several-fold between datasets, and the ops
# comparator's by 1.5x between seed pairs, so an instance drawn from the
# workload seed would make wall time measure the draw, not the code. The
# workload seed drives the learner seeds on the ml workloads and, on
# ml-shots-3q, the order of the records on disk; ops-d16 does not use it.
INSTANCE_SEED = 0


@dataclass
class Verdict:
    errors: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Plan:
    argv: list[str]                 # qsb arguments, without --out
    params: dict                    # what the traced replica needs
    descriptors: dict               # D, records, rounds, seeds, distinct_frac


def distinct_frac(matrices: np.ndarray) -> float:
    """Distinct records (bit for bit) over records."""
    flat = np.ascontiguousarray(matrices, dtype=complex).reshape(len(matrices), -1)
    return len(np.unique(flat.view(np.float64), axis=0)) / len(matrices)


# --- ml-run workloads ------------------------------------------------------

def _ml_check_run(out: Path, manifest: dict, params: dict) -> Verdict:
    v = Verdict()
    gap, bound = manifest.get("mean_final_gap"), manifest.get("error_bound")
    if gap is None or bound is None:
        v.errors.append("manifest lacks mean_final_gap or error_bound")
        return v
    v.facts["gap_over_bound"] = gap / bound
    if not gap <= bound:
        v.errors.append(f"mean_final_gap {gap!r} exceeds error_bound {bound!r}")
    return v


def _ml_check_artifacts(out: Path, params: dict) -> Verdict:
    v = Verdict()
    data = load_dataset(out / "dataset.json")
    rho_hat = load_matrix(out / "rho_hat_oracle.json")
    cert = float(np.linalg.eigvalsh(stationarity_operator(rho_hat, data))[-1]) - 1.0
    v.facts["oracle_cert_gap"] = cert
    v.facts["distinct_frac"] = distinct_frac(data.matrices)
    v.facts["records"] = len(data)
    if not cert <= ORACLE_CERT_TOL:
        v.errors.append(f"oracle certificate {cert:.3e} exceeds {ORACLE_CERT_TOL:.0e}")
    bars = sorted(out.glob("rho_bar_seed*.json"))
    if len(bars) != len(params["seeds"]):
        v.errors.append(f"{len(bars)} rho_bar files for {len(params['seeds'])} seeds")
    for path in bars:
        try:
            validate_density(load_matrix(path))
        except ValueError as exc:
            v.errors.append(f"{path.name}: {exc}")
    return v


def prepare_ml_rounds_2q(seed: int, work: Path) -> Plan:
    seeds = [2 * seed, 2 * seed + 1]
    params = {"qubits": 2, "shots": 6000, "rounds": 10000, "seeds": seeds,
              "data_seed": INSTANCE_SEED}
    argv = ["ml-run", "--qubits", "2", "--shots", str(params["shots"]),
            "--rounds", str(params["rounds"]), "--seeds", ",".join(map(str, seeds)),
            "--data-seed", str(INSTANCE_SEED)]
    descriptors = {"D": 4, "records": params["shots"], "rounds": params["rounds"],
                   "seeds": len(seeds), "distinct_frac": None}
    return Plan(argv, params, descriptors)


def make_3q_dataset(seed: int, shots: int) -> Dataset:
    """Fixed 3-qubit Pauli instance; the workload seed permutes its records."""
    rng = make_rng(INSTANCE_SEED)
    truth = random_density(rng, 8)
    data = generate_dataset(truth, pauli_basis_povms(3), shots, rng)
    order = make_rng(seed).permutation(shots)
    return Dataset(matrices=data.matrices[order], povm_indices=data.povm_indices[order],
                   outcome_indices=data.outcome_indices[order])


def prepare_ml_shots_3q(seed: int, work: Path) -> Plan:
    shots = 4000
    data = make_3q_dataset(seed, shots)
    path = work / "input_dataset.json"
    save_dataset(path, data)
    params = {"shots": shots, "rounds": 100, "seeds": [seed], "input": str(path)}
    argv = ["ml-run", "--dim", "8", "--povm", "from-file", "--input", str(path),
            "--rounds", str(params["rounds"]), "--seeds", str(seed)]
    descriptors = {"D": 8, "records": shots, "rounds": params["rounds"], "seeds": 1,
                   "distinct_frac": distinct_frac(data.matrices)}
    return Plan(argv, params, descriptors)


# --- scaling-bench ---------------------------------------------------------

def _scaling_check_run(out: Path, manifest: dict, params: dict) -> Verdict:
    v = Verdict()
    table = json.loads((out / "scaling_times.json").read_text(encoding="utf-8"))["table"]
    dims = [row["dim"] for row in table]
    if dims != params["dims"]:
        v.errors.append(f"scaling table rows for dims {dims}, requested {params['dims']}")
    return v


def _no_artifact_check(out: Path, params: dict) -> Verdict:
    return Verdict()


def prepare_scaling_d64(seed: int, work: Path) -> Plan:
    params = {"dims": [16, 32, 64], "rounds": 300, "seeds": [seed]}
    argv = ["scaling-bench", "--dim", "16,32,64", "--rounds", str(params["rounds"]),
            "--seeds", str(seed)]
    descriptors = {"D": 64, "records": params["rounds"], "rounds": params["rounds"],
                   "seeds": 1, "distinct_frac": 1.0}
    return Plan(argv, params, descriptors)


# --- ops-game --------------------------------------------------------------

def _ops_check_run(out: Path, manifest: dict, params: dict) -> Verdict:
    v = Verdict()
    summaries = manifest.get("seed_summaries", [])
    if [s["seed"] for s in summaries] != params["seeds"]:
        v.errors.append(f"seed summaries for {[s['seed'] for s in summaries]}")
        return v
    worst = 0.0
    for s in summaries:
        worst = max(worst, s["regret"] / s["regret_bound"])
        if not s["regret"] <= s["regret_bound"]:
            v.errors.append(f"seed {s['seed']}: regret {s['regret']!r} above bound")
        if not s["comparator_gap"] <= COMPARATOR_GAP_TOL:
            v.errors.append(f"seed {s['seed']}: comparator gap {s['comparator_gap']:.3e}")
    v.facts["regret_over_bound"] = worst
    return v


def _ops_check_artifacts(out: Path, params: dict) -> Verdict:
    v = Verdict()
    for s in params["seeds"]:
        path = out / f"ops_seed{s}.csv"
        lines = path.read_text(encoding="utf-8").count("\n") if path.is_file() else 0
        if lines != params["rounds"] + 1:
            v.errors.append(f"{path.name}: {lines} lines, expected {params['rounds'] + 1}")
    return v


def prepare_ops_d16(seed: int, work: Path) -> Plan:
    seeds = [INSTANCE_SEED, INSTANCE_SEED + 1]
    params = {"dim": 16, "rounds": 20000, "seeds": seeds}
    argv = ["ops-game", "--dim", "16", "--rounds", str(params["rounds"]),
            "--seeds", ",".join(map(str, seeds))]
    descriptors = {"D": 16, "records": params["rounds"], "rounds": params["rounds"],
                   "seeds": len(seeds), "distinct_frac": 1.0}
    return Plan(argv, params, descriptors)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], Plan]
    check_run: Callable[[Path, dict, dict], Verdict]
    check_artifacts: Callable[[Path, dict], Verdict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ml-rounds-2q", prepare_ml_rounds_2q, _ml_check_run, _ml_check_artifacts),
        Workload("ml-shots-3q", prepare_ml_shots_3q, _ml_check_run, _ml_check_artifacts),
        Workload("scaling-d64", prepare_scaling_d64, _scaling_check_run, _no_artifact_check),
        Workload("ops-d16", prepare_ops_d16, _ops_check_run, _ops_check_artifacts),
    )
}
