"""The artifact bytes of small runs shaped like the canonical ones, pinned by sha256.

Each run's CSV, matrix and dataset files (manifests and `*_times.json`
excluded) hash to one digest per run. The bits depend on the numpy version
and on the BLAS/LAPACK build that `eigh` runs on, so the table is keyed by
that stack as `serialize.thread_setup` reports it. On a stack without an
entry the test skips, naming the stack and printing its digests; a change
that moves a byte updates the table and records the move in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from qsoftbayes.cli import main
from qsoftbayes.ensembles import make_rng, psd_observation_stream, random_density
from qsoftbayes.serialize import save_dataset, thread_setup
from qsoftbayes.tomography import Dataset, generate_dataset, pauli_basis_povms

DIGESTS = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0": {
        "ml-pauli-q2": "45c6f273dd0b0b81cd9004250125bfe68e1aa898f2889d12ed6f5bad9d44d002",
        "ml-file-rank1-q3": "445b814cda497c7a2388a4c2a7d333a8e6b214781602f6823c84a75c0e17fd41",
        "ml-file-mixed": "77921033e0a7ced57409d304dbc87e760749164ebec484d60ef3844d4b9c1cc1",
        "ml-pauli-q3-two-index-blocks":
            "c9666c581d15395e9a13a260b0b64fd10bdc560518ad70936352be7328d8fad8",
        "qst-random-rank1": "0f5d913eea721db103e08023285b667871fde192803cf22e575d73c6b59f85fb",
        "qst-file-full-rank": "d1599582dc35ee5b07ee3bdcd118152216c76a77661bd2adb8b57e3f702245cd",
        "qst-file-full-rank-three-seeds":
            "b19318f3c585b63e346c9611f5795af9d7dbe3dc6f584fe6d432029fb5cc1601",
        "qst-pauli-q2": "685710c96db5b76ffaf4ff6b1e0c4d4bad7a1b453f89afdde4d46214acee5cb0",
        "ops-d16": "3d6937cd43c6323e698e6cbf47b92f941a252d4f7ee2af62f48c2e6df16974d2",
    },
}


def stack() -> str:
    """The numpy version and BLAS build the artifact bits depend on."""
    setup = thread_setup()
    return f"numpy {np.__version__}, {setup['blas']} {setup['blas_version']}"


def stable_files(run_dir: Path) -> dict[str, str]:
    """Each stable artifact's sha256, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.iterdir())
            if p.name != "manifest.json" and not p.name.endswith("_times.json")}


def digest(files: dict[str, str]) -> str:
    """One sha256 over a run's file names and file digests, in name order."""
    return hashlib.sha256("".join(f"{name}\n{sha}\n" for name, sha in files.items())
                          .encode()).hexdigest()


def inputs(tmp: Path) -> dict[str, Path]:
    """The from-file inputs: a 3-qubit Pauli dataset (rank one), Pauli and
    Wishart D = 4 records shuffled together (mixed rank), and a Wishart
    stream (full rank)."""
    rng = make_rng(61)
    rank1 = generate_dataset(random_density(rng, 8), pauli_basis_povms(3), 200, rng)
    rng = make_rng(62)
    pauli = generate_dataset(random_density(rng, 4), pauli_basis_povms(2), 120, rng)
    both = np.concatenate([pauli.matrices, psd_observation_stream(rng, 120, 4)])
    files = {"rank1": (rank1, tmp / "rank1_q3.json"),
             "mixed": (Dataset(matrices=both[make_rng(63).permutation(len(both))]),
                       tmp / "mixed_d4.json"),
             "full": (Dataset(matrices=psd_observation_stream(make_rng(64), 150, 4)),
                      tmp / "full_d4.json")}
    for data, path in files.values():
        save_dataset(path, data)
    return {name: path for name, (_, path) in files.items()}


def runs(files: dict[str, Path]) -> dict[str, list[str]]:
    return {
        "ml-pauli-q2": ["ml-run", "--qubits", "2", "--shots", "500", "--rounds", "3000",
                        "--seeds", "0,1"],
        "ml-file-rank1-q3": ["ml-run", "--qubits", "3", "--povm", "from-file", "--input",
                             str(files["rank1"]), "--rounds", "300", "--seeds", "2"],
        "ml-file-mixed": ["ml-run", "--dim", "4", "--povm", "from-file", "--input",
                          str(files["mixed"]), "--rounds", "600", "--seeds", "3,4,5"],
        # 9000 shots: the dataset.json index spans two 8192-integer blocks
        "ml-pauli-q3-two-index-blocks": ["ml-run", "--qubits", "3", "--shots", "9000",
                                         "--rounds", "10"],
        "qst-random-rank1": ["qst-game", "--dim", "4", "--povm", "random-rank1",
                             "--rounds", "300", "--seeds", "0,1"],
        "qst-file-full-rank": ["qst-game", "--dim", "4", "--povm", "from-file", "--input",
                               str(files["full"]), "--rounds", "150", "--seeds", "6"],
        "qst-file-full-rank-three-seeds": ["qst-game", "--dim", "4", "--povm", "from-file",
                                           "--input", str(files["full"]), "--rounds", "150",
                                           "--seeds", "6,7,8"],
        "qst-pauli-q2": ["qst-game", "--qubits", "2", "--povm", "pauli-basis",
                         "--rounds", "400", "--seeds", "0,1"],
        "ops-d16": ["ops-game", "--dim", "16", "--rounds", "2000", "--seeds", "0,1"],
    }


def test_artifact_bytes_match_the_pinned_digests(tmp_path, capsys):
    files = inputs(tmp_path)
    found, listed = {}, {}
    for name, argv in runs(files).items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0, name
        listed[name] = stable_files(out)
        assert listed[name], name
        found[name] = digest(listed[name])
    capsys.readouterr()  # drop the runs' progress lines
    pinned = DIGESTS.get(stack())
    if pinned is None:
        pytest.skip(f"no artifact digests for the stack {stack()!r}; its digests: {found}")
    moved = {name: listed[name] for name in pinned if found[name] != pinned[name]}
    assert not moved, f"artifact bytes moved on {stack()!r}; the runs' files: {moved}"
    assert pinned.keys() == found.keys()
