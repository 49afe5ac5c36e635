import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsoftbayes
from qsoftbayes.serialize import save_dataset
from qsoftbayes.tomography import Dataset


def test_each_exported_name_is_listed_once_and_resolves():
    names = qsoftbayes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(qsoftbayes, name), name


# A tiny run of each mode, and the package modules it may load: a mode loads
# only what it runs, so a top-level import cannot move its cost into the
# import of the CLI, which every call pays
ALL_MODULES = {"cli", "linalg", "ensembles", "portfolio", "qsb", "serialize", "tomography"}
RUNS = {
    "import": ([], {"cli", "linalg"}),
    "ops-game": (["ops-game", "--dim", "2", "--rounds", "5"],
                 {"cli", "linalg", "ensembles", "portfolio", "serialize"}),
    "qst-game": (["qst-game", "--dim", "2", "--rounds", "5", "--povm", "random-rank1"],
                 ALL_MODULES),
    "ml-run": (["ml-run", "--qubits", "1", "--shots", "10", "--rounds", "5"], ALL_MODULES),
    "scaling-bench": (["scaling-bench", "--dim", "2,4", "--rounds", "5"],
                      {"cli", "linalg", "ensembles", "portfolio", "qsb", "serialize"}),
    "validate": (["validate"], ALL_MODULES),
}


@pytest.mark.parametrize("run", list(RUNS))
def test_the_cli_imports_no_third_party_package_but_numpy(tmp_path, run):
    """numpy is the one dependency: importing the CLI in a fresh interpreter,
    and running each mode after it, loads no other installed package (scipy,
    say), only the standard library; and of the package, only the modules in
    RUNS. Packages that the interpreter loads at start-up, before the import,
    are not the CLI's. numpy.random stays unloaded by the import: a run
    imports it in its first phase (`imports`), outside the import that
    `setup_s` times."""
    argv, modules = RUNS[run]
    if run == "validate":
        save_dataset(tmp_path / "d.json", Dataset(matrices=np.eye(2)[None]))
        argv = argv + [str(tmp_path / "d.json")]
    elif argv:
        argv = argv + ["--out", str(tmp_path / "run")]
    src = str(Path(qsoftbayes.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the modules the import system loaded: Cython extensions (numpy.random's)
    # also register helper modules of their own, which have no spec
    code = ("import sys; before = set(sys.modules); from qsoftbayes import cli; "
            "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(*sorted(name for name, module in sys.modules.items() "
            "if name not in before and getattr(module, '__spec__', None))); sys.exit(code)")
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                            capture_output=True, text=True, timeout=60)
    names = result.stdout.splitlines()[-1].split()
    loaded = {name.partition(".")[0] for name in names}
    assert loaded - set(sys.stdlib_module_names) == {"qsoftbayes", "numpy"}
    ours = {name.partition(".")[2] for name in names if name.startswith("qsoftbayes.")}
    assert ours == modules
    if run == "import":
        assert "numpy.random" not in names


# The nine acceptance verdicts, one test each, in the order of the file
VERDICTS = ["test_trace_bound", "test_classical_reduction", "test_regret_bounds",
            "test_online_to_batch_convergence", "test_reverse_jensen_inequality",
            "test_golden_thompson_inequality", "test_batch_oracle", "test_cubic_scaling",
            "test_byte_determinism"]


def test_the_acceptance_file_defines_exactly_the_nine_verdicts():
    """A deletion sweep cannot drop, rename or skip a verdict silently: the
    file's tests are the nine by name, none in a class, none decorated."""
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    tests = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test")]
    assert [node.name for node in tests] == VERDICTS
    assert all(node in tree.body and not node.decorator_list for node in tests)
