import os
import subprocess
import sys
from pathlib import Path

import qsoftbayes


def test_each_exported_name_is_listed_once_and_resolves():
    names = qsoftbayes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(qsoftbayes, name), name


def test_the_cli_imports_no_third_party_package_but_numpy():
    """numpy is the one dependency: importing the CLI in a fresh interpreter
    loads no other installed package (scipy, say), only the standard library.
    Packages that the interpreter loads at start-up, before the import, are
    not the CLI's."""
    src = str(Path(qsoftbayes.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; before = set(sys.modules); import qsoftbayes.cli; "
            "print(*sorted(set(sys.modules) - before))")
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    loaded = {name.partition(".")[0] for name in run.stdout.split()}
    assert "qsoftbayes" in loaded and "numpy" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"qsoftbayes", "numpy"}
