"""Shared pieces of the benchmark: pinned environment, child launches, stats.

`pin_environment` must run before numpy is imported anywhere in the
process, because OpenBLAS reads its thread count once, at load time.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: the plain single-threaded baseline, and the steadier
# setting on a small shared box. No transparent huge pages for numpy's
# arrays, so that whether the host has a free huge page when an array is
# allocated cannot change peak RSS or timings. Set for the benchmark and
# every child.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"


def pin_environment() -> None:
    """Fix BLAS threads and clear QSB_THREADS so the sequential path is timed."""
    os.environ.update(PINNED_ENV)
    os.environ.pop("QSB_THREADS", None)


def source_present() -> bool:
    return (SRC / "qsoftbayes" / "cli.py").is_file()


@dataclass(frozen=True)
class Launch:
    """Outcome of one child process: exit code, clock readings, peak RSS.

    setup_scale and wall_scale take setup_s and wall_s to nominal host
    speed (see speed_scale).
    """

    code: int
    setup_s: float      # process launch until `qsoftbayes.cli` was imported
    wall_s: float       # process launch until the CLI returned
    peak_rss_mb: float
    module: str
    stderr: str
    setup_scale: float = float("nan")
    wall_scale: float = float("nan")


def launch(argv: list[str], times_file: Path) -> Launch:
    """Run child.py with qsb arguments `argv`; stdout is discarded."""
    times_file.unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(SRC), str(times_file), *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    # Read stderr to EOF, then reap with wait4, which also returns the
    # child's own resource usage (its peak RSS).
    stderr = proc.stderr.read().decode("utf-8", "replace")
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        times = json.loads(times_file.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        times = None
    if times is None:
        return Launch(proc.returncode or 1, float("nan"), float("nan"),
                      usage.ru_maxrss / 1024.0, "", stderr)
    return Launch(
        code=proc.returncode,
        setup_s=times["imported"] - started,
        wall_s=times["returned"] - started,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        module=times["module"],
        stderr=stderr,
        setup_scale=speed_scale(times["probes"], times["imported"]),
        wall_scale=speed_scale(times["probes"], times["returned"]),
    )


# Host-speed calibration. On a shared VM the same code runs up to 2x slower
# for a few seconds at a time, in CPU time as much as in wall time, and the
# mix of fast and slow spells differs from one call to the next, so no
# statistic over raw times holds still between runs. child.py therefore
# times a fixed probe loop every 15 ms while the program runs, in the same
# process, and a launch's times are scaled by the mean over those probes of
# PROBE_NOMINAL_S / (probe time): the result is the time the launch would
# have taken had the host run at the speed where the probe takes
# PROBE_NOMINAL_S throughout. The probe warms its own data before it is
# timed and allocates no containers, so the program's cache footprint and
# heap do not move its time; a change to the program cannot move it.
PROBE_NOMINAL_S = 0.00015  # the probe loop in the fast state of a 2-vCPU x86_64 VM


def speed_scale(probes: list, end: float) -> float:
    """Mean relative host speed over the probes taken up to `end`; nan if none."""
    speeds = [PROBE_NOMINAL_S / took for at, took in probes if at <= end]
    return statistics.fmean(speeds) if speeds else float("nan")


def summary(values: list[float]) -> dict:
    """Minimum, median and quartiles as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"min": min(values), "median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n q / 100)
    return float(ordered[int(rank) - 1])


def stable_artifacts(run_dir: Path) -> dict[str, bytes]:
    """Artifacts that must be byte-identical for one config and seed.

    The exclusions match the CLI's determinism test: the manifest and the
    *_times.json sidecars carry wall-clock data.
    """
    return {
        p.name: p.read_bytes()
        for p in sorted(run_dir.iterdir())
        if p.is_file() and p.name != "manifest.json" and not p.name.endswith("_times.json")
    }


def artifact_digest(run_dir: Path) -> str | None:
    """sha256 over the stable artifacts; None when a call writes none of them."""
    artifacts = stable_artifacts(run_dir)
    if not artifacts:
        return None
    h = hashlib.sha256()
    for name, data in artifacts.items():
        h.update(name.encode("utf-8") + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def environment_record() -> dict:
    """nproc, interpreter, numpy, the BLAS library and its thread count."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "blas_threads_queried": _openblas_threads(np),
        "qsb_threads": os.environ.get("QSB_THREADS", "unset"),
        "numpy_madvise_hugepage": PINNED_ENV["NUMPY_MADVISE_HUGEPAGE"],
        "machine": platform.machine(),
    }


def _openblas_threads(np) -> int | None:
    """Ask the OpenBLAS that numpy loaded for its thread count, if it is one."""
    import ctypes

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None
