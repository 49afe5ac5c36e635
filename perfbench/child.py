"""One timed `qsb` call in a fresh process.

Usage: child.py SRC_DIR TIMES_FILE [qsb arguments...]

Imports `qsoftbayes.cli` from SRC_DIR, runs the CLI on the remaining
arguments and writes to TIMES_FILE the CLOCK_MONOTONIC readings taken when
the import finished and when the CLI returned, the path of the module that
was imported, and the host-speed probes taken meanwhile. With no qsb
arguments it only imports, which is how the benchmark probes set-up time.
The exit code is the CLI's.

Host-speed probes: every PROBE_EVERY_S of wall time a SIGALRM handler runs
a fixed pure-Python loop twice and records when the second run started and
how long it took. On a shared host the same code runs up to 2x slower for a
few seconds at a time, so the benchmark uses these readings to express the
call's time at a fixed host speed (see common.speed_scale). The probes add
about 2% to the call's time, and their data about 4 MB to its peak RSS.
"""

import json
import signal
import sys
import time

PROBE_EVERY_S = 0.015
probes = []  # (monotonic time, seconds the probe loop took)
_floats = [float(i) for i in range(100_000)]  # 3 MB that the probe walks
_names = {str(i): i for i in range(1000)}
_keys = list(_names)


def probe_loop() -> float:
    """Dict lookups and a strided walk through memory, as the program does.

    It creates no container objects, so it never sets off the program's
    garbage collector, whose cost depends on the program's heap.
    """
    acc = 0.0
    for key in _keys:
        acc += _names[key]
    for i in range(0, len(_floats), 61):
        acc += _floats[i]
    return acc


def on_alarm(signum, frame) -> None:
    probe_loop()  # brings the probe's data back into cache, so the timed run
    t = time.perf_counter()  # reads the host's speed, not the program's footprint
    probe_loop()
    probes.append((time.monotonic(), time.perf_counter() - t))


def main() -> int:
    src, times_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    sys.path.insert(0, src)
    from qsoftbayes import cli

    imported = time.monotonic()
    code = cli.main(argv) if argv else 0
    returned = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(times_file, "w", encoding="utf-8") as fh:
        json.dump({"imported": imported, "returned": returned, "module": cli.__file__,
                   "probes": probes}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
