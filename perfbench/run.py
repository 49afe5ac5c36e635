"""Benchmark of the `qsb` CLI: time to a certified result, set-up time, memory.

Usage (from the repository root):

    python3 perfbench/run.py --workload ml-rounds-2q --seed 1 --seconds 25 --trace 0

With --trace 0 the workload's `qsb` call is made again and again, one call
at a time and each in a fresh process, until --seconds have been spent
since this process started; every call's outputs are checked, and the
end-to-end metrics are taken over the calls and over import-only launches
between them. With --trace 1 one untraced call is followed by a
traced replica of the same pipeline in this process (see tracing.py), which
gives the per-layer metrics. Human-readable lines come first; the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Details, samples and the environment go to perfbench/_out/.

The program is imported from src/ of the checkout the benchmark sits in.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()  # the --seconds budget counts from here

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import common

common.pin_environment()  # before anything imports numpy

# Metric -> unit. Each is the median over the run's samples: setup_s over
# the import-only launches, wall_s and peak_rss_mb over the calls. setup_s
# and wall_s are taken to nominal host speed (common.speed_scale); the raw
# times are printed and recorded beside them.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
WORK_ROOT = common.BENCH_DIR / "_work"
OUT_ROOT = common.BENCH_DIR / "_out"
SETUP_PROBES_FIRST = 4    # import-only launches before the first call
SETUP_PROBES_BETWEEN = 2  # and after every call


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark of the qsb CLI.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_call(workload, plan, out: Path, times_file: Path, artifact_cache: dict) -> dict:
    """Make one qsb call and check everything it wrote."""
    res = common.launch(plan.argv + ["--out", str(out)], times_file)
    call = {"setup_s": res.setup_s, "wall_s": res.wall_s, "peak_rss_mb": res.peak_rss_mb,
            "setup_scale": res.setup_scale, "wall_scale": res.wall_scale,
            "errors": [], "facts": {}, "digest": None}
    if res.code != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        call["errors"].append(f"exit code {res.code}: {tail[0]}")
        return call
    if not Path(res.module).resolve().is_relative_to(common.SRC):
        call["errors"].append(f"imported {res.module}, not the checkout's src/")
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        verdict = workload.check_run(out, manifest, plan.params)
        digest = common.artifact_digest(out)
        if digest not in artifact_cache:
            artifact_cache[digest] = workload.check_artifacts(out, plan.params)
        shared = artifact_cache[digest]
    except Exception as exc:  # a malformed output is a failed check, not a crash
        call["errors"].append(f"output check raised {type(exc).__name__}: {exc}")
        return call
    call["digest"] = digest
    call["errors"] += verdict.errors + shared.errors
    call["facts"] = {**shared.facts, **verdict.facts}
    return call


def flag_digest_drift(calls: list[dict]) -> tuple[str | None, bool]:
    """All calls of a run share one config, so their artifacts must agree.

    Returns the first call's digest and whether any call differed from it.
    """
    digests = [c["digest"] for c in calls if c["digest"] is not None]
    if not digests:
        return None, False
    reference, drift = digests[0], False
    for c in calls:
        if c["digest"] not in (None, reference):
            c["errors"].append(f"artifact digest {c['digest'][:16]} differs from {reference[:16]}")
            drift = True
    return reference, drift


def probe_setup(times_file: Path, count: int) -> list[tuple[float, float]]:
    """(raw set-up time, speed scale) of `count` import-only launches."""
    samples = []
    for _ in range(count):
        res = common.launch([], times_file)
        if res.code == 0:
            samples.append((res.setup_s, res.setup_scale))
    return samples


def measure(workload, plan, work: Path, seconds: float) -> dict:
    """Call until the next call would end past `seconds` after process start."""
    times_file = work / "times.json"
    common.launch([], times_file)  # untimed warm-up: bytecode cache, page cache
    setup = probe_setup(times_file, SETUP_PROBES_FIRST)
    calls: list[dict] = []
    artifact_cache: dict = {}
    loop_started = time.monotonic()
    while True:
        out = work / f"call{len(calls)}"
        calls.append(run_call(workload, plan, out, times_file, artifact_cache))
        shutil.rmtree(out, ignore_errors=True)
        setup += probe_setup(times_file, SETUP_PROBES_BETWEEN)
        now = time.monotonic()
        per_call = (now - loop_started) / len(calls)
        if now - STARTED + per_call > seconds:
            break
    digest, drift = flag_digest_drift(calls)
    return {"calls": calls, "setup_samples": setup, "digest": digest, "drift": drift,
            "measured_s": time.monotonic() - STARTED}


def end_to_end_metrics(result: dict) -> tuple[dict, dict]:
    """Stats of the end-to-end metrics, the raw times and the host speeds."""
    passed = [c for c in result["calls"] if not c["errors"]]
    timed = passed or result["calls"]  # a run with no passing call still reports
    setup = result["setup_samples"] or [(c["setup_s"], c["setup_scale"]) for c in timed]
    samples = {
        "setup_s": [t * k for t, k in setup],
        "wall_s": [c["wall_s"] * c["wall_scale"] for c in timed],
        "peak_rss_mb": [c["peak_rss_mb"] for c in timed],
        "raw_setup_s": [t for t, _ in setup],
        "raw_wall_s": [c["wall_s"] for c in timed],
        "host_speed": [k for _, k in setup] + [c["wall_scale"] for c in timed],
    }
    # A child that died before writing its clock readings has no times.
    samples = {name: [x for x in values if math.isfinite(x)] or [0.0]
               for name, values in samples.items()}
    return {name: common.summary(values) for name, values in samples.items()}, samples


def print_report(name, plan, env, stats, result, facts) -> None:
    calls = result["calls"]
    d = plan.descriptors
    print(f"workload {name}: D={d['D']} records={d['records']} rounds={d['rounds']} "
          f"seeds={d['seeds']} distinct_frac={_fmt(d['distinct_frac'])}")
    print(f"qsb {' '.join(plan.argv)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {**END_TO_END, "raw_setup_s": "s", "raw_wall_s": "s", "host_speed": "x"}
    for metric, unit in units.items():
        s = stats[metric]
        print(f"  {metric:<18} {s['median']:.6g} {unit}  median of {s['n']} "
              f"(min {s['min']:.6g}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    failed = sum(1 for c in calls if c["errors"])
    print(f"  {'fail_frac':<18} {failed / len(calls):.6g}  ({failed} of {len(calls)} calls)")
    for key in ("gap_over_bound", "regret_over_bound", "oracle_cert_gap"):
        if key in facts:
            print(f"  {key:<18} {facts[key]:.6g}  (deterministic for the seed)")
    if result["digest"] is None:
        print(f"  {'artifact digest':<18} n/a (this call writes no byte-stable artifacts)")
    else:
        agreement = "DRIFT: calls disagree" if result["drift"] else "all calls agree"
        print(f"  {'artifact digest':<18} sha256:{result['digest']} ({agreement})")
    for i, c in enumerate(calls):
        for err in c["errors"]:
            print(f"  FAIL call {i}: {err}")


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_untraced(workload, plan, work: Path, args, env: dict) -> dict:
    result = measure(workload, plan, work, args.seconds)
    stats, samples = end_to_end_metrics(result)
    calls = result["calls"]
    facts = next((c["facts"] for c in calls if not c["errors"]), calls[0]["facts"])
    if plan.descriptors["distinct_frac"] is None:
        plan.descriptors["distinct_frac"] = facts.get("distinct_frac")
    print_report(args.workload, plan, env, stats, result, facts)
    failed = sum(1 for c in calls if c["errors"])
    return {
        "record": {"stats": stats, "samples": samples, "digest": result["digest"],
                   "facts": facts, "measured_s": result["measured_s"],
                   "errors": [e for c in calls for e in c["errors"]]},
        "json": (failed == 0, len(calls), failed,
                 {k: {"value": stats[k]["median"], "unit": unit}
                  for k, unit in END_TO_END.items()}),
    }


def run_traced(workload, plan, work: Path, args, env: dict) -> dict:
    import tracing

    times_file = work / "times.json"
    common.launch([], times_file)  # warm-up, as in the untraced run
    cli_out, replica_out = work / "cli", work / "replica"
    replica_out.mkdir()
    call = run_call(workload, plan, cli_out, times_file, {})
    tr = tracing.Tracer()
    traced_total, facts, mismatches = tracing.PIPELINES[args.workload](
        tr, plan.params, cli_out, replica_out)
    # One more CLI call, in this process, counts the program's own validations.
    code = tracing.count_validations(tr, plan.argv + ["--out", str(work / "counted")])
    counted_errors = [f"exit code {code}"] if code != 0 else []
    distinct = plan.descriptors["distinct_frac"]
    if distinct is None:
        distinct = call["facts"].get("distinct_frac", 0.0)
    metrics = tracing.layer_metrics(tr, facts, distinct)
    untraced = call["wall_s"] - call["setup_s"]
    metrics["trace.traced_total_s"] = traced_total
    metrics["trace.replica_mismatches"] = float(len(mismatches))
    metrics["trace_overhead_frac"] = traced_total / untraced - 1.0 if untraced > 0 else 0.0

    print(f"workload {args.workload} (traced): qsb {' '.join(plan.argv)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  untraced call: wall_s {call['wall_s']:.6g} s, setup_s {call['setup_s']:.6g} s")
    for key, value in metrics.items():
        print(f"  {key:<44} {value:.6g} {tracing.PER_LAYER[key]}")
    for err in call["errors"]:
        print(f"  FAIL untraced call: {err}")
    for err in counted_errors:
        print(f"  FAIL in-process call: {err}")
    for problem in mismatches:
        print(f"  MISMATCH replica: {problem}")
    failed = int(bool(call["errors"])) + int(bool(mismatches)) + int(bool(counted_errors))
    return {
        "record": {"untraced_call": {k: call[k] for k in ("setup_s", "wall_s", "peak_rss_mb")},
                   "metrics": metrics, "mismatches": mismatches,
                   "errors": call["errors"] + counted_errors,
                   "span_counts": {k: len(v) for k, v in tr.spans.items()}},
        "json": (failed == 0, 3, failed,
                 {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in metrics.items()}),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.source_present():
        print(f"error: {common.SRC}/qsoftbayes/cli.py not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    env = common.environment_record()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        plan = workload.prepare(args.seed, work)
        runner = run_traced if args.trace else run_untraced
        outcome = runner(workload, plan, work, args, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT_ROOT.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "argv": plan.argv, "descriptors": plan.descriptors, "env": env,
              **outcome["record"]}
    (OUT_ROOT / f"{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    emit(*outcome["json"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
