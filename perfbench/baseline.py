"""Repeat the benchmark over seeds and summarize each metric's spread.

Usage (from the repository root):

    python3 perfbench/baseline.py --runs 10 [--workloads ml-rounds-2q,ops-d16]
                                  [--first-seed 1] [--write]

Runs `run.py --trace 0` once per seed for each workload, one run at a time,
each for BENCHMARK.json's run_seconds (25), and prints for every
end-to-end metric the median of the per-run values, their quartiles and
the spread (q3 - q1) / median, as statistics.quantiles(values, n=4) gives
them. A spread above a third of the metric's bound is flagged, and one
above the bound itself more loudly. It also prints the other
figures each run reports (fail_frac, gap_over_bound, regret_over_bound)
across all runs. With --write the table, the run count and the environment
are stored in perfbench/baseline.json, the baseline later changes are
judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "_out" / f"{workload}.json").read_text(encoding="utf-8"))
    return result, detail


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)

    cfg = bench_config()
    seconds = cfg["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in cfg["workloads"]]
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    table = {}
    env = None
    for name in names:
        per_metric: dict[str, list[float]] = {}
        extra: dict[str, list[float]] = {"fail_frac": []}
        descriptors = None
        run_s = []
        for seed in seeds:
            t0 = time.monotonic()
            result, detail = run_once(name, seed, seconds)
            run_s.append(time.monotonic() - t0)
            if not result["correct"]:
                print(f"{name} seed {seed}: INCORRECT {detail.get('errors')}")
            for metric, entry in result["metrics"].items():
                per_metric.setdefault(metric, []).append(entry["value"])
            extra["fail_frac"].append(result["failed"] / result["attempted"])
            for key in ("gap_over_bound", "regret_over_bound"):
                if key in detail["facts"]:
                    extra.setdefault(key, []).append(detail["facts"][key])
            descriptors, env = detail["descriptors"], detail["env"]
            print(f"  seed {seed}: " + "  ".join(
                f"{m} min {s['min']:.4g} med {s['median']:.4g} n {s['n']}"
                for m, s in detail["stats"].items()), flush=True)
        rows = {m: spread(v) for m, v in per_metric.items()}
        table[name] = {"descriptors": descriptors, "end_to_end": rows,
                       "other": {k: {"median": statistics.median(v), "min": min(v), "max": max(v)}
                                 for k, v in extra.items()},
                       "run_wall_s_max": max(run_s)}
        print(f"{name}  ({len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"longest run {max(run_s):.1f} s)  {descriptors}")
        for m, r in rows.items():
            flag = ("" if r["spread"] <= bounds[m] / 3 else
                    "  <-- above bound/3" if r["spread"] <= bounds[m] else "  <-- ABOVE BOUND")
            print(f"  {m:<14} median {r['median']:.6g}  q1 {r['q1']:.6g}  q3 {r['q3']:.6g}  "
                  f"spread {r['spread']:.4f}  (bound {bounds[m]}){flag}")
        for k, v in extra.items():
            med = statistics.median(v)
            print(f"  {k:<14} median {med:.6g}  min {min(v):.6g}  max {max(v):.6g}")
        sys.stdout.flush()

    if args.write:
        record = {
            "what": "per-workload medians and quartiles over runs of run.py --trace 0, "
                    "one seed per run; spread = (q3 - q1) / median",
            "runs_per_workload": len(seeds),
            "seeds": seeds,
            "run_seconds": seconds,
            "env": env,
            "workloads": table,
        }
        (HERE / "baseline.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
