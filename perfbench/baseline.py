#!/usr/bin/env python3
"""Record the benchmark baseline in perfbench/baseline.json.

    python3 perfbench/baseline.py

For each workload, every run a run.py of BENCHMARK.json's run_seconds:
- one --trace 0 run per seed 1-10: the median, quartiles and spread,
  (Q3 - Q1) / median, of every end-to-end metric across seeds;
- two sets of SET_RUNS --trace 0 runs at the preset seed, taken
  alternately: each metric's two medians and how much worse the second is
  than the first, as a share of the first (what a comparison of two sets
  of runs of the same code sees);
- one --trace 1 run at the preset seed: the per-layer table.
Runs are sequential; expect about twelve minutes per workload.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PRESET_SEED = 0
HELD_OUT_SEED = 7777
SEEDS = list(range(1, 11))
SET_RUNS = 5


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == 0:
        print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v:.6g}" for k, v in values.items()),
              flush=True)
    return values


def across_seeds(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}


def two_sets(first, second, metric):
    a, b = statistics.median(first), statistics.median(second)
    worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    return {"medians": [a, b], "second_worse_by": worse,
            "within_bound": worse <= metric["bound"], "runs": [first, second]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    out = {
        "host": {"nproc": os.cpu_count(), "jobs": 1},
        "run_seconds": seconds,
        "preset_seed": PRESET_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": SEEDS,
        "set_runs": SET_RUNS,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        sets = ([], [])
        for _ in range(SET_RUNS):
            for s in sets:
                s.append(run(workload, PRESET_SEED, seconds, 0))
        e2e = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            e2e[name] = {
                "across_seeds": across_seeds([r[name] for r in runs]),
                "preset_seed_sets": two_sets([r[name] for r in sets[0]],
                                             [r[name] for r in sets[1]], m),
            }
            print(f"{workload:14} {name:18} median {e2e[name]['across_seeds']['median']:.6g} "
                  f"spread {e2e[name]['across_seeds']['spread']:.4f} second set worse by "
                  f"{e2e[name]['preset_seed_sets']['second_worse_by']:+.4f}", flush=True)
        out["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer_at_preset_seed": run(workload, PRESET_SEED, seconds, 1),
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
