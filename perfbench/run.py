#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/bench.exe with dune from the checkout's sources, then
runs reps of workload W — one fresh process per rep, one at a time. The
number of reps is fixed by S and the workload (see WORKLOADS). Every rep
checks its own outputs (frame and market conservation, commit
accounting, recovery agreement, no live processes); reps at one seed
must agree on every simulated output.

--trace 0 reports the end-to-end metrics: host time as the sum, over laps
of fixed simulated work, of each lap's fastest time across the reps; the
median over the reps of each rep's fastest set-up.
--trace 1 runs untraced/traced rep pairs, checks that tracing leaves every
simulated output unchanged, pins the workload against its library
counterpart, and reports the per-layer metrics.

The last line of standard output is one JSON object:
{"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}.
A failed build, check or pin prints no result and exits non-zero.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
REP_TIMEOUT_S = 150
MIN_REPS = 3

# Nominal wall seconds of one untraced rep (process start and set-ups
# included) on the 2-CPU baseline machine, outside its slow phases. A run makes
# max(MIN_REPS, round(seconds / rep_s)) reps: the count depends on
# --seconds only, never on how fast the code under test runs, so both
# sides of a comparison take their lap minima over the same number of reps.
WORKLOADS = {
    "debitcredit": {"rep_s": 1.45},
    "market": {"rep_s": 1.15},
}


class BenchError(Exception):
    pass


def declared():
    """BENCHMARK.json: the metric names and units a result reports."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        raise BenchError("no BENCHMARK.json at the checkout root")
    with open(path) as f:
        return json.load(f)


def result_metrics(kind, values, absent=None):
    """The declared [kind] metrics, each looked up in [values]; a name
    missing there reads [absent], or is an error if that is None."""
    out = {}
    for m in declared()[kind]:
        value = values.get(m["name"], absent)
        if value is None:
            raise BenchError(f"BENCHMARK.json declares {kind} metric {m['name']}, "
                             "which no rep measures")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def log(msg):
    print(msg, flush=True)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else (["opam", "exec", "--", "dune"] if shutil.which("opam") else None)
    if cmd is None:
        raise BenchError("dune not found on PATH")
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project at the checkout root: the repository sources are missing")
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        cmd + ["build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        raise BenchError("build failed:\n" + proc.stdout + proc.stderr)


def bench(args):
    """Run bench.exe once; return its JSON line (or raise on failure)."""
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"bench.exe {' '.join(args)} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"bench.exe {' '.join(args)} failed (exit {proc.returncode}):\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def rep(workload, seed, quick, traced):
    args = ["run", "--workload", workload, "--seed", str(seed)]
    if quick:
        args.append("--quick")
    if traced:
        args.append("--traced")
    r = bench(args)
    bad = [c for c in r["checks"] if not c["pass"]]
    if bad:
        raise BenchError("output check failed: " + "; ".join(c["what"] for c in bad))
    return r


def deterministic(r):
    """Every simulated output of a rep, serialised for byte comparison."""
    return json.dumps({"sim": r["sim"], "counters": r["counters"]}, sort_keys=True)


def same_sim(reps, what):
    first = deterministic(reps[0])
    for r in reps[1:]:
        if deterministic(r) != first:
            raise BenchError(what + ": simulated outputs differ between reps at one seed")


def pin_library(workload, seed, quick, r):
    """The workload must reproduce its library counterpart's outputs."""
    args = ["library", "--workload", workload, "--seed", str(seed)]
    if quick:
        args.append("--quick")
    pins = bench(args)["pins"]
    for key, want in pins.items():
        got = r["sim"].get(key)
        if got != want:
            raise BenchError(f"{workload}: {key}={got} but the library counterpart gives {want}")
    log(f"pin: workload = library counterpart on {len(pins)} outputs "
        + ", ".join(f"{k}={v}" for k, v in pins.items()))


def lap_host_s(reps, workload):
    """Host seconds of the run. Each rep times its run in laps of fixed
    simulated work (every 2048th kernel touch), identical in every rep at
    one seed. Co-tenants of a shared machine only ever add time, in bursts
    shorter than a rep but longer than a lap, so each lap's fastest time
    across the reps is its steady cost; the run costs their sum."""
    laps = [r["laps"] for r in reps]
    if len({len(x) for x in laps}) != 1:
        raise BenchError(workload + ": reps at one seed recorded different laps")
    return sum(min(lap) for lap in zip(*laps))


def end_to_end(workload, seed, seconds, quick):
    n = max(MIN_REPS, round(seconds / WORKLOADS[workload]["rep_s"]))
    reps = [rep(workload, seed, quick, traced=False) for _ in range(n)]
    same_sim(reps, workload)
    host_s = lap_host_s(reps, workload)
    values = {
        # Builds that run into a major GC slice or fresh heap pages take
        # several times longer; each rep's fastest build is its set-up cost.
        "setup_s": statistics.median(min(r["setup_s"]) for r in reps),
        "host_s": host_s,
        "host_events_per_s": reps[0]["events"] / host_s,
        "peak_heap_mb": statistics.median(r["peak_heap_mb"] for r in reps),
        "sim_s": reps[0]["sim"]["sim_us"] / 1e6,
    }
    metrics = result_metrics("end_to_end", values)
    r0 = reps[0]
    log(f"{workload} seed {seed}: {len(reps)} reps of {len(r0['setup_s'])} setups, "
        f"{r0['events']} events, {len(r0['checks'])} output checks passed")
    for name, m in metrics.items():
        log(f"  {name:<20} {m['value']:.6g} {m['unit']}")
    # The workload's own simulated metrics, each with its sample count.
    for lat in r0["lats"]:
        log(f"  {lat['name']:<20} {lat['value']:.6g} {lat['unit']} (n={lat['n']})")
    log(f"  {'failed_frac':<20} {r0['failed'] / r0['attempted']:.6g} fraction "
        f"(n={r0['attempted']}: aborts, refusals, Out_of_frames, fill failures)")
    attempted = sum(r["attempted"] for r in reps)
    return attempted, metrics


def layer_values(r):
    """Every per-layer value a traced rep reports, by metric name."""
    values = {f"{span}.{measure}": v
              for span, row in r["spans"].items() for measure, v in row.items()}
    values.update(r["counters"])
    values.update({"sim.charged." + label.replace("/", "."): us
                   for label, us in r["charged"].items()})
    return values


def per_layer(workload, seed, seconds, quick):
    # A pair (untraced + traced rep) and the first pair's library pin cost
    # about three untraced reps.
    n = max(1, round(seconds / (3 * WORKLOADS[workload]["rep_s"])))
    plain, traced = [], []
    for i in range(n):
        plain.append(rep(workload, seed, quick, traced=False))
        traced.append(rep(workload, seed, quick, traced=True))
        if deterministic(traced[-1]) != deterministic(plain[-1]):
            raise BenchError(workload + ": tracing changed the simulated outputs")
        if i == 0:
            pin_library(workload, seed, quick, plain[-1])
    same_sim(plain + traced, workload)
    overhead = lap_host_s(traced, workload) / lap_host_s(plain, workload)
    best = min(traced, key=lambda r: r["host_s"])
    values = layer_values(best)
    values["trace.overhead"] = overhead
    # Every workload reports every span; a counter or charged label that a
    # workload's layers never touch is absent from its reps and reads 0.
    metrics = result_metrics("per_layer", values, absent=0)
    log(f"{workload} seed {seed}: {len(traced)} traced reps; simulated outputs identical "
        f"with tracing on; tracing overhead {overhead:.3f}x")
    for span, row in best["spans"].items():
        if row["count"]:
            log(f"  {span:<26} n={row['count']:<9} {row['host_self_ns']:10.1f} ns/op "
                f"{row['sim_us']:12.3f} sim us/op {row['alloc_words']:8.1f} words/op")
    for label, us in sorted(best["charged"].items(), key=lambda kv: -kv[1]):
        log(f"  charged {label:<26} {us:.6g} us")
    attempted = sum(r["attempted"] for r in plain + traced)
    return attempted, metrics, values


def selftest():
    """Every workload at its quick size, both modes: every check and pin
    runs, and every declared per-layer metric is reported by at least one
    workload's layers."""
    reported = set()
    for workload in WORKLOADS:
        end_to_end(workload, 0, 0, quick=True)
        _, _, values = per_layer(workload, 0, 0, quick=True)
        reported.update(values)
    unreported = [m["name"] for m in declared()["per_layer"] if m["name"] not in reported]
    if unreported:
        raise BenchError("no workload reports per-layer metrics " + ", ".join(unreported))
    if sorted(w["name"] for w in declared()["workloads"]) != sorted(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from run.py's")
    log("selftest: all workloads, both modes, every metric emitted, every check passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if a.selftest:
            selftest()
            return 0
        if a.trace:
            attempted, metrics, _ = per_layer(a.workload, a.seed, a.seconds, quick=False)
        else:
            attempted, metrics = end_to_end(a.workload, a.seed, a.seconds, quick=False)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    # Operations are the touches, transactions or tenants the reps drove;
    # any that errors fails its rep's checks, so a result has none failed.
    # Designed outcomes (2PC aborts, market refusals) are failed_frac above.
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
