#!/usr/bin/env python3
"""Simulator benchmark: builds the runner from source and measures one workload.

Usage (from the repository root):

    python3 simbench/run.py --workload fleet-day --seed 0 --seconds 40 --trace 0

Each repetition is one process of simbench_runner (runner.cc) that sets up
the workload's cluster, simulates its compressed diurnal day, reads the
results out and checks them. This script repeats it until --seconds have
passed, checks every repetition (invariants, engine mode, identical digests
across repetitions, digests stored for the default seed, and for --trace 1
that tracing left the digests unchanged), and prints one JSON object as the
last line of stdout. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics. Metric names and units come from BENCHMARK.json; see
simbench/README.md for their definitions.
"""

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

WORKLOADS = ("fleet-day", "fleet-day-pdes", "prod-colo")
DEFAULT_SEED = 0
MIN_REPS = 3
# Extra set-up-only processes per run, for a steady setup_s median.
SETUP_ONLY_REPS = 7
PDES_PARTITIONS = 21
PDES_THREADS = 1
REP_TIMEOUT_S = 120
DIGEST_KEYS = ("leaf_digest", "mla_digest", "tla_digest", "flow_digest",
               "queries_completed", "events")
# Paper Fig. 10: production machines run at about 70% mean CPU under
# PerfIso. The only modelled number compared with a paper figure.
PAPER_FIG10_CPU_UTIL = 0.70

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "simbench"
OUT_DIR = ROOT / ".bench_build" / "simbench-out"


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=1):
    log("simbench: " + message)
    sys.exit(code)


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "bench" / "harness.cc").is_file():
        fail("simulator sources (src/, bench/harness.cc) not found next to simbench/", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    steps = [["cmake", "--build", str(BUILD_DIR), "-j", str(min(4, nproc()))]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, check=False, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return BUILD_DIR / "simbench_runner"


def run_rep(binary, workload, seed, extra=()):
    """Runs one runner process; returns its JSON result (None on a crash)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"simbench: repetition timed out: {' '.join(cmd)}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    log(f"simbench: repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return None


def expected_digests(workload, seed):
    """Digests stored for this workload and seed (always for DEFAULT_SEED)."""
    table = json.loads((HERE / "expected.json").read_text())
    stored = table.get(workload, {}).get(str(seed))
    if stored is None and seed == DEFAULT_SEED:
        fail(f"expected.json has no digests for {workload} seed {seed}")
    return stored


def check_rep(rep, workload, reference, stored):
    """Problems with one repetition: its own checks plus cross-run ones."""
    if rep is None:
        return ["runner crashed or timed out"]
    problems = list(rep["problems"])
    if workload == "fleet-day-pdes":
        if (rep["fell_back_sequential"] or rep["partitions_used"] < PDES_PARTITIONS
                or rep["threads_used"] != PDES_THREADS):
            problems.append("partitioned engine not used as configured")
    elif rep["partitions_used"] != 1:
        problems.append("sequential workload ran partitioned")
    for key in DIGEST_KEYS:
        if reference is not None and rep[key] != reference[key]:
            problems.append(f"{key} differs between repetitions")
        if stored is not None and rep[key] != stored[key]:
            problems.append(f"{key} {rep[key]} != stored {stored[key]}")
    return problems


def nproc():
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def timed_reps(binary, workload, seed, seconds):
    """Repeats the runner until `seconds` have passed (at least MIN_REPS)."""
    start = time.monotonic()
    reps = []
    while True:
        rep_start = time.monotonic()
        reps.append(run_rep(binary, workload, seed))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + (time.monotonic() - rep_start) > seconds:
            return reps


def end_to_end(binary, args):
    stored = expected_digests(args.workload, args.seed)
    reps = timed_reps(binary, args.workload, args.seed, args.seconds)
    setups = [run_rep(binary, args.workload, args.seed, ["--setup-only"])
              for _ in range(SETUP_ONLY_REPS)]
    reference = next((r for r in reps if r is not None), None)
    failures = []
    for i, rep in enumerate(reps):
        problems = check_rep(rep, args.workload, reference, stored)
        if problems:
            failures.append(f"repetition {i}: " + "; ".join(problems))
    failures += [f"set-up-only run {i} crashed" for i, s in enumerate(setups) if s is None]
    good = [r for r in reps if r is not None]
    if not good:
        return len(reps) + len(setups), failures, {}
    first = good[0]
    metrics = {
        "setup_s": median([r["setup_s"] for r in good]
                          + [s["setup_s"] for s in setups if s is not None]),
        "wall_s": median([r["wall_s"] for r in good]),
        "queries_per_host_s": median([r["queries_completed_total"] / r["sim_host_s"]
                                      for r in good]),
        "cpu_s": median([r["cpu_s"] for r in good]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        "tla_p50_ms": first["tla_p50_ms"],
        "tla_p99_ms": first["tla_p99_ms"],
        "secondary_util": first["secondary_util"],
        "cpu_util": first["cpu_util"],
    }
    walls = sorted(r["wall_s"] for r in good)
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{len(setups)} extra set-ups, {len(failures)} failed; wall_s min "
          f"{walls[0]:.3f} median {metrics['wall_s']:.3f} max {walls[-1]:.3f} s")
    print(f"  modelled TLA latency over {first['tla_samples']} queries: "
          f"p50 {first['tla_p50_ms']:.3f} ms, p99 {first['tla_p99_ms']:.3f} ms "
          f"(simulated time)")
    print(f"  query_fail_frac {query_fail_frac(first):.6f} "
          f"({first['queries_failed']} failed, {first['queries_degraded']} degraded "
          f"of {first['queries_submitted']})")
    print(f"  engine: partitions_used {first['partitions_used']}, threads_used "
          f"{first['threads_used']}, fell_back_sequential "
          f"{str(first['fell_back_sequential']).lower()}")
    if args.workload == "prod-colo":
        print(f"  accuracy: cpu_util {first['cpu_util']:.3f} vs paper Fig. 10 about "
              f"{PAPER_FIG10_CPU_UTIL:.2f}; every other modelled number is unvalidated "
              f"against hardware")
    return len(reps) + len(setups), failures, metrics


def query_fail_frac(rep):
    """TLA-failed plus degraded (a leaf answer was dropped) over attempted."""
    attempted = rep["queries_submitted"]
    return (rep["queries_failed"] + rep["queries_degraded"]) / attempted if attempted else 0.0


def per_layer(binary, args):
    """Alternates untraced and traced repetitions until --seconds pass."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    prefix = OUT_DIR / f"{args.workload}-seed{args.seed}"
    stored = expected_digests(args.workload, args.seed)
    start = time.monotonic()
    plain, traced = [], []
    while True:
        pair_start = time.monotonic()
        plain.append(run_rep(binary, args.workload, args.seed))
        traced.append(run_rep(binary, args.workload, args.seed, ["--traced", str(prefix)]))
        elapsed = time.monotonic() - start
        if elapsed + (time.monotonic() - pair_start) > args.seconds:
            break
    reference = next((r for r in plain if r is not None), None)
    failures = []
    for kind, reps in (("untraced", plain), ("traced", traced)):
        for i, rep in enumerate(reps):
            # Passivity: traced digests must equal the untraced run's.
            problems = check_rep(rep, args.workload, reference, stored)
            if problems:
                failures.append(f"{kind} repetition {i}: " + "; ".join(problems))
    good_plain = [r for r in plain if r is not None]
    good_traced = [r for r in traced if r is not None]
    if not good_plain or not good_traced:
        return len(plain) + len(traced), failures, {}
    metrics = {}
    for name in good_traced[0]["layers"]:
        metrics[name] = median([r["layers"][name] for r in good_traced])
    metrics["trace_overhead"] = (median([r["wall_s"] for r in good_traced])
                                 / median([r["wall_s"] for r in good_plain]))
    metrics["query_fail_frac"] = query_fail_frac(good_traced[0])
    metrics["tla_samples"] = good_traced[0]["tla_samples"]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced + "
          f"{len(traced)} traced repetitions, {len(failures)} failed; spans and "
          f"slice counters in {prefix}.trace.json / {prefix}.slices.csv")
    print_trough_and_peak(Path(f"{prefix}.slices.csv"))
    return len(plain) + len(traced), failures, metrics


def print_trough_and_peak(path):
    """Engine events per query in the least and the most loaded slice."""
    with path.open() as f:
        rows = list(csv.DictReader(f))
    slices = []
    for before, after in zip(rows, rows[1:]):
        queries = float(after["client.submitted"]) - float(before["client.submitted"])
        events = float(after["sim.events"]) - float(before["sim.events"])
        if queries > 0:
            slices.append((queries, events / queries, float(after["sim_time_s"])))
    if slices:
        for label, (queries, per_query, at) in (("trough", min(slices)), ("peak", max(slices))):
            print(f"  {label} slice ending at {at:.3f} s simulated: {queries:.0f} queries, "
                  f"{per_query:.0f} events/query")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    e2e_units, layer_units = declared_metrics()
    binary = build()
    if args.trace:
        attempted, failures, metrics = per_layer(binary, args)
        units = layer_units
    else:
        attempted, failures, metrics = end_to_end(binary, args)
        units = e2e_units
    if metrics and set(metrics) != set(units):
        fail("metrics do not match BENCHMARK.json: "
             f"missing {sorted(set(units) - set(metrics))}, "
             f"undeclared {sorted(set(metrics) - set(units))}")
    for failure in failures:
        print("FAILED " + failure)
    correct = not failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures) if metrics else attempted,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
