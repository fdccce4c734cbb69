#!/usr/bin/env python3
"""Benchmark driver for the hull-serving stack.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload fleet_mix --seed 1 --seconds 10 --trace 0

It builds the program from source into .bench_build/ (the first run
compiles; later runs only check the build), runs the seeded load
generator, and prints the generator's result line as its last line:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run (span files go to .bench_build/spans/).

Steadiness report (not used by automated runs):

    python3 perfbench/run.py --report 10 --workload bulk_disk [--seed 1]

runs the workload N times with seeds seed..seed+N-1, records the
machine (nproc, load average, steal ticks, L2/L3 sizes) before it
starts, and prints each end-to-end metric's median, quartiles and
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
TARGETS = ["perfbench_loadgen", "hullserved", "hullrouter"]
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the three targets (a no-op when current)."""
    generated = any(os.path.exists(os.path.join(BUILD, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def parse_result(stdout):
    """The last stdout line as a result object, or None if malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return None
    for m in res["metrics"].values():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            return None
    return res


def run_once(workload, seed, seconds, trace):
    """Run the load generator once; (exit code, result or None)."""
    os.makedirs(SPANS, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_loadgen"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--bin-dir", os.path.join(BUILD, "repo", "tools"),
           "--span-dir", SPANS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: load generator timed out")
        return 1, None
    return proc.returncode, parse_result(proc.stdout)


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) by statistics.quantiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def machine():
    """nproc, load average, steal ticks and cache sizes, for the record."""
    info = {"nproc": os.cpu_count(), "loadavg": os.getloadavg()}
    try:
        with open("/proc/stat") as f:
            info["steal_ticks"] = int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        info["steal_ticks"] = None
    for level in (2, 3):
        key = "L%d" % level
        info[key] = None
        for idx in range(8):
            base = "/sys/devices/system/cpu/cpu0/cache/index%d/" % idx
            try:
                with open(base + "level") as f:
                    if int(f.read()) != level:
                        continue
                with open(base + "size") as f:
                    info[key] = f.read().strip()
            except (OSError, ValueError):
                break
    return info


def report(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    print("machine: %s" % json.dumps(machine()))
    values = {}
    for i in range(args.report):
        seed = args.seed + i
        rc, res = run_once(args.workload, seed, args.seconds, 0)
        if rc != 0 or res is None or not res["correct"]:
            print("run %d (seed %d) failed: exit %d" % (i, seed, rc))
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("run %d seed %d: %s" % (i, seed, json.dumps(
            {k: round(v["value"], 6) for k, v in res["metrics"].items()})))
    print("%-14s %12s %12s %12s %8s %6s %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        q1, med, q3, s = spread(vals)
        bound = bounds.get(name)
        verdict = "-" if bound is None else (
            "steady" if s < bound / 3 else "fits" if s <= bound else "TOO NOISY")
        print("%-14s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
            name, q1, med, q3, s, bound, verdict))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fleet_mix", "bulk_disk", "bulk_circle"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", type=int, default=0,
                    help="steadiness report over this many seeds")
    args = ap.parse_args()
    if not build():
        log("perfbench: build failed")
        return 1
    if args.report:
        return report(args)
    rc, res = run_once(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        log("perfbench: no valid result line (exit %d)" % rc)
        return rc or 1
    print(json.dumps(res))
    return rc


if __name__ == "__main__":
    sys.exit(main())
