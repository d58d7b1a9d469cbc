#!/usr/bin/env python3
"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload fleet|swarm|punch|chaos --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
perfbench binary (perfbench/CMakeLists.txt) from the sources in the
checkout, in $CARGO_TARGET_DIR (default .bench_build); later runs only
check that the build is current.

A run executes the named workload as its main leg, sized from --seconds, in
a process of its own (so peak_rss_mb and bytes_per_session measure that
workload alone). It then runs each other workload as a short fixed-size
companion leg, each in its own process, so that every run reports every
metric BENCHMARK.json names. A metric comes from the main leg when the main
leg measures it, and otherwise from the companion leg that does.

--trace 0 reports the end-to-end metrics. It executes every leg twice, all
legs and then all legs again, and keeps each metric's better reading (host
noise only ever slows a reading); both executions of a leg must simulate
identical statistics. --trace 1 executes every leg once and reports the per-layer
metrics: the main leg then runs its inputs untraced and again traced and
checks that both passes produced the same simulated statistics; every leg's
traced pass writes its spans to <build>/traces/, and the log prints the main
leg's span self times.

Every line but the last is a log (host context, per-leg digests, checks,
span self times). The last line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

LEGS = ("fleet", "swarm", "punch", "chaos")
PERFBENCH_DIR = Path(__file__).resolve().parent
ROOT = PERFBENCH_DIR.parent
LEG_TIMEOUT_S = 120
# Untraced runs execute every leg this many times, one round of all legs
# after another, and keep each metric's better reading.
EXECUTIONS = 2
NOMINAL_NS_PER_OP = 200  # HostSpeed::kNominalNsPerOp in src/bench.h


def log(*args):
    print(*args, flush=True)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configure once, then bring the binary up to date. Logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(PERFBENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "perfbench"


def run_leg(binary, leg, args, scale):
    cmd = [str(binary), leg, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--scale", scale, "--trace", str(args.trace)]
    if args.trace:
        traces = binary.parent / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(traces / f"{args.workload}-seed{args.seed}-{leg}.json")]
    try:
        # On timeout, run() kills the leg and waits for it before raising.
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=LEG_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{leg} leg timed out after {LEG_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"{leg} leg exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace):
    """(name, unit, better) triples BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def merge(runs, better):
    """One leg's executions as one result: the operations of all of them,
    the better reading of each metric (host noise only ever slows a
    reading), and a check that every execution simulated the same
    statistics."""
    merged = dict(runs[0])
    merged["attempted"] = sum(r["attempted"] for r in runs)
    merged["failed"] = sum(r["failed"] for r in runs)
    merged["correct"] = all(r["correct"] for r in runs)
    merged["errors"] = [e for r in runs for e in r["errors"]]
    digests = [r["digest"] for r in runs]
    if len(set(digests)) > 1:
        merged["correct"] = False
        merged["errors"].append(f"executions simulated different statistics: {digests}")
    merged["metrics"] = {}
    for name, m in runs[0]["metrics"].items():
        pick = min if better.get(name) == "lower" else max
        merged["metrics"][name] = {"value": pick(r["metrics"][name]["value"] for r in runs),
                                   "unit": m["unit"]}
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=LEGS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    load1, load5, _ = os.getloadavg()
    declared = declared_metrics(args.trace)
    order = [args.workload] + [leg for leg in LEGS if leg != args.workload]
    runs = {leg: [] for leg in order}
    for _ in range(1 if args.trace else EXECUTIONS):
        for leg in order:
            role = "main" if leg == args.workload else "companion"
            runs[leg].append(run_leg(binary, leg, args, role))
    results = {leg: merge(r, {name: better for name, _, better in declared})
               for leg, r in runs.items()}

    main_leg = results[args.workload]
    # host.ref_ms: the fast end of one reference-kernel sample (3,000 ops).
    ref_ms = main_leg["host_ns_per_op"] * 3000 / 1e6
    host = {"host.nproc": (os.cpu_count() or 0, "count"),
            "host.load1": (load1, "load"),
            "host.ref_ms": (ref_ms, "ms")}
    log(f"host nproc={host['host.nproc'][0]} load1={load1:.2f} load5={load5:.2f} "
        f"ref_ms={ref_ms:.3f} (recorded, never gated)")
    for leg, r in results.items():
        role = "main" if leg == args.workload else "companion"
        slowdowns = " ".join(f"{e['host_ns_per_op'] / NOMINAL_NS_PER_OP:.4f}" for e in runs[leg])
        log(f"leg {leg} ({role}): correct={r['correct']} attempted={r['attempted']} "
            f"failed={r['failed']} digest={r['digest']} slowdown={slowdowns} "
            f"sim={json.dumps(r['sim'], sort_keys=True)}")
        for error in r["errors"]:
            log(f"  {leg}: {error}")
    if args.trace:
        log(f"span self time, {args.workload} traced pass "
            "(ms; self = duration minus child spans; events = loop events inside):")
        spans = sorted(main_leg["spans"].items(), key=lambda kv: -kv[1]["self_ms"])
        for name, s in spans:
            log(f"  {name:<28} self {s['self_ms']:>12.3f}  total {s['total_ms']:>12.3f}  "
                f"count {s['count']:>8}  events {s['events']:>12}")

    metrics = {}
    for name, unit, _ in declared:
        if name in host:
            value, got_unit = host[name]
        else:
            source = main_leg if name in main_leg["metrics"] else next(
                (r for r in results.values() if name in r["metrics"]), None)
            if source is None:
                fail(f"no leg measured {name}")
            value, got_unit = source["metrics"][name]["value"], source["metrics"][name]["unit"]
        if got_unit != unit:
            fail(f"{name} measured in {got_unit}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}

    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }), flush=True)


if __name__ == "__main__":
    main()
