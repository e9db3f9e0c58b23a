#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the benchmark program (nwdbench.cc plus the nwd library from ../src)
with CMake, runs one workload and relays its output, whose last line is the
result JSON:

    python3 repobench/run.py --workload serve-probe --seed 1 --seconds 10 --trace 0

Workloads: serve-probe, enum-near, update-serve (see NOTES.md).
--trace 1 prints the per-layer metrics instead of the end-to-end ones and
writes the spans as Chrome trace JSON under repobench/out/.

Steadiness mode runs each workload of BENCHMARK.json (or --workload) on N
seeds, prints every metric's median, quartiles and (Q3 - Q1) / median next
to its bound, then runs once more on a held-out seed:

    python3 repobench/run.py --steady 10 --seed 1 --seconds 10 [--workload W]
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
WORKLOADS = ["serve-probe", "enum-near", "update-serve"]
RUN_TIMEOUT_S = 170
HELD_OUT_SEED_OFFSET = 1000


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds nwdbench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("repobench: library sources (src/) not found next to repobench/")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "repobench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "nwdbench")
    return binary if os.path.isfile(binary) else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", os.path.relpath(out_dir, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"repobench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S}s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if echo:
        print(proc.stdout, end="", flush=True)
    if not lines:
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("repobench: last output line is not JSON")
        return proc.returncode or 1, None
    got = set(result.get("metrics", {}))
    want = expected_metrics(trace)
    if got != want:
        log(f"repobench: metrics differ from BENCHMARK.json: missing "
            f"{sorted(want - got)}, extra {sorted(got - want)}")
        return proc.returncode or 1, None
    return proc.returncode, result


def steady(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.steady):
            rc, result = run_once(binary, workload, args.seed + i,
                                  args.seconds, args.trace, echo=False)
            if rc != 0 or result is None or not result["correct"]:
                log(f"repobench: {workload} seed {args.seed + i} failed")
                return 1
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        rc, held = run_once(binary, workload, args.seed + HELD_OUT_SEED_OFFSET,
                            args.seconds, args.trace, echo=False)
        if rc != 0 or held is None:
            log(f"repobench: {workload} held-out seed failed")
            return 1
        print(f"== {workload}: {args.steady} seeds from {args.seed}, "
              f"{args.seconds}s each; held-out seed "
              f"{args.seed + HELD_OUT_SEED_OFFSET}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'held-out':>14} {'vs med':>8}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                if spread > bound / 3:
                    flag = "  <-- above bound/3"
            h = held["metrics"][name]["value"]
            rel = (h - med) / med if med else 0.0
            print(f"{name:34} {med:14.4f} {q1:14.4f} {q3:14.4f} "
                  f"{spread:8.3f} {bound if bound is not None else '-':>6} "
                  f"{h:14.4f} {rel:+8.3f}{flag}")
        sys.stdout.flush()
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="runs per workload in steadiness mode")
    args = parser.parse_args()
    if not args.steady and not args.workload:
        parser.error("--workload is required outside --steady mode")
    binary = build()
    if binary is None:
        log("repobench: build failed")
        return 2
    if args.steady:
        return steady(binary, args)
    rc, result = run_once(binary, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if result is None:
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
