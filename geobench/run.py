#!/usr/bin/env python3
"""Build and run the geomap benchmark.

    python3 geobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `geobench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build` in the current directory), runs one workload
and prints its report. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer ledger with `--trace 1`).

A traced run of a solver workload also runs the single-thread
baseline: the same binary pinned to one CPU, so the rayon pool sizes
itself to one thread, and merges its `onecpu.*` metrics into the
ledger. Exits non-zero, printing no result, when the build fails, a
run crashes or times out, or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("geo_kmeans_128", "ml_remap_4k", "service_mix", "service_wire")
SOLVERS = ("geo_kmeans_128", "ml_remap_4k")
# Every run must end within this many seconds, build excluded.
DEADLINE_S = 170


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("geobench: build failed")
    return os.path.join(target, "release", "geobench")


def run(binary, args, deadline, onecpu=False):
    """Run the binary, echo its report, and return its JSON result."""
    preexec = None
    if onecpu:
        cpu = min(os.sched_getaffinity(0))
        preexec = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    proc = subprocess.Popen(
        [binary, *args], stdout=subprocess.PIPE, text=True, preexec_fn=preexec
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"geobench: {' '.join(args)} timed out")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"geobench: {' '.join(args)} exited {proc.returncode} without a result")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    binary = build()
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    result = run(
        binary,
        common + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
        deadline,
    )
    if a.trace and a.workload in SOLVERS:
        one = run(
            binary,
            common + ["--seconds", str(max(1.0, a.seconds / 3)), "--onecpu"],
            deadline,
            onecpu=True,
        )
        result["metrics"].update(one["metrics"])
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["correct"] = result["correct"] and one["correct"]

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
