#!/usr/bin/env python3
"""Build the benchmark and run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench` (release) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload in its own
process and prints its result as the last line of stdout: one JSON object
with `correct`, `attempted`, `failed` and `metrics`. A traced run
(`--trace 1`) prints the per-layer metrics and leaves its spans in
`<target>/perfbench-traces/<workload>-<seed>.jsonl`, which
`cargo xtask obs-check FILE` verifies.

`serve_zipf_swap` runs confined to one CPU: its client, accept thread and
worker then share that CPU, so a round trip does not depend on which CPUs
the scheduler hands out (see perfbench/README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workloads, and whether each runs confined to one CPU.
WORKLOADS = {"tables_tenth": True, "resolve_paper": False, "serve_zipf_swap": True}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: no crates/ beside perfbench/: nothing to measure", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "perfbench"), args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        traces = os.path.join(target, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--obs", os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]

    pin = None
    if WORKLOADS[args.workload]:
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.decode().strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
