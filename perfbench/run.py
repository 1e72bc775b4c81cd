#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the `perfbench`
package (release profile, offline) into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset. Every run then starts the benchmark
binary in a process of its own, with `ADP_NUM_THREADS` pinned to the CPUs
this process may use and the serving variables that would change what is
measured (`ADP_SPILL_DIR`, `ADP_MAX_RESIDENT`, `ADP_READ_TIMEOUT_SECS`)
removed. Its standard output is passed through; the last line is the JSON
result. The exit code is the binary's: 0 when every correctness check
held, non-zero otherwise or when the program cannot be built.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census_loop", "imdb_protocol", "hub_churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
ISOLATED_VARS = ("ADP_SPILL_DIR", "ADP_MAX_RESIDENT", "ADP_READ_TIMEOUT_SECS")


def target_dir():
    configured = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return configured if configured.is_absolute() else ROOT / configured


def build(target):
    """Builds the benchmark binary; returns its path, or None on failure."""
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print(f"no program sources under {ROOT}; nothing to benchmark", file=sys.stderr)
        return None
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return None
    binary = target / "release" / "perfbench"
    if done.returncode != 0 or not binary.is_file():
        print(f"build failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = target_dir()
    binary = build(target)
    if binary is None:
        return 1
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_VARS}
    env["ADP_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(target / "perfbench-work")]
    if args.trace == "1":
        spans = target / "perfbench-traces" / f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--trace-out", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
