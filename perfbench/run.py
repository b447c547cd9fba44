#!/usr/bin/env python3
"""Build and run the satpg benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `satpg-perfbench` package and the `satpg` binary in release
mode (into $CARGO_TARGET_DIR, default ./target), runs the benchmark, and
for a traced run validates the Chrome trace it wrote with
`satpg trace-check`; a trace that fails the check makes the run
incorrect.  The last line of standard output is the JSON result:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# A run must end within 180 s; leave room for the build check and the
# trace check.
RUN_TIMEOUT_S = 165


def cargo_build(target, extra):
    """Builds into `target` with cargo, keeping standard output for the result."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} failed with code {done.returncode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        sys.exit("perfbench: run from the repository root (no Cargo.toml and crates/ here)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", "target"))
    cargo_build(target, ["--manifest-path", "perfbench/Cargo.toml"])
    cargo_build(target, ["--bin", "satpg"])

    cmd = [
        str(target / "release" / "satpg-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", args.seconds,
        "--trace", args.trace,
    ]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            env=dict(os.environ, CARGO_TARGET_DIR=str(target)),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: benchmark exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    if args.trace == "1":
        trace = target / "perfbench" / f"trace-{args.workload}.json"
        check = subprocess.run(
            [str(target / "release" / "satpg"), "trace-check", str(trace)],
            capture_output=True, text=True, timeout=60,
        )
        print((check.stdout + check.stderr).strip())
        if check.returncode != 0:
            result["correct"] = False
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
