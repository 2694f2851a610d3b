#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload join-paper --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and compiles the
repository's libraries and the benchmark driver (perfbench/CMakeLists.txt)
into .bench_build/ (or $CARGO_TARGET_DIR); later runs only check the build
is current. The driver's report goes to stdout, and the last line is the
run's JSON result, whose metric names and units are checked against
BENCHMARK.json. Build output and errors go to stderr; any failure exits
non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["join-paper", "serve-hotspot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=4,
                        help="join threads / service workers (sweeps only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or not 1 <= args.threads <= 64:
        fail("--seed must be >= 0, --seconds > 0 and --threads in 1..64")

    out = build_dir()
    binary = build(out)
    expected = declared_metrics(args.trace == 1)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--threads", str(args.threads),
               "--out-dir", str(out.parent / "perfbench-out")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
