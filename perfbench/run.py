#!/usr/bin/env python3
"""Builds the perfbench program from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program and the simulator library it links are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout root. The program's output is passed through; its last line is the
JSON result, whose metric names and units are checked against
BENCHMARK.json before it is printed. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(code)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def declared_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    for needed in ("BENCHMARK.json", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found; run from a full checkout", 2)
    units = declared_units(args.trace)

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}", proc.returncode)

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        sys.stderr.write(proc.stdout)
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(units.items())}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
