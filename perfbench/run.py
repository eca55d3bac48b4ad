#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <table1|rt-loop|service-mix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark binary is built from the
sources in the checkout (Release, under $CARGO_TARGET_DIR or
.bench_build) before every run; an up-to-date build costs a second.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table1", "rt-loop", "service-mix")
# Each swaps an engine of the program under test.
ENGINE_OVERRIDES = ("RTR_RAYCAST", "RTR_NN_ENGINE", "RTR_BATCH_ENGINE",
                    "RTR_SEARCH", "RTR_LINALG_SCALAR")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build(out_dir):
    """Configure once, then build the benchmark target incrementally."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def source_stamp():
    """git sha when the checkout is a repository, plus a digest of src/."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    stamp = "tree-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            stamp = "git:" + sha.stdout.strip() + " " + stamp
    return stamp


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.selftest and not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in 1..120")
    for name in ENGINE_OVERRIDES:
        if name in os.environ:
            fail("refusing to run with %s set: it swaps an engine of the "
                 "program under test" % name)

    out_dir = build_dir()
    binary = build(out_dir)
    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"], cwd=ROOT).returncode)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_stamp()]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(out_dir, "trace-%s.json" % args.workload)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s"
             % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    names = expected_metrics(bool(args.trace))
    if sorted(result["metrics"]) != sorted(names):
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(set(result["metrics"]) ^ set(names)))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
