#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark binary (perfbench/CMakeLists.txt, Release, from the library
sources in src/) under $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only rebuild what changed. Build output goes to stderr.

The binary prints comment lines starting with '#' (environment, sample
counts, failure fraction, span fold) and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. This script forwards
that output, checks that the metrics are exactly the ones BENCHMARK.json
names for the mode, and exits non-zero if the build, the run or that check
fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
        if r.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = sys.argv[1:]
    binary = build()
    try:
        r = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0 or "--self-test" in args:
        return r.returncode
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    trace = args[args.index("--trace") + 1] != "0" if "--trace" in args else False
    got, want = set(result["metrics"]), expected_metrics(trace)
    if got != want:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
                 % (sorted(want - got), sorted(got - want)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
