#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload route-random-2d --seed 1 \\
        --seconds 16 --trace 0

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is
incremental, so only the first run of a checkout compiles. Build output
goes to stderr; stdout carries the benchmark's report, whose last line is
the result object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 it holds every end-to-end metric of BENCHMARK.json; with
--trace 1 every per-layer metric, 0 for a layer the workload does not
exercise. Trace files and the daemon's socket live under the build
directory.

Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("route-random-2d", "route-repeat-2d", "stream-sketch-3d", "serve-2d")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_identity(root):
    """The git commit when there is one, plus a digest of the sources."""
    commit = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        result = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                cwd=root, capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return f"{commit} tree:{digest.hexdigest()[:12]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no library sources under {root}/src; run from a full checkout")
    target_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_dir, "perfbench")
    build(root, build_dir)

    out_dir = os.path.join(build_dir, "run")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               # Relative, so the daemon's Unix socket path stays short.
               "--out-dir", os.path.relpath(out_dir, root),
               "--commit", source_identity(root)]
    try:
        result = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{args.workload} exited with code {result.returncode}")
    try:
        final = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the benchmark printed no result line")
    if sorted(final) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    for m in listed:
        if m["name"] in final["metrics"]:
            continue
        if not args.trace:
            fail(f"{args.workload} did not report {m['name']}")
        final["metrics"][m["name"]] = {"value": 0, "unit": m["unit"]}
    print("\n".join(lines[:-1] + [json.dumps(final)]))


if __name__ == "__main__":
    main()
