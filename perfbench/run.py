#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

    python3 perfbench/run.py --workload paper-p16 --seed 1000 --seconds 20 --trace 0

Run from the repository root.  The script configures and builds
perfbench/CMakeLists.txt (the simulator sources under src/ plus the benchmark
driver) into .bench_build/perfbench, a no-op when the build is current, then
runs one workload.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  Build output goes to
stderr.  Records with host metadata are written to .bench_build/perfbench/results.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["paper-p16", "gc-2k", "stencil-16k", "svc-sim"]
RUN_TIMEOUT_S = 175


def fail(message, code):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def cmake_home(cache):
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache) and os.path.realpath(cmake_home(cache) or "") != os.path.realpath(HERE):
        shutil.rmtree(BUILD)  # configured for another checkout location
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed", 3)


def source_id():
    """git commit when the checkout is a repository, else a hash of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha1()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    seed = expected["default_seed"] if args.seed is None else args.seed
    if seed < 0:
        fail("--seed must be >= 0", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src; run from a full checkout", 2)

    build()

    cmd = [BINARY, f"--workload={args.workload}", f"--seed={seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--commit={source_id()}", f"--out-dir={os.path.join(BUILD, 'results')}"]
    digest = expected["digests"].get(args.workload, {}).get(str(seed))
    if digest:
        cmd.append(f"--expect-digest={digest}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result line", 5)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has the wrong keys", 5)


if __name__ == "__main__":
    main()
