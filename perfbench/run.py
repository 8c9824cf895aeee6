#!/usr/bin/env python3
"""Builds the UniKV benchmark from source and runs one workload.

    python3 perfbench/run.py --workload mixed|read|scan --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root. It builds perfbench/ (which compiles the
engine from src/) into .bench_build/perfbench/build, then runs the
benchmark binary there. Everything it writes stays under .bench_build/.
The last line of stdout is the run's result as one JSON object; build
output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(WORK, "build")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit if there is one, and a digest of the sources built."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    # Git must not look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, env=env,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return f"{commit or 'none'}/src-sha256:{digest.hexdigest()[:16]}"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["mixed", "read", "scan"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    a = p.parse_args()

    if a.self_test:
        build("perfbench_tests")
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                                cwd=ROOT).returncode)
    if a.workload is None:
        p.error("--workload is required")

    build("unikv_perfbench")
    data, out = os.path.join(WORK, "data"), os.path.join(WORK, "out")
    os.makedirs(data, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(BUILD, "unikv_perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--data-dir", data, "--out-dir", out, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"benchmark exited with status {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark printed no result line", 1)


if __name__ == "__main__":
    main()
