#!/usr/bin/env python3
"""Builds the obdalib benchmark from this checkout and runs one workload.

    python3 obdabench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 obdabench/run.py --selftest

The library (../src) and the benchmark program are built with CMake,
Release, into $CARGO_TARGET_DIR/obdabench (default: .bench_build/obdabench
under the checkout root); build output goes to stderr. The program's last
stdout line is the JSON result. Scratch files (the serve_mix artifact
store, the span dump of a traced run) go to the build directory's work/
subdirectory.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "obdabench")


def configure(bdir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    return subprocess.run(cmd + generator, stdout=sys.stderr).returncode


def build(bdir):
    if configure(bdir) != 0:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            return False
        # A cache left by a checkout at another path: start over once.
        shutil.rmtree(bdir)
        if configure(bdir) != 0:
            return False
    cmd = ["cmake", "--build", bdir, "-j", str(min(4, os.cpu_count() or 1)),
           "--target", "obdabench", "obdabench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main(argv):
    bdir = build_dir()
    if not build(bdir):
        print("obdabench: build failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(bdir, "obdabench_selftest")]).returncode
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(bdir, "obdabench")] + argv + [
        "--workdir", work, "--digests", os.path.join(HERE, "digests.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("obdabench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
