#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cells_write --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds the
simulator library (src/) and the driver (perfbench/src/) under
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
With --trace 1 the spans of the last traced iteration are written to
.bench_build/spans/<workload>-<seed>.json.

Exits non-zero, without printing a result, when the build fails (for example
in a directory that holds the benchmark but not the simulator's sources).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources under %s/src" % ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if value_of(args, "--trace") == "1":
        spans = os.path.join(OUT, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-%s.json" % (value_of(args, "--workload"), value_of(args, "--seed"))
        args += ["--spans", os.path.join(spans, name)]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args).returncode


def value_of(args, flag):
    i = args.index(flag) if flag in args else -1
    return args[i + 1] if 0 <= i < len(args) - 1 else "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
