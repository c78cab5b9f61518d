#!/usr/bin/env python3
"""Self-test of the benchmark, at the tiny workload size.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it checks
that an untraced run prints exactly the end-to-end metrics and a traced run
exactly the per-layer metrics, with their units; that every output check
passes; and that the digest of simulated outputs is identical between two
untraced runs and the traced run of the same seed. Finally it checks that the
benchmark exits non-zero, printing no result, in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits non-zero on any failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "7"


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
           "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(out):
    lines = out.stdout.strip().splitlines()
    digest = next((l.split()[-1] for l in lines if l.startswith("digest ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return digest, result


def check_run(failures, label, out, expected):
    digest, result = parse(out)
    if out.returncode != 0 or result is None:
        failures.append("%s: exit %d, no result\n%s" % (label, out.returncode, out.stderr[-2000:]))
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        failures.append("%s: correct=%s attempted=%s failed=%s\n%s" % (
            label, result.get("correct"), result.get("attempted"), result.get("failed"),
            out.stderr[-2000:]))
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        failures.append("%s: metrics missing %s, unexpected %s, wrong unit %s" % (
            label, missing, extra, wrong))
    return digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        digests = [
            check_run(failures, name + " trace 0", run(ROOT, name, 0), end_to_end),
            check_run(failures, name + " trace 0 again", run(ROOT, name, 0), end_to_end),
            check_run(failures, name + " trace 1", run(ROOT, name, 1), per_layer),
        ]
        if None in digests or len(set(digests)) != 1:
            failures.append("%s: digests differ or are missing: %s" % (name, digests))
        print("%-14s digest %s" % (name, digests[0]), flush=True)

    # Without the simulator's sources the benchmark cannot build: it must fail
    # and print no result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(bare, bench["workloads"][0]["name"], 0)
    _, result = parse(out)
    if out.returncode == 0 or result is not None:
        failures.append("bare directory: exit %d, result %s" % (out.returncode, result))
    shutil.rmtree(bare, ignore_errors=True)

    for msg in failures:
        print("FAIL " + msg)
    print("selftest: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
