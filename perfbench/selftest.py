#!/usr/bin/env python3
"""Toy-size self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at toy size, untraced and traced, with
the correctness gate on, and checks the output contract: the last stdout
line is one JSON object with exactly correct/attempted/failed/metrics, the
gate passed, no operation failed, and the metrics are exactly the
end-to-end (untraced) or per-layer (traced) metrics of BENCHMARK.json with
their units. It also checks that the benchmark refuses to run, without a
result, in a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when every check holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(proc, expected, nonzero):
    problems = []
    if proc.returncode != 0:
        problems.append("exit code %d: %s" % (proc.returncode,
                                              proc.stderr.strip()[-300:]))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["last stdout line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correctness gate failed: " + " | ".join(
            l.strip() for l in lines if "VIOLATION" in l))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted %r" % result.get("attempted"))
    if result.get("failed") != 0:
        problems.append("failed %r" % result.get("failed"))
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append("metrics missing %s extra %s" % (missing, extra))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if sorted(m) != ["unit", "value"] or m["unit"] != unit:
            problems.append("%s: %r" % (name, m))
        elif not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append("%s: value %r" % (name, m["value"]))
        elif nonzero and m["value"] <= 0:
            problems.append("%s: value %r is not positive" % (name, m["value"]))
    return problems


def bare_checkout_refuses():
    """The benchmark must fail, printing no result, without the sources."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "live_tail", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 without library sources")
    if proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout:
        problems.append("printed a result without library sources")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = 0
    for w in bench["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            problems = check_result(run(ROOT, w["name"], trace), expected,
                                    nonzero=(trace == 0))
            status = "ok" if not problems else "FAIL"
            print("%-16s trace %d: %s" % (w["name"], trace, status))
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    problems = bare_checkout_refuses()
    print("bare checkout refuses: %s" % ("ok" if not problems else "FAIL"))
    for p in problems:
        print("    " + p)
    failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
