#!/usr/bin/env python3
"""Smoke test of the system benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json at minimal length, untraced and
traced, and fails when a run exits non-zero, prints no result line, reports
a failed operation or a digest mismatch ("correct": false), or when a metric
of BENCHMARK.json is missing, has the wrong unit, or is not a finite number
(end-to-end metrics must also be positive). Finally checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(spec, cwd, workload, trace, seconds="0.5", seed="1"):
    cmd = spec["command"] + ["--workload", workload, "--seed", seed,
                             "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_result(workload, trace, proc, expected):
    """Returns a list of problems with one run's output."""
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return [f"{where}: no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        return [f"{where}: last line is not JSON: {err}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"(digest mismatch or failed operation): {proc.stderr[-2000:]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result['attempted']}")
    metrics = result["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"{where}: metric {name} missing")
            continue
        got = metrics[name]
        if got.get("unit") != unit:
            problems.append(f"{where}: metric {name} has unit {got.get('unit')!r}, not {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: metric {name} value {value!r}")
        elif trace == 0 and value <= 0:
            problems.append(f"{where}: end-to-end metric {name} is {value}")
    for name in metrics:
        if name not in expected:
            problems.append(f"{where}: unexpected metric {name}")
    return problems


def check_bare_directory(spec):
    """The benchmark must fail, printing no result, without the sources."""
    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark ran without the repository's sources"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            proc = run(spec, ROOT, workload, trace)
            found = check_result(workload, trace, proc, expected)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += check_bare_directory(spec)
    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
