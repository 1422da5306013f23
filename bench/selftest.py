"""Benchmark self-test at tiny sizes.

    python3 bench/selftest.py

Runs every workload once untraced and once traced with --tiny, and checks
that each run exits 0 and ends with the result line: exactly the keys
correct, attempted, failed and metrics, no failures, and every metric
BENCHMARK.json names (end_to_end untraced, per_layer traced) with its
unit and nothing else.  It also checks the fuller report (failed_frac,
environment, the workload's own throughput name) and that the benchmark
refuses to run, printing no result, in a directory holding only
BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ENVIRONMENT_KEYS = {
    "nproc", "cpu_model", "last_level_cache", "python", "numpy", "scipy",
    "git_commit", "workload_seed", "threads",
}


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("bench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    problems = []
    where = f"{workload} --trace {trace}"
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"], ".")
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    head, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in expected.keys() - got.keys():
        problems.append(f"{where}: missing metric {name}")
    for name in got.keys() - expected.keys():
        problems.append(f"{where}: unlisted metric {name}")
    for name in expected.keys() & got.keys():
        if got[name] != expected[name]:
            problems.append(f"{where}: {name} unit {got[name]} != {expected[name]}")
    report = json.loads(head)
    if report["failed_frac"] != 0:
        problems.append(f"{where}: failed_frac {report['failed_frac']}: {report['failures']}")
    if not ENVIRONMENT_KEYS <= report["environment"].keys():
        problems.append(f"{where}: environment lacks {ENVIRONMENT_KEYS - report['environment'].keys()}")
    if trace == 0 and f"{report['work_unit']}_per_s" not in report:
        problems.append(f"{where}: no {report['work_unit']}_per_s in the report")
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and bench/: must fail without a result line."""
    bare = os.path.join(".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("bench", os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        print("BENCHMARK.json workloads differ from bench/workloads.py", file=sys.stderr)
        return 1
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = check_bare_directory()
    for workload in workloads.NAMES:
        for trace in (0, 1):
            found = check_run(workload, trace, expected[trace])
            print(f"{workload:15s} trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
