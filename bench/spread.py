"""Every end-to-end metric of every workload, and its run-to-run spread.

    python3 bench/spread.py [--workloads sweep,profile] [--seeds 1-10] [--seconds 15]

Runs bench/run.py once per workload and seed, one run at a time, and prints
each run's metrics with their units and failed_frac.  With two or more
seeds it then prints, per workload and metric, the median of the runs and
their interquartile distance as a share of that median
(statistics.quantiles(values, n=4)), against the bound in BENCHMARK.json.
A spread above a third of its bound is flagged.  Next to it stands the
spread of the same runs' uncalibrated values (see bench/calibration.py),
for comparison only.  Exits nonzero if a run fails, has a failed
invocation, or a spread is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            head, _, last = proc.stdout.rstrip("\n").rpartition("\n")
            result = json.loads(last)
            uncalibrated = json.loads(head)["uncalibrated"]
            ok &= result["correct"]
            line = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {line} failed_frac={result['failed'] / result['attempted']:g}",
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                raw.setdefault(name, []).append(uncalibrated.get(name, metric)["value"])
        if len(seeds) < 2:
            continue
        for name, vals in values.items():
            share = spread(vals)
            steady = share < bounds[name] / 3
            ok &= steady
            print(f"  {workload:15s} {name:13s} median {statistics.median(vals):12.6g}  spread {share:6.3f}  "
                  f"(raw {spread(raw[name]):6.3f})  bound {bounds[name]}  {'ok' if steady else 'WIDE'}", flush=True)
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
