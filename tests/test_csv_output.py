"""The CSV tables the CLI writes, cell by cell, and a parser built once.

Every table (sweep, montecarlo, Gamma(t) profile) writes each cell at 17
significant digits, so a cell parses back to the exact float64 it came
from; a flag is written as 1 or 0 and an infinity as inf.
"""

import json
import os
import subprocess
import sys

import numpy as np

import sidephase
from sidephase.cli import main
from sidephase.dephasing import ExponentialCorrelation
from sidephase.montecarlo import SimulationPlan, compare_to_analytic, ensemble_coherence

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sidephase.__file__)))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def test_montecarlo_cells_are_the_exact_float64_bits(tmp_path):
    corr = ExponentialCorrelation(3000.0, 1e-3)
    out = tmp_path / "mc.csv"
    argv = ["montecarlo", "--variance", "3000", "--tau-c", "1e-3", "--t-max", "0.01"]
    argv += ["--n-steps", "400", "--n-trajectories", "300", "--grid-points", "9"]
    argv += ["--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    plan = SimulationPlan(corr, 0.01, 400, 300, 5)
    result = ensemble_coherence(plan, n_grid=9)
    comparison = compare_to_analytic(result, corr)
    header, *lines = out.read_text().splitlines()
    assert header == "t,re_mean,im_mean,std_error,analytic_envelope,z"
    columns = list(zip(*(map(float, line.split(",")) for line in lines)))
    expected = [
        result.times,
        result.mean_coherence.real,
        result.mean_coherence.imag,
        result.std_error,
        comparison.analytic_envelope,
        comparison.z_scores,
    ]
    assert len(columns) == len(expected)
    for column, values in zip(columns, expected):
        assert _bits(column) == _bits(values)


def _sweep_csv(tmp_path, *argv) -> list[str]:
    out = tmp_path / "s.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    return out.read_text().splitlines()


def test_sweep_writes_flags_as_one_and_zero(tmp_path):
    lines = _sweep_csv(
        tmp_path, "--channel", "phonon", "--param", "temperature", "--grid", "0.5:0.75:3:lin"
    )
    header = lines[0].split(",")
    column = header.index("low_temperature_valid")
    assert [line.split(",")[column] for line in lines[1:]] == ["1", "0", "0"]


def test_sweep_writes_infinity_as_inf(tmp_path):
    lines = _sweep_csv(
        tmp_path, "--channel", "paramagnetic", "--param", "concentration", "--grid", "0:1e22:3:lin"
    )
    assert lines[1] == "0,0,10000,inf,inf,inf"


# One call per line: a sweep with a malformed grid (exit 2), a valid sweep,
# then a channel report with a profile.
SEQUENCE = [
    ["sweep", "--channel", "hyperfine", "--param", "tau1", "--grid", "1:1e4:x:log",
     "--out", "{dir}/bad.csv"],
    ["sweep", "--channel", "nuclear", "--param", "t_parallel_imp", "--grid", "1:1e5:4:log",
     "--out", "{dir}/s.csv"],
    ["channel", "hyperfine", "--convention", "unit-gamma", "--t-max", "4e-3",
     "--t-points", "11", "--profile-out", "{dir}/p.csv"],
]

RUN_CALLS = """\
import contextlib, io, json, os, sys
from sidephase import cli
calls, out_dir = json.loads(sys.argv[1]), sys.argv[2]
results = []
for argv in calls:
    argv = [arg.format(dir=out_dir) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    files = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path) as fh:
            files[name] = fh.read()
        os.remove(path)
    results.append([code, stdout.getvalue(), stderr.getvalue(), files])
print(json.dumps([results, cli._build_parser.cache_info().misses]))
"""


def _run_calls(tmp_path, calls) -> tuple[list, int]:
    """Run calls in order in one new interpreter: each call's outputs."""
    out_dir = tmp_path / "out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CALLS, json.dumps(calls), str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_calls_in_one_process_match_calls_made_alone(tmp_path):
    together, builds = _run_calls(tmp_path, SEQUENCE)
    alone = [_run_calls(tmp_path, [argv])[0][0] for argv in SEQUENCE]
    assert together == alone
    assert [result[0] for result in together] == [2, 0, 0]
    assert together[0][2].startswith("error: ")
    assert sorted(together[1][3]) == ["s.csv"]
    assert sorted(together[2][3]) == ["p.csv"]
    assert builds == 1
