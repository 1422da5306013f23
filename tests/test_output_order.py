"""Every output is computed, and every JSON output encoded, before main
writes the first one.

A JSON payload that cannot be encoded (here a NaN, injected through a
library call that the command makes) is found while nothing has been
written.  The run exits 2 with one `error:` line and no data on stdout,
an existing output keeps its bytes, and the files the run created are
gone.  The cases that need the rule are those whose JSON is not the first
output: the montecarlo summary comes after its CSV, and audit's --out
after the table on stdout.
"""

import dataclasses
import math

import pytest

from sidephase import cli, montecarlo
from sidephase.cli import main

OLD = b"existing bytes\n"
MC = [
    "montecarlo", "--variance", "3000", "--tau-c", "1e-3", "--t-max", "0.01",
    "--n-steps", "400", "--n-trajectories", "20", "--grid-points", "5",
]


def _nan_z_score(monkeypatch):
    compare = montecarlo.compare_to_analytic

    def compare_with_nan(result, reference):
        comparison = compare(result, reference)
        comparison.z_scores[-1] = math.nan  # the summary's max_z is NaN
        return comparison

    monkeypatch.setattr(montecarlo, "compare_to_analytic", compare_with_nan)


def _nan_decoherence_time(monkeypatch):
    monkeypatch.setattr(cli, "decoherence_time", lambda correlation, convention: math.nan)


def _nan_audit_value(monkeypatch):
    build_audit = cli.build_audit

    def audit_with_nan():
        first, *rest = build_audit()
        return [dataclasses.replace(first, computed_value=math.nan), *rest]

    monkeypatch.setattr(cli, "build_audit", audit_with_nan)


# name: (argv before the outputs, output options in order, NaN injection)
CASES = {
    "montecarlo": (MC, ("--out", "--summary-out"), _nan_z_score),
    "channel": (
        ["channel", "hyperfine", "--t-max", "0.002"],
        ("--out", "--profile-out"),
        _nan_decoherence_time,
    ),
    "sweep-json": (
        ["sweep", "--channel", "hyperfine", "--param", "tau1", "--grid", "1:1e4:3:log",
         "--format", "json"],
        ("--out",),
        _nan_decoherence_time,
    ),
    "audit": (["audit"], ("--out",), _nan_audit_value),
}


@pytest.mark.parametrize("existing", [0, 1, 2], ids=["none-exist", "first-exists", "all-exist"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_unencodable_json_writes_nothing(tmp_path, capsys, monkeypatch, name, existing):
    argv, options, inject = CASES[name]
    paths = [tmp_path / f"{n}.out" for n in range(len(options))]
    kept = paths[:existing]
    for path in kept:
        path.write_bytes(OLD)
    inject(monkeypatch)
    for option, path in zip(options, paths):
        argv = argv + [option, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # the audit table too waits for the encoding
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert sorted(tmp_path.iterdir()) == kept
    assert all(path.read_bytes() == OLD for path in kept)


def test_degenerate_statistics_exit_2(tmp_path, capsys, monkeypatch):
    # A library caller still sees a RuntimeError; the CLI maps it as a ValueError.
    assert issubclass(montecarlo.DegenerateStatisticsError, RuntimeError)

    def degenerate(result, reference):
        raise montecarlo.DegenerateStatisticsError("zero spread")

    monkeypatch.setattr(montecarlo, "compare_to_analytic", degenerate)
    assert main(MC + ["--out", str(tmp_path / "mc.csv")]) == 2
    assert capsys.readouterr().err == "error: zero spread\n"
    assert list(tmp_path.iterdir()) == []
