"""The CLI's bytes, pinned: one manifest for every command's contract.

Each invocation below runs in-process through main, in a fresh directory
and with relative paths, so no absolute path reaches stderr.  Its exit
code and the sha256 of its stdout, its stderr and every file it leaves
are compared with tests/data/cli_digests.json, one key each:
"<label> exit", "<label> stdout", "<label> stderr", "<label> file <name>".
A failure names the invocation and the keys that moved.

The invocations are the benchmark's at seed 1 and full scale (the four
100,000-point profiles, the 60 sweeps, the 12 channel reports under the
benchmark's config, audit --out and the four montecarlo runs), the 12
channel reports at the default parameters, constants, two exit-2 cases
and one exit-3 case.  They are written out here, not imported.

A change that moves bytes on purpose rewrites the manifest with

    python tests/test_cli_digests.py --update

and names each changed key in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

MANIFEST = Path(__file__).parent / "data" / "cli_digests.json"
CONFIG = "channels.ini"

# The config file every sweep, profile and configured channel call reads.
CHANNEL_PARAMS = {
    "hyperfine": {"field": 2.0, "temperature": 0.1, "tau1": 1e4},
    "phonon": {"temperature": 0.1},
    "paramagnetic": {"concentration": 0.7e26, "field": 2.0, "temperature": 0.1, "tau1_imp": 1e4},
    "nuclear": {"concentration": 2.25e25, "field": 2.0, "spin_temperature": 0.8e-3, "t_parallel_imp": 1e4},
}
PROFILE_T_MAX = {"hyperfine": 4e-3, "phonon": 1.3e23, "paramagnetic": 4.0, "nuclear": 0.11}
SWEEP_RANGES = {
    ("hyperfine", "a0"): (1e8, 1e9),
    ("hyperfine", "field"): (0.2, 5.0),
    ("hyperfine", "ratio"): (5.0, 30.0),
    ("hyperfine", "tau1"): (1.0, 1e5),
    ("hyperfine", "temperature"): (0.05, 1.0),
    ("nuclear", "concentration"): (1e23, 1e26),
    ("nuclear", "field"): (0.2, 5.0),
    ("nuclear", "spin_temperature"): (2e-4, 1e-2),
    ("nuclear", "t_parallel_imp"): (1.0, 1e5),
    ("paramagnetic", "concentration"): (1e22, 1e27),
    ("paramagnetic", "field"): (0.2, 5.0),
    ("paramagnetic", "ratio"): (5.0, 30.0),
    ("paramagnetic", "tau1_imp"): (1.0, 1e5),
    ("paramagnetic", "temperature"): (0.05, 1.0),
    ("phonon", "temperature"): (0.05, 10.0),
}
CONVENTIONS = ("static", "markovian", "unit-gamma")
MC_SEED = "5249979066121302517"  # the benchmark's Monte Carlo seed at workload seed 1
NARROWING = "--variance 3000.0 --tau-c 0.001 --t-max 1.0 --n-steps 20000"
QUASISTATIC = "--variance 1.0 --tau-c 2000000.0 --t-max 2.0 --n-steps 200"
SMALL_MC = "--variance 3000 --tau-c 1e-3 --t-max 0.01 --n-steps 400 --n-trajectories 100 --grid-points 5"


def _invocations() -> dict[str, list[str]]:
    """label: argv, in the order they run."""
    calls = {}
    for kind, t_max in PROFILE_T_MAX.items():
        calls[f"profile-{kind}"] = [
            "channel", kind, "--config", CONFIG, "--out", "report.json",
            "--profile-out", "profile.csv", "--t-max", repr(t_max), "--t-points", "100000",
        ]
    for (kind, param), (lo, hi) in SWEEP_RANGES.items():
        for scale in ("lin", "log"):
            for fmt in ("csv", "json"):
                calls[f"sweep-{kind}-{param}-{scale}-{fmt}"] = [
                    "sweep", "--channel", kind, "--param", param,
                    "--grid", f"{lo!r}:{hi!r}:48:{scale}",
                    "--config", CONFIG, "--out", f"sweep.{fmt}", "--format", fmt,
                ]
    for kind in CHANNEL_PARAMS:
        for convention in CONVENTIONS:
            calls[f"channel-{kind}-{convention}-config"] = [
                "channel", kind, "--config", CONFIG, "--convention", convention,
            ]
            calls[f"channel-{kind}-{convention}"] = ["channel", kind, "--convention", convention]
    calls["constants"] = ["constants"]
    calls["audit"] = ["audit", "--out", "audit.json"]
    for label, shape, workers in (
        ("mc-narrowing-w2", NARROWING, "2"),
        ("mc-narrowing-w1", NARROWING, "1"),
        ("mc-quasistatic-w1", QUASISTATIC, "1"),
        ("mc-quasistatic-w2", QUASISTATIC, "2"),
    ):
        calls[label] = ["montecarlo", *shape.split(), "--n-trajectories", "10000",
                        "--grid-points", "50", "--workers", workers, "--seed", MC_SEED,
                        "--out", "mc.csv", "--summary-out", "mc.json"]
    calls["mc-workers-0"] = ["montecarlo", *SMALL_MC.split(), "--workers", "0", "--seed", "1",
                             "--out", "mc.csv", "--summary-out", "mc.json"]
    # Two outputs on one file: refused before anything is written.
    calls["channel-same-file"] = ["channel", "hyperfine", "--t-max", "1e-3",
                                  "--out", "r.txt", "--profile-out", "r.txt"]
    # Too few steps for tau_c: the plan is rejected before --workers is read.
    calls["mc-coarse-plan"] = ["montecarlo", "--variance", "3000", "--tau-c", "1e-3",
                               "--t-max", "1", "--n-steps", "10", "--workers", "0",
                               "--seed", "1", "--out", "mc.csv", "--summary-out", "mc.json"]
    return calls


INVOCATIONS = _invocations()


def _write_config() -> None:
    with open(CONFIG, "w") as fh:
        for kind, params in CHANNEL_PARAMS.items():
            fh.write(f"[{kind}]\n")
            for key, value in params.items():
                fh.write(f"{key} = {value!r}\n")
            fh.write("\n")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(label: str) -> dict[str, int | str]:
    """Run one invocation in the current directory; its manifest entries."""
    from sidephase.cli import main

    _write_config()
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(INVOCATIONS[label])
    entries = {
        f"{label} exit": code,
        f"{label} stdout": _sha256(out.getvalue().encode()),
        f"{label} stderr": _sha256(err.getvalue().encode()),
    }
    for name in sorted(set(os.listdir()) - before):
        entries[f"{label} file {name}"] = _sha256(Path(name).read_bytes())
    return entries


def _load_manifest() -> dict[str, int | str]:
    return json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def manifest():
    return _load_manifest()


def test_manifest_covers_exactly_the_invocations(manifest):
    labels = {key.split(" ", 1)[0] for key in manifest}
    assert labels == set(INVOCATIONS)


@pytest.mark.parametrize("label", list(INVOCATIONS))
def test_invocation_bytes(tmp_path, monkeypatch, manifest, label):
    monkeypatch.chdir(tmp_path)
    got = run_digests(label)
    want = {key: value for key, value in manifest.items() if key.split(" ", 1)[0] == label}
    moved = sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key))
    assert not moved, f"{label}: {moved} differ from {MANIFEST.name}"


def _update() -> None:
    """Rerun every invocation and rewrite the manifest; print the keys that moved."""
    old = _load_manifest() if MANIFEST.exists() else {}
    new = {}
    cwd = os.getcwd()
    for label in INVOCATIONS:
        with tempfile.TemporaryDirectory() as directory:
            os.chdir(directory)
            try:
                new.update(run_digests(label))
            finally:
                os.chdir(cwd)
    MANIFEST.write_text(json.dumps(new, indent=1) + "\n")
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(f"changed: {key}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_cli_digests.py --update")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    _update()
