"""The four benchmark workloads, generated from a workload seed.

Each workload is one iteration: a fixed list of invocations that the run
repeats in a closed loop (one client, the next call after the previous one
returns).  Checks are extra invocations whose output must equal, byte for
byte, the output of a named invocation of the iteration.

Why these four:

- mc-narrowing: the A10 shape at --workers 2.  Draws, the AR(1) filter
  and the cumsum dominate: 20,001 draws per trajectory feed 50 output
  points.  An exact integrated-OU sampler or a kernel change shows here.
- mc-quasistatic: the A09 shape at --workers 1 plus the A12 register
  ensemble.  Per-member seeding and Python dispatch dominate, not draws, so
  a long-trajectory optimisation should predict no change here while a
  per-member-overhead change should show.
- sweep: every sweepable (channel, param) pair, lin and log grids, CSV and
  JSON, plus `channel` under each convention and `audit`.  The scalar
  analytic path: unit-gamma bisection, one Debye quadrature per phonon
  row, one build_channel per row.  Many short calls give the latency
  percentiles.  No Monte Carlo.
- profile: `channel --profile-out` with a large --t-points for all four
  channels.  The same dephasing layer as sweep, but one correlation over
  many times plus CSV writing; kept apart from sweep so that an
  array-native gamma_exact that slows scalar calls shows on sweep and is
  not hidden by a gain here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

# Size of each shape at full and at self-test ("tiny") scale.
SIZES = {
    "full": {
        "traj": 10_000,
        "register_n": 10_000,
        "sweep_rows": 48,
        "profile_points": 100_000,
    },
    "tiny": {
        "traj": 40,
        "register_n": 40,
        "sweep_rows": 4,
        "profile_points": 500,
    },
}

NARROWING = {"variance": 3000.0, "tau_c": 1e-3, "t_max": 1.0, "n_steps": 20_000, "grid": 50}
QUASISTATIC = {"variance": 1.0, "tau_c": 2e6, "t_max": 2.0, "n_steps": 200, "grid": 50}
REGISTER_SIGMA = 0.02  # A12 shape

# Valid (min, max) per sweepable (channel, param); every row inside them is
# a finite, accepted channel.  Paramagnetic concentrations stay below the
# dilute-expansion limit 1/min_distance^3 ~ 5e28 m^-3.
SWEEP_RANGES = {
    ("hyperfine", "a0"): (1e8, 1e9),
    ("hyperfine", "field"): (0.2, 5.0),
    ("hyperfine", "ratio"): (5.0, 30.0),
    ("hyperfine", "tau1"): (1.0, 1e5),
    ("hyperfine", "temperature"): (0.05, 1.0),
    ("phonon", "temperature"): (0.05, 10.0),
    ("paramagnetic", "concentration"): (1e22, 1e27),
    ("paramagnetic", "field"): (0.2, 5.0),
    ("paramagnetic", "ratio"): (5.0, 30.0),
    ("paramagnetic", "tau1_imp"): (1.0, 1e5),
    ("paramagnetic", "temperature"): (0.05, 1.0),
    ("nuclear", "concentration"): (1e23, 1e26),
    ("nuclear", "field"): (0.2, 5.0),
    ("nuclear", "spin_temperature"): (2e-4, 1e-2),
    ("nuclear", "t_parallel_imp"): (1.0, 1e5),
}

# Channel parameters of the config file every sweep and profile call reads.
CHANNEL_PARAMS = {
    "hyperfine": {"field": 2.0, "temperature": 0.1, "tau1": 1e4},
    "phonon": {"temperature": 0.1},
    "paramagnetic": {"concentration": 0.7e26, "field": 2.0, "temperature": 0.1, "tau1_imp": 1e4},
    "nuclear": {"concentration": 2.25e25, "field": 2.0, "spin_temperature": 0.8e-3, "t_parallel_imp": 1e4},
}

# Profile horizons: about three unit-gamma decoherence times of each channel
# (for phonon, three 1/rate).
PROFILE_T_MAX = {
    "hyperfine": 4e-3,
    "phonon": 1.3e23,
    "paramagnetic": 4.0,
    "nuclear": 0.11,
}

CONVENTIONS = ("static", "markovian", "unit-gamma")


@dataclass
class Output:
    """One output of an invocation: a file path, or None for stdout."""

    path: str | None
    fmt: str  # "json", "csv" or "text"
    rows: int | None = None  # expected data rows (CSV lines or JSON entries)


@dataclass
class Invocation:
    label: str
    argv: list[str] | None = None  # sidephase CLI arguments
    register: tuple[float, int, int] | None = None  # (sigma, seed, n)
    outputs: list[Output] = field(default_factory=list)
    work: int = 0  # items this call delivers towards work_per_s
    threads: int = 1


@dataclass
class Check:
    """Run `invocation` once; its outputs must equal those of `same_as`."""

    invocation: Invocation
    same_as: str


@dataclass
class Workload:
    name: str
    work_unit: str  # what work_per_s counts
    invocations: list[Invocation]
    checks: list[Check] = field(default_factory=list)
    calibration: str = "interpreter"  # which loop of bench/calibration.py

    @property
    def threads(self) -> int:
        return max(inv.threads for inv in self.invocations)


def _montecarlo(label, shape, n_traj, seed, workers, out_dir) -> Invocation:
    csv = os.path.join(out_dir, f"{label}.csv")
    summary = os.path.join(out_dir, f"{label}.json")
    argv = [
        "montecarlo",
        "--variance", repr(shape["variance"]),
        "--tau-c", repr(shape["tau_c"]),
        "--t-max", repr(shape["t_max"]),
        "--n-steps", str(shape["n_steps"]),
        "--n-trajectories", str(n_traj),
        "--grid-points", str(shape["grid"]),
        "--workers", str(workers),
        "--seed", str(seed),
        "--out", csv,
        "--summary-out", summary,
    ]
    return Invocation(
        label=label,
        argv=argv,
        outputs=[Output(csv, "csv", shape["grid"]), Output(summary, "json")],
        work=n_traj * (shape["n_steps"] + 1),
        threads=workers,
    )


def _write_config(out_dir: str) -> str:
    path = os.path.join(out_dir, "channels.ini")
    with open(path, "w") as fh:
        for kind, params in CHANNEL_PARAMS.items():
            fh.write(f"[{kind}]\n")
            for key, value in params.items():
                fh.write(f"{key} = {value!r}\n")
            fh.write("\n")
    return path


def build(name: str, seed: int, scale: str, out_dir: str) -> Workload:
    """The workload `name` for `seed`; outputs go under `out_dir`.

    The seed sets every Monte Carlo --seed and ErrorSampler seed and nothing
    else: sweep and profile, which take no seed, get the same inputs for
    every seed.
    """
    size = SIZES[scale]
    rng = random.Random(seed)
    if name == "mc-narrowing":
        mc_seed = rng.getrandbits(63)
        return Workload(
            name,
            "traj_steps",
            [_montecarlo("mc-w2", NARROWING, size["traj"], mc_seed, 2, out_dir)],
            [Check(_montecarlo("mc-w1", NARROWING, size["traj"], mc_seed, 1, out_dir), "mc-w2")],
            calibration="numeric",
        )
    if name == "mc-quasistatic":
        mc_seed = rng.getrandbits(63)
        reg_seed = rng.getrandbits(63)
        n = size["register_n"]
        register = Invocation(
            "register",
            register=(REGISTER_SIGMA, reg_seed, n),
            outputs=[Output(None, "json")],
        )
        return Workload(
            name,
            "traj_steps",
            [_montecarlo("mc-w1", QUASISTATIC, size["traj"], mc_seed, 1, out_dir), register],
            [Check(_montecarlo("mc-w2", QUASISTATIC, size["traj"], mc_seed, 2, out_dir), "mc-w1")],
        )
    config = _write_config(out_dir)
    if name == "sweep":
        from sidephase.config import SWEEPABLE

        invocations = []
        rows = size["sweep_rows"]
        for kind in sorted(SWEEPABLE):
            for param in sorted(SWEEPABLE[kind]):
                lo, hi = SWEEP_RANGES[(kind, param)]
                for scale_kind in ("lin", "log"):
                    for fmt in ("csv", "json"):
                        label = f"sweep-{kind}-{param}-{scale_kind}-{fmt}"
                        out = os.path.join(out_dir, f"{label}.{fmt}")
                        argv = [
                            "sweep", "--channel", kind, "--param", param,
                            "--grid", f"{lo!r}:{hi!r}:{rows}:{scale_kind}",
                            "--config", config, "--out", out, "--format", fmt,
                        ]
                        invocations.append(Invocation(label, argv, outputs=[Output(out, fmt, rows)], work=rows))
        for kind in CHANNEL_PARAMS:
            for convention in CONVENTIONS:
                argv = ["channel", kind, "--config", config, "--convention", convention]
                invocations.append(
                    Invocation(f"channel-{kind}-{convention}", argv, outputs=[Output(None, "json")], work=1)
                )
        audit_out = os.path.join(out_dir, "audit.json")
        invocations.append(
            Invocation("audit", ["audit", "--out", audit_out], outputs=[Output(None, "text"), Output(audit_out, "json")])
        )
        return Workload(name, "rows", invocations)
    if name == "profile":
        points = size["profile_points"]
        invocations = []
        for kind, t_max in PROFILE_T_MAX.items():
            report = os.path.join(out_dir, f"profile-{kind}.json")
            csv = os.path.join(out_dir, f"profile-{kind}.csv")
            argv = [
                "channel", kind, "--config", config, "--out", report,
                "--profile-out", csv, "--t-max", repr(t_max), "--t-points", str(points),
            ]
            invocations.append(
                Invocation(
                    f"profile-{kind}",
                    argv,
                    outputs=[Output(report, "json"), Output(csv, "csv", points)],
                    work=points,
                )
            )
        return Workload(name, "points", invocations)
    raise ValueError(f"unknown workload: {name!r}")


NAMES = ("mc-narrowing", "mc-quasistatic", "sweep", "profile")
