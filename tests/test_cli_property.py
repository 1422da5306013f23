"""Any argv from the CLI grammar ends in valid output or in one error line.

Hypothesis draws a subcommand and its options.  Float options and config
values are drawn log-uniformly over the whole float range (subnormals, both
signs, 0, inf and nan included; passed as --option=value, so that a
negative value is not taken for an option), which is how underflowing
noise scales turned up, and now and then from a physical range, so that Monte Carlo
plans pass too.  Exit 0 must leave strict JSON and CSV tables whose every
cell is its own '%.17g' (so no nan); exit 2 or 3 must print exactly one
line on stderr.  Monte Carlo sizes stay small and --workers at most 4;
--t-points reaches a few thousand, so profiles take both CSV writer paths.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from sidephase.cli import main
from sidephase.config import CHANNEL_KINDS, PARAMS, SWEEPABLE
from sidephase.dephasing import CONVENTIONS

# Unit interval scaled by 2^k: every binade from the smallest subnormal up.
WHOLE_RANGE = st.builds(
    math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023)
)
EDGES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda k: 10.0 ** k)


def values(physical):
    """A float option or config value: physical, whole-range, or invalid."""
    invalid = st.one_of(WHOLE_RANGE.map(lambda v: -v), EDGES)
    return st.one_of(log_uniform(*physical), WHOLE_RANGE, invalid)


def optional(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def config_file(draw, kind):
    keys = draw(st.lists(st.sampled_from(PARAMS[kind]), unique=True, max_size=4))
    body = "".join(f"{key} = {draw(values((1e-3, 1e3)))!r}\n" for key in keys)
    return f"[{kind}]\n{body}"


@st.composite
def channel(draw):
    kind = draw(st.sampled_from(CHANNEL_KINDS))
    argv = ["channel", kind]
    config = draw(optional(config_file(kind)))
    if config is not None:
        argv += ["--config", "{dir}/ch.ini"]
    if draw(st.booleans()):
        argv += ["--convention", draw(st.sampled_from(CONVENTIONS))]
    if draw(st.booleans()):
        argv += ["--out", "{dir}/report.json"]
    if draw(st.booleans()):
        argv += ["--profile-out", "{dir}/profile.csv"]
        points = st.one_of(st.integers(0, 300), st.integers(256, 3000), st.integers(256, 3000))
        argv += ["--t-points", str(draw(points))]
    if "--profile-out" in argv or draw(st.booleans()):
        argv.append(f"--t-max={draw(st.one_of(log_uniform(1e-6, 1e-2), values((1e-6, 1e-2))))!r}")
    return argv, config


# A well-formed grid (distinct sorted bounds, 2 to 24 points), or any.
WELL_FORMED = st.tuples(
    st.lists(st.one_of(log_uniform(1e-3, 1e3), WHOLE_RANGE), min_size=2, max_size=2, unique=True).map(sorted),
    st.integers(2, 24),
)
ANY_GRID = st.tuples(st.lists(values((1e-3, 1e3)), min_size=2, max_size=2), st.integers(-1, 24))
grids = st.builds(
    lambda bounds_count, scale: f"{bounds_count[0][0]!r}:{bounds_count[0][1]!r}:{bounds_count[1]}:{scale}",
    st.one_of(WELL_FORMED, ANY_GRID),
    st.sampled_from(["lin", "log"]),
)


@st.composite
def sweep(draw):
    kind = draw(st.sampled_from(CHANNEL_KINDS))
    param = draw(st.sampled_from(sorted(SWEEPABLE[kind])))
    if draw(st.integers(0, 7)) == 7:
        param = "bogus"
    argv = ["sweep", "--channel", kind, "--param", param, f"--grid={draw(grids)}"]
    argv += ["--out", "{dir}/sweep.out", "--format", draw(st.sampled_from(["csv", "json"]))]
    config = draw(optional(config_file(kind)))
    if config is not None:
        argv += ["--config", "{dir}/ch.ini"]
    return argv, config


# Monte Carlo options drawn wide, and the A10-like plan that fills the rest.
MC_WIDE = {
    "--variance": values((1e2, 1e4)),
    "--tau-c": st.one_of(values((1e-3, 1e-1)), st.just(math.inf)),
    "--t-max": values((1e-3, 1e-2)),
    "--mismatch-tau-c": values((0.1, 10.0)),
}
MC_PLAN = {"--variance": 3000.0, "--tau-c": 1e-3, "--t-max": 1e-2, "--mismatch-tau-c": 1.0}


@st.composite
def montecarlo(draw):
    wide = draw(st.sets(st.sampled_from(sorted(MC_WIDE)), min_size=1))
    argv = ["montecarlo"]
    for option, plan_value in MC_PLAN.items():
        argv.append(f"{option}={draw(MC_WIDE[option]) if option in wide else plan_value!r}")
    # Each count is mostly valid, and sometimes out of range.
    for option, lo, valid, hi in [
        ("--n-steps", 0, 200, 800),
        ("--n-trajectories", 0, 2, 40),
        ("--grid-points", 0, 1, 12),
        ("--workers", 0, 1, 4),
        ("--seed", -1, 0, 2 ** 64),
    ]:
        argv.append(f"{option}={draw(st.one_of(st.integers(valid, hi), st.integers(lo, hi)))}")
    argv += ["--out", "{dir}/mc.csv"]
    if draw(st.booleans()):
        argv += ["--summary-out", "{dir}/summary.json"]
    return argv, None


def other(command):
    return st.booleans().map(lambda out: ([command] + (["--out", "{dir}/out.json"] if out else []), None))


INVOCATIONS = st.one_of(
    channel(), channel(), sweep(), sweep(), montecarlo(), montecarlo(), other("constants"), other("audit")
)


def _strict(name):
    raise ValueError(f"non-strict JSON token {name}")


def assert_output(name: str, text: str, is_json: bool) -> None:
    if is_json:
        json.loads(text, parse_constant=_strict)
        return
    header, *rows = text.splitlines()
    assert text.endswith("\n") and header and rows, name
    for row in rows:
        for cell in row.split(","):
            assert cell != "nan" and "%.17g" % float(cell) == cell, (name, row)


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(INVOCATIONS)
# Found by wider runs of this test: a NaN phase-noise coefficient where
# sigma tau_c overflows, and k T underflowing to 0 (ZeroDivisionError).
@example((["montecarlo", "--variance=100.0", "--tau-c=2.247116418577895e+307", "--t-max=0.001",
           "--n-steps=1", "--n-trajectories=1", "--grid-points=1", "--out", "{dir}/mc.csv",
           "--summary-out", "{dir}/summary.json"], None))
@example((["channel", "nuclear", "--config", "{dir}/ch.ini"], "[nuclear]\nspin_temperature = 1e-320\n"))
@example((["sweep", "--channel", "phonon", "--param", "temperature", "--grid=5e-324:1e-320:2:lin",
           "--out", "{dir}/sweep.out"], None))
def test_any_invocation_ends_cleanly(invocation):
    template, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            with open(os.path.join(tmp, "ch.ini"), "w") as fh:
                fh.write(config)
        argv = [arg.format(dir=tmp) for arg in template]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        outputs = sorted(set(os.listdir(tmp)) - {"ch.ini"})
        event(f"{template[0]} exit {code}")
        if code != 0:
            assert code in (2, 3), argv
            assert len(stderr.getvalue().splitlines()) == 1, (argv, stderr.getvalue())
            assert stdout.getvalue() == "" and outputs == [], argv
            return
        for name in outputs:
            with open(os.path.join(tmp, name)) as fh:
                text = fh.read()
            is_json = name.endswith(".json") or (name == "sweep.out" and "json" in argv)
            assert_output(name, text, is_json)
            if name == "profile.csv":
                event(f"profile of {'at least' if text.count(chr(10)) > 256 else 'under'} 256 rows")
        if template[0] in ("channel", "constants") and "--out" not in template:
            assert_output("stdout", stdout.getvalue(), True)
