"""The numbers of every exit-0 run agree with each other.

tests/test_cli_property.py checks the form of each output; these check its
content, with channel parameters drawn log-uniformly from a physical range
or over the whole positive float range (subnormals included):

- Gamma in a profile lies between its two asymptotes,
  sigma^2 tau_c (t - tau_c) <= Gamma(t) <= min(sigma^2 t^2 / 2, sigma^2 tau_c t),
  which follow from x - 1 <= x - 1 + exp(-x) <= min(x^2 / 2, x);
- the unit-gamma time T is no shorter than what those bounds allow,
  T >= max(sqrt(2) T_static, T_markovian) (1 - 1e-9), and brackets
  Gamma = 1: Gamma(T (1 - 2e-9)) <= 1 <= Gamma(T (1 + 2e-9));
- a profile's envelope is exp(-gamma), cell for cell;
- a sweep row equals the channel report for the same parameters.

The bounds are evaluated exactly, in rationals, from the printed floats.
Gamma itself is a float formed in a few rounded operations, so it may sit
up to GAMMA_ULPS of its own ulps outside an exact bound (a subnormal Gamma
included, whose ulp is the smallest subnormal); anything beyond that is a
violation.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from sidephase.cli import main
from sidephase.config import CHANNELS, PARAMS, SWEEPABLE
from sidephase.dephasing import ExponentialCorrelation, gamma_exact

GAMMA_ULPS = 4

# Where each parameter's channel is physical; draws also span every binade.
PHYSICAL = {
    "a0": (1e8, 1e9),
    "field": (0.2, 5.0),
    "ratio": (5.0, 30.0),
    "temperature": (0.05, 1.0),
    "tau1": (1.0, 1e5),
    "concentration": (1e22, 1e27),
    "tau1_imp": (1.0, 1e5),
    "spin_temperature": (2e-4, 1e-2),
    "t_parallel_imp": (1.0, 1e5),
}
CORRELATION_KINDS = ("hyperfine", "paramagnetic", "nuclear")
WHOLE_RANGE = st.builds(
    math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023)
)

SETTINGS = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda k: 10.0 ** k)


def value(param):
    return st.one_of(log_uniform(*PHYSICAL[param]), WHOLE_RANGE)


@st.composite
def parameters(draw, kind, exclude=()):
    keys = PARAMS[kind]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    return {key: draw(value(key)) for key in chosen if key not in exclude}


def run(tmp, argv, config=None):
    """main(argv) with {dir} filled in; the exit code."""
    if config is not None:
        with open(os.path.join(tmp, "ch.ini"), "w") as fh:
            fh.write(config)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([arg.format(dir=tmp) for arg in argv])


def ini(kind, params):
    return f"[{kind}]\n" + "".join(f"{key} = {val!r}\n" for key, val in params.items())


def read_json(tmp, name):
    with open(os.path.join(tmp, name)) as fh:
        return json.load(fh)


def within(gamma, lo=None, hi=None):
    """gamma (a float) within GAMMA_ULPS of its ulp of [lo, hi] (exact)."""
    slack = GAMMA_ULPS * Fraction(math.ulp(gamma))
    exact = Fraction(gamma)
    return (lo is None or exact >= lo - slack) and (hi is None or exact <= hi + slack)


def check_bounds(variance, tau_c, t, gamma):
    var, t_ = Fraction(variance), Fraction(t)
    if math.isinf(tau_c):  # static noise: Gamma is exactly quadratic
        return within(gamma, hi=var * t_ * t_ / 2)
    tc = Fraction(tau_c)
    upper = min(var * t_ * t_ / 2, var * tc * t_)
    return within(gamma, lo=var * tc * (t_ - tc), hi=upper)


def check_times(report):
    """Relations between the three decoherence times and Gamma at the root."""
    times = report["decoherence_time_s"]
    unit = times["unit-gamma"]
    if unit is None:  # infinite: no bound to break
        return
    static, markovian = times["static"], times["markovian"]
    assert static is not None and markovian is not None, report
    floor = max(Fraction(math.sqrt(2.0)) * Fraction(static), Fraction(markovian))
    assert Fraction(unit) >= floor * (1 - Fraction(1, 10 ** 9)), report
    correlation = ExponentialCorrelation(
        report["variance_rad2_per_s2"], report["correlation_time_s"]
    )
    below = gamma_exact(correlation, unit * (1.0 - 2e-9))
    above = gamma_exact(correlation, unit * (1.0 + 2e-9))
    assert below <= 1.0 <= above, (report, below, above)
    for t, gamma in ((unit * (1.0 - 2e-9), below), (unit * (1.0 + 2e-9), above)):
        if math.isfinite(t):
            assert check_bounds(correlation.variance, correlation.tau_c, t, gamma), (report, t)


@st.composite
def channel_case(draw):
    kind = draw(st.sampled_from(CORRELATION_KINDS))
    # Profile horizon: a multiple of the unit-gamma time, or any float.
    horizon = draw(st.one_of(st.tuples(st.just("x"), log_uniform(1e-3, 1e3)),
                             st.tuples(st.just("t"), WHOLE_RANGE)))
    points = draw(st.integers(2, 40))
    return kind, draw(parameters(kind)), horizon, points


@settings(max_examples=80, **SETTINGS)
@given(channel_case())
# Found by this test: Gamma 5 ulps above sigma^2 t^2 / 2 where its kernel
# x^2 / 2 is subnormal (t/tau_c ~ 6e-155) under a scale of 1.2e14.
@example(("hyperfine", {}, ("t", math.ldexp(1.0, -491)), 257))
# Found by this test: Gamma 6 ulps above sigma^2 tau_c t where the rate
# sigma^2 tau_c (1.7e-309) is subnormal but Gamma (2.8e-308) is not.
@example((
    "paramagnetic",
    {"field": 1.0, "temperature": 1.0, "concentration": 1.0, "tau1_imp": math.ldexp(1.0, -976)},
    ("t", 16.0),
    2,
))
def test_channel_report_and_profile_agree(case):
    kind, params, (how, horizon), points = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["channel", kind, "--config", "{dir}/ch.ini", "--out", "{dir}/r.json"]
        code = run(tmp, argv, ini(kind, params))
        event(f"report exit {code}")
        if code != 0:
            return
        report = read_json(tmp, "r.json")
        check_times(report)
        unit = report["decoherence_time_s"]["unit-gamma"]
        t_max = horizon * unit if how == "x" and unit is not None else horizon
        if not 0.0 < t_max < math.inf:
            return
        argv += ["--t-max", repr(t_max), "--t-points", str(points), "--profile-out", "{dir}/p.csv"]
        code = run(tmp, argv)
        event(f"profile exit {code}")
        if code != 0:
            return
        with open(os.path.join(tmp, "p.csv")) as fh:
            header, *rows = fh.read().splitlines()
    assert header == "t_seconds,gamma,envelope"
    assert len(rows) == points
    variance, tau_c = report["variance_rad2_per_s2"], report["correlation_time_s"]
    for row in rows:
        t, gamma, envelope = map(float, row.split(","))
        assert envelope == math.exp(-gamma), row
        assert check_bounds(variance, tau_c, t, gamma), (report, row)


@st.composite
def sweep_case(draw):
    kind = draw(st.sampled_from(sorted(CHANNELS)))
    param = draw(st.sampled_from(sorted(SWEEPABLE[kind])))
    fixed = draw(parameters(kind, exclude=("field",) if param == "ratio" else (param,)))
    bounds = sorted(draw(st.tuples(value(param), value(param))))  # equal: exit 2
    grid = f"{bounds[0]!r}:{bounds[1]!r}:{draw(st.integers(2, 4))}:{draw(st.sampled_from(['lin', 'log']))}"
    return kind, param, fixed, grid


@settings(max_examples=25, **SETTINGS)
@given(sweep_case())
def test_sweep_row_is_the_channel_report(case):
    kind, param, fixed, grid = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["sweep", "--channel", kind, "--param", param, f"--grid={grid}",
                "--config", "{dir}/ch.ini", "--out", "{dir}/s.json", "--format", "json"]
        code = run(tmp, argv, ini(kind, fixed))
        event(f"sweep exit {code}")
        if code != 0:
            return
        rows = read_json(tmp, "s.json")
        for row in rows:
            params = dict(fixed)
            if param == "ratio":
                temperature = params.get("temperature", CHANNELS[kind].temperature)
                params["field"] = row["ratio"] * temperature
            else:
                params[param] = row[param]
            assert run(tmp, ["channel", kind, "--config", "{dir}/ch.ini", "--out", "{dir}/r.json"],
                       ini(kind, params)) == 0, (kind, params)
            report = read_json(tmp, "r.json")
            if param != "ratio":
                assert report["parameters"][param] == row[param]
            if kind == "phonon":
                rates = report["rates_per_s"]
                expected = {
                    "rate_exact": rates["exact-integral"],
                    "rate_factorial": rates["factorial-approx"],
                    "td_linear": report["decoherence_time_s"],
                    "low_temperature_valid": report["flags"]["low_temperature_valid"],
                }
            else:
                times = report["decoherence_time_s"]
                expected = {
                    "variance": report["variance_rad2_per_s2"],
                    "tau_c": report["correlation_time_s"],
                    "td_static": times["static"],
                    "td_markovian": times["markovian"],
                    "td_unit_gamma": times["unit-gamma"],
                }
                if kind == "nuclear":
                    expected["polarized"] = report["flags"]["polarized"]
            assert {key: row[key] for key in expected} == expected, (kind, params)


def test_gamma_keeps_its_digits_where_its_kernel_underflows():
    # x = 1e-169: the kernel x^2 / 2 = 5e-339 is 0 in floats, but Gamma is
    # scale x^2 / 2 = 5e-31, and the float and array paths agree on it.
    correlation = ExponentialCorrelation(1e10, 1e149)
    expected = Fraction(1e10) * Fraction(1e149) ** 2 * Fraction(1e-20 / 1e149) ** 2 / 2
    gamma = gamma_exact(correlation, 1e-20)
    assert abs(Fraction(gamma) - expected) <= 2 * Fraction(math.ulp(gamma))
    assert gamma_exact(correlation, np.array([0.0, 1e-20])).tolist() == [0.0, gamma]


@pytest.mark.parametrize(
    "variance,tau_c,t",
    [
        (1e-25, 3e-290, 1e9),  # x = t/tau_c = 3.3e298: (variance tau_c) (tau_c kernel(x))
        (1e-25, 3e-300, 1e9),  # x overflows: (variance tau_c) (t - tau_c)
    ],
)
def test_gamma_keeps_its_digits_where_the_rate_is_subnormal(variance, tau_c, t):
    # The rate variance tau_c (3e-315, 3e-325) is subnormal or 0 in floats,
    # but Gamma = variance tau_c (t - tau_c) + variance tau_c^2 exp(-x) is
    # 3e-306 or 3e-316, and exp(-x) is far below an ulp of it.
    correlation = ExponentialCorrelation(variance, tau_c)
    expected = Fraction(variance) * Fraction(tau_c) * (Fraction(t) - Fraction(tau_c))
    gamma = gamma_exact(correlation, t)
    assert abs(Fraction(gamma) - expected) <= 2 * Fraction(math.ulp(gamma))
    assert gamma_exact(correlation, np.array([0.0, t])).tolist() == [0.0, gamma]
