"""Unit-gamma time: the Newton-guided solve returns the plain bisection's bits.

decoherence_time(..., "unit-gamma") finds the root of Gamma(t) = 1 by
Newton's method and replays the doubling and the 1e-9 bisection against it.
Its result must equal, float for float, what the doubling and
bisect_increasing give when every step evaluates Gamma, or raise the same
error.  That plain solve is kept here as the oracle.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidephase import dephasing
from sidephase.config import build_channel
from sidephase.dephasing import (
    ExponentialCorrelation,
    bisect_increasing,
    decoherence_time,
    gamma_exact,
)
from sidephase.mechanisms import channel_to_correlation

TINY = sys.float_info.min
HUGE = sys.float_info.max


def bisection_time(correlation):
    """The unit-gamma branch as it was before the Newton root: every step evaluates Gamma.

    Where variance * tau_c underflows to 0, Gamma < variance tau_c t stays
    under 1 at every finite t, and a doubling that reaches inf finds no root
    in float range: both give inf.
    """
    if correlation.variance * correlation.tau_c == 0.0:
        return math.inf
    hi = correlation.variance ** -0.5
    while gamma_exact(correlation, hi) < 1.0:
        hi *= 2.0
    if hi == math.inf:
        return math.inf
    return bisect_increasing(
        lambda t: gamma_exact(correlation, t) - 1.0, 0.0, hi, rtol=1e-9
    )


def outcome(solve, correlation):
    try:
        return solve(correlation)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def assert_same(correlation):
    expected = outcome(bisection_time, correlation)
    got = outcome(lambda c: decoherence_time(c, "unit-gamma"), correlation)
    assert got == expected, correlation


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


def seeded_correlations(seed, n, exponents, tau_exponents):
    """Log-uniform variance and tau_c; about 2% static noise."""
    rng = random.Random(seed)
    for _ in range(n):
        variance = log_uniform(rng, *exponents)
        tau_c = math.inf if rng.random() < 0.02 else log_uniform(rng, *tau_exponents)
        yield ExponentialCorrelation(variance, tau_c)


def test_whole_float_range():
    for correlation in seeded_correlations(20261018, 4000, (-307, 307), (-307, 307)):
        assert_same(correlation)


def test_physical_range():
    for correlation in seeded_correlations(20261019, 4000, (-6, 14), (-12, 12)):
        assert_same(correlation)


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(
    variance=st.floats(min_value=0.0, max_value=HUGE, exclude_min=True),
    tau_c=st.floats(min_value=0.0, exclude_min=True),
)
def test_any_float_correlation(variance, tau_c):
    assert_same(ExponentialCorrelation(variance, tau_c))


@pytest.mark.parametrize(
    "variance,tau_c",
    [
        # Subnormal variances: sqrt(2/variance) overflows or keeps few bits.
        (1e-310, 1e20),
        (1e-310, math.inf),
        (5e-324, math.inf),
        (5e-324, 1e160),
        (1.5e-308, math.inf),
        (1.5e-308, 10.0),
        (TINY / 2.0, 1.0),
        # The smallest normal variance: the Newton path's edge.
        (TINY, math.inf),
        (TINY, 1.0),
        (TINY, 1e154),
        # Scale variance*tau_c^2 zero, subnormal or overflowing.
        (1.23e6, 1e-300),
        (1e-150, 1e-300),
        (1e-300, 1e-5),
        (1.23e6, 1e-159),
        (1.0, math.sqrt(TINY) / 2.0),
        (1.0, math.sqrt(TINY)),
        (1e300, 1e10),
        (1.23e6, 1e300),
        (1e-6, 1e300),
        (HUGE, 1.0),
        (HUGE, math.inf),
    ],
)
def test_edge_correlations(variance, tau_c):
    assert_same(ExponentialCorrelation(variance, tau_c))


@pytest.mark.parametrize("x_root", [dephasing._SERIES_SWITCH, dephasing._KERNEL_SWITCH])
@pytest.mark.parametrize("tau_c", [1e-9, 1.0, 1e4])
def test_roots_at_the_kernel_branch_switches(x_root, tau_c):
    # Gamma(tau_c x) = variance tau_c^2 kernel(x): choose variance so that
    # the root sits at x_root, a few ulps to 1e-7 off it, on either side.
    for offset in (0.0, 1e-15, 1e-13, 1e-11, 1e-9, 1e-7):
        for x in {x_root * (1.0 - offset), x_root * (1.0 + offset)}:
            variance = 1.0 / (dephasing._gamma_kernel(x) * tau_c * tau_c)
            assert_same(ExponentialCorrelation(variance, tau_c))
            assert_same(ExponentialCorrelation(math.nextafter(variance, 0.0), tau_c))
            assert_same(ExponentialCorrelation(math.nextafter(variance, math.inf), tau_c))


def kernel_ratio_root(ratio):
    """The x > 0 with x / sqrt(kernel(x)) = ratio, which rises from sqrt(2)."""
    lo, hi = 1e-300, 1e300
    while hi - lo > 4e-16 * hi:
        mid = math.sqrt(lo * hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
        if mid / math.sqrt(dephasing._gamma_kernel(mid)) < ratio:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("ratio", [1.4375, 1.5 + 2**-12, 3.0 + 2**-7, 40.0 + 2**-5])
@pytest.mark.parametrize("tau_c", [1.0, 3e5])
def test_roots_on_a_bisection_midpoint(ratio, tau_c):
    # With variance = 1/(tau_c^2 kernel(x)), the root tau_c x sits at
    # ratio * variance^(-1/2).  A ratio with few binary digits makes that a
    # midpoint the bisection visits, so Gamma there is 1 to within rounding
    # and only evaluating it decides the step.  Stepping the variance ulp by
    # ulp moves the root across the midpoint.
    x = kernel_ratio_root(ratio)
    variance = 1.0 / (dephasing._gamma_kernel(x) * tau_c * tau_c)
    for _ in range(40):
        variance = math.nextafter(variance, 0.0)
    for _ in range(81):
        assert_same(ExponentialCorrelation(variance, tau_c))
        variance = math.nextafter(variance, math.inf)


@pytest.mark.parametrize(
    "variance,tau_c", [(1e-310, math.inf), (1.5e-308, math.inf), (1.5e-308, 10.0)]
)
def test_subnormal_variance_takes_the_plain_bisection(variance, tau_c):
    # sqrt(2/variance) overflows below variance ~1.1e-308, and the Newton
    # path's bounds assume a normal variance.
    assert dephasing._unit_gamma_root(ExponentialCorrelation(variance, tau_c)) is None


def default_correlations():
    return {
        kind: channel_to_correlation(build_channel(kind, {}))
        for kind in ("hyperfine", "paramagnetic", "nuclear")
    }


@pytest.mark.parametrize("kind", ["hyperfine", "paramagnetic", "nuclear"])
def test_default_channels(kind):
    assert_same(default_correlations()[kind])


def test_default_hyperfine_time_is_pinned():
    time = decoherence_time(default_correlations()["hyperfine"], "unit-gamma")
    assert time == 0.0012762818239271676


@pytest.mark.parametrize("kind", ["hyperfine", "paramagnetic", "nuclear"])
def test_solve_makes_few_gamma_calls(monkeypatch, kind):
    # The plain bisection makes ~35 calls per solve (35 for the default
    # hyperfine channel); the Newton root leaves ~0.11 on average (306
    # calls in the 2,697 solves of the benchmark's sweep iteration), all
    # within the band around the root.
    correlation = default_correlations()[kind]
    root = dephasing._unit_gamma_root(correlation)
    calls = []

    def counting(correlation, t):
        calls.append(t)
        return gamma_exact(correlation, t)

    monkeypatch.setattr(dephasing, "gamma_exact", counting)
    decoherence_time(correlation, "unit-gamma")
    assert len(calls) <= 8
    assert all(root * (1.0 - 1e-11) <= t <= root * (1.0 + 1e-11) for t in calls)


@pytest.mark.parametrize("kind", ["hyperfine", "paramagnetic", "nuclear"])
def test_solve_makes_few_python_calls(kind):
    # Steps outside the band are decided in the loop, with no call; the
    # Newton root and the few Gamma evaluations make the rest.  A call per
    # step would make ~46.
    correlation = default_correlations()[kind]
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code.co_name))
    try:
        decoherence_time(correlation, "unit-gamma")
    finally:
        sys.setprofile(None)
    assert len(calls) <= 20


@pytest.mark.parametrize("factor", [1.0 - 5e-12, 1.0 + 5e-12])
def test_replay_does_not_depend_on_the_root_within_the_band(monkeypatch, factor):
    # A guide root off by half the band still leaves the true root inside
    # it, so every step that rounding could decide still evaluates Gamma.
    newton_root = dephasing._unit_gamma_root

    def off_root(correlation):
        root = newton_root(correlation)
        return None if root is None else root * factor

    monkeypatch.setattr(dephasing, "_unit_gamma_root", off_root)
    for correlation in seeded_correlations(20261018, 4000, (-307, 307), (-307, 307)):
        assert_same(correlation)
    for correlation in default_correlations().values():
        assert_same(correlation)
