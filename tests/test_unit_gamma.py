"""Unit-gamma time: the float root of Gamma(t) = 1, held to an mpmath root.

decoherence_time(..., "unit-gamma") returns the Newton root of
_unit_gamma_root or, where that finds none, bisect_from on Gamma - 1 to the
float's resolution.  Each finite time here is compared with the root of the
exact Gamma, solved by mpmath at 30 digits from the float time, in ulps of
that root, with a bound per band of the root's x = t/tau_c:
- at most 12 ulp for x in [0.05, 0.2), just above the kernel's series
  switch, where Gamma's own rounding error feeds through to the root;
- at most 5 ulp for x in [0.2, 1), where that error is smaller;
- at most 3 ulp elsewhere, static noise (x = 0) included.
The bisection, which finds where the float Gamma - 1 changes sign, is held
to the same bounds.  The time is inf exactly where the root exceeds the
largest float, which includes every rate variance * tau_c that underflows
to 0.

Those bounds (ulp_bound) apply to every set here but one.  The dense
band set, test_dense_roots_across_the_kernel_bands, places its roots at x
from 0.01 to about 5 on purpose and holds each band to its own bound in
DENSE_BOUNDS, the worst error measured there rounded up to a whole ulp:
in [0.05, 0.1) that is 14 ulp, above ulp_bound's 12.
"""

import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidephase import dephasing
from sidephase.config import build_channel
from sidephase.dephasing import ExponentialCorrelation, decoherence_time, gamma_exact
from sidephase.mechanisms import channel_to_correlation

TINY = sys.float_info.min
HUGE = sys.float_info.max
mp = mpmath.mp.clone()
mp.dps = 30
# Series terms below this fraction of the sum, and Newton steps below this
# fraction of x, are dropped.
SERIES_EPS = mp.mpf("1e-32")
NEWTON_EPS = mp.mpf("1e-20")


def exact_kernel(x):
    """x - 1 + exp(-x) and its slope 1 - exp(-x) at mp's precision, for an mpf x > 0."""
    if x < 1e-3:
        # The series keeps the digits that x - 1 + exp(-x) cancels; Newton
        # needs only a few digits of the slope.
        term = total = x * x / 2
        n = 2
        while abs(term) > total * SERIES_EPS:
            n += 1
            term *= -x / n
            total += term
        return total, x - x * x / 2 + x**3 / 6
    # Above x = 1e-3 the cancellation costs at most 7 of mp's 30 digits, and
    # above 1000 exp(-x) is below 1e-400 of x - 1.
    decay = mp.exp(-x) if x < 1000 else 0
    return x - 1 + decay, 1 - decay


def exact_root(correlation, guess):
    """The t solving Gamma(t) = 1 for the exact Gamma, an mpf.

    Static noise has the root sqrt(2/variance).  Otherwise Newton from
    guess solves kernel(x) = 1/(variance tau_c^2) in x = t/tau_c; the
    kernel is convex and increasing, so every step after the first comes
    down to the root from above.
    """
    variance = mp.mpf(correlation.variance)
    if correlation.is_static:
        return mp.sqrt(2 / variance)
    tau_c = mp.mpf(correlation.tau_c)
    target = 1 / (variance * tau_c * tau_c)
    x = mp.mpf(guess) / tau_c
    for _ in range(100):
        kernel, slope = exact_kernel(x)
        step = (kernel - target) / slope
        x -= step
        if abs(step) < NEWTON_EPS * x:
            return x * tau_c
    raise AssertionError(f"mpmath Newton run did not settle: {correlation}")


def root_exceeds_float_range(correlation):
    """Whether the exact Gamma is still below 1 at the largest float."""
    variance = mp.mpf(correlation.variance)
    if correlation.is_static:
        return variance * mp.mpf(HUGE) ** 2 / 2 < 1
    tau_c = mp.mpf(correlation.tau_c)
    return variance * tau_c * tau_c * exact_kernel(mp.mpf(HUGE) / tau_c)[0] < 1


def ulp_error(correlation, time):
    """|time - root| in ulps of the exact root, and the root's x = t/tau_c."""
    root = exact_root(correlation, time)
    _, exponent = mp.frexp(root)
    ulps = float(abs(mp.mpf(time) - root) / mp.ldexp(1, exponent - 53))
    return ulps, float(root / mp.mpf(correlation.tau_c))


def ulp_bound(x):
    """The ulp bound for a root at x = t/tau_c.

    Gamma's own rounding error, which peaks just above the kernel's series
    switch at x = 0.05, sets the larger bounds.
    """
    if 0.05 <= x < 0.2:
        return 12.0
    if 0.2 <= x < 1.0:
        return 5.0
    return 3.0


def assert_accurate(correlation):
    time = decoherence_time(correlation, "unit-gamma")
    if time == math.inf:
        assert root_exceeds_float_range(correlation), correlation
        return
    assert 0.0 < time < math.inf, (correlation, time)
    ulps, x = ulp_error(correlation, time)
    assert ulps <= ulp_bound(x), (correlation, time, ulps, x)


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
        assert_accurate(correlation)


def test_physical_range():
    for correlation in seeded_correlations(20261019, 4000, (-6, 14), (-12, 12)):
        assert_accurate(correlation)


# (upper end of the band of x, ulp bound): the worst error over
# test_dense_roots_across_the_kernel_bands's 6,000 roots, rounded up to a whole
# ulp.  Measured: 2.52, 13.65, 7.17, 4.25, 2.27 and 2.66 ulp.
DENSE_BOUNDS = ((0.05, 3.0), (0.1, 14.0), (0.2, 8.0), (0.5, 5.0), (1.0, 3.0), (math.inf, 3.0))


def test_dense_roots_across_the_kernel_bands():
    # variance = 1/(tau_c^2 kernel(x)) puts the root at t = tau_c x, so x is
    # drawn log-uniform over [0.01, 10^0.7], across the series switch at 0.05
    # where Gamma's own rounding error peaks.
    rng = random.Random(44)
    for _ in range(6000):
        tau_c, x = log_uniform(rng, -6, 6), log_uniform(rng, -2, 0.7)
        variance = 1.0 / (tau_c * tau_c * dephasing._gamma_kernel(x))
        correlation = ExponentialCorrelation(variance, tau_c)
        time = decoherence_time(correlation, "unit-gamma")
        ulps, x_root = ulp_error(correlation, time)
        bound = next(bound for upper, bound in DENSE_BOUNDS if x_root < upper)
        assert ulps <= bound, (correlation, time, ulps, x_root)


@settings(deadline=None, max_examples=300, derandomize=True, database=None)
@given(
    variance=st.floats(min_value=0.0, max_value=HUGE, exclude_min=True),
    tau_c=st.floats(min_value=0.0, exclude_min=True),
)
def test_any_float_correlation(variance, tau_c):
    assert_accurate(ExponentialCorrelation(variance, tau_c))


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
    assert_accurate(ExponentialCorrelation(variance, tau_c))


@pytest.mark.parametrize("x_root", [dephasing._SERIES_SWITCH, dephasing._KERNEL_SWITCH])
@pytest.mark.parametrize("tau_c", [1e-9, 1.0, 1e4])
def test_roots_at_the_kernel_branch_switches(x_root, tau_c):
    # Gamma(tau_c x) = variance tau_c^2 kernel(x): choose variance so that
    # the root sits at x_root, a few ulps to 1e-7 off it, on either side.
    for offset in (0.0, 1e-15, 1e-13, 1e-11, 1e-9, 1e-7):
        for x in {x_root * (1.0 - offset), x_root * (1.0 + offset)}:
            variance = 1.0 / (dephasing._gamma_kernel(x) * tau_c * tau_c)
            assert_accurate(ExponentialCorrelation(variance, tau_c))
            assert_accurate(ExponentialCorrelation(math.nextafter(variance, 0.0), tau_c))
            assert_accurate(ExponentialCorrelation(math.nextafter(variance, math.inf), tau_c))


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
    # midpoint that bisect_from visits from its start variance^(-1/2), so
    # Gamma there is 1 to within rounding.  Stepping the variance ulp by ulp
    # moves the root across the midpoint.
    x = kernel_ratio_root(ratio)
    variance = 1.0 / (dephasing._gamma_kernel(x) * tau_c * tau_c)
    for _ in range(40):
        variance = math.nextafter(variance, 0.0)
    for _ in range(81):
        assert_accurate(ExponentialCorrelation(variance, tau_c))
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
    assert_accurate(default_correlations()[kind])


def test_default_hyperfine_time_is_pinned():
    time = decoherence_time(default_correlations()["hyperfine"], "unit-gamma")
    assert time == 0.0012762818237494846


@pytest.mark.parametrize("kind", ["hyperfine", "paramagnetic", "nuclear"])
def test_solve_makes_few_gamma_calls(monkeypatch, kind):
    # The Newton root is the time: a solve that finds one evaluates no Gamma.
    calls = []

    def counting(correlation, t):
        calls.append(t)
        return gamma_exact(correlation, t)

    monkeypatch.setattr(dephasing, "gamma_exact", counting)
    decoherence_time(default_correlations()[kind], "unit-gamma")
    assert calls == []


def python_calls(correlation):
    """The Python calls one unit-gamma solve makes."""
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code.co_name))
    try:
        decoherence_time(correlation, "unit-gamma")
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("kind", ["hyperfine", "paramagnetic", "nuclear"])
def test_solve_makes_few_python_calls(kind):
    # The Newton run settles in a few steps, one kernel call (and one
    # series call below x = 0.05) each: 9 calls per default solve.  The
    # bisection makes four or so per Gamma call, ~230 in a median solve.
    assert len(python_calls(default_correlations()[kind])) <= 20


def test_newton_solve_makes_few_python_calls():
    # Across the whole float range Newton settles as fast: at most 11
    # calls in these solves.
    for correlation in seeded_correlations(20261018, 400, (-307, 307), (-307, 307)):
        if dephasing._unit_gamma_root(correlation) is not None:
            assert len(python_calls(correlation)) <= 20, correlation


@pytest.mark.parametrize("factor", [1.0 - 5e-12, 1.0 + 5e-12])
def test_replay_does_not_depend_on_the_root_within_the_band(factor):
    # The oracle replays the solve at mp's precision from the float time
    # under test.  Started instead from a point off by 5e-12, some 20,000
    # ulp, it settles on the same root to within 2^-20 ulp, so starting it
    # from the time under test does not pull the root towards that time.
    correlations = [
        *seeded_correlations(20261018, 400, (-307, 307), (-307, 307)),
        *default_correlations().values(),
    ]
    for correlation in correlations:
        time = decoherence_time(correlation, "unit-gamma")
        if not math.isfinite(time * factor):
            continue
        root = exact_root(correlation, time)
        _, exponent = mp.frexp(root)
        shift = abs(exact_root(correlation, time * factor) - root)
        assert shift <= mp.ldexp(1, exponent - 53 - 20), (correlation, time)


def test_newton_run_that_does_not_settle_takes_the_plain_bisection(monkeypatch):
    # With no Newton step allowed the run never settles: _unit_gamma_root
    # returns None, and the solve is bisect_from on Gamma - 1 to the
    # float's resolution, held to the same bounds as the Newton root.
    seeded = seeded_correlations(20261019, 400, (-6, 14), (-12, 12))
    correlations = list(default_correlations().values())
    correlations += [c for c in seeded if not c.is_static][:300]
    monkeypatch.setattr(dephasing, "_NEWTON_STEPS", 0)
    for correlation in correlations:
        assert dephasing._unit_gamma_root(correlation) is None
        assert_accurate(correlation)


def counted_solve(monkeypatch, correlation):
    """The unit-gamma time and the number of Gamma calls its solve makes."""
    calls = []

    def counting(correlation, t):
        calls.append(t)
        return gamma_exact(correlation, t)

    with monkeypatch.context() as patch:
        patch.setattr(dephasing, "gamma_exact", counting)
        time = decoherence_time(correlation, "unit-gamma")
    return time, len(calls)


# The fallback starts at the larger of the static and Markovian lower bounds
# on the root, variance^(-1/2) and 1/(variance tau_c).  The root lies below
# twice that start, so one doubling brackets it, and bisecting to the
# float's resolution takes some 55 Gamma calls.
FALLBACK_CALLS = 60


@pytest.mark.parametrize("tau1", [1e-300, 1e-310, 7.5e-315])
def test_fallback_brackets_the_root_in_one_doubling(monkeypatch, tau1):
    # The scale variance tau_c^2 underflows, so Newton finds no root, and
    # the root sits near the Markovian time, far above variance^(-1/2).
    correlation = channel_to_correlation(build_channel("hyperfine", {"tau1": tau1}))
    assert dephasing._unit_gamma_root(correlation) is None
    time, calls = counted_solve(monkeypatch, correlation)
    assert math.isfinite(time)
    assert calls <= FALLBACK_CALLS, (tau1, calls)


def test_fallback_beyond_float_range_makes_no_gamma_call(monkeypatch):
    # 1/(variance tau_c) exceeds the largest float, so the start is inf.
    correlation = channel_to_correlation(build_channel("hyperfine", {"tau1": 1e-320}))
    assert counted_solve(monkeypatch, correlation) == (math.inf, 0)


def test_fallback_calls_over_the_whole_float_range(monkeypatch):
    fallbacks = 0
    for correlation in seeded_correlations(20261018, 4000, (-307, 307), (-307, 307)):
        if dephasing._unit_gamma_root(correlation) is not None:
            continue
        fallbacks += 1
        time, calls = counted_solve(monkeypatch, correlation)
        assert calls <= FALLBACK_CALLS, (correlation, time, calls)
    assert fallbacks > 1000
