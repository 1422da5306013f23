"""Dephasing exponent: limits, branch continuity, and an integral oracle."""

import io
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from sidephase import dephasing
from sidephase.dephasing import (
    DecoherenceProfile,
    ExponentialCorrelation,
    bisect_from,
    bisect_increasing,
    build_profile,
    coherence_envelope,
    decoherence_time,
    gamma_exact,
    gamma_static,
)


def gamma_by_quadrature(variance, tau_c, t, n=10_001):
    """Independent oracle: Gamma(t) = int_0^t (t - s) C(s) ds, trapezoid."""
    s = np.linspace(0.0, t, n)
    return float(np.trapezoid((t - s) * variance * np.exp(-s / tau_c), s))


class TestCorrelationModel:
    def test_static_flag(self):
        assert ExponentialCorrelation(1.0, math.inf).is_static
        assert not ExponentialCorrelation(1.0, 1e6).is_static

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialCorrelation(-1.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialCorrelation(1.0, 0.0)
        with pytest.raises(ValueError):
            ExponentialCorrelation(1.0, -2.0)
        ExponentialCorrelation(0.0, math.inf)


class TestGammaLimits:
    def test_static_quadratic(self):
        corr = ExponentialCorrelation(3.0, math.inf)
        assert gamma_static(corr, 2.0) == 6.0
        assert gamma_exact(corr, 2.0) == 6.0

    def test_short_time_approaches_static(self):
        corr = ExponentialCorrelation(1.0, 1e6)
        assert gamma_exact(corr, 1.0) == pytest.approx(0.5, rel=1e-6)
        # leading correction is -x/3
        assert gamma_exact(corr, 1.0) == pytest.approx(
            0.5 * (1.0 - 1e-6 / 3.0), rel=1e-12
        )

    def test_long_time_markovian(self):
        corr = ExponentialCorrelation(1.0, 1e-3)
        # Gamma -> variance tau_c (t - tau_c) once e^{-t/tau_c} dies
        assert gamma_exact(corr, 10.0) == pytest.approx(
            1e-3 * (10.0 - 1e-3), rel=1e-12
        )

    def test_negative_time_rejected(self):
        corr = ExponentialCorrelation(1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_exact(corr, -1e-9)
        with pytest.raises(ValueError):
            gamma_static(corr, -1e-9)

    def test_envelope_unit_exponent(self):
        corr = ExponentialCorrelation(1.0, math.inf)
        assert coherence_envelope(corr, math.sqrt(2.0)) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )


class TestGammaNumerics:
    def test_series_branch_joins_closed_branch(self):
        # the quartic series and the kernel evaluated at the switch point
        corr = ExponentialCorrelation(1.7, 1.0)
        x = 1e-6
        closed = gamma_exact(corr, x)  # x/tau_c == 1e-6 takes the kernel
        series = 1.7 * (x * x / 2.0 - x ** 3 / 6.0 + x ** 4 / 24.0)
        assert abs(series / closed - 1.0) <= 1e-12

    def test_series_branch_is_active_below_switch(self):
        corr = ExponentialCorrelation(1.7, 1.0)
        x = 0.9e-6
        expected = 1.7 * (x * x / 2.0 - x ** 3 / 6.0 + x ** 4 / 24.0)
        assert gamma_exact(corr, x) == expected

    def test_kernel_continuity_at_internal_boundary(self):
        # alternating series below 0.05, x + expm1(-x) above
        corr = ExponentialCorrelation(1.0, 1.0)
        below = gamma_exact(corr, math.nextafter(0.05, 0.0))
        above = gamma_exact(corr, 0.05)
        assert abs(below / above - 1.0) < 1e-13

    def test_matches_quadrature_oracle(self):
        for ratio, tau_c in ((0.01, 0.1), (0.5, 1.0), (3.0, 10.0), (20.0, 1.0)):
            corr = ExponentialCorrelation(1.7, tau_c)
            t = ratio * tau_c
            expected = gamma_by_quadrature(1.7, tau_c, t)
            assert gamma_exact(corr, t) == pytest.approx(expected, rel=1e-6)

    def test_variance_scaling_is_exact(self):
        # power-of-two variance factors rescale Gamma with no rounding
        t = 0.37
        for k2 in (4.0, 0.25, 1024.0):
            base = gamma_exact(ExponentialCorrelation(1.3, 0.9), t)
            scaled = gamma_exact(ExponentialCorrelation(1.3 * k2, 0.9), t)
            assert scaled == k2 * base

    def test_monotone_nondecreasing(self):
        corr = ExponentialCorrelation(2.0, 0.3)
        ts = np.geomspace(1e-9, 100.0, 200)
        gs = [gamma_exact(corr, t) for t in ts]
        assert all(b >= a for a, b in zip(gs, gs[1:]))

    def test_convex_in_time(self):
        # d2 Gamma/dt2 = variance e^{-t/tau_c} > 0
        corr = ExponentialCorrelation(2.0, 0.3)
        ts = np.linspace(0.0, 3.0, 400)
        gs = np.array([gamma_exact(corr, t) for t in ts])
        second = np.diff(gs, 2)
        assert np.min(second) > -1e-12


def series_oracle(x):
    """Gamma's kernel with the convergent series loop, as a reference copy.

    The quartic below x = 1e-6, then sum_{n>=2} (-x)^n/n! stopped at the
    first term within 1e-17 of the total, then x + expm1(-x) from 0.05.
    """
    if x < 1e-6:
        return x * x / 2.0 - x ** 3 / 6.0 + x ** 4 / 24.0
    if x >= 0.05:
        return x + math.expm1(-x)
    term = 0.5 * x * x
    total = term
    n = 2
    while True:
        n += 1
        term *= -x / n
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total


class TestSeriesOracle:
    """The kernel's series keeps the convergent loop's bits, float and array."""

    xs = np.concatenate(
        (
            np.linspace(0.0, 0.05, 40_001)[:-1],
            10.0 ** np.random.default_rng(14).uniform(-320.0, math.log10(0.05), 40_000),
            [math.nextafter(0.05, 0.0), 1e-6, math.nextafter(1e-6, 0.0), 5e-324],
        )
    )

    def test_kernel(self):
        xs = self.xs[self.xs >= 1e-6].tolist()
        assert [dephasing._gamma_kernel(x) for x in xs] == [series_oracle(x) for x in xs]

    def test_gamma_exact_float_and_array(self):
        corr = ExponentialCorrelation(1.7, 1.0)
        expected = [1.7 * series_oracle(x) for x in self.xs.tolist()]
        assert [gamma_exact(corr, x) for x in self.xs.tolist()] == expected
        assert gamma_exact(corr, self.xs).tolist() == expected


def quartic(x):
    """Gamma's kernel x^2/2 - x^3/6 + x^4/24, the reference below x = 1e-6."""
    return x * x / 2.0 - x ** 3 / 6.0 + x ** 4 / 24.0


class TestKernelWithoutPow:
    """Below 0.05 the kernel is the series alone, with no libm pow call."""

    def test_hyperfine_array_makes_no_pow_calls(self, monkeypatch):
        calls = []
        pow_ = math.pow

        def counting_pow(*args):
            calls.append(args)
            return pow_(*args)

        monkeypatch.setattr(math, "pow", counting_pow)
        corr = ExponentialCorrelation(1227826.056654865, 1e4)
        gamma = gamma_exact(corr, np.linspace(0.0, 4e-3, 100_000))
        assert gamma.shape == (100_000,)
        assert len(calls) == 0

    def test_subnormal_square_keeps_the_quartic_bits(self):
        # Where x^2 is subnormal, x * x / 2.0 rounds twice as the quartic
        # does; 0.5 * x * x would round once and differ on some of these.
        rng = np.random.default_rng(23)
        xs = np.concatenate(
            (10.0 ** rng.uniform(-162.0, -152.0, 10_000), [0.0, -0.0, 5e-324])
        )
        corr = ExponentialCorrelation(1.7, 1.0)
        expected = [1.7 * quartic(x) for x in xs.tolist()]
        assert [gamma_exact(corr, x) for x in xs.tolist()] == expected
        assert gamma_exact(corr, xs).tolist() == expected


class TestDecoherenceTime:
    def test_static_convention(self):
        corr = ExponentialCorrelation(1e6, math.inf)
        assert decoherence_time(corr, "static") == pytest.approx(1e-3, rel=1e-15)

    def test_markovian_convention(self):
        corr = ExponentialCorrelation(4.0, 0.5)
        assert decoherence_time(corr, "markovian") == pytest.approx(0.5, rel=1e-15)

    def test_markovian_rate_underflow_is_infinite(self):
        corr = ExponentialCorrelation(1e-200, 1e-200)
        assert decoherence_time(corr, "markovian") == math.inf

    def test_markovian_time_is_rounded_once_where_the_rate_is_subnormal(self):
        # 1.0 / (variance * tau_c) would carry the digits the subnormal
        # rate lost (up to 4 ulps); against the exact rational the time is
        # within half an ulp, and inf where the rational exceeds float range.
        rng = random.Random(20)
        for _ in range(2000):
            e_rate = rng.uniform(-1029.0, -1022.01)
            e_variance = rng.uniform(-1040.0, 40.0)
            corr = ExponentialCorrelation(2.0 ** e_variance, 2.0 ** (e_rate - e_variance))
            assert 0.0 < corr.variance * corr.tau_c < sys.float_info.min
            exact = 1 / (Fraction(corr.variance) * Fraction(corr.tau_c))
            time = decoherence_time(corr, "markovian")
            if exact >= 2 ** 1024:
                assert time == math.inf, corr
            else:
                ulps = float(abs(Fraction(time) - exact) / Fraction(math.ulp(time)))
                assert ulps <= 0.5, (corr, ulps)

    def test_markovian_time_is_rounded_once_where_the_rate_is_near_the_top(self):
        # Above 1/sys.float_info.min (about 4.49e307) the time is subnormal,
        # and 1.0 / (variance * tau_c) would round the rate and then the
        # subnormal quotient (or give 1/inf = 0); the time is within half an
        # ulp of the exact rational there, up to a rate that overflows.
        rng = random.Random(34)
        overflowing = 0
        for _ in range(2000):
            e_rate = rng.uniform(1022.0001, 1030.0)
            e_variance = rng.uniform(e_rate - 1023.0, 1023.0)
            corr = ExponentialCorrelation(2.0 ** e_variance, 2.0 ** (e_rate - e_variance))
            rate = corr.variance * corr.tau_c
            assert 1.0 / sys.float_info.min < rate <= math.inf
            overflowing += rate == math.inf
            exact = 1 / (Fraction(corr.variance) * Fraction(corr.tau_c))
            time = decoherence_time(corr, "markovian")
            assert 0.0 < time < sys.float_info.min, corr
            ulps = float(abs(Fraction(time) - exact) / Fraction(math.ulp(time)))
            assert ulps <= 0.5, (corr, ulps)
        assert overflowing > 0

    def test_markovian_time_at_the_largest_correlation_time(self):
        # The second row of `sweep --channel hyperfine --param tau1 --grid
        # 1:1.7976931348623157e308:2:log`, where variance * tau_c overflows.
        corr = ExponentialCorrelation(1227826.0566548649, sys.float_info.max)
        assert decoherence_time(corr, "markovian") == 4.5305152290361341e-315

    def test_markovian_rejects_static_noise(self):
        with pytest.raises(ValueError):
            decoherence_time(ExponentialCorrelation(1.0, math.inf), "markovian")

    def test_unit_gamma_static_noise(self):
        corr = ExponentialCorrelation(1.0, math.inf)
        assert decoherence_time(corr, "unit-gamma") == pytest.approx(
            math.sqrt(2.0), rel=5e-9
        )

    def test_unit_gamma_solves_gamma_equals_one(self):
        rng = np.random.default_rng(333)
        for _ in range(20):
            corr = ExponentialCorrelation(
                float(10.0 ** rng.uniform(-2, 6)),
                float(10.0 ** rng.uniform(-4, 2)),
            )
            td = decoherence_time(corr, "unit-gamma")
            assert gamma_exact(corr, td) == pytest.approx(1.0, rel=1e-7)

    def test_unit_gamma_markovian_regime(self):
        # vanishing tau_c: Gamma ~ v tau_c (t - tau_c), root at 1/(v tau_c) + tau_c
        corr = ExponentialCorrelation(100.0, 1e-4)
        td = decoherence_time(corr, "unit-gamma")
        assert td == pytest.approx(1.0 / (100.0 * 1e-4) + 1e-4, rel=1e-6)

    def test_zero_variance_never_decoheres(self):
        for convention in ("static", "markovian", "unit-gamma"):
            corr = ExponentialCorrelation(0.0, 1.0)
            assert decoherence_time(corr, convention) == math.inf

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            decoherence_time(ExponentialCorrelation(1.0, 1.0), "t2star")


class TestBisection:
    def test_finds_root(self):
        root = bisect_increasing(lambda x: x - 3.0, 0.0, 10.0, rtol=1e-12)
        assert root == pytest.approx(3.0, rel=1e-11)

    def test_requires_bracket(self):
        with pytest.raises(ValueError):
            bisect_increasing(lambda x: x + 1.0, 0.0, 10.0, rtol=1e-9)

    @pytest.mark.parametrize("at", ["lo", "hi"])
    def test_nan_end_is_not_a_bracket(self, at):
        def func(x):
            if x == (0.0 if at == "lo" else 10.0):
                return math.nan
            return x - 3.0

        with pytest.raises(ValueError, match="not bracketed"):
            bisect_increasing(func, 0.0, 10.0, rtol=1e-9)

    def test_doubling_to_inf_returns_inf(self):
        # x - max is negative at every power of two up to 2^1023; the next
        # doubling is inf.
        assert bisect_from(lambda x: x - sys.float_info.max, 1.0, rtol=1e-9) == math.inf
        # It returns before the bracket check, which a NaN at inf would fail.
        assert bisect_from(lambda x: -1.0 if x < math.inf else math.nan, 1.0, rtol=1e-9) == math.inf

    def test_nan_at_the_doubled_end_is_not_a_bracket(self):
        # A NaN stops the doubling at 8, and the bracket check refuses it.
        def func(x):
            return math.nan if x >= 8.0 else x - 100.0

        with pytest.raises(ValueError, match="not bracketed"):
            bisect_from(func, 1.0, rtol=1e-9)

    def test_stops_after_200_halvings(self):
        # rtol = 0 never stops the run.  With the root at 1e-300 every step
        # is long, so the cap leaves hi = 1e300 / 2^200 and returns half of it.
        root = bisect_increasing(lambda x: x - 1e-300, 0.0, 1e300, rtol=0.0)
        assert root == 3.111507638930571e239 == 1e300 * 2.0**-201
        assert bisect_increasing(lambda x: x * x - 2.0, 0.0, 2.0, rtol=0.0) == 1.414213562373095

    def test_every_step_calls_func(self):
        calls = []

        def func(x):
            calls.append(x)
            return x - 3.0

        assert bisect_increasing(func, 0.0, 10.0, rtol=1e-3) == 2.999267578125
        assert calls == [
            0.0, 10.0, 5.0, 2.5, 3.75, 3.125, 2.8125, 2.96875, 3.046875,
            3.0078125, 2.98828125, 2.998046875, 3.0029296875, 3.00048828125,
        ]
        calls.clear()
        # The doubling's end is evaluated again by the bracket check.
        assert bisect_from(func, 1.0, rtol=1e-3) == 2.9990234375
        assert calls == [
            1.0, 2.0, 4.0, 0.0, 4.0, 2.0, 3.0, 2.5, 2.75, 2.875, 2.9375,
            2.96875, 2.984375, 2.9921875, 2.99609375, 2.998046875,
        ]


class TestProfile:
    def test_build_and_envelopes(self):
        corr = ExponentialCorrelation(2.0, 0.5)
        profile = build_profile(corr, [0.1, 0.2, 0.4])
        assert profile.times == (0.1, 0.2, 0.4)
        for g, e in zip(profile.gamma_values, profile.envelopes()):
            assert e == math.exp(-g)

    def test_csv_round_trip(self):
        corr = ExponentialCorrelation(2.0, 0.5)
        profile = build_profile(corr, [0.1, 0.2])
        buf = io.StringIO()
        profile.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t_seconds,gamma,envelope"
        assert len(lines) == 3
        t, g, e = (float(v) for v in lines[1].split(","))
        # %.17g round-trips doubles exactly
        assert (t, g, e) == (0.1, profile.gamma_values[0], profile.envelopes()[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            DecoherenceProfile(times=(0.2, 0.1), gamma_values=(0.0, 1.0))
        with pytest.raises(ValueError):
            DecoherenceProfile(times=(0.1, 0.2), gamma_values=(1.0, 0.5))
        with pytest.raises(ValueError):
            DecoherenceProfile(times=(0.1,), gamma_values=(-0.5,))
        with pytest.raises(ValueError):
            DecoherenceProfile(times=(0.1, 0.2), gamma_values=(0.5,))

    def test_single_negative_value_is_named_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DecoherenceProfile(times=(0.1,), gamma_values=(-0.5,))


def _exact_reciprocal(*factors):
    """float(1 / (f1 f2 ...)) in exact arithmetic, inf past the largest float."""
    try:
        return float(1 / math.prod(Fraction(f) for f in factors))
    except OverflowError:
        return math.inf


def _random_float(rng):
    """A positive finite float, normal or subnormal, of random exponent."""
    value = math.ldexp(1.0 + rng.getrandbits(52) / 2.0 ** 52, rng.randint(-1080, 1023))
    return value if value > 0.0 else 5e-324


class TestReciprocal:
    """dephasing._reciprocal rounds 1/(f1 f2 ...) once, from the exact product."""

    def test_random_factor_tuples(self):
        rng = random.Random(33)
        products = []
        for _ in range(3000):
            factors = [_random_float(rng) for _ in range(rng.randint(1, 4))]
            products.append(math.prod(factors))
            assert dephasing._reciprocal(*factors) == _exact_reciprocal(*factors), factors
        assert any(0.0 < p < sys.float_info.min for p in products)  # subnormal products
        assert any(p == math.inf for p in products)  # overflowing products

    @pytest.mark.parametrize(
        "factors",
        [
            (5e-324,), (5e-324, 5e-324), (1e-300, 1e-300), (1e-160, 3e-170),
            (1e300, 1e300), (1.7976931348623157e308, 2.0), (3.0,), (0.1, 0.2, 0.3),
        ],
    )
    def test_subnormal_and_overflowing_products(self, factors):
        assert dephasing._reciprocal(*factors) == _exact_reciprocal(*factors)

    def test_markovian_shape_variance_tau(self):
        # decoherence_time's markovian branch at a subnormal rate, as (v, tau).
        rng = random.Random(7)
        for _ in range(500):
            variance = math.ldexp(1.0 + rng.random(), rng.randint(-1070, -20))
            tau_c = math.ldexp(1.0 + rng.random(), rng.randint(-1070, -20))
            if variance * tau_c >= sys.float_info.min:
                continue
            corr = ExponentialCorrelation(variance, tau_c)
            expected = _exact_reciprocal(variance, tau_c)
            assert dephasing._reciprocal(variance, tau_c) == expected
            assert decoherence_time(corr, "markovian") == expected

    def test_bound_shape_target_target_variance(self):
        # The concentration bounds' target^-2 / variance, as (t, t, v).
        from sidephase.mechanisms import _inverse_square_over

        rng = random.Random(8)
        for _ in range(500):
            exponent = rng.choice([rng.randint(515, 1023), -rng.randint(515, 1074)])
            target = math.ldexp(1.0 + rng.random(), exponent)
            variance = _random_float(rng)
            expected = _exact_reciprocal(target, target, variance)
            assert dephasing._reciprocal(target, target, variance) == expected
            assert _inverse_square_over(target, variance) == expected, (target, variance)
