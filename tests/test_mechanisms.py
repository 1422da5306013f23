"""Noise channels: variances, rates, thresholds, and correlation mapping."""

import math
import random
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from sidephase.constants import (
    CONSTANTS,
    ELECTRON,
    PHOSPHORUS_31,
    SILICON,
    SILICON_29,
    boltzmann_ratio,
    spin_half_variance,
    spin_half_variance_full_arg,
)
from sidephase.dephasing import bisect_from, gamma_exact, gamma_static
from sidephase.mechanisms import (
    ConcentrationBound,
    HyperfineElectronChannel,
    NuclearImpurityChannel,
    ParamagneticImpurityChannel,
    PhononRamanChannel,
    ThresholdUnattainableError,
    UnsupportedChannelError,
    channel_to_correlation,
    debye_integral,
    hyperfine_variance,
    max_nuclear_impurity_concentration,
    max_paramagnetic_concentration,
    nuclear_impurity_variance,
    paramagnetic_variance,
    phonon_rate,
    required_field_temperature_ratio,
)

ZETA_6 = 1.0173430619844491


class TestHyperfineChannel:
    def test_operating_point_ratio(self):
        ch = HyperfineElectronChannel()
        assert ch.x == pytest.approx(26.782608695652176, rel=1e-14)
        assert ch.adiabatic

    def test_variance_value(self):
        # a0^2 w/(1+w)^2 at w = e^{-x}; arithmetic oracle inline
        ch = HyperfineElectronChannel()
        w = math.exp(-ch.x)
        expected = 725e6 ** 2 * w / (1.0 + w) ** 2
        assert hyperfine_variance(ch) == pytest.approx(expected, rel=1e-14)
        assert hyperfine_variance(ch) == pytest.approx(1227826.056654865, rel=1e-9)

    def test_zero_field_is_unpolarized(self):
        ch = HyperfineElectronChannel(field=0.0)
        assert hyperfine_variance(ch) == pytest.approx(725e6 ** 2 / 4.0, rel=1e-15)

    def test_static_dephasing_time_near_millisecond(self):
        corr = channel_to_correlation(HyperfineElectronChannel())
        td = corr.variance ** -0.5
        assert td == pytest.approx(0.0009024675130816799, rel=1e-9)
        assert 0.5e-3 < td < 1.5e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperfineElectronChannel(temperature=0.0)
        with pytest.raises(ValueError):
            HyperfineElectronChannel(field=-1.0)
        with pytest.raises(ValueError):
            HyperfineElectronChannel(a0=-725e6)


class TestRequiredRatio:
    def test_one_second_target(self):
        ratio = required_field_temperature_ratio(725e6, 1.0)
        assert 30.0 < ratio < 31.0
        # independent root of a0^2 shv(x) = 1 via brentq
        f = lambda x: 725e6 ** 2 * spin_half_variance(x) - 1.0
        x_star = brentq(f, 1.0, 100.0, xtol=1e-12, rtol=1e-15)
        expected = x_star * CONSTANTS.k_boltzmann / (ELECTRON.gamma * CONSTANTS.hbar)
        assert ratio == pytest.approx(expected, rel=2e-6)

    def test_millisecond_target(self):
        ratio = required_field_temperature_ratio(725e6, 1e-3)
        f = lambda x: 725e6 ** 2 * spin_half_variance(x) - 1e6
        x_star = brentq(f, 1.0, 100.0, xtol=1e-12, rtol=1e-15)
        expected = x_star * CONSTANTS.k_boltzmann / (ELECTRON.gamma * CONSTANTS.hbar)
        assert ratio == pytest.approx(expected, rel=2e-6)
        assert ratio == pytest.approx(20.15, abs=0.05)

    def test_doubled_coupling_shifts_by_log4(self):
        base = required_field_temperature_ratio(725e6, 1.0)
        doubled = required_field_temperature_ratio(2 * 725e6, 1.0)
        per_ratio = ELECTRON.gamma * CONSTANTS.hbar / CONSTANTS.k_boltzmann
        assert doubled - base == pytest.approx(math.log(4.0) / per_ratio, rel=1e-3)

    def test_unattainable_target(self):
        # nothing dephases faster than the unpolarized limit 2/a0
        with pytest.raises(ThresholdUnattainableError):
            required_field_temperature_ratio(725e6, 1e-12)

    def test_infinite_target_needs_an_infinite_ratio(self):
        # zero variance: no finite ratio polarizes the electron fully
        assert required_field_temperature_ratio(725e6, math.inf) == math.inf

    def test_target_just_above_limit_needs_no_polarization(self):
        # a hair slower than the unpolarized limit: tiny ratio suffices
        ratio = required_field_temperature_ratio(725e6, 2.0000002 / 725e6)
        assert 0.0 < ratio < 1e-2


# Seeded log-uniform targets from just above the unpolarized limit 2/a0.
_A0 = 725e6
_LIMIT = 2.0 / _A0


def _log_uniform_targets(seed: int, top: float, n: int = 200) -> list[float]:
    rng = random.Random(seed)
    lo, hi = math.log(1.0000001 * _LIMIT), math.log(top)
    return [math.exp(rng.uniform(lo, hi)) for _ in range(n)]


def _exact_ratio(a0: float, target: float) -> float:
    # cosh(x/2) = a0 target / 2, at 50 digits; k is the float the code divides by
    with mpmath.workdps(50):
        x = 2 * mpmath.acosh(mpmath.mpf(a0) * mpmath.mpf(target) / 2)
        return float(x / mpmath.mpf(boltzmann_ratio(ELECTRON.gamma, 1.0, 1.0)))


def _bisected_ratio(a0: float, target: float) -> float:
    # the search the closed form replaced: 1e-6 relative on x
    target_variance = target ** -2
    x = bisect_from(lambda x: target_variance - a0 ** 2 * spin_half_variance(x), 1.0, rtol=1e-6)
    return x / boltzmann_ratio(ELECTRON.gamma, 1.0, 1.0)


class TestClosedFormRatio:
    @pytest.mark.parametrize("target", _log_uniform_targets(27, 1e300))
    def test_matches_fifty_digit_inverse(self, target):
        ratio = required_field_temperature_ratio(_A0, target)
        assert ratio == pytest.approx(_exact_ratio(_A0, target), rel=1e-12, abs=0.0)

    def test_near_the_limit_rounding_is_magnified_but_bounded(self):
        # x ~ 2 sqrt(2 (a0 T/2 - 1)) there: the closed form is still far
        # inside the old search's 1e-6
        for factor in (1.0000001, 1.000001, 1.0001):
            target = factor * _LIMIT
            ratio = required_field_temperature_ratio(_A0, target)
            assert ratio == pytest.approx(_exact_ratio(_A0, target), rel=1e-9, abs=0.0)

    def test_matches_old_bisection_to_its_tolerance(self):
        for target in _log_uniform_targets(28, 1e140):
            ratio = required_field_temperature_ratio(_A0, target)
            assert ratio == pytest.approx(_bisected_ratio(_A0, target), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("target", [1e153, 1e160, 1e300])
    def test_huge_targets_keep_growing(self, target):
        # a0 target/2 >> 1: x = 2 acosh(a0 T/2) -> 2 (ln a0 + ln T) exactly
        expected = 2.0 * (math.log(_A0) + math.log(target)) / boltzmann_ratio(
            ELECTRON.gamma, 1.0, 1.0
        )
        ratio = required_field_temperature_ratio(_A0, target)
        assert ratio == pytest.approx(expected, rel=1e-15)

    def test_finite_up_to_the_largest_float(self):
        ratio = required_field_temperature_ratio(_A0, sys.float_info.max)
        assert math.isfinite(ratio) and ratio > 1000.0

    @pytest.mark.parametrize("target", _log_uniform_targets(29, 1e140, n=50))
    def test_round_trip_through_the_channel(self, target):
        # a channel at field = ratio and 1 K has the target static time
        ratio = required_field_temperature_ratio(_A0, target)
        channel = HyperfineElectronChannel(a0=_A0, field=ratio, temperature=1.0)
        static_time = channel_to_correlation(channel).variance ** -0.5
        assert static_time == pytest.approx(target, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a0", [725e6, 1.0, 3e-5, 1e300, 0.1 + 0.2])
    def test_at_the_limit_the_ratio_is_zero_to_rounding(self, a0):
        ratio = required_field_temperature_ratio(a0, 2.0 / a0)
        assert 0.0 <= ratio < 1e-12

    def test_just_below_the_limit_is_unattainable(self):
        with pytest.raises(ThresholdUnattainableError):
            required_field_temperature_ratio(_A0, _LIMIT * (1.0 - 1e-9))

    def test_infinite_a0_is_refused_by_name(self):
        with pytest.raises(ValueError, match="^a0 must be finite$"):
            required_field_temperature_ratio(math.inf, 1.0)


class TestDebyeIntegral:
    def test_converged_value(self):
        # 720 zeta(6) = 8 pi^6 / (63/6!) ... = 732.4870046288
        limit = 720.0 * ZETA_6
        for u in (100.0, 1e3, 6250.0, 1e6):
            assert debye_integral(u) == pytest.approx(limit, rel=1e-10)

    def test_small_u_power_law(self):
        # integrand -> x^4, so the integral -> u^5/5
        u = 1e-3
        assert debye_integral(u) == pytest.approx(u ** 5 / 5.0, rel=1e-3)

    def test_independent_quadrature_at_unit(self):
        # one-shot quad with the raw integrand as the oracle
        raw = lambda x: x ** 6 * math.exp(x) / math.expm1(x) ** 2
        expected, _ = quad(raw, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
        assert expected == pytest.approx(0.18854360275680845, rel=1e-12)
        assert debye_integral(1.0) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_u(self):
        us = [0.5, 1.0, 5.0, 20.0, 100.0]
        vals = [debye_integral(u) for u in us]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            debye_integral(0.0)


class TestPhononChannel:
    def test_factorial_prefactor(self):
        # rate / (T/Theta)^7 with the 6! approximation; inline oracle
        ch = PhononRamanChannel(temperature=0.1)
        rate = phonon_rate(ch, mode="factorial-approx")
        prefactor = rate / ch.t_over_theta ** 7
        energy_ratio = CONSTANTS.hbar / (SILICON.atom_mass * SILICON.sound_velocity ** 2)
        expected = (
            (81.0 * math.pi / 8.0)
            * 725e6 ** 2
            * energy_ratio ** 2
            * (CONSTANTS.k_boltzmann * 625.0 / CONSTANTS.hbar)
            * 720.0
        )
        assert prefactor == pytest.approx(expected, rel=1e-10)
        assert prefactor == pytest.approx(8243.395489062015, rel=1e-9)
        assert 0.6e4 < prefactor < 1.0e4

    def test_exact_mode_is_zeta_factor_when_cold(self):
        ch = PhononRamanChannel(temperature=0.1)
        assert ch.low_temperature_valid
        ratio = phonon_rate(ch, "exact-integral") / phonon_rate(ch, "factorial-approx")
        assert ratio == pytest.approx(ZETA_6, rel=1e-6)

    def test_rate_negligible_at_operating_point(self):
        assert phonon_rate(PhononRamanChannel(temperature=0.1)) < 1e-20

    def test_seventh_power_scaling(self):
        rates = {
            t: phonon_rate(PhononRamanChannel(temperature=t)) / (t / 625.0) ** 7
            for t in (0.05, 0.1, 0.3)
        }
        values = list(rates.values())
        assert max(values) / min(values) - 1.0 < 1e-6

    def test_validity_flag(self):
        assert PhononRamanChannel(temperature=0.6).low_temperature_valid
        assert not PhononRamanChannel(temperature=1.0).low_temperature_valid

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            phonon_rate(PhononRamanChannel(), mode="pade")


class TestDipolarGeometry:
    def test_angular_average(self):
        # <(1 - 3 cos^2)^2> over the sphere is 4/5; Monte Carlo oracle
        rng = np.random.default_rng(5150)
        c = rng.uniform(-1.0, 1.0, size=1_000_000)
        samples = (1.0 - 3.0 * c * c) ** 2
        mean = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(mean - 0.8) < 3.0 * se

    def test_geometry_factor_composition(self):
        # 4 pi x (4/5) x 1/(3 a^3) == 16 pi / (15 a^3)
        a3 = 2.5e-29
        assert 4.0 * math.pi * 0.8 / (3.0 * a3) == pytest.approx(
            16.0 * math.pi / (15.0 * a3), rel=1e-15
        )


class TestParamagneticChannel:
    def test_variance_linear_in_concentration(self):
        v1 = paramagnetic_variance(ParamagneticImpurityChannel(concentration=1e24))
        v3 = paramagnetic_variance(ParamagneticImpurityChannel(concentration=3e24))
        assert v3 == pytest.approx(3.0 * v1, rel=1e-14)
        assert paramagnetic_variance(
            ParamagneticImpurityChannel(concentration=0.0)
        ) == 0.0

    def test_per_site_prefactor_value(self):
        # variance per unit site fraction at the reference operating point
        site_density = 1.0 / SILICON.min_distance ** 3
        with pytest.warns(UserWarning):
            ch = ParamagneticImpurityChannel(concentration=site_density)
        v = paramagnetic_variance(ch)
        assert v == pytest.approx(779.5264974796034, rel=1e-9)
        assert 0.63e3 < v < 0.85e3

    def test_full_prefactor_without_thermal_suppression(self):
        site_density = 1.0 / SILICON.min_distance ** 3
        with pytest.warns(UserWarning):
            ch = ParamagneticImpurityChannel(concentration=site_density)
        full = paramagnetic_variance(ch) / spin_half_variance(ch.x)
        coupling = (CONSTANTS.mu0_over_4pi * PHOSPHORUS_31.gamma * ELECTRON.gamma
                    * CONSTANTS.hbar) ** 2
        expected = site_density * coupling * 16.0 * math.pi / (
            15.0 * SILICON.min_distance ** 3
        )
        assert full == pytest.approx(expected, rel=1e-12)
        assert full == pytest.approx(333710636793313.56, rel=1e-9)

    def test_concentration_bound(self):
        bound = max_paramagnetic_concentration(1.0, 20.0)
        assert bound == pytest.approx(6.414150149053562e25, rel=1e-9)
        # published estimate 0.7e20 1/cm^3; agreement within 15%
        assert abs(bound * 1e-6 / 0.7e20 - 1.0) < 0.15

    def test_bound_grows_with_polarization(self):
        assert max_paramagnetic_concentration(1.0, 30.0) > max_paramagnetic_concentration(
            1.0, 20.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamagneticImpurityChannel(concentration=-1.0)
        with pytest.raises(ValueError):
            ParamagneticImpurityChannel(temperature=-0.1)
        with pytest.raises(ValueError):
            max_paramagnetic_concentration(0.0, 20.0)

    def test_zero_variance_bound_is_unbounded(self):
        # The thermal factor underflows to 0: no concentration adds variance.
        unit = ParamagneticImpurityChannel(1.0, 1e4, 1.0)
        assert paramagnetic_variance(unit) == 0.0
        assert max_paramagnetic_concentration(1.0, 1e4) == math.inf


class TestNuclearImpurityChannel:
    def test_polarization_threshold_temperature(self):
        # x = 1 at T = |gamma| hbar B / k; for the host nuclear species at 2 T
        t_star = abs(SILICON_29.gamma) * CONSTANTS.hbar * 2.0 / CONSTANTS.k_boltzmann
        assert t_star == pytest.approx(0.0008065217391304348, rel=1e-14)
        assert 0.79e-3 < t_star < 0.82e-3
        assert NuclearImpurityChannel(spin_temperature=0.8e-3).polarized
        assert not NuclearImpurityChannel(spin_temperature=0.81e-3).polarized

    def test_polarization_x_value(self):
        ch = NuclearImpurityChannel()
        assert ch.polarization_x == pytest.approx(1.0081521739130435, rel=1e-14)

    def test_variance_value(self):
        # C (mu0/4pi gamma_i gamma_imp hbar)^2 4pi/(15 a^3) (1 - tanh^2 x)
        ch = NuclearImpurityChannel()
        coupling = (CONSTANTS.mu0_over_4pi * PHOSPHORUS_31.gamma * SILICON_29.gamma
                    * CONSTANTS.hbar) ** 2
        expected = (
            2.25e25
            * coupling
            * 4.0 * math.pi / (15.0 * SILICON.min_distance ** 3)
            * (1.0 - math.tanh(ch.polarization_x) ** 2)
        )
        assert nuclear_impurity_variance(ch) == pytest.approx(expected, rel=1e-13)
        assert nuclear_impurity_variance(ch) == pytest.approx(
            1412.1047020788767, rel=1e-9
        )

    def test_concentration_bound_value(self):
        bound = max_nuclear_impurity_concentration(1.0, 2.0, 0.8e-3)
        assert isinstance(bound, ConcentrationBound)
        assert bound.per_m3 == pytest.approx(1.5933662685830568e22, rel=1e-9)
        assert bound.percent_of_sites == pytest.approx(3.186732537166126e-05, rel=1e-9)
        # orders of magnitude below the published 4.5e-2 percent figure
        assert bound.percent_of_sites / 4.5e-2 < 1e-2

    def test_bound_per_site_consistency(self):
        bound = max_nuclear_impurity_concentration(1.0, 2.0, 0.8e-3)
        site_density = 1.0 / SILICON.min_distance ** 3
        assert bound.percent_of_sites == pytest.approx(
            100.0 * bound.per_m3 / site_density, rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            NuclearImpurityChannel(spin_temperature=0.0)
        with pytest.raises(ValueError):
            NuclearImpurityChannel(concentration=-1e20)

    def test_zero_variance_bound_is_unbounded(self):
        unit = NuclearImpurityChannel(1.0, 3.0, 1e-6)
        assert nuclear_impurity_variance(unit) == 0.0
        bound = max_nuclear_impurity_concentration(1.0, 3.0, 1e-6)
        assert bound == ConcentrationBound(math.inf, math.inf)


class TestNuclearThermalFactor:
    """The nuclear factor sech^2(x)/4 keeps its digits at every x."""

    # The dipolar prefactor at unit concentration: the zero-field variance
    # over its factor 1/4, which is exact.  The factor is read from a
    # channel whose prefactor is near 1, so that the variance stays a
    # normal float wherever the factor is one.
    unit_prefactor = 4.0 * nuclear_impurity_variance(NuclearImpurityChannel(1.0, 0.0, 1.0))
    concentration = 1.0 / unit_prefactor
    prefactor = 4.0 * nuclear_impurity_variance(NuclearImpurityChannel(concentration, 0.0, 1.0))
    field_per_x = 1.0 / boltzmann_ratio(SILICON_29.gamma, 1.0, 1.0)  # T at 1 K

    @staticmethod
    def exact(x):
        with mpmath.workdps(60):
            return mpmath.sech(mpmath.mpf(x)) ** 2 / 4

    def test_against_mpmath_where_the_factor_is_normal(self):
        # sech^2(x)/4 is a normal float up to x = 354.19.
        rng = random.Random(31)
        xs = [0.0, 1e-8, 0.006, 1.0, 354.0] + [rng.uniform(0.0, 354.0) for _ in range(3000)]
        for target_x in xs:
            channel = NuclearImpurityChannel(self.concentration, target_x * self.field_per_x, 1.0)
            factor = nuclear_impurity_variance(channel) / self.prefactor
            exact = self.exact(channel.polarization_x)
            assert abs(factor - exact) <= 1e-15 * exact, target_x

    def test_subnormal_tail_is_the_nearest_float(self):
        # Every value here is below 2^-1021, where the ulp is 2^-1074.
        # mpmath's own float() rounds a subnormal twice, so the distance
        # is compared instead.
        half_ulp = mpmath.mpf(2) ** -1075
        for x in np.linspace(354.0, 380.0, 2001).tolist():
            got = spin_half_variance_full_arg(x)
            assert abs(mpmath.mpf(got) - self.exact(x)) <= half_ulp, x

    def test_bound_is_finite_at_40_microkelvin(self):
        # The old 1 - tanh^2 form was exactly 0 here.
        bound = max_nuclear_impurity_concentration(1.0, 2.0, 4e-5)
        x = NuclearImpurityChannel(1.0, 2.0, 4e-5).polarization_x
        with mpmath.workdps(60):
            exact = 1 / (mpmath.mpf(self.unit_prefactor) * self.exact(x))
        assert math.isfinite(bound.per_m3)
        assert abs(bound.per_m3 - exact) <= 1e-12 * exact
        assert 5.38e38 < bound.per_m3 < 5.39e38


class TestChannelToCorrelation:
    def test_hyperfine_mapping(self):
        ch = HyperfineElectronChannel()
        corr = channel_to_correlation(ch)
        assert corr.variance == hyperfine_variance(ch)
        assert corr.tau_c == ch.tau1

    def test_paramagnetic_mapping(self):
        ch = ParamagneticImpurityChannel(tau1_imp=250.0)
        corr = channel_to_correlation(ch)
        assert corr.variance == paramagnetic_variance(ch)
        assert corr.tau_c == 250.0

    def test_nuclear_mapping(self):
        ch = NuclearImpurityChannel(t_parallel_imp=17.0)
        corr = channel_to_correlation(ch)
        assert corr.variance == nuclear_impurity_variance(ch)
        assert corr.tau_c == 17.0

    def test_phonon_rejected(self):
        with pytest.raises(UnsupportedChannelError):
            channel_to_correlation(PhononRamanChannel())

    def test_unknown_rejected(self):
        with pytest.raises(UnsupportedChannelError):
            channel_to_correlation(object())

    def test_static_regime_self_consistency(self):
        # every adiabatic default sits deep in the static regime out to 1 s,
        # so the exact exponent and the quadratic form must agree closely
        for ch in (
            HyperfineElectronChannel(),
            ParamagneticImpurityChannel(),
            NuclearImpurityChannel(),
        ):
            corr = channel_to_correlation(ch)
            exact = gamma_exact(corr, 1.0)
            frozen = gamma_static(corr, 1.0)
            assert abs(exact / frozen - 1.0) < 1e-4


class TestBoundsInvertVariances:
    """A channel built at a bound concentration sits exactly on the target."""

    targets = st.floats(1e-6, 1e3)

    @settings(deadline=None, max_examples=100)
    @given(
        target=targets,
        ratio=st.floats(0.0, 40.0),
        temperature=st.floats(0.01, 10.0),
    )
    def test_paramagnetic(self, target, ratio, temperature):
        bound = max_paramagnetic_concentration(target, ratio)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # dense bounds
            ch = ParamagneticImpurityChannel(
                concentration=bound, field=ratio * temperature, temperature=temperature
            )
        assert paramagnetic_variance(ch) * target ** 2 == pytest.approx(1.0, rel=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(
        target=targets,
        field=st.floats(0.0, 3.0),
        spin_temperature=st.floats(1e-4, 1.0),
    )
    def test_nuclear(self, target, field, spin_temperature):
        bound = max_nuclear_impurity_concentration(target, field, spin_temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # dense bounds
            ch = NuclearImpurityChannel(
                concentration=bound.per_m3, field=field, spin_temperature=spin_temperature
            )
        assert nuclear_impurity_variance(ch) * target ** 2 == pytest.approx(
            1.0, rel=1e-12
        )


# Each bound as a function of the target, with the float variance at unit
# concentration that it divides by.
BOUNDS = {
    "paramagnetic": (
        lambda target: max_paramagnetic_concentration(target, 20.0),
        paramagnetic_variance(ParamagneticImpurityChannel(1.0, 20.0, 1.0)),
    ),
    "nuclear": (
        lambda target: max_nuclear_impurity_concentration(target, 2.0, 0.8e-3).per_m3,
        nuclear_impurity_variance(NuclearImpurityChannel(1.0, 2.0, 0.8e-3)),
    ),
}


class TestBoundsOverEveryTarget:
    """The bounds keep their digits where target^-2 leaves the normal range."""

    @staticmethod
    def exact(target, variance):
        with mpmath.workdps(60):
            return 1 / (mpmath.mpf(target) ** 2 * mpmath.mpf(variance))

    @pytest.mark.parametrize("kind", sorted(BOUNDS))
    def test_against_the_exact_quotient(self, kind):
        bound, variance = BOUNDS[kind]
        rng = random.Random(20260)
        for _ in range(2000):
            target = 10.0 ** rng.uniform(-300.0, 300.0)
            got, exact = bound(target), self.exact(target, variance)
            if exact > sys.float_info.max:
                assert got == math.inf, target
            elif sys.float_info.min <= self.exact(target, 1.0) <= sys.float_info.max:
                # target^-2 is normal: the bits of target ** -2 / variance,
                # which rounds twice and so may be a neighbour of the nearest
                # float (up to 1.33 ulp off the exact quotient here).
                assert got == target ** -2 / variance, target
                nearest = float(exact)
                neighbours = (math.nextafter(nearest, 0.0), math.nextafter(nearest, math.inf))
                assert got == nearest or got in neighbours, target
            else:
                # Rounded once from the exact quotient, subnormal or 0 included.
                half_ulp = mpmath.mpf(math.ulp(max(float(exact), sys.float_info.min))) / 2
                assert abs(mpmath.mpf(got) - exact) <= half_ulp, target

    @pytest.mark.parametrize("kind", sorted(BOUNDS))
    def test_explicit_extremes(self, kind):
        # At 1e160 s target^-2 = 1e-320 is subnormal; at 1e-160 s it overflows.
        bound, variance = BOUNDS[kind]
        got = bound(1e160)
        assert got > 0.0
        assert abs(mpmath.mpf(got) - self.exact(1e160, variance)) <= math.ulp(got)
        assert bound(1e-160) == math.inf
        assert bound(math.inf) == 0.0

    def test_percent_of_sites_is_finite_where_the_bound_is(self):
        # 100 * per_m3 overflows where per_m3 exceeds about 1.8e306 m^-3.
        site_density = 1.0 / SILICON.min_distance ** 3
        rng = random.Random(20290)
        targets = [4e-143] + [10.0 ** rng.uniform(-150.0, -140.0) for _ in range(500)]
        for target in targets:
            bound = max_nuclear_impurity_concentration(target, 2.0, 0.8e-3)
            assert math.isfinite(bound.percent_of_sites) == math.isfinite(bound.per_m3), target
            if math.isfinite(bound.per_m3):
                exact = 100 * mpmath.mpf(bound.per_m3) / mpmath.mpf(site_density)
                assert bound.percent_of_sites == pytest.approx(float(exact), rel=1e-15)
        assert repr(max_nuclear_impurity_concentration(4e-143, 2.0, 0.8e-3)) == (
            "ConcentrationBound(per_m3=9.958539178644103e+306, "
            "percent_of_sites=1.9917078357288284e+280)"
        )


class TestDipolarPins:
    """repr pins: the dipolar variances and bounds keep their exact floats."""

    @pytest.mark.parametrize(
        "args,expected",
        [
            ((0.7e26, 2.0, 0.1, 1e4), "1.0913370964714446"),
            ((1.0, 2.0, 0.1, 1e4), "1.5590529949592066e-26"),
            ((3.3e24, 0.5, 1.7, 1.0), "5298086268.48073"),
            ((1e27, 0.0, 0.01, 1e4), "1668553183966.5615"),
        ],
    )
    def test_paramagnetic_variance(self, args, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # dense channel
            channel = ParamagneticImpurityChannel(*args)
        assert repr(paramagnetic_variance(channel)) == expected

    @pytest.mark.parametrize(
        "args,expected",
        [
            ((2.25e25, 2.0, 0.8e-3, 1e4), "1412.104702078872"),
            ((1.0, 2.0, 0.8e-3, 1e4), "6.276020898128318e-23"),
            ((4.1e26, 0.3, 2e-2, 1.0), "62034.66251339338"),
            ((1e28, 0.0, 1.0, 1e4), "1513095.9109510826"),
        ],
    )
    def test_nuclear_variance(self, args, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # dense channel
            channel = NuclearImpurityChannel(*args)
        assert repr(nuclear_impurity_variance(channel)) == expected

    @pytest.mark.parametrize(
        "args,expected",
        [
            ((1.0, 20.0), "6.4141501490535875e+25"),
            ((1e-3, 0.0), "5.993216216355502e+20"),
            ((2.5, 7.3), "4.219695218780435e+17"),
        ],
    )
    def test_max_paramagnetic_concentration(self, args, expected):
        assert repr(max_paramagnetic_concentration(*args)) == expected

    @pytest.mark.parametrize(
        "args,per_m3,percent",
        [
            ((1.0, 2.0, 0.8e-3), "1.5933662685830563e+22", "3.186732537166125e-05"),
            ((0.01, 0.0, 1.0), "6.6089663765691675e+25", "0.13217932753138387"),
            ((3.0, 1.5, 1e-4), "3.2949967732640127e+25", "0.06589993546528052"),
        ],
    )
    def test_max_nuclear_impurity_concentration(self, args, per_m3, percent):
        bound = max_nuclear_impurity_concentration(*args)
        assert (repr(bound.per_m3), repr(bound.percent_of_sites)) == (per_m3, percent)

    def test_required_field_temperature_ratio(self):
        ratio = required_field_temperature_ratio(SILICON.hyperfine_constant, 1.0)
        assert repr(ratio) == "30.470044863301023"
