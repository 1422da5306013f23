"""Constant registry and thermal variance forms."""

import math

import mpmath as mp
import pytest

from sidephase.constants import (
    CONSTANTS,
    ELECTRON,
    PHOSPHORUS_31,
    SILICON,
    SILICON_29,
    SPECIES,
    MaterialParams,
    PhysicalConstants,
    SpinSpecies,
    boltzmann_ratio,
    spin_half_variance,
    spin_half_variance_full_arg,
)


class TestRegistry:
    def test_fundamental_values(self):
        assert CONSTANTS.hbar == 1.05e-34
        assert CONSTANTS.k_boltzmann == 1.38e-23
        assert CONSTANTS.mu0_over_4pi == 1e-7

    def test_gyromagnetic_ratios(self):
        assert ELECTRON.gamma == 176e9
        assert PHOSPHORUS_31.gamma == 108e6
        assert SILICON_29.gamma == -53e6
        assert set(SPECIES) == {"electron", "31P", "29Si"}

    def test_silicon_si_values(self):
        assert SILICON.debye_temperature == 625.0
        assert SILICON.lattice_constant == pytest.approx(5.4e-10, rel=1e-15)
        assert SILICON.sound_velocity == pytest.approx(5e3, rel=1e-15)
        assert SILICON.atom_mass == pytest.approx(0.46e-25, rel=1e-15)
        assert SILICON.hyperfine_constant == 725e6
        assert SILICON.site_density == pytest.approx(5.0e28, rel=1e-15)

    def test_min_distance_is_the_per_site_cube_root(self):
        a = SILICON.min_distance
        assert a ** 3 == pytest.approx(1.0 / SILICON.site_density, rel=1e-14)
        # distinct from the lattice constant; the two densities disagree
        assert a < SILICON.lattice_constant

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalConstants(hbar=0.0)
        with pytest.raises(ValueError):
            SpinSpecies("x", 0.0)
        with pytest.raises(ValueError):
            SpinSpecies("x", 1e6, spin=1.0)
        with pytest.raises(ValueError):
            MaterialParams(625.0, -1.0, 5e3, 0.46e-25, 725e6, 5e28)


class TestBoltzmannRatio:
    def test_electron_at_two_tesla_tenth_kelvin(self):
        # published estimate quotes 27 for this operating point
        x = boltzmann_ratio(ELECTRON.gamma, 2.0, 0.1)
        assert x == pytest.approx(26.782608695652176, rel=1e-14)
        assert abs(x / 27.0 - 1.0) < 0.01

    def test_nuclear_at_millikelvin(self):
        x = boltzmann_ratio(PHOSPHORUS_31.gamma, 2.0, 1e-3)
        assert x == pytest.approx(1.6434782608695652, rel=1e-14)

    def test_sign_of_gamma_is_ignored(self):
        assert boltzmann_ratio(SILICON_29.gamma, 2.0, 1e-3) == boltzmann_ratio(
            -SILICON_29.gamma, 2.0, 1e-3
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            boltzmann_ratio(1e9, 1.0, 0.0)
        with pytest.raises(ValueError):
            boltzmann_ratio(1e9, 1.0, -0.1)
        with pytest.raises(ValueError):
            boltzmann_ratio(1e9, -1.0, 0.1)

    def test_zero_field_is_allowed(self):
        assert boltzmann_ratio(1e9, 0.0, 0.1) == 0.0


def _mp_variance(x: float) -> mp.mpf:
    # independent high-precision oracle: sech^2(x/2)/4
    return mp.sech(mp.mpf(x) / 2) ** 2 / 4


class TestSpinHalfVariance:
    def test_unpolarized_limit(self):
        assert spin_half_variance(0.0) == 0.25

    def test_matches_high_precision_oracle(self):
        mp.mp.dps = 50
        for x in (1e-8, 0.1, 1.0, 5.0, 27.0, 50.0, 200.0):
            expected = float(_mp_variance(x))
            assert spin_half_variance(x) == pytest.approx(expected, rel=5e-15)

    def test_polarized_limit_matches_exponential(self):
        # sech^2(13.5)/4 = 1.8795288165320e-12, within 1% of e^-27
        v = spin_half_variance(27.0)
        assert v == pytest.approx(1.879528816532018e-12, rel=1e-13)
        assert abs(v / math.exp(-27.0) - 1.0) < 0.01

    def test_asymptotic_identity_at_x50(self):
        # the sech form times e^x approaches 1 to below 1e-20 by x = 50
        mp.mp.dps = 50
        identity = _mp_variance(50.0) * mp.e ** 50
        assert abs(float(identity - 1)) < 1e-20
        # and the double implementation tracks the oracle to full precision
        assert spin_half_variance(50.0) == pytest.approx(
            float(_mp_variance(50.0)), rel=5e-15
        )

    def test_strictly_decreasing_and_bounded(self):
        xs = [0.0, 1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0, 40.0, 100.0, 700.0]
        values = [spin_half_variance(x) for x in xs]
        assert all(0.0 < v <= 0.25 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            spin_half_variance(-1e-9)


class TestFullArgumentVariance:
    def test_printed_form_at_one(self):
        # (1 - tanh^2(1))/4, direct evaluation as the oracle
        direct = (1.0 - math.tanh(1.0) ** 2) / 4.0
        assert spin_half_variance_full_arg(1.0) == pytest.approx(direct, rel=1e-15)
        assert spin_half_variance_full_arg(1.0) == pytest.approx(
            0.10499358540350662, rel=1e-14
        )

    def test_polarized_limit_is_double_exponent(self):
        # decays as e^(-2x), not e^(-x); tanh in doubles would return 0 here
        v = spin_half_variance_full_arg(27.0)
        assert v > 0.0
        assert v == pytest.approx(math.exp(-54.0), rel=1e-10)

    def test_is_half_argument_form_at_doubled_x(self):
        for x in (0.0, 0.3, 2.0, 30.0):
            assert spin_half_variance_full_arg(x) == spin_half_variance(2.0 * x)
