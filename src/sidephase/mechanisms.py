"""Noise channels limiting donor nuclear-spin coherence in silicon.

Four mechanisms are modeled:

* hyperfine coupling to the donor's own electron spin (thermal flips);
* Raman phonon scattering of that electron (a direct rate, not a variance);
* dilute electron-spin (paramagnetic) impurities coupling dipolarly;
* dilute nuclear-spin impurities of the host, e.g. the 4.7% spin-1/2
  silicon isotope, also dipolar.

The three adiabatic channels reduce to an ExponentialCorrelation (variance
plus correlation time); the phonon channel yields a linear-in-t exponent
and deliberately does not convert.

Dilute dipolar variances follow the concentration x single-site second
moment form: the angular average of (1 - 3 cos^2 theta)^2 over the sphere
is 4/5, the radial integral of r^-6 from the cutoff a is 1/(3 a^3), and
their product with the full solid angle gives 16 pi / (15 a^3).  The
cutoff a is the per-site distance, a^3 = 1/site_density.  Both impurity
channels form their variance in _dipolar_variance, as that second moment
times a spin-1/2 thermal factor from the constants module: the
paramagnetic channel's sech^2(x/2)/4, the nuclear channel's sech^2(x)/4.
The channels, the dilute-expansion check and the audit read the cutoff
volume a^3 and the geometry factor from CUTOFF_VOLUME and DIPOLAR_GEOMETRY.

A channel holds only its own parameters (its config keys).  The
gyromagnetic ratios, the cutoff and the silicon material parameters are
read from the constants registry (ELECTRON, PHOSPHORUS_31, SILICON_29,
SILICON, CONSTANTS).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

from .constants import (
    CONSTANTS,
    ELECTRON,
    PHOSPHORUS_31,
    SILICON,
    SILICON_29,
    _require_domain,
    boltzmann_ratio,
    spin_half_variance,
    spin_half_variance_full_arg,
)
from .dephasing import ExponentialCorrelation, _is_normal, _reciprocal

__all__ = [
    "HyperfineElectronChannel",
    "PhononRamanChannel",
    "ParamagneticImpurityChannel",
    "NuclearImpurityChannel",
    "ConcentrationBound",
    "UnsupportedChannelError",
    "ThresholdUnattainableError",
    "hyperfine_variance",
    "phonon_rate",
    "debye_integral",
    "paramagnetic_variance",
    "nuclear_impurity_variance",
    "required_field_temperature_ratio",
    "max_paramagnetic_concentration",
    "max_nuclear_impurity_concentration",
    "channel_to_correlation",
    "CUTOFF_VOLUME",
    "DIPOLAR_GEOMETRY",
]

# The paper's operating point, every channel's default: field (T), bath
# temperature (K) and host nuclear spin temperature (K).  The audit reads
# them too.
_FIELD = 2.0
_TEMPERATURE = 0.1
_SPIN_TEMPERATURE = 0.8e-3

# a^3 in m^3, and 16 pi / (15 a^3) in 1/m^3.
CUTOFF_VOLUME = SILICON.min_distance ** 3
DIPOLAR_GEOMETRY = 16.0 * math.pi / (15.0 * CUTOFF_VOLUME)


class UnsupportedChannelError(TypeError):
    """Channel cannot be represented as an exponential correlation."""


class ThresholdUnattainableError(ValueError):
    """No field/temperature ratio reaches the requested target."""


def _electron_ratio(channel) -> float:
    """The electron's boltzmann_ratio x at the channel's field and temperature."""
    return boltzmann_ratio(ELECTRON.gamma, channel.field, channel.temperature)


@dataclass(frozen=True)
class HyperfineElectronChannel:
    """Frequency noise from thermal flips of the donor electron.

    The qubit frequency shifts by the contact coupling a0 when the electron
    flips, so the variance is a0^2 times the electron's thermal spin
    variance; the correlation time is the electron longitudinal relaxation
    time tau1.  field in T, temperature in K.
    """

    a0: float = SILICON.hyperfine_constant
    field: float = _FIELD
    temperature: float = _TEMPERATURE
    tau1: float = 1e4

    def __post_init__(self) -> None:
        _require_domain(self, nonnegative=("field",))

    x = property(_electron_ratio)

    @property
    def adiabatic(self) -> bool:
        """Electron precession much faster than its flip rate."""
        return abs(ELECTRON.gamma) * self.field * self.tau1 > 1.0


def hyperfine_variance(channel: HyperfineElectronChannel) -> float:
    """a0^2 * spin_half_variance(x), in (rad/s)^2."""
    return channel.a0 ** 2 * spin_half_variance(channel.x)


@dataclass(frozen=True)
class PhononRamanChannel:
    """Two-phonon (Raman) modulation of the hyperfine coupling.

    Contributes a rate (exponent linear in t), proportional to (T/Theta)^7
    at low temperature.  Not reducible to a variance/correlation pair.
    """

    temperature: float = _TEMPERATURE

    def __post_init__(self) -> None:
        _require_domain(self)

    @property
    def t_over_theta(self) -> float:
        return self.temperature / SILICON.debye_temperature

    @property
    def low_temperature_valid(self) -> bool:
        """The (T/Theta)^7 law assumes T/Theta < 1e-3."""
        return self.t_over_theta < 1e-3


def _debye_integrand(x: float) -> float:
    # x^6 e^x / (e^x - 1)^2, written to survive both underflow ends.  Where
    # e^-x underflows to 0 the tail is 0, even where x^6 would overflow.
    if x < 1e-3:
        return x ** 4 * (1.0 - x * x / 12.0 + x ** 4 / 240.0)
    if x > 705.0:
        tail = math.exp(-x)
        return x ** 6 * tail if tail else 0.0
    return x ** 6 * math.exp(-x) / math.expm1(-x) ** 2


_DEBYE_BREAKS = (0.0, 2.0, 8.0, 20.0)

# From u = 60 on, the integral is this one float: the left-to-right sum from
# 0.0 of the quadratures of [0, 2], [2, 8], [8, 20] and [20, 60], one ulp
# below the correctly rounded 16 pi^6/21.  The tail beyond 60 adds 4.53e-16
# (mpmath), under half an ulp of the total (5.68e-14), so a quadrature of
# [60, u] added to that sum rounds back to it for every u >= 60.
_DEBYE_SATURATION = 60.0
_DEBYE_SATURATED = 732.4870046288032


def _debye_segment(lo: float, hi: float) -> float:
    # Imported here, not at module level: scipy.integrate takes about a
    # second to import, and only a Debye integral below the saturation
    # argument needs it.
    from scipy.integrate import quad

    value, _ = quad(_debye_integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    return value


@functools.cache
def _debye_running_sums() -> tuple[float, ...]:
    """The integral up to each break, as a read-only tuple built on first use.

    Entry k sums the fixed segments below break k left to right from 0.0,
    so entry 0 is 0.0.  Only arguments below _DEBYE_SATURATION read it.
    """
    sums = [0.0]
    for lo, hi in zip(_DEBYE_BREAKS, _DEBYE_BREAKS[1:]):
        sums.append(sums[-1] + _debye_segment(lo, hi))
    return tuple(sums)


def debye_integral(u: float) -> float:
    """integral_0^u x^6 e^x/(e^x - 1)^2 dx.

    Tends to 6! zeta(6) = 720 pi^6/945 ~ 732.487 as u -> inf and to u^5/5
    for small u.  From u = 60 on (T <= Theta/60, about 10.4 K) the integral
    is within half an ulp of its limit and the saturated float is returned,
    with no quadrature.  Below 60 it is piecewise adaptive quadrature: the
    integrand peaks near x ~ 6, and the breaks 0, 2, 8 and 20 keep that bump
    resolved.  The fixed segments [0, 2], [2, 8] and [8, 20] do not depend
    on u: their quadratures are made once, on first use, and summed left to
    right from 0.0.  Each call adds to the sum of the segments below u one
    quadrature, from the last break below u to u.
    """
    if not u > 0.0:
        raise ValueError("u must be positive")
    if u >= _DEBYE_SATURATION:
        return _DEBYE_SATURATED
    k = sum(b < u for b in _DEBYE_BREAKS) - 1
    return _debye_running_sums()[k] + _debye_segment(_DEBYE_BREAKS[k], u)


_PHONON_FACTORIAL_6 = 720.0  # 6!, the u -> inf approximation without zeta(6)

PHONON_MODES = ("exact-integral", "factorial-approx")


def phonon_rate(channel: PhononRamanChannel, mode: str = "exact-integral") -> float:
    """Raman dephasing rate 1/T_d in 1/s.

    (81 pi / 8) xi^2 a0^2 (hbar/(M v^2))^2 (k Theta/hbar) (T/Theta)^7 I,
    where I is the Debye integral up to Theta/T ("exact-integral") or its
    6! large-argument approximation ("factorial-approx").
    """
    if mode not in PHONON_MODES:
        raise ValueError(f"unknown phonon mode: {mode!r}")
    if mode == "exact-integral":
        # A T/Theta that underflows to 0 has Theta/T beyond float range.
        ratio = channel.t_over_theta
        integral = debye_integral(1.0 / ratio if ratio > 0.0 else math.inf)
    else:
        integral = _PHONON_FACTORIAL_6
    energy_ratio = CONSTANTS.hbar / (SILICON.atom_mass * SILICON.sound_velocity ** 2)
    return (
        (81.0 * math.pi / 8.0)
        * SILICON.xi ** 2
        * SILICON.hyperfine_constant ** 2
        * energy_ratio ** 2
        * (CONSTANTS.k_boltzmann * SILICON.debye_temperature / CONSTANTS.hbar)
        * channel.t_over_theta ** 7
        * integral
    )


def _check_impurity(channel) -> None:
    """The __post_init__ of both impurity channels."""
    _require_domain(channel, nonnegative=("concentration", "field"))
    if channel.concentration * CUTOFF_VOLUME >= 1.0:
        warnings.warn(
            "concentration times cutoff volume >= 1; the dilute "
            "expansion is unreliable",
            stacklevel=4,  # past __post_init__ and __init__, to the caller
        )


@dataclass(frozen=True)
class ParamagneticImpurityChannel:
    """Dipolar noise from dilute electron-spin impurities.

    concentration in 1/m^3; tau1_imp is the impurity electron flip time.
    The dipolar cutoff is SILICON.min_distance (per-site distance).  The
    variance carries the impurity thermal polarization factor, so it freezes
    out exponentially with field over temperature.
    """

    concentration: float = 0.7e26
    field: float = _FIELD
    temperature: float = _TEMPERATURE
    tau1_imp: float = 1e4

    def __post_init__(self) -> None:
        _check_impurity(self)

    x = property(_electron_ratio)


def _dipolar_variance(concentration: float, gamma: float, thermal: float) -> float:
    """C ((mu0/4pi) gamma_i gamma hbar)^2 (16 pi/(15 a^3)) thermal, in (rad/s)^2.

    The dilute dipolar second moment of impurities with gyromagnetic ratio
    gamma, felt by the donor nucleus, times their thermal spin variance.
    """
    coupling = (CONSTANTS.mu0_over_4pi * PHOSPHORUS_31.gamma * gamma * CONSTANTS.hbar) ** 2
    return concentration * coupling * DIPOLAR_GEOMETRY * thermal


def paramagnetic_variance(channel: ParamagneticImpurityChannel) -> float:
    """C ((mu0/4pi) gamma_i gamma_s hbar)^2 (16 pi/(15 a^3)) shv(x)."""
    return _dipolar_variance(channel.concentration, ELECTRON.gamma, spin_half_variance(channel.x))


@dataclass(frozen=True)
class NuclearImpurityChannel:
    """Dipolar noise from dilute host nuclear spins (e.g. the 29 isotope).

    Same dipolar variance as the paramagnetic channel, with the thermal
    factor sech^2(x)/4 = (1 - tanh^2 x)/4 of the full ratio at the nuclear
    spin temperature (spin_half_variance_full_arg), which never cancels.
    t_parallel_imp is the impurity longitudinal flip time.
    """

    concentration: float = 2.25e25
    field: float = _FIELD
    spin_temperature: float = _SPIN_TEMPERATURE
    t_parallel_imp: float = 1e4

    def __post_init__(self) -> None:
        _check_impurity(self)

    @property
    def polarization_x(self) -> float:
        return boltzmann_ratio(SILICON_29.gamma, self.field, self.spin_temperature)

    @property
    def polarized(self) -> bool:
        """Impurity Zeeman energy exceeds the spin temperature."""
        return self.polarization_x > 1.0


def nuclear_impurity_variance(channel: NuclearImpurityChannel) -> float:
    """C ((mu0/4pi) gamma_i gamma_imp hbar)^2 (16 pi/(15 a^3)) sech^2(x)/4."""
    thermal = spin_half_variance_full_arg(channel.polarization_x)
    return _dipolar_variance(channel.concentration, SILICON_29.gamma, thermal)


def required_field_temperature_ratio(a0: float, target_dephasing_time: float) -> float:
    """B/T (in T/K) making the static hyperfine time reach the target.

    Inverts a0^2 sech^2(x/2)/4 = target^-2 in closed form: sech(x/2) is
    2/(a0 target), and with s = tanh(x/2) = sqrt(1 - sech^2(x/2)),
    x = 2 atanh(s) = 2 log1p(s) - ln 4 + 2 (ln a0 + ln target).  x is
    formed from the logs of a0 and the target, never from their product
    or target^-2, so no finite target overflows or underflows it, and an
    infinite target gives inf.  a0 must be finite.  A target below the
    unpolarized limit 2/a0 raises; at target = 2.0/a0 the result is 0 to
    rounding.  Near that limit x ~ 2 sqrt(2 (a0 target/2 - 1)) magnifies
    the rounding of sech: about 1e-10 relative at 1.0000001 * 2/a0.
    """
    if not (a0 > 0.0 and target_dephasing_time > 0.0):
        raise ValueError("a0 and target_dephasing_time must be positive")
    if a0 == math.inf:
        raise ValueError("a0 must be finite")
    # Exactly 1.0 at target = 2.0/a0, and 0.0 for an infinite target.  NaN
    # only where 2/a0 overflows (a0 < 1.1e-308) and the target is inf: the
    # negated test refuses it with the unattainable ones.
    sech = 2.0 / a0 / target_dephasing_time
    if not sech <= 1.0:
        raise ThresholdUnattainableError(
            "target is below the unpolarized dephasing time 2/a0"
        )
    s = math.sqrt((1.0 - sech) * (1.0 + sech))
    log_a0_target = math.log(a0) + math.log(target_dephasing_time)
    x = 2.0 * math.log1p(s) - math.log(4.0) + 2.0 * log_a0_target
    # At the limit the logs cancel to a few ulps either side of 0.
    return max(x, 0.0) / boltzmann_ratio(ELECTRON.gamma, 1.0, 1.0)


def _inverse_square_over(target: float, variance: float) -> float:
    """target^-2 / variance, the bound at a variance per unit concentration.

    Where target^-2 is a normal float (targets from about 7.5e-155 s to
    6.7e153 s) this is target ** -2 / variance, bit for bit.  Outside that
    range target^-2 would overflow or lose digits as a subnormal, so the
    quotient is formed exactly from the two floats' integer ratios and
    rounded once: inf where it exceeds the largest float, 0 for an
    infinite target.  A zero variance gives inf.  A target that is not
    positive, NaN too, is refused.
    """
    if not target > 0.0:
        raise ValueError("target_dephasing_time must be positive")
    if variance == 0.0:
        return math.inf
    try:
        inverse_square = target ** -2
    except OverflowError:
        inverse_square = math.inf
    if _is_normal(inverse_square) or target == math.inf:
        return inverse_square / variance
    return _reciprocal(target, target, variance)


def max_paramagnetic_concentration(
    target_dephasing_time: float, field_temperature_ratio: float
) -> float:
    """Largest impurity concentration (1/m^3) keeping the static time.

    Inverts paramagnetic_variance, which is linear in concentration:
    target^-2 over the variance at unit concentration.  At 1 K the field
    equals the B/T ratio.  A variance too small for its inverse gives
    math.inf: for a 1 s target, from a B/T of about 505.7 T/K, before the
    variance at unit concentration underflows to 0 (about 532.1) or its
    thermal factor does (about 556.4).
    """
    if not 0.0 <= field_temperature_ratio < math.inf:
        raise ValueError("field_temperature_ratio must be finite and nonnegative")
    unit = ParamagneticImpurityChannel(1.0, field_temperature_ratio, 1.0)
    return _inverse_square_over(target_dephasing_time, paramagnetic_variance(unit))


@dataclass(frozen=True)
class ConcentrationBound:
    """A concentration bound in absolute and per-site terms."""

    per_m3: float
    percent_of_sites: float


def max_nuclear_impurity_concentration(
    target_dephasing_time: float, field: float, spin_temperature: float
) -> ConcentrationBound:
    """Largest nuclear-impurity concentration keeping the static time.

    Inverts nuclear_impurity_variance, which is linear in concentration:
    target^-2 over the variance at unit concentration.  A variance too
    small for its inverse gives ConcentrationBound(inf, inf): at 2 T, below
    a spin temperature of about 2.4 uK for a 1 s target, and for every
    target below about 2.3 uK, where the variance at unit concentration
    underflows to 0.  The percentage is finite wherever per_m3 is.
    """
    unit = NuclearImpurityChannel(1.0, field, spin_temperature)
    per_m3 = _inverse_square_over(target_dephasing_time, nuclear_impurity_variance(unit))
    site_density = 1.0 / CUTOFF_VOLUME
    percent = 100.0 * per_m3 / site_density
    if percent == math.inf:  # 100 * per_m3 overflowed: divide first
        percent = 100.0 * (per_m3 / site_density)
    return ConcentrationBound(per_m3=per_m3, percent_of_sites=percent)


# Adiabatic channel type -> (variance function, correlation-time field).
_CORRELATIONS = {
    HyperfineElectronChannel: (hyperfine_variance, "tau1"),
    ParamagneticImpurityChannel: (paramagnetic_variance, "tau1_imp"),
    NuclearImpurityChannel: (nuclear_impurity_variance, "t_parallel_imp"),
}


def channel_to_correlation(channel) -> ExponentialCorrelation:
    """Map an adiabatic channel to its (variance, correlation time) pair.

    The phonon channel is a rate, not frequency noise, and is rejected.
    """
    try:
        variance, tau_field = _CORRELATIONS[type(channel)]
    except KeyError:
        raise UnsupportedChannelError(
            f"{type(channel).__name__} has no exponential correlation "
            "(the phonon channel is a direct rate)"
        ) from None
    return ExponentialCorrelation(variance(channel), getattr(channel, tau_field))
