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
cutoff a is the per-site distance, a^3 = 1/site_density.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.integrate import quad

from .constants import (
    CONSTANTS,
    ELECTRON,
    PHOSPHORUS_31,
    SILICON,
    SILICON_29,
    MaterialParams,
    PhysicalConstants,
    boltzmann_ratio,
    spin_half_variance,
)
from .dephasing import ExponentialCorrelation, bisect_increasing

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
]


class UnsupportedChannelError(TypeError):
    """Channel cannot be represented as an exponential correlation."""


class ThresholdUnattainableError(ValueError):
    """No field/temperature ratio reaches the requested target."""


def _require_finite(channel) -> None:
    """Reject NaN and infinite float fields; NaN passes every `x < 0` check."""
    bad = [
        name
        for name, value in vars(channel).items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be finite")


@dataclass(frozen=True)
class HyperfineElectronChannel:
    """Frequency noise from thermal flips of the donor electron.

    The qubit frequency shifts by the contact coupling a0 when the electron
    flips, so the variance is a0^2 times the electron's thermal spin
    variance; the correlation time is the electron longitudinal relaxation
    time tau1.  field in T, temperature in K.
    """

    a0: float = SILICON.hyperfine_constant
    field: float = 2.0
    temperature: float = 0.1
    tau1: float = 1e4
    gamma_s: float = ELECTRON.gamma
    constants: PhysicalConstants = CONSTANTS

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.a0 <= 0.0 or self.temperature <= 0.0 or self.tau1 <= 0.0:
            raise ValueError("a0, temperature, and tau1 must be positive")
        if self.field < 0.0:
            raise ValueError("field must be nonnegative")

    @property
    def x(self) -> float:
        return boltzmann_ratio(self.gamma_s, self.field, self.temperature, self.constants)

    @property
    def adiabatic(self) -> bool:
        """Electron precession much faster than its flip rate."""
        return abs(self.gamma_s) * self.field * self.tau1 > 1.0


def hyperfine_variance(channel: HyperfineElectronChannel) -> float:
    """a0^2 * spin_half_variance(x), in (rad/s)^2."""
    return channel.a0 ** 2 * spin_half_variance(channel.x)


@dataclass(frozen=True)
class PhononRamanChannel:
    """Two-phonon (Raman) modulation of the hyperfine coupling.

    Contributes a rate (exponent linear in t), proportional to (T/Theta)^7
    at low temperature.  Not reducible to a variance/correlation pair.
    """

    material: MaterialParams = SILICON
    temperature: float = 0.1
    constants: PhysicalConstants = CONSTANTS

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")

    @property
    def t_over_theta(self) -> float:
        return self.temperature / self.material.debye_temperature

    @property
    def low_temperature_valid(self) -> bool:
        """The (T/Theta)^7 law assumes T/Theta < 1e-3."""
        return self.t_over_theta < 1e-3


def _debye_integrand(x: float) -> float:
    # x^6 e^x / (e^x - 1)^2, written to survive both underflow ends.
    if x < 1e-3:
        return x ** 4 * (1.0 - x * x / 12.0 + x ** 4 / 240.0)
    if x > 705.0:
        return x ** 6 * math.exp(-x)
    return x ** 6 * math.exp(-x) / math.expm1(-x) ** 2


def debye_integral(u: float) -> float:
    """integral_0^u x^6 e^x/(e^x - 1)^2 dx.

    Tends to 6! zeta(6) = 720 pi^6/945 ~ 732.487 as u -> inf and to u^5/5
    for small u.  Piecewise adaptive quadrature; the integrand peaks near
    x ~ 6 and the segments keep that bump resolved for any u.
    """
    if u <= 0.0:
        raise ValueError("u must be positive")
    breaks = [0.0, 2.0, 8.0, 20.0, 60.0, 200.0]
    points = [b for b in breaks if b < u] + [u]
    total = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        value, _ = quad(
            _debye_integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200
        )
        total += value
    return total


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
    m = channel.material
    c = channel.constants
    if mode == "exact-integral":
        integral = debye_integral(1.0 / channel.t_over_theta)
    else:
        integral = _PHONON_FACTORIAL_6
    energy_ratio = c.hbar / (m.atom_mass * m.sound_velocity ** 2)
    return (
        (81.0 * math.pi / 8.0)
        * m.xi ** 2
        * m.hyperfine_constant ** 2
        * energy_ratio ** 2
        * (c.k_boltzmann * m.debye_temperature / c.hbar)
        * channel.t_over_theta ** 7
        * integral
    )


@dataclass(frozen=True)
class ParamagneticImpurityChannel:
    """Dipolar noise from dilute electron-spin impurities.

    concentration in 1/m^3; min_distance is the dipolar cutoff (per-site
    distance); tau1_imp is the impurity electron flip time.  The variance
    carries the impurity thermal polarization factor, so it freezes out
    exponentially with field over temperature.
    """

    concentration: float = 0.7e26
    field: float = 2.0
    temperature: float = 0.1
    tau1_imp: float = 1e4
    gamma_i: float = PHOSPHORUS_31.gamma
    gamma_s: float = ELECTRON.gamma
    min_distance: float = SILICON.min_distance
    constants: PhysicalConstants = CONSTANTS

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.concentration < 0.0:
            raise ValueError("concentration must be nonnegative")
        if self.temperature <= 0.0 or self.tau1_imp <= 0.0 or self.min_distance <= 0.0:
            raise ValueError("temperature, tau1_imp, min_distance must be positive")
        if self.field < 0.0:
            raise ValueError("field must be nonnegative")
        if self.concentration * self.min_distance ** 3 >= 1.0:
            warnings.warn(
                "concentration times cutoff volume >= 1; the dilute "
                "expansion is unreliable",
                stacklevel=2,
            )

    @property
    def x(self) -> float:
        return boltzmann_ratio(self.gamma_s, self.field, self.temperature, self.constants)


def _dipolar_prefactor(
    gamma_a: float, gamma_b: float, constants: PhysicalConstants
) -> float:
    """((mu0/4pi) gamma_a gamma_b hbar)^2, (rad/s)^2 m^6."""
    return (constants.mu0_over_4pi * gamma_a * gamma_b * constants.hbar) ** 2


def paramagnetic_variance(channel: ParamagneticImpurityChannel) -> float:
    """C ((mu0/4pi) gamma_i gamma_s hbar)^2 (16 pi/(15 a^3)) shv(x)."""
    coupling = _dipolar_prefactor(channel.gamma_i, channel.gamma_s, channel.constants)
    geometry = 16.0 * math.pi / (15.0 * channel.min_distance ** 3)
    return channel.concentration * coupling * geometry * spin_half_variance(channel.x)


@dataclass(frozen=True)
class NuclearImpurityChannel:
    """Dipolar noise from dilute host nuclear spins (e.g. the 29 isotope).

    Same geometry as the paramagnetic channel but the 4 pi/15 factor already
    folds in the spin-1/2 quarter, and the thermal factor is evaluated
    literally as 1 - tanh^2 of the full ratio at the nuclear spin
    temperature.  t_parallel_imp is the impurity longitudinal flip time.
    """

    concentration: float = 2.25e25
    field: float = 2.0
    spin_temperature: float = 0.8e-3
    t_parallel_imp: float = 1e4
    gamma_i: float = PHOSPHORUS_31.gamma
    gamma_imp: float = SILICON_29.gamma
    min_distance: float = SILICON.min_distance
    constants: PhysicalConstants = CONSTANTS

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.concentration < 0.0:
            raise ValueError("concentration must be nonnegative")
        if (
            self.spin_temperature <= 0.0
            or self.t_parallel_imp <= 0.0
            or self.min_distance <= 0.0
        ):
            raise ValueError(
                "spin_temperature, t_parallel_imp, min_distance must be positive"
            )
        if self.field < 0.0:
            raise ValueError("field must be nonnegative")

    @property
    def polarization_x(self) -> float:
        return boltzmann_ratio(
            self.gamma_imp, self.field, self.spin_temperature, self.constants
        )

    @property
    def polarized(self) -> bool:
        """Impurity Zeeman energy exceeds the spin temperature."""
        return self.polarization_x > 1.0


def nuclear_impurity_variance(channel: NuclearImpurityChannel) -> float:
    """C ((mu0/4pi) gamma_i gamma_imp hbar)^2 (4 pi/(15 a^3)) (1-tanh^2 x)."""
    coupling = _dipolar_prefactor(channel.gamma_i, channel.gamma_imp, channel.constants)
    geometry = 4.0 * math.pi / (15.0 * channel.min_distance ** 3)
    thermal = 1.0 - math.tanh(channel.polarization_x) ** 2
    return channel.concentration * coupling * geometry * thermal


def required_field_temperature_ratio(
    a0: float,
    target_dephasing_time: float,
    gamma_s: float = ELECTRON.gamma,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """B/T (in T/K) making the static hyperfine time reach the target.

    Solves a0^2 spin_half_variance(x) = target^-2 for x by bisection to
    1e-6 relative, then converts x back to a ratio.  Unattainable targets
    (faster than the unpolarized limit 2/a0) raise.
    """
    if a0 <= 0.0 or target_dephasing_time <= 0.0:
        raise ValueError("a0 and target_dephasing_time must be positive")
    target_variance = target_dephasing_time ** -2
    if target_variance > a0 ** 2 * 0.25:
        raise ThresholdUnattainableError(
            "target is below the unpolarized dephasing time 2/a0"
        )
    # Variance falls monotonically with x; find x where it crosses target.
    def excess(x: float) -> float:
        return target_variance - a0 ** 2 * spin_half_variance(x)

    hi = 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
    x_star = bisect_increasing(excess, 0.0, hi, rtol=1e-6)
    per_ratio = abs(gamma_s) * constants.hbar / constants.k_boltzmann
    return x_star / per_ratio


def max_paramagnetic_concentration(
    target_dephasing_time: float,
    field_temperature_ratio: float,
    gamma_i: float = PHOSPHORUS_31.gamma,
    gamma_s: float = ELECTRON.gamma,
    min_distance: float = SILICON.min_distance,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Largest impurity concentration (1/m^3) keeping the static time.

    The variance is linear in concentration, so the bound is a direct
    inversion at variance = target^-2.
    """
    if target_dephasing_time <= 0.0 or field_temperature_ratio < 0.0:
        raise ValueError("target must be positive and ratio nonnegative")
    x = abs(gamma_s) * constants.hbar * field_temperature_ratio / constants.k_boltzmann
    per_concentration = (
        _dipolar_prefactor(gamma_i, gamma_s, constants)
        * 16.0
        * math.pi
        / (15.0 * min_distance ** 3)
        * spin_half_variance(x)
    )
    return target_dephasing_time ** -2 / per_concentration


@dataclass(frozen=True)
class ConcentrationBound:
    """A concentration bound in absolute and per-site terms."""

    per_m3: float
    percent_of_sites: float


def max_nuclear_impurity_concentration(
    target_dephasing_time: float,
    field: float,
    spin_temperature: float,
    gamma_i: float = PHOSPHORUS_31.gamma,
    gamma_imp: float = SILICON_29.gamma,
    min_distance: float = SILICON.min_distance,
    constants: PhysicalConstants = CONSTANTS,
) -> ConcentrationBound:
    """Largest nuclear-impurity concentration keeping the static time."""
    if target_dephasing_time <= 0.0:
        raise ValueError("target_dephasing_time must be positive")
    x = boltzmann_ratio(gamma_imp, field, spin_temperature, constants)
    per_concentration = (
        _dipolar_prefactor(gamma_i, gamma_imp, constants)
        * 4.0
        * math.pi
        / (15.0 * min_distance ** 3)
        * (1.0 - math.tanh(x) ** 2)
    )
    per_m3 = target_dephasing_time ** -2 / per_concentration
    site_density = min_distance ** -3
    return ConcentrationBound(
        per_m3=per_m3, percent_of_sites=100.0 * per_m3 / site_density
    )


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
