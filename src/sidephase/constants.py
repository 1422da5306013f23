"""Physical constants, spin species, and silicon material parameters.

Everything downstream computes in SI (m, s, K, T, J, angular frequencies in
rad/s).  Published source values quoted in mixed CGS units are converted once
here, so no formula elsewhere carries stray powers of ten.

Each registry field that has a unit carries it in its field metadata
(`_si`); `sidephase constants` prints those units, so they are written
nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field

__all__ = [
    "PhysicalConstants",
    "SpinSpecies",
    "MaterialParams",
    "CONSTANTS",
    "ELECTRON",
    "PHOSPHORUS_31",
    "SILICON_29",
    "SPECIES",
    "SILICON",
    "NATURAL_SI29_ABUNDANCE_PERCENT",
    "boltzmann_ratio",
    "spin_half_variance",
    "spin_half_variance_full_arg",
]

# Natural abundance of the spin-1/2 silicon isotope, percent of lattice sites.
# Reference point for impurity-concentration bounds (isotopic purification).
NATURAL_SI29_ABUNDANCE_PERCENT = 4.7


def _si(unit: str, default=MISSING):
    """A dataclass field whose metadata holds its SI unit."""
    return field(default=default, metadata={"unit": unit})


def _require_domain(record, nonnegative: tuple[str, ...] = ()) -> None:
    """The input rule of every parameter record, registry and channel alike.

    Each field is a number that must be finite and positive, or
    nonnegative if named in `nonnegative`.  The comparisons are negated,
    so NaN fails them.  A valid record costs one pass over its fields; an
    invalid one is refused naming its non-finite fields together, else its
    first field out of range.
    """
    values = vars(record)
    for value in values.values():
        if not 0.0 < value < math.inf:
            break
    else:
        return
    nonfinite = [name for name, value in values.items() if not math.isfinite(value)]
    if nonfinite:
        raise ValueError(f"{', '.join(nonfinite)} must be finite")
    for name, value in values.items():
        kind = "nonnegative" if name in nonnegative else "positive"
        if not (value >= 0.0 if name in nonnegative else value > 0.0):
            raise ValueError(f"{name} must be {kind}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants, fixed at the rounded values the estimates use.

    hbar is per radian, matching angular frequencies in rad/s.
    """

    hbar: float = _si("J s", default=1.05e-34)
    k_boltzmann: float = _si("J/K", default=1.38e-23)
    mu0_over_4pi: float = _si("T^2 m^3/J", default=1e-7)

    def __post_init__(self) -> None:
        _require_domain(self)


@dataclass(frozen=True)
class SpinSpecies:
    """A spin-1/2 species with its gyromagnetic ratio.

    gamma is signed.  Every variance formula squares it and every
    threshold uses |gamma|, so the sign is carried only for documentation.
    """

    name: str
    gamma: float = _si("rad/s/T")
    spin: float = 0.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma) or self.gamma == 0.0:
            raise ValueError("gamma must be finite and nonzero")
        if self.spin != 0.5:
            raise ValueError("only spin-1/2 species are supported")


@dataclass(frozen=True)
class MaterialParams:
    """Host-lattice parameters.

    lattice_constant is the cubic cell edge, atom_mass is in kg written as
    J s^2/m^2, hyperfine_constant is the contact coupling A0, site_density
    (atoms per volume) is quoted independently of the lattice constant (the
    two disagree, see the audit), and xi is the phonon-coupling factor,
    worst case 1.
    """

    debye_temperature: float = _si("K")
    lattice_constant: float = _si("m")
    sound_velocity: float = _si("m/s")
    atom_mass: float = _si("J s^2/m^2")
    hyperfine_constant: float = _si("rad/s")
    site_density: float = _si("1/m^3")
    xi: float = _si("dimensionless", default=1.0)

    def __post_init__(self) -> None:
        _require_domain(self)

    @property
    def min_distance(self) -> float:
        """Dipolar cutoff distance: cube root of the per-site volume, m."""
        return (1.0 / self.site_density) ** (1.0 / 3.0)


CONSTANTS = PhysicalConstants()

ELECTRON = SpinSpecies("electron", 176e9)
PHOSPHORUS_31 = SpinSpecies("31P", 108e6)
SILICON_29 = SpinSpecies("29Si", -53e6)

SPECIES: dict[str, SpinSpecies] = {
    s.name: s for s in (ELECTRON, PHOSPHORUS_31, SILICON_29)
}

# Printed in mixed CGS units, each converted to SI by its factor here only.
# The electron T1 (~1e4 s at low temperature) is not a material parameter:
# it is the hyperfine channel's correlation time, tau1.
SILICON = MaterialParams(
    debye_temperature=625.0,  # Theta = 625 K
    lattice_constant=5.4e-8 * 1e-2,  # a = 5.4e-8 cm
    sound_velocity=5e5 * 1e-2,  # v = 5e5 cm/s
    atom_mass=0.46e-29 * 1e4,  # M = 0.46e-29 J s^2/cm^2
    hyperfine_constant=725e6,  # A0 = 725 rad MHz
    site_density=5.0e22 * 1e6,  # a^-3 = 5.0e22 cm^-3
    xi=1.0,
)


def boltzmann_ratio(gamma: float, field: float, temperature: float) -> float:
    """Zeeman-to-thermal energy ratio x = |gamma| hbar B / (k T).

    Parameters
    ----------
    gamma : rad/s/T, sign ignored, must be finite.
    field : T, must be >= 0.
    temperature : K, must be > 0.

    Where k T underflows to 0 the ratio is beyond float range: inf, or 0
    at zero field.
    """
    if not abs(gamma) < math.inf:  # NaN too
        raise ValueError("gamma must be finite")
    if not temperature > 0.0:
        raise ValueError("temperature must be positive")
    if not field >= 0.0:
        raise ValueError("field must be nonnegative")
    zeeman = abs(gamma) * CONSTANTS.hbar * field
    thermal = CONSTANTS.k_boltzmann * temperature
    if thermal == 0.0:
        return math.inf if zeeman > 0.0 else 0.0
    return zeeman / thermal


def spin_half_variance(x: float) -> float:
    """Thermal variance of a spin-1/2 z component, sech^2(x/2)/4.

    Evaluated as w/(1+w)^2 with w = exp(-x), which never suffers the
    tanh(x/2) -> 1 cancellation and decays like exp(-x) for large x.
    Equals 1/4 at x = 0 and is strictly decreasing.
    """
    if not x >= 0.0:
        raise ValueError("x must be nonnegative")
    w = math.exp(-x)
    return w / (1.0 + w) ** 2


def spin_half_variance_full_arg(x: float) -> float:
    """Variant with tanh of the full ratio: (1 - tanh^2(x))/4 = sech^2(x)/4.

    Not the spin-1/2 variance at the ratio x (that is the halved-argument
    form): the two differ as exp(-2x) versus exp(-x) in the polarized
    limit, which the audit contrasts.  It is the nuclear impurity channel's
    thermal factor, and like spin_half_variance it never cancels.
    """
    return spin_half_variance(2.0 * x)
