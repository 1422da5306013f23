"""Single-qubit states on the Bloch sphere and their pure-dephasing maps.

Pure dephasing multiplies the density-matrix off-diagonals by exp(-Gamma)
and leaves populations untouched; the helpers here build the 2x2 matrices,
apply the attenuation, and give the closed-form spectra and fidelities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "BlochState",
    "DensityMatrix",
    "density_from_bloch",
    "apply_dephasing",
    "dephased_eigenvalues",
    "limiting_populations",
    "fidelity",
]

_TOL = 1e-12


@dataclass(frozen=True)
class BlochState:
    """Polarization vector (px, py, pz); norm must not exceed 1."""

    px: float
    py: float
    pz: float

    def __post_init__(self) -> None:
        if not self.norm_sq <= 1.0 + _TOL:
            raise ValueError("Bloch vector norm exceeds 1")

    @property
    def norm_sq(self) -> float:
        return self.px * self.px + self.py * self.py + self.pz * self.pz


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 density matrix entries; validated Hermitian, unit-trace, PSD."""

    rho00: complex
    rho01: complex
    rho10: complex
    rho11: complex

    def __post_init__(self) -> None:
        # Negated comparisons, so that a NaN entry fails them.
        if not abs(self.rho10 - self.rho01.conjugate()) <= _TOL:
            raise ValueError("matrix is not Hermitian")
        if not (abs(self.rho00.imag) <= _TOL and abs(self.rho11.imag) <= _TOL):
            raise ValueError("diagonal entries must be real")
        if not abs(self.rho00 + self.rho11 - 1.0) <= _TOL:
            raise ValueError("trace must be 1")
        if not min(self.eigenvalues()) >= -_TOL:
            raise ValueError("matrix is not positive semidefinite")

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues (descending) from the 2x2 Hermitian closed form."""
        half_trace = 0.5 * (self.rho00.real + self.rho11.real)
        half_gap = 0.5 * (self.rho00.real - self.rho11.real)
        radius = math.hypot(half_gap, abs(self.rho01))
        return (half_trace + radius, half_trace - radius)

    def as_rows(self) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        return ((self.rho00, self.rho01), (self.rho10, self.rho11))


def _density(rho00: float, rho11: float, rho01: complex) -> DensityMatrix:
    """The density matrix with populations rho00, rho11 and off-diagonal rho01."""
    return DensityMatrix(complex(rho00), rho01, rho01.conjugate(), complex(rho11))


def density_from_bloch(state: BlochState, phase: float = 0.0) -> DensityMatrix:
    """Density matrix for polarization (px, py, pz) with precession phase.

    Off-diagonals are (px -+ i py)/2 rotated by exp(+-i phase).
    """
    if not abs(phase) < math.inf:  # NaN too
        raise ValueError("phase must be finite")
    p_minus = complex(state.px, -state.py)
    return _density(*limiting_populations(state), 0.5 * p_minus * cmath.exp(1j * phase))


def apply_dephasing(state: BlochState, gamma: float) -> DensityMatrix:
    """Attenuate the off-diagonals of the state's matrix by exp(-gamma)."""
    if not gamma >= 0.0:
        raise ValueError("gamma must be nonnegative")
    damp = math.exp(-gamma)
    return _density(*limiting_populations(state), 0.5 * complex(state.px, -state.py) * damp)


def dephased_eigenvalues(state: BlochState, gamma: float) -> tuple[float, float]:
    """Closed-form eigenvalues of a dephased pure state.

    (1 +- sqrt(1 - (px^2 + py^2)(1 - exp(-2 gamma))))/2.  Valid only for
    |P| = 1; mixed inputs must go through the generic eigensolver instead.
    """
    if abs(state.norm_sq - 1.0) > 1e-10:
        raise ValueError(
            "closed form requires a unit Bloch vector; "
            "use DensityMatrix.eigenvalues for mixed states"
        )
    if not gamma >= 0.0:
        raise ValueError("gamma must be nonnegative")
    transverse = state.px * state.px + state.py * state.py
    radicand = 1.0 - transverse * (-math.expm1(-2.0 * gamma))
    root = math.sqrt(max(radicand, 0.0))
    return (0.5 * (1.0 + root), 0.5 * (1.0 - root))


def limiting_populations(state: BlochState) -> tuple[float, float]:
    """Fully dephased (gamma -> inf) eigenvalues: (1 +- pz)/2."""
    return (0.5 * (1.0 + state.pz), 0.5 * (1.0 - state.pz))


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """trace(a b), exact for 2x2; real up to rounding for Hermitian inputs."""
    value = (
        a.rho00 * b.rho00
        + a.rho01 * b.rho10
        + a.rho10 * b.rho01
        + a.rho11 * b.rho11
    )
    if abs(value.imag) > _TOL:
        raise ValueError("trace product has a non-negligible imaginary part")
    return value.real
