"""Coherent single-qubit errors across an ensemble register.

A small real error vector e = (ex, ey, ez) perturbs the identity into the
exact unitary U = (I + i e.sigma)/sqrt(1 + |e|^2).  Applied to |0>, it
mixes in |1> with probability p = (ex^2 + ey^2)/(1 + |e|^2); averaging
over a register whose members drew different e gives a partially
decohered mean state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import _MAX_SEED, index_normals, standard_error
from .qubit import DensityMatrix, _density, fidelity

__all__ = [
    "ErrorSampler",
    "EnsembleErrorReport",
    "error_unitary",
    "perturbed_ground_state",
    "error_probability",
    "error_phase",
    "ground_fidelity",
    "ensemble_average_state",
]

GROUND = DensityMatrix(1.0 + 0.0j, 0.0j, 0.0j, 0.0j)


def _norm_factor(e: tuple[float, float, float]) -> float:
    ex, ey, ez = e
    return 1.0 + ex * ex + ey * ey + ez * ez


def error_unitary(e: tuple[float, float, float]) -> np.ndarray:
    """(I + i e.sigma) / sqrt(1 + |e|^2), exactly unitary; (2, 2, n) for n copies."""
    ex, ey, ez = e
    scale = 1.0 / np.sqrt(_norm_factor(e))
    return scale * np.array(
        [
            [1.0 + 1j * ez, 1j * ex + ey],
            [1j * ex - ey, 1.0 - 1j * ez],
        ]
    )


def _ground_entries(e: tuple[float, float, float]) -> tuple:
    """rho00, rho11 and rho01's real and imaginary parts of U |0><0| U-dagger.

    Each is a real product sum of column 0's real and imaginary parts; rho10
    is the conjugate of rho01.  Real multiplies and adds round alike on every
    numpy SIMD path, where the complex multiply does not (with numpy 2.4,
    rho00's imaginary part came out 1e-20 on the AVX2 and AVX-512 loops and
    0 on the baseline ones), so the bits do not depend on the dispatch.
    Floats for one e, arrays of n for n copies.
    """
    column = error_unitary(e)[:, 0]
    re, im = column.real, column.imag
    return (
        re[0] * re[0] + im[0] * im[0],
        re[1] * re[1] + im[1] * im[1],
        re[0] * re[1] + im[0] * im[1],
        im[0] * re[1] - re[0] * im[1],
    )


def perturbed_ground_state(e: tuple[float, float, float]) -> DensityMatrix:
    """U |0><0| U-dagger as a validated density matrix."""
    rho00, rho11, re01, im01 = _ground_entries(e)
    return _density(rho00, rho11, complex(re01, im01))


def error_probability(e: tuple[float, float, float]) -> float:
    """Excited-state admixture p = (ex^2 + ey^2)/(1 + |e|^2)."""
    ex, ey, _ = e
    return (ex * ex + ey * ey) / _norm_factor(e)


def error_phase(e: tuple[float, float, float]) -> float:
    """Transverse-component phase, atan2(ex ey + ez, ex ez - ey).

    Defined as 0 when both arguments vanish (purely x-type errors).
    """
    ex, ey, ez = e
    num = ex * ey + ez
    den = ex * ez - ey
    if num == 0.0 and den == 0.0:
        return 0.0
    return math.atan2(num, den)


def ground_fidelity(e: tuple[float, float, float]) -> float:
    """Overlap of the perturbed state with |0>; equals 1 - p."""
    return fidelity(perturbed_ground_state(e), GROUND)


@dataclass(frozen=True)
class ErrorSampler:
    """Zero-mean Gaussian error vectors with per-axis widths sigma.

    Copy i is sigma times row i of montecarlo.index_normals(seed, ...), the
    stream definition the trajectory ensemble uses too: the Philox stream
    keyed by the seed whose counter starts at (0, i, 0, 0).  Sampling can
    therefore be partitioned arbitrarily without changing any draw.
    """

    sigma: tuple[float, float, float]
    seed: int

    def __post_init__(self) -> None:
        if not all(0.0 <= s < math.inf for s in self.sigma):
            raise ValueError("sigma components must be finite and nonnegative")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in 64 bits")

    def sample(self, index: int) -> tuple[float, float, float]:
        draws = index_normals(self.seed, index, index + 1, 3)[0]
        return tuple(np.asarray(self.sigma) * draws)


@dataclass(frozen=True)
class EnsembleErrorReport:
    """Register-averaged state and error-probability statistics."""

    state: DensityMatrix
    n: int
    mean_error_probability: float
    stderr_error_probability: float
    offdiag_magnitude: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mean_p": self.mean_error_probability,
            "stderr_p": self.stderr_error_probability,
            "avg_offdiag_magnitude": self.offdiag_magnitude,
            "diag": [self.state.rho00.real, self.state.rho11.real],
        }


def ensemble_average_state(sampler: ErrorSampler, n: int) -> EnsembleErrorReport:
    """Average the perturbed ground states of copies 0..n-1 of the sampler.

    The copies are drawn as one block and averaged as arrays: the mean of
    perturbed_ground_state(sampler.sample(i)) over i, entry by entry of
    _ground_entries, so the bits do not depend on numpy's SIMD dispatch.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    e = tuple((np.asarray(sampler.sigma) * index_normals(sampler.seed, 0, n, 3)).T)
    rho00, rho11, re01, im01 = (entry.mean() for entry in _ground_entries(e))
    probabilities = error_probability(e)
    averaged = _density(rho00, rho11, complex(re01, im01))
    return EnsembleErrorReport(
        state=averaged,
        n=n,
        mean_error_probability=float(probabilities.mean()),
        stderr_error_probability=float(standard_error(probabilities)),
        offdiag_magnitude=abs(averaged.rho01),
    )
