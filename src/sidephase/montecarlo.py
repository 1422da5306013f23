"""Monte Carlo oracle: Ornstein-Uhlenbeck frequency noise, sampled exactly.

Each trajectory draws a stationary Gaussian start and then applies the
exact AR(1) update dw[k+1] = rho dw[k] + sqrt(variance (1 - rho^2)) xi[k]
with rho = exp(-dt/tau_c), so the discretization of the process itself is
bias-free at any step size.  The accumulated phase uses the trapezoid
rule, whose O((dt/tau_c)^2) bias is held far below statistical error by
the plan constraints.

Determinism: trajectory i draws from a dedicated stream spawned from
(master_seed, i), results land in slot i of preallocated arrays, and the
reduction runs over those arrays in fixed index order.  The outcome is
therefore byte-stable under any worker count or scheduling.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .dephasing import ExponentialCorrelation, gamma_exact

__all__ = [
    "SimulationPlan",
    "EnsembleCoherence",
    "CoherenceComparison",
    "PlanRejectedError",
    "DegenerateStatisticsError",
    "generate_trajectory",
    "accumulate_phase",
    "ensemble_coherence",
    "compare_to_analytic",
]

_MAX_SEED = 2 ** 64


class PlanRejectedError(ValueError):
    """Plan resolution is too coarse; carries the minimal adequate n_steps."""

    def __init__(self, message: str, required_n_steps: int) -> None:
        super().__init__(message)
        self.required_n_steps = required_n_steps


class DegenerateStatisticsError(RuntimeError):
    """Zero spread with nonzero deviation; z-scores are meaningless."""


@dataclass(frozen=True)
class SimulationPlan:
    """Grid and ensemble sizes for one Ornstein-Uhlenbeck run.

    Rejected at construction unless dt = t_max/n_steps resolves both the
    correlation time (dt <= tau_c/20) and the per-step phase increment
    (dt <= 0.05/sqrt(variance)).
    """

    correlation: ExponentialCorrelation
    t_max: float
    n_steps: int
    n_trajectories: int
    master_seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if self.n_steps < 1 or self.n_trajectories < 1:
            raise ValueError("n_steps and n_trajectories must be at least 1")
        if not 0 <= self.master_seed < _MAX_SEED:
            raise ValueError("master_seed must fit in 64 bits")
        dt_max = math.inf
        if not self.correlation.is_static:
            dt_max = self.correlation.tau_c / 20.0
        if self.correlation.variance > 0.0:
            dt_max = min(dt_max, 0.05 / math.sqrt(self.correlation.variance))
        if self.dt > dt_max:
            required = math.ceil(self.t_max / dt_max)
            raise PlanRejectedError(
                f"dt = {self.dt:.6g} s is too coarse; use n_steps >= {required}",
                required_n_steps=required,
            )

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps


def _trajectory_rng(plan: SimulationPlan, index: int) -> np.random.Generator:
    # Counter-based stream splitting: (seed, index) -> independent stream,
    # insensitive to the order trajectories are generated in.
    seq = np.random.SeedSequence(entropy=plan.master_seed, spawn_key=(index,))
    return np.random.default_rng(seq)


def generate_trajectory(plan: SimulationPlan, index: int) -> np.ndarray:
    """Frequency-offset samples at the n_steps + 1 grid times.

    Starts from the stationary distribution; the AR(1) step is exact, so
    lag-k covariances match variance * rho^k at any dt.  A static
    correlation (rho = 1, zero innovation) yields one frozen value.
    """
    if not 0 <= index < plan.n_trajectories:
        raise ValueError("trajectory index out of range")
    rng = _trajectory_rng(plan, index)
    draws = rng.standard_normal(plan.n_steps + 1)
    variance = plan.correlation.variance
    if variance == 0.0:
        return np.zeros(plan.n_steps + 1)
    rho = math.exp(-plan.dt / plan.correlation.tau_c)
    x = np.empty(plan.n_steps + 1)
    x[0] = math.sqrt(variance) * draws[0]
    x[1:] = math.sqrt(variance * (1.0 - rho * rho)) * draws[1:]
    return lfilter([1.0], [1.0, -rho], x)


def accumulate_phase(delta_omega: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid cumulative integral of the frequency offset; phase[0] = 0."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    inner = 0.5 * (delta_omega[..., :-1] + delta_omega[..., 1:])
    phase = np.empty_like(delta_omega)
    phase[..., 0] = 0.0
    np.cumsum(inner, axis=-1, out=phase[..., 1:])
    phase[..., 1:] *= dt
    return phase


@dataclass(frozen=True, eq=False)
class EnsembleCoherence:
    """Ensemble averages of exp(i phase) on the output grid.

    std_error is the standard error of the real part (the component the
    envelope comparison is sensitive to); im_std_error covers the
    imaginary part, which should be consistent with zero.  The squared
    phase is tracked alongside because <phase^2>/2 estimates Gamma
    directly, independent of the envelope.
    """

    times: np.ndarray
    mean_coherence: np.ndarray
    std_error: np.ndarray
    im_std_error: np.ndarray
    mean_phase_sq: np.ndarray
    std_error_phase_sq: np.ndarray
    n_trajectories: int

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in (
            "mean_coherence",
            "std_error",
            "im_std_error",
            "mean_phase_sq",
            "std_error_phase_sq",
        ):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length must match times")
        magnitude = np.abs(self.mean_coherence)
        if np.any(magnitude > 1.0 + 3.0 * self.std_error + 1e-12):
            raise ValueError("mean coherence magnitude exceeds 1 beyond noise")


def _output_indices(n_steps: int, n_grid: int) -> np.ndarray:
    if not 1 <= n_grid <= n_steps:
        raise ValueError("n_grid must be between 1 and n_steps")
    return np.round(np.linspace(0, n_steps, n_grid + 1)).astype(int)[1:]


def ensemble_coherence(
    plan: SimulationPlan,
    n_grid: int = 50,
    n_workers: int = 1,
) -> EnsembleCoherence:
    """Run the full ensemble and reduce it on n_grid output times.

    Workers only fill disjoint, index-addressed rows; the reduction is a
    single fixed-order pass over the completed arrays, so results do not
    depend on n_workers, which is capped at the CPU count.
    """
    grid_idx = _output_indices(plan.n_steps, n_grid)
    dt = plan.dt
    phasors = np.empty((plan.n_trajectories, n_grid), dtype=complex)
    phase_sq = np.empty((plan.n_trajectories, n_grid))

    def fill(index: int) -> None:
        trajectory = generate_trajectory(plan, index)
        phase = accumulate_phase(trajectory, dt)[grid_idx]
        phasors[index] = np.exp(1j * phase)
        phase_sq[index] = phase * phase

    n_workers = min(n_workers, os.cpu_count() or 1)
    if n_workers <= 1:
        for i in range(plan.n_trajectories):
            fill(i)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            # consume the iterator to surface worker exceptions
            list(pool.map(fill, range(plan.n_trajectories)))

    root_n = math.sqrt(plan.n_trajectories)
    ddof = 1 if plan.n_trajectories > 1 else 0
    return EnsembleCoherence(
        times=grid_idx * dt,
        mean_coherence=phasors.mean(axis=0),
        std_error=phasors.real.std(axis=0, ddof=ddof) / root_n,
        im_std_error=phasors.imag.std(axis=0, ddof=ddof) / root_n,
        mean_phase_sq=phase_sq.mean(axis=0),
        std_error_phase_sq=phase_sq.std(axis=0, ddof=ddof) / root_n,
        n_trajectories=plan.n_trajectories,
    )


@dataclass(frozen=True, eq=False)
class CoherenceComparison:
    """Per-time comparison of |mean coherence| against exp(-Gamma)."""

    times: np.ndarray
    abs_mean: np.ndarray
    analytic_envelope: np.ndarray
    std_error: np.ndarray
    z_scores: np.ndarray

    @property
    def max_z(self) -> float:
        return float(np.max(self.z_scores))


def compare_to_analytic(
    result: EnsembleCoherence,
    correlation: ExponentialCorrelation,
) -> CoherenceComparison:
    """z-score the simulated envelope against the closed form.

    Zero standard error is tolerated only where the deviation also
    vanishes (exact replay); otherwise statistics are degenerate.
    """
    envelope = np.array(
        [math.exp(-gamma_exact(correlation, t)) for t in result.times]
    )
    abs_mean = np.abs(result.mean_coherence)
    deviation = np.abs(abs_mean - envelope)
    z = np.empty_like(deviation)
    zero_spread = result.std_error == 0.0
    bad = zero_spread & (deviation > 1e-12)
    if np.any(bad):
        raise DegenerateStatisticsError(
            "zero standard error with nonzero deviation from the envelope"
        )
    z[zero_spread] = 0.0
    z[~zero_spread] = deviation[~zero_spread] / result.std_error[~zero_spread]
    return CoherenceComparison(
        times=result.times.copy(),
        abs_mean=abs_mean,
        analytic_envelope=envelope,
        std_error=result.std_error.copy(),
        z_scores=z,
    )
