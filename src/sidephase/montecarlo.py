"""Monte Carlo oracle: Ornstein-Uhlenbeck frequency noise, sampled exactly.

The frequency offset dw is an Ornstein-Uhlenbeck process of variance
sigma^2 and correlation time tau_c, and the phase is its time integral.
Over an interval h the pair (dw, phase) has exact Gaussian transitions
(D. T. Gillespie, Phys. Rev. E 54, 2084 (1996)).  With x = h/tau_c,
rho = exp(-x) and independent standard normals xi1, xi2:

    dw'    = rho dw + sigma sqrt(1 - rho^2) xi1
    phase' = phase + tau_c (1 - rho) dw + c xi1 + d xi2
    c      = sigma tau_c (1 - rho) sqrt(tanh(x/2))
    d^2    = sigma^2 tau_c^2 q(x),  q(x) = 2 (x - 2 tanh(x/2))

These follow from the SDE alone, never from the closed-form Gamma that
compare_to_analytic scores the ensemble against.  ensemble_coherence
applies them once per output interval, so a trajectory costs one
stationary draw plus two per output time, 2 n_grid + 1 in all, whatever
n_steps is, with neither discretization nor quadrature bias.  Static
noise (tau_c = inf) is rho = 1 with phase' = phase + h dw.

generate_trajectory and accumulate_phase are the stepwise reference: the
exact AR(1) update on the n_steps grid and the trapezoid phase, whose
O((dt/tau_c)^2) bias the plan constraints hold far below statistical
error.  They sample the same process independently of the exact update.

Determinism: trajectory i draws from its own stream, row i of
index_normals(master_seed, ...), which defines the register's stream too:
one Philox key per run, and index i's counter starts at (0, i, 0, 0).
Trajectories are sampled in one thread, in fixed blocks of _BLOCK = 1024
indices that bound the draw buffer, and each block writes its phases
straight into its rows of one (n, G) array.  Only after the last block is
the ensemble reduced, one part at a time through one more (n, G) array:
the phases' sines, then their cosines, then the phases squared in place.
So the draw buffer never lives beside the parts, and no two parts live at
once.  Each part is reduced in its own memory (_column_statistics): its
column sums, then its deviations from the column means, written over it,
squared in place and summed.  These are the calls numpy's std makes on an
array of that shape, so the bits are those of sum and standard_error at
any G.  The peak memory is the phases and the part, 2 n G 8 bytes; a
single column adds its n complex phasors, 16 n bytes, summed as complex
because numpy pairs a complex column's parts unlike a real column's.
The cosines and sines are the platform libm's, so they are the bits of
exp(1j phase) wherever the complex exp takes its parts from the same cos
and sin, as glibc's does (tests/test_sampler_blocks.py checks it).  The
one exception, phase = -0.0, where sin keeps the sign and exp does not,
never occurs: phases start at +0.0, and a rounded sum is -0.0 only when
both its terms are.
Each row resets one Philox generator's counter by handing it a state dict
of Python ints, which its state setter reads without boxing a numpy
scalar per word (see index_normals).  The reset and the draw hold the
GIL, so threads would add code and no speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from .dephasing import ExponentialCorrelation, coherence_envelope

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
    "index_normals",
    "standard_error",
]

_MAX_SEED = 2 ** 64
# Above 2**53 steps, grid indices are no longer exact in float arithmetic.
_MAX_STEPS = 2 ** 53
# Trajectories per draw buffer.
_BLOCK = 1024
# Below this x = h/tau_c, q(x) = 2 (x - 2 tanh(x/2)) loses digits to
# cancellation (3e-12 relative at x = 0.03) and its Taylor series in
# x^3, x^5, ..., x^11 is summed instead; at the switch each branch is
# within 3e-13 of the exact value.
_Q_SERIES_SWITCH = 0.1
_Q_SERIES = (1 / 6, -1 / 60, 17 / 10080, -31 / 181440, 691 / 39916800)


class PlanRejectedError(ValueError):
    """Plan resolution is too coarse; carries the minimal adequate n_steps.

    required_n_steps is an int, or math.inf when the count overflows a float
    or the step limit underflows to 0 s.
    """

    def __init__(self, message: str, required_n_steps: int | float) -> None:
        super().__init__(message)
        self.required_n_steps = required_n_steps


class DegenerateStatisticsError(RuntimeError, ValueError):
    """Zero spread with nonzero deviation; z-scores are meaningless.

    A RuntimeError, and a ValueError so that the CLI reports it as it
    reports every other bad input: exit 2.
    """


@dataclass(frozen=True)
class SimulationPlan:
    """Grid and ensemble sizes for one Ornstein-Uhlenbeck run.

    Rejected at construction unless dt = t_max/n_steps resolves both the
    correlation time (dt <= tau_c/20) and the per-step phase increment
    (dt <= 0.05/sqrt(variance)).  Only the stepwise reference needs that
    resolution; the exact sampler keeps it as the plan contract.  When no
    n_steps up to 2**53 would do, the message asks for a shorter t_max.  A
    dt that underflows to 0 s is refused as a bad argument.
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
        if self.n_steps > _MAX_STEPS:
            raise ValueError("n_steps must be at most 2**53")
        if not 0 <= self.master_seed < _MAX_SEED:
            raise ValueError("master_seed must fit in 64 bits")
        if self.dt == 0.0:
            raise ValueError("dt = t_max/n_steps underflows to 0 s; raise t_max or lower n_steps")
        # inf for static noise, whose tau_c is inf.
        dt_max = self.correlation.tau_c / 20.0
        if self.correlation.variance > 0.0:
            dt_max = min(dt_max, 0.05 / math.sqrt(self.correlation.variance))
        if self.dt > dt_max:
            # A limit that underflows to 0 s leaves no positive dt fine enough.
            steps = self.t_max / dt_max if dt_max > 0.0 else math.inf
            required = math.ceil(steps) if math.isfinite(steps) else math.inf
            advice = f"use n_steps >= {required}"
            if dt_max == 0.0:
                advice = "tau_c/20 underflows to 0 s; no n_steps resolves it"
            elif steps > _MAX_STEPS:
                count = Decimal(self.t_max) / Decimal(dt_max)
                advice = f"needs ~{count:.3g} steps; shorten t_max"
            raise PlanRejectedError(
                f"dt = {self.dt:.6g} s is too coarse; {advice}",
                required_n_steps=required,
            )

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps


def index_normals(seed: int, lo: int, hi: int, width: int) -> np.ndarray:
    """Standard normals of indices lo..hi-1, one row of width draws each.

    Row i - lo is the start of index i's own counter-based stream,
    Generator(Philox(key=K, counter=[0, i, 0, 0])) with the run key
    K = SeedSequence(seed).generate_state(2, np.uint64).  A draw depends
    only on (seed, i): never on the block or the sampling order.
    Consecutive indices start 2**64 Philox blocks apart, so rows never
    overlap.  One generator serves the whole block; each row sets its
    counter in one state dict and hands that dict back, which also
    discards the buffered words.  The dict holds Python ints, not uint64
    arrays: the state setter reads its words one by one, and each read
    from an array boxes a numpy scalar first, which more than doubles the
    cost of the reset.
    """
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    bit_generator = np.random.Philox(key=key)
    normal = np.random.Generator(bit_generator).standard_normal
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key.tolist()},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    draws = np.empty((hi - lo, width))
    for row, index in zip(draws, range(lo, hi)):
        counter[1] = index
        bit_generator.state = state
        normal(out=row)
    return draws


def standard_error(samples: np.ndarray) -> np.ndarray:
    """Standard error of the mean over axis 0, the ensemble axis."""
    n = len(samples)
    return samples.std(axis=0, ddof=1 if n > 1 else 0) / math.sqrt(n)


def _column_statistics(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column sums and standard_error of a 2-D array, in the array's memory.

    These are the calls numpy's std makes, in its order and on an array of
    the same shape, so the standard errors have standard_error's bits at
    every width; only the deviations are written over samples, which is
    left holding their squares.
    """
    n = len(samples)
    sums = samples.sum(axis=0)
    deviations = np.subtract(samples, sums / n, out=samples)
    np.multiply(deviations, deviations, out=deviations)
    variance = deviations.sum(axis=0) / (n - 1 if n > 1 else n)
    return sums, np.sqrt(variance, out=variance) / math.sqrt(n)


def generate_trajectory(plan: SimulationPlan, index: int) -> np.ndarray:
    """Frequency-offset samples at the n_steps + 1 grid times.

    Starts from the stationary distribution; the AR(1) step is exact, so
    lag-k covariances match variance * rho^k at any dt.  A static
    correlation (rho = 1, zero innovation) yields one frozen value.
    """
    # Imported here, not at module level: scipy.signal takes most of a
    # second to import, and no CLI path calls this stepwise reference.
    from scipy.signal import lfilter

    if not 0 <= index < plan.n_trajectories:
        raise ValueError("trajectory index out of range")
    draws = index_normals(plan.master_seed, index, index + 1, plan.n_steps + 1)[0]
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


def _q(x: float) -> float:
    """q(x) = 2 (x - 2 tanh(x/2)): phase-noise variance over (sigma tau_c)^2."""
    if x < _Q_SERIES_SWITCH:
        x2 = x * x
        total = 0.0
        for coefficient in reversed(_Q_SERIES):
            total = total * x2 + coefficient
        return total * x * x2
    return 2.0 * (x - 2.0 * math.tanh(0.5 * x))


class _Transition(NamedTuple):
    """Exact update of (dw, phase) over one interval; see the module doc."""

    rho: float
    omega_noise: float
    drift: float
    cross: float
    phase_noise: float


def _transition(correlation: ExponentialCorrelation, h: float) -> _Transition:
    """The update's coefficients for an interval of length h."""
    if correlation.is_static:
        return _Transition(1.0, 0.0, h, 0.0, 0.0)
    sigma = math.sqrt(correlation.variance)
    tau_c = correlation.tau_c
    x = h / tau_c
    drift = -tau_c * math.expm1(-x)  # tau_c (1 - rho)
    if sigma * tau_c < math.inf:
        phase_noise = sigma * tau_c * math.sqrt(_q(x))
    else:
        # Not inf * 0 = NaN where q(x) underflows.
        phase_noise = sigma * (tau_c * math.sqrt(_q(x)))
    return _Transition(
        rho=math.exp(-x),
        omega_noise=sigma * math.sqrt(-math.expm1(-2.0 * x)),
        drift=drift,
        cross=sigma * drift * math.sqrt(math.tanh(0.5 * x)),
        phase_noise=phase_noise,
    )


def _sample_phases(
    plan: SimulationPlan,
    transitions: list[_Transition],
    lo: int,
    hi: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Phases of trajectories lo..hi-1 at the output times, one row each.

    Row i of the draws is trajectory i's stream: the stationary dw, then
    (xi1, xi2) per interval.  The update runs across the rows at once.
    The phases go into out, shape (hi - lo, len(transitions)), when given;
    otherwise into a new array.
    """
    draws = index_normals(plan.master_seed, lo, hi, 2 * len(transitions) + 1)
    omega = math.sqrt(plan.correlation.variance) * draws[:, 0]
    phase = np.zeros(hi - lo)
    phases = np.empty((hi - lo, len(transitions))) if out is None else out
    for k, step in enumerate(transitions):
        xi1, xi2 = draws[:, 2 * k + 1], draws[:, 2 * k + 2]
        phase = phase + step.drift * omega + step.cross * xi1 + step.phase_noise * xi2
        omega = step.rho * omega + step.omega_noise * xi1
        phases[:, k] = phase
    return phases


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


def ensemble_coherence(plan: SimulationPlan, n_grid: int = 50) -> EnsembleCoherence:
    """Sample the ensemble exactly on n_grid output times and reduce it.

    The blocks of 1024 trajectories write their phases into their rows of
    phases, in one thread.  After the last block the three parts are
    reduced one at a time through one buffer of the ensemble's size: the
    sines of the phases give the imaginary parts' sums and errors, their
    cosines, formed in the same buffer, the real parts', and the phases,
    squared in place, the phase variance's.  Each part's deviations are
    written over the part itself, so the peak memory is the phases and the
    part buffer, and for a single column its complex phasors.
    """
    grid_idx = _output_indices(plan.n_steps, n_grid)
    dt = plan.dt
    steps = np.diff(grid_idx, prepend=0).tolist()
    transitions = [_transition(plan.correlation, s * dt) for s in steps]
    n = plan.n_trajectories
    phases = np.empty((n, n_grid))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        _sample_phases(plan, transitions, lo, hi, out=phases[lo:hi])
    # numpy sums one column pairwise, and pairs a complex column's parts
    # unlike a real one's: a single column's phasors are summed as complex.
    phasors = np.empty((n, 1), dtype=complex) if n_grid == 1 else None
    part = np.sin(phases)
    if phasors is not None:
        phasors.imag = part
    im_sum, im_std_error = _column_statistics(part)
    np.cos(phases, out=part)
    if phasors is not None:
        phasors.real = part
    re_sum, std_error = _column_statistics(part)
    sq_sum, std_error_phase_sq = _column_statistics(np.multiply(phases, phases, out=phases))
    if phasors is not None:
        mean = phasors.sum(axis=0)
    else:
        mean = np.empty(n_grid, dtype=complex)
        mean.real, mean.imag = re_sum, im_sum
    # Divided as a complex array, as numpy's mean divides: complex / n
    # multiplies both parts by 1/n, which can differ from re_sum / n.
    np.true_divide(mean, n, out=mean)

    return EnsembleCoherence(
        times=grid_idx * dt,
        mean_coherence=mean,
        std_error=std_error,
        im_std_error=im_std_error,
        mean_phase_sq=sq_sum / n,
        std_error_phase_sq=std_error_phase_sq,
        n_trajectories=plan.n_trajectories,
    )


@dataclass(frozen=True, eq=False)
class CoherenceComparison:
    """Per-time comparison of |mean coherence| against exp(-Gamma).

    The times and standard errors are the EnsembleCoherence's own.
    """

    analytic_envelope: np.ndarray
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
    envelope = coherence_envelope(correlation, result.times)
    abs_mean = np.abs(result.mean_coherence)
    deviation = np.abs(abs_mean - envelope)
    zero_spread = result.std_error == 0.0
    if np.any(zero_spread & (deviation > 1e-12)):
        raise DegenerateStatisticsError(
            "zero standard error with nonzero deviation from the envelope"
        )
    z = np.divide(
        deviation, result.std_error, out=np.zeros_like(deviation), where=~zero_spread
    )
    return CoherenceComparison(analytic_envelope=envelope, z_scores=z)
