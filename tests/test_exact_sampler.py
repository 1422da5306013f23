"""Exact (dw, phase) sampler: its algebra without randomness, and its
agreement with the stepwise reference and across worker counts."""

import math

import mpmath
import numpy as np
import pytest

from sidephase import montecarlo
from sidephase.dephasing import ExponentialCorrelation, gamma_exact
from sidephase.montecarlo import (
    _Q_SERIES_SWITCH,
    EnsembleCoherence,
    SimulationPlan,
    _output_indices,
    _q,
    _sample_phases,
    _transition,
    accumulate_phase,
    compare_to_analytic,
    ensemble_coherence,
    generate_trajectory,
)

A09 = ExponentialCorrelation(1.0, 2e6)
A10 = ExponentialCorrelation(3000.0, 1e-3)


def _propagate(correlation, h, n):
    """(Var dw, Var phase) after each of n intervals of length h.

    The covariance of the pair is carried through the linear update from
    the stationary start, using only the per-interval coefficients.
    """
    step = _transition(correlation, h)
    var_w, var_p, cov = correlation.variance, 0.0, 0.0
    out = []
    for _ in range(n):
        var_p += (
            2.0 * step.drift * cov
            + step.drift ** 2 * var_w
            + step.cross ** 2
            + step.phase_noise ** 2
        )
        cov = step.rho * (cov + step.drift * var_w) + step.cross * step.omega_noise
        var_w = step.rho ** 2 * var_w + step.omega_noise ** 2
        out.append((var_w, var_p))
    return out


class TestTransitionAlgebra:
    @pytest.mark.parametrize("x", np.geomspace(1e-9, 50.0, 23).tolist())
    def test_variances_match_closed_form(self, x):
        h = x * A10.tau_c
        for k, (var_w, var_p) in enumerate(_propagate(A10, h, 10), start=1):
            assert var_w == pytest.approx(A10.variance, rel=1e-12, abs=0.0)
            two_gamma = 2.0 * gamma_exact(A10, k * h)
            assert var_p == pytest.approx(two_gamma, rel=1e-12, abs=0.0), k

    def test_static_variance_is_quadratic(self):
        corr = ExponentialCorrelation(2.5, math.inf)
        for k, (var_w, var_p) in enumerate(_propagate(corr, 0.3, 10), start=1):
            assert var_w == 2.5
            assert var_p == pytest.approx(2.0 * gamma_exact(corr, 0.3 * k), rel=1e-14)

    def test_q_is_continuous_at_the_switch(self):
        below = _q(math.nextafter(_Q_SERIES_SWITCH, 0.0))  # series branch
        at = _q(_Q_SERIES_SWITCH)  # closed-form branch
        assert abs(below / at - 1.0) <= 1e-12

    @pytest.mark.parametrize("x", np.geomspace(1e-9, 50.0, 41).tolist())
    def test_q_against_high_precision(self, x):
        with mpmath.workdps(50):
            y = mpmath.mpf(x)
            reference = float(2 * (y - 2 * mpmath.tanh(y / 2)))
        assert _q(x) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_static_interval(self):
        step = _transition(ExponentialCorrelation(2.0, math.inf), 0.3)
        assert tuple(step) == (1.0, 0.0, 0.3, 0.0, 0.0)

    @pytest.mark.parametrize("tau_c", [1e-3, 2e6, math.inf])
    def test_zero_variance_interval_has_no_noise(self, tau_c):
        step = _transition(ExponentialCorrelation(0.0, tau_c), 0.02)
        assert (step.omega_noise, step.cross, step.phase_noise) == (0.0, 0.0, 0.0)
        plan = SimulationPlan(ExponentialCorrelation(0.0, tau_c), 1.0, 20_000, 5, 7)
        phases = _sample_phases(plan, [step] * 50, 0, 5)
        assert np.all(phases == 0.0)

    def test_static_phase_grows_linearly(self):
        corr = ExponentialCorrelation(2.0, math.inf)
        plan = SimulationPlan(corr, 1.0, 40, 6, master_seed=9)
        grid = _output_indices(plan.n_steps, 8)
        step = _transition(corr, 5 * plan.dt)
        phases = _sample_phases(plan, [step] * 8, 0, 6)
        rates = phases / (grid * plan.dt)
        assert np.allclose(rates, rates[:, :1], rtol=1e-14, atol=0.0)
        assert np.all(rates[:, 0] != 0.0)


def _stepwise_ensemble(plan, n_grid):
    """EnsembleCoherence built from generate_trajectory + accumulate_phase."""
    grid = _output_indices(plan.n_steps, n_grid)
    phases = np.array(
        [
            accumulate_phase(generate_trajectory(plan, i), plan.dt)[grid]
            for i in range(plan.n_trajectories)
        ]
    )
    phasors = np.exp(1j * phases)
    root_n = math.sqrt(plan.n_trajectories)
    return EnsembleCoherence(
        times=grid * plan.dt,
        mean_coherence=phasors.mean(axis=0),
        std_error=phasors.real.std(axis=0, ddof=1) / root_n,
        im_std_error=phasors.imag.std(axis=0, ddof=1) / root_n,
        mean_phase_sq=(phases * phases).mean(axis=0),
        std_error_phase_sq=(phases * phases).std(axis=0, ddof=1) / root_n,
        n_trajectories=plan.n_trajectories,
    )


@pytest.mark.parametrize(
    "correlation,t_max,n_steps,n_trajectories,seed",
    [(A09, 2.0, 200, 2000, 20260816), (A10, 1.0, 20_000, 500, 20260817)],
    ids=["A09-shape", "A10-shape"],
)
def test_stepwise_reference_meets_the_z_limits(
    correlation, t_max, n_steps, n_trajectories, seed
):
    plan = SimulationPlan(correlation, t_max, n_steps, n_trajectories, seed)
    result = _stepwise_ensemble(plan, 50)
    comparison = compare_to_analytic(result, correlation)
    gammas = np.array([gamma_exact(correlation, t) for t in result.times])
    z_phase = np.abs(result.mean_phase_sq - 2.0 * gammas) / result.std_error_phase_sq
    assert comparison.max_z <= 4.0
    assert float(np.max(z_phase)) <= 3.0


def test_bytes_do_not_depend_on_block_boundaries(monkeypatch):
    # 601 trajectories fit in one default block; blocks of 256 split them
    # 256 + 256 + 89, and blocks of 97 into six full blocks and a last of 19.
    plan = SimulationPlan(A10, 1.0, 20_000, 601, master_seed=31)
    results = [ensemble_coherence(plan, n_grid=50)]
    for block in (256, 97):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        results.append(ensemble_coherence(plan, n_grid=50))
    fields = ("mean_coherence", "std_error", "im_std_error", "mean_phase_sq")
    fields += ("std_error_phase_sq",)
    for other in results[1:]:
        for name in fields:
            assert getattr(other, name).tobytes() == getattr(results[0], name).tobytes()
