"""Trajectory simulator: exactness, determinism, and envelope agreement."""

import inspect
import math

import numpy as np
import pytest

from sidephase.dephasing import ExponentialCorrelation, gamma_exact
from sidephase.montecarlo import (
    CoherenceComparison,
    DegenerateStatisticsError,
    EnsembleCoherence,
    PlanRejectedError,
    SimulationPlan,
    accumulate_phase,
    compare_to_analytic,
    ensemble_coherence,
    generate_trajectory,
)

STATIC = ExponentialCorrelation(1.0, 2e6)
MARKOVIAN = ExponentialCorrelation(3000.0, 1e-3)


def small_static_plan(seed=12345, n_trajectories=500):
    return SimulationPlan(
        correlation=STATIC,
        t_max=2.0,
        n_steps=200,
        n_trajectories=n_trajectories,
        master_seed=seed,
    )


class TestPlanValidation:
    def test_correlation_time_resolution_boundary(self):
        corr = ExponentialCorrelation(0.0, 1.0)
        SimulationPlan(corr, t_max=1.0, n_steps=20, n_trajectories=1, master_seed=0)
        with pytest.raises(PlanRejectedError) as err:
            SimulationPlan(corr, t_max=1.0, n_steps=19, n_trajectories=1, master_seed=0)
        assert err.value.required_n_steps == 20
        assert "n_steps >= 20" in str(err.value)

    def test_phase_increment_resolution(self):
        corr = ExponentialCorrelation(4.0, math.inf)
        # dt must not exceed 0.05/sqrt(variance) = 0.025
        SimulationPlan(corr, t_max=1.0, n_steps=40, n_trajectories=1, master_seed=0)
        with pytest.raises(PlanRejectedError) as err:
            SimulationPlan(corr, t_max=1.0, n_steps=39, n_trajectories=1, master_seed=0)
        assert err.value.required_n_steps == 40

    def test_zero_variance_static_noise_unconstrained(self):
        corr = ExponentialCorrelation(0.0, math.inf)
        SimulationPlan(corr, t_max=10.0, n_steps=1, n_trajectories=1, master_seed=0)

    def test_basic_field_validation(self):
        corr = ExponentialCorrelation(0.0, math.inf)
        with pytest.raises(ValueError):
            SimulationPlan(corr, t_max=0.0, n_steps=1, n_trajectories=1, master_seed=0)
        with pytest.raises(ValueError):
            SimulationPlan(corr, t_max=1.0, n_steps=0, n_trajectories=1, master_seed=0)
        with pytest.raises(ValueError):
            SimulationPlan(corr, t_max=1.0, n_steps=1, n_trajectories=0, master_seed=0)
        with pytest.raises(ValueError):
            SimulationPlan(corr, t_max=1.0, n_steps=1, n_trajectories=1, master_seed=-1)
        with pytest.raises(ValueError):
            SimulationPlan(
                corr, t_max=1.0, n_steps=1, n_trajectories=1, master_seed=2 ** 64
            )


class TestTrajectories:
    def test_deterministic_per_index(self):
        plan = small_static_plan(n_trajectories=4)
        a = generate_trajectory(plan, 2)
        b = generate_trajectory(plan, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate_trajectory(plan, 3))

    def test_index_bounds(self):
        plan = small_static_plan(n_trajectories=4)
        with pytest.raises(ValueError):
            generate_trajectory(plan, 4)
        with pytest.raises(ValueError):
            generate_trajectory(plan, -1)

    def test_static_noise_is_frozen(self):
        corr = ExponentialCorrelation(2.0, math.inf)
        plan = SimulationPlan(corr, 1.0, 40, 2, master_seed=9)
        x = generate_trajectory(plan, 0)
        assert np.all(x == x[0])
        assert x[0] != 0.0

    def test_zero_variance_gives_zeros(self):
        corr = ExponentialCorrelation(0.0, 1.0)
        plan = SimulationPlan(corr, 1.0, 20, 1, master_seed=0)
        assert np.all(generate_trajectory(plan, 0) == 0.0)

    def test_stationary_autocovariance(self):
        # exact AR(1): lag-k autocovariance is variance * rho^k at any dt;
        # tested against 3 sigma with the Bartlett variance for a known-mean
        # estimator: var(c_k) ~ (v^2/n) [ (1+rho^2)/(1-rho^2)
        #                                + (2k+1) rho^(2k)
        #                                + 2 rho^(2k+2)/(1-rho^2) ]
        variance, tau_c, dt, n = 0.64, 1.0, 0.04, 1_000_000
        corr = ExponentialCorrelation(variance, tau_c)
        plan = SimulationPlan(corr, n * dt, n, 1, master_seed=777)
        x = generate_trajectory(plan, 0)
        rho = math.exp(-dt / tau_c)
        for k in (0, 1, 5, 20):
            est = float(np.mean(x[: len(x) - k] * x[k:]))
            expected = variance * rho ** k
            bartlett = (variance ** 2 / n) * (
                (1.0 + rho * rho) / (1.0 - rho * rho)
                + (2 * k + 1) * rho ** (2 * k)
                + 2.0 * rho ** (2 * k + 2) / (1.0 - rho * rho)
            )
            assert abs(est - expected) < 3.0 * math.sqrt(bartlett), f"lag {k}"

    def test_phase_gaussianity(self):
        # accumulated phase is Gaussian: sample skewness within 3 sqrt(6/N)
        corr = ExponentialCorrelation(100.0, 0.01)
        plan = SimulationPlan(corr, 1.0, 2000, 2000, master_seed=4242)
        finals = np.empty(plan.n_trajectories)
        for i in range(plan.n_trajectories):
            phase = accumulate_phase(generate_trajectory(plan, i), plan.dt)
            finals[i] = phase[-1]
        centered = finals - finals.mean()
        skew = np.mean(centered ** 3) / np.mean(centered ** 2) ** 1.5
        assert abs(skew) < 3.0 * math.sqrt(6.0 / plan.n_trajectories)


class TestPhaseAccumulation:
    def test_constant_offset(self):
        dt, value = 0.01, 1.7
        phase = accumulate_phase(np.full(1001, value), dt)
        expected = value * dt * np.arange(1001)
        assert phase[0] == 0.0
        assert np.allclose(phase, expected, rtol=1e-12, atol=0.0)

    def test_linear_offset_is_exact_for_trapezoid(self):
        dt, slope, n = 0.01, 2.5, 1000
        t = dt * np.arange(n + 1)
        phase = accumulate_phase(slope * t, dt)
        assert np.allclose(phase, 0.5 * slope * t ** 2, rtol=1e-11, atol=1e-14)

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(5)
        block = rng.standard_normal((3, 101))
        together = accumulate_phase(block, 0.1)
        for i in range(3):
            assert np.array_equal(together[i], accumulate_phase(block[i], 0.1))

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            accumulate_phase(np.zeros(3), 0.0)


class TestEnsemble:
    def test_zero_variance_is_exact_unity(self):
        corr = ExponentialCorrelation(0.0, math.inf)
        plan = SimulationPlan(corr, 1.0, 50, 8, master_seed=3)
        result = ensemble_coherence(plan, n_grid=10)
        assert np.all(result.mean_coherence == 1.0 + 0.0j)
        assert np.all(result.std_error == 0.0)
        comparison = compare_to_analytic(result, corr)
        assert np.all(comparison.z_scores == 0.0)

    def test_run_is_deterministic(self):
        plan = small_static_plan(n_trajectories=64)
        a = ensemble_coherence(plan, n_grid=25)
        b = ensemble_coherence(plan, n_grid=25)
        assert np.array_equal(a.mean_coherence, b.mean_coherence)
        assert np.array_equal(a.std_error, b.std_error)
        assert np.array_equal(a.mean_phase_sq, b.mean_phase_sq)

    def test_takes_no_worker_count(self):
        # The CLI owns --workers; the engine always samples in one thread.
        assert list(inspect.signature(ensemble_coherence).parameters) == ["plan", "n_grid"]

    def test_output_grid_spans_run(self):
        plan = small_static_plan(n_trajectories=2)
        result = ensemble_coherence(plan, n_grid=50)
        assert len(result.times) == 50
        assert result.times[0] > 0.0
        assert result.times[-1] == pytest.approx(plan.t_max, rel=1e-15)
        single = ensemble_coherence(plan, n_grid=1)
        assert single.times[0] == pytest.approx(plan.t_max, rel=1e-15)

    def test_grid_bounds(self):
        plan = small_static_plan(n_trajectories=2)
        with pytest.raises(ValueError):
            ensemble_coherence(plan, n_grid=0)
        with pytest.raises(ValueError):
            ensemble_coherence(plan, n_grid=plan.n_steps + 1)

    def test_static_regime_envelope(self):
        plan = small_static_plan(seed=12345, n_trajectories=2000)
        result = ensemble_coherence(plan, n_grid=50)
        comparison = compare_to_analytic(result, STATIC)
        assert comparison.max_z < 4.0
        gammas = np.array([gamma_exact(STATIC, t) for t in result.times])
        z_phase = np.abs(result.mean_phase_sq - 2.0 * gammas) / result.std_error_phase_sq
        assert float(np.max(z_phase)) < 4.0

    def test_markovian_regime_envelope(self):
        plan = SimulationPlan(MARKOVIAN, 1.0, 20_000, 2000, master_seed=12345)
        result = ensemble_coherence(plan, n_grid=50)
        comparison = compare_to_analytic(result, MARKOVIAN)
        assert comparison.max_z < 4.0
        # phase symmetry: imaginary part consistent with zero
        im_z = np.abs(result.mean_coherence.imag) / result.im_std_error
        assert float(np.max(im_z)) < 4.0

    def test_wrong_correlation_time_is_detected(self):
        plan = SimulationPlan(MARKOVIAN, 1.0, 20_000, 2000, master_seed=12345)
        result = ensemble_coherence(plan, n_grid=50)
        mismatched = ExponentialCorrelation(
            MARKOVIAN.variance, 10.0 * MARKOVIAN.tau_c
        )
        comparison = compare_to_analytic(result, mismatched)
        assert comparison.max_z > 10.0


class TestComparisonEdgeCases:
    def test_exact_replay_scores_zero(self):
        corr = ExponentialCorrelation(2.0, 1.0)
        times = np.array([0.5, 1.0, 2.0])
        envelope = np.array([math.exp(-gamma_exact(corr, t)) for t in times])
        result = EnsembleCoherence(
            times=times,
            mean_coherence=envelope.astype(complex),
            std_error=np.zeros(3),
            im_std_error=np.zeros(3),
            mean_phase_sq=np.zeros(3),
            std_error_phase_sq=np.zeros(3),
            n_trajectories=1,
        )
        comparison = compare_to_analytic(result, corr)
        assert isinstance(comparison, CoherenceComparison)
        assert np.all(comparison.z_scores == 0.0)

    def test_zero_spread_with_deviation_is_degenerate(self):
        corr = ExponentialCorrelation(2.0, 1.0)
        result = EnsembleCoherence(
            times=np.array([1.0]),
            mean_coherence=np.array([0.9 + 0.0j]),
            std_error=np.zeros(1),
            im_std_error=np.zeros(1),
            mean_phase_sq=np.zeros(1),
            std_error_phase_sq=np.zeros(1),
            n_trajectories=1,
        )
        with pytest.raises(DegenerateStatisticsError):
            compare_to_analytic(result, corr)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnsembleCoherence(
                times=np.array([1.0, 2.0]),
                mean_coherence=np.array([1.0 + 0.0j]),
                std_error=np.zeros(1),
                im_std_error=np.zeros(1),
                mean_phase_sq=np.zeros(1),
                std_error_phase_sq=np.zeros(1),
                n_trajectories=1,
            )

    def test_super_unit_magnitude_rejected(self):
        with pytest.raises(ValueError):
            EnsembleCoherence(
                times=np.array([1.0]),
                mean_coherence=np.array([1.5 + 0.0j]),
                std_error=np.zeros(1),
                im_std_error=np.zeros(1),
                mean_phase_sq=np.zeros(1),
                std_error_phase_sq=np.zeros(1),
                n_trajectories=1,
            )
