"""One (seed, i) stream and one reduction for both index-addressed ensembles.

index_normals defines every draw of the trajectory and register ensembles;
the register's array average must equal a per-copy loop over the scalar
reference functions.
"""

import math

import numpy as np
import pytest

from sidephase import montecarlo
from sidephase.dephasing import ExponentialCorrelation
from sidephase.montecarlo import (
    SimulationPlan,
    ensemble_coherence,
    generate_trajectory,
    index_normals,
    standard_error,
)
from sidephase.register import (
    ErrorSampler,
    ensemble_average_state,
    error_probability,
    error_unitary,
    perturbed_ground_state,
)


class TestIndexNormals:
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    @pytest.mark.parametrize("width", [1, 3, 101])
    def test_rows_depend_only_on_seed_and_index(self, seed, width):
        whole = index_normals(seed, 0, 10, width)
        assert whole.shape == (10, width)
        assert whole[3:7].tobytes() == index_normals(seed, 3, 7, width).tobytes()

    def test_row_is_the_start_of_a_longer_stream(self):
        short = index_normals(5, 2, 4, 3)
        long = index_normals(5, 2, 4, 50)
        assert short.tobytes() == np.ascontiguousarray(long[:, :3]).tobytes()

    def test_seeds_and_indices_give_distinct_rows(self):
        a = index_normals(1, 0, 4, 8)
        b = index_normals(2, 0, 4, 8)
        assert len({row.tobytes() for row in np.vstack([a, b])}) == 8

    def test_generate_trajectory_draws_its_row(self):
        # the stationary start of trajectory 3 is sigma times its first draw
        plan = SimulationPlan(ExponentialCorrelation(4.0, 1.0), 1.0, 40, 5, 11)
        first = generate_trajectory(plan, 3)[0]
        assert first == 2.0 * index_normals(11, 3, 4, 41)[0, 0]


class TestPhiloxStream:
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    @pytest.mark.parametrize("width", [3, 101])
    def test_row_is_the_index_counter_stream(self, seed, width):
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        lo, hi = 5, 12
        block = index_normals(seed, lo, hi, width)
        for i in range(lo, hi):
            stream = np.random.Generator(np.random.Philox(key=key, counter=[0, i, 0, 0]))
            assert block[i - lo].tobytes() == stream.standard_normal(width).tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    @pytest.mark.parametrize("width", [3, 101])
    def test_counter_word_at_the_top_of_the_uint64_range(self, seed, width):
        # Counter words at or above 2**63 take the reset's int path too.  The
        # reference counter is a uint64 array: numpy makes the list
        # [0, 2**64 - 3, 0, 0] a float64 array, whose cast reads as 0.
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        lo, hi = 2 ** 64 - 3, 2 ** 64
        block = index_normals(seed, lo, hi, width)
        for i in range(lo, hi):
            counter = np.array([0, i, 0, 0], dtype=np.uint64)
            stream = np.random.Generator(np.random.Philox(key=key, counter=counter))
            assert block[i - lo].tobytes() == stream.standard_normal(width).tobytes()

    @pytest.mark.parametrize("block", [1, 97, 1000])
    def test_ensemble_bytes_do_not_depend_on_the_block_size(self, monkeypatch, block):
        plan = SimulationPlan(ExponentialCorrelation(1.0, 0.1), 1.0, 400, 601, 23)
        reference = ensemble_coherence(plan, n_grid=20)
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        result = ensemble_coherence(plan, n_grid=20)
        for name in (
            "mean_coherence",
            "std_error",
            "im_std_error",
            "mean_phase_sq",
            "std_error_phase_sq",
        ):
            assert getattr(result, name).tobytes() == getattr(reference, name).tobytes()


class TestStandardError:
    def test_matches_the_sample_formula(self):
        samples = np.arange(12.0).reshape(4, 3) ** 2
        expected = samples.std(axis=0, ddof=1) / 2.0
        assert standard_error(samples).tobytes() == expected.tobytes()

    def test_single_sample_has_zero_error(self):
        assert np.all(standard_error(np.array([[0.3, -1.0]])) == 0.0)


class TestErrorSamplerStream:
    @pytest.mark.parametrize("seed", [0, 99, 31415])
    def test_sample_is_a_row_of_the_block_draw(self, seed):
        sampler = ErrorSampler(sigma=(0.1, 0.2, 0.3), seed=seed)
        block = np.asarray(sampler.sigma) * index_normals(seed, 0, 20, 3)
        for i in (0, 1, 7, 19):
            assert np.array(sampler.sample(i)).tobytes() == block[i].tobytes()


class TestErrorUnitaryOnArrays:
    def test_slices_equal_the_scalar_call(self):
        e = np.random.default_rng(12).normal(0.0, 0.7, size=(3, 9))
        u = error_unitary(tuple(e))
        assert u.shape == (2, 2, 9)
        for k in range(9):
            scalar = error_unitary(tuple(float(c) for c in e[:, k]))
            assert u[:, :, k].tobytes() == scalar.tobytes()

    def test_probability_on_arrays_equals_the_scalar_call(self):
        e = np.random.default_rng(13).normal(0.0, 0.7, size=(3, 9))
        p = error_probability(tuple(e))
        scalar = [error_probability(tuple(float(c) for c in col)) for col in e.T]
        assert p.tobytes() == np.array(scalar).tobytes()


def _per_copy_reference(sampler, n):
    """The register average one copy at a time through the scalar functions."""
    samples = [sampler.sample(i) for i in range(n)]
    entries = np.array([perturbed_ground_state(e).as_rows() for e in samples])
    p = np.array([error_probability(e) for e in samples])
    ddof = 1 if n > 1 else 0
    return entries.mean(axis=0), float(p.mean()), float(p.std(ddof=ddof) / math.sqrt(n))


class TestEnsembleAverageState:
    @pytest.mark.parametrize("n", [1, 7, 500])
    @pytest.mark.parametrize("sigma,seed", [(0.02, 5), (0.3, 8)])
    def test_equals_the_per_copy_loop(self, n, sigma, seed):
        sampler = ErrorSampler(sigma=(sigma, sigma, sigma), seed=seed)
        report = ensemble_average_state(sampler, n)
        state, mean_p, stderr_p = _per_copy_reference(sampler, n)
        assert report.n == n
        assert repr(report.mean_error_probability) == repr(mean_p)
        assert repr(report.stderr_error_probability) == repr(stderr_p)
        got = np.array(report.state.as_rows())
        assert np.max(np.abs(got - state)) <= 1e-15
        assert report.offdiag_magnitude == pytest.approx(abs(state[0, 1]), abs=1e-15)
