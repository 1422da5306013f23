"""Bloch-vector states, dephasing action, eigenvalues, and fidelity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidephase.qubit import (
    BlochState,
    DensityMatrix,
    apply_dephasing,
    density_from_bloch,
    dephased_eigenvalues,
    fidelity,
    limiting_populations,
)


def _random_unit_bloch(rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return BlochState(*v)


class TestBlochState:
    def test_norm_accepts_unit_vector(self):
        s = BlochState(0.6, 0.0, 0.8)
        assert s.norm_sq == pytest.approx(1.0, abs=1e-15)

    def test_rejects_norm_above_one(self):
        with pytest.raises(ValueError):
            BlochState(1.0, 0.1, 0.0)

    def test_mixed_states_allowed(self):
        BlochState(0.0, 0.0, 0.0)
        BlochState(0.3, 0.2, -0.1)


class TestDensityFromBloch:
    def test_matrix_entries(self):
        rho = density_from_bloch(BlochState(0.6, 0.0, 0.8), phase=math.pi / 2)
        assert rho.rho00 == pytest.approx(0.9, abs=1e-15)
        assert rho.rho11 == pytest.approx(0.1, abs=1e-15)
        # 0.5 * (px - i py) * e^{i pi/2} = 0.3j
        assert rho.rho01 == pytest.approx(0.3j, abs=1e-15)
        assert rho.rho10 == pytest.approx(-0.3j, abs=1e-15)

    def test_pure_state_is_projector(self):
        rng = np.random.default_rng(2417)
        for _ in range(50):
            state = _random_unit_bloch(rng)
            m = np.array(density_from_bloch(state, phase=rng.uniform(0, 7)).as_rows())
            assert np.allclose(m @ m, m, atol=1e-14)

    def test_phase_rotates_only_off_diagonals(self):
        base = density_from_bloch(BlochState(0.6, 0.0, 0.8))
        rotated = density_from_bloch(BlochState(0.6, 0.0, 0.8), phase=1.3)
        assert rotated.rho00 == base.rho00
        assert rotated.rho01 == pytest.approx(
            base.rho01 * cmath.exp(1.3j), abs=1e-15
        )


class TestDensityMatrixValidation:
    def test_trace_must_be_one(self):
        with pytest.raises(ValueError):
            DensityMatrix(0.6, 0.0, 0.0, 0.5)

    def test_hermiticity_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(0.5, 0.2j, 0.2j, 0.5)

    def test_diagonal_must_be_real(self):
        # Hermitian off-diagonals, but rho00 is 1e-9 off the real axis
        with pytest.raises(ValueError, match="diagonal entries must be real"):
            DensityMatrix(1 + 1e-9j, 0j, 0j, 0j)

    def test_positivity_enforced(self):
        # trace one, hermitian, but one eigenvalue is negative
        with pytest.raises(ValueError):
            DensityMatrix(0.5, 0.7, 0.7, 0.5)

    def test_eigenvalues_match_dense_solver(self):
        rng = np.random.default_rng(91)
        for _ in range(200):
            state = _random_unit_bloch(rng)
            scale = rng.uniform(0.0, 1.0)
            rho = density_from_bloch(
                BlochState(*(scale * np.array([state.px, state.py, state.pz])))
            )
            ours = np.array(rho.eigenvalues())
            reference = np.linalg.eigvalsh(np.array(rho.as_rows()))[::-1]
            assert np.max(np.abs(ours - reference)) < 1e-12


class TestApplyDephasing:
    def test_zero_gamma_is_identity(self):
        s = BlochState(0.6, 0.0, 0.8)
        assert apply_dephasing(s, 0.0) == density_from_bloch(s)

    def test_off_diagonal_scaling(self):
        rho = apply_dephasing(BlochState(1.0, 0.0, 0.0), math.log(2.0))
        assert rho.rho01 == pytest.approx(0.25, abs=1e-15)
        assert rho.rho00 == pytest.approx(0.5, abs=1e-15)

    def test_populations_preserved(self):
        s = BlochState(0.3, 0.4, -0.5)
        rho = apply_dephasing(s, 2.7)
        assert rho.rho00 == density_from_bloch(s).rho00
        assert rho.rho11 == density_from_bloch(s).rho11

    def test_composition_adds_exponents(self):
        s = BlochState(0.6, 0.0, 0.8)
        once = apply_dephasing(s, 0.9 + 0.4)
        # sequential application acts multiplicatively on the coherence
        partial = apply_dephasing(s, 0.9)
        assert once.rho01 == pytest.approx(
            partial.rho01 * math.exp(-0.4), abs=1e-15
        )

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            apply_dephasing(BlochState(1.0, 0.0, 0.0), -0.1)


class TestDephasedEigenvalues:
    def test_reference_point(self):
        # px=0.6, pz=0.8, e^{-2 gamma} = 0.25: lambda = (1 +- sqrt(0.73))/2
        gamma = -0.5 * math.log(0.25)
        lo, hi = sorted(dephased_eigenvalues(BlochState(0.6, 0.0, 0.8), gamma))
        assert hi == pytest.approx(0.9272001872658766, rel=1e-14)
        assert lo == pytest.approx(0.07279981273412345, rel=1e-12)
        assert hi + lo == pytest.approx(1.0, abs=1e-15)

    def test_zero_gamma_gives_pure_spectrum(self):
        hi, lo = dephased_eigenvalues(BlochState(0.6, 0.0, 0.8), 0.0)
        assert hi == pytest.approx(1.0, abs=1e-15)
        assert lo == pytest.approx(0.0, abs=1e-15)

    def test_large_gamma_reaches_limiting_populations(self):
        s = BlochState(0.6, 0.0, 0.8)
        hi, lo = dephased_eigenvalues(s, 1e3)
        want_hi, want_lo = limiting_populations(s)
        assert hi == pytest.approx(want_hi, abs=1e-15)
        assert lo == pytest.approx(want_lo, abs=1e-15)
        assert want_hi == pytest.approx(0.9, abs=1e-15)
        assert want_lo == pytest.approx(0.1, abs=1e-15)

    def test_agrees_with_dense_solver(self):
        rng = np.random.default_rng(7703)
        for _ in range(300):
            state = _random_unit_bloch(rng)
            gamma = rng.uniform(0.0, 10.0)
            ours = np.array(dephased_eigenvalues(state, gamma))
            dense = np.array(apply_dephasing(state, gamma).as_rows())
            reference = np.linalg.eigvalsh(dense)[::-1]
            assert np.max(np.abs(ours - reference)) < 1e-12

    def test_requires_pure_input(self):
        with pytest.raises(ValueError):
            dephased_eigenvalues(BlochState(0.3, 0.0, 0.4), 1.0)


class TestFidelity:
    def test_pure_against_itself(self):
        rho = density_from_bloch(BlochState(0.0, 0.0, 1.0))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-15)

    def test_pure_against_maximally_mixed(self):
        pure = density_from_bloch(BlochState(0.0, 0.0, 1.0))
        mixed = DensityMatrix(0.5, 0.0, 0.0, 0.5)
        assert fidelity(pure, mixed) == pytest.approx(0.5, abs=1e-15)

    def test_symmetric(self):
        a = density_from_bloch(BlochState(0.6, 0.0, 0.8))
        b = apply_dephasing(BlochState(0.0, 1.0, 0.0), 0.3)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-15)

    def test_orthogonal_pure_states(self):
        up = density_from_bloch(BlochState(0.0, 0.0, 1.0))
        down = density_from_bloch(BlochState(0.0, 0.0, -1.0))
        assert fidelity(up, down) == pytest.approx(0.0, abs=1e-15)

    def test_refuses_an_imaginary_trace_product(self):
        # Each diagonal imaginary part is within the 1e-12 that validation
        # allows, but rho00^2 gives trace(a a) an imaginary part of 1.8e-12.
        a = DensityMatrix(1 + 0.9e-12j, 0j, 0j, -0.9e-12j)
        with pytest.raises(ValueError, match="non-negligible imaginary part"):
            fidelity(a, a)

    def test_keeps_a_negligible_imaginary_part(self):
        a = DensityMatrix(1 + 0.4e-12j, 0j, 0j, -0.4e-12j)
        assert fidelity(a, a) == 1.0


@settings(deadline=None, max_examples=150)
@given(
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2.0 * math.pi),
    gamma=st.floats(0.0, 50.0),
)
def test_eigenvalue_formula_property(theta, phi, gamma):
    state = BlochState(
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    )
    hi, lo = dephased_eigenvalues(state, gamma)
    assert 0.0 <= lo <= hi <= 1.0 + 1e-12
    assert hi + lo == pytest.approx(1.0, abs=1e-12)
    dense = np.array(apply_dephasing(state, gamma).as_rows())
    reference = np.linalg.eigvalsh(dense)[::-1]
    assert abs(hi - reference[0]) < 1e-12
    assert abs(lo - reference[1]) < 1e-12
