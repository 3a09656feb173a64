import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gausslift import (
    complex_det,
    imag_trace_log,
    mat_exp,
    mat_sqrt_principal,
    phi1_entire,
    standard_kahler,
    wrap_angle,
)
from conftest import random_antisymmetric, random_symmetric
from gausslift.errors import (
    CommutationError,
    InvalidStructureError,
    MatrixOverflowError,
    SpectrumOnCutError,
)
from gausslift.fermion import MajoranaRep
from gausslift.matfunc import _THETA, pfaffian

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def small_matrices(n, bound=2.0):
    return arrays(np.float64, (n, n), elements=st.floats(-bound, bound, width=64))


class TestMatExp:
    def test_zero(self):
        np.testing.assert_allclose(mat_exp(np.zeros((2, 2))), np.eye(2), atol=1e-14)

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            mat_exp(np.pi / 2 * ROT), np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-14
        )

    def test_diagonal(self):
        np.testing.assert_allclose(
            mat_exp(np.diag([np.log(2.0), -np.log(2.0)])), np.diag([2.0, 0.5]), atol=1e-14
        )

    def test_overflow_is_explicit(self):
        with pytest.raises(MatrixOverflowError):
            mat_exp(np.diag([1e6, 1e6]))

    @pytest.mark.parametrize(
        "a",
        [np.ones((2, 3)), np.ones(2), np.array([[0.0, np.nan], [0.0, 0.0]]), np.array([[np.inf]])],
        ids=["non-square", "vector", "nan", "infinite"],
    )
    def test_non_square_or_non_finite_rejected(self, a):
        with pytest.raises(InvalidStructureError):
            mat_exp(a)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_matrices(3))
    def test_inverse_pairing(self, a):
        np.testing.assert_allclose(mat_exp(a) @ mat_exp(-a), np.eye(3), atol=1e-10)


#: 1-norms on both sides of every Padé degree bound and in the scaling branch,
#: past the largest ||Omega h t||_1 of the Fig. 2 sweep (10, at t = 10)
PADE_NORMS = [1e-3, 0.9 * _THETA[0], 1.1 * _THETA[0], 0.9 * _THETA[1], 1.1 * _THETA[1],
              0.9 * _THETA[2], 1.1 * _THETA[2], 0.9 * _THETA[3], 1.1 * _THETA[3],
              0.9 * _THETA[4], 1.1 * _THETA[4], 13.0]


def assert_matches_scipy(a):
    expected = scipy.linalg.expm(a)
    err = np.max(np.abs(mat_exp(a) - expected)) / np.max(np.abs(expected))
    assert err < 1e-13


class TestMatExpAgainstScipy:
    """The numpy Padé exponential against ``scipy.linalg.expm``, relative to
    the largest entry of e^A."""

    @pytest.mark.parametrize("kind", ["boson", "fermion", "phi1"])
    @pytest.mark.parametrize("n_modes", [1, 2, 4, 8])
    @pytest.mark.parametrize("norm", PADE_NORMS)
    def test_generator(self, rng, kind, n_modes, norm):
        # Omega h, antisymmetric K, and phi1's augmented [[Omega h, I], [0, 0]]
        n2 = 2 * n_modes
        if kind == "fermion":
            a = random_antisymmetric(rng, n2)
        else:
            a = standard_kahler(n_modes).omega @ random_symmetric(rng, n2)
        a *= norm / np.linalg.norm(a, 1)
        if kind == "phi1":
            a = np.block([[a, np.eye(n2)], [np.zeros((n2, n2)), np.zeros((n2, n2))]])
        assert_matches_scipy(a)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 3.0])
    def test_majorana_quadratic_operator(self, rng, n_modes, scale):
        rep = MajoranaRep(n_modes)
        h = random_antisymmetric(rng, 2 * n_modes, scale=scale)
        a = rep.quadratic_operator(h)
        assert np.iscomplexobj(a)
        assert_matches_scipy(a)

    @pytest.mark.parametrize(
        "a",
        [np.diag([1e6, 1e6]), np.array([[800.0]]), np.array([[0.0, 1e4], [1e4, 0.0]]),
         np.full((4, 4), 1e200), 1e3 * np.array([[1.0, 1.0j], [-1.0j, 1.0]])],
        ids=["diagonal", "scalar", "hyperbolic", "huge", "complex"],
    )
    def test_overflow_raises_without_warning(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MatrixOverflowError):
                mat_exp(a)


class TestLogSqrt:
    def test_sqrt_identity(self):
        np.testing.assert_allclose(mat_sqrt_principal(np.eye(2)), np.eye(2), atol=1e-14)

    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(
            mat_sqrt_principal(np.diag([4.0, 0.25])), np.diag([2.0, 0.5]), atol=1e-14
        )

    def test_sqrt_of_gram_matrix(self, rng):
        from conftest import random_symmetric

        k = standard_kahler(2)
        m = mat_exp(k.omega @ random_symmetric(rng, 4))
        gram = m @ m.T
        root = mat_sqrt_principal(gram)
        np.testing.assert_allclose(root, root.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(root)) > 0
        np.testing.assert_allclose(root @ root, gram, atol=1e-10)

    def test_sqrt_cut(self):
        with pytest.raises(SpectrumOnCutError):
            mat_sqrt_principal(np.diag([-4.0, 1.0]))

    def test_sqrt_rejects_non_symmetric(self):
        # positive spectrum, but only symmetric positive-definite input has a root here
        with pytest.raises(InvalidStructureError, match="symmetric"):
            mat_sqrt_principal(np.array([[4.0, 1.0], [0.0, 1.0]]))


class TestPhi1:
    def test_zero(self):
        np.testing.assert_allclose(phi1_entire(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_nilpotent_truncates(self):
        k = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(
            phi1_entire(k), np.array([[1.0, 0.5], [0.0, 1.0]]), atol=1e-15
        )

    def test_diagonal(self):
        expected = np.diag([np.e - 1.0, 1.0 - np.exp(-1.0)])
        np.testing.assert_allclose(phi1_entire(np.diag([1.0, -1.0])), expected, atol=1e-14)

    def test_singular_argument(self):
        k = np.diag([0.0, 1.0])
        np.testing.assert_allclose(
            phi1_entire(k), np.diag([1.0, np.e - 1.0]), atol=1e-14
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_matrices(3, bound=1.5))
    def test_defining_identity(self, k):
        lhs = phi1_entire(k) @ k
        rhs = mat_exp(k) - np.eye(3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_tiny_norm_series_branch(self):
        k = 1e-5 * np.array([[0.3, -1.0], [0.2, 0.1]])
        lhs = phi1_entire(k) @ k
        np.testing.assert_allclose(lhs, mat_exp(k) - np.eye(2), atol=1e-18)


def _j_commuting(rng, n):
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    return np.block([[a, b], [-b, a]])


class TestComplexDetTrace:
    def test_identity(self):
        assert complex_det(np.eye(4)) == pytest.approx(1.0)

    def test_j_itself_single_mode(self, k1):
        j = np.asarray(k1.j)
        assert complex_det(j) == pytest.approx(1j)

    def test_projector_formula_oracle(self, rng, k2):
        # independent closed form: det(K P+ + P-) with P± = (I ∓ iJ)/2
        j = np.asarray(k2.j)
        k = _j_commuting(rng, 2)
        eye = np.eye(4)
        pp = (eye - 1j * j) / 2.0
        pm = (eye + 1j * j) / 2.0
        oracle = np.linalg.det(k @ pp + pm)
        assert complex_det(k) == pytest.approx(oracle, abs=1e-10)

    def test_homomorphism(self, rng):
        a = _j_commuting(rng, 2)
        b = _j_commuting(rng, 2)
        lhs = complex_det(a @ b)
        rhs = complex_det(a) * complex_det(b)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_noncommuting_rejected(self):
        with pytest.raises(CommutationError):
            complex_det(np.diag([2.0, 0.5]))

    def test_bad_structure_rejected(self):
        # an odd-dimensional operand admits no complex structure
        for fn in (complex_det, imag_trace_log):
            with pytest.raises(InvalidStructureError):
                fn(np.eye(3))


class TestImagTraceLog:
    def test_identity_is_zero(self):
        assert imag_trace_log(np.eye(4)) == 0.0

    def test_rotation_angle(self, k1):
        m = mat_exp(0.4 * np.asarray(k1.j))
        assert imag_trace_log(m) == pytest.approx(0.4, abs=1e-12)

    def test_unreduced_sum_over_modes(self, k2):
        j = np.asarray(k2.j)
        m = mat_exp(2.0 * j)  # each mode contributes 2.0
        assert imag_trace_log(m) == pytest.approx(4.0, abs=1e-12)

    def test_cut_error(self):
        with pytest.raises(SpectrumOnCutError):
            imag_trace_log(-np.eye(2))


class TestPfaffian:
    def test_square_is_determinant(self, rng):
        for n in (2, 4, 6, 8, 10):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = a - a.T
            det = np.linalg.det(a)
            assert abs(pfaffian(a) ** 2 - det) < 1e-12 * abs(det)

    def test_sign_of_standard_form(self):
        # Pf([[0, I], [-I, 0]]) = (-1)^{N(N-1)/2}
        for n in range(1, 6):
            eye = np.eye(n)
            zero = np.zeros((n, n))
            omega = np.block([[zero, eye], [-eye, zero]])
            assert pfaffian(omega) == (-1.0) ** (n * (n - 1) // 2)

    def test_two_by_two_and_odd(self):
        assert pfaffian(np.array([[0.0, 2.5j], [-2.5j, 0.0]])) == 2.5j
        assert pfaffian(np.zeros((3, 3))) == 0.0


class TestWrapAngle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(-50.0, 50.0))
    def test_range_and_congruence(self, x):
        w = wrap_angle(x)
        assert -np.pi < w <= np.pi + 1e-15
        assert abs((x - w) / (2 * np.pi) - round((x - w) / (2 * np.pi))) < 1e-9

    def test_pi_maps_to_pi(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
