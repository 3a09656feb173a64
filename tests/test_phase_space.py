import numpy as np
import pytest

from gausslift import (
    QuadraticHamiltonian,
    Species,
    cocycle_eta,
    delta_y_z,
    gamma_phase,
    gqh_overlap_analytic,
    lift_from_gqh,
    mat_exp,
    mw_reflection,
    random_group_element,
    split_cd,
    standard_kahler,
    vacuum_phase_tracked,
    validate_group_element,
    zeta_cocycle,
)
from gausslift.errors import InputError, NumericalDomainError
from gausslift.fermion import normalize_reflection
from gausslift.phase_space import KahlerStructure, group_inverse


def complex_basis_forms(k):
    """(Omega, G, J) of the structure ``k`` in the ladder basis a = (q + ip)/sqrt(2)."""
    n = k.n_modes
    eye = np.eye(n)
    zero = np.zeros((n, n))
    omega_c = 1j * np.block([[zero, -eye], [eye, zero]])
    metric_c = np.block([[zero, eye], [eye, zero]]).astype(complex)
    j_c = 1j * np.block([[-eye, zero], [zero, eye]])
    return omega_c, metric_c, j_c


class TestStandardKahler:
    def test_single_mode_matrices(self, k1):
        np.testing.assert_array_equal(k1.omega, [[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(k1.metric, np.eye(2))
        np.testing.assert_array_equal(k1.j, [[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(k1.omega_inv, [[0.0, -1.0], [1.0, 0.0]])

    def test_two_modes_invariants(self, k2):
        np.testing.assert_allclose(k2.j @ k2.j, -np.eye(4), atol=0)
        np.testing.assert_allclose(k2.metric @ k2.omega_inv, -k2.j, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_kahler_relation_any_n(self, n):
        k = standard_kahler(n)
        np.testing.assert_allclose(k.metric @ k.omega_inv, -k.j, atol=0)
        np.testing.assert_allclose(k.omega @ k.metric_inv, k.j, atol=0)

    def test_fermionic_structure(self, kf2):
        assert kf2.species is Species.FERMION
        np.testing.assert_array_equal(kf2.fundamental_form, kf2.metric)

    def test_bad_mode_count(self):
        with pytest.raises(InputError):
            standard_kahler(0)

    def test_equal_by_mode_count_and_species(self, k2):
        assert KahlerStructure(n_modes=2) == k2
        assert hash(KahlerStructure(n_modes=2)) == hash(k2)
        assert standard_kahler(1) != k2
        assert standard_kahler(2, Species.FERMION) != k2

    def test_matrices_read_only(self, k1):
        for name in ("omega", "metric", "j", "omega_inv", "metric_inv"):
            with pytest.raises(ValueError):
                getattr(k1, name)[0, 0] = 2.0

    def test_complex_basis_view(self, k1):
        omega_c, metric_c, j_c = complex_basis_forms(k1)
        np.testing.assert_allclose(omega_c, 1j * np.array([[0, -1], [1, 0]]), atol=0)
        np.testing.assert_allclose(metric_c, np.array([[0, 1], [1, 0]]), atol=0)
        np.testing.assert_allclose(j_c, 1j * np.diag([-1.0, 1.0]), atol=0)

    def test_complex_basis_is_a_change_of_frame(self, k2):
        # a = (q + ip)/sqrt(2): the view must be W Omega W^T, W G W^T, W J W^-1
        n = 2
        eye = np.eye(n)
        w = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)
        omega_c, metric_c, j_c = complex_basis_forms(k2)
        np.testing.assert_allclose(w @ k2.omega @ w.T, omega_c, atol=1e-14)
        np.testing.assert_allclose(w @ k2.metric @ w.T, metric_c, atol=1e-14)
        np.testing.assert_allclose(w @ k2.j @ np.linalg.inv(w), j_c, atol=1e-14)


class TestValidateGroupElement:
    def test_identity(self, k1):
        ok, residual = validate_group_element(np.eye(2), k1)
        assert ok and residual == 0.0

    def test_squeeze_is_symplectic(self, k1):
        ok, residual = validate_group_element(np.diag([2.0, 0.5]), k1)
        assert ok and residual <= 1e-10

    def test_uniform_scaling_is_not(self, k1):
        ok, residual = validate_group_element(np.diag([2.0, 2.0]), k1)
        assert not ok and residual == pytest.approx(3.0)

    def test_dimension_mismatch(self, k2):
        with pytest.raises(InputError):
            validate_group_element(np.eye(2), k2)

    def test_random_exponentials_pass(self, rng, k2):
        for _ in range(20):
            m = random_group_element(k2, rng)
            ok, residual = validate_group_element(m, k2)
            assert ok, residual

    def test_fermionic_orthogonal(self, rng, kf2):
        m = random_group_element(kf2, rng)
        ok, residual = validate_group_element(m, kf2)
        assert ok and residual <= 1e-10


class TestSplitCD:
    def test_identity(self, k1):
        c, d = split_cd(np.eye(2), k1)
        np.testing.assert_allclose(c, np.eye(2), atol=0)
        np.testing.assert_allclose(d, np.zeros((2, 2)), atol=0)

    def test_j_commutes_with_itself(self, k1):
        c, d = split_cd(np.asarray(k1.j), k1)
        np.testing.assert_allclose(c, k1.j, atol=0)
        np.testing.assert_allclose(d, np.zeros((2, 2)), atol=0)

    def test_squeeze_frozen_values(self, k1):
        # -J M J = diag(1/2, 2) by direct 2x2 arithmetic
        c, d = split_cd(np.diag([2.0, 0.5]), k1)
        np.testing.assert_allclose(c, 1.25 * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(d, np.diag([0.75, -0.75]), atol=1e-15)

    def test_commutation_characters(self, rng, k2):
        m = random_group_element(k2, rng)
        c, d = split_cd(m, k2)
        np.testing.assert_allclose(c + d, m, atol=1e-12)
        np.testing.assert_allclose(c @ k2.j - k2.j @ c, 0 * m, atol=1e-12)
        np.testing.assert_allclose(d @ k2.j + k2.j @ d, 0 * m, atol=1e-12)


class TestDeltaYZ:
    def test_identity(self, k1):
        out = delta_y_z(np.eye(2), k1)
        np.testing.assert_allclose(out.y, np.zeros((2, 2)), atol=0)
        np.testing.assert_allclose(out.z, np.zeros((2, 2)), atol=0)

    def test_passive_element(self, k1):
        u = mat_exp(0.7 * np.asarray(k1.j))
        out = delta_y_z(u, k1)
        np.testing.assert_allclose(out.y, np.zeros((2, 2)), atol=1e-12)

    def test_squeeze_frozen_values(self, k1):
        out = delta_y_z(np.diag([2.0, 0.5]), k1)
        np.testing.assert_allclose(out.y, np.diag([-0.6, 0.6]), atol=1e-14)
        # cross-check y = z of the inverse element through the C/D route
        inv = delta_y_z(np.diag([0.5, 2.0]), k1)
        np.testing.assert_allclose(out.y, inv.z, atol=1e-14)

    def test_y_spectrum_inside_unit_interval(self, rng, k2):
        for _ in range(10):
            m = random_group_element(k2, rng)
            y = delta_y_z(m, k2).y
            vals = np.linalg.eigvalsh((y + y.T) / 2)
            assert np.all(vals > -1.0) and np.all(vals < 1.0)

    @pytest.mark.parametrize("species", [Species.BOSON, Species.FERMION], ids=["boson", "fermion"])
    @pytest.mark.parametrize("n_modes", [1, 2, 4, 8])
    def test_y_equals_z_of_inverse(self, rng, species, n_modes):
        # Y_M is formed from C_M^T and -+D_M^T, bit for bit the Z map of M^{-1}
        k = standard_kahler(n_modes, species)
        for _ in range(10):
            m = random_group_element(k, rng)
            np.testing.assert_array_equal(delta_y_z(m, k).y, delta_y_z(group_inverse(m, k), k).z)

    def test_singular_c_raises(self, kf2):
        # fermionic rotation in the (p1, p2) plane close to a half turn: the
        # holomorphic part degenerates, so neither Z_M nor Y_M = Z_{M^-1} exists
        theta = np.pi - 1e-10
        m = np.eye(4)
        m[2:, 2:] = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        with pytest.raises(NumericalDomainError):
            delta_y_z(m, kf2)
        with pytest.raises(NumericalDomainError):
            cocycle_eta(m, m, kf2)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_c_raises(self, k1):
        # an overflowed evolution: the SVD of C does not converge
        with pytest.raises(NumericalDomainError, match="SVD did not converge"):
            delta_y_z(np.array([[np.inf, 0.0], [0.0, 1.0]]), k1)


_K2, _KF2 = standard_kahler(2), standard_kahler(2, Species.FERMION)
_ONE_MODE_H = QuadraticHamiltonian(h=np.eye(2), f=np.array([0.5, 0.5]))


class TestOperandShape:
    """Every entry point that meets an operand with a structure refuses a
    mismatched shape with ``InputError``, naming the operand and both shapes."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: lift_from_gqh(_ONE_MODE_H, _K2), "h must have shape (4, 4), got (2, 2)"),
            (lambda: gqh_overlap_analytic(_ONE_MODE_H, _K2),
             "h must have shape (4, 4), got (2, 2)"),
            (lambda: vacuum_phase_tracked(0.1 * np.eye(2), _K2),
             "generator must have shape (4, 4), got (2, 2)"),
            (lambda: mw_reflection(np.ones(3), _KF2),
             "reflection vector must have shape (4,), got (3,)"),
            (lambda: normalize_reflection(np.ones(3), _KF2),
             "reflection vector must have shape (4,), got (3,)"),
            (lambda: delta_y_z(np.eye(2), _K2), "group element must have shape (4, 4), got (2, 2)"),
            (lambda: zeta_cocycle(np.eye(4), np.zeros(2), np.eye(4), np.zeros(4), _K2),
             "z1 must have shape (4,), got (2,)"),
            (lambda: zeta_cocycle(np.eye(4), np.zeros(4), np.eye(4), np.ones(6), _K2),
             "z2 must have shape (4,), got (6,)"),
            (lambda: gamma_phase(np.eye(4), np.ones(2), _K2), "z must have shape (4,), got (2,)"),
            (lambda: gamma_phase(np.ones((3, 3)), np.zeros(4), _K2),
             "group element must have shape (4, 4), got (3, 3)"),
            (lambda: zeta_cocycle(np.eye(2), np.zeros(4), np.eye(4), np.zeros(4), _K2),
             "group element must have shape (4, 4), got (2, 2)"),
            (lambda: zeta_cocycle(np.eye(4), np.zeros(4), np.eye(2), np.zeros(4), _K2),
             "group element must have shape (4, 4), got (2, 2)"),
            # a stack fails as its first element does
            (lambda: delta_y_z(np.eye(2)[None], _K2),
             "group element must have shape (4, 4), got (2, 2)"),
        ],
        ids=["lift_from_gqh", "gqh_overlap_analytic", "vacuum_phase_tracked", "mw_reflection",
             "normalize_reflection", "delta_y_z", "zeta_cocycle", "zeta_cocycle-z2",
             "gamma_phase", "gamma_phase-zero-z", "zeta_cocycle-m1", "zeta_cocycle-m2",
             "delta_y_z-stack"],
    )
    def test_mismatched_operand_refused(self, call, message):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message


class TestRandomGroupElement:
    def test_generator_norm_bound(self, rng, k2):
        import scipy.linalg

        for _ in range(5):
            m = random_group_element(k2, rng, scale=0.5)
            gen = scipy.linalg.logm(m)
            assert np.linalg.norm(gen, 2) < 0.75
