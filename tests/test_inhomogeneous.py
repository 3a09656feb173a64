import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, quadratures, random_group_element, random_symmetric
from gausslift import inhomogeneous, metaplectic, phase_space
from gausslift import (
    Displacement,
    LiftedGaussian,
    QuadraticHamiltonian,
    Species,
    build_fock,
    cocycle_eta,
    disp_multiply,
    displacement_to_gaussian,
    gamma_phase,
    ig_decompose,
    ig_identity,
    ig_inverse,
    ig_multiply,
    mat_exp,
    mp_lift,
    mp_multiply,
    split_cd,
    standard_kahler,
    wrap_angle,
    zeta_cocycle,
)
from gausslift.errors import InputError


def random_lifted(rng, k, z_scale=1.0, h_scale=1.0):
    m = random_group_element(k, rng, scale=h_scale)
    z = z_scale * rng.standard_normal(k.dim)
    psi = np.exp(1j * rng.uniform(-np.pi, np.pi))
    return LiftedGaussian(m=m, z=z, psi=psi, k=k)


class TestDispMultiply:
    def test_inverse_pair_cancels(self, rng, k1):
        z = rng.standard_normal(2)
        out = disp_multiply(Displacement(z=z), Displacement(z=-z), k1)
        np.testing.assert_allclose(out.z, np.zeros(2), atol=1e-15)
        assert out.phase == pytest.approx(0.0)

    def test_quarter_area_frozen(self, k1):
        # omega((1,0),(0,1)) = -1 in the real basis, so the phase is -1/2
        out = disp_multiply(
            Displacement(z=np.array([1.0, 0.0])), Displacement(z=np.array([0.0, 1.0])), k1
        )
        np.testing.assert_allclose(out.z, [1.0, 1.0], atol=0)
        assert out.phase == pytest.approx(-0.5)

    def test_identity_neutral(self, rng, k1):
        d = Displacement(z=rng.standard_normal(2), phase=0.3)
        out = disp_multiply(d, Displacement(z=np.zeros(2)), k1)
        np.testing.assert_allclose(out.z, d.z, atol=0)
        assert out.phase == pytest.approx(d.phase)

    def test_fermions_rejected(self, kf1):
        with pytest.raises(InputError):
            disp_multiply(Displacement(z=np.zeros(2)), Displacement(z=np.zeros(2)), kf1)

    def test_embedding_reproduces_group_law(self, rng, k1):
        for _ in range(10):
            d1 = Displacement(z=rng.standard_normal(2), phase=rng.uniform(-2, 2))
            d2 = Displacement(z=rng.standard_normal(2), phase=rng.uniform(-2, 2))
            direct = disp_multiply(d1, d2, k1)
            lifted = ig_multiply(
                displacement_to_gaussian(d1, k1), displacement_to_gaussian(d2, k1)
            )
            np.testing.assert_allclose(lifted.z, direct.z, atol=1e-12)
            assert lifted.psi == pytest.approx(np.exp(-1j * direct.phase), abs=1e-12)


class TestGammaPhase:
    def test_zero_displacement(self, rng, k2):
        m = random_group_element(k2, rng)
        assert gamma_phase(m, np.zeros(4), k2) == 0.0

    def test_passive_element(self, rng, k1):
        u = mat_exp(1.1 * np.asarray(k1.j))
        assert gamma_phase(u, rng.standard_normal(2), k1) == pytest.approx(0.0, abs=1e-12)

    def test_squeeze_frozen_value(self, k1):
        assert gamma_phase(np.diag([2.0, 0.5]), np.array([1.0, 1.0]), k1) == pytest.approx(
            -0.3, abs=1e-14
        )

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(-3.0, 3.0))
    def test_quadratic_homogeneity(self, lam):
        k = __import__("gausslift").standard_kahler(1)
        m = np.diag([1.7, 1 / 1.7])
        z = np.array([0.6, -0.4])
        assert gamma_phase(m, lam * z, k) == pytest.approx(
            lam**2 * gamma_phase(m, z, k), abs=1e-12
        )


class TestZetaCocycle:
    def test_all_trivial(self, k1):
        assert zeta_cocycle(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2), k1) == 0.0

    def test_homogeneous_reduction(self, rng, k2):
        for _ in range(25):
            m1 = random_group_element(k2, rng)
            m2 = random_group_element(k2, rng)
            zeta = zeta_cocycle(m1, np.zeros(4), m2, np.zeros(4), k2)
            eta = cocycle_eta(m1, m2, k2)
            assert abs(zeta - eta / 2.0) < 1e-12

    def test_fig2_against_oracle(self, rng, k1):
        from conftest import FIG2_F, FIG2_STABLE
        from gausslift import zeta_numeric, z_from_hf

        rep = build_fock(1, 80)
        h1 = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=FIG2_STABLE[1], f=FIG2_F)
        t = 1.0
        m1 = mat_exp(k1.omega @ h1.h * t)
        m2 = mat_exp(k1.omega @ h2.h * t)
        z1 = z_from_hf(h1.h * t, h1.f * t, k1)
        z2 = z_from_hf(h2.h * t, h2.f * t, k1)
        analytic = wrap_angle(zeta_cocycle(m1, z1, m2, z2, k1))
        assert analytic == pytest.approx(zeta_numeric(h1, h2, t, rep), abs=1e-6)


class TestSqueezeMapReuse:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(m, k):
            calls.append(np.shape(m))
            return phase_space.delta_y_z(m, k)

        for module in (metaplectic, inhomogeneous):
            monkeypatch.setattr(module, "delta_y_z", counting)
        return calls

    def test_product_forms_each_distinct_matrix_once(self, rng, k2, counted):
        # M1 (Z and Y), M2 (Y for eta and gamma) and M1 M2 (Y), as one stack
        ig_multiply(random_lifted(rng, k2), random_lifted(rng, k2))
        assert counted == [(3, 4, 4)]

    def test_product_without_shift_forms_no_map_of_the_product(self, rng, k2, counted):
        # z1 + M1 z2 = 0: the gamma term of M1 M2 vanishes, so its map is not formed
        a, b = (LiftedGaussian(m=u.m, z=np.zeros(4), psi=u.psi, k=k2)
                for u in (random_lifted(rng, k2), random_lifted(rng, k2)))
        ig_multiply(a, b)
        assert counted == [(2, 4, 4)]

    def test_square_forms_its_maps_once(self, rng, k2, counted):
        a = mp_lift(random_group_element(k2, rng), k2)
        mp_multiply(a, a)
        assert counted == [(4, 4)]


class TestIgMultiply:
    def test_identity_two_sided(self, rng):
        # The general law, with no identity shortcut, returns the other
        # operand bit for bit; a fermionic z is +0.0 here, since a -0.0 entry
        # comes back as +0.0.  One exception: for fermions, u e forms eta
        # from the Pfaffian of [[a, I], [-I, 0]] with a from Z_M, which
        # pivots on entries of a above 1, so its Psi is u's to rounding.
        for species in Species:
            for n_modes in (1, 2, 4):
                k = standard_kahler(n_modes, species)
                e = ig_identity(k)
                for h_scale in (1.0, 1.0, 1.0, 5.0, 5.0, 5.0):
                    u = random_lifted(rng, k, h_scale=h_scale)
                    if species is Species.FERMION:
                        u = LiftedGaussian(m=u.m, z=np.zeros(k.dim), psi=u.psi, k=k)
                    left, right = ig_multiply(e, u), ig_multiply(u, e)
                    for out in (left, right):
                        assert out.m.tobytes() == u.m.tobytes()
                        assert out.z.tobytes() == u.z.tobytes()
                    assert left.psi == u.psi
                    if species is Species.BOSON:
                        assert right.psi == u.psi
                    else:
                        assert abs(right.psi - u.psi) <= 1e-14

    def test_zero_displacement_reduces_to_double_cover_law(self, rng, k2):
        from gausslift import mp_lift, mp_multiply

        for _ in range(10):
            m1 = random_group_element(k2, rng)
            m2 = random_group_element(k2, rng)
            a = mp_lift(m1, k2, +1)
            b = mp_lift(m2, k2, +1)
            ua = LiftedGaussian(m=m1, z=np.zeros(4), psi=a.psi, k=k2)
            ub = LiftedGaussian(m=m2, z=np.zeros(4), psi=b.psi, k=k2)
            hom = mp_multiply(a, b)
            inhom = ig_multiply(ua, ub)
            np.testing.assert_allclose(inhom.m, hom.m, atol=1e-12)
            assert inhom.psi == pytest.approx(hom.psi, abs=1e-12)

    def test_unit_modulus_preserved(self, rng, k2):
        u = random_lifted(rng, k2)
        for _ in range(40):
            u = ig_multiply(u, random_lifted(rng, k2, z_scale=0.5, h_scale=0.5))
            assert abs(abs(u.psi) - 1.0) < 1e-10

    def test_semidirect_vector_action(self, rng, k2):
        a = random_lifted(rng, k2)
        b = random_lifted(rng, k2)
        out = ig_multiply(a, b)
        np.testing.assert_allclose(out.z, a.z + a.m @ b.z, atol=1e-12)

    def test_mismatched_references_rejected(self, rng, k1, k2):
        with pytest.raises(InputError):
            ig_multiply(random_lifted(rng, k1), random_lifted(rng, k2))

    @pytest.mark.parametrize("r", [8.0, 9.0])
    @pytest.mark.parametrize("phis", [(0.3, 1.1), (0.7, -0.4), (-0.9, 2.2)])
    def test_associative_at_strong_squeezing(self, k1, r, phis):
        # the squeeze maps of a rotated squeeze are formed without an inverse
        # of M (condition number e^{2r}), so the phase stays associative
        rot = [mat_exp(phi * np.asarray(k1.j)) for phi in phis]
        m = rot[0] @ np.diag([np.exp(r), np.exp(-r)]) @ rot[1]
        a = LiftedGaussian(m=m, z=np.array([0.8, -0.3]), psi=1.0, k=k1)
        b = LiftedGaussian(m=mat_exp(k1.omega @ np.array([[0.3, 0.1], [0.1, -0.2]])),
                           z=np.array([0.4, -0.7]), psi=np.exp(0.3j), k=k1)
        c = LiftedGaussian(m=mat_exp(k1.omega @ np.array([[-0.2, 0.25], [0.25, 0.5]])),
                           z=np.array([-0.5, 0.2]), psi=np.exp(-1.1j), k=k1)
        left = ig_multiply(ig_multiply(a, b), c)
        right = ig_multiply(a, ig_multiply(b, c))
        assert abs(np.angle(left.psi / right.psi)) < 1e-8


class TestDecomposeInverse:
    def test_identity_decomposition(self, k1):
        theta, z, lifted = ig_decompose(ig_identity(k1))
        assert theta == pytest.approx(0.0)
        np.testing.assert_allclose(z, np.zeros(2), atol=0)
        assert lifted.psi == pytest.approx(1.0)

    def test_theta_vanishes_when_psi_matches_lift(self, rng, k2):
        m = random_group_element(k2, rng)
        from gausslift import mp_lift

        psi = mp_lift(m, k2, +1).psi
        theta, _, _ = ig_decompose(LiftedGaussian(m=m, z=np.zeros(4), psi=psi, k=k2))
        assert wrap_angle(theta) == pytest.approx(0.0, abs=1e-10)

    def test_round_trip(self, rng, k2):
        # U = e^{i theta} D(z) S(M, psi), recomposed with the group law
        for _ in range(20):
            u = random_lifted(rng, k2)
            theta, z, lifted = ig_decompose(u)
            squeeze = LiftedGaussian(m=lifted.m, z=np.zeros(4), psi=lifted.psi, k=k2)
            rebuilt = ig_multiply(displacement_to_gaussian(Displacement(z, theta), k2), squeeze)
            np.testing.assert_allclose(rebuilt.m, u.m, atol=1e-12)
            np.testing.assert_allclose(rebuilt.z, u.z, atol=1e-12)
            assert rebuilt.psi == pytest.approx(u.psi, abs=1e-10)

    def test_inverse_of_identity(self, k1):
        out = ig_inverse(ig_identity(k1))
        np.testing.assert_array_equal(out.m, np.eye(2))
        np.testing.assert_array_equal(out.z, np.zeros(2))
        assert out.psi == 1.0

    def test_inverse_of_pure_displacement(self, rng, k1):
        z = rng.standard_normal(2)
        u = LiftedGaussian(m=np.eye(2), z=z, psi=1.0, k=k1)
        inv = ig_inverse(u)
        np.testing.assert_allclose(inv.z, -z, atol=1e-14)
        prod = ig_multiply(u, inv)
        assert prod.psi == pytest.approx(1.0, abs=1e-12)

    def test_two_sided_inverse(self, rng, k2):
        for _ in range(20):
            u = random_lifted(rng, k2)
            inv = ig_inverse(u)
            for prod in (ig_multiply(u, inv), ig_multiply(inv, u)):
                np.testing.assert_allclose(prod.m, np.eye(4), atol=1e-9)
                np.testing.assert_allclose(prod.z, np.zeros(4), atol=1e-9)
                assert abs(prod.psi - 1.0) < 1e-9

    @pytest.mark.parametrize("species", [Species.BOSON, Species.FERMION], ids=["boson", "fermion"])
    @pytest.mark.parametrize("n_modes", [1, 2, 4])
    def test_inverse_phase_is_exact_conjugate(self, rng, species, n_modes):
        k = standard_kahler(n_modes, species)
        z_scale = 1.0 if species is Species.BOSON else 0.0
        for _ in range(5):
            u = random_lifted(rng, k, z_scale=z_scale, h_scale=2.0)
            assert ig_inverse(u).psi == np.conj(u.psi)

    @pytest.mark.parametrize("n_modes", [2, 4])
    def test_fermionic_two_sided_inverse_past_half_turn(self, rng, n_modes):
        k = standard_kahler(n_modes, Species.FERMION)
        for _ in range(10):
            u = random_lifted(rng, k, z_scale=0.0, h_scale=5.0)
            inv = ig_inverse(u)
            for prod in (ig_multiply(u, inv), ig_multiply(inv, u)):
                np.testing.assert_allclose(prod.m, np.eye(k.dim), atol=1e-9)
                assert abs(prod.psi - 1.0) < 1e-9

    def test_fermionic_half_turn_with_singular_c(self, kf2):
        # the pi rotation in the q1-q2 plane has C = 0: no Z map exists, but
        # the inverse needs none
        m = np.diag([-1.0, -1.0, 1.0, 1.0])
        assert not np.any(split_cd(m, kf2)[0])
        psi = np.exp(0.4j)
        inv = ig_inverse(LiftedGaussian(m=m, z=np.zeros(4), psi=psi, k=kf2))
        np.testing.assert_array_equal(inv.m, m.T)
        assert not np.any(inv.z)
        assert inv.psi == np.conj(psi)


class TestLiftedElementCheck:
    """``LiftedGaussian`` and ``LiftedSymplectic`` refuse the same matrices."""

    @pytest.mark.parametrize(
        "m, message",
        [(np.diag([2.0, 2.0]), r"not a group element \(residual 3\)"),
         (np.diag([np.inf, 1.0]), "group element must be finite"),
         (np.eye(4), "group element must have shape")],
        ids=["not-symplectic", "infinite", "wrong-shape"],
    )
    def test_non_group_matrix_rejected(self, k1, m, message):
        with pytest.raises(InputError, match=message):
            LiftedGaussian(m=m, z=np.zeros(2), psi=1.0, k=k1)
        with pytest.raises(InputError, match=message):
            metaplectic.LiftedSymplectic(m=m, psi=1.0, k=k1)


class TestSameReference:
    def test_separately_built_structures_compose(self, rng):
        ka, kb = standard_kahler(2), standard_kahler(2)
        u, v = random_lifted(rng, ka), random_lifted(rng, kb)
        np.testing.assert_allclose(ig_multiply(u, v).m, u.m @ v.m, atol=0)
        m1, m2 = random_group_element(ka, rng), random_group_element(kb, rng)
        hom = mp_multiply(mp_lift(m1, ka), mp_lift(m2, kb))
        np.testing.assert_allclose(hom.m, m1 @ m2, atol=0)

    @pytest.mark.parametrize("n_modes, species", [(1, Species.BOSON), (2, Species.FERMION)])
    def test_different_structures_rejected(self, k2, n_modes, species):
        other = standard_kahler(n_modes, species)
        for a, b in ((k2, other), (other, k2)):
            with pytest.raises(InputError):
                ig_multiply(ig_identity(a), ig_identity(b))
            with pytest.raises(InputError):
                mp_multiply(mp_lift(np.eye(a.dim), a), mp_lift(np.eye(b.dim), b))


class TestSdCommute:
    def test_operator_identity_on_fock(self, rng, k1):
        # || S D(z) - D(Mz) S || on a deep-interior block, n_max = 60
        rep = build_fock(1, 60)
        h = random_symmetric(rng, 2, scale=0.5)
        z = 0.5 * rng.standard_normal(2)
        q, p = quadratures(rep)

        def disp(v):
            return scipy.linalg.expm(1j * (v[1] * q - v[0] * p))

        s_op = scipy.linalg.expm(
            -1j * dense(rep.hamiltonian_matrix(QuadraticHamiltonian(h=h)))
        )
        m = mat_exp(k1.omega @ h)
        lhs = s_op @ disp(z)
        rhs = disp(m @ z) @ s_op
        block = (lhs - rhs)[:13, :13]
        assert np.max(np.abs(block)) < 1e-8
