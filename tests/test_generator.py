import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG2_F, FIG2_STABLE, quadratures, random_symmetric
from gausslift import (
    QuadraticHamiltonian,
    build_fock,
    gqh_overlap_analytic,
    ig_multiply,
    lift_from_gqh,
    mat_exp,
    phi1_entire,
    sigma_map,
    split_cd,
    standard_kahler,
    truncation_reliable,
    vacuum_amplitude_gqh,
    vacuum_phase_stable,
    vacuum_phase_tracked,
    wrap_angle,
    z_from_hf,
)
from gausslift.errors import (
    InputError,
    NumericalDomainError,
    SpectrumOnCutError,
)
from gausslift import generator, matfunc
from gausslift.generator import _affine_exp, _beta_function
from gausslift.matfunc import complexify

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestQuadraticHamiltonian:
    def test_symmetry_enforced(self):
        with pytest.raises(InputError):
            QuadraticHamiltonian(h=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_fermion_antisymmetry(self):
        from gausslift import Species

        QuadraticHamiltonian(h=0.3 * ROT, species=Species.FERMION)
        with pytest.raises(InputError):
            QuadraticHamiltonian(h=np.eye(2), species=Species.FERMION)

    def test_fermion_rejects_linear_term(self):
        from gausslift import Species

        with pytest.raises(InputError):
            QuadraticHamiltonian(h=0.3 * ROT, f=np.array([1.0, 0.0]), species=Species.FERMION)

    @staticmethod
    def _assert_rejected(field, value):
        # finiteness is tested before the symmetry test does any arithmetic
        parts = {"h": np.eye(2), "f": np.array([1.0, 0.0]), "c": 0.5}
        parts[field] = {"h": np.diag([value, 1.0]), "f": np.array([value, 0.0]), "c": value}[field]
        with pytest.raises(InputError, match="finite"):
            QuadraticHamiltonian(**parts)

    @pytest.mark.parametrize("field", ["h", "f", "c"])
    def test_non_finite_coefficients_rejected(self, field):
        self._assert_rejected(field, np.nan)

    @pytest.mark.parametrize("field", ["h", "f", "c"])
    def test_infinite_coefficients_rejected(self, field):
        self._assert_rejected(field, np.inf)

    def test_absent_linear_term_is_a_zero_array(self):
        ham = QuadraticHamiltonian(h=np.eye(2))
        np.testing.assert_array_equal(ham.f, np.zeros(2))
        np.testing.assert_array_equal(ham.scaled(-2.0).f, np.zeros(2))

    def test_scaled(self):
        ham = QuadraticHamiltonian(h=np.eye(2), f=np.array([1.0, 2.0]), c=0.5)
        s = ham.scaled(2.0)
        np.testing.assert_allclose(s.h, 2.0 * np.eye(2), atol=0)
        np.testing.assert_allclose(s.f, [2.0, 4.0], atol=0)
        assert s.c == 1.0


class TestAlphaBeta:
    def test_at_zero(self):
        np.testing.assert_allclose(_beta_function(np.zeros((2, 2))), np.zeros((2, 2)), atol=1e-14)

    def test_beta_nilpotent_truncates(self):
        # series of (K - sinh K)/(4(I - cosh K)) starts at +K/12; a nilpotent
        # argument truncates it exactly
        k = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(_beta_function(k), k / 12.0, atol=1e-15)

    def test_beta_scalar_against_direct_evaluation(self):
        for x in (0.3, 1.5, 3.5):
            b = _beta_function(np.diag([x, -x]))
            direct = 0.25 * (x - np.sinh(x)) / (1.0 - np.cosh(x))
            np.testing.assert_allclose(b, np.diag([direct, -direct]), atol=1e-12)

    def test_beta_outside_series_radius_raises(self):
        x = 5.0  # beyond the series radius, still off the poles
        with pytest.raises(NumericalDomainError):
            _beta_function(np.diag([x, -x]))


class TestZFromHF:
    def test_zero_force(self, rng, k1):
        h = random_symmetric(rng, 2)
        np.testing.assert_allclose(z_from_hf(h, np.zeros(2), k1), np.zeros(2), atol=0)

    def test_pure_displacement_limit(self, k1):
        # h = 0: z = Omega f (the entire form at K = 0)
        f = np.array([1.0, 0.0])
        np.testing.assert_allclose(z_from_hf(np.zeros((2, 2)), f, k1), [0.0, -1.0], atol=1e-15)

    def test_pure_displacement_oracle_direction(self, k1):
        # e^{-i q} shifts p by -1: frozen from the canonical commutator
        rep = build_fock(1, 30)
        ham = QuadraticHamiltonian(h=np.zeros((2, 2)), f=np.array([1.0, 0.0]))
        st = rep._evolution(ham).apply(1.0, rep.vacuum)
        q, p = quadratures(rep)
        assert np.real(np.vdot(st, p @ st)) == pytest.approx(-1.0, abs=1e-10)

    def test_entire_form_matches_inverse_form(self, rng, k2):
        for _ in range(10):
            h = random_symmetric(rng, 4, scale=1.0)
            if np.linalg.cond(h) > 1e6:
                continue
            f = rng.standard_normal(4)
            z = z_from_hf(h, f, k2)
            direct = np.linalg.inv(h) @ (mat_exp(-k2.omega @ h) - np.eye(4)).T @ f
            np.testing.assert_allclose(z, direct, atol=1e-10)

    def test_fig2_oracle_displacement(self, k1):
        rep = build_fock(1, 80)
        ham = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        st = rep._evolution(ham).apply(1.0, rep.vacuum)
        q, p = quadratures(rep)
        oracle = np.array(
            [np.real(np.vdot(st, q @ st)), np.real(np.vdot(st, p @ st))]
        )
        np.testing.assert_allclose(z_from_hf(FIG2_STABLE[0], FIG2_F, k1), oracle, atol=1e-6)


#: 1-norms of the (2N + 2) x (2N + 2) generator on both sides of each Padé
#: degree bound of ``mat_exp`` (1.5e-2, 0.25, 0.95, 2.1 and 5.4)
AFFINE_NORMS = (0.01, 0.02, 0.2, 0.3, 0.9, 1.0, 2.0, 2.2, 5.0, 6.0, 12.0)


def _affine_hamiltonians(rng, n_modes):
    """(H, ||X||_1) over ``AFFINE_NORMS``: balanced and force-dominated H, and
    H with a singular h, each scaled so that its generator X has that 1-norm."""
    n2 = 2 * n_modes
    k = standard_kahler(n_modes)
    for target in AFFINE_NORMS:
        for f_weight, rank in ((1.0, n2), (5.0, n2), (1.0, n2 - 1)):
            h = random_symmetric(rng, n2)
            if rank < n2:
                vals, vecs = np.linalg.eigh(h)
                vals[np.argmin(np.abs(vals))] = 0.0
                h = (vecs * vals) @ vecs.T
            f = f_weight * rng.standard_normal(n2) / np.sqrt(n2)
            c = rng.uniform(-1.0, 1.0)
            # columns of X: |K_.j| + |f_j|/2 (b^T Omega^{-1} = -f^T), then |c| + |b|
            norm = max(np.max(np.abs(k.omega @ h).sum(0) + 0.5 * np.abs(f)),
                       abs(c) + np.abs(f).sum())
            yield QuadraticHamiltonian(h=h, f=f, c=c).scaled(target / norm), target


class TestAffineExp:
    """(theta, z, M) of e^{-iH} from one exponential, against the closed forms
    that the lift does not use: phi1 for z, beta for theta, e^K for M."""

    @pytest.mark.parametrize("n_modes", [1, 2, 4, 8])
    def test_blocks_match_closed_forms(self, rng, n_modes):
        k = standard_kahler(n_modes)
        beta_checked = set()
        for ham, target in _affine_hamiltonians(rng, n_modes):
            kgen = k.omega @ ham.h
            theta, z, m = _affine_exp(ham, k)
            np.testing.assert_allclose(m, mat_exp(kgen), rtol=0, atol=1e-12 * np.abs(m).max())
            z_ref = k.omega @ (phi1_entire(-kgen).T @ ham.f)
            assert np.linalg.norm(z - z_ref) <= 1e-12 * np.linalg.norm(z_ref)
            if np.max(np.abs(np.linalg.eigvals(kgen))) < 4.0:
                beta = _beta_function(kgen)
                quad = k.omega_bilinear(z, beta @ z)
                scale = abs(ham.c) + np.linalg.norm(z) ** 2 * np.linalg.norm(beta, 2)
                assert abs(theta - (quad - ham.c)) <= 1e-12 * scale
                beta_checked.add(target)
        assert beta_checked == set(AFFINE_NORMS)

    @pytest.mark.parametrize("n_modes", [1, 2, 4])
    def test_square_follows_the_group_law(self, rng, n_modes):
        # (theta, z, M)^2 = (2 theta + omega(z, M z)/2, z + M z, M^2) is H at t = 2
        k = standard_kahler(n_modes)
        for ham, _ in _affine_hamiltonians(rng, n_modes):
            theta, z, m = _affine_exp(ham, k)
            theta2, z2, m2 = _affine_exp(ham.scaled(2.0), k)
            scale = max(1.0, np.abs(m2).max())
            np.testing.assert_allclose(m2, m @ m, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(z2, z + m @ z, rtol=0, atol=1e-12 * scale)
            expected = 2.0 * theta + 0.5 * k.omega_bilinear(z, m @ z)
            assert theta2 == pytest.approx(expected, abs=1e-12 * scale * max(1.0, abs(expected)))


    @pytest.mark.parametrize("n_modes", [1, 2])
    def test_time_argument_matches_scaled_hamiltonian(self, rng, n_modes):
        # _affine_exp(H, k, t) is _affine_exp(H t, k) bit for bit, so a time
        # sweep needs no Hamiltonian per row: the Fig. 2 pair on the Fig. 2
        # grid (t = 0 included) at N = 1, a random H at N = 2
        k = standard_kahler(n_modes)
        if n_modes == 1:
            hams = [QuadraticHamiltonian(h=h, f=FIG2_F) for h in FIG2_STABLE]
            times = [i * 0.05 for i in range(201)]
        else:
            hams = [QuadraticHamiltonian(h=random_symmetric(rng, 4), f=rng.standard_normal(4),
                                         c=0.3)]
            times = [0.0, 0.05, 0.5, 1.0, -1.3, 2.5, 10.0]
        for ham in hams:
            for t in times:
                theta, z, m = _affine_exp(ham, k, t)
                theta_ref, z_ref, m_ref = _affine_exp(ham.scaled(t), k)
                assert np.float64(theta).tobytes() == np.float64(theta_ref).tobytes()
                assert z.tobytes() == z_ref.tobytes() and m.tobytes() == m_ref.tobytes()


class TestSigmaMap:
    def test_zero_generator(self, k1):
        np.testing.assert_allclose(sigma_map(np.zeros((2, 2)), k1), np.zeros((2, 2)), atol=1e-14)

    def test_small_squeeze_matches_oracle_phase_difference(self, k1):
        # finite-size check of arg<0|e^{K+f}|0> - arg<0|e^K|0> = z omega Sigma z / 4
        rep = build_fock(1, 60)
        eps = 0.05
        h = k1.omega_inv @ (eps * np.diag([1.0, -1.0]))
        f = np.array([0.8, 0.3])
        with_f = vacuum_amplitude_gqh(QuadraticHamiltonian(h=h, f=f), 1.0, rep)
        without = vacuum_amplitude_gqh(QuadraticHamiltonian(h=h), 1.0, rep)
        kgen = k1.omega @ h
        z = z_from_hf(h, f, k1)
        predicted = 0.25 * z @ k1.omega_inv @ (sigma_map(kgen, k1) @ z)
        measured = wrap_angle(np.angle(with_f) - np.angle(without))
        assert measured == pytest.approx(predicted, abs=1e-8)

    def test_fig2_oracle_phase_difference(self, k1):
        rep = build_fock(1, 80)
        h = FIG2_STABLE[0]
        with_f = vacuum_amplitude_gqh(QuadraticHamiltonian(h=h, f=FIG2_F), 1.0, rep)
        without = vacuum_amplitude_gqh(QuadraticHamiltonian(h=h), 1.0, rep)
        kgen = k1.omega @ h
        z = z_from_hf(h, FIG2_F, k1)
        predicted = 0.25 * z @ k1.omega_inv @ (sigma_map(kgen, k1) @ z)
        assert wrap_angle(np.angle(with_f) - np.angle(without)) == pytest.approx(
            predicted, abs=1e-6
        )

    def test_first_term_gram_form_at_standard_point(self, rng, k2):
        # 2 (I + e^K e^{K^T})^{-1} - I agrees with the J-conjugation form of
        # the resolvent term at the standard structure
        from conftest import random_symmetric
        from gausslift.generator import _beta_function

        h = random_symmetric(rng, 4, scale=1.2)
        kgen = k2.omega @ h
        m = mat_exp(kgen)
        gram_form = 2.0 * np.linalg.inv(np.eye(4) + m @ m.T) - np.eye(4)
        sigma = sigma_map(kgen, k2)
        np.testing.assert_allclose(sigma - 4.0 * _beta_function(kgen), gram_form, atol=1e-10)


class TestTrackedPhase:
    def test_zero(self, k1):
        assert vacuum_phase_tracked(np.zeros((2, 2)), k1) == 1.0

    def test_full_turn_gives_minus_one(self, k1):
        assert vacuum_phase_tracked(2 * np.pi * ROT, k1) == pytest.approx(-1.0, abs=1e-10)

    def test_double_turn_gives_plus_one(self, k1):
        assert vacuum_phase_tracked(4 * np.pi * ROT, k1) == pytest.approx(1.0, abs=1e-10)

    def test_fig2_oracle(self, k1):
        rep = build_fock(1, 80)
        amp = vacuum_amplitude_gqh(QuadraticHamiltonian(h=FIG2_STABLE[0]), 1.0, rep)
        tracked = vacuum_phase_tracked(k1.omega @ FIG2_STABLE[0], k1)
        assert tracked == pytest.approx(amp / abs(amp), abs=1e-7)

    @pytest.mark.parametrize("n_modes", [13, 16])
    def test_starting_branch_beyond_principal_root(self, n_modes):
        # det C of e^{J/4} has argument N/4, past pi from N = 13, so the
        # principal root of det C would start the squaring off by pi
        k = standard_kahler(n_modes)
        phase = vacuum_phase_tracked(0.25 * np.asarray(k.j), k)
        assert phase == pytest.approx(np.exp(-1j * n_modes / 8.0), abs=1e-12)

    @pytest.mark.parametrize(
        "h", [np.diag([1.5, -1.0]), np.array([[0.3, 2.0], [2.0, 0.2]])], ids=["diag", "mixed"]
    )
    def test_unstable_single_mode_vs_fock(self, k1, h):
        rep = build_fock(1, 400)
        ham = QuadraticHamiltonian(h=h, f=np.array([0.3, -0.2]), c=0.4)
        checked = 0
        for t in (0.5, 1.0, 1.5):
            if not truncation_reliable(ham, t, rep):
                continue
            amp = vacuum_amplitude_gqh(ham, t, rep)
            lifted = lift_from_gqh(ham.scaled(t), k1)
            assert np.conj(lifted.psi) == pytest.approx(amp / abs(amp), abs=1e-10)
            checked += 1
        assert checked


class TestStablePhase:
    def test_rotation_generator(self, k1):
        for t in (0.4, 1.0, 2.9):
            assert vacuum_phase_stable(t * np.asarray(k1.j), k1) == pytest.approx(
                np.exp(-0.5j * t), abs=1e-12
            )

    def test_zero_rejected(self, k1):
        with pytest.raises(SpectrumOnCutError):
            vacuum_phase_stable(np.zeros((2, 2)), k1)

    def test_real_spectrum_rejected(self, k1):
        with pytest.raises(SpectrumOnCutError):
            vacuum_phase_stable(np.diag([1.0, -1.0]), k1)

    def test_matches_tracked_on_stable_generators(self, rng, k2):
        for sign in (1.0, -1.0):
            for _ in range(5):
                a = rng.standard_normal((4, 4))
                h = sign * (a @ a.T / 4.0 + 0.3 * np.eye(4))
                kgen = k2.omega @ h
                stable = vacuum_phase_stable(kgen, k2)
                tracked = vacuum_phase_tracked(kgen, k2)
                assert abs(stable - tracked) < 1e-8


class TestLiftFromGQH:
    def test_scalar_only(self, k1):
        lifted = lift_from_gqh(QuadraticHamiltonian(h=np.zeros((2, 2)), c=np.pi), k1)
        np.testing.assert_allclose(lifted.m, np.eye(2), atol=0)
        np.testing.assert_allclose(lifted.z, np.zeros(2), atol=0)
        assert lifted.psi == pytest.approx(-1.0, abs=1e-12)

    def test_full_rotation_deck_phase(self, k1):
        # h = t I at t = 2 pi: the represented operator is -identity
        lifted = lift_from_gqh(QuadraticHamiltonian(h=2 * np.pi * np.eye(2)), k1)
        np.testing.assert_allclose(lifted.m, np.eye(2), atol=1e-10)
        assert lifted.psi == pytest.approx(-1.0, abs=1e-9)

    def test_pure_quadratic_reduces_to_conjugated_tracked_phase(self):
        # both run one engine on the same generator, so they agree exactly
        for n_modes in (1, 2, 4):
            k = standard_kahler(n_modes)
            for unstable in (False, True):
                for seed in range(5):
                    h = self._seeded_hamiltonian(seed, n_modes, unstable).h
                    lifted = lift_from_gqh(QuadraticHamiltonian(h=h), k)
                    np.testing.assert_allclose(lifted.z, np.zeros(2 * n_modes), atol=0)
                    assert vacuum_phase_tracked(k.omega @ h, k) == np.conj(lifted.psi)

    def test_fig2_phase_and_modulus_against_oracle(self, k1):
        rep = build_fock(1, 80)
        ham = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        amp = vacuum_amplitude_gqh(ham, 1.0, rep)
        lifted = lift_from_gqh(ham, k1)
        assert np.conj(lifted.psi) == pytest.approx(amp / abs(amp), abs=1e-6)
        analytic = gqh_overlap_analytic(ham, k1)
        assert analytic == pytest.approx(amp, abs=1e-6)

    @pytest.mark.parametrize(
        "h, f, closed",
        [
            (np.zeros((2, 2)), np.zeros(2), 1.0),
            # h = 0: z = Omega f, a coherent state with overlap e^{-|z|^2/4}
            (np.zeros((2, 2)), np.array([0.8, -0.1]), np.exp(-0.25 * 0.65)),
            # M = diag(2, 1/2) with a displacement
            (ROT.T @ np.diag([np.log(2.0), -np.log(2.0)]), np.array([1.0, 1.0]), None),
        ],
        ids=["identity", "coherent", "squeeze-displaced"],
    )
    def test_overlap_against_oracle(self, k1, h, f, closed):
        ham = QuadraticHamiltonian(h=h, f=f)
        analytic = gqh_overlap_analytic(ham, k1)
        amp = vacuum_amplitude_gqh(ham, 1.0, build_fock(1, 80))
        assert analytic == pytest.approx(amp, abs=1e-10)
        if closed is not None:
            assert analytic == pytest.approx(closed, abs=1e-14)

    @pytest.mark.parametrize(
        "h",
        [
            2 * np.pi * np.eye(2),
            np.diag([2 * np.pi * 1.3, 2 * np.pi / 1.3]),
            (2 * np.pi - 1e-3) * np.eye(2),
        ],
        ids=["full-turn", "detuned-turns", "below-full-turn"],
    )
    def test_beta_poles_against_oracle(self, k1, h):
        # K = Omega h has eigenvalues at (or next to) the poles 2 pi i k of beta
        ham = QuadraticHamiltonian(h=h, f=np.array([0.5, 0.3]), c=0.2)
        amp = vacuum_amplitude_gqh(ham, 1.0, build_fock(1, 120))
        lifted = lift_from_gqh(ham, k1)
        assert abs(wrap_angle(np.angle(np.conj(lifted.psi)) - np.angle(amp))) < 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2]),
        st.floats(0.0, 3.0),
    )
    def test_lift_squares_to_lift_of_double(self, seed, n_modes, h_norm):
        rng = np.random.default_rng(seed)
        k = standard_kahler(n_modes)
        ham = QuadraticHamiltonian(
            h=random_symmetric(rng, 2 * n_modes, scale=h_norm),
            f=rng.standard_normal(2 * n_modes),
            c=rng.uniform(-np.pi, np.pi),
        )
        lifted = lift_from_gqh(ham, k)
        square = ig_multiply(lifted, lifted)
        double = lift_from_gqh(ham.scaled(2.0), k)
        np.testing.assert_allclose(square.m, double.m, atol=1e-9)
        np.testing.assert_allclose(square.z, double.z, atol=1e-9)
        assert abs(wrap_angle(np.angle(square.psi) - np.angle(double.psi))) < 1e-9
        kgen = k.omega @ ham.h
        if np.max(np.abs(np.linalg.eigvals(kgen))) < 4.0:
            z = lifted.z
            quad = 0.25 * z @ k.omega_inv @ (sigma_map(kgen, k) @ z)
            closed = np.conj(vacuum_phase_tracked(kgen, k)) * np.exp(1j * (ham.c - quad))
            assert abs(wrap_angle(np.angle(lifted.psi) - np.angle(closed))) < 1e-10

    @pytest.mark.parametrize("call", [lift_from_gqh, gqh_overlap_analytic],
                             ids=["lift_from_gqh", "gqh_overlap_analytic"])
    def test_one_exponential_per_call(self, monkeypatch, k2, call):
        # theta, z and M of e^{-iH/2^s} come from one exponential, and the
        # squaring forms the rest of the triple with the group law
        calls = []
        exp = matfunc.mat_exp

        def counted(a):
            calls.append(np.shape(a))
            return exp(a)

        for name, module in list(sys.modules.items()):
            if name.startswith("gausslift") and getattr(module, "mat_exp", None) is exp:
                monkeypatch.setattr(module, "mat_exp", counted)
        ham = QuadraticHamiltonian(h=3.0 * np.eye(4), f=np.ones(4), c=0.5)
        call(ham, k2)
        assert calls == [(6, 6)]

    @staticmethod
    def _seeded_hamiltonian(seed, n_modes, unstable):
        """A seeded H whose K = Omega h has only imaginary eigenvalues (stable)
        or an eigenvalue with real part above 0.3 (unstable)."""
        rng = np.random.default_rng([seed, n_modes, unstable])
        n2 = 2 * n_modes
        omega = standard_kahler(n_modes).omega
        while True:
            a = rng.standard_normal((n2, n2))
            h = (a + a.T) / 2.0 if unstable else a @ a.T / n2 + 0.1 * np.eye(n2)
            h *= rng.uniform(0.5, 3.0) / np.linalg.norm(h, 2)
            if not unstable or np.max(np.linalg.eigvals(omega @ h).real) > 0.3:
                return QuadraticHamiltonian(h=h, f=rng.standard_normal(n2),
                                            c=rng.uniform(-np.pi, np.pi))

    @pytest.mark.parametrize("unstable", [False, True], ids=["stable", "unstable"])
    @pytest.mark.parametrize("n_modes", [1, 2, 4])
    def test_squared_triple_matches_the_affine_exponential(self, n_modes, unstable):
        # squaring (M, z, Psi) with the group law reaches the M and z that
        # one exponential of the whole generator gives
        k = standard_kahler(n_modes)
        for seed in range(5):
            ham = self._seeded_hamiltonian(seed, n_modes, unstable)
            lifted = lift_from_gqh(ham, k)
            _, z, m = _affine_exp(ham, k)
            assert np.max(np.abs(lifted.m - m)) <= 1e-12 * np.max(np.abs(m))
            assert np.max(np.abs(lifted.z - z)) <= 1e-12 * np.max(np.abs(z))

    def test_representation_property(self, rng, k1):
        # the lift is a homomorphism: lift(H1) lift(H2) realizes U1 U2 in all
        # three slots (matrix, displacement, phase)
        rep = build_fock(1, 60)
        q, p = quadratures(rep)
        for _ in range(5):
            from conftest import random_gqh

            h1 = random_gqh(rng, 1, h_scale=0.8)
            h2 = random_gqh(rng, 1, h_scale=0.8)
            prod = ig_multiply(lift_from_gqh(h1, k1), lift_from_gqh(h2, k1))
            ev1 = rep._evolution(h1)
            st = ev1._v @ (np.exp(-1j * ev1._w) * (ev1._v.conj().T
                                                   @ rep._evolution(h2).apply(1.0, rep.vacuum)))
            amp12 = np.vdot(rep.vacuum, st)
            m_oracle = mat_exp(k1.omega @ h1.h) @ mat_exp(k1.omega @ h2.h)
            z_oracle = np.array(
                [np.real(np.vdot(st, q @ st)), np.real(np.vdot(st, p @ st))]
            )
            np.testing.assert_allclose(prod.m, m_oracle, atol=1e-8)
            np.testing.assert_allclose(prod.z, z_oracle, atol=1e-8)
            assert np.conj(prod.psi) == pytest.approx(amp12 / abs(amp12), abs=1e-6)


class TestSquaringThreshold:
    """The start of ``_squared_lift`` at ||K / 2^s||_2 <= nu < ln 2.

    Along e^{tK}, t in [0, 1], ||C - I||_2 <= e^nu - 1 < 1, so every
    eigenvalue of the complex block of C keeps a real part above 2 - e^nu
    and the principal-angle sum that starts the lift is continuous.
    """

    NU = generator._SQUARING_NORM

    @staticmethod
    def _direction(kind, n_modes, seed):
        """A generator K = Omega h of spectral norm 1: random h, passive
        (K commutes with J) or a pure squeeze (K symmetric)."""
        rng = np.random.default_rng([seed, n_modes, len(kind)])
        k = standard_kahler(n_modes)
        n = n_modes

        def sym():
            a = rng.standard_normal((n, n))
            return a + a.T

        if kind == "random":
            h = random_symmetric(rng, 2 * n)
        elif kind == "passive":  # h = [[A, B], [-B, A]] commutes with Omega
            a, b = sym(), rng.standard_normal((n, n))
            b = b - b.T
            h = np.block([[a, b], [-b, a]])
        else:  # h = [[A, B], [B, -A]] anticommutes with Omega
            a, b = sym(), sym()
            h = np.block([[a, b], [b, -a]])
        kgen = k.omega @ h
        return h / np.linalg.norm(kgen, 2), k

    KINDS = ["random", "passive", "squeeze"]

    def test_threshold_is_below_ln_2(self):
        assert 0.0 < self.NU < np.log(2.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_modes", [1, 2, 4, 8])
    def test_complex_block_stays_in_the_right_half_plane(self, n_modes, kind):
        for seed in range(3):
            h, k = self._direction(kind, n_modes, seed)
            kgen = self.NU * (k.omega @ h)
            t = np.linspace(0.0, 1.0, 65)
            c = split_cd(mat_exp(t[:, None, None] * kgen), k)[0]
            low = np.min(np.linalg.eigvals(complexify(c)).real)
            assert low >= 2.0 - np.exp(self.NU)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_modes", [1, 2, 4, 8])
    def test_lift_at_the_threshold_is_the_square_of_its_half(self, n_modes, kind):
        # at ||K||_2 in [0.9 nu, nu] the lift starts without squaring, and its
        # half, lifted the same way and squared with the group law, must agree
        for seed in range(3):
            h, k = self._direction(kind, n_modes, seed)
            rng = np.random.default_rng([seed, n_modes])
            ham = QuadraticHamiltonian(h=self.NU * rng.uniform(0.9, 1.0) * h,
                                       f=rng.standard_normal(2 * n_modes),
                                       c=rng.uniform(-np.pi, np.pi))
            whole = lift_from_gqh(ham, k)
            half = lift_from_gqh(ham.scaled(0.5), k)
            square = ig_multiply(half, half)
            scale = max(1.0, np.linalg.norm(whole.m, 2))
            assert np.max(np.abs(square.m - whole.m)) <= 1e-12 * scale
            assert np.max(np.abs(square.z - whole.z)) <= 1e-12 * scale
            assert abs(wrap_angle(np.angle(square.psi) - np.angle(whole.psi))) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_mode_start_against_fock(self, kind):
        rep = build_fock(1, 80)
        for seed in range(3):
            h, k = self._direction(kind, 1, seed)
            ham = QuadraticHamiltonian(h=(self.NU - 1e-9) * h, f=np.array([0.4, -0.3]), c=0.7)
            amp = vacuum_amplitude_gqh(ham, 1.0, rep)
            lifted = lift_from_gqh(ham, k)
            assert abs(np.conj(lifted.psi) - amp / abs(amp)) <= 1e-10

    @pytest.mark.parametrize("norm, squares", [(0.3, 0), (0.59, 0), (0.61, 1), (1.0, 1),
                                               (2.5, 3)])
    @pytest.mark.parametrize("call", [lift_from_gqh, gqh_overlap_analytic],
                             ids=["lift_from_gqh", "gqh_overlap_analytic"])
    def test_squaring_count(self, monkeypatch, k2, call, norm, squares):
        # a lift makes max(0, ceil(log2(||K||_2 / nu))) squarings
        assert squares == max(0, int(np.ceil(np.log2(norm / self.NU))))
        calls = []

        def counted(a, b):
            calls.append(1)
            return ig_multiply(a, b)

        monkeypatch.setattr(generator, "ig_multiply", counted)
        h, _ = self._direction("random", 2, 0)
        call(QuadraticHamiltonian(h=norm * h, f=np.ones(4), c=0.5), k2)
        assert len(calls) == squares
