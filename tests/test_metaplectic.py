import numpy as np
import pytest

from conftest import random_group_element
from gausslift import (
    LiftedSymplectic,
    circle_function,
    cocycle_eta,
    mat_exp,
    mat_sqrt_principal,
    mp_lift,
    mp_multiply,
    wrap_angle,
)
from gausslift.errors import InputError, UnitarilyOrthogonalError


class TestCircleFunction:
    def test_identity(self, k1):
        assert circle_function(np.eye(2), k1) == pytest.approx(1.0)

    def test_cartan_squeeze_factor_is_phase_free(self, rng, k2):
        # phi(T) = 1 for T = sqrt(M M^T), verified numerically
        for _ in range(10):
            m = random_group_element(k2, rng)
            t = mat_sqrt_principal(m @ m.T)
            assert circle_function(t, k2) == pytest.approx(1.0, abs=1e-9)

    def test_quarter_rotation_single_mode(self, k1):
        # oracle-calibrated: amplitude of e^{-it(n+1/2)} at t = pi/2 squares to
        # -i, and the circle phase is its conjugate inverse: phi = +i
        m = mat_exp(np.pi / 2 * np.asarray(k1.j))
        assert circle_function(m, k1) == pytest.approx(1j, abs=1e-12)

    def test_unitarily_orthogonal_flagged(self, kf2):
        # C vanishes identically for this fermionic involution
        m = np.eye(4)
        m[2:, 2:] = [[-1.0, 0.0], [0.0, -1.0]]
        with pytest.raises(UnitarilyOrthogonalError):
            circle_function(m, kf2)


class TestCocycleEta:
    def test_identity_pair(self, k1):
        assert cocycle_eta(np.eye(2), np.eye(2), k1) == 0.0

    def test_identity_left_or_right(self, rng, k2):
        m = random_group_element(k2, rng)
        assert cocycle_eta(np.eye(4), m, k2) == pytest.approx(0.0, abs=1e-12)
        assert cocycle_eta(m, np.eye(4), k2) == pytest.approx(0.0, abs=1e-12)

    def test_matches_circle_phase_ratio(self, rng, k2):
        for _ in range(20):
            m1 = random_group_element(k2, rng)
            m2 = random_group_element(k2, rng)
            eta = cocycle_eta(m1, m2, k2)
            ratio = circle_function(m1 @ m2, k2) / (
                circle_function(m1, k2) * circle_function(m2, k2)
            )
            assert wrap_angle(eta - np.angle(ratio)) == pytest.approx(0.0, abs=1e-9)


class TestMpLift:
    def test_identity_both_branches(self, k1):
        assert mp_lift(np.eye(2), k1, +1).psi == pytest.approx(1.0)
        assert mp_lift(np.eye(2), k1, -1).psi == pytest.approx(-1.0)

    def test_half_turn_lift_matches_tracked_phase(self, k1):
        from gausslift import vacuum_phase_tracked

        m = mat_exp(np.pi * np.asarray(k1.j))
        lifted = mp_lift(m, k1, +1)
        assert lifted.psi == pytest.approx(1j, abs=1e-9)
        # the realized operator e^{-i pi (n + 1/2)} measures -i = psi*
        tracked = vacuum_phase_tracked(np.pi * np.asarray(k1.j), k1)
        assert np.conj(tracked) == pytest.approx(lifted.psi, abs=1e-9)

    def test_invariant_enforced(self, k1):
        with pytest.raises(InputError):
            LiftedSymplectic(m=np.eye(2), psi=np.exp(0.3j), k=k1)

    def test_invalid_group_element_rejected(self, k1):
        with pytest.raises(InputError):
            mp_lift(np.diag([2.0, 2.0]), k1)

    @pytest.mark.parametrize("psi", [complex(np.nan, 0.0), complex(np.inf, 0.0)])
    def test_non_finite_psi_rejected(self, k1, psi):
        with pytest.raises(InputError):
            LiftedSymplectic(m=np.eye(2), psi=psi, k=k1)


class TestMpMultiply:
    def test_identity_neutral(self, rng, k2):
        m = random_group_element(k2, rng)
        a = mp_lift(np.eye(4), k2, +1)
        b = mp_lift(m, k2, +1)
        out = mp_multiply(a, b)
        np.testing.assert_allclose(out.m, b.m, atol=1e-12)
        assert out.psi == pytest.approx(b.psi, abs=1e-12)

    def test_deck_transformation_squares_to_identity(self, k1):
        deck = mp_lift(np.eye(2), k1, -1)
        out = mp_multiply(deck, deck)
        np.testing.assert_allclose(out.m, np.eye(2), atol=1e-14)
        assert out.psi == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_squared_is_deck_element(self, k1):
        # oracle: e^{-i pi (n + 1/2)} squared has vacuum amplitude -1
        m = mat_exp(np.pi * np.asarray(k1.j))
        lifted = mp_lift(m, k1, +1)
        out = mp_multiply(lifted, lifted)
        np.testing.assert_allclose(out.m, np.eye(2), atol=1e-12)
        assert out.psi == pytest.approx(-1.0, abs=1e-9)

    def test_double_cover_closure(self, rng, k2):
        from gausslift.metaplectic import circle_function as phi

        for _ in range(500):
            a = mp_lift(random_group_element(k2, rng), k2, +1 if rng.uniform() < 0.5 else -1)
            b = mp_lift(random_group_element(k2, rng), k2, +1 if rng.uniform() < 0.5 else -1)
            out = mp_multiply(a, b)  # constructor enforces psi^2 = phi(M)
            assert abs(out.psi**2 - phi(out.m, k2)) < 1e-8

    def test_associativity_near_identity(self, rng, k2):
        for _ in range(500):
            lifts = [
                mp_lift(random_group_element(k2, rng, scale=1.0), k2, +1) for _ in range(3)
            ]
            left = mp_multiply(mp_multiply(lifts[0], lifts[1]), lifts[2])
            right = mp_multiply(lifts[0], mp_multiply(lifts[1], lifts[2]))
            np.testing.assert_allclose(left.m, right.m, atol=1e-10)
            assert abs(left.psi - right.psi) < 1e-9

    def test_mismatched_references_rejected(self, k1, k2):
        with pytest.raises(InputError):
            mp_multiply(mp_lift(np.eye(2), k1), mp_lift(np.eye(4), k2))
