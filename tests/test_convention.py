"""Calibration suite: fixes every phase-sign convention against the oracles.

Panel of generators whose represented unitaries have known vacuum amplitudes.
These tests pin, once and for all:

* bosons:   <0|e^{K-hat}|0>^2 = 1 / complex_det(C_{e^K})   (conjugated phase)
* fermions: <J|e^{K-hat}|J>^2 =     complex_det(C_{e^K})
* stored lift phases satisfy psi^2 = phi(M) with measured phase psi* (bosons)
  and psi (fermions)
* the displacement prefactor angle embeds conjugated into the stored Psi
"""

import numpy as np
import pytest
import scipy.linalg

from conftest import quadratures, random_antisymmetric, random_symmetric
from gausslift import (
    QuadraticHamiltonian,
    build_fock,
    build_majorana,
    circle_function,
    cocycle_eta,
    fermion_vacuum_amplitude,
    mat_exp,
    split_cd,
    complex_det,
    vacuum_amplitude_gqh,
    vacuum_phase_tracked,
    wrap_angle,
)


def _boson_amplitude(h, t, nmax=60):
    rep = build_fock(h.shape[0] // 2, nmax)
    return vacuum_amplitude_gqh(QuadraticHamiltonian(h=h), t, rep)


class TestBosonSquareLaw:
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.2])
    def test_rotation_panel(self, k1, t):
        # h = I generates e^{-it(n + 1/2)}: amplitude e^{-it/2}
        amp = _boson_amplitude(np.eye(2), t)
        assert amp == pytest.approx(np.exp(-0.5j * t), abs=1e-10)
        m = mat_exp(k1.omega @ np.eye(2) * t)
        c, _ = split_cd(m, k1)
        det = complex_det(c)
        assert amp**2 == pytest.approx(1.0 / det, abs=1e-9)

    def test_random_generators(self, rng, k1):
        for _ in range(5):
            h = random_symmetric(rng, 2, scale=0.8)
            amp = _boson_amplitude(h, 1.0)
            m = mat_exp(k1.omega @ h)
            c, _ = split_cd(m, k1)
            det = complex_det(c)
            assert amp**2 == pytest.approx(1.0 / det, abs=1e-9)

    def test_two_modes(self, rng, k2):
        h = random_symmetric(rng, 4, scale=0.6)
        amp = _boson_amplitude(h, 1.0, nmax=24)
        m = mat_exp(k2.omega @ h)
        c, _ = split_cd(m, k2)
        assert amp**2 == pytest.approx(1.0 / complex_det(c), abs=1e-8)


class TestFermionSquareLaw:
    def test_rotation_panel(self, kf1):
        for t in (0.4, np.pi, 2 * np.pi):
            h = t * np.array([[0.0, 1.0], [-1.0, 0.0]])
            amp = fermion_vacuum_amplitude(h, build_majorana(1))
            assert amp == pytest.approx(np.exp(0.5j * t), abs=1e-12)
            c, _ = split_cd(mat_exp(h), kf1)
            assert amp**2 == pytest.approx(complex_det(c), abs=1e-10)

    def test_random_generators(self, rng, kf2):
        rep = build_majorana(2)
        for _ in range(5):
            h = random_antisymmetric(rng, 4, scale=0.9)
            amp = fermion_vacuum_amplitude(h, rep)
            c, _ = split_cd(mat_exp(h), kf2)
            assert amp**2 == pytest.approx(complex_det(c), abs=1e-9)


class TestTrackedPhaseIsMeasuredPhase:
    def test_boson_oracle_agreement(self, rng, k1):
        for _ in range(4):
            h = random_symmetric(rng, 2, scale=1.0)
            amp = _boson_amplitude(h, 1.0)
            tracked = vacuum_phase_tracked(k1.omega @ h, k1)
            assert tracked == pytest.approx(amp / abs(amp), abs=1e-10)

    def test_fermion_oracle_agreement(self, rng, kf2):
        rep = build_majorana(2)
        for _ in range(4):
            h = random_antisymmetric(rng, 4, scale=1.0)
            amp = fermion_vacuum_amplitude(h, rep)
            tracked = vacuum_phase_tracked(h, kf2)
            assert tracked == pytest.approx(amp / abs(amp), abs=1e-10)

    def test_stored_lift_phase_is_conjugate_for_bosons(self, rng, k1):
        h = random_symmetric(rng, 2, scale=0.7)
        m = mat_exp(k1.omega @ h)
        measured = vacuum_phase_tracked(k1.omega @ h, k1)
        psi_stored = np.conj(measured)
        assert psi_stored**2 == pytest.approx(circle_function(m, k1), abs=1e-9)


class TestCocycleRatioSign:
    def test_boson_phase_ratio(self, rng, k1):
        # measured phases compose with e^{-i eta / 2} for bosons
        rep = build_fock(1, 60)
        h1 = random_symmetric(rng, 2, scale=0.7)
        h2 = random_symmetric(rng, 2, scale=0.7)
        a1 = _boson_amplitude(h1, 1.0)
        a2 = _boson_amplitude(h2, 1.0)
        ev1 = rep._evolution(QuadraticHamiltonian(h=h1))
        st = rep._evolution(QuadraticHamiltonian(h=h2)).apply(1.0, rep.vacuum)
        a12 = np.vdot(rep.vacuum, ev1._v @ (np.exp(-1j * ev1._w) * (ev1._v.conj().T @ st)))
        m1 = mat_exp(k1.omega @ h1)
        m2 = mat_exp(k1.omega @ h2)
        eta = cocycle_eta(m1, m2, k1)
        ratio = (a12 / abs(a12)) / ((a1 / abs(a1)) * (a2 / abs(a2)))
        assert wrap_angle(np.angle(ratio) + eta / 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_fermion_phase_ratio(self, rng, kf2):
        # fermions compose with e^{+i eta / 2}: no conjugation in Phi
        rep = build_majorana(2)
        h1 = random_antisymmetric(rng, 4, scale=0.8)
        h2 = random_antisymmetric(rng, 4, scale=0.8)
        op1 = scipy.linalg.expm(rep.quadratic_operator(h1))
        op2 = scipy.linalg.expm(rep.quadratic_operator(h2))
        a1 = np.vdot(rep.vacuum, op1 @ rep.vacuum)
        a2 = np.vdot(rep.vacuum, op2 @ rep.vacuum)
        a12 = np.vdot(rep.vacuum, op1 @ (op2 @ rep.vacuum))
        eta = cocycle_eta(mat_exp(h1), mat_exp(h2), kf2)
        ratio = (a12 / abs(a12)) / ((a1 / abs(a1)) * (a2 / abs(a2)))
        assert wrap_angle(np.angle(ratio) - eta / 2.0) == pytest.approx(0.0, abs=1e-9)


class TestDisplacementConvention:
    def test_prefactor_angle_embeds_conjugated(self, k1):
        from gausslift import Displacement, displacement_to_gaussian

        d = Displacement(z=np.array([0.4, -0.2]), phase=0.9)
        u = displacement_to_gaussian(d, k1)
        assert u.psi == pytest.approx(np.exp(-0.9j))

    def test_displacement_operator_phase_on_fock(self, k1):
        # oracle: e^{i theta} D(z) has vacuum phase e^{i theta}; D(z) alone is
        # positive on the vacuum
        rep = build_fock(1, 40)
        z = np.array([0.5, 0.3])
        q, p = quadratures(rep)
        d_op = scipy.linalg.expm(1j * (z[1] * q - z[0] * p))
        amp = np.vdot(rep.vacuum, d_op @ rep.vacuum)
        assert amp.imag == pytest.approx(0.0, abs=1e-12)
        assert amp.real > 0

    def test_displacement_action_on_quadratures(self, k1):
        # D(z)^dag xi D(z) = xi + z on the interior block
        rep = build_fock(1, 50)
        z = np.array([0.3, -0.7])
        q, p = quadratures(rep)
        d_op = scipy.linalg.expm(1j * (z[1] * q - z[0] * p))
        for xi, shift in ((q, z[0]), (p, z[1])):
            moved = d_op.conj().T @ xi @ d_op
            block = (moved - xi)[:30, :30]
            np.testing.assert_allclose(block, shift * np.eye(30), atol=1e-8)
