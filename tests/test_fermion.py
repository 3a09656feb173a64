import numpy as np
import pytest
import scipy.linalg

from conftest import random_antisymmetric
from gausslift import (
    Species,
    build_majorana,
    cocycle_eta,
    complex_det,
    fermion,
    fermion_vacuum_amplitude,
    generator,
    mat_exp,
    matfunc,
    mw_reflection,
    pin_component_phase,
    pin_vacuum_amplitude,
    reference_reflection,
    so_generator,
    split_cd,
    standard_kahler,
    vacuum_phase_tracked,
    validate_group_element,
    wrap_angle,
    zeta_cocycle,
)
from gausslift.errors import (
    InputError,
    InvalidStructureError,
    SpectrumOnCutError,
    UnitarilyOrthogonalError,
)
from gausslift.fermion import SO_CUT_BAND, normalize_reflection

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def random_so(rng, n2, scale=1.0):
    return mat_exp(random_antisymmetric(rng, n2, scale=scale))


class TestMwReflection:
    def test_first_axis_single_mode(self, kf1):
        w = np.array([np.sqrt(2.0), 0.0])
        np.testing.assert_allclose(mw_reflection(w, kf1), np.diag([1.0, -1.0]), atol=1e-15)

    def test_invariants_random_sweep(self, rng):
        from gausslift import Species, standard_kahler

        for n in (1, 2, 3):
            k = standard_kahler(n, Species.FERMION)
            for _ in range(30):
                w = normalize_reflection(rng.standard_normal(2 * n), k)
                m = mw_reflection(w, k)
                assert np.linalg.det(m) == pytest.approx(-1.0, abs=1e-12)
                np.testing.assert_allclose(m @ m, np.eye(2 * n), atol=1e-12)
                np.testing.assert_allclose(m @ k.metric @ m.T, k.metric, atol=1e-12)

    def test_zero_vector_rejected(self, kf1):
        with pytest.raises(InputError):
            mw_reflection(np.zeros(2), kf1)

    def test_unnormalized_rejected_unless_rescaled(self, kf1):
        with pytest.raises(InputError):
            mw_reflection(np.array([1.0, 0.0]), kf1)
        m = mw_reflection(normalize_reflection(np.array([1.0, 0.0]), kf1), kf1)
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-14)

    def test_bosonic_structure_rejected(self, k1):
        with pytest.raises(InputError):
            mw_reflection(np.array([np.sqrt(2.0), 0.0]), k1)


def plane_generator(n2, q, angles):
    """Q blockdiag(angle_j [[0, 1], [-1, 0]]) Q^T: rotation angle_j in the plane
    of columns 2j, 2j + 1 of the orthogonal Q."""
    gen = np.zeros((n2, n2))
    for j, angle in enumerate(angles):
        gen[2 * j, 2 * j + 1], gen[2 * j + 1, 2 * j] = angle, -angle
    return q @ gen @ q.T


def unit_path(rng, n2):
    """Q(s) = e^{sA} for a seeded antisymmetric A with ||A||_2 = 1."""
    a = random_antisymmetric(rng, n2)
    return lambda s: mat_exp(s * a)


class TestSoGenerator:
    def test_round_trip(self, rng):
        for n2 in (2, 4, 6):
            m = random_so(rng, n2, scale=2.0)
            gen = so_generator(m)
            np.testing.assert_allclose(gen, -gen.T, atol=1e-12)
            np.testing.assert_allclose(mat_exp(gen), m, atol=1e-9)
        # the band's calibration: a largest angle of pi - 2 band still passes
        # the SO_GENERATOR_TOL reproduction check (the other planes stay clear
        # of the cut: two planes near it are not told apart by the eigh of P)
        for n2 in (2, 4, 6, 8, 10):
            for _ in range(40):
                angles = rng.uniform(0.0, 3.0, n2 // 2)
                angles[0] = np.pi - 2 * SO_CUT_BAND
                q = np.linalg.qr(rng.standard_normal((n2, n2)))[0]
                m = mat_exp(plane_generator(n2, q, angles))
                gen = so_generator(m)
                np.testing.assert_allclose(gen, -gen.T, atol=1e-12)
                assert np.linalg.norm(gen, 2) == pytest.approx(angles[0], abs=1e-8)

    def test_matches_logm_reference(self, rng):
        # scipy's Schur-based logm, for 850 elements with ||K||_2 up to 3.1
        for n2 in (2, 4, 6, 8, 10):
            for _ in range(170):
                m = random_so(rng, n2, scale=rng.uniform(0.01, 3.1))
                ref = np.real_if_close(scipy.linalg.logm(m))
                assert np.isrealobj(ref)
                tol = 1e-12 * max(1.0, np.linalg.norm(ref, 2))
                np.testing.assert_allclose(so_generator(m), ref, rtol=0, atol=tol)

    @pytest.mark.parametrize("half_turns", [1, 2], ids=["2-dim", "4-dim"])
    def test_on_cut_paths_refused(self, rng, half_turns):
        # on the cut the principal logarithm is not unique: every point of
        # Q(s) M0 Q(s)^T, s in [0, 2], N = 3, with a 2 or 4-dim -1 eigenspace
        angles = [np.pi] * half_turns + [0.7] * (3 - half_turns)
        m0 = mat_exp(plane_generator(6, np.eye(6)[:, [0, 3, 1, 4, 2, 5]], angles))
        path = unit_path(rng, 6)
        for s in np.linspace(0.0, 2.0, 201):
            q = path(s)
            with pytest.raises(SpectrumOnCutError):
                so_generator(q @ m0 @ q.T)
        with pytest.raises(SpectrumOnCutError):
            so_generator(np.diag([-1.0, -1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("plane", [(0, 3), (0, 1)], ids=["q1-p1", "q1-q2"])
    def test_pin_phase_next_to_cut_matches_oracle(self, rng, plane):
        # a half turn at 2 band from the cut, moved along Q(s); the oracle
        # exponentiates the exact generator Q(s) K0 Q(s)^T, not so_generator's
        k = standard_kahler(3, Species.FERMION)
        rep = build_majorana(3)
        order = [plane[0], plane[1]] + [i for i in range(6) if i not in plane]
        k0 = plane_generator(6, np.eye(6)[:, order], [np.pi - 2 * SO_CUT_BAND, 0.4, 1.1])
        m0 = mat_exp(k0)
        path = unit_path(rng, 6)
        checked = 0
        for s in np.linspace(0.0, 2.0, 201):
            q = path(s)
            amp = fermion_vacuum_amplitude(q @ k0 @ q.T, rep)
            if abs(amp) > 1e-6:
                phase = pin_component_phase(q @ m0 @ q.T, reference_reflection(k), k)
                assert abs(phase - amp / abs(amp)) < 1e-8
                checked += 1
        assert checked > 100

    def test_reflection_rejected(self):
        with pytest.raises(InputError):
            so_generator(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize(
        "call, m, error, message",
        [
            (so_generator, np.full((2, 2), np.nan), InvalidStructureError,
             "M contains non-finite entries"),
            (so_generator, np.diag([np.inf, 1.0]), InvalidStructureError,
             "M contains non-finite entries"),
            (so_generator, np.ones((3, 2)), InvalidStructureError,
             "M must be a square matrix, got shape (3, 2)"),
            (so_generator, np.zeros((0, 0)), InputError, "M must not be empty"),
            (vacuum_phase_tracked, np.full((2, 2), np.nan), InvalidStructureError,
             "generator contains non-finite entries"),
            (vacuum_phase_tracked, np.diag([np.inf, 1.0]), InvalidStructureError,
             "generator contains non-finite entries"),
            # a shape that does not fit the structure is the shape check's
            (vacuum_phase_tracked, np.ones((3, 2)), InputError,
             "generator must have shape (2, 2), got (3, 2)"),
        ],
        ids=["so_generator-nan", "so_generator-inf", "so_generator-3x2", "so_generator-empty",
             "vacuum_phase_tracked-nan", "vacuum_phase_tracked-inf",
             "vacuum_phase_tracked-3x2"],
    )
    def test_non_finite_or_non_square_refused(self, kf1, call, m, error, message):
        # refused before scipy or LAPACK sees it: no bare ValueError or LinAlgError
        args = (m,) if call is so_generator else (m, kf1)
        with pytest.raises(error) as exc:
            call(*args)
        assert type(exc.value) is error and str(exc.value) == message


class TestVacuumAmplitude:
    def test_zero_generator(self):
        amp = fermion_vacuum_amplitude(np.zeros((2, 2)), build_majorana(1))
        assert amp == pytest.approx(1.0)

    def test_full_turn_gives_minus_one(self):
        amp = fermion_vacuum_amplitude(2 * np.pi * ROT, build_majorana(1))
        assert amp == pytest.approx(-1.0, abs=1e-12)

    def test_squared_amplitude_identity(self, rng, kf2):
        rep = build_majorana(2)
        for _ in range(10):
            h = random_antisymmetric(rng, 4, scale=1.0)
            amp = fermion_vacuum_amplitude(h, rep)
            c, _ = split_cd(mat_exp(h), kf2)
            assert amp**2 == pytest.approx(complex_det(c), abs=1e-8)

    def test_anticommutator_guard(self):
        rep = build_majorana(3)
        assert rep.anticommutator_residual() < 1e-10

    def test_mode_count_guard(self):
        with pytest.raises(InputError):
            build_majorana(6)


class TestPinComponentPhase:
    def test_identity(self, kf2):
        w = reference_reflection(kf2)
        assert pin_component_phase(np.eye(4), w, kf2) == pytest.approx(1.0)

    def test_reflection_itself(self, kf2):
        w = reference_reflection(kf2)
        m = mw_reflection(w, kf2)
        assert pin_component_phase(m, w, kf2) == pytest.approx(1.0, abs=1e-12)

    def test_special_orthogonal_vs_oracle(self, rng):
        from gausslift import Species, standard_kahler

        for n in (1, 2, 3):
            k = standard_kahler(n, Species.FERMION)
            rep = build_majorana(n)
            w = reference_reflection(k)
            for _ in range(5):
                m = random_so(rng, 2 * n)
                phase = pin_component_phase(m, w, k)
                amp = fermion_vacuum_amplitude(so_generator(m), rep)
                assert phase == pytest.approx(amp / abs(amp), abs=1e-8)

    def test_other_component_vs_oracle(self, rng, kf2):
        rep = build_majorana(2)
        w = reference_reflection(kf2)
        mw = mw_reflection(w, kf2)
        for _ in range(10):
            m = mw @ random_so(rng, 4)
            assert np.linalg.det(m) == pytest.approx(-1.0, abs=1e-10)
            phase = pin_component_phase(m, w, kf2)
            amp = fermion_vacuum_amplitude(so_generator(mw @ m), rep)
            assert phase == pytest.approx(amp / abs(amp), abs=1e-8)

    def test_product_of_reflected_elements_closes(self, rng, kf2):
        # operator product of two det = -1 chains lands over det = +1 and its
        # measured phase squares to the circle phase of the product matrix
        rep = build_majorana(2)
        w = reference_reflection(kf2)
        mw = mw_reflection(w, kf2)
        w_op = rep.linear_operator(w)
        for _ in range(5):
            m1 = mw @ random_so(rng, 4, scale=0.8)
            m2 = mw @ random_so(rng, 4, scale=0.8)
            assert np.linalg.det(m1 @ m2) == pytest.approx(1.0, abs=1e-10)
            op1 = w_op @ scipy.linalg.expm(rep.quadratic_operator(so_generator(mw @ m1)))
            op2 = w_op @ scipy.linalg.expm(rep.quadratic_operator(so_generator(mw @ m2)))
            amp = np.vdot(rep.vacuum, op1 @ (op2 @ rep.vacuum))
            assert abs(amp) > 1e-12
            phase = amp / abs(amp)
            c, _ = split_cd(m1 @ m2, kf2)
            circle = complex_det(c)
            assert phase**2 == pytest.approx(circle / abs(circle), abs=1e-8)
            # the chain also realizes the product matrix on the quadratures
            prod = op1 @ op2
            for a in range(4):
                moved = prod.conj().T @ rep.xi[a] @ prod
                target = sum((m1 @ m2)[a, b] * rep.xi[b] for b in range(4))
                assert np.max(np.abs(moved - target)) < 1e-9

    def test_near_zero_determinant_margin_guard(self, kf2):
        w = reference_reflection(kf2)
        with pytest.raises(InputError):
            pin_component_phase(0.5 * np.eye(4), w, kf2)


def random_planes(rng, n_modes, angles):
    """(K, M = e^K) for rotation ``angles`` in the planes of a random
    orthogonal Q; the trailing planes get random angles in [0, 3)."""
    n2 = 2 * n_modes
    angles = np.concatenate([angles, rng.uniform(0.0, 3.0, n_modes - len(angles))])
    gen = plane_generator(n2, np.linalg.qr(rng.standard_normal((n2, n2)))[0], angles)
    return gen, mat_exp(gen)


class TestPinClosedForm:
    """The Cayley-Pfaffian phase against oracles that exponentiate the exact
    generator K, never one taken from M."""

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
    def test_both_components_vs_majorana_oracle(self, rng, n_modes):
        k = standard_kahler(n_modes, Species.FERMION)
        rep = build_majorana(n_modes)
        w = reference_reflection(k)
        mw = mw_reflection(w, k)
        for _ in range(20):
            gen, m = random_planes(rng, n_modes, rng.uniform(0.0, 3.0, 1))
            amp = fermion_vacuum_amplitude(gen, rep)
            assert abs(pin_component_phase(m, w, k) - amp / abs(amp)) < 1e-12
            assert abs(pin_component_phase(mw @ m, w, k) - amp / abs(amp)) < 1e-12

    @pytest.mark.parametrize("n_modes", [6, 8])
    def test_vs_tracked_phase_beyond_the_oracle(self, rng, n_modes):
        k = standard_kahler(n_modes, Species.FERMION)
        w = reference_reflection(k)
        for _ in range(10):
            gen, m = random_planes(rng, n_modes, rng.uniform(0.0, np.pi - 1e-3, n_modes))
            phase = vacuum_phase_tracked(gen, k)
            assert abs(pin_component_phase(m, w, k) - phase) < 1e-11

    @pytest.mark.parametrize("delta", [1e-3, 1e-4])
    @pytest.mark.parametrize("n_modes", [2, 3])
    def test_two_planes_near_the_cut_answered(self, rng, n_modes, delta):
        # one eigh of P cannot tell these planes apart, so a logarithm of M
        # fails here; the Cayley transform needs none
        k = standard_kahler(n_modes, Species.FERMION)
        rep = build_majorana(n_modes)
        w = reference_reflection(k)
        for _ in range(40):
            gen, m = random_planes(rng, n_modes, [np.pi - delta, np.pi - 2 * delta])
            amp = fermion_vacuum_amplitude(gen, rep)
            assert abs(pin_component_phase(m, w, k) - amp / abs(amp)) < 1e-8

    def test_inside_the_cut_band_refused(self, rng):
        k = standard_kahler(3, Species.FERMION)
        _, m = random_planes(rng, 3, [np.pi - SO_CUT_BAND / 2])
        with pytest.raises(SpectrumOnCutError):
            pin_component_phase(m, reference_reflection(k), k)

    def test_vanishing_amplitude_off_the_cut_refused(self, kf2):
        # q1-q2 turned by pi/2 - x, p1-p2 by -(pi/2 - x): both angles are far
        # from pi, and det C = cos^2(pi/2 - x) = sin^2 x < 1e-12
        x = 3e-7
        angle = np.pi / 2 - x
        m = np.eye(4)
        for (a, b), t in (((0, 1), angle), ((2, 3), -angle)):
            m[a, a] = m[b, b] = np.cos(t)
            m[a, b], m[b, a] = np.sin(t), -np.sin(t)
        assert abs(complex_det(split_cd(m, kf2)[0])) < 1e-12
        with pytest.raises(UnitarilyOrthogonalError):
            pin_component_phase(m, reference_reflection(kf2), kf2)

    def test_takes_no_logarithm_exponential_or_squaring(self, rng, kf2, monkeypatch):
        calls = []

        def spy(module, name):
            func = getattr(module, name)

            def wrapped(*args):
                calls.append(name)
                return func(*args)
            monkeypatch.setattr(module, name, wrapped)

        for module, name in [(fermion, "mat_exp"), (matfunc, "mat_exp"),
                             (fermion, "so_generator"), (generator, "vacuum_phase_tracked"),
                             (generator, "_squared_lift")]:
            spy(module, name)
        w = reference_reflection(kf2)
        m = random_so(rng, 4, scale=2.0)
        pin_component_phase(m, w, kf2)
        pin_component_phase(mw_reflection(w, kf2) @ m, w, kf2)
        assert calls == []
        fermion.so_generator(m)  # the spies are live
        assert calls == ["so_generator", "mat_exp"]


class TestPinVacuumAmplitude:
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
    def test_matches_exponentiated_generator(self, rng, n_modes):
        rep = build_majorana(n_modes)
        for _ in range(10):
            gen, m = random_planes(rng, n_modes, rng.uniform(0.0, 3.0, 1))
            amp = fermion_vacuum_amplitude(gen, rep)
            assert abs(pin_vacuum_amplitude(m, rep) - amp) < 1e-12

    @pytest.mark.parametrize("n_modes", [2, 3, 5])
    def test_two_planes_near_the_cut(self, rng, n_modes):
        # the sign of the trace, not its phase, fixes P = +-e^{K-hat}, so a
        # trace of 2 delta^2 2^{N-2} costs no accuracy
        rep = build_majorana(n_modes)
        for _ in range(10):
            gen, m = random_planes(rng, n_modes, [np.pi - 1e-6, np.pi - 2e-6])
            amp = fermion_vacuum_amplitude(gen, rep)
            assert abs(pin_vacuum_amplitude(m, rep) - amp) < 1e-12

    def test_reflection_refused(self, kf2):
        m = mw_reflection(reference_reflection(kf2), kf2)
        with pytest.raises(InputError):
            pin_vacuum_amplitude(m, build_majorana(2))

    def test_half_turn_refused(self):
        with pytest.raises(SpectrumOnCutError):
            pin_vacuum_amplitude(np.diag([-1.0, -1.0, 1.0, 1.0]), build_majorana(2))

    @pytest.mark.parametrize(
        "m, error",
        [(np.eye(4), InputError), (0.5 * np.eye(2), InputError),
         (np.diag([np.nan, 1.0]), InvalidStructureError)],
        ids=["shape", "not-orthogonal", "non-finite"])
    def test_bad_matrix_refused(self, m, error):
        with pytest.raises(error):
            pin_vacuum_amplitude(m, build_majorana(1))


def q_plane_rotation(theta):
    """Generator of a rotation by theta in the q1-q2 plane of two modes."""
    h = np.zeros((4, 4))
    h[0, 1], h[1, 0] = theta, -theta
    return h


class TestVacuumPhaseVsOracle:
    # det C = cos^2(theta/2) stays real and non-negative on this path, so
    # the sign change of the amplitude past theta = pi is invisible to det C
    @pytest.mark.parametrize("theta", [np.pi + 1e-4, 1.5 * np.pi], ids=["past-pi", "3pi/2"])
    def test_rotation_past_a_zero_of_det_c(self, kf2, theta):
        h = q_plane_rotation(theta)
        amp = fermion_vacuum_amplitude(h, build_majorana(2))
        phase = vacuum_phase_tracked(h, kf2)
        assert phase == pytest.approx(amp / abs(amp), abs=1e-10)

    @pytest.mark.parametrize("theta", [np.pi + 1e-4, 1.5 * np.pi], ids=["past-pi", "3pi/2"])
    def test_zeta_cocycle_of_half_rotations(self, kf2, theta):
        # the inhomogeneous cocycle at z = 0 carries the Pfaffian-rooted eta
        m = mat_exp(q_plane_rotation(theta / 2))
        rep = build_majorana(2)
        amp = fermion_vacuum_amplitude(q_plane_rotation(theta), rep)
        half = fermion_vacuum_amplitude(q_plane_rotation(theta / 2), rep)
        zeta = zeta_cocycle(m, np.zeros(4), m, np.zeros(4), kf2)
        assert wrap_angle(zeta - np.angle(amp / half ** 2)) == pytest.approx(0.0, abs=1e-10)

    def test_unitarily_orthogonal_rejected(self, kf2):
        with pytest.raises(UnitarilyOrthogonalError):
            vacuum_phase_tracked(q_plane_rotation(np.pi), kf2)

    @pytest.mark.parametrize("n_modes", [2, 4])
    def test_random_generators(self, rng, n_modes):
        k = standard_kahler(n_modes, Species.FERMION)
        rep = build_majorana(n_modes)
        for _ in range(10):
            h = random_antisymmetric(rng, 2 * n_modes, scale=rng.uniform(0.5, 6.0))
            amp = fermion_vacuum_amplitude(h, rep)
            assert vacuum_phase_tracked(h, k) == pytest.approx(amp / abs(amp), abs=1e-10)


class TestFermionCocyclePaths:
    def test_eta_reproduces_oracle_ratio(self, rng):
        from gausslift import Species, standard_kahler

        for n in (1, 2, 3):
            k = standard_kahler(n, Species.FERMION)
            rep = build_majorana(n)
            for _ in range(4):
                h1 = random_antisymmetric(rng, 2 * n, scale=0.8)
                h2 = random_antisymmetric(rng, 2 * n, scale=0.8)
                op1 = scipy.linalg.expm(rep.quadratic_operator(h1))
                op2 = scipy.linalg.expm(rep.quadratic_operator(h2))
                a1 = np.vdot(rep.vacuum, op1 @ rep.vacuum)
                a2 = np.vdot(rep.vacuum, op2 @ rep.vacuum)
                a12 = np.vdot(rep.vacuum, op1 @ (op2 @ rep.vacuum))
                eta = cocycle_eta(mat_exp(h1), mat_exp(h2), k)
                ratio = (a12 / abs(a12)) / ((a1 / abs(a1)) * (a2 / abs(a2)))
                assert wrap_angle(np.angle(ratio) - eta / 2.0) == pytest.approx(
                    0.0, abs=1e-8
                )

    def test_reflected_times_so_is_orthogonal(self, rng, kf2):
        w = reference_reflection(kf2)
        mw = mw_reflection(w, kf2)
        m = mw @ random_so(rng, 4)
        ok, residual = validate_group_element(m, kf2)
        assert ok and residual <= 1e-10
