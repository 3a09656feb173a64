import warnings

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import (
    FIG2_F,
    FIG2_STABLE,
    FIG2_UNSTABLE,
    dense,
    parity_check,
    quadratures,
    random_gqh,
)
from gausslift import (
    QuadraticHamiltonian,
    Species,
    build_fock,
    mean_excitation,
    number_expectation,
    number_expectation_analytic,
    standard_kahler,
    truncation_reliable,
    truncation_reliable_pair,
    vacuum_amplitude_gqh,
    wrap_angle,
    zeta_numeric,
)
from gausslift.errors import InputError, PhaseUndefinedError, SizeGuardError
from gausslift.fock import (
    _TIME_BLOCK,
    RELIABILITY_FRACTION,
    _number_expectation_from_parts,
    _PairOracle,
)
from gausslift.generator import _affine_exp


class TestBuildFock:
    def test_single_mode_position_matrix(self):
        rep = build_fock(1, 2)
        s2 = np.sqrt(2.0)
        expected = np.array([[0, 1, 0], [1, 0, s2], [0, s2, 0]]) / s2
        np.testing.assert_allclose(quadratures(rep)[0], expected, atol=1e-15)

    def test_canonical_commutator_interior(self):
        rep = build_fock(1, 12)
        q, p = quadratures(rep)
        comm = q @ p - p @ q
        interior = comm[:11, :11]
        np.testing.assert_allclose(interior, 1j * np.eye(11), atol=1e-12)

    def test_number_operator_diagonal(self):
        rep = build_fock(1, 6)
        q, p = quadratures(rep)
        n_from_quad = 0.5 * (q @ q + p @ p - np.eye(7))
        np.testing.assert_allclose(np.diag(n_from_quad)[:6], np.arange(6), atol=1e-12)
        np.testing.assert_allclose(
            dense(rep.number_op), np.diag(np.arange(7.0)), atol=1e-13
        )

    def test_two_mode_embedding(self):
        rep = build_fock(2, 3)
        assert rep.dim == 16
        q1, q2, p1, p2 = quadratures(rep)
        np.testing.assert_allclose(q1 @ q2, q2 @ q1, atol=1e-13)
        comm = (q1 @ p1 - p1 @ q1)[:12, :12]
        # interior of the first mode commutator
        assert abs(comm[0, 0] - 1j) < 1e-12

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            build_fock(3, 20)

    def test_vacuum(self):
        rep = build_fock(2, 4)
        assert rep.vacuum[0] == 1.0 and np.count_nonzero(rep.vacuum) == 1


class TestVacuumAmplitude:
    def test_zero_hamiltonian(self):
        rep = build_fock(1, 10)
        ham = QuadraticHamiltonian(h=np.zeros((2, 2)))
        assert vacuum_amplitude_gqh(ham, 1.0, rep) == pytest.approx(1.0)

    def test_rotation_2pi_gives_minus_one(self):
        # h = I generates n + 1/2
        rep = build_fock(1, 30)
        ham = QuadraticHamiltonian(h=np.eye(2))
        amp = vacuum_amplitude_gqh(ham, 2.0 * np.pi, rep)
        assert amp == pytest.approx(-1.0, abs=1e-10)

    def test_fig2_stable_amplitude_finite(self):
        rep = build_fock(1, 80)
        ham = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        amp = vacuum_amplitude_gqh(ham, 1.0, rep)
        assert 0.1 < abs(amp) <= 1.0

    def test_coherent_displacement_modulus(self):
        rep = build_fock(1, 40)
        f = np.array([0.7, -0.2])
        ham = QuadraticHamiltonian(h=np.zeros((2, 2)), f=f)
        amp = vacuum_amplitude_gqh(ham, 1.0, rep)
        k = standard_kahler(1)
        z = k.omega @ f
        assert abs(amp) == pytest.approx(np.exp(-0.25 * z @ z), abs=1e-10)

    def test_unitarity_on_truncated_space(self, rng):
        rep = build_fock(1, 25)
        ham = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        ev = rep._evolution(ham)
        for t in (0.5, 3.0, 10.0):
            psi = ev.apply(t, rep.vacuum)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-8

    def test_hamiltonian_of_another_mode_count_rejected(self):
        with pytest.raises(InputError, match="h must have shape"):
            vacuum_amplitude_gqh(QuadraticHamiltonian(h=np.eye(4)), 1.0, build_fock(1, 5))

    def test_sparse_and_dense_paths_agree(self):
        ham = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        amp_dense = vacuum_amplitude_gqh(ham, 1.0, build_fock(1, 24))
        amp_sparse = vacuum_amplitude_gqh(ham, 1.0, build_fock(2, 24).__class__(1, 24))
        # same cutoff, same value; now force the Krylov path at high cutoff
        big = build_fock(1, 700)
        assert big.dim > 600
        amp_big = vacuum_amplitude_gqh(ham, 1.0, big)
        assert abs(amp_dense - amp_sparse) == 0.0
        assert abs(amp_dense - amp_big) < 1e-10


class TestZetaNumeric:
    def test_zero_hamiltonians(self):
        rep = build_fock(1, 10)
        zero = QuadraticHamiltonian(h=np.zeros((2, 2)))
        assert zeta_numeric(zero, zero, 1.0, rep) == pytest.approx(0.0)

    def test_time_zero(self):
        rep = build_fock(1, 20)
        h1 = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=FIG2_STABLE[1], f=FIG2_F)
        assert zeta_numeric(h1, h2, 0.0, rep) == pytest.approx(0.0, abs=1e-12)

    def test_result_in_principal_range(self):
        rep = build_fock(1, 60)
        h1 = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=FIG2_STABLE[1], f=FIG2_F)
        for t in np.linspace(0.3, 9.7, 7):
            zn = zeta_numeric(h1, h2, t, rep)
            assert -np.pi < zn <= np.pi

    def test_vanishing_amplitude_raises(self):
        # a half-turn rotation of the vacuum never vanishes, so force the
        # guard with a displacement large enough to kill the overlap
        rep = build_fock(1, 350)
        huge = QuadraticHamiltonian(h=np.zeros((2, 2)), f=np.array([12.0, 0.0]))
        zero = QuadraticHamiltonian(h=np.zeros((2, 2)))
        with pytest.raises(PhaseUndefinedError):
            zeta_numeric(huge, zero, 1.0, rep)


class TestNumberExpectation:
    def test_time_zero(self, k1):
        rep = build_fock(1, 20)
        h1 = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=FIG2_STABLE[1], f=FIG2_F)
        assert number_expectation(h1, h2, 0.0, rep) == pytest.approx(0.0, abs=1e-12)
        assert number_expectation_analytic(h1, h2, 0.0, k1) == pytest.approx(0.0, abs=1e-12)

    def test_pure_displacement_coherent_state(self, k1):
        rep = build_fock(1, 40)
        f = np.array([0.6, 0.3])
        disp = QuadraticHamiltonian(h=np.zeros((2, 2)), f=f)
        zero = QuadraticHamiltonian(h=np.zeros((2, 2)))
        z = k1.omega @ f
        expected = 0.5 * z @ z
        assert number_expectation(disp, zero, 1.0, rep) == pytest.approx(expected, abs=1e-10)
        assert number_expectation_analytic(disp, zero, 1.0, k1) == pytest.approx(
            expected, abs=1e-12
        )

    def test_oracle_matches_analytic_stable(self, k1):
        rep = build_fock(1, 80)
        h1 = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=FIG2_STABLE[1], f=FIG2_F)
        for t in (0.5, 2.5, 7.0):
            assert number_expectation(h1, h2, t, rep) == pytest.approx(
                number_expectation_analytic(h1, h2, t, k1), abs=1e-7
            )


class TestPairOracle:
    """The shared pair states give the quantities of one evolution per state."""

    @staticmethod
    def _separately(h1, h2, t, rep):
        # each state from its own apply call, one quantity at a time
        ev1, ev2 = rep._evolution(h1), rep._evolution(h2)
        a1 = vacuum_amplitude_gqh(h1, t, rep)
        a2 = vacuum_amplitude_gqh(h2, t, rep)
        a12 = complex(np.vdot(rep.vacuum, ev1.apply(t, ev2.apply(t, rep.vacuum))))
        zeta = wrap_angle(np.angle(a1) + np.angle(a2) - np.angle(a12))
        psi = ev1.apply(t, ev2.apply(t, rep.vacuum))
        number = float(np.real(np.vdot(psi, rep.number_op @ psi)))
        limit = RELIABILITY_FRACTION * rep.n_max
        psi = ev1.apply(t, ev2.apply(t, rep.vacuum))
        reliable = (
            mean_excitation(h1, t, rep) <= limit
            and mean_excitation(h2, t, rep) <= limit
            and float(np.real(np.vdot(psi, rep.number_op @ psi))) <= limit
        )
        return zeta, number, reliable

    @pytest.mark.parametrize("pair", [FIG2_STABLE, FIG2_UNSTABLE], ids=["stable", "unstable"])
    @pytest.mark.parametrize("n_max", [20, 40])
    def test_matches_separate_evolutions(self, pair, n_max):
        rep = build_fock(1, n_max)
        h1 = QuadraticHamiltonian(h=pair[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=pair[1], f=FIG2_F)
        for t in (0.0, 0.35, 1.7, 4.9, 9.15):
            oracle = _PairOracle(h1, h2, t, rep)
            assert (oracle.zeta, oracle.number, oracle.reliable) == self._separately(
                h1, h2, t, rep
            )

    def test_matches_separate_evolutions_krylov(self, rng):
        rep = build_fock(2, 25)  # 676 states: expm_multiply, not the cached eigh
        hams = [random_gqh(rng, 2, h_scale=0.6) for _ in range(2)]
        oracle = _PairOracle(hams[0], hams[1], 0.8, rep)
        assert not rep.dense
        assert (oracle.zeta, oracle.number, oracle.reliable) == self._separately(
            hams[0], hams[1], 0.8, rep
        )

    def test_public_functions_read_the_oracle(self):
        rep = build_fock(1, 30)
        h1 = QuadraticHamiltonian(h=FIG2_UNSTABLE[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=FIG2_UNSTABLE[1], f=FIG2_F)
        oracle = _PairOracle(h1, h2, 2.2, rep)
        assert zeta_numeric(h1, h2, 2.2, rep) == oracle.zeta
        assert number_expectation(h1, h2, 2.2, rep) == oracle.number
        assert truncation_reliable_pair(h1, h2, 2.2, rep) == oracle.reliable

    @pytest.mark.parametrize(
        "call",
        [
            lambda fermion, boson, rep: vacuum_amplitude_gqh(fermion, 1.0, rep),
            lambda fermion, boson, rep: mean_excitation(fermion, 1.0, rep),
            lambda fermion, boson, rep: truncation_reliable(fermion, 1.0, rep),
            lambda fermion, boson, rep: zeta_numeric(fermion, boson, 1.0, rep),
            lambda fermion, boson, rep: zeta_numeric(boson, fermion, 1.0, rep),
            lambda fermion, boson, rep: number_expectation(boson, fermion, 1.0, rep),
            lambda fermion, boson, rep: number_expectation(fermion, boson, [0.5, 1.0], rep),
            lambda fermion, boson, rep: truncation_reliable_pair(fermion, boson, 1.0, rep),
            lambda fermion, boson, rep: truncation_reliable_pair(boson, fermion, 1.0, rep),
        ],
        ids=["vacuum_amplitude_gqh", "mean_excitation", "truncation_reliable",
             "zeta_numeric-first", "zeta_numeric-second", "number_expectation-second",
             "number_expectation-times", "truncation_reliable_pair-first",
             "truncation_reliable_pair-second"],
    )
    def test_every_public_function_refuses_fermions(self, call):
        fermion = QuadraticHamiltonian(h=np.array([[0.0, 0.5], [-0.5, 0.0]]),
                                       species=Species.FERMION)
        boson = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        with pytest.raises(InputError) as exc:
            call(fermion, boson, build_fock(1, 10))
        assert type(exc.value) is InputError and str(exc.value) == "the Fock oracle is bosonic"

    _SINGLE = [vacuum_amplitude_gqh, mean_excitation, truncation_reliable]
    _PAIR = [
        lambda ham, t, rep: zeta_numeric(ham, ham, t, rep),
        lambda ham, t, rep: number_expectation(ham, ham, t, rep),
        lambda ham, t, rep: truncation_reliable_pair(ham, ham, t, rep),
    ]
    _SINGLE_IDS = ["vacuum_amplitude_gqh", "mean_excitation", "truncation_reliable"]
    _PAIR_IDS = ["zeta_numeric", "number_expectation", "truncation_reliable_pair"]

    @staticmethod
    def _refusal(call, t):
        """The InputError message of ``call`` at time(s) ``t``; no warning first."""
        ham = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError) as exc:
                call(ham, t, build_fock(1, 10))
        assert type(exc.value) is InputError
        return str(exc.value)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", _SINGLE + _PAIR, ids=_SINGLE_IDS + _PAIR_IDS)
    def test_every_public_function_refuses_a_non_finite_time(self, call, t):
        assert self._refusal(call, t) == f"oracle times must be finite, got {t}"

    @pytest.mark.parametrize("call", _PAIR, ids=_PAIR_IDS)
    def test_pair_functions_refuse_a_non_finite_time_in_an_array(self, call):
        message = self._refusal(call, np.array([0.5, 1.0, np.nan]))
        assert message == "oracle times must be finite, got nan"

    @pytest.mark.parametrize("call", _SINGLE, ids=_SINGLE_IDS)
    def test_single_state_functions_take_one_time(self, call):
        message = self._refusal(call, np.array([0.5, 1.0]))
        assert message == "one time expected, got shape (2,)"

    def test_vanishing_product_amplitude_raises_only_for_zeta(self):
        # |<0|D(z)|0>| = e^{-|z|^2/4}: 1.2e-4 for each factor, 2.3e-16 for the product
        rep = build_fock(1, 350)
        half = QuadraticHamiltonian(h=np.zeros((2, 2)), f=np.array([6.0, 0.0]))
        oracle = _PairOracle(half, half, 1.0, rep)
        with pytest.raises(PhaseUndefinedError, match="U1U2"):
            oracle.zeta
        with pytest.raises(PhaseUndefinedError, match="U1U2"):
            zeta_numeric(half, half, 1.0, rep)
        assert oracle.number == pytest.approx(72.0, rel=1e-9)
        assert oracle.number == number_expectation(half, half, 1.0, rep)
        assert oracle.reliable is truncation_reliable_pair(half, half, 1.0, rep) is True

    def test_analytic_number_from_parts(self, k1):
        h1 = QuadraticHamiltonian(h=FIG2_UNSTABLE[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=FIG2_UNSTABLE[1], f=FIG2_F)
        for t in (0.0, 0.35, 1.7, 4.9):
            _, z1, m1 = _affine_exp(h1.scaled(t), k1)
            _, z2, m2 = _affine_exp(h2.scaled(t), k1)
            assert number_expectation_analytic(h1, h2, t, k1) == (
                _number_expectation_from_parts(m1, m2, z1, z2, k1)
            )


class TestPairOracleOverTimes:
    """An array of times gives the scalar oracle's values at each time."""

    @staticmethod
    def _assert_matches_scalar(h1, h2, ts, rep):
        batch = _PairOracle(h1, h2, ts, rep)
        scalar = [_PairOracle(h1, h2, t, rep) for t in ts]
        assert batch.failure is None
        zeta_dev = wrap_angle(batch.zeta - np.array([o.zeta for o in scalar]))
        assert np.max(np.abs(zeta_dev)) < 1e-12
        number = np.array([o.number for o in scalar])
        # at t = 0 both read rounding noise of a zero, around 1e-30
        np.testing.assert_allclose(batch.number, number, rtol=1e-12, atol=1e-15)
        assert batch.reliable.tolist() == [o.reliable for o in scalar]

    @pytest.mark.parametrize("pair", [FIG2_STABLE, FIG2_UNSTABLE], ids=["stable", "unstable"])
    @pytest.mark.parametrize("n_max", [20, 40])
    def test_matches_scalar_over_two_blocks(self, pair, n_max):
        ts = np.arange(_TIME_BLOCK + 45) * (10.0 / (_TIME_BLOCK + 44))
        h1 = QuadraticHamiltonian(h=pair[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=pair[1], f=FIG2_F)
        self._assert_matches_scalar(h1, h2, ts, build_fock(1, n_max))

    def test_matches_scalar_krylov(self, rng):
        rep = build_fock(2, 25)
        hams = [random_gqh(rng, 2, h_scale=0.6) for _ in range(2)]
        assert not rep.dense
        self._assert_matches_scalar(hams[0], hams[1], np.array([0.0, 0.8, 1.9]), rep)

    @pytest.mark.parametrize("t", [0.8, np.array([0.0, 0.8])], ids=["scalar", "array"])
    def test_krylov_evolves_each_state_once(self, rng, monkeypatch, t):
        # U1|0>, U2|0> and U1 U2|0> once per time; the amplitudes of U1 and
        # U2 are read off the evolved states, not evolved again
        rep = build_fock(2, 25)
        hams = [random_gqh(rng, 2, h_scale=0.6) for _ in range(2)]
        calls = []
        expm_multiply = scipy.sparse.linalg.expm_multiply

        def counted(*args):
            calls.append(1)
            return expm_multiply(*args)

        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", counted)
        oracle = _PairOracle(hams[0], hams[1], t, rep)
        oracle.zeta, oracle.number, oracle.reliable
        assert len(calls) == 3 * np.size(t)

    def test_zeta_raises_at_the_first_failing_time(self):
        # the product amplitude e^{-|z|^2/4} is 1.2e-4 at t = 0.5 and 2.3e-16 at t = 1
        rep = build_fock(1, 350)
        half = QuadraticHamiltonian(h=np.zeros((2, 2)), f=np.array([6.0, 0.0]))
        oracle = _PairOracle(half, half, np.array([0.0, 0.5, 1.0, 1.5]), rep)
        index, error = oracle.failure
        assert index == 2 and isinstance(error, PhaseUndefinedError)
        with pytest.raises(PhaseUndefinedError, match="U1U2"):
            oracle.zeta
        assert oracle.number[2] == pytest.approx(72.0, rel=1e-9)
        assert _PairOracle(half, half, np.array([0.0, 0.5]), rep).failure is None


class TestTruncationDiagnostics:
    def test_cutoff_convergence_is_monotone(self, k1):
        h1 = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=FIG2_STABLE[1], f=FIG2_F)
        t = 4.0
        target = number_expectation_analytic(h1, h2, t, k1)
        errs = []
        for nmax in (20, 40, 80):
            rep = build_fock(1, nmax)
            errs.append(abs(number_expectation(h1, h2, t, rep) - target))
        assert errs[0] >= errs[1] >= errs[2]

    def test_flag_fires_for_unstable_dynamics(self):
        rep = build_fock(1, 120)
        h1 = QuadraticHamiltonian(h=FIG2_UNSTABLE[0], f=FIG2_F)
        h2 = QuadraticHamiltonian(h=FIG2_UNSTABLE[1], f=FIG2_F)
        assert truncation_reliable_pair(h1, h2, 0.5, rep)
        fired = [t for t in np.arange(0.5, 4.01, 0.25)
                 if not truncation_reliable_pair(h1, h2, t, rep)]
        assert fired and min(fired) < 3.5

    def test_mean_excitation_grows_for_unstable(self):
        rep = build_fock(1, 120)
        ham = QuadraticHamiltonian(h=FIG2_UNSTABLE[0], f=FIG2_F)
        assert mean_excitation(ham, 3.0, rep) > mean_excitation(ham, 1.0, rep)

    def test_reliable_single(self):
        rep = build_fock(1, 40)
        ham = QuadraticHamiltonian(h=FIG2_STABLE[0], f=FIG2_F)
        assert truncation_reliable(ham, 1.0, rep)


class TestParity:
    def test_identity_residual(self):
        rep = build_fock(1, 10)
        assert parity_check(rep) < 1e-12

    def test_parity_squares_to_identity(self):
        n = np.arange(11)
        parity = np.diag((-1.0) ** n)
        np.testing.assert_array_equal(parity @ parity, np.eye(11))

    def test_exp_of_parity_entrywise(self):
        n = np.arange(9)
        lhs = np.exp(1j * np.pi / 2 * (-1.0) ** n)
        rhs = 1j * (-1.0) ** n
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_multi_mode_rejected(self):
        with pytest.raises(Exception):
            parity_check(build_fock(2, 3))
