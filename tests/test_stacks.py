"""The stack axis of the group-layer kernels.

A kernel takes leading axes in front of its operand's own (a single operand
is the stack of shape ()) and returns one result per element.  Two promises
are checked here: a stacked call equals the per-element calls, and a stack
that fails raises the error that a loop over its elements in C order meets
first, with that element's class and message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG2_F, FIG2_STABLE, random_symmetric
from gausslift import (
    QuadraticHamiltonian,
    Species,
    mat_exp,
    number_expectation_analytic,
    random_group_element,
    standard_kahler,
    zeta_cocycle,
)
from gausslift.errors import GaussLiftError
from gausslift.generator import _affine_exp
from gausslift.matfunc import imag_trace_log
from gausslift.phase_space import delta_y_z

K1 = standard_kahler(1)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_stacked_kernels_equal_the_per_element_calls(n_modes, count, seed):
    k = standard_kahler(n_modes)
    rng = np.random.default_rng(seed)
    # generators of spectral norm up to 3, so the elements of one stack take
    # different Padé degrees and squaring counts
    gens = [k.omega @ random_symmetric(rng, k.dim, scale=rng.uniform(0.0, 3.0))
            for _ in range(count)]
    exps = mat_exp(np.array(gens))
    for gen, stacked in zip(gens, exps):
        np.testing.assert_allclose(stacked, mat_exp(gen), rtol=0, atol=1e-13 * np.abs(stacked).max())
    m1 = np.array([random_group_element(k, rng, scale=2.0) for _ in range(count)])
    m2 = np.array([random_group_element(k, rng, scale=2.0) for _ in range(count)])
    z1, z2 = rng.standard_normal((2, count, k.dim))
    maps = delta_y_z(m1, k)
    zeta = zeta_cocycle(m1, z1, m2, z2, k)
    assert zeta.shape == (count,)
    for i in range(count):
        single = delta_y_z(m1[i], k)
        np.testing.assert_allclose(maps.y[i], single.y, rtol=0, atol=1e-13)
        np.testing.assert_allclose(maps.z[i], single.z, rtol=0, atol=1e-13)
        assert abs(zeta[i] - zeta_cocycle(m1[i], z1[i], m2[i], z2[i], k)) <= 1e-13


def test_fermionic_zeta_stack_takes_the_pfaffian_per_element():
    kf = standard_kahler(2, Species.FERMION)
    rng = np.random.default_rng(11)
    m1, m2 = (np.array([random_group_element(kf, rng, scale=2.0) for _ in range(3)])
              for _ in range(2))
    z = np.zeros((3, 4))
    np.testing.assert_array_equal(zeta_cocycle(m1, z, m2, z, kf),
                                  [zeta_cocycle(a, b, c, d, kf) for a, b, c, d in zip(m1, z, m2, z)])


def test_time_array_equals_the_per_time_calls():
    ham1, ham2 = (QuadraticHamiltonian(h=h, f=FIG2_F, c=0.2) for h in FIG2_STABLE)
    ts = np.array([0.0, 0.05, 1.3, 7.5])
    np.testing.assert_array_equal(number_expectation_analytic(ham1, ham2, ts, K1),
                                  [number_expectation_analytic(ham1, ham2, t, K1) for t in ts])
    theta, z, m = _affine_exp(ham1, K1, ts)
    for i, t in enumerate(ts):
        theta_t, z_t, m_t = _affine_exp(ham1, K1, t)
        assert theta[i] == theta_t
        assert z[i].tobytes() == z_t.tobytes() and m[i].tobytes() == m_t.tobytes()


def test_stack_of_shape_one_element_is_the_single_call():
    rng = np.random.default_rng(7)
    m1, m2 = (random_group_element(K1, rng, scale=2.0) for _ in range(2))
    z1, z2 = rng.standard_normal((2, 2))
    single = zeta_cocycle(m1, z1, m2, z2, K1)
    assert isinstance(single, float)
    assert zeta_cocycle(m1[None], z1[None], m2[None], z2[None], K1)[0] == single
    # one displacement against a stack of matrices broadcasts
    np.testing.assert_array_equal(zeta_cocycle(np.array([m1, m2]), z1, m2, z2, K1),
                                  [single, zeta_cocycle(m2, z1, m2, z2, K1)])


def _first_loop_error(kernel, elements):
    """(index, class, message) of the first element on which ``kernel`` raises."""
    for i, args in enumerate(elements):
        try:
            kernel(*args)
        except GaussLiftError as exc:
            return i, type(exc), str(exc)
    return None


def _stacked_error(kernel, elements, stacked_args):
    with pytest.raises(GaussLiftError) as info:
        kernel(*stacked_args(elements))
    return type(info.value), str(info.value)


_ROTATION = np.array([[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]])

#: mat_exp arguments: fine, non-finite, overflowing (two different 1-norms)
_EXP = {
    "ok": np.array([[0.1, 0.4], [-0.2, 0.3]]),
    "nonfinite": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "overflow": np.diag([800.0, 1.0]),
    "overflow2": np.diag([900.0, 1.0]),
}

#: delta_y_z arguments: C = (M - JMJ)/2 vanishes for diag(1, -1)
_MAPS = {
    "ok": _ROTATION,
    "singular": np.diag([1.0, -1.0]),
    "nonfinite": np.array([[np.inf, 0.0], [0.0, 1.0]]),
}

#: imag_trace_log arguments: -3 I complexifies to -3, on the cut; diag(1, 2)
#: does not commute with J
_LOGS = {
    "ok": 2.0 * _ROTATION,
    "cut": -3.0 * np.eye(2),
    "cut2": -2.0 * np.eye(2),
    "commute": np.diag([1.0, 2.0]),
    "nonfinite": np.array([[np.nan, 0.0], [0.0, 1.0]]),
}

#: zeta_cocycle operands (M1, M2): diag(3, -1) and diag(-1, 3) have C = I and
#: Z maps 2 sigma_z and -2 sigma_z, so I - Z1 Y2 = -3 I sits on the cut
_ZETA = {
    "ok": (_ROTATION, _ROTATION.T),
    "singular": (_ROTATION, np.diag([1.0, -1.0])),
    "cut": (np.diag([3.0, -1.0]), np.diag([-1.0, 3.0])),
    "nonfinite": (np.array([[np.inf, 0.0], [0.0, 1.0]]), _ROTATION),
}

#: where the failing elements of kinds ``a`` and ``b`` sit in a stack
_LAYOUTS = [
    ("ok", "a", "ok", "b", "ok"),
    ("ok", "b", "ok", "a", "ok"),
    ("a", "a", "b"),
    ("ok", "ok", "ok", "b"),
]


def _layouts(kinds):
    """Every layout with its two failing kinds ``a`` and ``b`` drawn from ``kinds``."""
    out = []
    for a in kinds:
        for b in kinds:
            out += [tuple({"a": a, "b": b}.get(x, x) for x in layout) for layout in _LAYOUTS]
    return sorted(set(out))


def _check(kernel, elements, stacked_args):
    expected = _first_loop_error(kernel, elements)
    assert expected is not None
    assert _stacked_error(kernel, elements, stacked_args) == expected[1:]


@pytest.mark.parametrize("layout", _layouts(["nonfinite", "overflow", "overflow2"]), ids=str)
def test_mat_exp_stack_raises_the_first_loop_error(layout):
    _check(mat_exp, [(_EXP[x],) for x in layout], lambda els: (np.array([a for a, in els]),))


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf in the split
@pytest.mark.parametrize("layout", _layouts(["singular", "nonfinite"]), ids=str)
def test_delta_y_z_stack_raises_the_first_loop_error(layout):
    elements = [(_MAPS[x], K1) for x in layout]
    _check(delta_y_z, elements, lambda els: (np.array([m for m, _ in els]), K1))


@pytest.mark.parametrize("layout", _layouts(["cut", "cut2", "commute", "nonfinite"]), ids=str)
def test_imag_trace_log_stack_raises_the_first_loop_error(layout):
    _check(imag_trace_log, [(_LOGS[x],) for x in layout],
           lambda els: (np.array([a for a, in els]),))


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf in the products
@pytest.mark.parametrize("layout", _layouts(["singular", "cut", "nonfinite"]), ids=str)
def test_zeta_cocycle_stack_raises_the_first_loop_error(layout):
    z = np.array([0.3, -0.2])
    elements = [(_ZETA[x][0], z, _ZETA[x][1], z, K1) for x in layout]
    _check(zeta_cocycle, elements,
           lambda els: (np.array([e[0] for e in els]), z, np.array([e[2] for e in els]), z, K1))


def test_zeta_cocycle_of_a_good_stack_raises_nothing():
    z = np.array([0.3, -0.2])
    m1, m2 = _ZETA["ok"]
    out = zeta_cocycle(np.array([m1] * 3), z, np.array([m2] * 3), z, K1)
    np.testing.assert_array_equal(out, [zeta_cocycle(m1, z, m2, z, K1)] * 3)


def test_mat_exp_overflow_names_the_first_row():
    with pytest.raises(GaussLiftError, match=r"1-norm 900\)"):
        mat_exp(np.array([_EXP["ok"], _EXP["overflow2"], _EXP["overflow"]]))
