"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from conftest import FIG2_F, FIG2_STABLE, FIG2_UNSTABLE, random_antisymmetric
from gausslift import (
    LiftedGaussian,
    QuadraticHamiltonian,
    Species,
    build_fock,
    build_majorana,
    cocycle_eta,
    fermion_vacuum_amplitude,
    gqh_overlap_analytic,
    ig_inverse,
    ig_multiply,
    mat_exp,
    mw_reflection,
    number_expectation,
    number_expectation_analytic,
    parity_check,
    pin_component_phase,
    random_group_element,
    reference_reflection,
    so_generator,
    split_cd,
    complex_det,
    standard_kahler,
    truncation_reliable,
    truncation_reliable_pair,
    vacuum_amplitude_gqh,
    vacuum_phase_tracked,
    wrap_angle,
    z_from_hf,
    zeta_cocycle,
    zeta_numeric,
)
from gausslift.fermion import normalize_reflection

K1 = standard_kahler(1)


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def _pair(h1, h2):
    return (
        QuadraticHamiltonian(h=h1, f=FIG2_F),
        QuadraticHamiltonian(h=h2, f=FIG2_F),
    )


def _zeta_analytic(h1, h2, t):
    m1 = mat_exp(K1.omega @ h1 * t)
    m2 = mat_exp(K1.omega @ h2 * t)
    z1 = z_from_hf(h1 * t, FIG2_F * t, K1)
    z2 = z_from_hf(h2 * t, FIG2_F * t, K1)
    return wrap_angle(zeta_cocycle(m1, z1, m2, z2, K1))


@pytest.fixture(scope="module")
def stable_sweep():
    """Shared t in [0, 10] step 0.05 sweep of the stable pair at n_max = 80."""
    ham1, ham2 = _pair(*FIG2_STABLE)
    rep = build_fock(1, 80)
    ts = np.round(np.arange(0.0, 10.0 + 1e-9, 0.05), 10)
    start = time.monotonic()
    # the analytic columns first, then the oracle calls: alternating the two
    # costs a BLAS thread-pool switch per call
    za = [_zeta_analytic(FIG2_STABLE[0], FIG2_STABLE[1], t) for t in ts]
    na = [number_expectation_analytic(ham1, ham2, t, K1) for t in ts]
    zeta_dev = [abs(wrap_angle(a - zeta_numeric(ham1, ham2, t, rep))) for a, t in zip(za, ts)]
    n_dev = [abs(a - number_expectation(ham1, ham2, t, rep)) for a, t in zip(na, ts)]
    elapsed = time.monotonic() - start
    return ts, np.array(zeta_dev), np.array(n_dev), elapsed


def test_criterion_01_stable_cocycle_reproduction(stable_sweep):
    ts, zeta_dev, _, elapsed = stable_sweep
    ok = len(ts) == 201 and np.max(zeta_dev) < 1e-4 and elapsed < 120.0
    report(
        1,
        "stable pair cocycle sweep",
        ok,
        f"max wrapped deviation {np.max(zeta_dev):.2e}, {elapsed:.1f} s",
    )


def test_criterion_02_unstable_truncation_behavior():
    ham1, ham2 = _pair(*FIG2_UNSTABLE)
    ts = np.round(np.arange(0.0, 4.0 + 1e-9, 0.05), 10)
    onsets = {}
    flags = {}
    devs = {}
    za = [_zeta_analytic(*FIG2_UNSTABLE, t) for t in ts]
    for nmax in (40, 80, 120):
        rep = build_fock(1, nmax)
        dev = np.array(
            [abs(wrap_angle(a - zeta_numeric(ham1, ham2, t, rep))) for a, t in zip(za, ts)]
        )
        devs[nmax] = dev
        onsets[nmax] = ts[np.argmax(dev > 1e-3)] if np.any(dev > 1e-3) else np.inf
        hit = [t for t in ts if not truncation_reliable_pair(ham1, ham2, t, rep)]
        flags[nmax] = min(hit) if hit else np.inf
    early = np.max(devs[120][ts <= 1.5])
    visible = {n: (ts[np.argmax(devs[n] > 1e-2)] if np.any(devs[n] > 1e-2) else np.inf)
               for n in (40, 80, 120)}
    ok = (
        early < 1e-4
        and onsets[40] < onsets[80] < onsets[120]
        and all(flags[n] <= visible[n] for n in (40, 80, 120))
    )
    report(
        2,
        "unstable pair truncation",
        ok,
        f"dev(t<=1.5)@120 {early:.2e}; onsets {onsets[40]:.2f}<{onsets[80]:.2f}"
        f"<{onsets[120]:.2f}; flags at {flags[40]:.2f}/{flags[80]:.2f}/{flags[120]:.2f}",
    )


def test_criterion_03_number_expectation(stable_sweep):
    _, _, n_dev, _ = stable_sweep
    ok = np.max(n_dev) < 1e-6
    report(3, "total number expectation", ok, f"max deviation {np.max(n_dev):.2e}")


def test_criterion_04_double_cover_periodicity():
    j = np.asarray(K1.j)
    full = vacuum_phase_tracked(2.0 * np.pi * j, K1)
    double = vacuum_phase_tracked(4.0 * np.pi * j, K1)
    ok = abs(full + 1.0) < 1e-8 and abs(double - 1.0) < 1e-8
    report(4, "4pi periodicity", ok, f"2pi -> {full:.2e}, 4pi -> {double:.2e}")


def _adaptive_oracle(ham, n_modes):
    """Oracle amplitude at escalating cutoffs until converged and reliable."""
    ladder = [(40, 52), (80, 100), (160, 200)] if n_modes == 1 else [(28, 40), (44, 56), (63, None)]
    for base, check in ladder:
        rep = build_fock(n_modes, base)
        amp = vacuum_amplitude_gqh(ham, 1.0, rep)
        if not truncation_reliable(ham, 1.0, rep):
            continue
        if check is None:
            return amp, base
        amp2 = vacuum_amplitude_gqh(ham, 1.0, build_fock(n_modes, check))
        if abs(amp - amp2) < 1e-9:
            return amp2, check
    raise AssertionError("oracle failed to converge within the size guard")


def test_criterion_05_generator_lift_end_to_end(rng):
    worst_phase = 0.0
    worst_mod = 0.0
    for trial in range(200):
        n = 1 + trial % 2
        k = standard_kahler(n)
        a = rng.standard_normal((2 * n, 2 * n))
        h = (a + a.T) / 2.0
        h *= rng.uniform(0.05, 1.0) / np.linalg.norm(h, 2)
        f = rng.standard_normal(2 * n)
        f *= rng.uniform(0.0, 1.0) / np.linalg.norm(f)
        ham = QuadraticHamiltonian(h=h, f=f, c=rng.uniform(-np.pi, np.pi))
        amp, _ = _adaptive_oracle(ham, n)
        analytic = gqh_overlap_analytic(ham, k)
        worst_phase = max(worst_phase, abs(wrap_angle(np.angle(analytic) - np.angle(amp))))
        worst_mod = max(worst_mod, abs(abs(analytic) - abs(amp)))
    ok = worst_phase < 1e-5 and worst_mod < 1e-5
    report(
        5,
        "random GQH lift vs oracle",
        ok,
        f"200 draws, worst phase {worst_phase:.2e}, worst modulus {worst_mod:.2e}",
    )


def _random_triple(rng, k):
    m = random_group_element(k, rng, scale=1.0)
    z = rng.standard_normal(k.dim)
    psi = np.exp(1j * rng.uniform(-np.pi, np.pi))
    return LiftedGaussian(m=m, z=z, psi=psi, k=k)


def test_criterion_06_group_axioms(rng):
    worst_assoc = 0.0
    worst_inv = 0.0
    worst_cocycle = 0.0
    structures = {1: standard_kahler(1), 2: standard_kahler(2)}
    for trial in range(1000):
        k = structures[1 + trial % 2]
        g1, g2, g3 = (_random_triple(rng, k) for _ in range(3))
        left = ig_multiply(ig_multiply(g1, g2), g3)
        right = ig_multiply(g1, ig_multiply(g2, g3))
        worst_assoc = max(worst_assoc, abs(wrap_angle(np.angle(left.psi) - np.angle(right.psi))))
        inv = ig_inverse(g1)
        prod = ig_multiply(g1, inv)
        worst_inv = max(
            worst_inv,
            float(np.max(np.abs(prod.m - np.eye(k.dim)))),
            float(np.max(np.abs(prod.z))),
            abs(prod.psi - 1.0),
        )
        g12 = ig_multiply(g1, g2)
        g23 = ig_multiply(g2, g3)
        lhs = zeta_cocycle(g1.m, g1.z, g2.m, g2.z, k) + zeta_cocycle(g12.m, g12.z, g3.m, g3.z, k)
        rhs = zeta_cocycle(g2.m, g2.z, g3.m, g3.z, k) + zeta_cocycle(g1.m, g1.z, g23.m, g23.z, k)
        worst_cocycle = max(worst_cocycle, abs(wrap_angle(lhs - rhs)))
    ok = worst_assoc < 1e-9 and worst_inv < 1e-9 and worst_cocycle < 1e-9
    report(
        6,
        "group axioms",
        ok,
        f"assoc {worst_assoc:.2e}, inverse {worst_inv:.2e}, 2-cocycle {worst_cocycle:.2e}",
    )


def test_criterion_07_homogeneous_reduction(rng):
    worst = 0.0
    structures = {1: standard_kahler(1), 2: standard_kahler(2)}
    for trial in range(500):
        k = structures[1 + trial % 2]
        m1 = random_group_element(k, rng)
        m2 = random_group_element(k, rng)
        zeta = zeta_cocycle(m1, np.zeros(k.dim), m2, np.zeros(k.dim), k)
        eta = cocycle_eta(m1, m2, k)
        worst = max(worst, abs(zeta - 0.5 * eta))
    ok = worst < 1e-12
    report(7, "homogeneous reduction", ok, f"500 pairs, worst |zeta - eta/2| {worst:.2e}")


def test_criterion_08_fermionic_component(rng):
    worst_inv = 0.0
    worst_pin = 0.0
    worst_sq = 0.0
    for n in (1, 2, 3):
        k = standard_kahler(n, Species.FERMION)
        rep = build_majorana(n)
        wref = reference_reflection(k)
        mw = mw_reflection(wref, k)
        for _ in range(30):
            w = normalize_reflection(rng.standard_normal(2 * n), k)
            m = mw_reflection(w, k)
            worst_inv = max(
                worst_inv,
                float(np.max(np.abs(m @ k.metric @ m.T - k.metric))),
                abs(np.linalg.det(m) + 1.0),
                float(np.max(np.abs(m @ m - np.eye(2 * n)))),
            )
        for _ in range(10):
            m_plus = mat_exp(random_antisymmetric(rng, 2 * n, scale=0.9))
            for m in (m_plus, mw @ m_plus):
                phase = pin_component_phase(m, wref, k)
                det = np.linalg.det(m)
                target = m if det > 0 else mw @ m
                amp = fermion_vacuum_amplitude(so_generator(target), rep)
                worst_pin = max(worst_pin, abs(phase - amp / abs(amp)))
        for _ in range(10):
            h = random_antisymmetric(rng, 2 * n, scale=1.0)
            amp = fermion_vacuum_amplitude(h, rep)
            c_part, _ = split_cd(mat_exp(h), k)
            worst_sq = max(worst_sq, abs(amp * amp - complex_det(c_part)))
    ok = worst_inv < 1e-12 and worst_pin < 1e-8 and worst_sq < 1e-8
    report(
        8,
        "fermionic component",
        ok,
        f"reflection {worst_inv:.2e}, pin {worst_pin:.2e}, squared identity {worst_sq:.2e}",
    )


def test_criterion_09_parity_identity():
    residual = parity_check(build_fock(1, 40))
    ok = residual < 1e-12
    report(9, "parity identity", ok, f"residual {residual:.2e}")


FIG3_CELLS = [
    (-1.0, -1.0), (0.0, 1.2), (1.0, 0.2), (0.5, 1.5), (1.5, 0.5),
    (0.0, 0.0), (-0.8, 1.0), (1.0, -0.5), (0.3, -1.2),
]


def test_criterion_10_displaced_phase_surface():
    x_gen = np.array([[0.0, 1.0], [1.0, 0.0]])
    worst_phase = 0.0
    worst_mod = 0.0
    checked = 0
    for rho, tau in ((0.1, np.pi / 4), (1.0, np.pi / 4), (5.0, np.pi / 12)):
        f = rho * np.array([np.cos(tau), np.sin(tau)])
        nmax = 120 if rho < 2 else 400
        rep = build_fock(1, nmax)
        for a, c in FIG3_CELLS:
            ham = QuadraticHamiltonian(h=K1.omega_inv @ (a * x_gen + c * np.asarray(K1.j)), f=f)
            if not truncation_reliable(ham, 1.0, rep):
                continue
            amp = vacuum_amplitude_gqh(ham, 1.0, rep)
            analytic = gqh_overlap_analytic(ham, K1)
            worst_phase = max(worst_phase, abs(wrap_angle(np.angle(analytic) - np.angle(amp))))
            worst_mod = max(worst_mod, abs(abs(analytic) - abs(amp)))
            checked += 1
    ok = worst_phase < 1e-5 and worst_mod < 1e-5 and checked >= 24
    report(
        10,
        "displaced phase surface spot checks",
        ok,
        f"{checked} reliable cells, worst phase {worst_phase:.2e}, modulus {worst_mod:.2e}",
    )
