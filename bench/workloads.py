"""The three benchmark workloads: inputs from a seed, one op, output checks.

Each workload builds its pool of ``pool_size`` inputs in ``__init__`` from
the seed (this is part of set-up), runs one op per ``op(i)`` call on input
``i`` of the pool, and checks recorded outputs in ``check``, outside any timed
region.  ``timed`` lists the inputs inside the numerical envelope, which the
timed loop cycles over; ``edge`` lists the rest (strongly squeezed or unstable
inputs), which run once per run, untimed, because some of them raise today.
``warm_pass`` says whether the worker runs every input once, untimed, before
the timed loop; ``keep_all`` whether every op's output is kept for the check,
or only the first per input.

``check`` returns (passed, worst gated phase deviation, worst edge phase
deviation, detail), deviations in radians.  Only outputs inside the numerical
envelope are gated.  Outputs at its edge (strongly squeezed or unstable
inputs, Fock cutoffs too small for the state) are checked the same way and
reported, because the program gets some of them wrong today; they must not
make the benchmark unusable, and they must not go unseen either.

Mixes are exact shares shuffled by the seed, not independent draws, so the
work per run does not drift with the seed while the inputs themselves do.
"""

import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import gausslift.errors
import numpy as np
import scipy.linalg
from gausslift import (
    LiftedGaussian,
    QuadraticHamiltonian,
    Species,
    build_fock,
    build_majorana,
    circle_function,
    cocycle_eta,
    fermion_vacuum_amplitude,
    ig_inverse,
    ig_multiply,
    lift_from_gqh,
    mp_multiply,
    mw_reflection,
    pin_component_phase,
    reference_reflection,
    so_generator,
    standard_kahler,
    truncation_reliable,
    vacuum_amplitude_gqh,
)
from gausslift.metaplectic import LiftedSymplectic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def wrapped(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def phase_dev(a, b):
    """Angle between two nonzero complex numbers, in [0, pi]."""
    return abs(float(np.angle(complex(a) / complex(b))))


def _random_symmetric(rng, n2, norm):
    a = rng.standard_normal((n2, n2))
    h = (a + a.T) / 2.0
    return h * norm / np.linalg.norm(h, 2)


def _random_antisymmetric(rng, n2, norm):
    a = rng.standard_normal((n2, n2))
    h = (a - a.T) / 2.0
    return h * norm / np.linalg.norm(h, 2)


def _passive(rng, k):
    """A random orthogonal symplectic element e^{Omega h}, [h, J] = 0."""
    n = k.n_modes
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    b = (b - b.T) / 2.0
    h = np.block([[a, b], [b.T, a]])
    return scipy.linalg.expm(k.omega @ h)


def _exact_shares(rng, count, shares):
    """Labels with exact counts per share, in seeded order."""
    labels = []
    for label, share in shares:
        labels += [label] * int(round(share * count))
    labels = (labels + [shares[0][0]] * count)[:count]
    rng.shuffle(labels)
    return labels


def _split_edge(pool):
    """Indices of the pool entries inside the envelope and at its edge; an
    entry's last field says whether it is at the edge."""
    timed = [i for i, entry in enumerate(pool) if not entry[-1]]
    edge = [i for i, entry in enumerate(pool) if entry[-1]]
    return timed, edge


# --------------------------------------------------------------------------
# fig2-sweep


# The Fig. 2 stable pair of the test suite (FIG2_STABLE with FIG2_F).
FIG2_DOCUMENT = {
    "species": "boson",
    "N": 1,
    "hamiltonians": [
        {"h": [[0.4, 0.2], [0.2, 0.5]], "f": [0.5, 0.5], "c": 0.0},
        {"h": [[0.8, -0.2], [-0.2, 0.5]], "f": [0.5, 0.5], "c": 0.0},
    ],
    "time": {"t_max": 10.0, "t_step": 0.05},
}
FIG2_NMAX = "20,40,80"
FIG2_REFERENCE = BENCH_DIR / "data" / "fig2_sweep_ref.csv"

#: CSV cells may differ from the reference in the last digits (the oracle
#: columns move with the BLAS thread count); anything beyond this is a change
FIG2_RTOL = 1e-9
FIG2_ATOL = 1e-12

#: the acceptance tolerance for analytic vs oracle zeta on reliable rows
FIG2_ZETA_TOL = 1e-4

_CLI_EXIT_CLASSES = {2: "InputError", 3: "NumericalDomainError"}


class CliFailure(Exception):
    """A CLI call that exited non-zero; ``kind`` names the library class."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


class Fig2Sweep:
    """One op is one user-style ``gausslift sweep-time`` process."""

    name = "fig2-sweep"
    pool_size = 1
    keep_all = True  # every op's CSV is kept and checked
    warm_pass = False  # every op starts a fresh process anyway

    def __init__(self, seed, out_dir):
        # The op is defined by the Fig. 2 pair, so the seed changes nothing.
        self.in_process = False  # a traced run calls the CLI inside this process
        self.timed, self.edge = [0], []
        self.input_path = out_dir / "fig2_pair.json"
        self.csv_path = out_dir / "fig2_sweep.csv"
        self.input_path.write_text(json.dumps(FIG2_DOCUMENT), encoding="utf-8")
        self.argv = ["sweep-time", "--input", str(self.input_path), "--nmax", FIG2_NMAX,
                     "--out", str(self.csv_path)]
        self.reference = FIG2_REFERENCE.read_text(encoding="utf-8")
        self.inputs_digest = hashlib.sha256(
            json.dumps(FIG2_DOCUMENT, sort_keys=True).encode()
        ).hexdigest()[:16]

    def op(self, i):
        if self.in_process:
            import gausslift.cli

            code = gausslift.cli.main(self.argv)
            if code:
                raise CliFailure(_CLI_EXIT_CLASSES.get(code, "other"), f"exit code {code}")
        else:
            done = subprocess.run(
                [sys.executable, "-m", "gausslift.cli"] + self.argv,
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if done.returncode:
                raise CliFailure(
                    _CLI_EXIT_CLASSES.get(done.returncode, "other"), done.stderr.strip()
                )
        return self.csv_path.read_text(encoding="utf-8")

    def check(self, outputs):
        ref_rows = list(csv.reader(io.StringIO(self.reference)))
        header = ref_rows[0]
        nmaxes = [int(n) for n in FIG2_NMAX.split(",")]
        problems = []
        worst_by_nmax = {n: 0.0 for n in nmaxes}
        for text in outputs.values():
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != header or len(rows) != len(ref_rows):
                problems.append("CSV header or row count differs from the reference")
                continue
            for row, ref in zip(rows[1:], ref_rows[1:]):
                cells = dict(zip(header, row))
                for name, value, expected in zip(header, row, ref):
                    if name.startswith("reliable"):
                        ok = value == expected
                    elif name.startswith("zeta"):
                        ok = abs(wrapped(float(value) - float(expected))) <= (
                            FIG2_ATOL + FIG2_RTOL * abs(float(expected)))
                    else:
                        ok = math.isclose(float(value), float(expected),
                                          rel_tol=FIG2_RTOL, abs_tol=FIG2_ATOL)
                    if not ok:
                        problems.append(f"t={row[0]} {name}: {value} vs reference {expected}")
                for n in nmaxes:
                    if cells[f"reliable_nmax{n}"] == "1":
                        dev = abs(wrapped(float(cells["zeta_analytic"])
                                          - float(cells[f"zeta_numeric_nmax{n}"])))
                        worst_by_nmax[n] = max(worst_by_nmax[n], dev)
        # The oracle gate uses the largest cutoff, where the truncated oracle
        # is converged (acceptance criterion 1).  Smaller cutoffs are reported:
        # their reliability flag admits rows that miss the tolerance.
        gate = worst_by_nmax[max(nmaxes)]
        edge = max(worst_by_nmax[n] for n in nmaxes if n != max(nmaxes))
        if gate >= FIG2_ZETA_TOL:
            problems.append(f"analytic vs oracle zeta deviates by {gate:.3g} on reliable rows")
        detail = {
            "outputs_checked": len(outputs),
            "reliable_zeta_dev_by_nmax": {str(n): v for n, v in worst_by_nmax.items()},
            "problems": problems[:10],
        }
        return not problems, gate, edge, detail


# --------------------------------------------------------------------------
# compose


COMPOSE_SECTORS = [(Species.BOSON, n) for n in (1, 2, 4, 8)] + [
    (Species.FERMION, n) for n in (1, 2, 4)
]
COMPOSE_KINDS = [("ig_multiply", 0.8), ("ig_inverse", 0.1), ("mp_multiply", 0.1)]
COMPOSE_POOL = 1400
COMPOSE_STRONG_SHARE = 0.1
COMPOSE_CHECKS = 200
COMPOSE_TOL = 1e-6


class Compose:
    """One op builds the operands from raw arrays and runs one group operation."""

    name = "compose"
    pool_size = COMPOSE_POOL
    keep_all = False
    warm_pass = True

    def __init__(self, seed, out_dir=None):
        rng = np.random.default_rng([seed, 1])
        self.structures = {(s, n): standard_kahler(n, s) for s, n in COMPOSE_SECTORS}
        sectors = _exact_shares(
            rng, COMPOSE_POOL, [(s, 1.0 / len(COMPOSE_SECTORS)) for s in COMPOSE_SECTORS]
        )
        kinds = _exact_shares(rng, COMPOSE_POOL, COMPOSE_KINDS)
        arity = {"ig_multiply": 2, "ig_inverse": 1, "mp_multiply": 2}
        boson_slots = [
            (i, j) for i, (s, kind) in enumerate(zip(sectors, kinds))
            if s[0] is Species.BOSON for j in range(arity[kind])
        ]
        strong = set(
            boson_slots[p] for p in rng.choice(
                len(boson_slots), int(round(COMPOSE_STRONG_SHARE * len(boson_slots))),
                replace=False)
        )
        self.pool = []
        arrays = []
        for i, (sector, kind) in enumerate(zip(sectors, kinds)):
            k = self.structures[sector]
            raw = [self._operand(rng, k, (i, j) in strong, kind) for j in range(arity[kind])]
            arrays += [a for operand in raw for a in operand[:2]]
            edge = any((i, j) in strong for j in range(arity[kind]))
            self.pool.append((kind, sector, raw, edge))
        self.timed, self.edge = _split_edge(self.pool)
        self.check_rng_seed = [seed, 2]
        self.inputs_digest = digest(*arrays)

    @staticmethod
    def _operand(rng, k, strong, kind):
        """Raw (M, z, Psi) of one operand; Psi satisfies Psi^2 = phi(M) for
        mp_multiply operands, which are double-cover elements."""
        n2 = k.dim
        if k.species is Species.FERMION:
            m = scipy.linalg.expm(_random_antisymmetric(rng, n2, rng.uniform(0.1, 2.0)))
            z = np.zeros(n2)
        elif strong:
            n = k.n_modes
            r = np.concatenate([[rng.uniform(8.0, 12.0)], rng.uniform(0.0, 1.0, n - 1)])
            m = _passive(rng, k) @ np.diag(np.exp(np.concatenate([r, -r]))) @ _passive(rng, k)
            z = rng.standard_normal(n2)
        else:
            h = _random_symmetric(rng, n2, rng.uniform(0.1, 2.0))
            m = scipy.linalg.expm(k.omega @ h)
            z = rng.standard_normal(n2)
        psi = np.exp(1j * rng.uniform(-np.pi, np.pi))
        if kind == "mp_multiply":
            z = np.zeros(n2)
            try:
                psi = np.sqrt(circle_function(m, k)) * rng.choice([-1.0, 1.0])
            except gausslift.errors.NumericalDomainError:
                psi = 1.0 + 0.0j  # no valid lift exists; the op reports it
        return m, z, complex(psi)

    def op(self, i):
        kind, sector, raw, _ = self.pool[i]
        k = self.structures[sector]
        if kind == "mp_multiply":
            a, b = (LiftedSymplectic(m=m, psi=psi, k=k) for m, _, psi in raw)
            return mp_multiply(a, b)
        operands = [LiftedGaussian(m=m, z=z, psi=psi, k=k) for m, z, psi in raw]
        if kind == "ig_inverse":
            return ig_inverse(operands[0])
        return ig_multiply(*operands)

    def check(self, outputs):
        """Group laws on a seeded sample of recorded outputs, Psi mod 2 pi:
        (ab)c = a(bc) for products, u u^-1 = identity for inverses."""
        rng = np.random.default_rng(self.check_rng_seed)
        indices = sorted(outputs)
        if len(indices) > COMPOSE_CHECKS:
            indices = sorted(rng.choice(indices, COMPOSE_CHECKS, replace=False).tolist())
        worst = {False: 0.0, True: 0.0}
        checked = skipped = edge_over = 0
        problems = []
        for i in indices:
            kind, sector, raw, edge = self.pool[i]
            k = self.structures[sector]
            out = outputs[i]
            try:
                if kind == "ig_inverse":
                    u = LiftedGaussian(m=raw[0][0], z=raw[0][1], psi=raw[0][2], k=k)
                    prod = ig_multiply(u, out)
                    scale = max(1.0, float(np.max(np.abs(u.m))) ** 2)
                    devs = (float(np.max(np.abs(prod.m - np.eye(k.dim)))) / scale,
                            float(np.max(np.abs(prod.z))) / scale,
                            phase_dev(prod.psi, 1.0))
                else:
                    m3, z3, psi3 = self._operand(rng, k, False, kind)
                    if kind == "mp_multiply":
                        a, b = (LiftedSymplectic(m=m, psi=psi, k=k) for m, _, psi in raw)
                        c = LiftedSymplectic(m=m3, psi=psi3, k=k)
                        left = mp_multiply(out, c)
                        right = mp_multiply(a, mp_multiply(b, c))
                        phase = abs(left.psi - right.psi)  # exact in the double cover
                    else:
                        a, b = (LiftedGaussian(m=m, z=z, psi=psi, k=k) for m, z, psi in raw)
                        c = LiftedGaussian(m=m3, z=z3, psi=psi3, k=k)
                        left = ig_multiply(out, c)
                        right = ig_multiply(a, ig_multiply(b, c))
                        # Associativity cannot tell zeta from -zeta.  With z = 0
                        # the product phase is e^{i eta/2}, and the metaplectic
                        # cocycle evaluates eta independently.
                        a0, b0 = (LiftedGaussian(m=m, z=np.zeros(k.dim), psi=1.0, k=k)
                                  for m, _, _ in raw)
                        reduced = phase_dev(ig_multiply(a0, b0).psi,
                                            np.exp(0.5j * cocycle_eta(a0.m, b0.m, k)))
                        phase = max(phase_dev(left.psi, right.psi), reduced)
                    scale = max(1.0, float(np.max(np.abs(left.m))))
                    devs = (float(np.max(np.abs(left.m - right.m))) / scale, phase)
            except gausslift.errors.GaussLiftError:
                skipped += 1  # the extra operation left the envelope; not an output defect
                continue
            checked += 1
            worst[edge] = max(worst[edge], devs[-1])
            if max(devs) < COMPOSE_TOL:
                continue
            if edge:
                edge_over += 1
            else:
                problems.append(f"{kind} output {i} ({sector[0].value}, N={sector[1]}): "
                                f"deviations {devs}")
        if checked == 0 and indices:
            problems.append("no recorded output could be checked")
        detail = {"outputs_checked": checked, "checks_skipped": skipped,
                  "edge_outputs_over_tolerance": edge_over, "problems": problems[:10]}
        return not problems, worst[False], worst[True], detail


# --------------------------------------------------------------------------
# lift


LIFT_POOL = 48
LIFT_KINDS = [("lift", 0.5), ("pin", 0.5)]
LIFT_MODES = (1, 2, 4, 8)
PIN_MODES = (1, 2, 4)
#: one lift in six per mode count has an unstable generator
LIFT_UNSTABLE_SHARE = 1.0 / 6.0
#: an op is at one of these times, in equal shares
LIFT_POINTS = 16
LIFT_TIMES = [k / LIFT_POINTS for k in range(1, LIFT_POINTS + 1)]
LIFT_PIN_CHECKS = 40
LIFT_PIN_EDGE_PATHS = 4
LIFT_FOCK_NMAX = 80
LIFT_FOCK_TOL = 1e-5
PIN_TOL = 1e-8
#: a Pin path whose holomorphic determinant comes closer to zero than this is
#: at the envelope edge: the tracker can pick the wrong square-root branch
PIN_EDGE_DET = 1e-4


def _path_min_det(gen, n, samples=129, zooms=3):
    """Smallest |det C| along the tracked path e^{sK}, s in [0, 1], at the
    standard structure, found on a grid refined around its minimum."""
    lo, hi = 0.0, 1.0
    for _ in range(zooms):
        s = np.linspace(lo, hi, samples)
        m = scipy.linalg.expm(s[:, None, None] * gen)
        c = m[:, :n, :n] + m[:, n:, n:] + 1j * (m[:, :n, n:] - m[:, n:, :n])
        dets = np.abs(np.linalg.det(c / 2.0))
        j = int(np.argmin(dets))
        lo, hi = s[max(j - 1, 0)], s[min(j + 1, samples - 1)]
    return float(dets[j])


class Lift:
    """One op is one call: ``lift_from_gqh`` of e^{-iHt} for a seeded
    quadratic Hamiltonian and time, or ``pin_component_phase`` of a point
    R e^{tA} of a seeded orthogonal path (R a reflection for the det = -1
    component, else I)."""

    name = "lift"
    pool_size = LIFT_POOL
    keep_all = False
    warm_pass = True

    def __init__(self, seed, out_dir=None):
        rng = np.random.default_rng([seed, 3])
        self.bosons = {n: standard_kahler(n) for n in LIFT_MODES}
        self.fermions = {n: standard_kahler(n, Species.FERMION) for n in PIN_MODES}
        self.refl = {n: reference_reflection(k) for n, k in self.fermions.items()}
        kinds = _exact_shares(rng, LIFT_POOL, LIFT_KINDS)
        n_lift = kinds.count("lift")
        lift_specs = _exact_shares(
            rng, n_lift,
            [((n, edge), (LIFT_UNSTABLE_SHARE if edge else 1.0 - LIFT_UNSTABLE_SHARE)
              / len(LIFT_MODES)) for n in LIFT_MODES for edge in (True, False)],
        )
        pin_specs = _exact_shares(
            rng, LIFT_POOL - n_lift,
            [((n, det), 1.0 / 6.0) for n in PIN_MODES for det in (1, -1)],
        )
        times = _exact_shares(rng, LIFT_POOL, [(t, 1.0 / LIFT_POINTS) for t in LIFT_TIMES])
        self.pool = []
        arrays = []
        for kind, t in zip(kinds, times):
            if kind == "lift":
                n, edge = lift_specs.pop()
                ham = self._hamiltonian(rng, n, edge)
                arrays += [ham.h, ham.f, [ham.c, t]]
                self.pool.append(("lift", n, (ham, t), edge))
            else:
                n, det = pin_specs.pop()
                reflection = mw_reflection(self.refl[n], self.fermions[n])
                (m,) = self._orthogonal_path(rng, n, det, reflection, rng.uniform(0.1, 1.0), [t])
                arrays.append(m)
                self.pool.append(("pin", n, (m, t), False))
        self.timed, self.edge = _split_edge(self.pool)
        self.check_rng_seed = [seed, 4]
        self.inputs_digest = digest(*arrays)

    @staticmethod
    def _hamiltonian(rng, n, unstable):
        n2 = 2 * n
        if unstable:
            # Mode-wise q^2 - p^2 couplings with squeezing rates in [2, 6],
            # rotated by a passive element so the sectors mix.
            a = rng.uniform(2.0, 6.0, n)
            ratio = rng.uniform(0.5, 1.0, n)
            h = np.diag(np.concatenate([a * ratio, -a / ratio]))
            u = _passive(rng, standard_kahler(n))
            h = u.T @ h @ u
            h = (h + h.T) / 2.0
        else:
            h = _random_symmetric(rng, n2, rng.uniform(0.1, 1.0))
        f = rng.standard_normal(n2)
        f *= rng.uniform(0.0, 1.0) / np.linalg.norm(f)
        return QuadraticHamiltonian(h=h, f=f, c=rng.uniform(-np.pi, np.pi))

    @staticmethod
    def _orthogonal_path(rng, n, det, reflection, norm, times):
        """R e^{tA} at ``times`` with |A| = norm; R = I for det = +1, else
        ``reflection`` times a small rotation."""
        gen = _random_antisymmetric(rng, 2 * n, norm)
        start = np.eye(2 * n)
        if det < 0:
            start = reflection @ scipy.linalg.expm(
                _random_antisymmetric(rng, 2 * n, rng.uniform(0.1, 0.5)))
        return [start @ scipy.linalg.expm(t * gen) for t in times]

    def _pin_deviation(self, m, phase, majorana):
        """Pin phase vs the 2^N oracle, and whether the tracked path of M
        passes near a zero of the holomorphic determinant."""
        n = m.shape[0] // 2
        m_plus = m if np.linalg.det(m) > 0 else mw_reflection(self.refl[n], self.fermions[n]) @ m
        gen = so_generator(m_plus)
        dev = phase_dev(phase, fermion_vacuum_amplitude(gen, majorana[n]))
        return dev, _path_min_det(gen, n) < PIN_EDGE_DET

    def op(self, i):
        kind, n, (data, t), _ = self.pool[i]
        if kind == "lift":
            # A fresh Hamiltonian per op, so nothing cached on the input
            # object carries over from an earlier repetition.
            ham = QuadraticHamiltonian(h=data.h.copy(), f=data.f.copy(), c=data.c)
            return lift_from_gqh(ham.scaled(t), self.bosons[n])
        return pin_component_phase(data, self.refl[n], self.fermions[n])

    def check(self, outputs):
        """Oracle phases of recorded outputs: the Fock oracle for every
        single-mode lift where the truncation is reliable, the 2^N Majorana
        oracle for a seeded sample of Pin points and for a few edge paths
        across the whole orthogonal group."""
        rng = np.random.default_rng(self.check_rng_seed)
        pins = [i for i in sorted(outputs) if self.pool[i][0] == "pin"]
        if len(pins) > LIFT_PIN_CHECKS:
            pins = rng.choice(pins, LIFT_PIN_CHECKS, replace=False).tolist()
        candidates = sorted(pins + [i for i in outputs
                                    if self.pool[i][0] == "lift" and self.pool[i][1] == 1])
        rep = build_fock(1, LIFT_FOCK_NMAX)
        majorana = {n: build_majorana(n) for n in PIN_MODES}
        worst = {False: 0.0, True: 0.0}
        checked = unreliable = edge_over = 0
        problems = []
        for i in candidates:
            kind, n, (data, t), at_edge = self.pool[i]
            out = outputs[i]
            if kind == "lift":
                if not truncation_reliable(data, t, rep):
                    unreliable += 1
                    continue
                dev = phase_dev(np.conj(out.psi), vacuum_amplitude_gqh(data, t, rep))
                tol = LIFT_FOCK_TOL
            else:
                dev, at_edge = self._pin_deviation(data, out, majorana)
                tol = PIN_TOL
            checked += 1
            worst[at_edge] = max(worst[at_edge], dev)
            if dev < tol:
                continue
            if at_edge:
                edge_over += 1
            else:
                problems.append(f"{kind} output {i} (N={n}, t={t}): "
                                f"oracle phase deviation {dev:.3g}")
        if checked == 0 and candidates:
            problems.append("no recorded output could be checked")

        # Timed Pin points stay near the identity or the reference reflection.
        # Paths across the whole orthogonal group can pass close to a zero of
        # the holomorphic determinant, where tracking refines up to its step
        # cap (seconds per call) and can return the wrong branch; a few such
        # paths are probed here, untimed, as edge outputs.
        probe_errors = 0
        n = PIN_MODES[-1]
        for p in range(LIFT_PIN_EDGE_PATHS):
            v = rng.standard_normal(2 * n)
            householder = np.eye(2 * n) - 2.0 * np.outer(v, v) / (v @ v)
            path = self._orthogonal_path(rng, n, (-1) ** p, householder, rng.uniform(1.0, 3.0),
                                         LIFT_TIMES)
            for m in path:
                try:
                    phase = pin_component_phase(m, self.refl[n], self.fermions[n])
                except gausslift.errors.GaussLiftError:
                    probe_errors += 1
                    continue
                dev, _ = self._pin_deviation(m, phase, majorana)
                worst[True] = max(worst[True], dev)
                edge_over += dev >= PIN_TOL
        detail = {"points_checked": checked, "unreliable_skipped": unreliable,
                  "edge_points_over_tolerance": int(edge_over),
                  "edge_probe_errors": probe_errors, "problems": problems[:10]}
        return not problems, worst[False], worst[True], detail


WORKLOADS = {w.name: w for w in (Fig2Sweep, Compose, Lift)}
