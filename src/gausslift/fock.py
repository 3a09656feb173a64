"""Truncated Fock-space oracle for bosonic amplitudes and expectations.

Everything here is brute force on purpose: quadratures are ladder-operator
matrices at cutoff ``n_max``, unitaries are dense or Krylov exponentials of
the truncated Hamiltonian, and the reference state is the vacuum vector.
This module is the independent truth source the analytic phase formulas are
verified against; it must not import any of them (the analytic number
expectation below uses only group-level data).
"""

from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import InputError, NumericalDomainError, PhaseUndefinedError, SizeGuardError
from .matfunc import wrap_angle
from .phase_space import Species

#: hard guard on the truncated dimension (n_max + 1)^N
DENSE_GUARD = 4096

#: below this dimension evolutions are cached eigendecompositions (cheap to
#: reuse across a time sweep); above it, Krylov exponentiation per call
_EIGH_LIMIT = 600

#: mean excitation above this fraction of n_max marks results unreliable
RELIABILITY_FRACTION = 0.5


def _mode_ladder(n_max):
    data = np.sqrt(np.arange(1, n_max + 1))
    return scipy.sparse.diags(data, offsets=1, format="csr")


class FockRep:
    """Truncated representation of N bosonic modes at cutoff ``n_max``.

    Quadratures are ordered (q_1..q_N, p_1..p_N) to match the real phase-space
    basis.  Construction is single-shot; evaluations on a built instance are
    read-only.
    """

    def __init__(self, n_modes, n_max):
        if n_modes < 1 or n_max < 1:
            raise InputError("need at least one mode and a positive cutoff")
        dim = (n_max + 1) ** n_modes
        if dim > DENSE_GUARD:
            raise SizeGuardError(
                f"(n_max+1)^N = {dim} exceeds the dense-storage guard {DENSE_GUARD}"
            )
        self.n_modes = n_modes
        self.n_max = n_max
        self.dim = dim
        a = _mode_ladder(n_max)
        q1 = (a.conj().T + a) / np.sqrt(2.0)
        p1 = 1j * (a.conj().T - a) / np.sqrt(2.0)
        n1 = a.conj().T @ a
        self._q = [self._embed(q1, m) for m in range(n_modes)]
        self._p = [self._embed(p1, m) for m in range(n_modes)]
        self._sparse_quadratures = self._q + self._p
        self.number_op = sum(self._embed(n1, m) for m in range(n_modes))
        self.vacuum = np.zeros(dim, dtype=complex)
        self.vacuum[0] = 1.0
        self._evolutions = {}

    def _embed(self, op, mode):
        mats = [scipy.sparse.identity(self.n_max + 1, format="csr", dtype=complex)] * self.n_modes
        mats[mode] = op.astype(complex)
        out = mats[0]
        for m in mats[1:]:
            out = scipy.sparse.kron(out, m, format="csr")
        return out

    @cached_property
    def quadratures(self):
        """Dense complex quadrature matrices (materialized on first access)."""
        return [m.toarray() for m in self._sparse_quadratures]

    def hamiltonian_matrix(self, ham):
        """Sparse matrix of (1/2) h_ab xi^a xi^b + f_a xi^a + c."""
        h, f, c = _ham_parts(ham, self.n_modes)
        xi = self._sparse_quadratures
        out = scipy.sparse.csr_matrix((self.dim, self.dim), dtype=complex)
        for i in range(2 * self.n_modes):
            for j in range(2 * self.n_modes):
                if h[i, j] != 0.0:
                    out = out + (0.5 * h[i, j]) * (xi[i] @ xi[j])
            if f[i] != 0.0:
                out = out + f[i] * xi[i]
        if c != 0.0:
            out = out + c * scipy.sparse.identity(self.dim, format="csr", dtype=complex)
        return out

    def _evolution(self, ham):
        key = _ham_key(ham, self.n_modes)
        ev = self._evolutions.get(key)
        if ev is None:
            ev = _Evolution(self, ham)
            self._evolutions[key] = ev
        return ev


class _Evolution:
    """Time evolution e^{-i H t} applied to the vacuum, cached per Hamiltonian."""

    def __init__(self, rep, ham):
        self.rep = rep
        self.matrix = rep.hamiltonian_matrix(ham)
        self.dense = rep.dim <= _EIGH_LIMIT
        if self.dense:
            w, v = np.linalg.eigh(self.matrix.toarray())
            self._w = w
            self._v = v
            self._v0 = v.conj().T @ rep.vacuum

    def state(self, t):
        if self.dense:
            return self._v @ (np.exp(-1j * self._w * t) * self._v0)
        return scipy.sparse.linalg.expm_multiply(-1j * t * self.matrix, self.rep.vacuum)

    def vacuum_amplitude(self, t):
        if self.dense:
            return complex(np.sum(np.abs(self._v0) ** 2 * np.exp(-1j * self._w * t)))
        return complex(np.vdot(self.rep.vacuum, self.state(t)))


def _ham_parts(ham, n_modes):
    n2 = 2 * n_modes
    h = np.asarray(ham.h, dtype=float)
    if h.shape != (n2, n2):
        raise InputError(f"h must have shape {(n2, n2)}, got {h.shape}")
    f = np.zeros(n2) if ham.f is None else np.asarray(ham.f, dtype=float)
    if f.shape != (n2,):
        raise InputError(f"f must have shape {(n2,)}, got {f.shape}")
    return h, f, float(ham.c)


def _ham_key(ham, n_modes):
    h, f, c = _ham_parts(ham, n_modes)
    return (h.tobytes(), f.tobytes(), c)


def build_fock(n_modes, n_max):
    """Construct the truncated representation (guarded dense size)."""
    return FockRep(n_modes, n_max)


def vacuum_amplitude_gqh(ham, t, rep):
    """<0| e^{-i H t} |0> on the truncated space."""
    if getattr(ham, "species", Species.BOSON) is Species.FERMION:
        raise InputError("the Fock oracle is bosonic")
    amp = rep._evolution(ham).vacuum_amplitude(t)
    if abs(amp) > 1.0 + 1e-8:
        raise NumericalDomainError(f"amplitude modulus {abs(amp)} exceeds 1")
    return amp


def _excitation(rep, psi):
    return float(np.real(np.vdot(psi, rep.number_op @ psi)))


def mean_excitation(ham, t, rep):
    """<n_total> of e^{-i H t}|0>; the truncation health indicator."""
    return _excitation(rep, rep._evolution(ham).state(t))


def truncation_reliable(ham, t, rep):
    """True while the evolved state stays well inside the cutoff."""
    return mean_excitation(ham, t, rep) <= RELIABILITY_FRACTION * rep.n_max


def _apply(evolution, t, vec):
    if evolution.dense:
        return evolution._v @ (np.exp(-1j * evolution._w * t) * (evolution._v.conj().T @ vec))
    return scipy.sparse.linalg.expm_multiply(-1j * t * evolution.matrix, vec)


class _PairOracle:
    """Oracle quantities of the pair U1(t) U2(t) at one cutoff.

    ``zeta``, ``number`` and ``reliable`` are computed on first access and
    share U2(t)|0> and U1(t) U2(t)|0>, so each state is evolved at most once
    however many of them are read.  Each raises what the public function of
    the same quantity raises, and only that.
    """

    def __init__(self, ham1, ham2, t, rep):
        self.ham1, self.ham2, self.t, self.rep = ham1, ham2, t, rep

    @cached_property
    def _psi2(self):
        return self.rep._evolution(self.ham2).state(self.t)

    @cached_property
    def _psi12(self):
        return _apply(self.rep._evolution(self.ham1), self.t, self._psi2)

    @cached_property
    def zeta(self):
        a1 = vacuum_amplitude_gqh(self.ham1, self.t, self.rep)
        a2 = vacuum_amplitude_gqh(self.ham2, self.t, self.rep)
        a12 = complex(np.vdot(self.rep.vacuum, self._psi12))
        for name, a in (("U1", a1), ("U2", a2), ("U1U2", a12)):
            if abs(a) <= 1e-12:
                raise PhaseUndefinedError(f"vacuum amplitude of {name} vanishes; phase undefined")
        return wrap_angle(np.angle(a1) + np.angle(a2) - np.angle(a12))

    @cached_property
    def number(self):
        return _excitation(self.rep, self._psi12)

    @cached_property
    def reliable(self):
        limit = RELIABILITY_FRACTION * self.rep.n_max
        return (
            mean_excitation(self.ham1, self.t, self.rep) <= limit
            and _excitation(self.rep, self._psi2) <= limit
            and self.number <= limit
        )


def truncation_reliable_pair(ham1, ham2, t, rep):
    """Reliability of every amplitude entering the pair comparison."""
    return _PairOracle(ham1, ham2, t, rep).reliable


def zeta_numeric(ham1, ham2, t, rep):
    """arg(Phi[U1] Phi[U2] / Phi[U1 U2]) reduced to (-pi, pi]."""
    return _PairOracle(ham1, ham2, t, rep).zeta


def number_expectation(ham1, ham2, t, rep):
    """<0| U2(t)^dag U1(t)^dag N U1(t) U2(t) |0> on the truncated space."""
    return _PairOracle(ham1, ham2, t, rep).number


def _number_expectation_from_parts(m1, m2, z1, z2, k):
    """``number_expectation_analytic`` from M_i(t) = e^{Omega h_i t} and z_i(t)."""
    m = m1 @ m2
    zt = z1 + m1 @ z2
    delta = m @ m.T
    first = -0.25 * np.trace(np.eye(k.dim) - delta)
    return float(first + 0.5 * zt @ k.metric_inv @ zt)


def number_expectation_analytic(ham1, ham2, t, k):
    """Group-level total-number expectation for the pair evolution.

    Uses -tr(I - delta_{M(t)})/4 + z~^T g z~ / 2 with M(t) = e^{Omega h1 t}
    e^{Omega h2 t} and z~ = z1(t) + M1(t) z2(t).  Independent of any phase
    machinery; only exp/phi1 and the structure enter.
    """
    from .generator import z_from_hf
    from .matfunc import mat_exp

    h1 = np.asarray(ham1.h, dtype=float)
    h2 = np.asarray(ham2.h, dtype=float)
    m1 = mat_exp(k.omega @ h1 * t)
    m2 = mat_exp(k.omega @ h2 * t)
    z1 = z_from_hf(h1 * t, _ham_parts(ham1, k.n_modes)[1] * t, k)
    z2 = z_from_hf(h2 * t, _ham_parts(ham2, k.n_modes)[1] * t, k)
    return _number_expectation_from_parts(m1, m2, z1, z2, k)


def parity_check(rep):
    """Max deviation of e^{i pi (n + 1/2)} from i * parity, single mode."""
    if rep.n_modes != 1:
        raise InputError("parity identity is checked for a single mode")
    n = np.arange(rep.n_max + 1)
    lhs = np.exp(1j * np.pi * (n + 0.5))
    parity = (-1.0) ** n
    return float(np.max(np.abs(lhs - 1j * parity)))
