"""Truncated Fock-space oracle for bosonic amplitudes and expectations.

Everything here is brute force on purpose: quadratures are ladder-operator
matrices at cutoff ``n_max``, unitaries are dense or Krylov exponentials of
the truncated Hamiltonian, and the reference state is the vacuum vector.
The evolution of the vacuum and the pair oracle take one time or a 1-D array
of times; for an array, states are stacked one row per time, and a time
sweep costs one product per state instead of one per time.  This module is
the independent truth source the analytic phase formulas are verified
against; it must not import any of them (the analytic number expectation
below uses only group-level data).
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

#: a time grid is evolved this many times at once, so a long sweep holds
#: (block x dim) states, never (grid length x dim)
_TIME_BLOCK = 256


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
    """Time evolution e^{-i H t} applied to the vacuum, cached per Hamiltonian.

    ``t`` is a time or a 1-D array of times; an array gives one state or
    amplitude per time, stacked along the first axis.
    """

    def __init__(self, rep, ham):
        self.rep = rep
        self.matrix = rep.hamiltonian_matrix(ham)
        self.dense = rep.dim <= _EIGH_LIMIT
        if self.dense:
            w, v = np.linalg.eigh(self.matrix.toarray())
            self._w = w
            self._v = v
            self._v0 = v.conj().T @ rep.vacuum

    def _phases(self, t):
        return np.exp(-1j * self._w * np.asarray(t)[..., None])

    def state(self, t):
        if self.dense:
            return _rows(self._v, self._phases(t) * self._v0)
        return _krylov(self.matrix, t, self.rep.vacuum)

    def vacuum_amplitude(self, t):
        if self.dense:
            return np.sum(np.abs(self._v0) ** 2 * self._phases(t), axis=-1)
        return self.state(t)[..., 0]


def _rows(matrix, x):
    """``matrix @ x`` for a vector, or for each row of a stack of vectors."""
    return (matrix @ x.T).T


def _krylov(matrix, t, vec):
    """e^{-i H t} vec by Krylov exponentiation, one call per time of a 1-D
    ``t``; ``vec`` is one vector or one row per time."""
    if np.ndim(t) == 0:
        return scipy.sparse.linalg.expm_multiply(-1j * t * matrix, vec)
    vecs = np.broadcast_to(vec, np.shape(t) + vec.shape[-1:])
    out = np.empty(vecs.shape, dtype=complex)
    for i, (ti, v) in enumerate(zip(t, vecs)):
        out[i] = scipy.sparse.linalg.expm_multiply(-1j * ti * matrix, v)
    return out


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


def _require_boson(ham):
    if getattr(ham, "species", Species.BOSON) is Species.FERMION:
        raise InputError("the Fock oracle is bosonic")


def vacuum_amplitude_gqh(ham, t, rep):
    """<0| e^{-i H t} |0> on the truncated space."""
    _require_boson(ham)
    amp = complex(rep._evolution(ham).vacuum_amplitude(t))
    if abs(amp) > 1.0 + 1e-8:
        raise NumericalDomainError(f"amplitude modulus {abs(amp)} exceeds 1")
    return amp


def _excitation(rep, psi):
    """<psi|N|psi> of a state, or of each row of a stack of states.

    A (1 x dim) @ (dim x 1) product per row: it runs the BLAS dot product
    that ``np.vdot`` runs, so one state gives ``np.vdot``'s exact value.
    """
    bra = psi.conj()[..., None, :]
    return np.real(bra @ _rows(rep.number_op, psi)[..., :, None])[..., 0, 0]


def mean_excitation(ham, t, rep):
    """<n_total> of e^{-i H t}|0>; the truncation health indicator."""
    return float(_excitation(rep, rep._evolution(ham).state(t)))


def truncation_reliable(ham, t, rep):
    """True while the evolved state stays well inside the cutoff."""
    return mean_excitation(ham, t, rep) <= RELIABILITY_FRACTION * rep.n_max


def _apply(evolution, t, vec):
    """e^{-i H t} vec; for a 1-D ``t``, ``vec`` has one row per time."""
    if evolution.dense:
        return _rows(evolution._v, evolution._phases(t) * _rows(evolution._v.conj().T, vec))
    return _krylov(evolution.matrix, t, vec)


def _scalar(x):
    """A Python scalar from a 0-d result; an array result unchanged."""
    return x.item() if np.ndim(x) == 0 else x


class _PairOracle:
    """Oracle quantities of the pair U1(t) U2(t) at one cutoff.

    ``t`` is a time or a 1-D array of times; for an array each quantity is an
    array over the times.  The grid is evolved in blocks of ``_TIME_BLOCK``
    times: per block, U1|0>, U2|0> and U1 U2|0> are each evolved once, and only
    their vacuum amplitudes and mean excitations are kept.  ``zeta`` raises
    what ``zeta_numeric`` raises at the first time where it would raise;
    ``number`` and ``reliable`` raise nothing.
    """

    def __init__(self, ham1, ham2, t, rep):
        self.ham1, self.ham2, self.t, self.rep = ham1, ham2, t, rep

    @cached_property
    def _columns(self):
        """(a1, a2, a12, n1, n2, n12): vacuum amplitudes and excitations."""
        ev1, ev2 = self.rep._evolution(self.ham1), self.rep._evolution(self.ham2)
        if np.ndim(self.t) == 0:
            blocks = [self.t]
        else:
            t = np.asarray(self.t, dtype=float)
            blocks = [t[i:i + _TIME_BLOCK] for i in range(0, max(len(t), 1), _TIME_BLOCK)]
        parts = []
        for tb in blocks:
            psi1, psi2 = ev1.state(tb), ev2.state(tb)
            psi12 = _apply(ev1, tb, psi2)
            # dense: the spectral sum of ``vacuum_amplitude``, whose bits the
            # public functions return; Krylov: read off the evolved states
            if ev1.dense:
                a1, a2 = ev1.vacuum_amplitude(tb), ev2.vacuum_amplitude(tb)
            else:
                a1, a2 = psi1[..., 0], psi2[..., 0]
            parts.append((
                a1, a2, psi12[..., 0],
                *(_excitation(self.rep, psi) for psi in (psi1, psi2, psi12)),
            ))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(column) for column in zip(*parts))

    @cached_property
    def failure(self):
        """(index, error) of the first time at which ``zeta`` raises, else None.

        At one time the checks run in the order of ``zeta_numeric``: the
        modulus of <0|U1|0>, then of <0|U2|0>, then the vanishing amplitudes.
        """
        amps = [np.atleast_1d(a) for a in self._columns[:3]]
        checks = [np.abs(a) > 1.0 + 1e-8 for a in amps[:2]]
        checks += [np.abs(a) <= 1e-12 for a in amps]
        hits = np.array(checks)
        if not hits.any():
            return None
        i = int(np.argmax(hits.any(axis=0)))
        kind = int(np.argmax(hits[:, i]))
        if kind < 2:
            error = NumericalDomainError(f"amplitude modulus {float(abs(amps[kind][i]))} exceeds 1")
        else:
            name = ("U1", "U2", "U1U2")[kind - 2]
            error = PhaseUndefinedError(f"vacuum amplitude of {name} vanishes; phase undefined")
        return i, error

    @cached_property
    def zeta(self):
        _require_boson(self.ham1)
        _require_boson(self.ham2)
        if self.failure is not None:
            raise self.failure[1]
        a1, a2, a12 = self._columns[:3]
        return wrap_angle(np.angle(a1) + np.angle(a2) - np.angle(a12))

    @cached_property
    def number(self):
        return _scalar(self._columns[5])

    @cached_property
    def reliable(self):
        limit = RELIABILITY_FRACTION * self.rep.n_max
        return _scalar(np.all(np.array(self._columns[3:]) <= limit, axis=0))


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
