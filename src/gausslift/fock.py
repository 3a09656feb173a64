"""Truncated Fock-space oracle for bosonic amplitudes and expectations.

Everything here is brute force on purpose: quadratures are ladder-operator
matrices at cutoff ``n_max``, unitaries are dense or Krylov exponentials of
the truncated Hamiltonian, and the reference state is the vacuum vector.
Up to ``_EIGH_LIMIT`` states, operators are numpy arrays and an evolution is
one ``eigh``, so this branch (which every Fig. 2 sweep takes) runs in numpy
alone and uses one OpenBLAS pool; above it, operators are scipy sparse
matrices and each time is one Krylov ``expm_multiply``, and only that branch
imports scipy.
Every state comes from one routine, ``_Evolution.apply(t, vec)``: U|0> is
the vacuum evolved by U, and U1 U2|0> is U2|0> evolved by U1.  It takes one
time or a 1-D array of times; for an array, states are stacked one row per
time, and a time sweep costs one product per state instead of one per time.
Every vacuum amplitude is read off an evolved state, as its first entry.
This module is the independent truth source the analytic phase formulas are
verified against; it must not import any of them (the analytic number
expectation below uses only group-level data).
"""

from functools import cached_property, partial, reduce

import numpy as np

from .errors import InputError, NumericalDomainError, PhaseUndefinedError, SizeGuardError
from .matfunc import _row_order_errors, _scalar, wrap_angle
from .phase_space import Species, _shaped

#: hard guard on the truncated dimension (n_max + 1)^N
DENSE_GUARD = 4096

#: up to this dimension operators are dense numpy arrays and evolutions are
#: cached eigendecompositions (cheap to reuse across a time sweep); above it,
#: operators are scipy sparse matrices and each time is one Krylov
#: exponentiation
_EIGH_LIMIT = 600

#: mean excitation above this fraction of n_max marks results unreliable
RELIABILITY_FRACTION = 0.5

#: a time grid is evolved this many times at once, so a long sweep holds
#: (block x dim) states, never (grid length x dim)
_TIME_BLOCK = 256


class FockRep:
    """Truncated representation of N bosonic modes at cutoff ``n_max``.

    Quadratures are ordered (q_1..q_N, p_1..p_N) to match the real phase-space
    basis.  Operators are dense numpy arrays up to ``_EIGH_LIMIT`` states and
    scipy sparse matrices above it (``dense`` says which); both support the
    ``@`` and ``+`` used here.  Construction is single-shot; evaluations on a
    built instance are read-only.
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
        self.dense = dim <= _EIGH_LIMIT
        ladder = np.sqrt(np.arange(1, n_max + 1, dtype=complex))
        if self.dense:
            a, self._one, self._kron = np.diag(ladder, 1), np.eye(n_max + 1), np.kron
        else:
            import scipy.sparse

            a = scipy.sparse.diags(ladder, offsets=1, format="csr")
            self._one = scipy.sparse.identity(n_max + 1, format="csr")
            self._kron = partial(scipy.sparse.kron, format="csr")
        q1 = (a.conj().T + a) / np.sqrt(2.0)
        p1 = 1j * (a.conj().T - a) / np.sqrt(2.0)
        n1 = a.conj().T @ a
        #: (mode, single-mode operator) of each quadrature
        self._factors = [(m, q1) for m in range(n_modes)] + [(m, p1) for m in range(n_modes)]
        self._xi = [self._embed({m: op}) for m, op in self._factors]
        self.number_op = sum(self._embed({m: n1}) for m in range(n_modes))
        self.vacuum = np.zeros(dim, dtype=complex)
        self.vacuum[0] = 1.0
        self._evolutions = {}

    def _embed(self, ops):
        """The tensor product of ``ops`` ({mode: single-mode operator}) and the
        identity on every other mode, in this rep's storage."""
        return reduce(self._kron, [ops.get(m, self._one) for m in range(self.n_modes)])

    @cached_property
    def quadratures(self):
        """Dense complex quadrature matrices (materialized on first access)."""
        return self._xi if self.dense else [m.toarray() for m in self._xi]

    def hamiltonian_matrix(self, ham):
        """Matrix of (1/2) h_ab xi^a xi^b + f_a xi^a + c, in this rep's storage.

        Each xi^a xi^b is multiplied out on its one or two modes and then
        embedded, so no product of two full-size matrices is formed."""
        h, f = _shaped(ham.h, (2 * self.n_modes,) * 2, "h"), ham.f
        out = ham.c * self._embed({})
        for i, (mi, oi) in enumerate(self._factors):
            for j, (mj, oj) in enumerate(self._factors):
                if h[i, j] != 0.0:
                    ops = {mi: oi @ oj} if mi == mj else {mi: oi, mj: oj}
                    out = out + (0.5 * h[i, j]) * self._embed(ops)
            if f[i] != 0.0:
                out = out + f[i] * self._xi[i]
        return out

    def _evolution(self, ham):
        key = (ham.h.tobytes(), ham.f.tobytes(), ham.c)
        ev = self._evolutions.get(key)
        if ev is None:
            ev = _Evolution(self, ham)
            self._evolutions[key] = ev
        return ev


class _Evolution:
    """Time evolution e^{-i H t} of a state, cached per Hamiltonian.

    ``t`` is a time or a 1-D array of times; for an array, ``apply`` gives
    one state per time, stacked along the first axis.  On a dense rep the
    Hamiltonian is diagonalized once and every time costs one product; on a
    sparse one each time is one Krylov exponentiation (``expm_multiply``).
    """

    def __init__(self, rep, ham):
        self.rep = rep
        self.matrix = rep.hamiltonian_matrix(ham)
        if rep.dense:
            self._w, self._v = np.linalg.eigh(self.matrix)

    def apply(self, t, vec):
        """e^{-i H t} vec; for a 1-D ``t``, ``vec`` is one vector or one row per time."""
        t = np.asarray(t)
        if self.rep.dense:
            phases = np.exp(-1j * self._w * t[..., None])
            return _rows(self._v, phases * _rows(self._v.conj().T, vec))
        import scipy.sparse.linalg

        vecs = np.broadcast_to(vec, t.shape + vec.shape[-1:])
        out = np.empty(vecs.shape, dtype=complex)
        for i in np.ndindex(t.shape):
            out[i] = scipy.sparse.linalg.expm_multiply(-1j * t[i] * self.matrix, vecs[i])
        return out


def _rows(matrix, x):
    """``matrix @ x`` for a vector, or for each row of a stack of vectors."""
    return (matrix @ x.T).T


def build_fock(n_modes, n_max):
    """Construct the truncated representation (guarded dense size)."""
    return FockRep(n_modes, n_max)


def _require_boson(ham):
    if getattr(ham, "species", Species.BOSON) is Species.FERMION:
        raise InputError("the Fock oracle is bosonic")


def _amplitude_error(amps, names=()):
    """The error of the first failing check on the vacuum amplitudes of one
    time, or None.  The order is ``zeta_numeric``'s: a modulus above 1 for the
    first two amplitudes (U1, then U2), then a vanishing amplitude for each
    amplitude that ``names`` names (U1, U2, U1U2)."""
    for amp in amps[:2]:
        if abs(amp) > 1.0 + 1e-8:
            return NumericalDomainError(f"amplitude modulus {float(abs(amp))} exceeds 1")
    for name, amp in zip(names, amps):
        if abs(amp) <= 1e-12:
            return PhaseUndefinedError(f"vacuum amplitude of {name} vanishes; phase undefined")
    return None


def vacuum_amplitude_gqh(ham, t, rep):
    """<0| e^{-i H t} |0> on the truncated space."""
    _require_boson(ham)
    amp = complex(rep._evolution(ham).apply(t, rep.vacuum)[..., 0])
    error = _amplitude_error([amp])
    if error is not None:
        raise error
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
    return float(_excitation(rep, rep._evolution(ham).apply(t, rep.vacuum)))


def truncation_reliable(ham, t, rep):
    """True while the evolved state stays well inside the cutoff."""
    return mean_excitation(ham, t, rep) <= RELIABILITY_FRACTION * rep.n_max


class _PairOracle:
    """Oracle quantities of the pair U1(t) U2(t) at one cutoff.

    ``t`` is a time or a 1-D array of times; for an array each quantity is an
    array over the times.  The grid is evolved in blocks of ``_TIME_BLOCK``
    times, a single time as a block of its own: per block, U1|0>, U2|0> and
    U1 U2|0> are each evolved once, and only their vacuum amplitudes and mean
    excitations are kept.  ``zeta`` raises what ``zeta_numeric`` raises at the
    first time where it would raise; ``number`` and ``reliable`` raise nothing.
    """

    def __init__(self, ham1, ham2, t, rep):
        self.ham1, self.ham2, self.t, self.rep = ham1, ham2, t, rep

    @cached_property
    def _columns(self):
        """(a1, a2, a12, n1, n2, n12): vacuum amplitudes and excitations."""
        ev1, ev2 = self.rep._evolution(self.ham1), self.rep._evolution(self.ham2)
        t = np.asarray(self.t, dtype=float)
        columns = [np.empty(t.shape, dtype=complex) for _ in range(3)]
        columns += [np.empty(t.shape) for _ in range(3)]
        for i in range(0, t.size, _TIME_BLOCK):
            # a block keeps the shape of ``t``: a 0-d time is a 0-d block
            tb = t.reshape(-1)[i:i + _TIME_BLOCK].reshape((-1,) * t.ndim)
            psi2 = ev2.apply(tb, self.rep.vacuum)
            states = (ev1.apply(tb, self.rep.vacuum), psi2, ev1.apply(tb, psi2))
            values = [psi[..., 0] for psi in states]
            values += [_excitation(self.rep, psi) for psi in states]
            for column, value in zip(columns, values):
                column.reshape(-1)[i:i + _TIME_BLOCK] = value
        return columns

    @cached_property
    def failure(self):
        """(index, error) of the first time at which ``zeta`` raises, else None."""
        columns = (a.reshape(-1) for a in self._columns[:3])
        for i, amps in enumerate(zip(*columns)):
            error = _amplitude_error(amps, ("U1", "U2", "U1U2"))
            if error is not None:
                return i, error
        return None

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
    """``number_expectation_analytic`` from M_i(t) = e^{Omega h_i t} and z_i(t),
    or from stacks of them (one element per time)."""
    m = m1 @ m2
    zt = z1 + (m1 @ z2[..., None])[..., 0]
    delta = m @ np.swapaxes(m, -1, -2)
    first = -0.25 * np.trace(np.eye(k.dim) - delta, axis1=-2, axis2=-1)
    return _scalar(first + 0.5 * (zt[..., None, :] @ k.metric_inv @ zt[..., :, None])[..., 0, 0])


@_row_order_errors(None, None, 0, None)
def number_expectation_analytic(ham1, ham2, t, k):
    """Group-level total-number expectation for the pair evolution, at a time
    or at each time of an array (an error is the first time's, as for a
    stacked kernel).

    Uses -tr(I - delta_{M(t)})/4 + z~^T g z~ / 2 with M(t) = e^{Omega h1 t}
    e^{Omega h2 t} and z~ = z1(t) + M1(t) z2(t).  Independent of any phase
    machinery: M_i(t) and z_i(t) are the blocks of one exponential each.
    """
    from .generator import _affine_exp

    _, z1, m1 = _affine_exp(ham1, k, t)
    _, z2, m2 = _affine_exp(ham2, k, t)
    return _number_expectation_from_parts(m1, m2, z1, z2, k)


def parity_check(rep):
    """Max deviation of e^{i pi (n + 1/2)} from i * parity, single mode."""
    if rep.n_modes != 1:
        raise InputError("parity identity is checked for a single mode")
    n = np.arange(rep.n_max + 1)
    lhs = np.exp(1j * np.pi * (n + 0.5))
    parity = (-1.0) ** n
    return float(np.max(np.abs(lhs - 1j * parity)))
