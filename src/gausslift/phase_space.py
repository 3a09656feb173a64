"""Kähler structures and the J-relative decompositions of group elements.

All matrices are stored in the real quadrature basis (q_1..q_N, p_1..p_N).
The squeeze maps Z_M and Y_M are formed only here, both by ``delta_y_z``,
which takes a stack of group elements as ``matfunc.mat_exp`` does.
"""

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalDomainError
from .matfunc import _any, _row_order_errors, _scalar, mat_exp


class Species(enum.Enum):
    """Mode statistics: selects commutator (boson) vs anti-commutator (fermion)."""

    BOSON = "boson"
    FERMION = "fermion"


def _np_readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class KahlerStructure:
    """Standard Kähler triple (Omega, G, J) of an N-mode sector.

    Omega = J = [[0, I], [-I, 0]] in the (q_1..q_N, p_1..p_N) ordering and
    G = I.  This is the one structure both oracles realize (truncated Fock
    space and the 2^N Majorana representation), so a structure is fixed by its
    mode count and species: the matrices are derived read-only fields, and two
    structures are equal when (n_modes, species) agree.
    """

    n_modes: int
    species: Species = Species.BOSON
    omega: np.ndarray = field(init=False, repr=False, compare=False)
    metric: np.ndarray = field(init=False, repr=False, compare=False)
    j: np.ndarray = field(init=False, repr=False, compare=False)
    omega_inv: np.ndarray = field(init=False, repr=False, compare=False)
    metric_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise InputError("mode count must be positive")
        omega = standard_symplectic_form(self.n_modes)
        metric = np.eye(2 * self.n_modes)
        object.__setattr__(self, "omega", _np_readonly(omega))
        object.__setattr__(self, "metric", _np_readonly(metric))
        object.__setattr__(self, "j", _np_readonly(omega))
        # Omega is orthogonal and G = I, so both inverses are exact
        object.__setattr__(self, "omega_inv", _np_readonly(omega.T))
        object.__setattr__(self, "metric_inv", _np_readonly(metric))

    @property
    def dim(self):
        return 2 * self.n_modes

    @property
    def fundamental_form(self):
        """The form preserved by the group: Omega for bosons, G for fermions."""
        return self.omega if self.species is Species.BOSON else self.metric

    def omega_bilinear(self, z1, z2):
        """Symplectic area omega(z1, z2) = z1^T omega^{-1} z2 of two vectors,
        or of each pair of two stacks of vectors (leading axes)."""
        z1, z2 = np.asarray(z1), np.asarray(z2)
        return _scalar((z1[..., None, :] @ self.omega_inv @ z2[..., :, None])[..., 0, 0])


def standard_symplectic_form(n_modes):
    """Omega = [[0, I], [-I, 0]] in the (q_1..q_N, p_1..p_N) ordering."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def standard_kahler(n_modes, species=Species.BOSON):
    """Standard structure: Omega = J = [[0, I], [-I, 0]], G = I."""
    return KahlerStructure(n_modes=n_modes, species=species)


def require_same_reference(a, b):
    """Reject operands built over different Kähler structures."""
    if a.k != b.k:
        raise InputError("operands carry different Kähler references")


def _shaped(a, shape, name, stacked=False):
    """``a`` as a float array, refused with ``InputError`` (naming it ``name``)
    unless it has ``shape``, or with ``stacked`` ends in ``shape`` (a stack of
    them, leading axes): the one shape check of every operand that meets a
    structure."""
    a = np.asarray(a, dtype=float)
    if (a.shape[-len(shape):] if stacked else a.shape) != shape:
        raise InputError(f"{name} must have shape {shape}, got {a.shape}")
    return a


#: largest max-abs residual of M Lambda M^T - Lambda accepted for a group element
GROUP_RESIDUAL_TOL = 1e-8


def validate_group_element(m, k):
    """Check M Lambda M^T = Lambda to ``GROUP_RESIDUAL_TOL``; returns (ok, residual).

    A matrix of the wrong shape or with a non-finite entry raises ``InputError``.
    """
    m = _shaped(m, (k.dim, k.dim), "group element")
    if not np.isfinite(m).all():
        raise InputError("group element must be finite")
    lam = k.fundamental_form
    residual = float(np.max(np.abs(m @ lam @ m.T - lam)))
    return residual <= GROUP_RESIDUAL_TOL, residual


def _check_lifted(m, psi, k, name):
    """(M, psi) of a lifted element as a float array and a complex, after the
    one check both kinds of lifted element share: M is a group element, then
    psi (called ``name`` in the message) has unit modulus."""
    m = np.asarray(m, dtype=float)
    psi = complex(psi)
    ok, residual = validate_group_element(m, k)
    if not ok:
        raise InputError(f"matrix is not a group element (residual {residual:.3g})")
    if not abs(abs(psi) - 1.0) <= 1e-10:  # also refuses a non-finite phase
        raise InputError(f"|{name}| = {abs(psi)} is not on the unit circle")
    return m, psi


def group_inverse(m, k):
    """M^{-1} = Lambda M^T Lambda^T of a group element (M^T for fermions)."""
    lam = k.fundamental_form
    return lam @ np.asarray(m, dtype=float).T @ lam.T


def split_cd(m, k):
    """J-linear and J-antilinear parts: C = (M - JMJ)/2, D = (M + JMJ)/2."""
    m = np.asarray(m, dtype=float)
    jmj = k.j @ m @ k.j
    return (m - jmj) / 2.0, (m + jmj) / 2.0


class DeltaYZ(NamedTuple):
    y: np.ndarray
    z: np.ndarray


@_row_order_errors(2, None)
def delta_y_z(m, k):
    """Squeeze-sector maps of a group element, or of each element of a stack,
    from one C/D split.

    z = Z_M = C^{-1} D; y = Y_M = Z_{M^{-1}} solves C^T y = -+D^T, since
    C_{M^{-1}} = C^T and D_{M^{-1}} = -D^T (bosons) or +D^T (fermions) at the
    standard structure.  One test covers both maps, as C^T has the singular
    values of C: a numerically singular C, or one whose SVD does not converge,
    raises ``NumericalDomainError``; a matrix of the wrong shape, ``InputError``.
    A stack makes one SVD call and two solves.
    """
    c, d = split_cd(_shaped(m, (k.dim, k.dim), "group element", stacked=True), k)
    try:
        sv = np.linalg.svd(c, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalDomainError(f"C_M has no singular values: {exc}") from None
    low, high = sv.T[-1], sv.T[0]  # per element, in any order of the stack
    if _any((low < 1e-9) | (low < 1e-9 * high)):  # below 1e-9 max(sigma_max, 1)
        raise NumericalDomainError("C_M is singular: the Z map does not exist")
    ct, dt = c.swapaxes(-1, -2), d.swapaxes(-1, -2)
    return DeltaYZ(y=np.linalg.solve(ct, -dt if k.species is Species.BOSON else dt),
                   z=np.linalg.solve(c, d))


def random_group_element(k, rng, scale=1.0):
    """Connected-component sample e^K with K = Omega h (bosons, h symmetric,
    ||h|| <= scale) or K antisymmetric (fermions)."""
    n2 = k.dim
    a = rng.standard_normal((n2, n2))
    if k.species is Species.BOSON:
        h = (a + a.T) / 2.0
        h *= scale * rng.uniform(0.1, 1.0) / max(np.linalg.norm(h, 2), 1e-12)
        gen = k.omega @ h
    else:
        gen = (a - a.T) / 2.0
        gen *= scale * rng.uniform(0.1, 1.0) / max(np.linalg.norm(gen, 2), 1e-12)
    return mat_exp(gen)
