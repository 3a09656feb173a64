"""Kähler structures and the J-relative decompositions of group elements.

All matrices are stored in the real quadrature basis (q_1..q_N, p_1..p_N).
The squeeze maps are formed only here: Z_M by ``z_map``, Y_M by ``y_map``.
"""

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalDomainError


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
        object.__setattr__(self, "omega_inv", _np_readonly(np.linalg.inv(omega)))
        object.__setattr__(self, "metric_inv", _np_readonly(np.linalg.inv(metric)))

    @property
    def dim(self):
        return 2 * self.n_modes

    @property
    def fundamental_form(self):
        """The form preserved by the group: Omega for bosons, G for fermions."""
        return self.omega if self.species is Species.BOSON else self.metric

    def omega_bilinear(self, z1, z2):
        """Symplectic area omega(z1, z2) = z1^T omega^{-1} z2 of two vectors."""
        return float(np.asarray(z1) @ self.omega_inv @ np.asarray(z2))


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


#: largest max-abs residual of M Lambda M^T - Lambda accepted for a group element
GROUP_RESIDUAL_TOL = 1e-8


def validate_group_element(m, k):
    """Check M Lambda M^T = Lambda to ``GROUP_RESIDUAL_TOL``; returns (ok, residual)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (k.dim, k.dim):
        raise InputError(f"group element must have shape {(k.dim, k.dim)}, got {m.shape}")
    lam = k.fundamental_form
    residual = float(np.max(np.abs(m @ lam @ m.T - lam)))
    return residual <= GROUP_RESIDUAL_TOL, residual


def group_inverse(m, k):
    """M^{-1} = Lambda M^T Lambda^T of a group element (M^T for fermions)."""
    lam = k.fundamental_form
    return lam @ np.asarray(m, dtype=float).T @ lam.T


def split_cd(m, k):
    """J-linear and J-antilinear parts: C = (M - JMJ)/2, D = (M + JMJ)/2."""
    m = np.asarray(m, dtype=float)
    jmj = k.j @ m @ k.j
    return (m - jmj) / 2.0, (m + jmj) / 2.0


def z_map(m, k):
    """Squeeze map Z_M = C^{-1} D; a numerically singular C raises."""
    c, d = split_cd(m, k)
    sv = np.linalg.svd(c, compute_uv=False)
    if sv[-1] < 1e-9 * max(sv[0], 1.0):
        raise NumericalDomainError("C_M is singular: the Z map does not exist")
    return np.linalg.solve(c, d)


def y_map(m, k):
    """Y_M = Z_{M^{-1}} through the group inverse; it exists wherever Z_M does, since
    |det C| >= 1 for bosons and C_{M^T} = C_M^T for fermions."""
    return z_map(group_inverse(m, k), k)


class DeltaYZ(NamedTuple):
    delta: np.ndarray
    y: np.ndarray
    z: np.ndarray


def delta_y_z(m, k):
    """Squeeze-sector maps of a group element.

    delta = -M J M^{-1} J (equals M M^T for bosons at the standard structure),
    y = (I - delta)(I + delta)^{-1} = ``y_map`` (I + delta_M = 2 M C_{M^{-1}})
    and z = ``z_map``; a singular C raises ``NumericalDomainError``.
    """
    m = np.asarray(m, dtype=float)
    delta = -m @ k.j @ group_inverse(m, k) @ k.j
    return DeltaYZ(delta=delta, y=y_map(m, k), z=z_map(m, k))


def random_group_element(k, rng, scale=1.0):
    """Connected-component sample e^K with K = Omega h (bosons, h symmetric,
    ||h|| <= scale) or K antisymmetric (fermions)."""
    import scipy.linalg

    n2 = k.dim
    a = rng.standard_normal((n2, n2))
    if k.species is Species.BOSON:
        h = (a + a.T) / 2.0
        h *= scale * rng.uniform(0.1, 1.0) / max(np.linalg.norm(h, 2), 1e-12)
        gen = k.omega @ h
    else:
        gen = (a - a.T) / 2.0
        gen *= scale * rng.uniform(0.1, 1.0) / max(np.linalg.norm(gen, 2), 1e-12)
    return scipy.linalg.expm(gen)
