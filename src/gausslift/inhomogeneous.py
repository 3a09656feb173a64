"""Inhomogeneous lifted elements (M, z, Psi) and their exact composition.

The stored phase follows the convention that the measured vacuum phase of the
represented unitary is ``Psi*``.  The displacement subgroup stores the operator
prefactor angle ``theta`` directly, so its embedding into lifted triples is
``(z, theta) -> (I, z, e^{-i theta})``.  Products carry ``zeta_cocycle``;
the inverse needs no cocycle, since <0|U^{-1}|0> = conj <0|U|0>.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .matfunc import _any, _row_order_errors
from .metaplectic import _eta_from_maps, mp_lift
from .phase_space import (
    KahlerStructure,
    Species,
    _check_lifted,
    _shaped,
    delta_y_z,
    group_inverse,
    require_same_reference,
)


@dataclass(frozen=True, eq=False)
class Displacement:
    """Displacement-group element: vector z and prefactor angle theta."""

    z: np.ndarray
    phase: float = 0.0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.ndim != 1 or not np.all(np.isfinite(z)) or not np.isfinite(self.phase):
            raise InputError("displacement needs a finite vector and angle")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True, eq=False)
class LiftedGaussian:
    """Inhomogeneous element (M, z, Psi); |Psi| = 1, M a group element."""

    m: np.ndarray
    z: np.ndarray
    psi: complex
    k: KahlerStructure = field(repr=False)

    def __post_init__(self):
        m, psi = _check_lifted(self.m, self.psi, self.k, "Psi")
        z = _shaped(self.z, (self.k.dim,), "z")
        if not np.isfinite(z).all():
            raise InputError("z must be finite")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "psi", psi)


def ig_identity(k):
    return LiftedGaussian(m=np.eye(k.dim), z=np.zeros(k.dim), psi=1.0 + 0.0j, k=k)


def disp_multiply(d1, d2, k):
    """(z1, t1)(z2, t2) = (z1 + z2, t1 + t2 + omega(z1, z2)/2); bosons only."""
    if k.species is not Species.BOSON:
        raise InputError("fermions admit no displacements")
    phase = d1.phase + d2.phase + 0.5 * k.omega_bilinear(d1.z, d2.z)
    return Displacement(z=d1.z + d2.z, phase=phase)


def displacement_to_gaussian(d, k):
    """Embed a displacement as a lifted triple; Psi = e^{-i theta}.

    The conjugation reflects the measured-phase convention: the operator
    e^{i theta} D(z) has vacuum phase e^{i theta}, and the stored Psi is its
    conjugate.
    """
    if k.species is not Species.BOSON:
        raise InputError("fermions admit no displacements")
    return LiftedGaussian(
        m=np.eye(k.dim), z=d.z, psi=np.exp(-1j * d.phase), k=k
    )


def gamma_phase(m, z, k):
    """Displaced-squeezing phase omega(z, Y_M z) / 4, with Y_M from ``delta_y_z``;
    m is shape-checked for every z, and a zero z forms no map."""
    m = _shaped(m, (k.dim, k.dim), "group element")
    z = _shaped(z, (k.dim,), "z")
    return _gamma(delta_y_z(m, k).y, z, k) if np.any(z) else 0.0


def _gamma(y, z, k):
    """gamma from Y_M and z, or of each pair of two stacks of them."""
    return 0.25 * k.omega_bilinear(z, (y @ z[..., None])[..., 0])


def zeta_cocycle(m1, z1, m2, z2, k):
    """Inhomogeneous cocycle of Result-type composition:

    eta(M1, M2)/2 + gamma(M1, z1) + gamma(M2, z2)
    - gamma(M1 M2, z1 + M1 z2) - omega(z1, M1 z2)/2,

    with eta as in ``cocycle_eta`` (for fermions its Pfaffian root).  One
    ``delta_y_z`` call forms the maps of M1 (Z and Y), M2 (Y, for eta and
    gamma) and, if z1 + M1 z2 is nonzero, M1 M2.  Takes stacks of operands
    (leading axes) and then returns one value per element.
    Unreduced; wrap only in comparisons.
    """
    return _zeta_parts(m1, z1, m2, z2, k)[0]


@_row_order_errors(2, 1, 2, 1, None)
def _zeta_parts(m1, z1, m2, z2, k):
    """(zeta, M1 M2, z1 + M1 z2): ``zeta_cocycle`` with the product it forms."""
    z1 = _shaped(z1, (k.dim,), "z1", stacked=True)
    z2 = _shaped(z2, (k.dim,), "z2", stacked=True)
    m1 = _shaped(m1, (k.dim, k.dim), "group element", stacked=True)
    m2 = _shaped(m2, (k.dim, k.dim), "group element", stacked=True)
    m12 = m1 @ m2
    m1z2 = (m1 @ z2[..., None])[..., 0]
    z12 = z1 + m1z2
    shifted = z12.any(axis=-1)
    stack = m12.shape[:-2]
    if shifted.shape != stack:
        stack = np.broadcast_shapes(stack, shifted.shape)
    # per element the maps of M1, M2 and, if z1 + M1 z2 is nonzero, M1 M2,
    # as one stack in row order; an element with z1 + M1 z2 = 0 takes I in
    # place of M1 M2, which cannot fail
    mats = np.empty(stack + (3 if _any(shifted) else 2, k.dim, k.dim))
    mats[..., 0, :, :] = m1
    mats[..., 1, :, :] = m2
    if _any(shifted):
        mats[..., 2, :, :] = m12
        if _any(~shifted):
            mats[np.broadcast_to(~shifted, stack), 2] = np.eye(k.dim)
    maps = delta_y_z(mats, k)
    y2 = maps.y[..., 1, :, :]
    zeta = 0.5 * _eta_from_maps(maps.z[..., 0, :, :], y2, k)
    zeta += _gamma(maps.y[..., 0, :, :], z1, k) + _gamma(y2, z2, k)
    if _any(shifted):
        zeta -= _gamma(maps.y[..., 2, :, :], z12, k)
    zeta -= 0.5 * k.omega_bilinear(z1, m1z2)
    return zeta, m12, z12


def ig_multiply(a, b):
    """(M1, z1, Psi1)(M2, z2, Psi2) = (M1 M2, z1 + M1 z2, Psi1 Psi2 e^{i zeta})."""
    k = a.k
    require_same_reference(a, b)
    zeta, m12, z12 = _zeta_parts(a.m, a.z, b.m, b.z, k)
    return LiftedGaussian(m=m12, z=z12, psi=a.psi * b.psi * np.exp(1j * zeta), k=k)


def ig_decompose(u):
    """Split U = e^{i theta} D(z) S(M, psi) with psi the principal lift.

    Returns (theta, z, lifted) with e^{i theta} = Psi* psi e^{-i gamma(M, z)}.
    """
    lifted = mp_lift(u.m, u.k, branch=+1)
    gamma = gamma_phase(u.m, u.z, u.k)
    theta = float(np.angle(np.conj(u.psi) * lifted.psi * np.exp(-1j * gamma)))
    return theta, u.z.copy(), lifted


def ig_from_parts(theta, z, lifted):
    """Rebuild the lifted triple from (theta, z, (M, psi))."""
    gamma = gamma_phase(lifted.m, z, lifted.k)
    psi = lifted.psi * np.exp(-1j * (theta + gamma))
    return LiftedGaussian(m=lifted.m, z=np.asarray(z, dtype=float), psi=psi, k=lifted.k)


def ig_inverse(u):
    """Group inverse (M^{-1}, -M^{-1} z, Psi*), since <0|U^{-1}|0> = conj <0|U|0>:
    eta(M, M^{-1}) = 0 and the gamma terms cancel, so no Z map (and no
    invertible C) is needed."""
    minv = group_inverse(u.m, u.k)
    return LiftedGaussian(m=minv, z=-(minv @ u.z), psi=np.conj(u.psi), k=u.k)


__all__ = [
    "Displacement",
    "LiftedGaussian",
    "disp_multiply",
    "displacement_to_gaussian",
    "gamma_phase",
    "ig_decompose",
    "ig_from_parts",
    "ig_identity",
    "ig_inverse",
    "ig_multiply",
    "zeta_cocycle",
]
