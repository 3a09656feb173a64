"""Homogeneous double cover: circle function, cocycle, lifts and their product.

Convention, fixed once by the oracle-calibration suite: the circle function is
``phi(M) = complex_det(C_M) / |complex_det(C_M)|`` exactly as written, a lift
stores ``psi`` with ``psi^2 = phi(M)``, and the measured vacuum phase of the
represented operator is ``psi*`` for bosons and ``psi`` for fermions.  The
squared measured phase therefore equals ``phi(M)^(±1)`` with the minus sign
for bosons.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnitarilyOrthogonalError
from .matfunc import complex_det, imag_trace_log, pfaffian
from .phase_space import (
    KahlerStructure,
    Species,
    _check_lifted,
    delta_y_z,
    require_same_reference,
    split_cd,
)

#: tolerance for the psi^2 = phi(M) membership check of a lifted element
LIFT_PHASE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LiftedSymplectic:
    """Double-cover element (M, psi) with psi^2 = phi(M)."""

    m: np.ndarray
    psi: complex
    k: KahlerStructure

    def __post_init__(self):
        m, psi = _check_lifted(self.m, self.psi, self.k, "psi")
        phi = circle_function(m, self.k)
        if abs(psi * psi - phi) > LIFT_PHASE_TOL:
            raise InputError(
                f"psi^2 deviates from the circle phase by {abs(psi * psi - phi):.3g}"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "psi", psi)


def circle_function(m, k):
    """Unit-modulus phase of the holomorphic determinant of C_M."""
    c, _ = split_cd(m, k)
    det = complex_det(c)
    if abs(det) < 1e-12:
        raise UnitarilyOrthogonalError(
            "holomorphic determinant of C_M vanishes (unitarily orthogonal element)"
        )
    phi = det / abs(det)
    if phi.imag == 0.0:
        phi = complex(phi.real, 0.0)  # normalize -0.0 so sqrt(-1) = +i
    return phi


def cocycle_eta(m1, m2, k):
    """Homogeneous cocycle Im Tr-bar log(I - Z_{M1} Z_{M2^{-1}}).

    Bosons: returned unreduced (a sum over modes); reduce mod 2pi only in
    comparisons.  Fermions: the Z maps are unbounded, so eigenvalues of
    I - Z1 Z2 can sit on the negative axis, where principal angles cannot
    tell eta from eta + 2pi.  They come in degenerate pairs, and
    e^{i eta/2} is the phase of the Pfaffian square root of the determinant,
    so eta is returned in (-2pi, 2pi] from that root.  Z_{M1} and
    Y_{M2} = Z_{M2^{-1}} come from ``delta_y_z``, once for a square
    (``m2 is m1``); a singular C of M1 or M2 raises ``NumericalDomainError``.
    The same eta serves both species in ``mp_multiply`` and ``zeta_cocycle``.
    """
    maps1 = delta_y_z(m1, k)
    y2 = maps1.y if m2 is m1 else delta_y_z(m2, k).y
    return _eta_from_maps(maps1.z, y2, k)


def _eta_from_maps(z1, y2, k):
    """eta from Z_{M1} and Y_{M2}, or of each pair of two stacks of them of
    one shape; see ``cocycle_eta``.  The fermionic Pfaffian root is taken per
    element."""
    if k.species is Species.BOSON:
        return imag_trace_log(np.eye(k.dim) - z1 @ y2)
    if z1.ndim > 2:
        return np.array([_eta_from_maps(a, b, k) for a, b in zip(z1, y2)])
    return 2.0 * float(np.angle(_fermion_cocycle_root(z1, y2, k.n_modes)))


def _fermion_cocycle_root(z1, z2, n):
    """Pfaffian square root of det(I - Z1 Z2) for antilinear, antisymmetric Z.

    An antilinear Z acts as v -> a conj(v) on the complex coordinates, with
    a = Z_qq - i Z_qp antisymmetric, so the complexified I - Z1 Z2 is
    I - a1 conj(a2) and its determinant is the square of
    Pf([[a1, I], [-I, -conj(a2)]]), signed to be 1 at Z1 = Z2 = 0.
    """
    a1 = z1[:n, :n] - 1j * z1[:n, n:]
    a2 = np.conj(z2[:n, :n] - 1j * z2[:n, n:])
    eye = np.eye(n)
    vals = np.abs(np.linalg.eigvals(eye - a1 @ a2))
    if np.min(vals) < 1e-13 * max(1.0, np.max(vals)):
        raise UnitarilyOrthogonalError(
            "I - Z1 Z2 is singular: the product is unitarily orthogonal to the identity"
        )
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    return sign * pfaffian(np.block([[a1, eye], [-eye, -a2]]))


def mp_lift(m, k, branch=+1):
    """Lift M to (M, psi) with psi = branch * principal sqrt of phi(M)."""
    if branch not in (+1, -1):
        raise InputError("branch must be +1 or -1")
    phi = circle_function(np.asarray(m, dtype=float), k)
    return LiftedSymplectic(m=m, psi=branch * np.sqrt(phi), k=k)


def mp_multiply(a, b):
    """Double-cover product (M1 M2, psi1 psi2 e^{i eta/2})."""
    require_same_reference(a, b)
    eta = cocycle_eta(a.m, b.m, a.k)
    psi = a.psi * b.psi * np.exp(0.5j * eta)
    return LiftedSymplectic(m=a.m @ b.m, psi=psi, k=a.k)
