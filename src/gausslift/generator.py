"""Lifting quadratic Hamiltonians (h, f, c) to lifted triples (M, z, Psi).

One engine serves every lift and vacuum phase: scaling and squaring in the
inhomogeneous group.  e^{-iH} is the exponential of a (2N + 2) x (2N + 2)
affine generator X (``_affine_generator``) whose blocks hold theta, z and M;
e^{X/2^s}, close to the identity, is lifted to (M, z, Psi) on its continuous
branch and squared s times with the group law ``ig_multiply``
(``_squared_lift``).  The start needs only ||K / 2^s||_2 < ln 2: then
||C - I||_2 < e^{ln 2} - 1 = 1 along the whole path from the identity, so
the eigenvalues of C stay in the right half-plane and their principal angles
are continuous.  A vacuum phase is the same engine on an X that holds only
K.  Every square e^{X/2^j} (j >= 1) must have an invertible C; where
one does not, a ``NumericalDomainError`` is raised and no branch is guessed.
The closed forms ``vacuum_phase_stable`` (stable bosonic generators) and
``sigma_map`` (spectral radius < 4) are independent cross-checks that share
no code with the lift.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

import numpy as np

from .errors import (
    InputError,
    InvalidStructureError,
    NumericalDomainError,
    SpectrumOnCutError,
)
from .matfunc import _as_square, _scalar, complex_det, imag_trace_log, mat_exp, mat_sqrt_principal
from .metaplectic import cocycle_eta
from .inhomogeneous import LiftedGaussian, gamma_phase, ig_multiply
from .phase_space import Species, _shaped, delta_y_z, split_cd

#: spectral radius below which beta is evaluated (by its odd power series,
#: whose poles sit at 2 pi i k) and beyond which it raises
_BETA_SERIES_RADIUS = 4.0

#: spectral norm of K / 2^s at which scaling and squaring starts its lift;
#: any value below ln 2 keeps the start on its branch (``_squared_lift``)
_SQUARING_NORM = 0.6


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Coefficients (h, f, c) of a general quadratic Hamiltonian.

    h is real symmetric for bosons and real antisymmetric for fermions;
    the linear term f exists for bosons only and is stored as an array,
    zero when not given.
    """

    h: np.ndarray
    f: Optional[np.ndarray] = None
    c: float = 0.0
    species: Species = Species.BOSON

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2:
            raise InputError(f"h must be square with even dimension, got {h.shape}")
        f = np.zeros(h.shape[0]) if self.f is None else _shaped(self.f, (h.shape[0],), "f")
        if self.species is Species.FERMION and np.any(f):
            raise InputError("fermions admit no linear term")
        c = float(self.c)
        if not (np.isfinite(h).all() and np.isfinite(f).all() and np.isfinite(c)):
            raise InputError("h, f and c must be finite")
        scale = max(1.0, np.max(np.abs(h)))
        if self.species is Species.BOSON:
            if np.max(np.abs(h - h.T)) > 1e-12 * scale:
                raise InputError("bosonic h must be symmetric")
        else:
            if np.max(np.abs(h + h.T)) > 1e-12 * scale:
                raise InputError("fermionic h must be antisymmetric")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "c", c)

    def scaled(self, t):
        """Parameters of H t, so that e^{-i (Ht)} = e^{-i H t}."""
        return QuadraticHamiltonian(
            h=self.h * t, f=self.f * t, c=self.c * t, species=self.species
        )


#: terms of the odd beta series; at radius 4 the last is 1e-17 of the first
_BETA_SERIES_TERMS = 48


@functools.cache
def _beta_series_coefficients():
    """Coefficients k B_{2k} / (2k)! of x^(2k-1) in (x - sinh x)/(4(1 - cosh x)).

    Exact in rationals, then rounded once: b_m = B_m / m! solves
    sum_{j <= m} b_j / (m + 1 - j)! = 0 for m >= 1, with b_0 = 1.
    """
    b = [Fraction(1)]
    for m in range(1, 2 * _BETA_SERIES_TERMS + 1):
        b.append(-sum(bj / factorial(m + 1 - j) for j, bj in enumerate(b)))
    return tuple(float(k * b[2 * k]) for k in range(1, _BETA_SERIES_TERMS + 1))


def _beta_function(kmat):
    """(K - sinh K)(I - cosh K)^{-1} / 4 by its odd power series."""
    kmat = np.asarray(kmat, dtype=float)
    rho = np.max(np.abs(np.linalg.eigvals(kmat)))
    if rho >= _BETA_SERIES_RADIUS:
        raise NumericalDomainError(f"beta needs spectral radius below 4, got {rho:.3g}")
    coeffs = _beta_series_coefficients()
    eye = np.eye(kmat.shape[0])
    ksq = kmat @ kmat
    acc = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        acc = c * eye + ksq @ acc
    return kmat @ acc


def _affine_generator(ham, k, t=1.0):
    """X = [[0, b^T Omega^{-1} / 2, -c t], [0, K, b], [0, 0, 0]] of e^{-iHt},
    with K = Omega (h t) and b = Omega (f t), scaled as by ``ham.scaled(t)``,
    whose blocks they equal bit for bit; a stack of them, one per time, for
    an array of times."""
    t = np.asarray(t, dtype=float)
    n2 = k.dim
    b = (ham.f * t[..., None]) @ k.omega.T
    x = np.zeros(t.shape + (n2 + 2, n2 + 2))
    x[..., 0, 1:-1] = 0.5 * b @ k.omega_inv
    x[..., 0, -1] = -(ham.c * t)
    x[..., 1:-1, 1:-1] = k.omega @ (ham.h * t[..., None, None])
    x[..., 1:-1, -1] = b
    return x


def _affine_exp(ham, k, t=1.0):
    """(theta, z, M) with e^{-iHt} = e^{i theta} D(z) S(M), from one exponential.

    The law (theta1 + theta2 + omega(z1, M1 z2)/2, z1 + M1 z2, M1 M2) is the
    product of the matrices [[1, z^T Omega^{-1} M / 2, theta], [0, M, z],
    [0, 0, 1]], and e^{-iHt} is the exponential of ``_affine_generator``.
    The blocks of e^X are entire in K, so singular h needs no special case.
    An array of times gives stacks of (theta, z, M), one element per time,
    from one stacked ``mat_exp``.
    """
    e = mat_exp(_affine_generator(ham, k, t))
    return _scalar(e[..., 0, -1]), e[..., 1:-1, -1], e[..., 1:-1, 1:-1]


def z_from_hf(h, f, k):
    """Displacement of e^{-iH}, the z block of ``_affine_exp``.

    Equals Omega phi1(-K)^T f with K = Omega h, and the
    f (e^{-Omega h} - I) h^{-1} contraction whenever h is invertible.
    """
    return _affine_exp(QuadraticHamiltonian(h=h, f=f), k)[1]


def sigma_map(kgen, k):
    """Closed form Y_{e^K} + 4 beta(K) of the lift's phase kernel; spectral radius < 4."""
    kgen = np.asarray(kgen, dtype=float)
    return delta_y_z(mat_exp(kgen), k).y + 4.0 * _beta_function(kgen)


def _squared_lift(x, k):
    """Lift (M, z, Psi) of e^X, X an affine generator as ``_affine_generator``
    builds it: the lift of e^{X/2^s} squared s times with ``ig_multiply``.

    s >= 0 is the least with ||K / 2^s||_2 <= nu = ``_SQUARING_NORM``, K the
    middle block of X.  The blocks (theta, z, M) of e^{X/2^s} give Psi = psi
    e^{-i(theta + gamma(M, z))}, with psi = e^{(i/2) Im Tr log C} (the sum of
    principal eigenvalue angles, right for any N, unlike the principal root
    of det C).  That psi is the branch continuous from the identity because
    nu < ln 2: C - I = ((M - I) - J (M - I) J) / 2 and J is orthogonal, so
    along M(t) = e^{tK/2^s}, t in [0, 1], ||C(t) - I||_2 <= ||M(t) - I||_2
    <= e^nu - 1 < 1.  Every eigenvalue of C(t) then has real part above
    2 - e^nu (0.18 at nu = 0.6), so no principal angle crosses the cut and
    their sum is continuous from 0 at t = 0.
    Every square e^{X/2^j} (j >= 1) needs an invertible C, because the
    cocycle reads its Z map; otherwise a ``NumericalDomainError`` is raised
    and no branch is guessed.
    """
    norm = np.linalg.norm(x[1:-1, 1:-1], 2)
    s = int(np.ceil(np.log2(norm / _SQUARING_NORM))) if norm > _SQUARING_NORM else 0
    e = mat_exp(x / 2.0 ** s)
    theta, z, m = e[0, -1], e[1:-1, -1], e[1:-1, 1:-1]
    angle = 0.5 * imag_trace_log(split_cd(m, k)[0]) - theta - gamma_phase(m, z, k)
    lifted = LiftedGaussian(m=m, z=z, psi=np.exp(1j * angle), k=k)
    for _ in range(s):
        lifted = ig_multiply(lifted, lifted)
    return lifted


def vacuum_phase_tracked(kgen, k):
    """Measured vacuum phase of e^{K-hat} by scaling and squaring (``_squared_lift``).

    The lift of e^K from ``_squared_lift`` (of X with K as its only block)
    gives Psi* for bosons and Psi for fermions.  The name says which phase
    this is: the one that continuous tracking along t -> e^{tK} from +1 at
    t = 0 defines, which squaring reaches exactly without a grid.
    """
    kgen = _as_square(_shaped(kgen, (k.dim, k.dim), "generator"), "generator")
    if not kgen.any():
        return 1.0 + 0.0j
    lifted = _squared_lift(np.pad(kgen, 1), k)
    return complex(np.conj(lifted.psi) if k.species is Species.BOSON else lifted.psi)


def vacuum_phase_stable(kgen, k):
    """Closed-form measured phase for diagonalizable, purely imaginary spectrum.

    Builds the adapted complex structure from K by normalizing its eigenvalues
    to +-i (flipping signs where needed to keep -J~ Omega positive definite),
    then evaluates Tr(K J~)/4 + eta(T^{-1} e^K, T)/2 with T = sqrt(-J~ J).
    """
    if k.species is not Species.BOSON:
        raise InputError("the stable closed form is implemented for bosons")
    kgen = _as_square(_shaped(kgen, (k.dim, k.dim), "generator"), "generator")
    vals, vecs = np.linalg.eig(kgen)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        raise SpectrumOnCutError("zero generator: |K|^{-1} undefined", eigenvalue=0.0)
    if np.max(np.abs(vals.real)) > 1e-9 * scale:
        raise SpectrumOnCutError(
            "spectrum is not purely imaginary", eigenvalue=vals[np.argmax(np.abs(vals.real))]
        )
    if np.min(np.abs(vals)) < 1e-12 * scale:
        raise SpectrumOnCutError("zero eigenvalue: |K|^{-1} undefined", eigenvalue=0.0)
    if np.linalg.cond(vecs) > 1e10:
        raise NumericalDomainError("generator is too close to non-diagonalizable")
    vinv = np.linalg.inv(vecs)
    plus = [i for i in range(len(vals)) if vals[i].imag > 0]
    contributions = []
    for idx in plus:
        contributions.append(2.0 * np.real(1j * np.outer(vecs[:, idx], vinv[idx, :])))
    signs = [1.0] * len(plus)
    jtilde = sum(s * c for s, c in zip(signs, contributions))
    form = -(jtilde @ k.omega)
    for p, idx in enumerate(plus):
        x = np.real(vecs[:, idx])
        y = np.imag(vecs[:, idx])
        block = np.array([[x @ form @ x, x @ form @ y], [y @ form @ x, y @ form @ y]])
        if np.min(np.linalg.eigvalsh((block + block.T) / 2)) <= 0:
            signs[p] = -1.0
    jtilde = sum(s * c for s, c in zip(signs, contributions))
    eye = np.eye(k.dim)
    if np.max(np.abs(jtilde @ jtilde + eye)) > 1e-8:
        raise InvalidStructureError("adapted structure fails J~^2 = -I")
    if np.max(np.abs(jtilde @ k.omega @ jtilde.T - k.omega)) > 1e-8:
        raise InvalidStructureError("adapted structure is not symplectic-compatible")
    # -J~ Omega = -J~ J at the standard structure; T is the root of its symmetric part
    form = -(jtilde @ k.omega)
    form = (form + form.T) / 2
    if np.min(np.linalg.eigvalsh(form)) <= 0:
        raise InvalidStructureError("-J~ Omega is not positive definite after sign fixing")
    t_map = mat_sqrt_principal(form)
    m = mat_exp(kgen)
    t_inv = np.linalg.inv(t_map)
    # Both cocycle corrections of the change of reference structure are needed
    # for cross-method equivalence with the tracked phase; the second vanishes
    # whenever T already commutes the evolution into a passive one.
    arg = 0.25 * np.trace(kgen @ jtilde)
    arg += 0.5 * cocycle_eta(t_inv, m, k)
    arg += 0.5 * cocycle_eta(t_inv @ m, t_map, k)
    return complex(np.exp(1j * arg))


def lift_from_gqh(ham, k):
    """Lift e^{-iH} for a bosonic H = (h, f, c) to its triple (M, z, Psi)."""
    if ham.species is not Species.BOSON or k.species is not Species.BOSON:
        raise InputError("generator lifting covers bosons")
    _shaped(ham.h, (k.dim, k.dim), "h")
    return _squared_lift(_affine_generator(ham, k), k)


def gqh_overlap_analytic(ham, k):
    """Full complex <0| e^{-iH} |0>: measured phase times closed-form modulus.

    The phase is Psi* of ``lift_from_gqh``, the modulus
    sqrt(e^{-z g (I + Y_M) z / 2} / |complex_det(C_M)|); a zero z forms no
    Y_M.
    """
    u = lift_from_gqh(ham, k)
    zq = 0.0
    if np.any(u.z):
        zq = 0.5 * u.z @ k.metric_inv @ (u.z + delta_y_z(u.m, k).y @ u.z)
    modulus = np.sqrt(np.exp(-zq) / abs(complex_det(split_cd(u.m, k)[0])))
    return modulus * np.conj(u.psi)
