"""Fermionic addendum: reflection elements, Pin phases, and a 2^N oracle.

The det = -1 component of the orthogonal group is reached through a fixed
reflection M_w; its lifted phase is defined as the phase of the det = +1
remainder M_w M.  The 2^N-dimensional Majorana representation below is the
ground truth for the fermionic circle-function convention (no conjugation:
the measured vacuum phase of e^{K-hat} squares to complex_det(C_{e^K})).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, InvalidStructureError, NumericalDomainError
from .generator import vacuum_phase_tracked
from .matfunc import mat_exp
from .phase_space import Species, validate_group_element

#: tolerance on the w G w = 2 normalization of a reflection vector
REFLECTION_NORM_TOL = 1e-12

#: max entry deviation of e^K from M accepted from the so_generator logarithm
SO_GENERATOR_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ReflectionVector:
    """Dual vector w with w G w = 2, generating a det = -1 reflection."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise InputError("reflection vector must be a finite 1-d array")
        object.__setattr__(self, "w", w)


def reference_reflection(k):
    """The fixed global reference: first basis direction scaled to norm sqrt 2."""
    w = np.zeros(k.dim)
    w[0] = np.sqrt(2.0)
    return ReflectionVector(w=w)


def normalize_reflection(w, k):
    """Rescale w to satisfy w G w = 2."""
    w = np.asarray(w, dtype=float)
    norm = float(w @ k.metric @ w)
    if norm <= 0.0:
        raise InputError("reflection vector must have positive metric norm")
    return ReflectionVector(w=w * np.sqrt(2.0 / norm))


def mw_reflection(refl, k):
    """Reflection matrix M_w = (G w) w^T - I; orthogonal, det = -1, involutive."""
    if k.species is not Species.FERMION:
        raise InputError("reflections belong to the fermionic component")
    w = refl.w if isinstance(refl, ReflectionVector) else np.asarray(refl, dtype=float)
    if not np.any(w):
        raise InputError("zero vector generates no reflection")
    norm = float(w @ k.metric @ w)
    if abs(norm - 2.0) > REFLECTION_NORM_TOL:
        raise InputError(f"w G w = {norm}, expected 2 (rescale with normalize_reflection)")
    return np.outer(k.metric @ w, w) - np.eye(k.dim)


def so_generator(m):
    """Antisymmetric K with e^K = M for special-orthogonal M.

    Real Schur reduction: rotation blocks give their angle generators, and the
    (even number of) -1 eigenvalues are paired into half-turn planes.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if np.max(np.abs(m @ m.T - np.eye(n))) > 1e-8:
        raise InputError("matrix is not orthogonal")
    if np.linalg.det(m) < 0:
        raise InputError("matrix has det = -1; no special-orthogonal generator")
    t, q = scipy.linalg.schur(m, output="real")
    k = np.zeros((n, n))
    minus_ones = []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 1e-10:
            theta = np.arctan2(t[i, i + 1], t[i, i])
            k[i, i + 1] = theta
            k[i + 1, i] = -theta
            i += 2
        else:
            if t[i, i] < 0:
                minus_ones.append(i)
            i += 1
    if len(minus_ones) % 2:
        raise NumericalDomainError("odd count of -1 eigenvalues on a det = +1 element")
    for a, b in zip(minus_ones[::2], minus_ones[1::2]):
        k[a, b] = np.pi
        k[b, a] = -np.pi
    gen = q @ k @ q.T
    gen = (gen - gen.T) / 2.0
    if np.max(np.abs(mat_exp(gen) - m)) > SO_GENERATOR_TOL:
        raise NumericalDomainError("special-orthogonal logarithm failed to reproduce M")
    return gen


def pin_component_phase(m, refl, k):
    """Lifted phase of an orthogonal element, both components.

    det = +1: the vacuum phase (``vacuum_phase_tracked``) of its
    special-orthogonal generator.
    det = -1: the phase of M_w M (which has det = +1) relative to the fixed
    reference reflection; the reference choice is part of the answer.
    """
    if k.species is not Species.FERMION:
        raise InputError("Pin phases belong to the fermionic component")
    m = np.asarray(m, dtype=float)
    ok, residual = validate_group_element(m, k)
    if not ok:
        raise InputError(f"matrix is not orthogonal (residual {residual:.3g})")
    det = float(np.linalg.det(m))
    if abs(abs(det) - 1.0) > 1e-8:
        raise NumericalDomainError(f"determinant {det} has no clear sign margin")
    if det < 0:
        m = mw_reflection(refl, k) @ m
    return vacuum_phase_tracked(so_generator(m), k)


class MajoranaRep:
    """Iterated tensor (Jordan-Wigner style) Majorana representation.

    Stores the 2N quadrature matrices with {xi^a, xi^b} = G^{ab} = delta^{ab}
    and the vacuum annihilated by (xi_q + i xi_p)/sqrt(2) per mode.  Validated
    by anticommutator residuals, never trusted by construction.
    """

    def __init__(self, n_modes):
        if not 1 <= n_modes <= 5:
            raise InputError("fermionic oracle supports 1 to 5 modes")
        self.n_modes = n_modes
        self.dim = 2 ** n_modes
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        zpar = np.diag([1.0, -1.0])
        eye2 = np.eye(2)
        cs = []
        for mode in range(n_modes):
            mats = [zpar] * mode + [lower] + [eye2] * (n_modes - mode - 1)
            op = mats[0]
            for mm in mats[1:]:
                op = np.kron(op, mm)
            cs.append(op)
        qs = [(c.conj().T + c) / np.sqrt(2.0) for c in cs]
        ps = [1j * (c.conj().T - c) / np.sqrt(2.0) for c in cs]
        self.xi = [q.astype(complex) for q in qs] + [p.astype(complex) for p in ps]
        self.vacuum = np.zeros(self.dim, dtype=complex)
        self.vacuum[0] = 1.0
        resid = self.anticommutator_residual()
        if resid > 1e-10:
            raise InvalidStructureError(
                f"Majorana construction failed the anticommutator check ({resid:.3g})"
            )

    def anticommutator_residual(self):
        n2 = 2 * self.n_modes
        worst = 0.0
        eye = np.eye(self.dim)
        for a in range(n2):
            for b in range(a, n2):
                anti = self.xi[a] @ self.xi[b] + self.xi[b] @ self.xi[a]
                target = eye if a == b else 0.0
                worst = max(worst, float(np.max(np.abs(anti - target))))
        return worst

    def quadratic_operator(self, h):
        """K-hat = (1/2) h_ab xi^a xi^b for antisymmetric h."""
        h = np.asarray(h, dtype=float)
        n2 = 2 * self.n_modes
        if h.shape != (n2, n2):
            raise InputError(f"h must have shape {(n2, n2)}, got {h.shape}")
        if np.max(np.abs(h + h.T)) > 1e-12 * max(1.0, np.max(np.abs(h))):
            raise InputError("fermionic h must be antisymmetric")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a in range(n2):
            for b in range(n2):
                if h[a, b] != 0.0:
                    out += 0.5 * h[a, b] * (self.xi[a] @ self.xi[b])
        return out

    def linear_operator(self, w):
        """w_a xi^a, the reflection operator for a normalized w."""
        w = np.asarray(w, dtype=float)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a, wa in enumerate(w):
            if wa != 0.0:
                out += wa * self.xi[a]
        return out


def build_majorana(n_modes):
    return MajoranaRep(n_modes)


def fermion_vacuum_amplitude(h, rep=None):
    """<J| e^{K-hat} |J> in the 2^N representation, K-hat = h_ab xi^a xi^b / 2."""
    h = np.asarray(h, dtype=float)
    n_modes = h.shape[0] // 2
    if rep is None:
        rep = build_majorana(n_modes)
    op = mat_exp(rep.quadratic_operator(h))
    return complex(np.vdot(rep.vacuum, op @ rep.vacuum))
