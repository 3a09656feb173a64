"""Fermionic addendum: reflection elements, Pin phases, and a 2^N oracle.

The det = -1 component of the orthogonal group is reached through a fixed
reflection M_w; its lifted phase is defined as the phase of the det = +1
remainder M_w M: the vacuum phase of e^{K-hat}, K = ``so_generator(M)`` the principal
logarithm, whose sign is undefined on its half-turn cut (refused within ``SO_CUT_BAND``).
The 2^N-dimensional Majorana representation below is the ground truth for the
fermionic circle-function convention (no conjugation: the measured vacuum
phase of e^{K-hat} squares to complex_det(C_{e^K})).
"""

import numpy as np

from .errors import InputError, InvalidStructureError, NumericalDomainError, SpectrumOnCutError
from .generator import vacuum_phase_tracked
from .matfunc import _as_square, mat_exp
from .phase_space import GROUP_RESIDUAL_TOL, Species, _count, _shaped, validate_group_element

#: tolerance on the w G w = 2 normalization of a reflection vector
REFLECTION_NORM_TOL = 1e-12

#: max entry deviation of e^K from M accepted from the so_generator logarithm
SO_GENERATOR_TOL = 1e-10

#: so_generator refuses a rotation angle within this many radians of pi
SO_CUT_BAND = 1e-6


def _reflection_array(w, dim):
    """``w`` as a float array, refused unless it is a finite vector of length ``dim``."""
    w = _shaped(w, (dim,), "reflection vector")
    if not np.all(np.isfinite(w)):
        raise InputError("reflection vector must be finite")
    return w


def reference_reflection(k):
    """The fixed global reference w: first basis direction scaled to norm sqrt 2."""
    w = np.zeros(k.dim)
    w[0] = np.sqrt(2.0)
    return w


def normalize_reflection(w, k):
    """Rescale the reflection vector w to satisfy w G w = 2."""
    w = _reflection_array(w, k.dim)
    norm = float(w @ k.metric @ w)
    if norm <= 0.0:
        raise InputError("reflection vector must have positive metric norm")
    return w * np.sqrt(2.0 / norm)


def mw_reflection(w, k):
    """Reflection matrix M_w = (G w) w^T - I of a vector w with w G w = 2;
    orthogonal, det = -1, involutive."""
    if k.species is not Species.FERMION:
        raise InputError("reflections belong to the fermionic component")
    w = _reflection_array(w, k.dim)
    if not np.any(w):
        raise InputError("zero vector generates no reflection")
    norm = float(w @ k.metric @ w)
    if abs(norm - 2.0) > REFLECTION_NORM_TOL:
        raise InputError(f"w G w = {norm}, expected 2 (rescale with normalize_reflection)")
    return np.outer(k.metric @ w, w) - np.eye(k.dim)


def so_generator(m):
    """Principal logarithm K (antisymmetric, e^K = M) of a special-orthogonal M.

    P = (M + M^T)/2 = V diag(cos theta) V^T commutes with S = (M - M^T)/2, so K =
    R S R with R = f(P)^(1/2), f = theta / sin theta, theta = arctan2(|S v|, cos theta).
    Splitting f around S keeps its large values near pi off the rounding that couples planes.
    """
    m = _as_square(np.asarray(m, dtype=float), "M")
    n = m.shape[0]
    if not n:
        raise InputError("M must not be empty")
    if np.max(np.abs(m @ m.T - np.eye(n))) > GROUP_RESIDUAL_TOL:
        raise InputError("matrix is not orthogonal")
    if np.linalg.det(m) < 0:
        raise InputError("matrix has det = -1; no special-orthogonal generator")
    s = (m - m.T) / 2.0
    cos, v = np.linalg.eigh((m + m.T) / 2.0)
    sin = np.linalg.norm(s @ v, axis=0)
    theta = np.arctan2(sin, cos)
    if np.pi - theta.max() < SO_CUT_BAND:
        raise SpectrumOnCutError(f"rotation angle {theta.max():.10g} lies within "
                                 f"{SO_CUT_BAND:g} of pi", eigenvalue=np.exp(1j * theta.max()))
    f = np.divide(theta, sin, out=np.ones(n), where=sin > 0)
    r = (v * np.sqrt(f)) @ v.T
    gen = r @ s @ r
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
        n_modes = _count(n_modes, "n_modes")
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
        n2 = 2 * self.n_modes
        h = _shaped(h, (n2, n2), "h")
        if np.max(np.abs(h + h.T)) > 1e-12 * max(1.0, np.max(np.abs(h))):
            raise InputError("fermionic h must be antisymmetric")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a in range(n2):
            for b in range(n2):
                if h[a, b] != 0.0:
                    out += 0.5 * h[a, b] * (self.xi[a] @ self.xi[b])
        return out

    def linear_operator(self, w):
        """w_a xi^a, the reflection operator for a normalized w; w is checked
        as a reflection vector is."""
        w = _reflection_array(w, 2 * self.n_modes)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a, wa in enumerate(w):
            if wa != 0.0:
                out += wa * self.xi[a]
        return out


def build_majorana(n_modes):
    return MajoranaRep(n_modes)


def fermion_vacuum_amplitude(h, rep):
    """<J| e^{K-hat} |J> in the 2^N representation ``rep``, K-hat = h_ab xi^a xi^b / 2."""
    op = mat_exp(rep.quadratic_operator(h))
    return complex(np.vdot(rep.vacuum, op @ rep.vacuum))
