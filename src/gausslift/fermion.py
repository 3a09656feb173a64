"""Fermionic addendum: reflection elements, Pin phases, and a 2^N oracle.

The det = -1 component of the orthogonal group is reached through a fixed
reflection M_w; its lifted phase is defined as the phase of the det = +1
remainder M_w M.  The phase of a special-orthogonal M is the vacuum phase of
e^{K-hat}, K the principal logarithm, and a function of M alone: with the
Cayley transform T = (M - I)(M + I)^{-1},

    <0| e^{K-hat} |0> = 2^{-N} tr(e^{K-hat}) Pf(T - i Omega) / Pf(-i Omega),

and tr(e^{K-hat}) = prod_j 2 cos(theta_j / 2) > 0 over K's rotation angles,
so ``pin_component_phase`` returns the phase of Pf(T - i Omega) / Pf(-i Omega),
which is 1 at M = I.  It reaches T through the congruence T - i Omega =
B^T (M - M^T - i (I + M)^T Omega (I + M)) B, B = (I + M)^{-1}, whose bracket has
the Pfaffian det(I + M) Pf(T - i Omega), det(I + M) > 0: no solve, and entries
that stay bounded near pi.  It takes no logarithm and no exponential.  It
refuses a rotation angle within ``SO_CUT_BAND`` of pi, where the principal
logarithm has no unique sign (``SpectrumOnCutError``), and a vanishing
amplitude, where no phase exists (``UnitarilyOrthogonalError``).
The 2^N-dimensional Majorana representation below is the ground truth for the
fermionic circle-function convention (no conjugation: the measured vacuum
phase of e^{K-hat} squares to complex_det(C_{e^K})).
"""

import numpy as np

from .errors import (
    InputError,
    InvalidStructureError,
    NumericalDomainError,
    SpectrumOnCutError,
    UnitarilyOrthogonalError,
)
from .matfunc import _as_square, mat_exp, pfaffian
from .phase_space import GROUP_RESIDUAL_TOL, Species, _count, _shaped, validate_group_element

#: tolerance on the w G w = 2 normalization of a reflection vector
REFLECTION_NORM_TOL = 1e-12

#: max entry deviation of e^K from M accepted from the so_generator logarithm
SO_GENERATOR_TOL = 1e-10

#: so_generator and pin_component_phase refuse a rotation angle within this
#: many radians of pi
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


def _rotation_angles(m):
    """(S, V, sin theta, theta) of a special-orthogonal M: S = (M - M^T)/2 and
    P = (M + M^T)/2 = V diag(cos theta) V^T, with sin theta = |S v| per column
    of V; an angle within ``SO_CUT_BAND`` of pi raises ``SpectrumOnCutError``.
    The one cut check of the orthogonal group."""
    s = (m - m.T) / 2.0
    cos, v = np.linalg.eigh((m + m.T) / 2.0)
    sin = np.linalg.norm(s @ v, axis=0)
    theta = np.arctan2(sin, cos)
    if np.pi - theta.max() < SO_CUT_BAND:
        raise SpectrumOnCutError(f"rotation angle {theta.max():.10g} lies within "
                                 f"{SO_CUT_BAND:g} of pi", eigenvalue=np.exp(1j * theta.max()))
    return s, v, sin, theta


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
    s, v, sin, theta = _rotation_angles(m)
    f = np.divide(theta, sin, out=np.ones(n), where=sin > 0)
    r = (v * np.sqrt(f)) @ v.T
    gen = r @ s @ r
    gen = (gen - gen.T) / 2.0
    if np.max(np.abs(mat_exp(gen) - m)) > SO_GENERATOR_TOL:
        raise NumericalDomainError("special-orthogonal logarithm failed to reproduce M")
    return gen


def pin_component_phase(m, refl, k):
    """Lifted phase of an orthogonal element, both components.

    det = +1: the vacuum phase of e^{K-hat}, K the principal logarithm of M,
    as the phase of Pf(T - i Omega) / Pf(-i Omega), T = (M - I)(M + I)^{-1}
    the Cayley transform, from one Pfaffian of its congruent form (module
    docstring); 1 at M = I.
    det = -1: the phase of M_w M (which has det = +1) relative to the fixed
    reference reflection; the reference choice is part of the answer.
    A rotation angle within ``SO_CUT_BAND`` of pi raises ``SpectrumOnCutError``;
    a squared amplitude 4^{-N} det(I + M) |Pf(T - i Omega)|^2 = |complex_det(C_M)|
    below 1e-12, ``UnitarilyOrthogonalError``.
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
    s, _, _, theta = _rotation_angles(m)
    plus = m + np.eye(k.dim)
    # Pf(a) = det(I + M) Pf(T - i Omega), as (I + M)^T (M - I) = 2S
    a = 2.0 * s - 1j * (plus.T @ k.omega @ plus)
    pf = pfaffian((a - a.T) / 2.0)
    # det(I + M) = prod 2 cos(theta / 2) over P's 2N eigenvalues, each plane twice
    squared = abs(pf) ** 2 / np.prod(4.0 * np.cos(theta / 2.0))
    if squared < 1e-12:
        raise UnitarilyOrthogonalError(
            f"vacuum amplitude of the Pin element vanishes (|det C| = {squared:.3g})")
    # Pf(-i Omega) = (-i)^N (-1)^{N(N-1)/2}: 1 for even N, -i for odd N
    return complex(pf / abs(pf) * (1j if k.n_modes % 2 else 1.0))


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


def _householder_vectors(m):
    """Vectors v_1..v_r with M = H_1 ... H_r, H_v = I - 2 v v^T / (v^T v), for an
    orthogonal M (Cartan-Dieudonné); r is even exactly when det M = +1.

    H_i maps column i of H_{i-1} ... H_1 M to -+e_i, the sign that avoids
    cancellation in v_i; the -1 entries left on the diagonal are the
    reflections along their basis vectors.
    """
    a = np.array(m, dtype=float)
    n = a.shape[0]
    vectors = []
    for i in range(n):
        v = np.zeros(n)
        v[i:] = a[i:, i]
        v[i] += np.copysign(1.0, v[i])
        a -= np.outer(v, (2.0 / (v @ v)) * (v @ a))
        vectors.append(v)
    return vectors + [np.eye(n)[i] for i in np.flatnonzero(np.diag(a) < 0)]


def pin_vacuum_amplitude(m, rep):
    """<0| e^{K-hat} |0> in the 2^N representation ``rep``, K the principal
    logarithm of a special-orthogonal M, from no logarithm.

    M = H_1 ... H_r (r even) in Householder reflections, and the product P of
    the reflection operators ``rep.linear_operator(v_i)``, unit vectors of the
    Clifford algebra, realizes (-H_1) ... (-H_r) = M.  P and e^{K-hat} both
    lie in Spin(2N) over M, so P = +-e^{K-hat}, and tr(e^{K-hat}) =
    prod_j 2 cos(theta_j / 2) > 0 makes the sign that of Re tr P.  A trace
    within its rounding, r 2^N eps, of zero (a half turn) has no sign and
    raises ``SpectrumOnCutError``.
    """
    n2 = 2 * rep.n_modes
    m = _as_square(_shaped(m, (n2, n2), "M"), "M")
    if np.max(np.abs(m @ m.T - np.eye(n2))) > GROUP_RESIDUAL_TOL:
        raise InputError("matrix is not orthogonal")
    vectors = _householder_vectors(m)
    if len(vectors) % 2:
        raise InputError("matrix has det = -1; no special-orthogonal vacuum amplitude")
    prod = np.eye(rep.dim, dtype=complex)
    for v in vectors:
        prod = prod @ rep.linear_operator(v * (np.sqrt(2.0) / np.linalg.norm(v)))
    trace = np.trace(prod).real
    if abs(trace) <= len(vectors) * rep.dim * np.finfo(float).eps:
        raise SpectrumOnCutError("the reflection product has no trace: M has a half turn",
                                 eigenvalue=-1.0)
    return complex(np.vdot(rep.vacuum, prod @ rep.vacuum) * np.sign(trace))
