"""Matrix special functions used by the phase formulas.

Everything here is pure: principal branches throughout, no state.  Branch
continuity along a path is handled by the generator-lifting layer, never here.

``complex_det`` evaluates the determinant of the holomorphic part of a map
that commutes with the standard complex structure J = ``[[0, I], [-I, 0]]``
of the operand's size: such a map has the block shape ``[[K1, K2], [-K2, K1]]``
and the returned value is ``det(K1 + i K2)``.  No function takes J as an
argument: the library fixes the Kähler structure to the standard one (see
``phase_space.KahlerStructure``).
"""

import numpy as np
import scipy.linalg

from .errors import (
    CommutationError,
    InvalidStructureError,
    MatrixOverflowError,
    SpectrumOnCutError,
)

#: relative tolerance for the [K, J] = 0 check before block extraction
COMMUTATION_RTOL = 1e-8

#: below this norm phi1 switches to its truncated power series
PHI1_SERIES_NORM = 1e-3


def _as_square(a, name):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidStructureError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidStructureError(f"{name} contains non-finite entries")
    return a


def mat_exp(a):
    """Matrix exponential with an explicit overflow check."""
    a = _as_square(a, "mat_exp argument")
    out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out)):
        raise MatrixOverflowError(
            f"matrix exponential overflowed (argument norm {np.linalg.norm(a):.3g})"
        )
    return out


def mat_sqrt_principal(a):
    """Principal square root of a real symmetric positive-definite matrix."""
    a = _as_square(a, "mat_sqrt_principal argument")
    if not (np.isrealobj(a) and np.max(np.abs(a - a.T)) < 1e-12 * max(1.0, np.max(np.abs(a)))):
        raise InvalidStructureError("mat_sqrt_principal argument must be real symmetric")
    w, v = np.linalg.eigh(a)
    if np.min(w) <= 0:
        raise SpectrumOnCutError(
            f"eigenvalue {np.min(w)} lies on the square-root branch cut",
            eigenvalue=np.min(w),
        )
    return (v * np.sqrt(w)) @ v.T


def phi1_entire(k):
    """The entire function (e^K - I) K^{-1}, exact also for singular K.

    Evaluated by the truncated power series sum_j K^j/(j+1)! below
    ``PHI1_SERIES_NORM`` and through the exponential of the augmented block
    matrix [[K, I], [0, 0]] otherwise; both routes avoid forming K^{-1}.
    """
    k = _as_square(k, "phi1_entire argument")
    n = k.shape[0]
    eye = np.eye(n, dtype=k.dtype)
    if np.linalg.norm(k, 2) < PHI1_SERIES_NORM:
        out = eye.copy()
        term = eye.copy()
        for j in range(1, 12):
            term = term @ k / (j + 1)
            out = out + term
            if np.max(np.abs(term)) < 1e-18:
                break
        return out
    aug = np.zeros((2 * n, 2 * n), dtype=np.result_type(k.dtype, float))
    aug[:n, :n] = k
    aug[:n, n:] = eye
    return mat_exp(aug)[:n, n:]


def complexify(k):
    """Holomorphic N x N block K1 + i K2 of a map K commuting with the standard J."""
    k = _as_square(k, "complexify argument")
    if k.shape[0] % 2:
        raise InvalidStructureError(f"odd dimension {k.shape[0]} admits no complex structure")
    n = k.shape[0] // 2
    a, b = k[:n, :n], k[:n, n:]
    c, d = k[n:, :n], k[n:, n:]
    # K J - J K = [[-(B + C), A - D], [A - D, B + C]] and ||J||_F = sqrt(2N)
    resid = np.sqrt(2.0) * np.hypot(np.linalg.norm(b + c), np.linalg.norm(a - d))
    scale = max(1.0, np.linalg.norm(k) * np.sqrt(2.0 * n))
    if resid > COMMUTATION_RTOL * scale:
        raise CommutationError(
            f"operand does not commute with the complex structure (residual {resid:.3g})"
        )
    return a + 1j * b


def complex_det(k):
    """det of the holomorphic block of a map commuting with the standard J."""
    return complex(np.linalg.det(complexify(k)))


def wrap_angle(x):
    """Reduce an angle (or array of angles) to (-pi, pi]."""
    arr = np.asarray(x, dtype=float)
    out = np.mod(arr, 2.0 * np.pi)
    out = np.where(out > np.pi, out - 2.0 * np.pi, out)
    return float(out) if arr.ndim == 0 else out


def imag_trace_log(a):
    """Im of the trace of the principal log of the holomorphic block of ``a``.

    Computed as the sum of principal arguments of the eigenvalues of the
    complexified block, which is the imaginary part of the trace of its
    logarithm, without forming a matrix logarithm.  Unreduced: the result can
    exceed (-pi, pi] when several modes contribute.
    """
    ac = complexify(a)
    vals = np.linalg.eigvals(ac)
    scale = max(1.0, np.max(np.abs(vals)))
    for lam in vals:
        if abs(lam) < 1e-13 * scale or (lam.real < 0 and abs(lam.imag) <= 1e-13 * abs(lam)):
            raise SpectrumOnCutError(
                f"eigenvalue {lam} lies on the logarithm branch cut", eigenvalue=lam
            )
    return float(np.sum(np.angle(vals)))


def pfaffian(a):
    """Pfaffian of a complex antisymmetric matrix by Parlett-Reid reduction.

    Each step pivots the largest entry of the leading column into place (a
    row-and-column swap flips the sign) and eliminates one 2 x 2 block, so
    the square equals ``det(a)`` and the sign is exact, not guessed.
    """
    a = np.array(_as_square(a, "pfaffian argument"), dtype=complex)
    n = a.shape[0]
    if n % 2:
        return 0.0 + 0.0j
    out = 1.0 + 0.0j
    for i in range(0, n - 1, 2):
        piv = i + 1 + int(np.argmax(np.abs(a[i + 1:, i])))
        if piv != i + 1:
            a[[i + 1, piv], :] = a[[piv, i + 1], :]
            a[:, [i + 1, piv]] = a[:, [piv, i + 1]]
            out = -out
        if a[i, i + 1] == 0.0:
            return 0.0 + 0.0j
        out *= a[i, i + 1]
        tau = a[i, i + 2:] / a[i, i + 1]
        col = a[i + 2:, i + 1]
        a[i + 2:, i + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return complex(out)
