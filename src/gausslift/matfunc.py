"""Matrix special functions used by the phase formulas.

Everything here is pure: principal branches throughout, no state.  Branch
continuity along a path is handled by the generator-lifting layer, never here.

``complex_det`` evaluates the determinant of the holomorphic part of a map
that commutes with the standard complex structure J = ``[[0, I], [-I, 0]]``
of the operand's size: such a map has the block shape ``[[K1, K2], [-K2, K1]]``
and the returned value is ``det(K1 + i K2)``.  No function takes J as an
argument: the library fixes the Kähler structure to the standard one (see
``phase_space.KahlerStructure``).

Stacks: ``mat_exp``, ``complexify`` and ``imag_trace_log`` take a stack of
matrices, shape (..., n, n), and return one result per element; a single
matrix is the stack of shape ().  One element's error decides for the stack:
the first one that a loop over the elements in C order would meet
(``_row_order_errors``).
"""

import bisect
import functools

import numpy as np

from .errors import (
    CommutationError,
    GaussLiftError,
    InvalidStructureError,
    MatrixOverflowError,
    SpectrumOnCutError,
)

#: relative tolerance for the [K, J] = 0 check before block extraction
COMMUTATION_RTOL = 1e-8


def _as_square(a, name, stacked=False):
    """``a`` as an array, refused unless it is a finite square matrix, or with
    ``stacked`` a stack of them (leading axes)."""
    a = np.asarray(a)
    if a.ndim < 2 or a.ndim > 2 and not stacked or a.shape[-1] != a.shape[-2]:
        raise InvalidStructureError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidStructureError(f"{name} contains non-finite entries")
    return a


def _scalar(x):
    """A Python scalar from a 0-d result (a stack of shape ()); an array
    result unchanged."""
    return x.item() if x.ndim == 0 else x


def _any(mask):
    """Whether a mask over a stack has a true entry; a single element's mask
    is a numpy scalar, read without a reduction."""
    return bool(mask.any() if mask.ndim else mask)


def _first(mask):
    """Flat index of the first true entry of a mask over a stack (C order)."""
    return int(np.argmax(np.reshape(mask, -1)))


def _first_failure(func, args, cores):
    """(index, error) of the first element of a stack, in C order, on which
    ``func`` raises a library error; None if none does, if the stack is a
    single element (shape ()), which needs no second run, or if the
    arguments' stacks do not broadcast.

    ``cores`` gives each argument's number of element axes (None: the
    argument is not stacked); the stack shape is the broadcast of the other
    axes.  Each element is passed on its own, as a stack of shape ().
    """
    arrays = [a if c is None else np.asarray(a) for a, c in zip(args, cores)]
    try:
        shape = np.broadcast_shapes(*(a.shape[:a.ndim - c] for a, c in zip(arrays, cores)
                                      if c is not None))
    except ValueError:
        return None
    if shape == ():
        return None
    arrays = [a if c is None else np.broadcast_to(a, shape + a.shape[a.ndim - c:])
              for a, c in zip(arrays, cores)]
    for index in np.ndindex(shape):
        try:
            func(*(a if c is None else a[index] for a, c in zip(arrays, cores)))
        except GaussLiftError as exc:
            return index, exc
    return None


def _row_order_errors(*cores):
    """Decorator of a kernel over stacks (``cores`` as in ``_first_failure``).

    The kernel checks the whole stack at once.  If it raises a library error
    on a stack of more than one element, each element is run on its own, in
    C order, and the first error met is raised instead: the error that a
    loop over the elements would raise, with that element's class and
    message.
    """
    def decorate(func):
        @functools.wraps(func)
        def kernel(*args):
            try:
                return func(*args)
            except GaussLiftError as exc:
                error = exc
            found = _first_failure(func, args, cores)
            raise error if found is None else found[1]
        return kernel
    return decorate


#: largest 1-norm served to double precision by the diagonal Padé
#: approximant of degree 3, 5, 7, 9 and 13 (Higham 2005)
_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068e0, 5.371920351148152e0)

#: coefficients b_0..b_13 of the degree-13 approximant
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
        33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def _pade_order(norm):
    """(degree, s) for an argument of 1-norm ``norm``: the index of the
    lowest Padé degree (3, 5, 7, 9, 13) whose bound covers it, else degree 13
    (index 4) on the argument scaled by 2^-s."""
    if norm <= _THETA[3]:
        return bisect.bisect_left(_THETA, norm), 0
    return 4, int(np.ceil(np.log2(norm / _THETA[4]))) if norm > _THETA[4] else 0


def _scaled_pade(x, degree, s):
    """e^x of each element of a stack, all of one ``_pade_order``: the Padé
    approximant r(A) = (V - U)^{-1} (V + U) of A = x / 2^s, squared s times."""
    if s:
        x = x / 2.0**s
    eye = np.eye(x.shape[-1], dtype=x.dtype)
    x2 = x @ x
    if degree == 0:
        u = x @ (x2 + 60.0 * eye)
        v = 12.0 * x2 + 120.0 * eye
    elif degree == 1:
        x4 = x2 @ x2
        u = x @ (x4 + 420.0 * x2 + 15120.0 * eye)
        v = 30.0 * x4 + 3360.0 * x2 + 30240.0 * eye
    elif degree == 2:
        x4 = x2 @ x2
        x6 = x4 @ x2
        u = x @ (x6 + 1512.0 * x4 + 277200.0 * x2 + 8648640.0 * eye)
        v = 56.0 * x6 + 25200.0 * x4 + 1995840.0 * x2 + 17297280.0 * eye
    elif degree == 3:
        x4 = x2 @ x2
        x6 = x4 @ x2
        x8 = x6 @ x2
        u = x @ (x8 + 3960.0 * x6 + 2162160.0 * x4 + 302702400.0 * x2
                 + 8821612800.0 * eye)
        v = (90.0 * x8 + 110880.0 * x6 + 30270240.0 * x4 + 2075673600.0 * x2
             + 17643225600.0 * eye)
    else:
        b = _B13
        x4 = x2 @ x2
        x6 = x4 @ x2
        u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
                 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
        v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
             + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    out = np.linalg.solve(v - u, v + u)
    if s:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                out = out @ out
    return out


@_row_order_errors(2)
def mat_exp(a):
    """Matrix exponential with an explicit overflow check; of each element of
    a stack.

    Scaling and squaring with the diagonal Padé approximant
    r(A) = (V - U)^{-1} (V + U), U odd and V even in A, of degree 3, 5, 7, 9
    or 13 (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179): the lowest
    degree whose bound covers the 1-norm of A, else degree 13 on A / 2^s,
    squared s times.  Each element of a stack gets the degree and s of its
    own 1-norm, so it equals the single call bit for bit; the elements that
    share them are evaluated together, in one pass of matrix products.
    """
    a = _as_square(a, "mat_exp argument", stacked=True)
    x = np.asarray(a, dtype=np.result_type(a.dtype, float))
    norms = np.abs(x).sum(axis=-2).max(axis=-1)  # the 1-norm of each element
    groups = {}
    for i, norm in enumerate(np.reshape(norms, -1).tolist()):
        groups.setdefault(_pade_order(norm), []).append(i)
    if len(groups) == 1:
        out = _scaled_pade(x, *next(iter(groups)))
    else:
        flat = x.reshape((-1,) + x.shape[-2:])
        out = np.empty_like(flat)
        for order, members in groups.items():
            out[members] = _scaled_pade(flat[members], *order)
        out = out.reshape(x.shape)
    if not np.isfinite(out).all():
        overflow = ~np.isfinite(out).all(axis=(-2, -1))
        raise MatrixOverflowError(
            "matrix exponential overflowed "
            f"(argument 1-norm {np.reshape(norms, -1)[_first(overflow)]:.3g})"
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

    The top-right block of the exponential of [[K, I], [0, 0]], so no K^{-1}
    is formed; at K = 0 the argument is nilpotent and its Padé value exact.
    """
    k = _as_square(k, "phi1_entire argument")
    n = k.shape[0]
    aug = np.zeros((2 * n, 2 * n), dtype=np.result_type(k.dtype, float))
    aug[:n, :n] = k
    aug[:n, n:] = np.eye(n)
    return mat_exp(aug)[:n, n:]


def _frobenius(a):
    """Frobenius norm of each element of a stack of matrices."""
    return np.sqrt((a * a).sum(axis=(-2, -1)))


@_row_order_errors(2)
def complexify(k):
    """Holomorphic N x N block K1 + i K2 of a map K commuting with the
    standard J; of each element of a stack."""
    k = _as_square(k, "complexify argument", stacked=True)
    if k.shape[-1] % 2:
        raise InvalidStructureError(f"odd dimension {k.shape[-1]} admits no complex structure")
    n = k.shape[-1] // 2
    a, b = k[..., :n, :n], k[..., :n, n:]
    c, d = k[..., n:, :n], k[..., n:, n:]
    # K J - J K = [[-(B + C), A - D], [A - D, B + C]] and ||J||_F = sqrt(2N);
    # the test is resid > rtol max(1, ||K||_F ||J||_F), and the scale is
    # formed only where resid > rtol
    resid = np.sqrt(2.0) * np.hypot(_frobenius(b + c), _frobenius(a - d))
    failed = resid > COMMUTATION_RTOL
    if _any(failed):
        failed &= resid > COMMUTATION_RTOL * (_frobenius(k) * np.sqrt(2.0 * n))
        if _any(failed):
            raise CommutationError("operand does not commute with the complex structure "
                                   f"(residual {np.reshape(resid, -1)[_first(failed)]:.3g})")
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


@_row_order_errors(2)
def imag_trace_log(a):
    """Im of the trace of the principal log of the holomorphic block of ``a``;
    of each element of a stack.

    Computed as the sum of principal arguments of the eigenvalues of the
    complexified block, which is the imaginary part of the trace of its
    logarithm, without forming a matrix logarithm.  Unreduced: the result can
    exceed (-pi, pi] when several modes contribute.
    """
    vals = np.linalg.eigvals(complexify(a))
    angles = np.angle(vals)
    mods = np.abs(vals)
    # on the cut: an eigenvalue below 1e-13 max(1, |largest|), or one whose
    # angle is within 1e-13 of pi (|Im| <= 1e-13 |lambda| on the negative axis)
    on_cut = ((mods < 1e-13 * np.maximum(1.0, mods.max(axis=-1, keepdims=True)))
              | (np.abs(angles) >= np.pi - 1e-13))
    if _any(on_cut):
        lam = np.reshape(vals, -1)[_first(on_cut)]
        raise SpectrumOnCutError(
            f"eigenvalue {lam} lies on the logarithm branch cut", eigenvalue=lam
        )
    return _scalar(angles.sum(axis=-1))


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
