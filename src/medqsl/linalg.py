"""Dense linear-algebra kernel for small Hilbert spaces.

Everything downstream funnels Hermitian matrix functions through the
eigendecomposition here, so unitaries come out exactly unitary (up to
roundoff in the eigensolver) and square roots stay positive
semidefinite by construction; the one non-normal function, the
exponential of a Liouvillian, is ``expm``'s Pade scaling and squaring,
in real arithmetic for a real argument (a Liouvillian written in a real
Hermitian operator basis).
Dense only; total dimensions in this package stay small (a few thousand
at most).

The checks and matrix functions take one matrix or a ``(..., n, n)``
stack of them.  A stack is checked matrix by matrix in one pass, and a
failure names the first failing matrix by its stack index, which the
error keeps as ``index``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotHermitianError, NotPSDError
from .tolerances import HERM_TOL, PSD_FLOOR

__all__ = [
    "require_hermitian",
    "require_psd",
    "hermitian_eig",
    "propagate",
    "expm",
    "expm_plan",
    "kron_stack",
    "sqrtm_psd",
    "first_failure",
    "dot_rows",
]


def first_failure(ok) -> tuple[int, ...] | None:
    """Index of the first False in ``ok`` (``()`` when ``ok`` is 0-d), or None."""
    ok = np.asarray(ok)
    if ok.all():
        return None
    return tuple(int(i) for i in np.argwhere(~ok)[0])


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Return ``m`` as a complex array, raising NotHermitianError beyond ``HERM_TOL``.

    ``m`` is a matrix or a ``(..., n, n)`` stack.  The tolerance is
    absolute on the max entry of ``m - m†``, per matrix; a NaN or infinite
    entry fails too, and the error names where it sits.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    # an infinite entry makes inf - inf here; the error below names it
    with np.errstate(invalid="ignore"):
        dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    k = first_failure(dev <= HERM_TOL)
    if k is not None:
        bad = np.argwhere(~np.isfinite(m[k])).tolist()
        raise NotHermitianError(f"matrix has {len(bad)} non-finite entries, at {bad[:4]}"
                                if bad else f"matrix deviates from Hermitian by {dev[k]:.3e}", k)
    return m


def require_psd(w: np.ndarray, floor: float = PSD_FLOOR) -> np.ndarray:
    """Return ascending spectra ``w``, raising NotPSDError where one starts below ``floor``."""
    k = first_failure(w[..., 0] >= floor)
    if k is not None:
        raise NotPSDError(f"minimum eigenvalue {w[k][0]:.3e} below {floor:.0e}", k)
    return w


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    m = require_hermitian(m)
    w, v = np.linalg.eigh(m)
    return w, v


def propagate(w: np.ndarray, v: np.ndarray, x0: np.ndarray, times) -> np.ndarray:
    """exp(-i T M) x0 for each T in ``times``.

    ``w, v`` is the ascending spectrum and eigenvectors of M, as
    ``Hamiltonian.eig`` keeps them.  ``x0`` is a state vector or a column factor X of
    rho = X X+ (such as ``sqrtm_psd(rho)``), and the result has shape
    ``(len(times),) + x0.shape``.  With a leading instance axis, ``w, v``
    is the ``(B, n)``, ``(B, n, n)`` spectrum of a stack of couplings,
    ``x0`` a ``(B, n)`` or ``(B, n, k)`` stack and ``times`` ``(B, T)``:
    row b of each belongs to instance b, and the result is ``(B, T, n)`` or
    ``(B, T, n, k)``.  Exact per time point: no scaling-and-squaring, no
    step accumulation; each instance is one product of v with the phased
    coefficients of all its times, an ``(n, T k)`` matrix.
    """
    x0 = np.asarray(x0)
    times = np.asarray(times, dtype=float)
    lead, n = w.shape[:-1], w.shape[-1]
    c = v.conj().swapaxes(-1, -2) @ x0.reshape(lead + (n, -1))
    # y[..., j, t, :] = exp(-i T_t w_j) c_j: the phased coefficients, (n, T, k)
    y = np.exp(-1j * (w[..., :, None] * times[..., None, :]))[..., None] * c[..., :, None, :]
    out = (v @ y.reshape(lead + (n, -1))).reshape(y.shape)
    return out.swapaxes(-3, -2).reshape(times.shape + x0.shape[len(lead):])


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix or stack.

    Eigenvalues in (PSD_FLOOR, 0) are clamped to zero; anything below the
    floor, in any matrix of a stack, raises NotPSDError.
    """
    w, v = hermitian_eig(m)
    require_psd(w)
    scaled = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    # conjugated in place: for a stack, a copy of v would be one more
    # temporary as large as the stack
    return scaled @ np.conjugate(v, out=v).swapaxes(-1, -2)


# theta_m, the largest ||A||_1 at which Pade [m/m] of exp(A) is exact to unit
# roundoff in double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
# (2005), Table 2.3)
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068, 13: 5.371920351148152}


def expm_plan(norm: float) -> tuple[int, int]:
    """The Pade degree m and the squarings s that ``expm`` takes at ||a||_1 = ``norm``."""
    if not norm < math.inf:
        raise ValueError(f"matrix exponential of a matrix of 1-norm {norm}")
    m = next((m for m in (3, 5, 7, 9) if norm <= _PADE_THETA[m]), 13)
    return m, max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if m == 13 else 0


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix, by scaling and squaring (Higham 2005).

    ``expm_plan`` picks the lowest Pade degree m whose theta_m bounds
    ||a||_1; above theta_13, a is halved s times to within it, and the
    Pade [13/13] approximant r is squared s times.  The even powers of a
    make V and U = a (odd part), with the numerator's coefficients
    b_j = (2m - j)! / (j! (m - j)!), and r = (V - U)^-1 (V + U) is one solve.
    A real argument stays real: its products and solve are real ones.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, float), copy=False)
    m, s = expm_plan(np.abs(a).sum(axis=0).max())
    a = a * 2.0 ** -s  # exact: a power of two
    b = [math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))
         for j in range(m + 1)]
    powers = [np.eye(len(a)), a @ a]  # I, a^2, a^4, ... a^(m - 1)
    while len(powers) <= m // 2:
        powers.append(powers[-1] @ powers[1])
    u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
    v = sum(b[2 * k] * p for k, p in enumerate(powers))
    # r - I = (V - U)^-1 2U, squared as (I + x)^2 = I + (2x + x^2): apart from I, x
    # keeps the slow directions of a near-identity r to its own roundoff
    x = np.linalg.solve(v - u, 2 * u)
    for _ in range(s):
        x = x @ x + 2 * x
    return x + np.eye(len(x))


def kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes of ``a`` and ``b``, over their broadcast leading axes.

    Each entry is the one product a_ij b_kl that ``np.kron`` forms, so a
    matrix pair gives ``np.kron``'s result bit for bit.
    """
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3],
                                         out.shape[-2] * out.shape[-1]))


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a_i b_i over the last axis, one value per row of a stack.

    Each row runs the BLAS dot that ``np.dot`` or ``np.vdot`` (with
    ``a`` conjugated) runs on one pair of vectors, strides included, so
    a stacked measure equals the per-state one bit for bit.  Two vectors
    give a 0-d array.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
