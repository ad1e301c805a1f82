"""Dense linear-algebra kernel for small Hilbert spaces.

Everything downstream funnels matrix functions through the Hermitian
eigendecomposition here, so unitaries come out exactly unitary (up to
roundoff in the eigensolver) and square roots stay positive
semidefinite by construction.  Dense only; total dimensions in this
package stay small (a few thousand at most).

The checks and matrix functions take one matrix or a ``(..., n, n)``
stack of them.  A stack is checked matrix by matrix in one pass, and a
failure names the first failing matrix by its stack index.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError, NotPSDError
from .tolerances import HERM_TOL, PSD_FLOOR

__all__ = [
    "require_hermitian",
    "hermitian_eig",
    "propagate",
    "sqrtm_psd",
    "first_failure",
    "at_index",
    "dot_rows",
]


def first_failure(ok) -> tuple[int, ...] | None:
    """Index of the first False in ``ok`` (``()`` when ``ok`` is 0-d), or None."""
    ok = np.asarray(ok)
    if ok.all():
        return None
    return tuple(int(i) for i in np.argwhere(~ok)[0])


def at_index(k: tuple[int, ...]) -> str:
    """Where in a stack a check failed: '' for one matrix, else its stack index."""
    if not k:
        return ""
    return f" (stack index {k[0] if len(k) == 1 else k})"


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
        raise NotHermitianError((f"matrix has {len(bad)} non-finite entries, at {bad[:4]}"
                                 if bad else f"matrix deviates from Hermitian by {dev[k]:.3e}")
                                + at_index(k))
    return m


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    m = require_hermitian(m)
    w, v = np.linalg.eigh(m)
    return w, v


def propagate(w: np.ndarray, v: np.ndarray, x0: np.ndarray, times) -> np.ndarray:
    """exp(-i T M) x0 for each T in ``times``, shape ``(len(times),) + x0.shape``.

    ``w, v`` is the ``hermitian_eig`` of M.  ``x0`` is a state vector or a
    column factor X of rho = X X+ (such as ``sqrtm_psd(rho)``).  Exact per
    time point: no scaling-and-squaring, no step accumulation.
    """
    x0 = np.asarray(x0)
    times = np.asarray(times, dtype=float)
    # columns of the factor as rows, so each phase product runs along a
    # contiguous axis exactly as it does for a single vector
    c = np.atleast_2d((v.conj().T @ x0).T)
    y = np.exp(-1j * np.multiply.outer(times, w))[:, None, :] * c
    out = v @ y.swapaxes(1, 2)
    return out.reshape(times.shape + x0.shape)


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix or stack.

    Eigenvalues in (PSD_FLOOR, 0) are clamped to zero; anything below the
    floor, in any matrix of a stack, raises NotPSDError.
    """
    w, v = hermitian_eig(m)
    k = first_failure(w[..., 0] >= PSD_FLOOR)
    if k is not None:
        raise NotPSDError(f"minimum eigenvalue {w[k][0]:.3e} below {PSD_FLOOR:.0e}"
                          + at_index(k))
    scaled = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    # conjugated in place: for a stack, a copy of v would be one more
    # temporary as large as the stack
    return scaled @ np.conjugate(v, out=v).swapaxes(-1, -2)


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a_i b_i over the last axis, one value per row of a stack.

    Each row runs the BLAS dot that ``np.dot`` or ``np.vdot`` (with
    ``a`` conjugated) runs on one pair of vectors, strides included, so
    a stacked measure equals the per-state one bit for bit.  Two vectors
    give a 0-d array.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
