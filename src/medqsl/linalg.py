"""Dense linear-algebra kernel for small Hilbert spaces.

Everything downstream funnels matrix functions through the Hermitian
eigendecomposition here, so unitaries come out exactly unitary (up to
roundoff in the eigensolver) and square roots stay positive
semidefinite by construction.  Dense only; total dimensions in this
package stay small (a few thousand at most).
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
]


def require_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """Return ``m`` as a complex array, raising NotHermitianError beyond ``tol``.

    The tolerance is absolute on the max entry of ``m - m†``; a NaN or
    infinite entry fails too, and the error names where it sits.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max()
    if not dev <= tol:
        bad = np.argwhere(~np.isfinite(m)).tolist()
        raise NotHermitianError(f"matrix has {len(bad)} non-finite entries, at {bad[:4]}"
                                if bad else f"matrix deviates from Hermitian by {dev:.3e}")
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
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in (PSD_FLOOR, 0) are clamped to zero; anything below the
    floor raises NotPSDError.
    """
    w, v = hermitian_eig(m)
    if not w[0] >= PSD_FLOOR:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.3e} below {PSD_FLOOR:.0e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
