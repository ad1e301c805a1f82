"""Speed-limit bounds on entangling times.

All times are in units of the dimensionless evolution parameter
T = Omega t.  The unified bound on turning by a Bures angle theta is the
larger of theta / (energy spread) and, for a pure start, alpha(theta) /
(mean energy above ground), alpha(theta) <= theta.  Where the spread is
the smaller moment that is theta / min{mean, spread}: the angle itself
under resource-equality normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import refine_peak
from .errors import BadDimensionError
from .hamiltonians import EnergyMoments, Hamiltonian, energy_moments
from .states import (
    DensityState,
    SystemLayout,
    _single,
    bures_angle,
    uhlmann_fidelity,
)

__all__ = [
    "BoundReport",
    "unified_bound",
    "di_bound",
    "conjecture_bound",
    "smi_bound",
    "swap_stage_fidelity",
]


@dataclass(frozen=True)
class BoundReport:
    """Unified speed limit for one (start, target, Hamiltonian) triple: ``max(mt, ml)``."""

    angle: float
    moments: EnergyMoments
    bound: float
    mt: float
    ml: float | None
    d: int
    reference_bounds: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "angle": self.angle,
            "mean_energy": self.moments.mean,
            "energy_std": self.moments.std,
            "bound": self.bound,
            "mt": self.mt,
            "ml": self.ml,
            "d": self.d,
            "reference_bounds": dict(self.reference_bounds),
        }


def _principal_dim(layout: SystemLayout) -> int:
    # the two parties being entangled are the first two subsystems by convention
    return min(layout.dims[:2])


def _ml_angle(theta: float) -> float:
    """alpha(theta), the least time at mean energy 1 to turn a pure state by theta.

    The minimum over p in [(1 - cos theta)/2, 1/2] of p arccos(1 - sin^2
    theta / (2 p (1 - p))), the two-level extremal problem (Giovannetti,
    Lloyd & Maccone, PRA 67, 052109), searched on log p so that the
    tolerance is relative at the small p of small theta; p = 1/2 gives
    theta, a cap on alpha.
    """
    lo, s2 = math.sin(theta / 2) ** 2, math.sin(theta) ** 2
    if not lo:
        return 0.0

    def neg(u: np.ndarray) -> np.ndarray:
        p = lo ** (1 - float(u[0])) * 0.5 ** float(u[0])
        return np.array([-p * math.acos(max(-1.0, 1 - s2 / (2 * p * (1 - p))))])

    return min(theta, -float(refine_peak(neg, np.zeros(1), np.ones(1))[1][0]))


def unified_bound(s0: DensityState, target: DensityState, h: Hamiltonian) -> BoundReport:
    """Minimal T to reach ``target`` from ``s0`` under the unitary dynamics of ``h``.

    The larger of ``mt`` = theta / std and, for a pure ``s0``, ``ml`` =
    alpha(theta) / mean (None for a mixed one).  Raises DimensionMismatchError for a stack as
    either state, and StationaryStateError, through ``EnergyMoments.scale``, when a moment vanishes.
    """
    _single(s0=s0, target=target)
    theta = bures_angle(s0, target)
    em = energy_moments(h, s0)
    em.scale()
    mt = theta / em.std
    ml = _ml_angle(theta) / em.mean if s0.is_pure else None
    d = _principal_dim(s0.layout)
    refs = {"di": di_bound(d), "conjecture": conjecture_bound(d), "smi": smi_bound(d)}
    return BoundReport(angle=theta, moments=em, bound=mt if ml is None else max(mt, ml),
                       mt=mt, ml=ml, d=d, reference_bounds=refs)


def di_bound(d: int) -> float:
    """arccos(1/sqrt(d)): minimal T for direct maximal entanglement of two qudits."""
    if d < 2:
        raise BadDimensionError(f"need d >= 2, got {d}")
    return math.acos(1.0 / math.sqrt(d))


def conjecture_bound(d: int) -> float:
    """2 arccos(1/sqrt(d)), when the product-state witness reaches maximal A:B entanglement.

    No mediator that starts uncorrelated reaches the level by
    ``di_bound(d)``; this time is the witness's own, not a minimum for
    uncorrelated mediators.
    """
    return 2.0 * di_bound(d)


def smi_bound(d: int) -> float:
    """arccos(1/sqrt(d)) + arccos(1/d): proven two-stage swap-protocol bound."""
    return di_bound(d) + math.acos(1.0 / d)


def swap_stage_fidelity(d: int) -> float:
    """Overlap between the swap protocol's stage boundary states.

    Stage one ends in (maximally entangled A-C) x |0>_B; the target is
    (maximally entangled A-B) x |0>_C.  Their root fidelity is exactly
    1/d, which is what makes the second arccos(1/d) stage unavoidable.
    """
    if d < 2:
        raise BadDimensionError(f"need d >= 2, got {d}")
    layout = SystemLayout((("A", d), ("B", d), ("C", d)))
    # layout order A,B,C: stage one parks |0> on B, the target parks |0> on C
    v1 = sum(DensityState.basis(layout, (j, 0, j)).pure_vector for j in range(d))
    v2 = sum(DensityState.basis(layout, (j, j, 0)).pure_vector for j in range(d))
    return uhlmann_fidelity(DensityState.from_pure(layout, v1), DensityState.from_pure(layout, v2))
