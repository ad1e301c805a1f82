"""Time evolution and entanglement-timing probes.

Unitary evolution is spectral and exact at every requested time: the
Hamiltonian is diagonalized once and each grid point gets its own
exponential, so there is no step-to-step error accumulation.  The open
system integrator is a fixed-step RK4 on the master equation

    d rho / dT = -i [M, rho] + sum_q (Q rho Q+ - {Q+Q, rho}/2)

with the state re-Hermitized after every step and an effective step
never above 1e-3.  RK4 increments are exactly traceless, so the trace
is conserved to roundoff; positivity is monitored instead and a dip
below -1e-6 aborts with PositivityLostError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    LayoutMismatchError,
    PositivityLostError,
)
from .hamiltonians import Hamiltonian, energy_moments
from .linalg import hermitian_eig, propagate, sqrtm_psd
from .states import (
    Bipartition,
    DensityState,
    SystemLayout,
    bures_angle,
    embed_operator,
    mutual_information,
    negativity,
    negativity_array,
    partial_trace,
    partial_trace_array,
    purity,
    uhlmann_fidelity,
)

__all__ = [
    "TimeGrid",
    "ObserveConfig",
    "Trajectory",
    "JumpOperatorSet",
    "evolve_unitary",
    "evolve_lindblad",
    "entanglement_change_at_zero",
    "first_max_entanglement_time",
]

MAX_GRID_POINTS = 1e7
# grid points per propagate call: bounds the factors held next to the states
PROPAGATE_CHUNK = 256
LINDBLAD_MAX_STEP = 1e-3
LINDBLAD_EIG_FLOOR = -1e-6
TRAJECTORY_COLUMNS = (
    "T",
    "negativity",
    "fidelity_to_target",
    "bures_angle_from_initial",
    "purity_marginal",
    "mutual_information",
    "mean_energy",
    "energy_std",
)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid start, start+step, ... covering [start, stop].

    The last point is the largest start + k*step that fits below stop
    plus a half-ulp of slack, so a span that is an exact multiple of the
    step includes its endpoint.
    """

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not (self.stop > self.start):
            raise ValueError(f"empty time span [{self.start}, {self.stop}]")
        if not (self.step > 0):
            raise ValueError(f"step must be positive, got {self.step}")
        if (self.stop - self.start) / self.step > MAX_GRID_POINTS:
            raise ValueError("grid would exceed 1e7 points")

    @property
    def times(self) -> np.ndarray:
        span = self.stop - self.start
        n = int(math.floor(span / self.step + 1e-9))
        return self.start + self.step * np.arange(n + 1)


@dataclass(frozen=True)
class ObserveConfig:
    """Which reductions and comparisons a trajectory records.

    Every choice is explicit here; the constructors below only fill the
    conventional defaults (keep the first two subsystems, split them one
    against the other, compare fidelities against the initial state).
    """

    keep: tuple[str, ...]
    cut: Bipartition
    target: DensityState | None = None
    mi_cut: Bipartition | None = None

    @classmethod
    def default_for(cls, layout: SystemLayout) -> "ObserveConfig":
        if len(layout) == 1:
            raise DimensionMismatchError("observation needs at least two subsystems")
        keep = layout.labels[:2]
        cut = Bipartition((keep[0],), (keep[1],))
        return cls(keep=keep, cut=cut)

    def resolved_mi_cut(self) -> Bipartition:
        return self.mi_cut if self.mi_cut is not None else self.cut


@dataclass
class Trajectory:
    """Evolved states plus the observable columns, ready for CSV export."""

    times: np.ndarray
    states: list[DensityState]
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def to_csv(self, path) -> None:
        names = TRAJECTORY_COLUMNS
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for k in range(len(self.times)):
                fh.write(",".join(f"{self.columns[n][k]:.17g}" for n in names) + "\n")


@dataclass(frozen=True)
class JumpOperatorSet:
    """Jump operators, each acting on one labeled subsystem."""

    layout: SystemLayout
    ops: tuple[tuple[str, np.ndarray], ...]

    def embedded(self) -> list[np.ndarray]:
        return [embed_operator(self.layout, (lab,), op) for lab, op in self.ops]

    @classmethod
    def dephasing(cls, layout: SystemLayout, rate: float = 0.1,
                  labels=None) -> "JumpOperatorSet":
        """sqrt(rate) * Z on each chosen qubit (all subsystems by default)."""
        return cls._local_qubit_ops(
            layout, labels, math.sqrt(rate) * np.array([[1, 0], [0, -1]], dtype=complex)
        )

    @classmethod
    def damping(cls, layout: SystemLayout, rate: float = 0.1,
                labels=None) -> "JumpOperatorSet":
        """sqrt(rate) * |0><1| on each chosen qubit (all subsystems by default)."""
        return cls._local_qubit_ops(
            layout, labels, math.sqrt(rate) * np.array([[0, 1], [0, 0]], dtype=complex)
        )

    @classmethod
    def _local_qubit_ops(cls, layout, labels, op) -> "JumpOperatorSet":
        if labels is None:
            labels = layout.labels
        for lab in labels:
            if layout.dim_of(lab) != 2:
                raise BadDimensionError(
                    f"qubit jump operator on {lab!r} with dim {layout.dim_of(lab)}"
                )
        return cls(layout, tuple((lab, op) for lab in labels))


def _check_layouts(h: Hamiltonian, s0: DensityState) -> None:
    if h.layout != s0.layout:
        raise LayoutMismatchError(
            f"hamiltonian on {h.layout.labels}, state on {s0.layout.labels}"
        )


def _observe(h: Hamiltonian, s0: DensityState, observe: ObserveConfig,
             times: np.ndarray, states: list[DensityState]) -> Trajectory:
    target = observe.target if observe.target is not None else s0
    keep_all = set(observe.keep) == set(s0.layout.labels)
    mi_cut = observe.resolved_mi_cut()
    cols = {name: np.empty(len(times)) for name in TRAJECTORY_COLUMNS}
    cols["T"] = np.asarray(times, dtype=float)
    for k, s in enumerate(states):
        marg = s if keep_all else partial_trace(s, observe.keep)
        em = energy_moments(h, s)
        cols["negativity"][k] = negativity(marg, observe.cut)
        cols["fidelity_to_target"][k] = uhlmann_fidelity(s, target)
        cols["bures_angle_from_initial"][k] = bures_angle(s0, s)
        cols["purity_marginal"][k] = purity(marg)
        cols["mutual_information"][k] = mutual_information(marg, mi_cut)
        cols["mean_energy"][k] = em.mean
        cols["energy_std"][k] = em.std
    return Trajectory(times=np.asarray(times, dtype=float), states=states, columns=cols)


def _factor(s: DensityState) -> np.ndarray:
    """The pure vector, or sqrt(rho) as a column factor of a mixed state."""
    return s.pure_vector if s.is_pure else sqrtm_psd(s.matrix)


def evolve_unitary(h: Hamiltonian, s0: DensityState, grid: TimeGrid,
                   observe: ObserveConfig | None = None) -> Trajectory:
    """Closed evolution of ``s0`` (the state at ``grid.start``) under ``h``."""
    _check_layouts(h, s0)
    if observe is None:
        observe = ObserveConfig.default_for(s0.layout)
    w, v = hermitian_eig(h.matrix)
    x0 = _factor(s0)
    times = grid.times
    states = []
    for lo in range(0, len(times), PROPAGATE_CHUNK):
        for x in propagate(w, v, x0, times[lo:lo + PROPAGATE_CHUNK] - grid.start):
            if s0.is_pure:
                states.append(DensityState.from_pure(s0.layout, x))
            else:
                states.append(DensityState(s0.layout, x @ x.conj().T))
    return _observe(h, s0, observe, times, states)


def _lindblad_rhs(m: np.ndarray, rho: np.ndarray, jumps: list[np.ndarray],
                  jump_sq: list[np.ndarray]) -> np.ndarray:
    out = -1j * (m @ rho - rho @ m)
    for q, qq in zip(jumps, jump_sq):
        out += q @ rho @ q.conj().T - 0.5 * (qq @ rho + rho @ qq)
    return out


def _rk4_segment(m, rho, jumps, jump_sq, span: float) -> np.ndarray:
    """Advance ``rho`` by ``span`` with RK4 substeps no larger than 1e-3."""
    n_sub = max(1, int(math.ceil(span / LINDBLAD_MAX_STEP - 1e-12)))
    dt = span / n_sub
    for _ in range(n_sub):
        k1 = _lindblad_rhs(m, rho, jumps, jump_sq)
        k2 = _lindblad_rhs(m, rho + 0.5 * dt * k1, jumps, jump_sq)
        k3 = _lindblad_rhs(m, rho + 0.5 * dt * k2, jumps, jump_sq)
        k4 = _lindblad_rhs(m, rho + dt * k3, jumps, jump_sq)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def evolve_lindblad(h: Hamiltonian, s0: DensityState, grid: TimeGrid,
                    jumps: JumpOperatorSet,
                    observe: ObserveConfig | None = None) -> Trajectory:
    """Open evolution under ``h`` and the jump operators in ``jumps``.

    With an empty jump set this agrees with ``evolve_unitary`` up to the
    integrator error of the 1e-3 substeps.
    """
    _check_layouts(h, s0)
    if jumps.layout != s0.layout:
        raise LayoutMismatchError("jump operators defined on a different layout")
    if observe is None:
        observe = ObserveConfig.default_for(s0.layout)
    ops = jumps.embedded()
    ops_sq = [q.conj().T @ q for q in ops]
    times = grid.times
    states = []
    rho = np.array(s0.matrix, dtype=complex)
    prev_t = grid.start
    for t in times:
        if t > prev_t:
            rho = _rk4_segment(h.matrix, rho, ops, ops_sq, t - prev_t)
            prev_t = t
        wmin = float(np.linalg.eigvalsh(rho)[0])
        if wmin < LINDBLAD_EIG_FLOOR:
            raise PositivityLostError(
                f"eigenvalue {wmin:.3e} at T={t:.6f}; reduce the step or the rates"
            )
        states.append(DensityState(s0.layout, rho, eig_floor=LINDBLAD_EIG_FLOOR))
    return _observe(h, s0, observe, times, states)


def _cut_negativity(layout: SystemLayout, p: Bipartition):
    """Callable rho -> N_p of rho traced down to p's labels, on raw arrays."""
    keep = set(p.side_a) | set(p.side_b)
    keep_pos = sorted(layout.position(lab) for lab in keep)
    marg = layout.restricted(keep)
    b_pos = [marg.position(lab) for lab in p.side_b]

    def neg(rho: np.ndarray) -> float:
        if len(keep_pos) < len(layout):
            rho = partial_trace_array(rho, layout.dims, keep_pos)
        return float(negativity_array(rho, marg.dims, b_pos))

    return neg


def _negativity_probe(h: Hamiltonian, s0: DensityState, p: Bipartition):
    """Callable T -> N_p(T) under unitary evolution, tracing to p's labels."""
    neg = _cut_negativity(s0.layout, p)
    w, v = hermitian_eig(h.matrix)
    x0 = _factor(s0)

    def at(t: float) -> float:
        x = propagate(w, v, x0, [t])[0].reshape(s0.layout.dim, -1)
        return neg(x @ x.conj().T)

    return at


def entanglement_change_at_zero(h: Hamiltonian, s0: DensityState, p: Bipartition,
                                delta: float = 1e-4,
                                jumps: JumpOperatorSet | None = None) -> float:
    """N(delta) - N(0) across ``p``, a finite-difference rate probe.

    ``delta`` must lie in [1e-6, 1e-3].  For mediated Hamiltonians and
    product system-mediator inputs this is zero to second order when
    closed, and never positive to first order when jumps are local.
    """
    _check_layouts(h, s0)
    if not 1e-6 <= delta <= 1e-3:
        raise ValueError(f"delta {delta} outside [1e-6, 1e-3]")
    neg = _cut_negativity(s0.layout, p)
    if jumps is None:
        return _negativity_probe(h, s0, p)(delta) - neg(s0.matrix)
    ops = jumps.embedded()
    ops_sq = [q.conj().T @ q for q in ops]
    rho = _rk4_segment(h.matrix, np.array(s0.matrix, dtype=complex), ops, ops_sq, delta)
    s_delta = DensityState(s0.layout, rho, eig_floor=LINDBLAD_EIG_FLOOR)
    return neg(s_delta.matrix) - neg(s0.matrix)


def first_max_entanglement_time(h: Hamiltonian, s0: DensityState, p: Bipartition,
                                d: int, horizon: float = 50.0) -> float | None:
    """Time of the first maximal-entanglement peak across ``p``, or None.

    Scans N(T) on a 1e-3 grid; each grid-local maximum that comes within
    1e-4 of (d-1)/2 is refined by golden-section search to 1e-9, and the
    first refined peak clearing (d-1)/2 - 1e-7 is returned.  A coarse
    threshold test alone would not do: near a quadratic peak the window
    where N sits within 1e-7 of maximal is narrower than the scan step.
    Returns None when no peak attains the level within the horizon (at
    most 50).
    """
    _check_layouts(h, s0)
    if d < 2:
        raise BadDimensionError(f"need d >= 2, got {d}")
    if not 0 < horizon <= 50.0:
        raise ValueError(f"horizon {horizon} outside (0, 50]")
    strict = (d - 1) / 2.0 - 1e-7
    loose = (d - 1) / 2.0 - 1e-4
    neg = _negativity_probe(h, s0, p)
    step = 1e-3
    n_pts = int(math.floor(horizon / step + 1e-9))
    values = [neg(0.0)]
    for k in range(1, n_pts + 1):
        values.append(neg(k * step))
        # a completed grid-local peak sits at k-1 once the curve turns down
        j = k - 1
        if values[j] >= loose and values[j] >= values[k] and (j == 0 or values[j] >= values[j - 1]):
            lo = max(0.0, (j - 1) * step)
            hi = min(horizon, (j + 1) * step)
            t_peak = _golden_max(neg, lo, hi, tol=1e-9)
            if neg(t_peak) >= strict:
                return t_peak
    # the curve may still be rising at the horizon
    if n_pts >= 1 and values[-1] >= loose and values[-1] >= values[-2]:
        t_peak = _golden_max(neg, (n_pts - 1) * step, horizon, tol=1e-9)
        if neg(t_peak) >= strict:
            return t_peak
    return None


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d_ = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d_)
    while (b - a) > tol:
        if fc >= fd:
            b, d_, fd = d_, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + _INVPHI * (b - a)
            fd = f(d_)
    return 0.5 * (a + b)
