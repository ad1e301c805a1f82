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
    NotPSDError,
    PositivityLostError,
)
from .hamiltonians import Hamiltonian, energy_moments_array
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
    "negativity_curve",
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
    """Which cut and which fidelity target a trajectory records.

    The marginal measures (negativity, purity, mutual information) are
    taken on the state traced down to the cut's labels.  The default
    splits the first two subsystems one against the other and compares
    fidelities against the initial state.
    """

    cut: Bipartition
    target: DensityState | None = None

    @classmethod
    def default_for(cls, layout: SystemLayout) -> "ObserveConfig":
        if len(layout) == 1:
            raise DimensionMismatchError("observation needs at least two subsystems")
        return cls(Bipartition((layout.labels[0],), (layout.labels[1],)))


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


def _marginal(s: DensityState, p: Bipartition) -> DensityState:
    """``s`` traced down to the labels of ``p`` (``s`` itself when p covers it)."""
    if set(p.side_a + p.side_b) == set(s.layout.labels):
        return s
    return partial_trace(s, p.side_a + p.side_b)


def _observe(h: Hamiltonian, s0: DensityState, observe: ObserveConfig,
             times: np.ndarray, states: list[DensityState]) -> Trajectory:
    target = observe.target if observe.target is not None else s0
    cut = observe.cut
    ground = h.ground_energy()
    cols = {name: np.empty(len(times)) for name in TRAJECTORY_COLUMNS}
    cols["T"] = np.asarray(times, dtype=float)
    for k, s in enumerate(states):
        marg = _marginal(s, cut)
        em = energy_moments_array(h.matrix, s.pure_vector if s.is_pure else s.matrix,
                                  ground)
        cols["negativity"][k] = negativity(marg, cut)
        cols["fidelity_to_target"][k] = uhlmann_fidelity(s, target)
        cols["bures_angle_from_initial"][k] = bures_angle(s0, s)
        cols["purity_marginal"][k] = purity(marg)
        cols["mutual_information"][k] = mutual_information(marg, cut)
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


def _stepped_state(layout: SystemLayout, rho: np.ndarray, t: float) -> DensityState:
    """The RK4-stepped ``rho`` at time ``t`` as a state, held to the looser floor."""
    try:
        return DensityState(layout, rho, eig_floor=LINDBLAD_EIG_FLOOR)
    except NotPSDError as e:
        raise PositivityLostError(f"{e} at T={t:.6f}; reduce the step or the rates") from None


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
        states.append(_stepped_state(s0.layout, rho, t))
    return _observe(h, s0, observe, times, states)


def negativity_curve(layout: SystemLayout, cut: Bipartition):
    """Callable ``curve(w, v, x0, times)`` -> N_cut(T) for each T in ``times``.

    ``w, v`` is the ``hermitian_eig`` of M and ``x0`` a state vector or a
    column factor X of rho = X X+ on ``layout``; the state at T is
    exp(-iTM) x0.  The labels, positions and marginal layout of ``cut``
    are resolved once here.  With the kept labels as the rows of Y, the
    marginal tr_rest(X X+) is Y Y+, so no full density matrix is formed;
    the factor is transposed only when the kept labels do not lead.
    """
    kept = sorted(layout.position(lab) for lab in cut.side_a + cut.side_b)
    marg = layout.restricted(cut.side_a + cut.side_b)
    dims, d_keep = marg.dims, marg.dim
    b_pos = [marg.position(lab) for lab in cut.side_b]
    order = None
    if kept != list(range(len(kept))):
        n = len(layout)
        rest = [k for k in range(n) if k not in kept]
        order = [0] + [1 + k for k in kept + rest] + [n + 1]

    def curve(w, v, x0, times) -> np.ndarray:
        x = propagate(w, v, x0, times)
        if order is not None:
            x = x.reshape((len(x),) + layout.dims + (-1,)).transpose(order)
        y = x.reshape(len(x), d_keep, -1)
        return negativity_array(y @ y.conj().swapaxes(1, 2), dims, b_pos)

    return curve


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
    if jumps is None:
        w, v = hermitian_eig(h.matrix)
        n0, n_delta = negativity_curve(s0.layout, p)(w, v, _factor(s0), [0.0, delta])
        return float(n_delta - n0)
    ops = jumps.embedded()
    ops_sq = [q.conj().T @ q for q in ops]
    rho = _rk4_segment(h.matrix, np.array(s0.matrix, dtype=complex), ops, ops_sq, delta)
    s_delta = _stepped_state(s0.layout, rho, delta)
    return negativity(_marginal(s_delta, p), p) - negativity(_marginal(s0, p), p)


def first_max_entanglement_time(h: Hamiltonian, s0: DensityState, p: Bipartition,
                                d: int, horizon: float = 50.0) -> float | None:
    """Time of the first maximal-entanglement peak across ``p``, or None.

    Scans N(T) on a 1e-3 grid, ``PROPAGATE_CHUNK`` points at a time; each
    grid-local maximum that comes within 1e-4 of (d-1)/2 is refined, in
    time order, by golden-section search to 1e-9, and the first refined
    peak clearing (d-1)/2 - 1e-7 is returned.  A coarse threshold test
    alone would not do: near a quadratic peak the window where N sits
    within 1e-7 of maximal is narrower than the scan step.  Returns None
    when no peak attains the level within the horizon (at most 50).
    """
    _check_layouts(h, s0)
    if d < 2:
        raise BadDimensionError(f"need d >= 2, got {d}")
    if not 0 < horizon <= 50.0:
        raise ValueError(f"horizon {horizon} outside (0, 50]")
    strict = (d - 1) / 2.0 - 1e-7
    loose = (d - 1) / 2.0 - 1e-4
    curve = negativity_curve(s0.layout, p)
    w, v = hermitian_eig(h.matrix)
    x0 = _factor(s0)

    def neg(t: float) -> float:
        return float(curve(w, v, x0, [t])[0])

    def peak_at(lo: float, hi: float) -> float | None:
        t_peak = _golden_max(neg, lo, hi, tol=1e-9)
        return t_peak if neg(t_peak) >= strict else None

    step = 1e-3
    n_pts = int(math.floor(horizon / step + 1e-9))
    times = step * np.arange(n_pts + 1)
    values = np.empty(n_pts + 1)
    for lo in range(0, n_pts + 1, PROPAGATE_CHUNK):
        hi = min(lo + PROPAGATE_CHUNK, n_pts + 1)
        values[lo:hi] = curve(w, v, x0, times[lo:hi])
        # completed grid-local peaks: points whose right neighbour is known
        j = np.arange(max(lo - 1, 0), hi - 1)
        at = values[j]
        peaks = (at >= loose) & (at >= values[j + 1]) & (at >= values[np.maximum(j - 1, 0)])
        for k in j[peaks].tolist():
            t_peak = peak_at(max(0.0, (k - 1) * step), min(horizon, (k + 1) * step))
            if t_peak is not None:
                return t_peak
    # the curve may still be rising at the horizon
    if n_pts >= 1 and values[-1] >= loose and values[-1] >= values[-2]:
        return peak_at((n_pts - 1) * step, horizon)
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
