"""Time evolution and entanglement-timing probes.

Unitary evolution is spectral and exact at every requested time: the
Hamiltonian is diagonalized once and each grid point gets its own
exponential, so there is no step-to-step error accumulation.  The open
system integrator is one fixed-step RK4 loop on the master equation in
effective-Hamiltonian form

    d rho / dT = K rho + (K rho)+ + sum_q Q rho Q+,   K = -iM - sum_q Q+Q / 2

with the jumps applied as one stack, the state re-Hermitized after every
step and an effective step never above 1e-3.  RK4 increments are exactly
traceless, so the trace is conserved to roundoff; positivity is monitored
instead and a dip below -1e-6 aborts with PositivityLostError.
"""

from __future__ import annotations

import functools
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
    purity,
    uhlmann_fidelity,
)
from .tolerances import (
    FIRST_MAX_SLACK, GRID_SLACK, LINDBLAD_EIG_FLOOR, PEAK_SLACK, RATE_DELTA, RATE_DELTA_MIN,
    REFINE_TOL, SUBSTEP_SLACK,
)

__all__ = [
    "TimeGrid",
    "Trajectory",
    "JUMP_KINDS",
    "JumpOperatorSet",
    "evolve_unitary",
    "evolve_lindblad",
    "negativity_curve",
    "entanglement_change_at_zero",
    "first_max_entanglement_time",
    "refine_peak",
    "bisect_crossing",
    "first_crossing",
    "write_csv",
]

MAX_GRID_POINTS = 1e7
# the most memory a trajectory may ask for: one dense complex matrix per
# grid point, checked before the grid or any state is built
MAX_TRAJECTORY_BYTES = 2 ** 31
# grid points per propagate call: bounds the factors held next to the states
PROPAGATE_CHUNK = 256
LINDBLAD_MAX_STEP = 1e-3
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

    def __len__(self) -> int:
        """The number of grid points, without building them."""
        return int(math.floor((self.stop - self.start) / self.step + GRID_SLACK)) + 1

    @property
    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(len(self))


@dataclass
class Trajectory:
    """Evolved states, as the validated chunk stacks, plus the observable columns."""

    times: np.ndarray
    stacks: list[DensityState]
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    @functools.cached_property
    def states(self) -> list[DensityState]:
        """One state per time, views into ``stacks`` built on first read."""
        return [st for stack in self.stacks for st in stack]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def to_csv(self, path) -> None:
        write_csv(path, TRAJECTORY_COLUMNS, [self.columns[n] for n in TRAJECTORY_COLUMNS])


def write_csv(path, names, columns) -> None:
    """Equal-length float ``columns`` under the header ``names``, each value as ``%.17g``."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(names), comments="")


def _clock(d: int) -> np.ndarray:
    """diag(omega^j), omega = exp(2 pi i / d), the quarter turns exact (Z at d = 2)."""
    j = np.arange(d)
    w, quarter = np.exp(2j * np.pi * j / d), 4 * j % d == 0
    w[quarter] = np.array([1, 1j, -1, -1j])[4 * j[quarter] // d]  # exp(i pi) != -1
    return np.diag(w)


# each jump kind and its operator on a d-level subsystem: the clock
# operator (Z at d = 2) and the lowering operator sum_j sqrt(j)|j-1><j|
JUMP_KINDS = {
    "dephasing": _clock,
    "damping": lambda d: np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex),
}


@dataclass(frozen=True)
class JumpOperatorSet:
    """Jump operators, each acting on one labeled subsystem."""

    layout: SystemLayout
    ops: tuple[tuple[str, np.ndarray], ...]

    def embedded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stack of operators Q on the full layout, its adjoints, sum_q Q+Q; built once."""
        if "_embedded" not in self.__dict__:
            q = np.array([embed_operator(self.layout, (lab,), op) for lab, op in self.ops],
                         dtype=complex).reshape((-1,) + 2 * (self.layout.dim,))
            q_adj = q.conj().swapaxes(1, 2)
            object.__setattr__(self, "_embedded", (q, q_adj, (q_adj @ q).sum(axis=0)))
        return self._embedded

    @classmethod
    def local(cls, layout: SystemLayout, kind: str, rate: float,
              labels=None) -> "JumpOperatorSet":
        """sqrt(rate) * ``JUMP_KINDS[kind]`` on each chosen subsystem (all by default)."""
        if kind not in JUMP_KINDS:
            raise ValueError(f"unknown jump type {kind!r}; choices: {tuple(JUMP_KINDS)}")
        if not 0 <= rate < math.inf:
            raise ValueError(f"rate '{rate}' is not a finite non-negative number")
        labels = layout.labels if labels is None else tuple(labels)
        return cls(layout, tuple(
            (lab, math.sqrt(rate) * JUMP_KINDS[kind](layout.dim_of(lab))) for lab in labels))

    @classmethod
    def dephasing(cls, layout, rate=0.1, labels=None) -> "JumpOperatorSet":
        """``local`` with the clock operator diag(omega^j): Z on a qubit."""
        return cls.local(layout, "dephasing", rate, labels)

    @classmethod
    def damping(cls, layout, rate=0.1, labels=None) -> "JumpOperatorSet":
        """``local`` with the lowering operator sum_j sqrt(j)|j-1><j|: |0><1| on a qubit."""
        return cls.local(layout, "damping", rate, labels)


def _check_layouts(h: Hamiltonian, s0: DensityState,
                   jumps: JumpOperatorSet | None = None) -> None:
    for name, other in (("hamiltonian", h), ("jump operators", jumps)):
        if other is not None and other.layout != s0.layout:
            raise LayoutMismatchError(
                f"{name} on {other.layout.labels}, state on {s0.layout.labels}")


def _marginal(s: DensityState, p: Bipartition) -> DensityState:
    """``s`` traced down to the labels of ``p`` (``s`` itself when p covers it)."""
    if set(p.side_a + p.side_b) == set(s.layout.labels):
        return s
    return partial_trace(s, p.side_a + p.side_b)


def _observed(s0: DensityState, grid: TimeGrid, cut: Bipartition | None,
              target: DensityState | None) -> tuple[Bipartition, DensityState]:
    """``cut`` and ``target``, or the defaults that ``evolve_unitary`` documents.

    A trajectory of ``s0`` on ``grid`` above ``MAX_TRAJECTORY_BYTES`` is
    refused first, before anything is allocated.
    """
    need = len(grid) * s0.layout.dim ** 2 * 16
    if need > MAX_TRAJECTORY_BYTES:
        raise ValueError(
            f"a trajectory of {len(grid)} states of dimension {s0.layout.dim} needs "
            f"{need / 2 ** 30:.1f} GiB, above the cap of {MAX_TRAJECTORY_BYTES // 2 ** 30} GiB")
    if cut is None:
        if len(s0.layout) == 1:
            raise DimensionMismatchError("observation needs at least two subsystems")
        cut = Bipartition((s0.layout.labels[0],), (s0.layout.labels[1],))
    return cut, s0 if target is None else target


def _observe(h: Hamiltonian, s0: DensityState, times: np.ndarray, stacks: list[DensityState],
             cut: Bipartition, target: DensityState) -> Trajectory:
    """The trajectory of the validated chunk ``stacks``, one state per time.

    Each stack is measured in one call per measure, so validation, the
    marginals and the eigensolves run once per stack, not once per state.
    """
    parts = {name: [] for name in TRAJECTORY_COLUMNS[1:]}
    for s in stacks:
        marg = _marginal(s, cut)
        em = energy_moments(h, s)
        for name, values in (("negativity", negativity(marg, cut)),
                             ("fidelity_to_target", uhlmann_fidelity(s, target)),
                             ("bures_angle_from_initial", bures_angle(s0, s)),
                             ("purity_marginal", purity(marg)),
                             ("mutual_information", mutual_information(marg, cut)),
                             ("mean_energy", em.mean),
                             ("energy_std", em.std)):
            parts[name].append(values)
    cols = {name: np.concatenate(values) for name, values in parts.items()}
    return Trajectory(times, stacks, {"T": times, **cols})


def _factor(s: DensityState) -> np.ndarray:
    """The pure vector, or sqrt(rho) as a column factor of a mixed state."""
    return s.pure_vector if s.is_pure else sqrtm_psd(s.matrix)


def _from_factors(s0: DensityState, x: np.ndarray) -> DensityState:
    """The stack of states with pure vectors, or column factors, ``x``, as ``_factor(s0)`` is."""
    if s0.is_pure:
        return DensityState.from_pure(s0.layout, x)
    return DensityState(s0.layout, x @ x.conj().swapaxes(1, 2))


def evolve_unitary(h: Hamiltonian, s0: DensityState, grid: TimeGrid, *,
                   cut: Bipartition | None = None,
                   target: DensityState | None = None) -> Trajectory:
    """Closed evolution of ``s0`` (the state at ``grid.start``) under ``h``.

    The marginal columns are taken across ``cut`` (by default the first two
    subsystems, one against the other) and the fidelities against ``target``
    (by default ``s0``).
    """
    _check_layouts(h, s0)
    cut, target = _observed(s0, grid, cut, target)
    w, v = hermitian_eig(h.matrix)
    x0 = _factor(s0)
    times = grid.times
    stacks = [_from_factors(s0, propagate(w, v, x0, times[lo:lo + PROPAGATE_CHUNK] - grid.start))
              for lo in range(0, len(times), PROPAGATE_CHUNK)]
    return _observe(h, s0, times, stacks, cut, target)


def _open_stacks(h: Hamiltonian, s0: DensityState, jumps: JumpOperatorSet,
                 times) -> list[DensityState]:
    """``s0``, the state at ``times[0]``, RK4-stepped to each of ``times``.

    Substeps of at most ``LINDBLAD_MAX_STEP`` on the master equation above,
    each re-Hermitized.  Each stepped state is checked as it is reached, so
    PositivityLostError names the first T that fails; the states come back
    in stacks of up to ``PROPAGATE_CHUNK``.
    """
    q, q_adj, qq = jumps.embedded()
    k_eff = -1j * h.matrix - 0.5 * qq

    def rhs(r: np.ndarray) -> np.ndarray:
        kr = k_eff @ r
        return kr + kr.conj().T + (q @ r @ q_adj).sum(axis=0)

    rhos = np.empty((len(times),) + s0.matrix.shape, dtype=complex)
    rhos[0] = rho = s0.matrix
    for i in range(1, len(times)):
        span = times[i] - times[i - 1]
        n_sub = max(1, int(math.ceil(span / LINDBLAD_MAX_STEP - SUBSTEP_SLACK)))
        dt = span / n_sub
        for _ in range(n_sub):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
        try:
            DensityState(s0.layout, rho, eig_floor=LINDBLAD_EIG_FLOOR)
        except NotPSDError as e:
            raise PositivityLostError(
                f"{e} at T={times[i]:.6f}; reduce the step or the rates") from None
        rhos[i] = rho
    return [DensityState(s0.layout, rhos[lo:lo + PROPAGATE_CHUNK], eig_floor=LINDBLAD_EIG_FLOOR)
            for lo in range(0, len(rhos), PROPAGATE_CHUNK)]


def evolve_lindblad(h: Hamiltonian, s0: DensityState, grid: TimeGrid,
                    jumps: JumpOperatorSet, *, cut: Bipartition | None = None,
                    target: DensityState | None = None) -> Trajectory:
    """Open evolution under ``h`` and the jump operators in ``jumps``.

    ``cut`` and ``target`` are observed as in ``evolve_unitary``.  With an
    empty jump set this agrees with ``evolve_unitary`` up to the
    integrator error of the 1e-3 substeps.
    """
    _check_layouts(h, s0, jumps)
    cut, target = _observed(s0, grid, cut, target)
    times = grid.times
    return _observe(h, s0, times, _open_stacks(h, s0, jumps, times), cut, target)


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
                                delta: float = RATE_DELTA,
                                jumps: JumpOperatorSet | None = None) -> float:
    """N(delta) - N(0) across ``p``, a finite-difference rate probe.

    ``delta`` must lie in [1e-6, 1e-3].  For mediated Hamiltonians and
    product system-mediator inputs this is zero to second order when
    closed, and never positive to first order when jumps are local.
    """
    _check_layouts(h, s0, jumps)
    if not RATE_DELTA_MIN <= delta <= 1e-3:
        raise ValueError(f"delta {delta} outside [{RATE_DELTA_MIN}, 1e-3]")
    if jumps is None:
        w, v = hermitian_eig(h.matrix)
        n0, n_delta = negativity_curve(s0.layout, p)(w, v, _factor(s0), [0.0, delta])
    else:
        [pair] = _open_stacks(h, s0, jumps, [0.0, delta])
        n0, n_delta = negativity(_marginal(pair, p), p)
    return float(n_delta - n0)


def first_max_entanglement_time(h: Hamiltonian, s0: DensityState, p: Bipartition,
                                horizon: float = 50.0) -> float | None:
    """Time of the first maximal-entanglement peak across ``p``, or None.

    Scans N(T) on a 1e-3 grid, ``PROPAGATE_CHUNK`` points at a time, and
    returns the first grid-local maximum within ``PEAK_SLACK`` of (d-1)/2,
    d the smaller total dimension of the cut's sides, that ``refine_peak``
    lifts to within ``FIRST_MAX_SLACK`` of it: near a quadratic peak that
    window is narrower than the scan step.  Returns None when no peak
    attains the level within the horizon (at most 50).
    """
    _check_layouts(h, s0)
    d = min(math.prod(s0.layout.dim_of(lab) for lab in side)
            for side in (p.side_a, p.side_b))
    if d < 2:
        raise BadDimensionError(f"a side of the cut has dimension {d}: need d >= 2")
    if not 0 < horizon <= 50.0:
        raise ValueError(f"horizon {horizon} outside (0, 50]")
    level = (d - 1) / 2.0
    curve = negativity_curve(s0.layout, p)
    w, v = hermitian_eig(h.matrix)
    x0 = _factor(s0)

    def neg(t: float) -> float:
        return float(curve(w, v, x0, [t])[0])

    def peak_at(lo: float, hi: float) -> float | None:
        t_peak, n_peak = refine_peak(neg, lo, hi)
        return t_peak if n_peak >= level - FIRST_MAX_SLACK else None

    times = TimeGrid(0.0, horizon, 1e-3).times
    values = np.empty(len(times))
    for lo in range(0, len(times), PROPAGATE_CHUNK):
        hi = min(lo + PROPAGATE_CHUNK, len(times))
        values[lo:hi] = curve(w, v, x0, times[lo:hi])
        # completed grid-local peaks: points whose right neighbour is known
        for k in _near_peaks(values, np.arange(max(lo - 1, 0), hi - 1), level).tolist():
            t_peak = peak_at(times[max(k - 1, 0)], min(horizon, times[k + 1]))
            if t_peak is not None:
                return t_peak
    # the curve may still be rising at the horizon
    if len(times) > 1 and values[-1] >= level - PEAK_SLACK and values[-1] >= values[-2]:
        return peak_at(times[-2], horizon)
    return None


# scan and refine: f sampled on a grid, then refined between the samples
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def refine_peak(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximum of ``f`` on [lo, hi] to ``REFINE_TOL``: ``(T, f(T))``."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > REFINE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    return t, f(t)


def bisect_crossing(f, lo: float, hi: float, level: float) -> float:
    """Bisect [lo, hi] to ``REFINE_TOL``, given f(hi) >= level > f(lo): the upper end."""
    lo, hi = float(lo), float(hi)
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) >= level:
            hi = mid
        else:
            lo = mid
    return hi


def _near_peaks(values: np.ndarray, j: np.ndarray, level: float) -> np.ndarray:
    """Those ``j`` that are grid-local maxima within ``PEAK_SLACK`` below ``level``."""
    at = values[j]
    return j[(at >= level - PEAK_SLACK) & (at >= values[j + 1])
             & (at >= values[np.maximum(j - 1, 0)])]


def first_crossing(f, times: np.ndarray, values: np.ndarray, level: float) -> float:
    """First T with f(T) >= level, given the samples ``values = f(times)``; nan if never.

    Before the first sample at the level is bisected against the sample
    before it, each interior grid-local peak within ``PEAK_SLACK`` below
    the level goes to ``refine_peak``, so a graze between samples is found.
    """
    above = np.flatnonzero(values >= level)
    first = int(above[0]) if len(above) else len(times)
    for k in _near_peaks(values, np.arange(1, min(first, len(times) - 1)), level).tolist():
        t_peak, n_peak = refine_peak(f, times[k - 1], times[k + 1])
        if n_peak >= level:
            return bisect_crossing(f, times[k - 1], t_peak, level)
    if first == len(times):
        return math.nan
    if first == 0:
        return float(times[0])
    return bisect_crossing(f, times[first - 1], times[first], level)
