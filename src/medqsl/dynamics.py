"""Time evolution and entanglement-timing probes.

Unitary evolution is spectral and exact at every requested time: the
Hamiltonian is diagonalized once and each grid point gets its own
exponential, so there is no step-to-step error accumulation.  The open
system integrator is one fixed-step loop on the master equation

    d rho / dT = L rho = K rho + (K rho)+ + sum_q Q rho Q+,   K = -iM - sum_q Q+Q / 2

whose substeps, never above 1e-3, are the RK4 map of L in Horner form
(each L two products, or each substep one product with its n^2 x n^2 map
when n is small), re-Hermitized.  RK4 increments are exactly traceless,
so the trace is conserved to roundoff; each chunk of stepped states is
checked as one stack, and the first state with an eigenvalue below -1e-6,
a trace drift or a non-finite entry aborts with PositivityLostError.
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
    PositivityLostError,
    StackCheckError,
)
from .hamiltonians import Hamiltonian, energy_moments
from .linalg import propagate, sqrtm_psd
from .states import (
    Bipartition,
    DensityState,
    SystemLayout,
    _acos,
    embed_operator,
    mutual_information,
    negativity,
    negativity_array,
    partial_trace,
    purity,
    uhlmann_fidelity,
)
from .tolerances import (
    FIRST_MAX_SLACK, GRID_SLACK, LINDBLAD_EIG_FLOOR, PEAK_SLACK, RATE_DELTA, REFINE_TOL,
    SUBSTEP_SLACK,
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
# the most memory a trajectory may ask for, counted as what a returned
# Trajectory keeps per grid point: a dense complex matrix, a complex pure
# vector or float spectrum (16 n bytes at most) and a float per column,
# checked before the grid or any state is built
MAX_TRAJECTORY_BYTES = 2 ** 31
# grid points per propagate call: bounds the factors held next to the states
PROPAGATE_CHUNK = 256
LINDBLAD_MAX_STEP = 1e-3
LIOUVILLE_MAX_BYTES = 2 ** 20  # cap on the open stepper's n^2 x n^2 substep map: n <= 16
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
    """Equal-length float ``columns`` under the header ``names``, each value as ``%.17g``.

    The whole table is formatted by one ``%`` on the row format repeated.
    """
    table = np.column_stack(columns)
    fmt = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(fmt * len(table) % tuple(table.ravel().tolist()))


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

    @functools.cached_property
    def embedded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stack of operators Q on the full layout, its adjoints, sum_q Q+Q; built once."""
        q = np.array([embed_operator(self.layout, (lab,), op) for lab, op in self.ops],
                     dtype=complex).reshape((-1,) + 2 * (self.layout.dim,))
        q_adj = q.conj().swapaxes(1, 2)
        return q, q_adj, (q_adj @ q).sum(axis=0)

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

    Refused before anything is allocated or propagated: a trajectory of
    ``s0`` on ``grid`` above ``MAX_TRAJECTORY_BYTES``, a cut with a label
    that ``s0.layout`` lacks, and a target on another layout.
    """
    n = s0.layout.dim
    need = len(grid) * (16 * n * n + 16 * n + 8 * len(TRAJECTORY_COLUMNS))
    if need > MAX_TRAJECTORY_BYTES:
        raise ValueError(
            f"a trajectory of {len(grid)} states of dimension {n} needs "
            f"{need / 2 ** 30:.1f} GiB, above the cap of {MAX_TRAJECTORY_BYTES // 2 ** 30} GiB")
    if cut is None:
        if len(s0.layout) == 1:
            raise DimensionMismatchError("observation needs at least two subsystems")
        cut = Bipartition((s0.layout.labels[0],), (s0.layout.labels[1],))
    s0.layout.positions(cut.side_a + cut.side_b)
    if target is not None and target.layout != s0.layout:
        raise LayoutMismatchError(
            f"target on {target.layout.subsystems}, state on {s0.layout.subsystems}")
    return cut, s0 if target is None else target


def _observe(h: Hamiltonian, s0: DensityState, times: np.ndarray, stacks: list[DensityState],
             cut: Bipartition, target: DensityState) -> Trajectory:
    """The trajectory of the validated chunk ``stacks``, one state per time.

    Each stack is measured in one call per measure, so validation, the
    marginals and the eigensolves run once per stack, not once per state.
    The fidelities put the single state first, so only its root is taken,
    and F(s0, s) serves both columns when ``target`` is ``s0``.  The first
    state is ``s0`` by definition, so its F(s0, s) is 1 and its Bures angle
    0 exactly, where the computed root fidelity may miss 1 by roundoff.
    """
    parts = {name: [] for name in TRAJECTORY_COLUMNS[1:]}
    for j, s in enumerate(stacks):
        marg = _marginal(s, cut)
        em = energy_moments(h, s)
        f0 = uhlmann_fidelity(s0, s)
        if j == 0:
            f0[0] = 1.0
        for name, values in (("negativity", negativity(marg, cut)),
                             ("fidelity_to_target",
                              f0 if target is s0 else uhlmann_fidelity(target, s)),
                             ("bures_angle_from_initial", _acos(f0)),
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
    x0 = _factor(s0)
    times = grid.times
    stacks = [_from_factors(s0, propagate(*h.eig, x0, times[lo:lo + PROPAGATE_CHUNK] - grid.start))
              for lo in range(0, len(times), PROPAGATE_CHUNK)]
    return _observe(h, s0, times, stacks, cut, target)


def _generator(h: Hamiltonian, jumps: JumpOperatorSet):
    """L as both substep forms build it: K = -iM - sum_q Q+Q / 2 and the jump stack Q."""
    q, _, qq = jumps.embedded
    return -1j * h.matrix - 0.5 * qq, q


def _factor_form(k, q):
    """``step(rho, dt, n_sub)``: n_sub RK4 substeps of dt, each c L(r) two products.

    P = c [K; Q_1; ...] r, the factors' rows interleaved, reads as P_0 = c K r beside
    [P_1 ...], and c L(r) = P_0 + P_0+ + [P_1 ...] [Q_1+; ...], c folded into the factors.
    """
    n, m = len(k), len(q)
    factors = np.concatenate([k[:, None], q.swapaxes(0, 1)], axis=1).reshape(n * (m + 1), n)
    q_adj = q.conj().swapaxes(1, 2).reshape(m * n, n)
    p = np.empty((n, m + 1, n), dtype=complex)
    p_flat, p_k, p_q = p.reshape(-1, n), p[:, 0], p[:, 1:].reshape(n, m * n)

    def step(rho, dt, n_sub):
        stages = [(dt / j) * factors for j in (4, 3, 2, 1)]
        for _ in range(n_sub):
            y = rho
            for scaled in stages:
                np.matmul(scaled, y, out=p_flat)
                y = p_q @ q_adj
                y += rho
                y += p_k
                y += p_k.conj().T
            rho = y + y.conj().T
            rho *= 0.5
        return rho
    return step


def _liouville_form(k, q):
    """``step(rho, dt, n_sub)``: the same substeps, each one product with an n^2 x n^2 map.

    On row-major vec(rho), L = K (x) I + I (x) conj K + sum_q Q (x) conj Q, and
    P = I + dt L(I + dt/2 L(I + dt/3 L(I + dt/4 L))) is formed once per dt.
    """
    n = len(k)
    gen = (np.kron(k, np.eye(n)) + np.kron(np.eye(n), k.conj())
           + np.einsum("qij,qkl->ikjl", q, q.conj()).reshape(n * n, n * n))
    maps = {}

    def step(rho, dt, n_sub):
        if dt not in maps:
            a = (dt / 4) * gen  # P - I, in Horner form
            for j in (3, 2, 1):
                a = (dt / j) * (gen + gen @ a)
            maps[dt] = 0.5 * (np.eye(n * n) + a)  # halving is exact: y + y+ re-Hermitizes
        p = maps[dt]
        for _ in range(n_sub):
            y = (p @ rho.reshape(-1)).reshape(n, n)
            rho = y + y.conj().T
        return rho
    return step


def _open_stacks(h: Hamiltonian, s0: DensityState, jumps: JumpOperatorSet,
                 times) -> list[DensityState]:
    """``s0``, the state at ``times[0]``, stepped to each of ``times``.

    Substeps of at most ``LINDBLAD_MAX_STEP``, each re-Hermitized, are the
    RK4 map of L above, for a linear, time-independent L its degree-4
    Taylor map rho + dt L(rho + dt/2 L(rho + dt/3 L(rho + dt/4 L rho))).
    This rule alone picks the form, both built from ``_generator``:
    ``_liouville_form`` when its map fits in ``LIOUVILLE_MAX_BYTES`` (n <= 16)
    and the run takes at least n^2 substeps per map it forms, else
    ``_factor_form``.  Up to ``PROPAGATE_CHUNK`` states are stepped,
    overflow ignored, into one buffer, which ``DensityState`` copies as it
    checks them as one stack: PositivityLostError names the T of the first
    state that fails any check, non-finite entries and trace drift included.
    """
    spans = np.diff(np.asarray(times, dtype=float))
    n_subs = np.maximum(1, np.ceil(spans / LINDBLAD_MAX_STEP - SUBSTEP_SLACK)).astype(int)
    dts = (spans / n_subs).tolist()
    n = s0.layout.dim
    liouville = 16 * n ** 4 <= LIOUVILLE_MAX_BYTES and n_subs.sum() >= n * n * len(set(dts))
    step = (_liouville_form if liouville else _factor_form)(*_generator(h, jumps))
    chunk = np.empty((min(len(times), PROPAGATE_CHUNK), n, n), dtype=complex)
    stacks, rho = [], s0.matrix
    for lo in range(0, len(times), PROPAGATE_CHUNK):
        hi = min(lo + PROPAGATE_CHUNK, len(times))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(lo, hi):
                if i:
                    rho = step(rho, dts[i - 1], n_subs[i - 1])
                chunk[i - lo] = rho
                if not np.isfinite(rho).all():  # it stays non-finite: check the chunk now
                    hi = i + 1
                    break
        try:
            stacks.append(DensityState(s0.layout, chunk[:hi - lo], eig_floor=LINDBLAD_EIG_FLOOR))
        except StackCheckError as e:
            raise PositivityLostError(f"{e.message} at T={times[lo + e.index[0]]:.6f}; "
                                      "reduce the step or the rates") from None
    return stacks


def evolve_lindblad(h: Hamiltonian, s0: DensityState, grid: TimeGrid,
                    jumps: JumpOperatorSet, *, cut: Bipartition | None = None,
                    target: DensityState | None = None) -> Trajectory:
    """Open evolution under ``h`` and the jump operators in ``jumps``.

    ``cut`` and ``target`` are observed as in ``evolve_unitary``.  Each
    substep of at most 1e-3 is the RK4 map of the generator, taken as its
    Horner-form Taylor map of degree 4, in the form ``_open_stacks`` picks.
    With an empty jump set this agrees with ``evolve_unitary`` up to the
    integrator error of the 1e-3 substeps.
    """
    _check_layouts(h, s0, jumps)
    cut, target = _observed(s0, grid, cut, target)
    times = grid.times
    return _observe(h, s0, times, _open_stacks(h, s0, jumps, times), cut, target)


@functools.cache
def _cut_plan(layout: SystemLayout, cut: Bipartition):
    """The marginal dims and dim of ``cut`` on ``layout``, side B's positions in it,
    and the axes of a ``(T, *layout.dims, k)`` stack that bring the kept labels first,
    in layout order; all from ``SystemLayout``'s label resolvers.  When the kept
    labels lead already, the transpose is the identity: a view, no data moves."""
    marg = layout.restricted(cut.side_a + cut.side_b)
    axes = (0, *(1 + k for k in layout.axes_first(marg.labels)), len(layout) + 1)
    return marg.dims, marg.dim, marg.positions(cut.side_b), axes


def negativity_curve(h: Hamiltonian, x0, times, cut: Bipartition) -> np.ndarray:
    """N across ``cut`` of exp(-iTM) x0 for each T in ``times``.

    ``h`` is a ``Hamiltonian`` M, propagated through its kept ``h.eig``, and
    ``x0`` a state vector or a column factor X of rho = X X+.  A stack of B
    couplings takes a ``(B, n)`` or ``(B, n, k)`` stack ``x0`` and ``(B, T)``
    times, instance b on row b of each, and gives the ``(B, T)`` curves.
    The cut is resolved once per (``h.layout``, cut) pair, by ``_cut_plan``.
    With the kept labels as the rows of Y, the marginal tr_rest(X X+) is
    Y Y+: no full density matrix is formed.
    """
    dims, d_keep, b_pos, axes = _cut_plan(h.layout, cut)
    x = propagate(*h.eig, x0, times)
    x = x.reshape((np.size(times),) + h.layout.dims + (-1,)).transpose(axes)
    y = x.reshape(len(x), d_keep, -1)
    return negativity_array(y @ y.conj().swapaxes(1, 2), dims, b_pos).reshape(np.shape(times))


def entanglement_change_at_zero(h: Hamiltonian, s0: DensityState, p: Bipartition,
                                jumps: JumpOperatorSet | None = None) -> float:
    """N(delta) - N(0) across ``p`` at delta = ``RATE_DELTA``, a finite-difference rate probe.

    For mediated Hamiltonians and product system-mediator inputs this is
    zero to second order when closed, and never positive to first order
    when jumps are local.
    """
    _check_layouts(h, s0, jumps)
    if jumps is None:
        n0, n_delta = negativity_curve(h, _factor(s0), [0.0, RATE_DELTA], p)
    else:
        [pair] = _open_stacks(h, s0, jumps, [0.0, RATE_DELTA])
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
    x0 = _factor(s0)

    def peak_at(lo: float, hi: float) -> float | None:
        t_peak, n_peak = refine_peak(lambda t: float(negativity_curve(h, x0, [t], p)[0]), lo, hi)
        return t_peak if n_peak >= level - FIRST_MAX_SLACK else None

    times = TimeGrid(0.0, horizon, 1e-3).times
    values = np.empty(len(times))
    for lo in range(0, len(times), PROPAGATE_CHUNK):
        hi = min(lo + PROPAGATE_CHUNK, len(times))
        values[lo:hi] = negativity_curve(h, x0, times[lo:hi], p)
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


def refine_peak(f, lo, hi):
    """Golden-section maximum of ``f`` on [lo, hi] to ``REFINE_TOL``: ``(T, f(T))``.

    Scalar brackets take an ``f`` of one time and give two floats.  ``(B,)``
    brackets take an ``f`` that maps a ``(B,)`` vector of times to ``(B,)``
    values, row b for bracket b, and give two ``(B,)`` arrays: each row
    stops at its own ``REFINE_TOL`` width, with the bits that a scalar
    search of its bracket would give.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    a = np.ravel(np.asarray(lo, dtype=float)).tolist()
    b = np.ravel(np.asarray(hi, dtype=float)).tolist()
    rows = range(len(a))

    def at(ts: list) -> list:
        return [f(ts[0])] if scalar else np.asarray(f(np.array(ts)), dtype=float).tolist()

    c = [b[i] - _INVPHI * (b[i] - a[i]) for i in rows]
    d = [a[i] + _INVPHI * (b[i] - a[i]) for i in rows]
    fc, fd = at(c), at(d)
    live = [i for i in rows if b[i] - a[i] > REFINE_TOL]
    while live:
        # a live row keeps [a, d] where f(c) >= f(d), else [c, b], and needs f
        # at its one new point x; a finished row stays as it is
        x, left = d[:], {}
        for i in live:
            left[i] = fc[i] >= fd[i]
            if left[i]:
                b[i], d[i], fd[i] = d[i], c[i], fc[i]
                c[i] = x[i] = b[i] - _INVPHI * (b[i] - a[i])
            else:
                a[i], c[i], fc[i] = c[i], d[i], fd[i]
                d[i] = x[i] = a[i] + _INVPHI * (b[i] - a[i])
        fx = at(x)
        for i in live:
            if left[i]:
                fc[i] = fx[i]
            else:
                fd[i] = fx[i]
        live = [i for i in live if b[i] - a[i] > REFINE_TOL]
    t = [0.5 * (a[i] + b[i]) for i in rows]
    ft = at(t)
    return (t[0], ft[0]) if scalar else (np.array(t), np.array(ft))


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
