"""Time evolution and entanglement-timing probes.

Unitary evolution is spectral and exact at every requested time: the
Hamiltonian is diagonalized once and each grid point gets its own
exponential, so there is no step-to-step error accumulation.  Its states
are checked through their pure vectors or column factors, which build a
valid state by construction, so no eigensolve of rho(T) is made.  The open
system integrator steps the master equation

    d rho / dT = L rho = K rho + (K rho)+ + sum_q Q rho Q+,   K = -iM - sum_q Q+Q / 2

from grid point to grid point, exactly to roundoff and exactly Hermitian: by
the map exp(L dT), one real product on the state's n^2 coordinates in a
Hermitian operator basis, wherever that real n^2 x n^2 map fits (n <= 19),
else by the truncated Taylor action of exp(L dT), each L two products.  The
size alone picks the form, which plans and refuses its own step.  Each chunk
of stepped states is checked as one stack, and the first state with an
eigenvalue below -1e-6, a trace drift or a non-finite entry aborts with
PositivityLostError.  The rate probe takes no step: it applies L once.  It
and the scan and refine behind the timing probes each run a stack as one.
Jump sets are built by ``JumpOperatorSet.local``: one kind of ``JUMP_KINDS``
on each chosen subsystem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    PositivityLostError,
    StackCheckError,
)
from .hamiltonians import Hamiltonian, energy_moments
from .linalg import expm, expm_plan, propagate, sqrtm_psd
from .states import (
    Bipartition,
    DensityState,
    SystemLayout,
    _acos,
    _single,
    _value,
    embed_operator,
    mutual_information,
    negativity,
    negativity_array,
    negativity_rate,
    partial_trace,
    partial_trace_array,
    purity,
    uhlmann_fidelity,
)
from .tolerances import (
    FIRST_MAX_SLACK, GRID_SLACK, LINDBLAD_EIG_FLOOR, PEAK_SLACK, PHASE_MAX, REFINE_TOL,
)

__all__ = [
    "TimeGrid",
    "TRAJECTORY_GRID",
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
# the most a run may keep, refused before any grid or draw: what a Trajectory keeps per point
# (a complex matrix, a complex vector or float spectrum of 16 n bytes at most, a float per
# column), or what sweep._sweep counts per instance.  A run peaks within its count plus four
# chunks of states (16 n^2 PROPAGATE_CHUNK bytes each) or one block, and 256 KiB
MAX_KEPT_BYTES = 2 ** 31
# grid points per propagate call: bounds the factors held next to the states
PROPAGATE_CHUNK = 256
LIOUVILLE_MAX_BYTES = 2 ** 20  # cap on the open stepper's real n^2 x n^2 map: n <= 19
# the factor-form work a run may ask for, L-applications x n^3: at 5e-10 to 2e-9 s per n^3
# (n = 64 to 20, one core) some 5 to 20 s; a longer run is refused before stepping
MAX_FACTOR_WORK = 1e10
# the most squarings the exact map exp(L dT) of a grid step may take.  Each doubles the
# map's roundoff: one long step of a three-qubit or two-qutrit run measured its state about
# 2^s x 1e-17 off the converged one, 4e-10 at s = 26, 1e-9 at 28 and 1e-6 at 36
MAX_SQUARINGS = 28
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
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if (self.stop - self.start) / self.step > MAX_GRID_POINTS:
            raise ValueError("grid would exceed 1e7 points")

    def __len__(self) -> int:
        """The number of grid points, without building them."""
        return int(math.floor((self.stop - self.start) / self.step + GRID_SLACK)) + 1

    @property
    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(len(self))


# the default grid of a trajectory: sweep.run_fig2, and the CLI's trajectory names and evolve
TRAJECTORY_GRID = TimeGrid(0.0, math.pi / 2, 1e-3)


@dataclass
class Trajectory:
    """Evolved states, as the checked chunk stacks, plus the observable columns."""

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
    """Equal-length float ``columns`` under the header ``names``, each value as ``%.17g``,
    the whole table formatted by one ``%`` on the row format repeated."""
    table = np.column_stack(columns)
    fmt = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(fmt * len(table) % tuple(table.ravel().tolist()))


@functools.cache
def _clock(d: int) -> np.ndarray:
    """diag(omega^j), omega = exp(2 pi i / d), quarter turns exact (Z at d = 2); read-only."""
    j = np.arange(d)
    w, quarter = np.exp(2j * np.pi * j / d), 4 * j % d == 0
    w[quarter] = np.array([1, 1j, -1, -1j])[4 * j[quarter] // d]  # exp(i pi) != -1
    z = np.diag(w)
    z.setflags(write=False)
    return z


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
    def embedded(self) -> tuple[np.ndarray, np.ndarray]:
        """The stack of each jump's Q = I (x) q (x) I on the full layout, and sum_q Q+Q; once."""
        q = np.array([embed_operator(self.layout, (lab,), op) for lab, op in self.ops],
                     dtype=complex).reshape((-1,) + 2 * (self.layout.dim,))
        return q, (q.conj().swapaxes(1, 2) @ q).sum(axis=0)

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
        """``local(layout, "dephasing", rate, labels)``, kept while perfbench/micro.py calls it."""
        return cls.local(layout, "dephasing", rate, labels)


def _check_layouts(h: Hamiltonian, s0: DensityState,
                   jumps: JumpOperatorSet | None = None) -> None:
    for name, other in (("hamiltonian", h), ("jump operators", jumps)):
        if other is not None:
            s0.layout.require(other.layout, name)


def _lost(e: StackCheckError, t: float) -> PositivityLostError:
    """The failed check ``e`` of a stepped state, or of its marginal, naming its T."""
    return PositivityLostError(f"{e.message} at T={t:.6g}; reduce the step or the rates")


def _observed(s0: DensityState, grid: TimeGrid, cut: Bipartition | None,
              target: DensityState | None) -> tuple[Bipartition, DensityState]:
    """``cut`` and ``target``, or the defaults that ``evolve_unitary`` documents.

    Refused before anything is allocated or propagated: a stack as ``s0`` or
    ``target``, a trajectory of ``s0`` on ``grid`` above ``MAX_KEPT_BYTES``, a
    cut with a label that ``s0.layout`` lacks, and a target on another layout.
    """
    _single(s0=s0, target=target)
    n = s0.layout.dim
    need = len(grid) * (16 * n * n + 16 * n + 8 * len(TRAJECTORY_COLUMNS))
    if need > MAX_KEPT_BYTES:
        raise ValueError(
            f"a trajectory of {len(grid)} states of dimension {n} needs "
            f"{need / 2 ** 30:.1f} GiB, above the cap of {MAX_KEPT_BYTES // 2 ** 30} GiB")
    if cut is None:
        if len(s0.layout) == 1:
            raise DimensionMismatchError("observation needs at least two subsystems")
        cut = Bipartition((s0.layout.labels[0],), (s0.layout.labels[1],))
    s0.layout.positions(cut.side_a + cut.side_b)
    if target is not None:
        s0.layout.require(target.layout, "target")
    return cut, s0 if target is None else target


def _observe(h: Hamiltonian, s0: DensityState, times: np.ndarray, stacks: list[DensityState],
             cut: Bipartition, target: DensityState) -> Trajectory:
    """The trajectory of the checked chunk ``stacks``, one state per time.

    Each stack is measured in one call per measure, so validation, the
    marginals and the eigensolves run once per stack, not once per state,
    into the one array of each column.  The fidelities put the single state
    first, so only it is factored, and F(s0, s) serves both columns when
    ``target`` is ``s0``.  The first state is ``s0`` by definition, so its
    F(s0, s) is 1 and its Bures angle 0 exactly, where the computed root
    fidelity may miss 1 by roundoff.  A marginal that fails its check
    raises PositivityLostError naming its T.
    """
    kept, hi = cut.side_a + cut.side_b, 0
    cols = {name: np.empty(len(times)) for name in TRAJECTORY_COLUMNS[1:]}
    for s in stacks:
        lo, hi = hi, hi + len(s.matrix)
        try:
            marg = s if len(kept) == len(s0.layout) else partial_trace(s, kept)
        except StackCheckError as e:
            raise _lost(e, times[lo + e.index[0]]) from None
        em = energy_moments(h, s)
        f0 = uhlmann_fidelity(s0, s)
        if lo == 0:
            f0[0] = 1.0
        for name, values in (("negativity", negativity(marg, cut)),
                             ("fidelity_to_target",
                              f0 if target is s0 else uhlmann_fidelity(target, s)),
                             ("bures_angle_from_initial", _acos(f0)),
                             ("purity_marginal", purity(marg)),
                             ("mutual_information", mutual_information(marg, cut)),
                             ("mean_energy", em.mean),
                             ("energy_std", em.std)):
            cols[name][lo:hi] = values
    return Trajectory(times, stacks, {"T": times, **cols})


def _factor(s: DensityState) -> np.ndarray:
    """The pure vector, or sqrt(rho) as a column factor of a mixed state."""
    return s.pure_vector if s.is_pure else sqrtm_psd(s.matrix)


def evolve_unitary(h: Hamiltonian, s0: DensityState, grid: TimeGrid, *,
                   cut: Bipartition | None = None,
                   target: DensityState | None = None) -> Trajectory:
    """Closed evolution of ``s0`` (the state at ``grid.start``) under ``h``.

    The marginal columns are taken across ``cut`` (by default the first two
    subsystems, one against the other) and the fidelities against ``target``
    (by default ``s0``).  A grid whose largest phase max|w| (T - start)
    exceeds ``PHASE_MAX``, where its ulp reaches 1/8 rad and the states lose
    their last significant digits, is refused with ValueError before
    propagating; a phase that overflows a float reads inf and is refused too.
    """
    _check_layouts(h, s0)
    cut, target = _observed(s0, grid, cut, target)
    times = grid.times
    w_max, span = float(np.abs(h.eig[0]).max()), float(times[-1] - grid.start)
    if not w_max * span <= PHASE_MAX:
        raise ValueError(f"the phase max|w| (T - start) = {w_max * span:.3g} rad at "
                         f"T = {times[-1]:.6g} exceeds {PHASE_MAX:.3g} rad, where a phase's ulp "
                         f"is 1/8 rad (max|w| = {w_max:.6g}); shorten the run")
    x0, build = _factor(s0), DensityState.from_pure if s0.is_pure else DensityState.from_factor
    stacks = [build(s0.layout, propagate(*h.eig, x0, times[lo:lo + PROPAGATE_CHUNK] - grid.start))
              for lo in range(0, len(times), PROPAGATE_CHUNK)]
    return _observe(h, s0, times, stacks, cut, target)


def _generator(h: Hamiltonian, jumps: JumpOperatorSet):
    """L as the stepper forms and the rate probe build it: K = -iM - sum_q Q+Q / 2, Q.

    Jumps whose sum Q+Q, or whose K, has a non-finite entry are refused with
    ValueError, which names each jump's rate: its largest <j|q+q|j>.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q, qq = jumps.embedded
        k = -1j * h.matrix - 0.5 * qq
        if np.isfinite(k).all():
            return k, q
        rates = ", ".join(f"{lab} {(np.abs(op) ** 2).sum(axis=0).max():.6g}"
                          for lab, op in jumps.ops)
    raise ValueError(f"the jump rates ({rates}) overflow K = -iM - sum_q Q+Q / 2; "
                     "lower the rates")


def _substeps(k, q, span: float, steps: int = 1) -> int:
    """``_factor_form``'s substeps of ``span``: the ceil, and at least 1, of (2 ||K||_1 +
    sum_q ||Q||_1^2) span >= ||L span||_1, inf past a float; ``steps`` spans of them, at 18
    L-applications each (at ||h L||_1 <= 1, the terms that take 1/j! below eps) x n^3, above
    ``MAX_FACTOR_WORK`` are refused with ValueError."""
    with np.errstate(over="ignore"):
        bound = (2 * np.abs(k).sum(axis=0).max()
                 + (np.abs(q).sum(axis=1).max(axis=1) ** 2).sum()) * span
    subs = float(np.maximum(1.0, np.ceil(bound)))
    total, n = subs * steps, len(k)
    if not 18 * total * n ** 3 <= MAX_FACTOR_WORK:
        raise ValueError(f"{steps} step(s) of {span:.6g} take {total:.6g} Taylor substeps at "
                         f"dimension {n}, above the cap of {MAX_FACTOR_WORK:.0e} L-applications "
                         "x n^3 at 18 per substep; shorten the run or lower the rates")
    return int(subs)


def _l_action(k, q, scale: float = 1.0):
    """``act(r)``: scale L(r) for K and r whose ``(..., n, n)`` shapes broadcast, two products: P =
    scale [K; Q_1; ...] r, rows interleaved, and scale L(r) = P_0 + P_0+ + [P_1 ...] [Q_1+; ...]."""
    lead, n, m = k.shape[:-2], k.shape[-1], len(q)
    factors = np.concatenate([k[..., None, :], np.broadcast_to(q.swapaxes(0, 1), lead + (n, m, n))],
                             axis=-2).reshape(lead + (n * (m + 1), n))
    factors *= scale
    q_adj = q.conj().swapaxes(1, 2).reshape(m * n, n)

    def act(r):
        p = factors @ r
        p = p.reshape(p.shape[:-2] + (n, m + 1, n))
        out = p[..., 1:, :].reshape(p.shape[:-3] + (n, m * n)) @ q_adj
        out += p[..., 0, :] + p[..., 0, :].conj().swapaxes(-1, -2)
        return out
    return act


def _factor_form(k, q, span: float):
    """``step(rho)``: rho over ``span`` by the truncated Taylor action of exp(L span)
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)): s substeps h = span / s from
    ``_substeps``, each the sum of (h L)^j rho / j!, a term one ``_l_action``, until a term's
    entries sum to at most eps of the sum's, re-Hermitized."""
    subs = _substeps(k, q, span)
    act = _l_action(k, q, span / subs)

    def step(rho):
        for _ in range(subs):
            term, acc, j = rho, rho.copy(), 0
            while j == 0 or np.abs(term).sum() > np.finfo(float).eps * np.abs(acc).sum():
                j += 1
                term = act(term) * (1 / j)
                acc += term
            rho = 0.5 * (acc + acc.conj().T)
        return rho
    return step


@functools.cache
def _hermitian_basis(n: int):
    """The row-major indices ``_liouville_form`` reads its real basis from, and its gathers.

    The real orthonormal basis of n x n Hermitian matrices is E_jj, then (E_jk + E_kj)/sqrt 2
    and i (E_jk - E_kj)/sqrt 2 for each j < k: ``diag`` holds the indices of (j,j), and
    ``upper`` and ``lower`` those of (j,k) and (k,j).  A Hermitian rho has the coordinates
    x = d c in it, c = (rho_jj, Re rho_jk, Im rho_jk) and d = 1 or sqrt 2; ``take`` reads c
    from the float view of rho, and ``put`` writes that view from (c, -Im rho_jk, 0), so the
    rebuilt rho is exactly Hermitian.
    """
    upper_j, upper_k = np.triu_indices(n, 1)
    m, diag = len(upper_j), np.arange(n) * (n + 1)
    upper, lower = upper_j * n + upper_k, upper_k * n + upper_j
    take = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
    put = np.empty(2 * n * n, dtype=np.intp)
    put[2 * diag], put[2 * diag + 1] = np.arange(n), n * n + m
    put[2 * upper] = put[2 * lower] = n + np.arange(m)
    put[2 * upper + 1], put[2 * lower + 1] = n + m + np.arange(m), n * n + np.arange(m)
    return diag, upper, lower, take, put


def _liouville_form(k, q, span: float):
    """``step(rho)``: rho over ``span``, one real product with its exact map.

    On row-major vec(rho), L = K (x) I + I (x) conj K + sum_q Q (x) conj Q maps Hermitian
    matrices to Hermitian ones, so in the basis B of ``_hermitian_basis`` it is the real
    matrix L_r = Re(B+ L B) (Havel, J. Math. Phys. 44, 534 (2003)), gathered from the (j,k)
    and (k,j) rows and columns of L.  exp(L_r span) is formed by ``expm`` once and kept as
    the map of the coordinates c, d^-1 exp(L_r span) d; a step reads c from rho's diagonal
    and upper triangle, makes one real product and rebuilds rho.

    The exact map keeps the trace, sum_j c_jj; but each of ``expm``'s s squarings doubles
    the roundoff along that conserved direction, some 1e-10 at s = 19 (T = 1e6 at
    ||L|| ~ 3), so the map's diagonal rows are corrected to sum to the trace functional.
    A span whose map takes more than ``MAX_SQUARINGS`` squarings, by ``expm_plan`` of the
    1-norm of the L_r span that ``expm`` is handed, or whose norm is not finite, is refused
    with ValueError once L is gathered, before it is exponentiated.
    """
    n = len(k)
    jumps = q.reshape(len(q), n * n)
    diag, upper, lower, take, put = _hermitian_basis(n)
    s, m = 1 / math.sqrt(2), len(upper)
    with np.errstate(over="ignore", invalid="ignore"):
        # L[a, b, j, k]: sum_q Q (x) conj Q as one product of the jumps' (aj) and (bk)
        # entries, then K (x) I on its b = k diagonal and I (x) conj K on its a = j
        # diagonal, added through einsum's writeable diagonal views
        gen = (jumps.T @ jumps.conj()).reshape(4 * (n,)).transpose(0, 2, 1, 3).copy()
        np.einsum("abjb->ajb", gen)[...] += k[:, :, None]
        np.einsum("abak->abk", gen)[...] += k.conj()
        gen = gen.reshape(n * n, n * n)
        # L B, then Re(B+ L B): the rows and columns of B's elements from those of (j,k) and (k,j)
        col_jk, col_kj = gen[:, upper], gen[:, lower]
        cols = np.concatenate([gen[:, diag], s * (col_jk + col_kj), (1j * s) * (col_jk - col_kj)],
                              axis=1)
        row_jk, row_kj = cols[upper], cols[lower]
        a = span * np.concatenate([cols[diag].real, s * (row_jk + row_kj).real,
                                   s * (row_jk - row_kj).imag])
        norm = np.abs(a).sum(axis=0).max()
    if not (norm < math.inf and expm_plan(norm)[1] <= MAX_SQUARINGS):
        raise ValueError(f"the exact map exp(L dT) of a step of {span:.6g} (||L dT||_1 = "
                         f"{norm:.3g}) takes more than {MAX_SQUARINGS} squarings, each "
                         "doubling its roundoff; shorten the step")
    d = np.concatenate([np.ones(n), np.full(2 * m, math.sqrt(2))])
    e = d / d[:, None] * expm(a)
    e[:n] -= (e[:n].sum(axis=0) - (np.arange(n * n) < n)) / n  # less the trace functional on c
    # put's sources: the coordinates c out of a step, then -Im rho_jk and a zero
    src = np.zeros(n * n + m + 1)
    c, im, minus_im = src[:n * n], src[n + m:n * n], src[n * n:-1]

    def step(rho):
        np.matmul(e, rho.reshape(-1).view(float)[take], out=c)
        np.negative(im, out=minus_im)
        return src[put].view(complex).reshape(n, n)
    return step


def _open_stacks(h: Hamiltonian, s0: DensityState, jumps: JumpOperatorSet,
                 grid: TimeGrid) -> list[DensityState]:
    """``s0``, the state at ``grid.start``, stepped to each point of ``grid``.

    A grid with a step to take steps by one form built for ``grid.step``, which
    refuses a step it cannot take with ValueError before stepping:
    ``_liouville_form`` where its real n^2 x n^2 map, 8 n^4 bytes, fits in
    ``LIOUVILLE_MAX_BYTES`` (n <= 19), its squarings planned on that map, else
    ``_factor_form``, the run's ``_substeps`` priced first.  Up to
    ``PROPAGATE_CHUNK`` states are stepped, overflow ignored, into one buffer,
    checked as one stack as ``DensityState`` copies it: PositivityLostError
    names the T of the first state that fails any check, non-finite included.
    """
    times, n = grid.times, s0.layout.dim
    k, q = _generator(h, jumps)
    if len(times) > 1 and 8 * n ** 4 <= LIOUVILLE_MAX_BYTES:
        step = _liouville_form(k, q, grid.step)
    elif len(times) > 1:
        _substeps(k, q, grid.step, len(times) - 1)
        step = _factor_form(k, q, grid.step)
    chunk = np.empty((min(len(times), PROPAGATE_CHUNK), n, n), dtype=complex)
    stacks, rho = [], s0.matrix
    for lo in range(0, len(times), PROPAGATE_CHUNK):
        hi = min(lo + PROPAGATE_CHUNK, len(times))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(lo, hi):
                if i:
                    rho = step(rho)
                chunk[i - lo] = rho
                if not np.isfinite(rho).all():  # it stays non-finite: check the chunk now
                    hi = i + 1
                    break
        try:
            stacks.append(DensityState(s0.layout, chunk[:hi - lo], eig_floor=LINDBLAD_EIG_FLOOR))
        except StackCheckError as e:
            raise _lost(e, times[lo + e.index[0]]) from None
    return stacks


def evolve_lindblad(h: Hamiltonian, s0: DensityState, grid: TimeGrid,
                    jumps: JumpOperatorSet, *, cut: Bipartition | None = None,
                    target: DensityState | None = None) -> Trajectory:
    """Open evolution under ``h`` and the jump operators in ``jumps``, stepped by
    ``_open_stacks``, ``cut`` and ``target`` observed as in ``evolve_unitary``; with an
    empty jump set it agrees with ``evolve_unitary`` to roundoff."""
    _check_layouts(h, s0, jumps)
    cut, target = _observed(s0, grid, cut, target)
    return _observe(h, s0, grid.times, _open_stacks(h, s0, jumps, grid), cut, target)


@functools.cache
def _cut_plan(layout: SystemLayout, cut: Bipartition):
    """The marginal dims and dim of ``cut`` on ``layout``, side B's positions in it, the
    kept positions on ``layout``, ascending, and the axes of a ``(T, *layout.dims, k)``
    stack that bring the kept labels first, in layout order; all from ``SystemLayout``'s
    label resolvers.  When the kept labels lead already, the transpose is the identity:
    a view, no data moves."""
    marg = layout.restricted(cut.side_a + cut.side_b)
    first = layout.axes_first(marg.labels)
    axes = (0, *(1 + k for k in first), len(layout) + 1)
    return marg.dims, marg.dim, marg.positions(cut.side_b), first[:len(marg)], axes


def negativity_curve(h: Hamiltonian, x0, times, cut: Bipartition) -> np.ndarray:
    """N across ``cut`` of exp(-iTM) x0 for each T in ``times``.

    ``h`` is a ``Hamiltonian`` M, propagated through its kept ``h.eig``, and ``x0`` a state
    vector or a column factor X of rho = X X+.  A stack of B couplings takes a ``(B, n)``
    or ``(B, n, k)`` stack ``x0`` and ``(B, T)`` times, instance b on row b of each, and
    gives the ``(B, T)`` curves.  The cut is resolved once per (``h.layout``, cut) pair,
    by ``_cut_plan``.  With the kept labels as the rows of Y, the marginal tr_rest(X X+)
    is Y Y+: no full density matrix is formed.
    """
    dims, d_keep, b_pos, _, axes = _cut_plan(h.layout, cut)
    x = propagate(*h.eig, x0, times)
    x = x.reshape((np.size(times),) + h.layout.dims + (-1,)).transpose(axes)
    y = x.reshape(len(x), d_keep, -1)
    return negativity_array(y @ y.conj().swapaxes(1, 2), dims, b_pos).reshape(np.shape(times))


def entanglement_change_at_zero(h: Hamiltonian, s0: DensityState, p: Bipartition,
                                jumps: JumpOperatorSet | None = None) -> float | np.ndarray:
    """dN/dT at T = 0+ across ``p``, the exact one-sided rate of N.

    sigma = tr_rest rho0 and dsigma = tr_rest L(rho0), with L applied once by ``_l_action``
    (closed: no jumps, K = -iM), give the rate by ``negativity_rate``: 1 for the direct
    control at d = 2.  For mediated Hamiltonians and product system-mediator inputs it is
    zero when closed, and never positive when jumps are local.  B couplings, B states or
    both, as stacks, give the ``(B,)`` rates, and one coupling and one state a float.
    """
    _check_layouts(h, s0, jumps)
    k, q = _generator(h, JumpOperatorSet(h.layout, ()) if jumps is None else jumps)
    dims, _, b_pos, keep, _ = _cut_plan(h.layout, p)
    sigma, dsigma = (partial_trace_array(m, h.layout.dims, keep)
                     for m in (s0.matrix, _l_action(k, q)(s0.matrix)))
    return _value(negativity_rate(sigma, dsigma, dims, b_pos))


def first_max_entanglement_time(h: Hamiltonian, s0: DensityState, p: Bipartition,
                                horizon: float = 50.0) -> float | None:
    """Time of the first maximal-entanglement peak across ``p``, or None.

    Scans N(T) on a 1e-3 grid, ``PROPAGATE_CHUNK`` points at a time, and returns the first
    grid-local maximum within ``PEAK_SLACK`` of (d-1)/2, d the smaller total dimension of
    the cut's sides, that ``refine_peak`` lifts to within ``FIRST_MAX_SLACK`` of it: near a
    quadratic peak that window is narrower than the scan step.  Returns None when no peak
    attains the level within the horizon (at most 50).
    """
    _check_layouts(h, s0)
    _single(s0=s0)
    d = min(s0.layout.restricted(side).dim for side in (p.side_a, p.side_b))
    if d < 2:
        raise BadDimensionError(f"a side of the cut has dimension {d}: need d >= 2")
    if not 0 < horizon <= 50.0:
        raise ValueError(f"horizon {horizon} outside (0, 50]")
    level = (d - 1) / 2.0
    f = functools.partial(negativity_curve, h, _factor(s0), cut=p)
    times = TimeGrid(0.0, horizon, 1e-3).times
    # past the last point a bracket ends at the horizon, and the -inf there
    # lets a last point that still rises count as a peak
    ends = np.append(np.minimum(times, horizon), horizon)
    values = np.full((1, len(times) + 1), -np.inf)
    for lo in range(0, len(times), PROPAGATE_CHUNK):
        hi = min(lo + PROPAGATE_CHUNK, len(times))
        values[0, lo:hi] = f(times[lo:hi])
        # the peaks completed so far: points whose right neighbour is known
        j = np.arange(max(lo - 1, 0), hi - (hi < len(times)))
        t_peak = _first_peak(f, ends, values, j, level, level - FIRST_MAX_SLACK)[1, 0]
        if not np.isnan(t_peak):
            return float(t_peak)
    return None


# scan and refine: f sampled on a grid, then refined between the samples.  Each
# search takes (B,) brackets and an f that maps a (B,) array of times to a
# (B,) float array, row b for bracket b; each row stops at its own width, with
# the bits of the one-row search of its bracket.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def refine_peak(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximum of ``f`` on each bracket [lo, hi] to ``REFINE_TOL``:
    ``(T, f(T))``, two ``(B,)`` arrays."""
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    # copies: the loop writes into fc and fd, and f may return its argument
    fc, fd = np.array(f(c)), np.array(f(d))
    live = b - a > REFINE_TOL
    while live.any():
        # a live row keeps [a, d] where f(c) >= f(d), else [c, b], and needs f
        # at its one new point; a finished row stays as it is
        left, right = live & (fc >= fd), live & ~(fc >= fd)
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = b[left] - _INVPHI * (b[left] - a[left])
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = a[right] + _INVPHI * (b[right] - a[right])
        fx = f(np.where(left, c, d))
        fc[left], fd[right] = fx[left], fx[right]
        live &= b - a > REFINE_TOL
    t = 0.5 * (a + b)
    return t, f(t)


def bisect_crossing(f, lo: np.ndarray, hi: np.ndarray, level: float) -> np.ndarray:
    """Bisect each bracket [lo, hi] to ``REFINE_TOL``, given f(hi) >= level > f(lo): the
    ``(B,)`` upper ends."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live = hi - lo > REFINE_TOL
    while live.any():
        mid = 0.5 * (lo + hi)
        up = f(mid) >= level
        hi[live & up], lo[live & ~up] = mid[live & up], mid[live & ~up]
        live &= hi - lo > REFINE_TOL
    return hi


def _first_peak(f, ends, values, j, level: float, accept: float) -> np.ndarray:
    """Each row's first grid-local maximum among the columns ``j`` of ``values`` within
    ``PEAK_SLACK`` below ``level`` that ``refine_peak`` lifts to ``accept``: ``(2, B)``, the
    bracket start and refined time of each row's peak, nan where none is.  Column k is
    refined on [ends[k - 1], ends[k + 1]], each row's next peak in one search per round."""
    at = values[:, j]
    peaks = ((at >= level - PEAK_SLACK) & (at >= values[:, j + 1])
             & (at >= values[:, np.maximum(j - 1, 0)]))
    rows, found = np.arange(len(values)), np.full((2, len(values)), np.nan)
    while peaks.any():
        # a row with no peak left refines a bracket whose result goes unused
        i = peaks.argmax(axis=1)
        lo, hi = ends[np.maximum(j[i] - 1, 0)], ends[j[i] + 1]
        t, value = refine_peak(f, lo, hi)
        hit = peaks[rows, i] & (value >= accept)
        found[:, hit] = lo[hit], t[hit]
        peaks[rows, i], peaks[hit] = False, False
    return found


def first_crossing(f, times: np.ndarray, values: np.ndarray, level: float) -> np.ndarray:
    """First T of each row with f(T) >= level, given the ``(B, T)`` samples ``values`` of
    f on the one grid ``times``: the ``(B,)`` crossings, nan where never.

    Before the first sample at the level is bisected against the one before
    it, each interior grid-local peak within ``PEAK_SLACK`` below the level
    goes to ``refine_peak``, so a graze between samples is found.
    """
    n_t = values.shape[1]
    first = np.where((values >= level).any(axis=1), (values >= level).argmax(axis=1), n_t)
    # a graze: a peak before the first sample at the level (nan from there on)
    before = np.where(np.arange(n_t) < first[:, None], values, np.nan)
    lo, hi = _first_peak(f, times, before, np.arange(1, n_t - 1), level, level)
    # else that first sample, against the one before it
    sample = np.isnan(hi)
    lo, hi = np.where(sample, times[np.clip([first - 1, first], 0, n_t - 1)], (lo, hi))
    out = bisect_crossing(f, lo, hi, level)
    out[sample & (first == n_t)] = np.nan
    return out
