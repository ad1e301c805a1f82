"""Random-ensemble experiments behind the reproduction entry points.

Each experiment samples many (Hamiltonian, initial state) instances,
normalizes every instance to the resource equality min{mean, std} = 1,
tracks A:B negativity, and aggregates an envelope over the ensemble.
Instance ``i`` draws exclusively from ``RngStream(seed, i)``, so results
are independent of worker count and an n-instance ensemble is a strict
prefix of any larger one with the same seed.

Every experiment runs in fixed blocks of stream ids through one block
kernel, and ``_sweep`` alone decides a sweep's memory: its block size and
the cap on what its instances keep.  A block draws each of its
instances once, from its own stream, in one randgen call per draw on all
its streams, and makes one stacked eigensolve, stacked energy moments and
stacked probes: one negativity curve (``_curve_block``, which serves
cmi-uncorrelated and commuting-null alike, each passing its own draw),
smi's searches for its peaks and crossings, or rate-zero's two rate
probes.  A row that refuses the run names its stream.  Each instance has
the same bits in a block of any size.  Worker processes split the blocks.

Instance counts default to desk scale (10^4 for the uncorrelated-
mediator ensemble); growing n can only push the max envelope up.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    MAX_KEPT_BYTES,
    TRAJECTORY_GRID,
    JumpOperatorSet,
    Trajectory,
    TimeGrid,
    entanglement_change_at_zero,
    evolve_unitary,
    first_crossing,
    negativity_curve,
    refine_peak,
    write_csv,
)
from .errors import StationaryStateError
from .hamiltonians import (
    Hamiltonian,
    cmi_product_example,
    classical_mediator_example,
    direct_optimal,
    commuting_mediated,
    energy_moments_array,
)
from .linalg import kron_stack, propagate, sqrtm_psd
from .qsl import conjecture_bound, di_bound, smi_bound
from .randgen import (
    DEFAULT_SEED,
    RngStream,
    haar_pure,
    random_density,
    random_hermitian,
    random_mediated_hamiltonian,
    random_weights,
    require_integer,
    require_uint64,
)
from .states import (
    Bipartition,
    DensityState,
    SystemLayout,
    embed_operator,
    json_text,
    negativity_array,
    require_dim,
)
from .tolerances import (
    ATTAIN_SLACK, CLOSED_RATE_TOL, EARLY_SLACK, EXCESS_TOL, OPEN_RATE_TOL, STAGE2_TIME_SLACK,
)

__all__ = [
    "EXPERIMENTS",
    "TRAJECTORY_GRID",
    "SweepConfig",
    "SweepReport",
    "run_sweep",
    "run_cmi_uncorrelated",
    "run_rate_zero",
    "run_fig2",
    "run_smi_protocol",
    "run_commuting_null",
]

# each experiment and its default instance count; ``run_sweep`` calls
# the module's ``run_<name>`` function for it
EXPERIMENTS = {
    "cmi-uncorrelated": 10_000,
    "rate-zero": 1_000,
    "smi-protocol": 200,
    "commuting-null": 1_000,
}

WORKERS_ENV = "MEDQSL_WORKERS"

# the bytes a block's largest stacks may take, which fixes B per experiment and shape,
# so that a block's memory stays small whatever n and the worker count are
BLOCK_BYTES = 2 ** 19

# grids and rates of the experiments, echoed in each report's config
CMI_N_TIMES = 64
COMMUTING_T_MAX = 2.0
COMMUTING_N_TIMES = 32
SMI_T_STEP = 1e-3
JUMP_RATE = 0.1

# the cut whose negativity every experiment tracks
AB_CUT = Bipartition(("A",), ("B",))


@dataclass(frozen=True)
class SweepConfig:
    """What varies between runs of an experiment, each field resolved on construction.

    Unset, ``n_instances`` is the ``EXPERIMENTS`` count, ``d_c`` is ``d`` and
    ``workers`` is MEDQSL_WORKERS, else 1; a worker count of 0 means 1.
    """

    experiment: str
    seed: int = DEFAULT_SEED
    n_instances: int | None = None
    d: int = 2
    d_c: int | None = None
    jump_type: str = "dephasing"
    workers: int | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choices: {tuple(EXPERIMENTS)}")
        workers = self.workers
        if workers is None:
            workers = os.environ.get(WORKERS_ENV, "").strip() or "1"
            if not workers.isdecimal():
                raise ValueError(f"{WORKERS_ENV} must be a non-negative integer, got {workers!r}")
        elif require_integer("workers", workers) < 0:
            raise ValueError(f"workers must be a non-negative integer, got {workers!r}")
        d = require_dim(self.d)
        d_c = require_dim(d if self.d_c is None else self.d_c, 1, name="d_c")
        n = EXPERIMENTS[self.experiment] if self.n_instances is None else self.n_instances
        for name, value in (("seed", require_uint64("seed", self.seed)), ("d", d),
                            ("n_instances", require_integer("n_instances", n)), ("d_c", d_c),
                            ("workers", max(1, int(workers)))):
            object.__setattr__(self, name, value)
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if self.experiment == "smi-protocol" and self.d_c != self.d:
            raise ValueError(f"smi-protocol runs on a mediator of dim d={self.d}, "
                             f"got d_c={self.d_c}")
        # the total-dimension cap and an unknown jump type fail here, before anything is drawn
        JumpOperatorSet.local(self.layout, self.jump_type, JUMP_RATE)

    @property
    def layout(self) -> SystemLayout:
        """A:d, B:d, C:d_c, the layout the instances are drawn on."""
        return SystemLayout((("A", self.d), ("B", self.d), ("C", self.d_c)))


@dataclass
class SweepReport:
    """Aggregated sweep outcome; JSON/CSV forms are byte-stable.

    No timing enters the report, so re-runs with the same configuration
    compare byte-identical; the CLI's run manifest records the wall clock.
    """

    config: dict
    times: np.ndarray
    envelope: dict[str, np.ndarray]
    extremes: dict
    violations: list[dict]
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "times": self.times.tolist(),
            "envelope": {k: v.tolist() for k, v in self.envelope.items()},
            "extremes": self.extremes,
            "violations": self.violations,
            # every stream is drawn once; the key stays for readers of the format
            "redraws": 0,
            "details": self.details,
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json_text(self.to_json_dict()))

    def save_envelope_csv(self, path) -> None:
        names = ("max", "mean", "p99")
        write_csv(path, ("T",) + names, [self.times] + [self.envelope[k] for k in names])


# ---------------------------------------------------------------------------
# kernels: pure functions run in workers.  A block kernel kernel(cfg, sids,
# **setup) takes a range of stream ids and returns the tuple of its fields,
# each stacked over them.

def _normalized_draws(cfg: SweepConfig, sids: range, draw, *, density: bool = False):
    """Draw each of the instances ``sids`` once: ``(k, drawn)``.

    ``draw(cfg, streams)`` gives ``drawn = (h, x, *extras)``: a stack of
    couplings, their states as ``energy_moments_array`` reads them with
    ``density``, and any extras, row i from ``streams[i]`` alone.  k holds
    the scales of ``EnergyMoments.scale``, and ``h.eig`` is kept.  A stationary row i
    refuses the block, naming stream ``sids[i]``."""
    drawn = draw(cfg, [RngStream(cfg.seed, sid) for sid in sids])
    try:
        return energy_moments_array(drawn[0], drawn[1], density=density).scale(), drawn
    except StationaryStateError as err:
        raise StationaryStateError(f"stream {sids[err.index[0]]}: {err.message}") from None


def _cmi_draw(cfg: SweepConfig, streams) -> tuple[Hamiltonian, np.ndarray]:
    """Product inputs ab (x) rho_c under mediated couplings, as ``(B, n, d_c)`` factors."""
    d, dc = cfg.d, cfg.d_c
    a, b, rho_c = haar_pure(d, streams), haar_pure(d, streams), random_density(dc, streams)
    h = random_mediated_hamiltonian(d, d, dc, streams)
    return h, kron_stack(kron_stack(a[:, :, None], b[:, :, None]), sqrtm_psd(rho_c))


def _commuting_draw(cfg: SweepConfig, streams) -> tuple[Hamiltonian, np.ndarray]:
    """Separable inputs rho_ab (x) rho_c under commuting couplings, as ``(B, n, n)`` factors."""
    d, dc = cfg.d, cfg.d_c
    h = commuting_mediated(*(random_hermitian(dim, streams) for dim in (d, d, dc)))
    # separable by construction: a four-term mixture of product states
    w = random_weights(4, streams)
    rho_ab = np.zeros((len(streams), d * d, d * d), dtype=complex)
    for q in w.T:
        rho_ab += q[:, None, None] * kron_stack(random_density(d, streams),
                                                random_density(d, streams))
    return h, sqrtm_psd(kron_stack(rho_ab, random_density(dc, streams)))


def _curve_block(cfg: SweepConfig, sids: range, *, draw, times: np.ndarray,
                 witness: bool = False) -> tuple[np.ndarray]:
    """N_{A:B} at each instance's scaled ``times``, its coupling and start from ``draw``;
    with ``witness``, stream 0 is instead the d = 2 product-state witness, unscaled."""
    curves = []
    if witness and sids[0] == 0:
        ham, s0 = cmi_product_example()
        curves.append(negativity_curve(ham, s0.pure_vector, times, AB_CUT)[None])
        sids = sids[1:]
    if sids:
        k_scale, (h, x0) = _normalized_draws(cfg, sids, draw)
        curves.append(negativity_curve(h, x0, k_scale[:, None] * times, AB_CUT))
    return (np.concatenate(curves),)


def _rate_draw(cfg: SweepConfig, streams) -> tuple[Hamiltonian, np.ndarray, np.ndarray]:
    """Product inputs rho_ab (x) rho_c under mediated couplings, as density matrices, and rho_ab."""
    d, dc = cfg.d, cfg.d_c
    rho_ab, rho_c = random_density(d * d, streams), random_density(dc, streams)
    return random_mediated_hamiltonian(d, d, dc, streams), kron_stack(rho_ab, rho_c), rho_ab


def _rate_block(cfg: SweepConfig, sids: range, *, jumps: JumpOperatorSet) -> tuple:
    k_scale, (h, rho0, rho_ab0) = _normalized_draws(cfg, sids, _rate_draw, density=True)
    # rho_ab (x) rho_c of two normalized Gram draws is a state by construction: not checked again
    rho0.setflags(write=False)
    h, s0 = h.scaled(k_scale), DensityState._trusted(h.layout, rho0)
    dn_closed, dn_open = (entanglement_change_at_zero(h, s0, AB_CUT, j) for j in (None, jumps))
    return dn_closed, dn_open, negativity_array(rho_ab0, (cfg.d, cfg.d), (1,))


def _smi_draw(cfg: SweepConfig, streams, *, psi1: np.ndarray) -> tuple[Hamiltonian, np.ndarray]:
    """Random B-C couplings, each from its stream, and the stage-one state ``psi1`` they share."""
    ops = random_hermitian(cfg.d ** 2, streams)
    return Hamiltonian(cfg.layout, embed_operator(cfg.layout, ("B", "C"), ops)), psi1[:, None]


def _scaled_curve(h: Hamiltonian, k_scale: np.ndarray, x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """N_{A:B} of each instance b of ``h``, from the one start x0, at its time k_scale[b] t[b]."""
    x0 = np.broadcast_to(x0, (len(t), len(x0)))
    return negativity_curve(h, x0, (k_scale * t)[:, None], AB_CUT)[:, 0]


def _smi_block(cfg: SweepConfig, sids: range, *, psi1: np.ndarray, times: np.ndarray,
               level: float) -> tuple:
    k_scale, (h, _) = _normalized_draws(cfg, sids, functools.partial(_smi_draw, psi1=psi1))
    # the scan runs per row: a stacked one is no faster, its eigvalsh stacks dominate
    curves = np.array([negativity_curve(one, psi1, k * times, AB_CUT)
                       for one, k in zip(h, k_scale)])
    top = curves.argmax(axis=1)
    f = functools.partial(_scaled_curve, h, k_scale, psi1)
    peak_t, peak_v = refine_peak(f, times[np.maximum(top - 1, 0)],
                                 times[np.minimum(top + 1, len(times) - 1)])
    return first_crossing(f, times, curves, level), peak_v, peak_t, curves


def _sweep(cfg: SweepConfig, kernel, stack_bytes: int, kept_bytes: int,
           **setup) -> list[np.ndarray]:
    """``kernel(cfg, sids, **setup)`` over blocks of streams 0..n-1: the fields.

    The one place a sweep's memory is decided, from an instance's
    ``stack_bytes``, what its block stacks take, and ``kept_bytes``, what it
    holds once its blocks are done: its fields' rows and every (n, ...) mask
    or difference of the verdicts.  With the 8 bytes of the column that
    ``_report``'s sort buffers, an n above ``MAX_KEPT_BYTES`` is refused
    before any draw.  Block b holds the streams ``range(b * B, min((b + 1) *
    B, n))``, B the most instances whose stacks fit in ``BLOCK_BYTES`` (at
    least one); an instance has the same bits in a block of any size, for
    any worker count and n.  With two or more blocks per worker, a pool of
    up to ``cfg.workers`` cpus runs them.  Each field is one ``(n, ...)``
    array, filled with each block's rows in stream order; a block's result
    is dropped before the next block is made.
    """
    n, workers = cfg.n_instances, min(cfg.workers, os.cpu_count() or 1)
    kept = kept_bytes + 8
    if n * kept > MAX_KEPT_BYTES:
        raise ValueError(f"n = {n} instances keep {kept} bytes each, {n * kept / 2 ** 30:.1f} "
                         f"GiB, above the cap of {MAX_KEPT_BYTES // 2 ** 30} GiB; the largest "
                         f"n allowed is {MAX_KEPT_BYTES // kept}")
    block = max(1, BLOCK_BYTES // stack_bytes)
    starts = range(0, n, block)
    blocks = (range(lo, min(lo + block, n)) for lo in starts)
    run = functools.partial(kernel, cfg, **setup)
    pooled = workers > 1 and len(starts) >= 2 * workers
    if pooled:  # multiprocessing is imported only for a pool
        from concurrent.futures import ProcessPoolExecutor
    fields, lo = None, 0
    with ProcessPoolExecutor(max_workers=workers) if pooled else contextlib.nullcontext() as pool:
        # both maps yield the block results in stream order
        results = (pool.map(run, blocks, chunksize=math.ceil(len(starts) / (workers * 4)))
                   if pooled else map(run, blocks))
        for result in results:  # not zip(starts, ...), whose reused tuple holds a result
            if fields is None:
                fields = [np.empty((n,) + f.shape[1:], f.dtype) for f in result]
            for out, f in zip(fields, result):
                out[lo:lo + len(f)] = f
            lo += len(f)
            del result, f
    return fields


def _first_hits(mask: np.ndarray):
    """``(row, column)`` of the first True in each row of ``mask`` that has one, copying no row."""
    first, hit = mask.argmax(axis=1), mask.any(axis=1)
    return zip(np.flatnonzero(hit).tolist(), first[hit].tolist())


def _at_max(values: np.ndarray, times: np.ndarray) -> dict:
    """``{stream_id, T, value}`` at the largest entry of an (instance, time) matrix."""
    sid, k = np.unravel_index(int(np.argmax(values)), values.shape)
    return {"stream_id": int(sid), "T": float(times[k]), "value": float(values[sid, k])}


def _report(cfg: SweepConfig, times: np.ndarray, matrix: np.ndarray, extremes: dict,
            violations: list[dict], details: dict, **echo) -> SweepReport:
    """The report of ``cfg``, its config echoed with ``echo``, and the envelope of ``matrix``.

    ``matrix`` holds one row per instance and one column per time; ``_p99`` sorts it in place.
    """
    config = {"experiment": cfg.experiment, "seed": cfg.seed, "n_instances": cfg.n_instances,
              "d": cfg.d, "d_c": cfg.d_c, **echo}
    envelope = {"max": matrix.max(axis=0), "mean": matrix.mean(axis=0), "p99": _p99(matrix)}
    return SweepReport(config, times, envelope, extremes, violations, details)


def _p99(matrix: np.ndarray) -> np.ndarray:
    """The 0.99 quantile of each column, by numpy's linear rule with its bits, sorted in place.

    Not ``np.quantile``: numpy 2.4 imports ``numpy.ma`` there.  Between the
    sorted values a and b around index 0.99 (n - 1), at the fraction t past
    a, numpy takes a + (b - a) t below t = 0.5 and b - (b - a)(1 - t) from it.
    """
    matrix.sort(axis=0)
    at = 0.99 * (len(matrix) - 1)
    lo = math.floor(at)
    if lo == len(matrix) - 1:
        return matrix[lo]
    a, b, t = matrix[lo], matrix[lo + 1], at - lo
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


# ---------------------------------------------------------------------------
# experiments

def run_cmi_uncorrelated(cfg: SweepConfig) -> SweepReport:
    """Random mediated dynamics from product system-mediator inputs.

    Tests that no uncorrelated-mediator instance matches the direct time:
    the envelope of N_{A:B}(T) should stay below (d-1)/2 for all T up to
    arccos(1/sqrt(d)), where any instance that reaches it is a violation.
    The grid runs to 2 arccos(1/sqrt(d)), where the product-state witness
    attains the level; that is not a minimum time for an uncorrelated
    mediator.  For d = 2 instance 0 is that witness, which attains 0.5
    exactly at T = pi/2.
    """
    d, dc = cfg.d, cfg.d_c
    t_max = conjecture_bound(d)
    times = t_max * np.arange(CMI_N_TIMES + 1) / CMI_N_TIMES
    witness, t = d == 2 and dc == 2, len(times)
    # a block's (B, T, n, k) propagated factors; an instance keeps its curve, the two
    # (n, T) masks of its verdict and the (n,) arrays of ``_first_hits``
    (curves,) = _sweep(cfg, _curve_block, 16 * t * cfg.layout.dim * dc, 8 * t + 2 * t + 25,
                       draw=_cmi_draw, times=times, witness=witness)
    level = (d - 1) / 2.0 - ATTAIN_SLACK
    early = times <= di_bound(d) + EARLY_SLACK
    violations = [{"stream_id": sid, "T": float(times[k]), "negativity": float(curves[sid, k])}
                  for sid, k in _first_hits((curves >= level) & early)]
    details = {
        "di_bound": di_bound(d),
        "conjecture_bound": conjecture_bound(d),
        "attain_level": level,
        "witness_included": witness,
    }
    return _report(cfg, times, curves, {"max_negativity": _at_max(curves, times)},
                   violations, details, t_max=float(t_max), n_times=CMI_N_TIMES)


def run_rate_zero(cfg: SweepConfig) -> SweepReport:
    """Exact one-sided entanglement rates dN/dT(0+) at the one time T = 0, in N per unit T.

    Closed instances from product system-mediator states must show a zero rate, to roundoff;
    local jumps must never make it positive; a direct control's N grows at rate 1 for d = 2.
    The envelope is N(0).  The rates fill ``details.max_abs_closed_change``, ``max_open_change``
    and ``direct_control_change``, ``extremes.max_open_change`` and each violation's
    ``delta_negativity``: each is dN/dT(0+) in N per unit T, though its key names a change.
    """
    jumps = JumpOperatorSet.local(cfg.layout, cfg.jump_type, JUMP_RATE)
    # a block's largest stacks are the open probe's: its one application of L holds the
    # (B, n (m + 1), n) factors of K and m jumps and the product P of that size, beside
    # some ten (B, n, n) stacks: the draws, the scaled couplings, the checked states, K and
    # L(rho).  An instance keeps three fields, |closed|, two masks, their stack and its
    # index rows, and the mask and open changes of entangled starts
    dn_closed, dn_open, n_start = _sweep(cfg, _rate_block, 16 * cfg.layout.dim ** 2 * (
        2 * (len(jumps.ops) + 1) + 10), 24 + 8 + 4 + 16 + 9, jumps=jumps)
    closed = np.abs(dn_closed)
    # by stream, closed before open within one
    bad = np.stack([closed > CLOSED_RATE_TOL, dn_open > OPEN_RATE_TOL], axis=1)
    violations = [{"stream_id": sid, "kind": ("closed", "open")[k],
                   "delta_negativity": float((dn_closed, dn_open)[k][sid])}
                  for sid, k in np.argwhere(bad).tolist()]
    # a separable rho_ab's open change is exactly -0.0: a tie that names no instance
    top = int(np.argmax(np.where(n_start > 0, dn_open, -np.inf)))
    extremes = {"max_open_change": {"stream_id": top, "value": float(dn_open[top])}
                if n_start[top] > 0 else None}
    # contrast control: the optimal direct coupling entangles at unit rate
    h_direct = direct_optimal(cfg.d)
    control = entanglement_change_at_zero(h_direct, DensityState.basis(h_direct.layout), AB_CUT)
    details = {
        "max_abs_closed_change": float(closed.max()),
        "max_open_change": float(dn_open.max()),
        "direct_control_change": float(control),
    }
    return _report(cfg, np.zeros(1), n_start[:, None], extremes, violations, details,
                   jump_type=cfg.jump_type, jump_rate=JUMP_RATE)


def run_fig2(d: int, grid: TimeGrid = TRAJECTORY_GRID) -> Trajectory:
    """Optimal direct trajectory from |00>: N and Bures angle against T."""
    h = direct_optimal(require_dim(d, hi=6))
    return evolve_unitary(h, DensityState.basis(h.layout), grid)


def run_smi_protocol(cfg: SweepConfig) -> SweepReport:
    """Two-stage swap protocol timing evidence.

    Stage one entangles A with the mediator C at the optimal direct rate,
    ending exactly maximally entangled at arccos(1/sqrt(d)).  Stage two
    draws random B-C couplings from that state and searches for the
    fastest arrival of N_{A:B} at (d-1)/2 - ATTAIN_SLACK; no draw may beat
    arccos(1/d), the angle fixed by the 1/d stage-boundary fidelity.
    """
    d = require_dim(cfg.d, hi=4)
    stage1 = Hamiltonian(cfg.layout,
                         embed_operator(cfg.layout, ("A", "C"), direct_optimal(d).matrix))
    t1 = di_bound(d)
    psi1 = propagate(*stage1.eig, DensityState.basis(cfg.layout).pure_vector, [t1])[0]
    stage2_bound = math.acos(1.0 / d)
    horizon = stage2_bound + 1.0
    times = TimeGrid(0.0, horizon, SMI_T_STEP).times
    level = (d - 1) / 2.0 - ATTAIN_SLACK
    # a block keeps its (B, T) curves and the (B, n) states of its refinement; an instance
    # keeps its curve and three values, its violation mask and rows, the mask of its
    # crossing and its negation, and nanargmin's copy and mask
    crossings, peaks, peak_times, curves = _sweep(
        cfg, _smi_block, 8 * len(times) + 16 * cfg.layout.dim, 8 * (len(times) + 3) + 9 + 2 + 9,
        psi1=psi1, times=times, level=level)
    # a nan crossing (never reached) compares False
    violations = [{"stream_id": sid, "kind": "stage2-too-fast", "T": float(crossings[sid])}
                  for sid in np.flatnonzero(crossings < stage2_bound - STAGE2_TIME_SLACK).tolist()]
    reached = ~np.isnan(crossings)
    top = int(np.argmax(peaks))
    extremes = {"max_stage2_negativity": {"stream_id": top, "T": float(peak_times[top]),
                                          "value": float(peaks[top])}}
    best = None
    if reached.any():
        idx = int(np.nanargmin(crossings))
        best = extremes["fastest_attainment"] = {"stream_id": idx, "T": float(crossings[idx])}
    details = {
        "stage1_time": float(t1),
        "stage2_bound": float(stage2_bound),
        "stage2_attainments": int(reached.sum()),
        "best_stage2_time": None if best is None else best["T"],
        "protocol_bound": smi_bound(d),
        "attain_level": level,
    }
    return _report(cfg, times, curves, extremes, violations, details,
                   horizon=float(horizon), t_step=SMI_T_STEP)


def run_commuting_null(cfg: SweepConfig) -> SweepReport:
    """Commuting mediated couplings never entangle separable product inputs.

    Instances draw (H_A + H_B) (x) H_C with separable rho_AB (x) rho_C
    starts; N_{A:B} must stay at its initial zero on the whole grid.  A
    correlated-input control with the same kind of Hamiltonian shows
    growth, so the null result is about the inputs, not the coupling.
    """
    times = COMMUTING_T_MAX * np.arange(COMMUTING_N_TIMES + 1) / COMMUTING_N_TIMES
    n, t = cfg.layout.dim, len(times)
    # a block's (B, T, n, n) propagated factors; an instance keeps its curve, its excess
    # over N(0), the excess's mask and the (n,) arrays of ``_first_hits``
    (curves,) = _sweep(cfg, _curve_block, 16 * t * n * n, 8 * t + 8 * t + t + 25,
                       draw=_commuting_draw, times=times)
    excess = curves - curves[:, :1]
    violations = [{"stream_id": sid, "T": float(times[k]), "excess": float(excess[sid, k])}
                  for sid, k in _first_hits(excess > EXCESS_TOL)]
    # control: correlated inputs under a commuting coupling do entangle
    h_ctl, s_ctl = classical_mediator_example()
    ctl = evolve_unitary(h_ctl, s_ctl, TimeGrid(0.0, times[-1], times[1]))
    details = {
        "max_excess": float(excess.max()),
        "correlated_control_max": float(ctl.columns["negativity"].max()),
    }
    return _report(cfg, times, curves, {"max_excess": _at_max(excess, times)},
                   violations, details, t_max=COMMUTING_T_MAX, n_times=COMMUTING_N_TIMES)


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Run ``cfg.experiment`` through its ``run_<name>`` function.

    The function is looked up among the module globals at call time, so
    a rebound ``run_*`` (a wrapper, say) is the one that runs.
    """
    return globals()["run_" + cfg.experiment.replace("-", "_")](cfg)
