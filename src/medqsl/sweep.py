"""Random-ensemble experiments behind the reproduction entry points.

Each experiment samples many (Hamiltonian, initial state) instances,
normalizes every instance to the resource equality min{mean, std} = 1,
tracks A:B negativity, and aggregates an envelope over the ensemble.
Instance ``i`` draws exclusively from ``RngStream(seed, i)``, so results
are independent of worker count and an n-instance ensemble is a strict
prefix of any larger one with the same seed.  If a drawn state is
stationary for its Hamiltonian the whole instance is redrawn from the
same stream (the redraw count is reported), which keeps the prefix
property intact.

Instance counts default to desk scale (10^4 for the uncorrelated-
mediator ensemble); growing n can only push the max envelope up.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    JumpOperatorSet,
    Trajectory,
    TimeGrid,
    _golden_max,
    entanglement_change_at_zero,
    evolve_unitary,
    negativity_curve,
)
from .errors import BadDimensionError, StationaryStateError
from .hamiltonians import (
    STATIONARY_TOL,
    cmi_product_example,
    classical_mediator_example,
    direct_optimal,
    commuting_mediated,
    energy_moments_array,
)
from .linalg import propagate, sqrtm_psd
from .qsl import conjecture_bound, di_bound
from .randgen import (
    RngStream,
    haar_pure,
    random_density,
    random_hermitian,
    random_mediated_hamiltonian,
)
from .states import (
    Bipartition,
    DensityState,
    SystemLayout,
    embed_operator,
    negativity_array,
)

__all__ = [
    "EXPERIMENTS",
    "SweepConfig",
    "SweepReport",
    "run_sweep",
    "run_cmi_uncorrelated",
    "run_rate_zero",
    "run_fig2",
    "run_smi_protocol",
    "run_commuting_null",
]

EXPERIMENTS = (
    "cmi-uncorrelated",
    "rate-zero",
    "fig2",
    "smi-protocol",
    "commuting-null",
)

WORKERS_ENV = "MEDQSL_WORKERS"

_DEFAULT_N = {
    "cmi-uncorrelated": 10_000,
    "rate-zero": 1_000,
    "fig2": 1,
    "smi-protocol": 200,
    "commuting-null": 1_000,
}

_REDRAW_CAP = 100

# grids and rates of the experiments, echoed in each report's config
CMI_N_TIMES = 64
COMMUTING_T_MAX = 2.0
COMMUTING_N_TIMES = 32
SMI_T_STEP = 1e-3
RATE_DELTA = 1e-4
JUMP_RATE = 0.1


@dataclass(frozen=True)
class SweepConfig:
    """What varies between runs of an experiment; unset fields take its defaults."""

    experiment: str
    seed: int = 7
    n_instances: int | None = None
    d: int = 2
    d_c: int | None = None
    jump_type: str = "dephasing"
    workers: int | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; choices: {EXPERIMENTS}")
        if self.d < 2:
            raise ValueError(f"need d >= 2, got {self.d}")
        if self.n_instances is not None and self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if self.jump_type not in ("none", "dephasing", "damping"):
            raise ValueError(f"unknown jump type {self.jump_type!r}")

    @property
    def n(self) -> int:
        return self.n_instances if self.n_instances is not None else _DEFAULT_N[self.experiment]

    @property
    def mediator_dim(self) -> int:
        return self.d_c if self.d_c is not None else self.d

    def resolved_workers(self) -> int:
        """``workers``, else MEDQSL_WORKERS, else 1; a count of 0 also means 1."""
        setting, value = "workers", self.workers
        if value is None:
            setting, value = WORKERS_ENV, os.environ.get(WORKERS_ENV, "").strip() or "1"
        if not str(value).strip().isdecimal():
            raise ValueError(f"{setting} must be a non-negative integer, got {value!r}")
        return max(1, int(value))


@dataclass
class SweepReport:
    """Aggregated sweep outcome; JSON/CSV forms are byte-stable.

    The wall clock never enters the serialized report so that re-runs
    with the same configuration compare byte-identical; timing is for
    the run manifest.
    """

    config: dict
    times: np.ndarray
    envelope: dict[str, np.ndarray]
    extremes: dict
    violations: list[dict]
    redraws: int
    details: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "times": [float(t) for t in self.times],
            "envelope": {k: [float(x) for x in v] for k, v in self.envelope.items()},
            "extremes": self.extremes,
            "violations": self.violations,
            "redraws": self.redraws,
            "details": self.details,
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def save_envelope_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("T,max,mean,p99\n")
            for k in range(len(self.times)):
                row = (self.times[k], self.envelope["max"][k],
                       self.envelope["mean"][k], self.envelope["p99"][k])
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


# ---------------------------------------------------------------------------
# instance kernels (pure functions of (config, stream_id), run in workers)

@functools.cache
def _ab_curve(d: int, dc: int):
    """The ``negativity_curve`` of the A:B cut on layout A:d, B:d, C:dc."""
    layout = SystemLayout((("A", d), ("B", d), ("C", dc)))
    return negativity_curve(layout, Bipartition(("A",), ("B",)))


def _normalized_draw(rc: dict, sid: int, draw):
    """Redraw ``draw(stream) = (M, state, ...)`` until the state moves under M.

    Returns ``(w, v, k, redraws, drawn)``: the spectrum of M, the scale
    k = 1 / min{mean, std}, the stationary draws skipped, and the draw.
    """
    stream = RngStream(rc["seed"], sid)
    for redraws in range(_REDRAW_CAP):
        drawn = draw(stream)
        w, v = np.linalg.eigh(drawn[0])
        em = energy_moments_array(drawn[0], drawn[1], w[0])
        if em.smaller > STATIONARY_TOL:
            return w, v, 1.0 / em.smaller, redraws, drawn
    raise StationaryStateError(
        f"stream {sid}: all {_REDRAW_CAP} draws were stationary (redraw cap)")


def _cmi_instance(rc: dict, sid: int) -> tuple[np.ndarray, int]:
    d, dc = rc["d"], rc["d_c"]
    if rc["witness"] and sid == 0:
        ham, s0 = cmi_product_example()
        w, v = np.linalg.eigh(ham.matrix)
        return _ab_curve(d, dc)(w, v, s0.pure_vector, rc["times"]), 0

    def draw(stream):
        ab = np.kron(haar_pure(d, stream), haar_pure(d, stream))
        rho_c = random_density(dc, stream)
        m = random_mediated_hamiltonian(d, d, dc, stream).matrix
        # the product state as a density matrix, and as a d_c-column factor
        return (m, np.kron(np.outer(ab, ab.conj()), rho_c),
                np.kron(ab[:, None], sqrtm_psd(rho_c)))

    w, v, k_scale, redraws, (_, _, x0) = _normalized_draw(rc, sid, draw)
    return _ab_curve(d, dc)(w, v, x0, k_scale * rc["times"]), redraws


def _rate_instance(rc: dict, sid: int) -> tuple[float, float, float, float, int]:
    d, dc = rc["d"], rc["d_c"]

    def draw(stream):
        rho_ab0 = random_density(d * d, stream)
        rho_c = random_density(dc, stream)
        h = random_mediated_hamiltonian(d, d, dc, stream)
        return h.matrix, np.kron(rho_ab0, rho_c), h, rho_ab0

    _, _, k_scale, redraws, (_, rho0, h, rho_ab0) = _normalized_draw(rc, sid, draw)
    h = h.scaled(k_scale)
    s0 = DensityState(h.layout, rho0)
    cut = Bipartition(("A",), ("B",))
    if rc["jump_type"] == "none":
        jumps = JumpOperatorSet(h.layout, ())
    else:
        jumps = getattr(JumpOperatorSet, rc["jump_type"])(h.layout, JUMP_RATE)
    n0 = float(negativity_array(rho_ab0, (d, d), (1,)))
    dn_closed = entanglement_change_at_zero(h, s0, cut, RATE_DELTA)
    dn_open = entanglement_change_at_zero(h, s0, cut, RATE_DELTA, jumps)
    return dn_closed, dn_open, n0, n0 + dn_closed, redraws


def _smi_instance(rc: dict, sid: int) -> tuple[float, float, float, np.ndarray, int]:
    d = rc["d"]
    psi1 = rc["psi1"]
    times = rc["times"]
    theta = (d - 1) / 2.0 - 1e-6
    layout = SystemLayout((("A", d), ("B", d), ("C", d)))

    def draw(stream):
        return embed_operator(layout, ("B", "C"), random_hermitian(d * d, stream)), psi1

    w, v, k_scale, redraws, _ = _normalized_draw(rc, sid, draw)
    ab = _ab_curve(d, d)

    def neg_at(t: float) -> float:
        return float(ab(w, v, psi1, np.array([k_scale * t]))[0])

    curve = ab(w, v, psi1, k_scale * times)
    peak_idx = int(np.argmax(curve))
    crossing = _refine_first_crossing(neg_at, times, curve, theta)
    peak_t, peak_v = _refine_peak(neg_at, times, curve, peak_idx)
    return crossing, peak_v, peak_t, curve, redraws


def _refine_peak(f, times, curve, idx) -> tuple[float, float]:
    lo = times[max(idx - 1, 0)]
    hi = times[min(idx + 1, len(times) - 1)]
    if hi <= lo:
        return float(times[idx]), float(curve[idx])
    t = _golden_max(f, float(lo), float(hi), tol=1e-9)
    return t, f(t)


def _refine_first_crossing(f, times, curve, theta) -> float:
    """First T with f(T) >= theta, refined by bisection; nan when never reached.

    Grid-local peaks within 1e-4 of theta are golden-refined first so a
    narrow graze between grid points is not missed.
    """
    n = len(times)
    for k in range(n):
        if curve[k] >= theta:
            lo = float(times[k - 1]) if k > 0 else 0.0
            hi = float(times[k])
            return _bisect_crossing(f, lo, hi, theta)
        if 0 < k < n - 1 and curve[k] >= theta - 1e-4 \
                and curve[k] >= curve[k - 1] and curve[k] >= curve[k + 1]:
            t_peak = _golden_max(f, float(times[k - 1]), float(times[k + 1]), tol=1e-9)
            if f(t_peak) >= theta:
                return _bisect_crossing(f, float(times[k - 1]), t_peak, theta)
    return math.nan


def _bisect_crossing(f, lo: float, hi: float, theta: float) -> float:
    # invariant: f(hi) >= theta, f(lo) < theta (or lo == 0 start)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if f(mid) >= theta:
            hi = mid
        else:
            lo = mid
    return hi


def _commuting_instance(rc: dict, sid: int) -> tuple[np.ndarray, int]:
    d, dc = rc["d"], rc["d_c"]

    def draw(stream):
        h_a = random_hermitian(d, stream)
        h_b = random_hermitian(d, stream)
        h_c = random_hermitian(dc, stream)
        # separable by construction: a four-term mixture of product states
        raw_w = stream.normals(4) ** 2
        mix = raw_w / raw_w.sum()
        rho_ab = np.zeros((d * d, d * d), dtype=complex)
        for q in mix:
            rho_ab += q * np.kron(random_density(d, stream), random_density(d, stream))
        rho_c = random_density(dc, stream)
        return commuting_mediated(h_a, h_b, h_c).matrix, np.kron(rho_ab, rho_c)

    w, v, k_scale, redraws, (_, rho0) = _normalized_draw(rc, sid, draw)
    return _ab_curve(d, dc)(w, v, sqrtm_psd(rho0), k_scale * rc["times"]), redraws


_KERNELS = {
    "cmi-uncorrelated": _cmi_instance,
    "rate-zero": _rate_instance,
    "smi-protocol": _smi_instance,
    "commuting-null": _commuting_instance,
}


def _run_range(payload) -> list:
    experiment, rc, lo, hi = payload
    kernel = _KERNELS[experiment]
    return [kernel(rc, sid) for sid in range(lo, hi)]


def _run_instances(experiment: str, rc: dict, n: int, workers: int) -> list:
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or n < 2 * workers:
        return _run_range((experiment, rc, 0, n))
    chunk = max(1, math.ceil(n / (workers * 4)))
    payloads = [(experiment, rc, lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    results: list = []
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        for part in pool.map(_run_range, payloads):
            results.extend(part)
    return results


def _envelope(matrix: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "max": matrix.max(axis=0),
        "mean": matrix.mean(axis=0),
        "p99": np.quantile(matrix, 0.99, axis=0),
    }


def _config_echo(cfg: SweepConfig, **extra) -> dict:
    echo = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "n_instances": cfg.n,
        "d": cfg.d,
        "d_c": cfg.mediator_dim,
    }
    echo.update(extra)
    return echo


# ---------------------------------------------------------------------------
# experiments

def run_cmi_uncorrelated(cfg: SweepConfig) -> SweepReport:
    """Random mediated dynamics from product system-mediator inputs.

    Tests the conjecture that no uncorrelated-mediator instance beats
    twice the direct time: the envelope of N_{A:B}(T) should stay below
    (d-1)/2 for all T up to arccos(1/sqrt(d)) and only approach it near
    2 arccos(1/sqrt(d)).  For d = 2 instance 0 is the product-state
    witness that attains 0.5 exactly at T = pi/2.
    """
    t0 = time.perf_counter()
    d = cfg.d
    dc = cfg.mediator_dim
    t_max = conjecture_bound(d)
    times = t_max * np.arange(CMI_N_TIMES + 1) / CMI_N_TIMES
    witness = d == 2 and dc == 2
    rc = {"seed": cfg.seed, "d": d, "d_c": dc, "times": times, "witness": witness}
    results = _run_instances("cmi-uncorrelated", rc, cfg.n, cfg.resolved_workers())
    curves = np.stack([r[0] for r in results])
    redraws = sum(r[1] for r in results)
    bound_t = di_bound(d) + 1e-3
    level = (d - 1) / 2.0 - 1e-6
    violations = []
    early = times <= bound_t
    for sid in range(cfg.n):
        bad = np.nonzero(curves[sid] >= level)[0]
        bad = [k for k in bad if early[k]]
        if bad:
            k = bad[0]
            violations.append({"stream_id": sid, "T": float(times[k]),
                               "negativity": float(curves[sid][k])})
    flat_max = np.unravel_index(int(np.argmax(curves)), curves.shape)
    extremes = {
        "max_negativity": {
            "stream_id": int(flat_max[0]),
            "T": float(times[flat_max[1]]),
            "value": float(curves[flat_max]),
        }
    }
    details = {
        "di_bound": di_bound(d),
        "conjecture_bound": conjecture_bound(d),
        "attain_level": level,
        "witness_included": witness,
    }
    return SweepReport(
        config=_config_echo(cfg, t_max=float(t_max), n_times=CMI_N_TIMES),
        times=times, envelope=_envelope(curves), extremes=extremes,
        violations=violations, redraws=redraws, details=details,
        wall_clock_s=time.perf_counter() - t0,
    )


def run_rate_zero(cfg: SweepConfig) -> SweepReport:
    """Finite-difference entanglement rates at T = 0 for mediated dynamics.

    Closed instances from product system-mediator states must show
    |N(delta) - N(0)| at second order only; adding local jumps must never
    increase negativity at first order.  A direct (non-mediated) control
    shows the contrast: its N grows linearly from the start.
    """
    t0 = time.perf_counter()
    d = cfg.d
    dc = cfg.mediator_dim
    rc = {"seed": cfg.seed, "d": d, "d_c": dc, "jump_type": cfg.jump_type}
    results = _run_instances("rate-zero", rc, cfg.n, cfg.resolved_workers())
    dn_closed = np.array([r[0] for r in results])
    dn_open = np.array([r[1] for r in results])
    n_start = np.array([r[2] for r in results])
    n_delta = np.array([r[3] for r in results])
    redraws = sum(r[4] for r in results)
    violations = []
    for sid in range(cfg.n):
        if abs(dn_closed[sid]) > 1e-6:
            violations.append({"stream_id": sid, "kind": "closed",
                               "delta_negativity": float(dn_closed[sid])})
        if dn_open[sid] > 1e-8:
            violations.append({"stream_id": sid, "kind": "open",
                               "delta_negativity": float(dn_open[sid])})
    worst_closed = int(np.argmax(np.abs(dn_closed)))
    worst_open = int(np.argmax(dn_open))
    extremes = {
        "max_abs_closed_change": {"stream_id": worst_closed,
                                  "value": float(dn_closed[worst_closed])},
        "max_open_change": {"stream_id": worst_open,
                            "value": float(dn_open[worst_open])},
    }
    # contrast control: the optimal direct coupling entangles at unit rate
    h_direct = direct_optimal(d)
    v00 = np.zeros(d * d)
    v00[0] = 1.0
    control = entanglement_change_at_zero(
        h_direct, DensityState.from_pure(h_direct.layout, v00),
        Bipartition(("A",), ("B",)), RATE_DELTA)
    times = np.array([0.0, RATE_DELTA])
    matrix = np.stack([n_start, n_delta], axis=1)
    details = {
        "delta": RATE_DELTA,
        "jump_type": cfg.jump_type,
        "jump_rate": JUMP_RATE,
        "max_abs_closed_change": float(np.abs(dn_closed).max()),
        "max_open_change": float(dn_open.max()),
        "direct_control_change": float(control),
    }
    return SweepReport(
        config=_config_echo(cfg, delta=RATE_DELTA, jump_type=cfg.jump_type,
                            jump_rate=JUMP_RATE),
        times=times, envelope=_envelope(matrix), extremes=extremes,
        violations=violations, redraws=redraws, details=details,
        wall_clock_s=time.perf_counter() - t0,
    )


def run_fig2(d: int, grid: TimeGrid | None = None) -> Trajectory:
    """Optimal direct trajectory from |00>: N and Bures angle against T."""
    if not 2 <= d <= 6:
        raise BadDimensionError(f"need 2 <= d <= 6, got {d}")
    if grid is None:
        grid = TimeGrid(0.0, math.pi / 2, 1e-3)
    h = direct_optimal(d)
    v0 = np.zeros(d * d)
    v0[0] = 1.0
    s0 = DensityState.from_pure(h.layout, v0)
    return evolve_unitary(h, s0, grid)


def run_smi_protocol(d: int, cfg: SweepConfig | None = None) -> SweepReport:
    """Two-stage swap protocol timing evidence.

    Stage one entangles A with the mediator C at the optimal direct rate,
    ending exactly maximally entangled at arccos(1/sqrt(d)).  Stage two
    draws random B-C couplings from that state and searches for the
    fastest arrival of N_{A:B} at (d-1)/2 - 1e-6; no draw may beat
    arccos(1/d), the angle fixed by the 1/d stage-boundary fidelity.
    """
    if not 2 <= d <= 4:
        raise BadDimensionError(f"need 2 <= d <= 4, got {d}")
    if cfg is None:
        cfg = SweepConfig("smi-protocol", d=d)
    if cfg.d != d:
        raise ValueError(f"config d={cfg.d} disagrees with argument d={d}")
    t0 = time.perf_counter()
    layout = SystemLayout((("A", d), ("B", d), ("C", d)))
    stage1 = embed_operator(layout, ("A", "C"), direct_optimal(d).matrix)
    t1 = di_bound(d)
    w, v = np.linalg.eigh(stage1)
    psi0 = np.zeros(d ** 3, dtype=complex)
    psi0[0] = 1.0
    psi1 = propagate(w, v, psi0, [t1])[0]
    horizon = math.acos(1.0 / d) + 1.0
    n_pts = int(math.floor(horizon / SMI_T_STEP + 1e-9))
    times = SMI_T_STEP * np.arange(n_pts + 1)
    rc = {"seed": cfg.seed, "d": d, "psi1": psi1, "times": times}
    results = _run_instances("smi-protocol", rc, cfg.n, cfg.resolved_workers())
    crossings = np.array([r[0] for r in results])
    peaks = np.array([r[1] for r in results])
    peak_times = np.array([r[2] for r in results])
    curves = np.stack([r[3] for r in results])
    redraws = sum(r[4] for r in results)
    stage2_bound = math.acos(1.0 / d)
    violations = []
    for sid in range(cfg.n):
        if not math.isnan(crossings[sid]) and crossings[sid] < stage2_bound - 1e-6:
            violations.append({"stream_id": sid, "kind": "stage2-too-fast",
                               "T": float(crossings[sid])})
    reached = ~np.isnan(crossings)
    best = None
    if reached.any():
        idx = int(np.nanargmin(crossings))
        best = {"stream_id": idx, "T": float(crossings[idx])}
    top = int(np.argmax(peaks))
    extremes = {
        "max_stage2_negativity": {"stream_id": top, "T": float(peak_times[top]),
                                  "value": float(peaks[top])},
    }
    if best is not None:
        extremes["fastest_attainment"] = best
    details = {
        "stage1_time": float(t1),
        "stage2_bound": float(stage2_bound),
        "stage2_attainments": int(reached.sum()),
        "best_stage2_time": None if best is None else best["T"],
        "protocol_bound": float(t1 + stage2_bound),
        "attain_level": (d - 1) / 2.0 - 1e-6,
    }
    return SweepReport(
        config=_config_echo(cfg, horizon=float(horizon), t_step=SMI_T_STEP),
        times=times, envelope=_envelope(curves), extremes=extremes,
        violations=violations, redraws=redraws, details=details,
        wall_clock_s=time.perf_counter() - t0,
    )


def run_commuting_null(cfg: SweepConfig) -> SweepReport:
    """Commuting mediated couplings never entangle separable product inputs.

    Instances draw (H_A + H_B) (x) H_C with separable rho_AB (x) rho_C
    starts; N_{A:B} must stay at its initial zero on the whole grid.  A
    correlated-input control with the same kind of Hamiltonian shows
    growth, so the null result is about the inputs, not the coupling.
    """
    t0 = time.perf_counter()
    d = cfg.d
    dc = cfg.mediator_dim
    times = COMMUTING_T_MAX * np.arange(COMMUTING_N_TIMES + 1) / COMMUTING_N_TIMES
    rc = {"seed": cfg.seed, "d": d, "d_c": dc, "times": times}
    results = _run_instances("commuting-null", rc, cfg.n, cfg.resolved_workers())
    curves = np.stack([r[0] for r in results])
    redraws = sum(r[1] for r in results)
    excess = curves - curves[:, :1]
    violations = []
    for sid in range(cfg.n):
        bad = np.nonzero(excess[sid] > 1e-10)[0]
        if bad.size:
            k = int(bad[0])
            violations.append({"stream_id": sid, "T": float(times[k]),
                               "excess": float(excess[sid][k])})
    worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
    extremes = {
        "max_excess": {"stream_id": int(worst[0]), "T": float(times[worst[1]]),
                       "value": float(excess[worst])},
    }
    # control: correlated inputs under a commuting coupling do entangle
    h_ctl, s_ctl = classical_mediator_example()
    ctl = evolve_unitary(h_ctl, s_ctl, TimeGrid(0.0, times[-1], times[1]))
    details = {
        "max_excess": float(excess.max()),
        "correlated_control_max": float(ctl.columns["negativity"].max()),
    }
    return SweepReport(
        config=_config_echo(cfg, t_max=COMMUTING_T_MAX, n_times=COMMUTING_N_TIMES),
        times=times, envelope=_envelope(curves), extremes=extremes,
        violations=violations, redraws=redraws, details=details,
        wall_clock_s=time.perf_counter() - t0,
    )


def run_sweep(cfg: SweepConfig):
    """Dispatch on ``cfg.experiment``; fig2 returns a Trajectory."""
    if cfg.experiment == "cmi-uncorrelated":
        return run_cmi_uncorrelated(cfg)
    if cfg.experiment == "rate-zero":
        return run_rate_zero(cfg)
    if cfg.experiment == "fig2":
        return run_fig2(cfg.d)
    if cfg.experiment == "smi-protocol":
        return run_smi_protocol(cfg.d, cfg)
    return run_commuting_null(cfg)
