"""Monte-Carlo harness tests.

Experiment runs here use small instance counts; the full-scale sweeps live
in the acceptance suite. What we pin down here is the reporting contract,
determinism across worker counts, and the per-experiment wiring.
"""

import concurrent.futures
import dataclasses
import functools
import gc
import json
import re
import tracemalloc

import numpy as np
import pytest

from medqsl import (
    EXPERIMENTS,
    BadDimensionError,
    DensityState,
    Hamiltonian,
    RngStream,
    SweepConfig,
    SweepReport,
    TimeGrid,
    Trajectory,
    cmi_product_example,
    commuting_mediated,
    energy_moments,
    evolve_unitary,
    haar_pure,
    random_density,
    random_hermitian,
    random_mediated_hamiltonian,
    run_cmi_uncorrelated,
    run_commuting_null,
    run_fig2,
    run_rate_zero,
    run_smi_protocol,
    run_sweep,
)
from medqsl import sweep
from medqsl.dynamics import JUMP_KINDS, JumpOperatorSet, evolve_lindblad, negativity_curve
from medqsl.errors import PositivityLostError, StationaryStateError
from medqsl.sweep import AB_CUT, _cmi_draw, _commuting_draw, _curve_block, _rate_block


class TestSweepConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="experiment"):
            SweepConfig(experiment="nope")

    def test_bad_instance_count(self):
        with pytest.raises(ValueError):
            SweepConfig(experiment="rate-zero", n_instances=0)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            SweepConfig(experiment="cmi-uncorrelated", d=1)

    def test_bad_jump_type(self):
        with pytest.raises(ValueError, match="'thermal'; choices: .'dephasing', 'damping'.$"):
            SweepConfig(experiment="rate-zero", jump_type="thermal")

    def test_jump_types_are_the_kinds(self):
        for jump_type in JUMP_KINDS:
            assert SweepConfig(experiment="rate-zero", jump_type=jump_type).jump_type == jump_type
        # the closed probe runs beside every open one: no jump type stands for it
        with pytest.raises(ValueError, match="'none'"):
            SweepConfig(experiment="rate-zero", jump_type="none")

    @pytest.mark.parametrize("seed", [7.9, 7.0, True, "7"])
    def test_seed_must_be_an_integer(self, seed):
        # a float seed used to run as its int() while the report echoed the float
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            SweepConfig(experiment="cmi-uncorrelated", seed=seed, n_instances=3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_range(self, seed):
        # refused with the config, before the experiment's setup or any draw
        with pytest.raises(ValueError, match=rf"seed {seed} outside \[0, 2\^64\)"):
            SweepConfig(experiment="smi-protocol", seed=seed, n_instances=2)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_instance_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=f"n_instances must be an integer, got {n!r}"):
            SweepConfig(experiment="cmi-uncorrelated", n_instances=n)

    def test_numpy_integers_are_echoed_as_ints(self, tmp_path):
        cfg = SweepConfig(experiment="cmi-uncorrelated", seed=np.int64(3),
                          n_instances=np.int32(2))
        assert type(cfg.seed) is int and type(cfg.n_instances) is int
        run_cmi_uncorrelated(cfg).save_json(tmp_path / "r.json")
        config = json.loads((tmp_path / "r.json").read_text())["config"]
        assert (config["seed"], config["n_instances"]) == (3, 2)

    @pytest.mark.parametrize("field", ["d", "d_c"])
    @pytest.mark.parametrize("value", ["3", 2.0, True])
    def test_dimension_must_be_an_integer(self, field, value):
        # "3" used to fail on a str < int comparison, True to read as 1,
        # and d_c="2" to surface as BadDimensionError from the layout
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            SweepConfig(experiment="rate-zero", **{field: value})

    def test_defaults_fill_in(self, monkeypatch):
        monkeypatch.delenv("MEDQSL_WORKERS", raising=False)
        cfg = SweepConfig(experiment="cmi-uncorrelated")
        assert (cfg.seed, cfg.n_instances, cfg.d, cfg.d_c, cfg.workers) == (7, 10_000, 2, 2, 1)
        cfg2 = SweepConfig(experiment="rate-zero", n_instances=17, d=3)
        assert (cfg2.n_instances, cfg2.d_c) == (17, 3)
        assert SweepConfig(experiment="rate-zero", d=3, d_c=2).d_c == 2

    def test_default_equals_its_explicit_twin(self, monkeypatch):
        monkeypatch.delenv("MEDQSL_WORKERS", raising=False)
        assert SweepConfig("rate-zero") == SweepConfig("rate-zero", n_instances=1000)
        assert SweepConfig("rate-zero", d=3) == SweepConfig(
            "rate-zero", seed=7, n_instances=1000, d=3, d_c=3, workers=1)
        assert SweepConfig("rate-zero", workers=0) == SweepConfig("rate-zero")


class TestCmiUncorrelated:
    def test_small_run_reports(self):
        cfg = SweepConfig(experiment="cmi-uncorrelated", n_instances=8, seed=3)
        rep = run_cmi_uncorrelated(cfg)
        assert isinstance(rep, SweepReport)
        assert rep.violations == []
        assert len(rep.times) == len(rep.envelope["max"])
        assert all(m <= 0.5 + 1e-9 for m in rep.envelope["max"])
        # pointwise ordering of the summary statistics
        for mx, mean, p99 in zip(
            rep.envelope["max"], rep.envelope["mean"], rep.envelope["p99"]
        ):
            assert mean <= p99 + 1e-12
            assert p99 <= mx + 1e-12

    def test_witness_instance_values(self):
        # stream 0 at d=2 is the deterministic witness pair: its curve must
        # show the known quarter-time and endpoint negativities
        cfg = SweepConfig(experiment="cmi-uncorrelated", n_instances=1, seed=3)
        rep = run_cmi_uncorrelated(cfg)
        mid = len(rep.times) // 2
        assert abs(rep.times[mid] - np.pi / 4) < 1e-12
        assert abs(rep.envelope["max"][mid] - 0.1035533905932737) < 1e-12
        assert abs(rep.envelope["max"][-1] - 0.5) < 1e-8

    def test_forced_violation_matches_instance_loop(self, monkeypatch):
        # with the direct-time window stretched over the whole grid, the d=2
        # witness (stream 0, N = 1/2 at the end) counts as a violation
        monkeypatch.setattr(sweep, "di_bound", lambda d: 10.0)
        cfg = SweepConfig(experiment="cmi-uncorrelated", n_instances=6, seed=3)
        rep = run_cmi_uncorrelated(cfg)
        expected = []
        for sid in range(cfg.n_instances):
            [(curve,)] = _curve_block(cfg, range(sid, sid + 1), draw=_cmi_draw, times=rep.times,
                                      witness=True)
            for k, value in enumerate(curve):
                if value >= 0.5 - 1e-6:
                    expected.append({"stream_id": sid, "T": float(rep.times[k]),
                                     "negativity": float(value)})
                    break
        assert [v["stream_id"] for v in expected] == [0]
        assert rep.violations == expected

    def test_envelope_max_grows_with_instances(self):
        small = run_cmi_uncorrelated(
            SweepConfig(experiment="cmi-uncorrelated", n_instances=6, seed=11)
        )
        large = run_cmi_uncorrelated(
            SweepConfig(experiment="cmi-uncorrelated", n_instances=10, seed=11)
        )
        # same streams 0..5 plus four more: the max can only go up
        for lo, hi in zip(small.envelope["max"], large.envelope["max"]):
            assert hi >= lo - 1e-15

    def test_instance_kernel_replays(self):
        # a block replays bit for bit, and each of its rows is the curve of
        # its stream alone: a block of one gives the same bits
        cfg = SweepConfig(experiment="cmi-uncorrelated", seed=9, d=2, d_c=2)
        setup = {"draw": _cmi_draw, "times": np.linspace(0.0, np.pi / 2, 9)}
        (a,) = _curve_block(cfg, range(1, 5), **setup)
        (b,) = _curve_block(cfg, range(1, 5), **setup)
        assert a.shape == (4, 9)
        assert np.array_equal(a, b)
        (alone,) = _curve_block(cfg, range(2, 3), **setup)
        assert np.array_equal(alone[0], a[1])

    @pytest.mark.parametrize("first, violates", [(30, True), (33, False)])
    def test_violation_window_ends_just_past_the_direct_time(self, monkeypatch, first, violates):
        # at d = 2 the grid is k pi / 128; index 30 (T = 0.736) lies in
        # (0.9 arccos(1/sqrt 2), arccos(1/sqrt 2) + EARLY_SLACK], index 33
        # (T = 0.810) past it: a curve first at the level there violates or not
        def kernel(cfg, sids, *, draw, times, witness):
            curves = np.zeros((len(sids), len(times)))
            curves[:, first:] = 0.5
            return (curves,)

        monkeypatch.setattr(sweep, "_curve_block", kernel)
        rep = run_cmi_uncorrelated(SweepConfig(experiment="cmi-uncorrelated", n_instances=2,
                                               seed=3, workers=1))
        assert 0.9 * np.pi / 4 < rep.times[30] <= np.pi / 4 + 1e-3 < rep.times[33]
        want = [{"stream_id": sid, "T": float(rep.times[first]), "negativity": 0.5}
                for sid in range(2)]
        assert rep.violations == (want if violates else [])

    def test_extremes_recorded(self):
        cfg = SweepConfig(experiment="cmi-uncorrelated", n_instances=5, seed=3)
        rep = run_cmi_uncorrelated(cfg)
        ext = rep.extremes["max_negativity"]
        assert 0 <= ext["stream_id"] < 5
        assert ext["value"] <= 0.5 + 1e-9


def _cmi_pair(seed: int, sid: int, d: int, dc: int):
    """Stream ``sid``'s first cmi draw, in the kernel's order, as a coupling and a state."""
    stream = RngStream(seed, sid)
    ab = np.kron(haar_pure(d, stream), haar_pure(d, stream))
    rho_c = random_density(dc, stream)
    h = random_mediated_hamiltonian(d, d, dc, stream)
    return h, DensityState(h.layout, np.kron(np.outer(ab, ab.conj()), rho_c))


def _commuting_pair(seed: int, sid: int, d: int, dc: int, coupling=commuting_mediated):
    """Stream ``sid``'s first commuting-null draw, as a coupling and a state."""
    stream = RngStream(seed, sid)
    hs = [random_hermitian(dim, stream) for dim in (d, d, dc)]
    raw_w = stream.normals(4) ** 2
    rho_ab = sum(q * np.kron(random_density(d, stream), random_density(d, stream))
                 for q in raw_w / raw_w.sum())
    rho_c = random_density(dc, stream)
    h = coupling(*hs)
    return h, DensityState(h.layout, np.kron(rho_ab, rho_c))


def _negativity_reference(h, s0, grid, scale=True):
    """N_{A:B} on ``grid`` by evolve_unitary, ``h`` scaled by ``EnergyMoments.scale`` first."""
    if scale:
        h = h.scaled(energy_moments(h, s0).scale())
    return evolve_unitary(h, s0, grid, cut=AB_CUT).columns["negativity"]


class TestKernelsAgainstLibrary:
    """Block kernels against evolve_unitary + negativity(partial_trace)."""

    def test_cmi_curve(self):
        grid = TimeGrid(0.0, np.pi / 2, np.pi / 32)
        cfg = SweepConfig(experiment="cmi-uncorrelated", seed=5, d=2, d_c=3)
        [(curve,)] = _curve_block(cfg, range(1, 2), draw=_cmi_draw, times=grid.times)
        ref = _negativity_reference(*_cmi_pair(5, 1, 2, 3), grid)
        assert ref.max() > 1e-3
        np.testing.assert_allclose(curve, ref, rtol=0, atol=1e-12)

    def test_commuting_curve(self):
        grid = TimeGrid(0.0, 2.0, 1.0 / 16)
        cfg = SweepConfig(experiment="commuting-null", seed=8, d=2, d_c=2)
        [(curve,)] = _curve_block(cfg, range(3, 4), draw=_commuting_draw, times=grid.times)
        ref = _negativity_reference(*_commuting_pair(8, 3, 2, 2), grid)
        np.testing.assert_allclose(curve, ref, rtol=0, atol=1e-12)


def _block_run(monkeypatch, cfg: SweepConfig) -> dict:
    """Run ``cfg``'s experiment; return the block size, times and curves its ``_sweep`` gave,
    the curves copied before the report sorts them in place."""
    seen = {}
    original = sweep._sweep

    def recording(cfg, kernel, stack_bytes, kept_bytes, **setup):
        out = original(cfg, kernel, stack_bytes, kept_bytes, **setup)
        seen.update(block=max(1, sweep.BLOCK_BYTES // stack_bytes), times=setup["times"],
                    curves=out[0].copy())
        return out

    monkeypatch.setattr(sweep, "_sweep", recording)
    run_sweep(cfg)
    monkeypatch.setattr(sweep, "_sweep", original)
    return seen


class TestBlockPath:
    """The curve experiments in blocks of streams, against the library, stream by stream."""

    @pytest.mark.parametrize("experiment, d, dc", [
        ("cmi-uncorrelated", 2, 2), ("cmi-uncorrelated", 2, 3), ("cmi-uncorrelated", 3, 3),
        ("commuting-null", 2, 2)])
    def test_curves_match_the_reference(self, monkeypatch, experiment, d, dc):
        seed = 12
        block = _block_run(monkeypatch, SweepConfig(experiment, seed=seed, n_instances=1,
                                                    d=d, d_c=dc))["block"]
        assert block > 1
        # two full blocks and a partial one
        n = 2 * block + 3
        run = _block_run(monkeypatch, SweepConfig(experiment, seed=seed, n_instances=n,
                                                  d=d, d_c=dc))
        times, curves = run["times"], run["curves"]
        assert curves.shape == (n, len(times))
        grid = TimeGrid(0.0, times[-1], times[-1] / (len(times) - 1))
        assert len(grid) == len(times)
        for sid in range(n):
            if experiment == "commuting-null":
                ref = _negativity_reference(*_commuting_pair(seed, sid, d, dc), grid)
            elif sid == 0 and d == dc == 2:
                # the product-state witness, which the sweep does not rescale
                ref = _negativity_reference(*cmi_product_example(), grid, scale=False)
                assert ref[-1] == pytest.approx(0.5, abs=1e-8)
            else:
                ref = _negativity_reference(*_cmi_pair(seed, sid, d, dc), grid)
            np.testing.assert_allclose(curves[sid], ref, rtol=0, atol=1e-12)
        if experiment == "cmi-uncorrelated":
            assert curves.max() > 1e-2
        # each stream's bits are its own: the same in a run three times longer,
        # whose blocks are all full where this run's last one is partial
        longer = _block_run(monkeypatch, SweepConfig(experiment, seed=seed, n_instances=3 * n,
                                                     d=d, d_c=dc))["curves"]
        assert np.array_equal(longer[:n], curves)

    @pytest.mark.parametrize("d, n_times", [(2, None), (2, 40), (3, 700)])
    def test_smi_block_matches_its_one_stream_blocks(self, monkeypatch, d, n_times):
        # a block of smi streams, its peaks refined in one stacked golden
        # section, gives each stream the bits of its own one-stream block.
        # The setup is the run's own, the grid cut to n_times points and the
        # level lowered to 0.2 so that some streams cross it; the 40-point
        # grid peaks at its last point, a one-step bracket
        seen = {}
        original = sweep._smi_block
        monkeypatch.setattr(sweep, "_smi_block", lambda cfg, sids, **setup: (
            seen.update(setup) or original(cfg, sids, **setup)))
        cfg = SweepConfig("smi-protocol", seed=9, d=d, n_instances=1)
        run_smi_protocol(cfg)
        setup = {**seen, "times": seen["times"][:n_times], "level": 0.2}
        sids = range(3, 12)
        block = original(cfg, sids, **setup)
        assert [f.shape for f in block] == [(9,)] * 3 + [(9, len(setup["times"]))]
        for i, sid in enumerate(sids):
            one = original(cfg, range(sid, sid + 1), **setup)
            for field, row in zip(block, one):
                assert np.array_equal(field[i], row[0], equal_nan=True)
        crossings, _, _, curves = block
        if n_times == 40:
            assert (curves.argmax(axis=1) == 39).all()
        else:
            assert 0 < np.isnan(crossings).sum() < 9

    def test_smi_peaks_refined_on_both_sides_of_the_top_sample(self, monkeypatch):
        # each refined peak is the maximum of its instance's curve over the
        # grid steps around its top sample, wherever in them it lies: a
        # 201-point resample of that bracket finds nothing higher, and some
        # interior peaks lie before their top sample, some after it (two of
        # these twelve curves peak at the grid's last point)
        seen = {}
        original = sweep._smi_block
        monkeypatch.setattr(sweep, "_smi_block", lambda cfg, sids, **setup: (
            seen.update(setup) or original(cfg, sids, **setup)))
        cfg = SweepConfig("smi-protocol", seed=9, d=2, n_instances=1)
        run_smi_protocol(cfg)
        times, psi1 = seen["times"], seen["psi1"]
        sids = range(3, 15)
        _, peak_v, peak_t, curves = original(cfg, sids, **seen)
        k_scale, (h, _) = sweep._normalized_draws(
            cfg, sids, functools.partial(sweep._smi_draw, psi1=psi1))
        top = curves.argmax(axis=1)
        lo, hi = times[np.maximum(top - 1, 0)], times[np.minimum(top + 1, len(times) - 1)]
        for i, (one, k) in enumerate(zip(h, k_scale)):
            resampled = negativity_curve(one, psi1, k * np.linspace(lo[i], hi[i], 201), AB_CUT)
            # at the grid's end, where N still rises (at most at unit slope), golden
            # section stops within REFINE_TOL = 1e-9 of the resampled end point
            assert peak_v[i] >= resampled.max() - 1e-9
        inner = (0 < top) & (top < len(times) - 1)
        assert (peak_t < times[top])[inner].any() and (peak_t > times[top])[inner].any()

    def test_stationary_draw_refuses_the_run(self, monkeypatch):
        # stream `target`, in the middle block, is drawn with H = 1, so its
        # state is an eigenvector of H and does not move: the run refuses,
        # naming that stream, and a run of the streams before it is the same
        # as with nothing forced
        cfg = SweepConfig("cmi-uncorrelated", seed=4, n_instances=1, d=3)
        block = _block_run(monkeypatch, cfg)["block"]
        target = block + 1
        plain = _block_run(monkeypatch, SweepConfig("cmi-uncorrelated", seed=4,
                                                     n_instances=target, d=3))["curves"]
        _force_stationary(monkeypatch, target)
        with pytest.raises(StationaryStateError, match=f"^stream {target}: state is stationary"):
            run_cmi_uncorrelated(SweepConfig("cmi-uncorrelated", seed=4,
                                             n_instances=2 * block + 3, d=3))
        before = _block_run(monkeypatch, SweepConfig("cmi-uncorrelated", seed=4,
                                                      n_instances=target, d=3))["curves"]
        assert np.array_equal(before, plain)

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_stationary_draw_names_its_stream(self, monkeypatch, experiment):
        # every stream is drawn once: a block of streams 1..4 whose stream 3
        # is stationary refuses in each kernel, naming stream 3
        cfg = SweepConfig(experiment, seed=5, d=2)
        kernel, setup = _KERNELS[experiment](cfg)
        kernel(cfg, range(1, 5), **setup)
        _force_stationary(monkeypatch, 3)
        with pytest.raises(StationaryStateError, match="^stream 3: state is stationary"):
            kernel(cfg, range(1, 5), **setup)

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_no_draw_is_near_stationary(self, monkeypatch, experiment):
        # the refusal above is the whole of the stationary path because no
        # real draw comes near STATIONARY_TOL = 1e-12: these seed-7 draws of
        # each kernel's own draw function keep min{mean, std} at 0.418 or
        # more; 10^4 cmi draws (seed 7) and 1,000 commuting-null, 1,000
        # rate-zero and 200 smi draws (seeds 7 to 9), at d = 2 and 3, keep
        # it at 0.178 or more (commuting-null, d = 2, seed 8)
        smallest = []

        def record(cfg, sids, draw, **kwargs):
            k, drawn = original(cfg, sids, draw, **kwargs)
            smallest.append(float((1.0 / k).min()))
            raise _Drawn

        original = sweep._normalized_draws
        monkeypatch.setattr(sweep, "_normalized_draws", record)
        for d in (2, 3):
            cfg = SweepConfig(experiment, seed=7, d=d)
            kernel, setup = _KERNELS[experiment](cfg)
            with pytest.raises(_Drawn):
                kernel(cfg, range(200 if d == 2 else 100), **setup)
        assert min(smallest) >= 1e-2


class _Drawn(Exception):
    """Raised once a kernel's draws are made, to skip the rest of its work."""


# each experiment's block kernel and a small setup for it
_KERNELS = {
    "cmi-uncorrelated": lambda cfg: (_curve_block, {"draw": _cmi_draw,
                                                    "times": np.linspace(0.0, 1.0, 5)}),
    "rate-zero": lambda cfg: (_rate_block,
                              {"jumps": JumpOperatorSet.local(cfg.layout, "dephasing", 0.1)}),
    "smi-protocol": lambda cfg: (sweep._smi_block, {
        "psi1": haar_pure(cfg.layout.dim, RngStream(1, 0)), "times": np.linspace(0.0, 1.0, 5),
        "level": 0.5}),
    "commuting-null": lambda cfg: (_curve_block, {"draw": _commuting_draw,
                                                  "times": np.linspace(0.0, 1.0, 5)}),
}


def _force_stationary(monkeypatch, sid: int) -> None:
    """Make every kernel draw stream ``sid`` with H = 1, through ``_stationary_first``."""
    original = sweep._normalized_draws
    monkeypatch.setattr(sweep, "_normalized_draws", lambda cfg, sids, draw, **kwargs: original(
        cfg, sids, _stationary_first(draw, sid), **kwargs))


def _stationary_first(draw, sid: int):
    """``draw`` with H = 1 in the row of stream ``sid``, whose state then does not move."""
    def forced(cfg, streams):
        h, *rest = draw(cfg, streams)
        m = h.matrix.copy()
        for i, stream in enumerate(streams):
            if stream.stream_id == sid:
                m[i] = np.eye(h.layout.dim)
        return (Hamiltonian(h.layout, m), *rest)

    return forced


class TestWorkerDeterminism:
    # enough instances for four blocks or more, so that two workers share a
    # real pool: a rate-zero block holds 28 instances at d = 2, an
    # smi-protocol block 31
    N_POOLED = {"cmi-uncorrelated": 100, "rate-zero": 100, "smi-protocol": 130,
                "commuting-null": 50}

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_report_bytes_identical(self, tmp_path, monkeypatch, experiment):
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        outputs = []
        for workers in (1, 2):
            rep = run_sweep(SweepConfig(experiment=experiment, seed=21, workers=workers,
                                        n_instances=self.N_POOLED[experiment]))
            rep.save_json(tmp_path / f"w{workers}.json")
            rep.save_envelope_csv(tmp_path / f"w{workers}.csv")
            outputs.append([(tmp_path / f"w{workers}.{ext}").read_bytes()
                            for ext in ("json", "csv")])
        assert pools == [2]
        assert outputs[0] == outputs[1]


class TestWorkerResolution:
    def test_env_var_fallback(self, monkeypatch):
        # the environment is read once, when the config is built
        monkeypatch.delenv("MEDQSL_WORKERS", raising=False)
        assert SweepConfig(experiment="rate-zero").workers == 1
        for value, want in (("3", 3), ("0", 1), (" 2 ", 2), ("", 1)):
            monkeypatch.setenv("MEDQSL_WORKERS", value)
            assert SweepConfig(experiment="rate-zero").workers == want
        cfg = SweepConfig(experiment="rate-zero")
        monkeypatch.setenv("MEDQSL_WORKERS", "3")
        assert cfg.workers == 1
        # explicit setting beats the environment
        assert SweepConfig(experiment="rate-zero", workers=2).workers == 2
        for bad in ("abc", "-5", "2.5"):
            monkeypatch.setenv("MEDQSL_WORKERS", bad)
            with pytest.raises(ValueError, match=f"MEDQSL_WORKERS must be .*{bad!r}"):
                SweepConfig(experiment="rate-zero")
        # a given count is an integer, never text: only the environment is parsed
        for bad in (-5, 2.5, "2", " 3 "):
            with pytest.raises(ValueError, match=f"^workers must be .*{bad!r}"):
                SweepConfig(experiment="rate-zero", workers=bad)

    def test_pool_clamped_to_cpus(self, monkeypatch):
        # a stub pool records its size, its chunk and the blocks it was
        # given and runs in-process, so no worker process is ever started here
        sizes, chunks, given = [], [], []

        class StubPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                chunks.append(chunksize)
                given.append(list(items))
                return map(fn, given[-1])

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)

        def kernel(cfg, sids, *, step):
            return (step * np.array(sids),)

        cfg = SweepConfig("rate-zero", seed=1, n_instances=10_000, workers=4000)
        (fields,) = sweep._sweep(cfg, kernel, sweep.BLOCK_BYTES // 7, 8, step=2)
        assert fields.tolist() == list(range(0, 20_000, 2))
        # 1,429 blocks of 7 streams, the last of 4, in chunks of a twelfth of
        # the blocks: three workers, four chunks each
        [blocks] = given
        assert blocks[:2] == [range(0, 7), range(7, 14)] and blocks[-1] == range(9996, 10_000)
        assert len(blocks) == 1429
        assert sizes == [3] and chunks == [120]
        # fewer cpus than requested workers can mean no pool at all
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 1)
        cfg = SweepConfig("rate-zero", seed=1, n_instances=50, workers=4)
        (fields,) = sweep._sweep(cfg, kernel, sweep.BLOCK_BYTES // 7, 8, step=3)
        assert fields.tolist() == list(range(0, 150, 3))
        assert sizes == [3]
        # and so can too few blocks for two per worker: 50 streams in 8 blocks
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
        cfg = SweepConfig("rate-zero", seed=1, n_instances=50, workers=5)
        (fields,) = sweep._sweep(cfg, kernel, sweep.BLOCK_BYTES // 7, 8, step=1)
        assert fields.tolist() == list(range(50)) and sizes == [3]


# each experiment's block kernel, by its name in sweep
_KERNEL_NAMES = {"cmi-uncorrelated": "_curve_block", "rate-zero": "_rate_block",
                 "smi-protocol": "_smi_block", "commuting-null": "_curve_block"}

# the bytes an instance keeps at d = 2 once its blocks are done, as _sweep counts them:
# its fields' rows, the (n, ...) masks and differences of its verdicts, and the 8 bytes
# of the column the report's sort buffers
_KEPT = {"cmi-uncorrelated": 8 * 65 + 2 * 65 + 25 + 8, "rate-zero": 24 + 8 + 4 + 16 + 9 + 8,
         "smi-protocol": 8 * (2048 + 3) + 9 + 2 + 9 + 8, "commuting-null": 17 * 33 + 25 + 8}


class TestInstanceCap:
    """An n whose instances keep more than MAX_KEPT_BYTES is refused first."""

    @pytest.mark.parametrize("experiment, n_times", [
        ("cmi-uncorrelated", 65), ("rate-zero", 1), ("smi-protocol", 2048),
        ("commuting-null", 33)])
    def test_refused_before_any_block(self, monkeypatch, experiment, n_times):
        # each instance keeps at least the n_times float64 values of its report
        kept = _KEPT[experiment]
        assert kept >= 8 * n_times
        monkeypatch.setattr(sweep, _KERNEL_NAMES[experiment], _refuse)
        monkeypatch.setattr(sweep, "_normalized_draws", _refuse)
        with pytest.raises(ValueError, match=rf"^n = {10 ** 12} instances keep {kept} bytes "
                                             rf"each, .* the largest n allowed is "
                                             rf"{2 ** 31 // kept}$"):
            run_sweep(SweepConfig(experiment, n_instances=10 ** 12))

    def test_cap_is_inclusive(self, monkeypatch):
        # rate-zero keeps 69 bytes per instance: its three fields, 37 bytes of verdicts
        # and the report's sort column
        cfg = SweepConfig("rate-zero", n_instances=3, seed=2)
        monkeypatch.setattr(sweep, "MAX_KEPT_BYTES", 3 * 69)
        assert run_rate_zero(cfg).config["n_instances"] == 3
        monkeypatch.setattr(sweep, "MAX_KEPT_BYTES", 3 * 69 - 1)
        monkeypatch.setattr(sweep, "_rate_block", _refuse)
        with pytest.raises(ValueError, match=r"^n = 3 instances keep 69 bytes each, .* "
                                             r"the largest n allowed is 2$"):
            run_rate_zero(cfg)


def _refuse(*args, **kwargs):
    raise AssertionError("reached a block")


def _traced_peak(fn, *args, **kwargs) -> int:
    """The peak traced memory of ``fn(*args, **kwargs)``, the collector held off."""
    collecting = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()


def _replay(rows: tuple, served: set, cfg, sids, **setup) -> tuple:
    """A block kernel that gives stream i row i % k of ``rows``, the fields of k real
    instances, and adds each block's size to ``served``, which grows with no block."""
    served.add(len(sids))
    pick = np.arange(sids.start, sids.stop) % len(rows[0])
    # from a list, whose tuple is made at its size: a tuple grown from a generator is
    # resized, and each one freed would join the interpreter's free list, read as kept
    return tuple([f[pick] for f in rows])


# the cap at which each experiment's largest admitted run is traced, and the fixed slack
# that dynamics.MAX_KEPT_BYTES's comment states
_TRACED_CAP = 2 ** 20
_SLACK = 2 ** 18


class TestKeptMemory:
    def test_sweep_keeps_its_fields_not_its_block_results(self):
        # each block's rows are written into the (n, ...) field arrays as the
        # block arrives, so 400 one-instance blocks keep their three floats each:
        # 24 bytes, which the traced difference reads, where the bound allows four
        # times 24; a sweep that kept every block's result tuple until the end read
        # some 470.  Each block replays the rate-zero fields of one of four real
        # instances, as the largest admitted runs do.
        # Two untraced runs first bring the interpreter's caches to steady state,
        # and the collector is held off throughout: a full collection empties the
        # free lists, whose refill would read as kept memory
        n = 400
        cfg = SweepConfig("rate-zero", seed=3, n_instances=n, workers=1)
        jumps = JumpOperatorSet.local(cfg.layout, cfg.jump_type, sweep.JUMP_RATE)
        served = set()
        replay = functools.partial(_replay, _rate_block(cfg, range(4), jumps=jumps), served)
        # one instance a block, keeping its three fields
        args = (replay, sweep.BLOCK_BYTES, 24)
        gc.disable()
        try:
            for _ in range(2):
                sweep._sweep(cfg, *args)
            one = _traced_peak(sweep._sweep, dataclasses.replace(cfg, n_instances=1), *args)
            many = _traced_peak(sweep._sweep, cfg, *args)
        finally:
            gc.enable()
        assert served == {1}
        assert many - one < 4 * 3 * 8 * n

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_largest_admitted_run_peaks_within_its_count(self, monkeypatch, experiment, d):
        # at a cap of 1 MiB, the largest n the cap admits peaks within n times the
        # bytes each instance keeps, plus one block and the fixed slack: no copy of
        # the kept values, no verdict array left uncounted and no block result kept
        # into the next block.  The next n is refused before any draw.  Real
        # instances take seconds at this n, so each block replays the fields of four
        # real ones; the kernels' own peaks are measured against BLOCK_BYTES apart
        name = _KERNEL_NAMES[experiment]
        cfg = SweepConfig(experiment, seed=7, d=d, n_instances=1, workers=1)
        seen, kernel = {}, getattr(sweep, name)
        monkeypatch.setattr(sweep, name, lambda cfg, sids, **setup: (
            seen.update(setup) or kernel(cfg, sids, **setup)))
        run_sweep(cfg)
        served = set()
        replay = functools.partial(_replay, kernel(cfg, range(4), **seen), served)
        monkeypatch.setattr(sweep, name, replay)
        monkeypatch.setattr(sweep, "MAX_KEPT_BYTES", _TRACED_CAP)
        with pytest.raises(ValueError) as refused:
            run_sweep(dataclasses.replace(cfg, n_instances=10 ** 12))
        kept, n = map(int, re.search(r"keep (\d+) bytes each, .* allowed is (\d+)$",
                                     str(refused.value)).groups())
        run_sweep(dataclasses.replace(cfg, n_instances=min(n, 64)))
        peak = _traced_peak(run_sweep, dataclasses.replace(cfg, n_instances=n))
        block = _traced_peak(replay, cfg, range(max(served)), **seen)
        assert n * kept <= _TRACED_CAP and peak <= n * kept + block + _SLACK, (peak, n * kept)
        monkeypatch.setattr(sweep, name, _refuse)
        monkeypatch.setattr(sweep, "_normalized_draws", _refuse)
        with pytest.raises(ValueError, match=rf"^n = {n + 1} instances keep {kept} bytes"):
            run_sweep(dataclasses.replace(cfg, n_instances=n + 1))

    @pytest.mark.parametrize("d, instances", [(2, 28), (3, 2)])
    def test_rate_block_stays_near_its_budget(self, monkeypatch, d, instances):
        # a rate-zero block is sized by what its open probe holds, the
        # factors of L and their product with the (B, n, n) stacks beside
        # them: 0.51 MiB at d = 2 and 0.44 MiB at d = 3.  Sized by the
        # factors and product alone, 64 and 5 instances peaked at 1.16 and
        # 1.05 MiB
        seen = {}
        original = sweep._sweep

        def recording(cfg, kernel, stack_bytes, kept_bytes, **setup):
            seen.update(block=max(1, sweep.BLOCK_BYTES // stack_bytes), setup=setup)
            return original(cfg, kernel, stack_bytes, kept_bytes, **setup)

        monkeypatch.setattr(sweep, "_sweep", recording)
        cfg = SweepConfig("rate-zero", seed=7, n_instances=1, d=d, workers=1)
        run_sweep(cfg)
        assert seen["block"] == instances
        sids = range(seen["block"])
        _rate_block(cfg, sids, **seen["setup"])
        assert _traced_peak(_rate_block, cfg, sids, **seen["setup"]) <= 2 * sweep.BLOCK_BYTES


class TestReportSerialization:
    def test_wall_clock_not_in_json(self, tmp_path):
        rep = run_rate_zero(
            SweepConfig(experiment="rate-zero", n_instances=3, seed=2)
        )
        d = rep.to_json_dict()
        flat = json.dumps(d)
        assert "wall_clock" not in flat
        p = tmp_path / "r.json"
        rep.save_json(p)
        loaded = json.loads(p.read_text())
        assert loaded == d

    def test_report_text_is_json_dumps(self, tmp_path):
        # an smi report: long float lists, a None detail, nested dicts
        rep = run_smi_protocol(SweepConfig("smi-protocol", n_instances=3, seed=2))
        rep.save_json(tmp_path / "r.json")
        doc = rep.to_json_dict()
        assert doc["details"]["best_stage2_time"] is None
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "r.json").read_text() == want

    def test_envelope_p99_is_the_99th_percentile(self):
        # 100 rows, so the 0.95 and 0.99 quantiles of each column differ
        m = np.arange(300.0).reshape(3, 100).T ** 2
        rep = sweep._report(SweepConfig(experiment="cmi-uncorrelated", n_instances=100),
                            np.arange(3.0), m, {}, [], {})
        assert np.array_equal(rep.envelope["p99"], np.quantile(m, 0.99, axis=0))
        assert not np.array_equal(rep.envelope["p99"], np.quantile(m, 0.95, axis=0))
        assert np.array_equal(rep.envelope["max"], m[-1])

    def test_envelope_p99_has_the_bits_of_np_quantile(self):
        # numpy's linear rule, both sides of t = 0.5, at every n up to 300, ties included
        rng = np.random.default_rng(3)
        for n in range(1, 301):
            m = rng.standard_normal((n, 3)) ** 2
            m[:, 2] = np.round(m[:, 2], 1)
            want = np.quantile(m, 0.99, axis=0)
            assert sweep._p99(m).tobytes() == want.tobytes(), n

    def test_envelope_csv_format(self, tmp_path):
        rep = run_rate_zero(
            SweepConfig(experiment="rate-zero", n_instances=3, seed=2)
        )
        p = tmp_path / "env.csv"
        rep.save_envelope_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "T,max,mean,p99"
        assert len(lines) == 1 + len(rep.times)
        first = lines[1].split(",")
        assert float(first[0]) == rep.times[0]


def _recorded(monkeypatch, kernel: str, pick) -> dict:
    """Wrap the block kernel ``kernel``; return ``{stream_id: its row of pick(fields)}``."""
    seen = {}
    original = getattr(sweep, kernel)

    def recording(cfg, sids, **setup):
        out = original(cfg, sids, **setup)
        seen.update(zip(sids, pick(out)))
        return out

    monkeypatch.setattr(sweep, kernel, recording)
    return seen


class TestRateZero:
    def test_small_run(self):
        cfg = SweepConfig(experiment="rate-zero", n_instances=10, seed=6)
        rep = run_rate_zero(cfg)
        assert rep.violations == []
        assert rep.details["max_abs_closed_change"] <= 1e-6
        assert rep.details["max_open_change"] <= 1e-8
        # the direct-coupling control must register an actual increase
        assert rep.details["direct_control_change"] > 1e-6

    def test_bad_jumps_fail_before_any_draw(self, monkeypatch):
        # the jump set is built once, up front: no pool, no instance
        def refuse(*args, **kwargs):
            raise AssertionError("reached the instances")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(sweep, "_rate_block", refuse)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sweep, "JUMP_RATE", -1.0)
        with pytest.raises(ValueError, match="rate '-1.0'"):
            run_rate_zero(SweepConfig("rate-zero", d=3, n_instances=100, workers=2))

    def test_forced_violations_match_instance_loop(self, monkeypatch):
        # with each tolerance at the median change of a first run, about half
        # the instances violate it, closed before open within a stream
        cfg = SweepConfig(experiment="rate-zero", n_instances=6, seed=6)
        changes = _recorded(monkeypatch, "_rate_block", lambda out: zip(out[0], out[1]))
        run_rate_zero(cfg)
        closed, open_ = (np.array([changes[sid][k] for sid in range(cfg.n_instances)]) for k in (0, 1))
        monkeypatch.setattr(sweep, "CLOSED_RATE_TOL", float(np.median(np.abs(closed))))
        monkeypatch.setattr(sweep, "OPEN_RATE_TOL", float(np.median(open_)))
        rep = run_rate_zero(cfg)
        expected = []
        for sid in range(cfg.n_instances):
            if abs(closed[sid]) > sweep.CLOSED_RATE_TOL:
                expected.append({"stream_id": sid, "kind": "closed",
                                 "delta_negativity": float(closed[sid])})
            if open_[sid] > sweep.OPEN_RATE_TOL:
                expected.append({"stream_id": sid, "kind": "open",
                                 "delta_negativity": float(open_[sid])})
        assert {v["kind"] for v in expected} == {"closed", "open"}
        assert rep.violations == expected

    @pytest.mark.parametrize("d, jump_type", [(2, "dephasing"), (2, "damping"), (3, "damping")])
    def test_rate_block_matches_its_one_stream_blocks(self, d, jump_type):
        # each probe's one stacked application of L and stacked eigensolves
        # give each stream of a block the bits of its own one-stream block
        cfg = SweepConfig("rate-zero", seed=4, d=d, jump_type=jump_type)
        jumps = JumpOperatorSet.local(cfg.layout, jump_type, sweep.JUMP_RATE)
        block = _rate_block(cfg, range(2, 13), jumps=jumps)
        assert [f.shape for f in block] == [(11,)] * 3
        for i, sid in enumerate(range(2, 13)):
            one = _rate_block(cfg, range(sid, sid + 1), jumps=jumps)
            assert [f[i] for f in block] == [f[0] for f in one]

    def test_lost_positivity_names_its_stream(self, rk4_stepper):
        # at rate x step = 1 one RK4 substep over the step overshoots.  The
        # probe takes no step, so the block gives every stream its rate, none
        # positive; a run of stream 3's instance stepped over it refuses,
        # naming its T
        cfg, step = SweepConfig("rate-zero", seed=5, d=2), 1e-4
        jumps = JumpOperatorSet.local(cfg.layout, "damping", 1e4)
        dn_open = _rate_block(cfg, range(3, 7), jumps=jumps)[1]
        assert np.isfinite(dn_open).all() and (dn_open <= sweep.OPEN_RATE_TOL).all()
        k_scale, (h, rho0, _) = sweep._normalized_draws(cfg, range(3, 4), sweep._rate_draw,
                                                        density=True)
        (one,) = h.scaled(k_scale)
        with pytest.raises(PositivityLostError, match=r"^minimum eigenvalue .* at T=0\.0001; "):
            evolve_lindblad(one, DensityState(cfg.layout, rho0[0]),
                            TimeGrid(0.0, step, step), jumps)

    def test_damping_channel(self):
        cfg = SweepConfig(
            experiment="rate-zero", n_instances=5, seed=6, jump_type="damping"
        )
        rep = run_rate_zero(cfg)
        assert rep.violations == []


class TestFig2:
    def test_signature_and_range(self):
        traj = run_fig2(3)
        assert isinstance(traj, Trajectory)
        with pytest.raises(BadDimensionError):
            run_fig2(1)
        with pytest.raises(BadDimensionError):
            run_fig2(7)

    def test_closed_form_match(self):
        grid = TimeGrid(0.0, np.pi / 2, 1e-2)
        traj = run_fig2(4, grid=grid)
        t = np.asarray(traj.times)
        expected = ((np.cos(t) + np.sqrt(3) * np.sin(t)) ** 2 - 1) / 2
        np.testing.assert_allclose(traj.column("negativity"), expected, atol=1e-8)


class TestSmiProtocol:
    def test_range_check(self):
        with pytest.raises(BadDimensionError):
            run_smi_protocol(SweepConfig(experiment="smi-protocol", d=5))
        # d = 1 never gets as far as the protocol
        with pytest.raises(ValueError):
            SweepConfig(experiment="smi-protocol", d=1)

    def test_mediator_is_d_dimensional(self):
        # the protocol swaps through C:d, so another d_c is refused, not echoed
        with pytest.raises(ValueError, match="d_c=3"):
            SweepConfig(experiment="smi-protocol", d=2, d_c=3)
        cfg = SweepConfig(experiment="smi-protocol", d=2, d_c=2, n_instances=1)
        assert run_smi_protocol(cfg).config["d_c"] == 2

    def test_small_run(self):
        cfg = SweepConfig(experiment="smi-protocol", d=2, n_instances=6, seed=13)
        rep = run_smi_protocol(cfg)
        assert rep.violations == []
        assert abs(rep.details["stage1_time"] - np.pi / 4) < 1e-12
        assert abs(rep.details["stage2_bound"] - np.pi / 3) < 1e-12
        assert rep.details["stage2_attainments"] == 0


    def test_forced_attainment_is_reported(self, monkeypatch):
        # with the attain level lowered to 0.2 some draws reach it: the
        # fastest is the extreme, and its time the best stage-two time
        monkeypatch.setattr(sweep, "ATTAIN_SLACK", 0.3)
        crossings = _recorded(monkeypatch, "_smi_block", lambda out: out[0])
        cfg = SweepConfig(experiment="smi-protocol", d=2, n_instances=6, seed=13)
        rep = run_smi_protocol(cfg)
        reached = {sid: t for sid, t in crossings.items() if not np.isnan(t)}
        assert 2 <= len(reached) == rep.details["stage2_attainments"]
        best = min(reached, key=reached.get)
        assert rep.extremes["fastest_attainment"] == {"stream_id": best, "T": reached[best]}
        assert rep.details["best_stage2_time"] == reached[best]


class TestCommutingNull:
    def test_small_run(self):
        cfg = SweepConfig(experiment="commuting-null", n_instances=12, seed=8)
        rep = run_commuting_null(cfg)
        assert rep.violations == []
        assert rep.details["max_excess"] <= 1e-10
        # the correlated-mediator control evolved under the same commuting
        # coupling does generate entanglement
        assert rep.details["correlated_control_max"] > 0.4

    def test_forced_violations_match_instance_loop(self, monkeypatch):
        # a strong direct A-B term entangles the purer separable inputs
        x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
        direct = 10 * np.kron(np.kron(x, x) + np.kron(z, z), np.eye(2))

        def with_direct_term(h_a, h_b, h_c):
            h = commuting_mediated(h_a, h_b, h_c)
            return Hamiltonian(h.layout, h.matrix + direct)

        monkeypatch.setattr(sweep, "commuting_mediated", with_direct_term)
        cfg = SweepConfig(experiment="commuting-null", n_instances=10, seed=8)
        rep = run_commuting_null(cfg)
        expected = []
        for sid in range(cfg.n_instances):
            [(curve,)] = _curve_block(cfg, range(sid, sid + 1), draw=_commuting_draw,
                                      times=rep.times)
            for k, value in enumerate(curve - curve[0]):
                if value > 1e-10:
                    expected.append({"stream_id": sid, "T": float(rep.times[k]),
                                     "excess": float(value)})
                    break
        assert len(expected) >= 4
        assert rep.violations == expected


class TestDispatch:
    def test_run_sweep_routes(self):
        rep = run_sweep(SweepConfig(experiment="rate-zero", n_instances=2, seed=1))
        assert rep.config["experiment"] == "rate-zero"
        # fig2 is a trajectory, run through run_fig2, not a sweep
        with pytest.raises(ValueError, match="experiment"):
            SweepConfig(experiment="fig2")
