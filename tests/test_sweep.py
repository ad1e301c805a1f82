"""Monte-Carlo harness tests.

Experiment runs here use small instance counts; the full-scale sweeps live
in the acceptance suite. What we pin down here is the reporting contract,
determinism across worker counts, and the per-experiment wiring.
"""

import json

import numpy as np
import pytest

from medqsl import (
    BadDimensionError,
    Bipartition,
    DensityState,
    Hamiltonian,
    ObserveConfig,
    RngStream,
    SweepConfig,
    SweepReport,
    TimeGrid,
    Trajectory,
    commuting_mediated,
    evolve_unitary,
    haar_pure,
    random_density,
    random_hermitian,
    random_mediated_hamiltonian,
    resource_equality_scale,
    run_cmi_uncorrelated,
    run_commuting_null,
    run_fig2,
    run_rate_zero,
    run_smi_protocol,
    run_sweep,
)
from medqsl import sweep
from medqsl.dynamics import JUMP_KINDS
from medqsl.sweep import _cmi_instance, _commuting_instance


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
        with pytest.raises(ValueError, match="'thermal'; choices: .*none.*dephasing"):
            SweepConfig(experiment="rate-zero", jump_type="thermal")

    def test_jump_types_are_none_and_the_kinds(self):
        for jump_type in ("none", *JUMP_KINDS):
            assert SweepConfig(experiment="rate-zero", jump_type=jump_type).jump_type == jump_type

    def test_defaults_fill_in(self):
        cfg = SweepConfig(experiment="cmi-uncorrelated")
        assert cfg.n == 10_000
        assert cfg.mediator_dim == 2
        cfg2 = SweepConfig(experiment="rate-zero", n_instances=17, d_c=3)
        assert cfg2.n == 17
        assert cfg2.mediator_dim == 3


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
        rc = {"seed": 3, "d": 2, "d_c": 2, "times": rep.times, "witness": True}
        expected = []
        for sid in range(cfg.n):
            curve, _ = _cmi_instance(rc, sid)
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
        rc = {
            "seed": 9, "d": 2, "d_c": 2,
            "times": np.linspace(0.0, np.pi / 2, 9),
            "witness": False,
        }
        a, ra = _cmi_instance(rc, 2)
        b, rb = _cmi_instance(rc, 2)
        assert np.array_equal(a, b)
        assert ra == rb

    def test_extremes_recorded(self):
        cfg = SweepConfig(experiment="cmi-uncorrelated", n_instances=5, seed=3)
        rep = run_cmi_uncorrelated(cfg)
        ext = rep.extremes["max_negativity"]
        assert 0 <= ext["stream_id"] < 5
        assert ext["value"] <= 0.5 + 1e-9


class TestKernelsAgainstLibrary:
    """Instance kernels against evolve_unitary + negativity(partial_trace)."""

    AB = ObserveConfig(cut=Bipartition(("A",), ("B",)))

    def _reference(self, h, s0, grid):
        h, _ = resource_equality_scale(h, s0)
        return evolve_unitary(h, s0, grid, self.AB).columns["negativity"]

    def test_cmi_curve(self):
        grid = TimeGrid(0.0, np.pi / 2, np.pi / 32)
        rc = {"seed": 5, "d": 2, "d_c": 3, "times": grid.times, "witness": False}
        curve, redraws = _cmi_instance(rc, 1)
        assert redraws == 0
        # the same draws, in the kernel's order
        stream = RngStream(5, 1)
        ab = np.kron(haar_pure(2, stream), haar_pure(2, stream))
        rho_c = random_density(3, stream)
        h = random_mediated_hamiltonian(2, 2, 3, stream)
        s0 = DensityState(h.layout, np.kron(np.outer(ab, ab.conj()), rho_c))
        ref = self._reference(h, s0, grid)
        assert ref.max() > 1e-3
        np.testing.assert_allclose(curve, ref, rtol=0, atol=1e-12)

    def test_commuting_curve(self):
        grid = TimeGrid(0.0, 2.0, 1.0 / 16)
        rc = {"seed": 8, "d": 2, "d_c": 2, "times": grid.times}
        curve, redraws = _commuting_instance(rc, 3)
        assert redraws == 0
        stream = RngStream(8, 3)
        hs = [random_hermitian(dim, stream) for dim in (2, 2, 2)]
        raw_w = stream.normals(4) ** 2
        rho_ab = sum(q * np.kron(random_density(2, stream), random_density(2, stream))
                     for q in raw_w / raw_w.sum())
        rho_c = random_density(2, stream)
        h = commuting_mediated(*hs)
        s0 = DensityState(h.layout, np.kron(rho_ab, rho_c))
        np.testing.assert_allclose(curve, self._reference(h, s0, grid), rtol=0, atol=1e-12)


class TestWorkerDeterminism:
    def test_json_bytes_identical(self, tmp_path):
        rep1 = run_cmi_uncorrelated(
            SweepConfig(experiment="cmi-uncorrelated", n_instances=6, seed=21,
                        workers=1)
        )
        rep2 = run_cmi_uncorrelated(
            SweepConfig(experiment="cmi-uncorrelated", n_instances=6, seed=21,
                        workers=2)
        )
        p1 = tmp_path / "w1.json"
        p2 = tmp_path / "w2.json"
        rep1.save_json(p1)
        rep2.save_json(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_bytes_identical(self, tmp_path):
        rep1 = run_rate_zero(
            SweepConfig(experiment="rate-zero", n_instances=6, seed=4, workers=1)
        )
        rep2 = run_rate_zero(
            SweepConfig(experiment="rate-zero", n_instances=6, seed=4, workers=3)
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        rep1.save_envelope_csv(p1)
        rep2.save_envelope_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestWorkerResolution:
    def test_env_var_fallback(self, monkeypatch):
        cfg = SweepConfig(experiment="rate-zero")
        monkeypatch.delenv("MEDQSL_WORKERS", raising=False)
        assert cfg.resolved_workers() == 1
        monkeypatch.setenv("MEDQSL_WORKERS", "3")
        assert cfg.resolved_workers() == 3
        # explicit setting beats the environment
        assert SweepConfig(experiment="rate-zero", workers=2).resolved_workers() == 2
        for bad in ("abc", "-5", "2.5"):
            monkeypatch.setenv("MEDQSL_WORKERS", bad)
            with pytest.raises(ValueError, match="MEDQSL_WORKERS"):
                cfg.resolved_workers()
        for bad in (-5, 2.5):
            with pytest.raises(ValueError, match="workers"):
                SweepConfig(experiment="rate-zero", workers=bad).resolved_workers()

    def test_pool_clamped_to_cpus(self, monkeypatch):
        # a stub pool records its size and runs chunks in-process, so no
        # worker process is ever started here
        sizes = []

        class StubPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        kernel = lambda rc, sid: sid  # noqa: E731
        assert sweep._run_instances(kernel, {}, 10_000, 4000) == list(range(10_000))
        assert sizes == [3]
        # fewer cpus than requested workers can mean no pool at all
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 1)
        assert sweep._run_instances(kernel, {}, 50, 4) == list(range(50))
        assert sizes == [3]


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

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(sweep, "_rate_instance", refuse)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sweep, "JUMP_RATE", -1.0)
        with pytest.raises(ValueError, match="rate '-1.0'"):
            run_rate_zero(SweepConfig("rate-zero", d=3, n_instances=100, workers=2))

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
        rc = {"seed": 8, "d": 2, "d_c": 2, "times": rep.times}
        expected = []
        for sid in range(cfg.n):
            curve, _ = _commuting_instance(rc, sid)
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
