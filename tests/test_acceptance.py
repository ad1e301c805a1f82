"""Acceptance gate: one test per shipped claim, names carry the numbering.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; ``-s`` additionally prints each criterion's headline number.
The heavyweight sweeps (10^4 instances) live in criterion 7 and take a
couple of minutes single-worker; everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

import test_properties as props
from medqsl import (
    Bipartition,
    DensityState,
    SweepConfig,
    TimeGrid,
    builtin_pair,
    direct_optimal,
    energy_moments,
    evolve_unitary,
    first_max_entanglement_time,
    mutual_information,
    negativity,
    is_classically_correlated_on,
    partial_trace,
    purity,
    run_cmi_uncorrelated,
    run_commuting_null,
    run_fig2,
    run_rate_zero,
    run_smi_protocol,
    smi_bound,
    swap_stage_fidelity,
)

AB = Bipartition(("A",), ("B",))
AB_C = Bipartition(("A", "B"), ("C",))


def _ket00(ham):
    v = np.zeros(ham.layout.dim)
    v[0] = 1.0
    return DensityState.from_pure(ham.layout, v)


def _passline(n, note):
    print(f"criterion {n}: PASS - {note}")


def test_criterion_01_fig2_closed_form():
    t0 = time.perf_counter()
    for d in (2, 3, 4, 5):
        traj = run_fig2(d)
        t = np.asarray(traj.times)
        expected = ((np.cos(t) + math.sqrt(d - 1) * np.sin(t)) ** 2 - 1) / 2
        err = np.abs(traj.column("negativity") - expected).max()
        assert err < 1e-8, (d, err)
        t_peak = first_max_entanglement_time(
            direct_optimal(d), _ket00(direct_optimal(d)), AB, horizon=2.0
        )
        assert t_peak is not None, d
        assert abs(t_peak - math.acos(1 / math.sqrt(d))) < 1e-6, (d, t_peak)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    _passline(1, f"four dimensions in {elapsed:.1f}s")


def test_criterion_02_resource_equality():
    cases = [("direct-optimal |00>", direct_optimal(2), None)]
    for name in ("cmi-product", "cmi-entangled", "cmi-classical"):
        ham, s0 = builtin_pair(name)
        cases.append((name, ham, s0))
    for name, ham, s0 in cases:
        if s0 is None:
            s0 = _ket00(ham)
        em = energy_moments(ham, s0)
        assert abs(em.smaller - 1.0) < 1e-10, (name, em.smaller)
    _passline(2, "min{mean, std} = 1 on all four pairs")


def test_criterion_03_entangled_mediator():
    ham, s0 = builtin_pair("cmi-entangled")
    assert abs(negativity(s0, AB_C) - 0.5) < 1e-10
    traj = evolve_unitary(ham, s0, TimeGrid(0.0, math.pi / 4, 1e-3))
    t = np.asarray(traj.times)
    err = np.abs(traj.column("negativity") - 0.5 * np.sin(2 * t)).max()
    assert err < 1e-8, err
    _passline(3, "N_AB:C(0) = 1/2 and N_A:B tracks sin(2T)/2")


def test_criterion_04_classical_mediator():
    ham, s0 = builtin_pair("cmi-classical")
    assert abs(mutual_information(s0, AB_C) - 1.0) < 1e-8
    traj = evolve_unitary(ham, s0, TimeGrid(0.0, math.pi / 4, math.pi / 8))
    assert len(traj.states) == 3
    for state in traj.states:
        assert is_classically_correlated_on(state, "C")
    marg0 = partial_trace(traj.states[0], ("A", "B"))
    marg1 = partial_trace(traj.states[-1], ("A", "B"))
    assert abs(purity(marg0) - 0.5) < 1e-8
    assert abs(purity(marg1) - 1.0) < 1e-8
    assert abs(negativity(marg1, AB) - 0.5) < 1e-8
    _passline(4, "classical on C throughout, purity 1/2 -> 1, N(pi/4) = 1/2")


def test_criterion_05_open_system():
    ham, s0 = builtin_pair("open-system")
    traj = evolve_unitary(ham, s0, TimeGrid(0.0, math.pi / 4, math.pi / 8))
    mi = [
        mutual_information(partial_trace(s, ("A", "B")), AB)
        for s in (traj.states[0], traj.states[-1])
    ]
    assert abs(mi[0] - 1.0) < 1e-8, mi
    assert abs(mi[1] - 2.0) < 1e-8, mi
    marg = partial_trace(traj.states[-1], ("A", "B"))
    assert abs(negativity(marg, AB) - 0.5) < 1e-8
    _passline(5, "I_A:B goes 1 -> 2 bits and N(pi/4) = 1/2")


def test_criterion_06_cmi_product_timing():
    ham, s0 = builtin_pair("cmi-product")
    t_peak = first_max_entanglement_time(ham, s0, AB, horizon=2.0)
    assert t_peak is not None
    assert abs(t_peak - math.pi / 2) < 1e-6, t_peak
    traj = evolve_unitary(ham, s0, TimeGrid(0.0, math.pi / 4, math.pi / 8))
    assert traj.column("negativity")[-1] < 0.4
    _passline(6, "first max at pi/2, quarter-time value below 0.4")


def test_criterion_07_uncorrelated_mediator_sweeps():
    t0 = time.perf_counter()
    rep2 = run_cmi_uncorrelated(
        SweepConfig(experiment="cmi-uncorrelated", d=2, n_instances=10_000, seed=7)
    )
    assert rep2.violations == [], rep2.violations[:3]
    assert abs(rep2.times[-1] - math.pi / 2) < 1e-9
    assert rep2.envelope["max"][-1] >= 0.5 - 1e-6
    rep3 = run_cmi_uncorrelated(
        SweepConfig(experiment="cmi-uncorrelated", d=3, n_instances=10_000, seed=7)
    )
    assert rep3.violations == [], rep3.violations[:3]
    assert abs(rep3.times[-1] - 2 * math.acos(1 / math.sqrt(3))) < 1e-9
    assert rep3.envelope["max"][-1] <= 0.9, rep3.envelope["max"][-1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, elapsed
    _passline(7, f"2x10^4 instances clean in {elapsed:.0f}s")


def test_criterion_08_zero_rate_at_product_inputs():
    for jump_type in ("dephasing", "damping"):
        rep = run_rate_zero(
            SweepConfig(experiment="rate-zero", n_instances=1000, seed=7,
                        jump_type=jump_type)
        )
        assert rep.violations == [], (jump_type, rep.violations[:3])
        assert rep.details["max_abs_closed_change"] <= 1e-6
        assert rep.details["max_open_change"] <= 1e-8, jump_type
    _passline(8, "10^3 instances, closed and both jump families")


def test_zero_rate_with_qutrit_jumps():
    # criterion 8 on qutrits: local clock or lowering jumps never raise N_{A:B}
    rep = run_rate_zero(SweepConfig(experiment="rate-zero", n_instances=1000, seed=7,
                                    d=3, jump_type="damping"))
    assert rep.violations == [], rep.violations[:3]
    assert rep.details["max_abs_closed_change"] <= 1e-6
    assert rep.details["max_open_change"] <= 1e-8


def test_criterion_09_swap_protocol_bounds():
    for d in (2, 3, 4):
        assert abs(swap_stage_fidelity(d) - 1.0 / d) < 1e-12
    assert abs(smi_bound(2) - (math.pi / 4 + math.pi / 3)) < 1e-12
    rep = run_smi_protocol(SweepConfig(experiment="smi-protocol", d=2))
    assert rep.violations == [], rep.violations[:3]
    _passline(9, "stage fidelity 1/d, bound pi/4 + pi/3, no early completion")


def test_criterion_10_commuting_mediator_null():
    rep = run_commuting_null(
        SweepConfig(experiment="commuting-null", n_instances=1000, seed=7)
    )
    assert rep.violations == [], rep.violations[:3]
    assert rep.details["max_excess"] <= 1e-10
    _passline(10, "10^3 instances never rise above the initial value")


def test_criterion_11_property_suites():
    fid = props.TestFidelityLaws()
    fid.test_multiplicative_over_tensor_products()
    fid.test_monotone_under_partial_trace()
    fid.test_bures_triangle_inequality()
    neg = props.TestNegativityLaws()
    neg.test_invariant_under_local_unitaries()
    neg.test_pure_states_match_schmidt_form()
    qsl = props.TestSpeedLimitLaws()
    qsl.test_angle_never_beats_normalized_time()
    for d in (2, 3, 4, 5):
        qsl.test_optimal_coupling_moves_on_a_geodesic(d)
    _passline(11, "six law suites at 10^3 cases each")


def test_criterion_12_worker_count_determinism(tmp_path):
    blobs = []
    for workers in (1, 3):
        cfg = SweepConfig(experiment="cmi-uncorrelated", d=2, n_instances=200,
                          seed=7, workers=workers)
        rep = run_cmi_uncorrelated(cfg)
        jp = tmp_path / f"w{workers}.json"
        cp = tmp_path / f"w{workers}.csv"
        rep.save_json(jp)
        rep.save_envelope_csv(cp)
        blobs.append((jp.read_bytes(), cp.read_bytes()))
    assert blobs[0] == blobs[1]
    _passline(12, "JSON and CSV byte-identical across worker counts")
