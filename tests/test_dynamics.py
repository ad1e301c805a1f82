"""Evolution, the open-system integrator, and the timing probes."""

import csv
import gc
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from medqsl import dynamics, linalg
from medqsl.cli import main
from medqsl.dynamics import (
    JUMP_KINDS,
    JumpOperatorSet,
    TimeGrid,
    bisect_crossing,
    entanglement_change_at_zero,
    evolve_lindblad,
    evolve_unitary,
    first_crossing,
    first_max_entanglement_time,
    negativity_curve,
    refine_peak,
)
from medqsl.errors import (
    BadDimensionError,
    LayoutMismatchError,
    PositivityLostError,
    UnknownLabelError,
)
from medqsl.hamiltonians import (
    Hamiltonian,
    classical_mediator_example,
    cmi_product_example,
    commuting_mediated,
    direct_optimal,
    energy_moments,
    entangled_mediator_example,
    open_system_example,
)
from medqsl.hspec import build, parse_file
from medqsl.linalg import expm, sqrtm_psd
from medqsl.randgen import (
    RngStream,
    haar_pure,
    random_density,
    random_hermitian,
    random_mediated_hamiltonian,
)
from medqsl.states import (
    Bipartition,
    DensityState,
    SystemLayout,
    bures_angle,
    embed_operator,
    uhlmann_fidelity,
)


OPEN3 = Path(__file__).parent / "data" / "ledger" / "open3.hspec"
# a grid step at which damping at rate 1e4 gives rate x step = 1: one RK4 substep overshoots
OVERSHOOT_STEP = 1e-4


def ket(layout, index):
    v = np.zeros(layout.dim)
    v[index] = 1.0
    return DensityState.from_pure(layout, v)


class TestTimeGrid:
    def test_includes_endpoint_when_exact(self):
        g = TimeGrid(0.0, 1.0, 0.25)
        assert_allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_truncates_otherwise(self):
        g = TimeGrid(0.0, 1.0, 0.3)
        assert_allclose(g.times, [0.0, 0.3, 0.6, 0.9])

    def test_rejects_empty_span(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 0.1)

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, -0.1)

    def test_rejects_huge_grid(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1e-9)

    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            TimeGrid(0.0, 1.0, step)

    def test_step_too_large_to_count_in_substeps(self, monkeypatch):
        # a one-point grid takes no step and is not counted; a step of 1e306
        # is refused before stepping: at n = 4 by the exact map, which would
        # take more than MAX_SQUARINGS squarings, and at n = 27, the factor
        # form's side, because ||L||_1 x 1e306 overflows its Taylor substeps
        h = direct_optimal(2)
        jumps = JumpOperatorSet.local(h.layout, "dephasing", 0.1)
        traj = evolve_lindblad(h, ket(h.layout, 0), TimeGrid(0.0, 1.0, 1e308), jumps)
        assert traj.times.tolist() == [0.0] and len(traj.states) == 1
        with pytest.raises(ValueError, match="takes more than 28 squarings"):
            evolve_lindblad(h, ket(h.layout, 0), TimeGrid(0.0, 1.7e308, 1e306), jumps)
        monkeypatch.setattr(dynamics, "_factor_form", _not_reached)
        lay = SystemLayout((("A", 3), ("B", 3), ("C", 3)))
        h = Hamiltonian(lay, random_hermitian(27, RngStream(3, 0)))
        with pytest.raises(ValueError, match=r"^170 step\(s\) of 1e\+306 take inf Taylor substeps "
                                             r"at dimension 27, above the cap"):
            evolve_lindblad(h, ket(lay, 0), TimeGrid(0.0, 1.7e308, 1e306),
                            JumpOperatorSet.local(lay, "dephasing", 0.1))

    def test_len_without_building_the_times(self):
        for step in (0.25, 0.3):
            g = TimeGrid(0.0, 1.0, step)
            assert len(g) == len(g.times)
        assert len(TimeGrid(0.0, 10000.0, 1e-3)) == 10_000_001


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the size check")


def _traced_peak(fn, *args) -> int:
    """The peak traced memory of ``fn(*args)``, the collector held off."""
    gc.disable()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def _from_ket0(h: Hamiltonian) -> tuple[Hamiltonian, DensityState]:
    return h, ket(h.layout, 0)


def _dephased(h: Hamiltonian, s0: DensityState, grid: TimeGrid):
    return evolve_lindblad(h, s0, grid, JumpOperatorSet.local(h.layout, "dephasing", 0.1))


# each trajectory form: its run, and its system and start
_FORMS = {
    "pure": (evolve_unitary, lambda: _from_ket0(direct_optimal(2))),
    "mixed": (evolve_unitary, classical_mediator_example),
    "lindblad": (_dephased, lambda: _from_ket0(build(parse_file(OPEN3)))),
}


class TestTrajectoryCap:
    """A trajectory above MAX_KEPT_BYTES is refused before any allocation."""

    @pytest.mark.parametrize("open_", [False, True], ids=["unitary", "lindblad"])
    def test_refused_before_the_grid_is_built(self, monkeypatch, open_):
        monkeypatch.setattr(TimeGrid, "times", property(_refuse))
        monkeypatch.setattr(Hamiltonian, "eig", property(_refuse))
        monkeypatch.setattr(JumpOperatorSet, "embedded", property(_refuse))
        h = direct_optimal(2)
        # 1e7 + 1 points of a 4x4 complex matrix (256 B), a 4-vector (64 B)
        # and eight float columns (64 B): 3.84e9 B, 3.6 GiB
        args = (h, ket(h.layout, 0), TimeGrid(0.0, 10000.0, 1e-3))
        with pytest.raises(ValueError, match=r"10000001 states of dimension 4 needs 3.6 GiB, "
                                             r"above the cap of 2 GiB"):
            if open_:
                evolve_lindblad(*args, JumpOperatorSet.local(h.layout, "dephasing", 0.1))
            else:
                evolve_unitary(*args)

    def test_cap_is_inclusive(self, monkeypatch):
        h = direct_optimal(2)
        grid = TimeGrid(0.0, 1.0, 0.1)
        per_point = 4 * 4 * 16 + 4 * 16 + 8 * len(dynamics.TRAJECTORY_COLUMNS)
        assert per_point == 384
        monkeypatch.setattr(dynamics, "MAX_KEPT_BYTES", 11 * per_point)
        assert len(evolve_unitary(h, ket(h.layout, 0), grid).states) == 11
        monkeypatch.setattr(dynamics, "MAX_KEPT_BYTES", 11 * per_point - 1)
        with pytest.raises(ValueError, match="above the cap"):
            evolve_unitary(h, ket(h.layout, 0), grid)

    @pytest.mark.parametrize("form", list(_FORMS))
    def test_largest_admitted_trajectory_peaks_within_its_count(self, monkeypatch, form):
        # at a cap of 4 MiB, the longest grid the cap admits peaks within its counted
        # bytes plus four chunks of states and the slack that MAX_KEPT_BYTES's comment
        # states, so no column is kept twice; one point more is refused before the
        # grid or a spectrum is built
        run, system = _FORMS[form]
        h, s0 = system()
        n = h.layout.dim
        per_point = 16 * n * n + 16 * n + 8 * len(dynamics.TRAJECTORY_COLUMNS)
        points = 2 ** 22 // per_point
        monkeypatch.setattr(dynamics, "MAX_KEPT_BYTES", 2 ** 22)
        grid = TimeGrid(0.0, (points - 1) * 1e-3, 1e-3)
        assert len(grid) == points
        run(h, s0, TimeGrid(0.0, 0.3, 1e-3))
        peak = _traced_peak(run, h, s0, grid)
        assert peak <= points * per_point + 4 * dynamics.PROPAGATE_CHUNK * 16 * n * n + 2 ** 18
        monkeypatch.setattr(TimeGrid, "times", property(_refuse))
        monkeypatch.setattr(Hamiltonian, "eig", property(_refuse))
        with pytest.raises(ValueError, match=f"^a trajectory of {points + 1} states"):
            run(h, s0, TimeGrid(0.0, points * 1e-3, 1e-3))


def _not_reached(*args, **kwargs):
    raise AssertionError("evolved before the cut was checked")


@pytest.mark.parametrize("open_", [False, True], ids=["unitary", "lindblad"])
@pytest.mark.parametrize("cut", ["A:Z", "Z:B", "A,Z:C"])
def test_unknown_cut_label_refused_before_evolving(monkeypatch, open_, cut):
    monkeypatch.setattr(dynamics, "propagate", _not_reached)
    monkeypatch.setattr(dynamics, "_open_stacks", _not_reached)
    h, s0 = cmi_product_example()
    args = (h, s0, TimeGrid(0.0, 1.0, 1e-3))
    with pytest.raises(UnknownLabelError, match="no subsystem labeled 'Z'"):
        if open_:
            evolve_lindblad(*args, JumpOperatorSet.local(h.layout, "dephasing", 0.1),
                            cut=Bipartition.parse(cut))
        else:
            evolve_unitary(*args, cut=Bipartition.parse(cut))


@pytest.mark.parametrize("open_", [False, True], ids=["unitary", "lindblad"])
def test_target_on_another_layout_refused_before_evolving(monkeypatch, open_):
    monkeypatch.setattr(dynamics, "propagate", _not_reached)
    monkeypatch.setattr(dynamics, "_open_stacks", _not_reached)
    h = direct_optimal(2)
    target = ket(SystemLayout((("A", 2), ("B", 4))), 0)
    args = (h, ket(h.layout, 0), TimeGrid(0.0, 50.0, 1e-3))
    with pytest.raises(LayoutMismatchError, match=r"^target on \(\('A', 2\), \('B', 4\)\), "
                                                  r"state on \(\('A', 2\), \('B', 2\)\)$"):
        if open_:
            evolve_lindblad(*args, JumpOperatorSet.local(h.layout, "dephasing", 0.1), target=target)
        else:
            evolve_unitary(*args, target=target)


@pytest.mark.parametrize("call", [
    energy_moments,
    lambda h, s: uhlmann_fidelity(ket(h.layout, 0), s),
    lambda h, s: evolve_unitary(h, s, TimeGrid(0.0, 1.0, 0.1)),
    lambda h, s: evolve_unitary(h, ket(h.layout, 0), TimeGrid(0.0, 1.0, 0.1), target=s),
], ids=["energy_moments", "uhlmann_fidelity", "evolve_unitary", "target"])
def test_layout_refusal_names_both_layouts(call):
    # a state on A:2, B:3 against direct_optimal(2): the labels agree, so each
    # refusal names both layouts by their dims as well
    h = direct_optimal(2)
    with pytest.raises(LayoutMismatchError) as info:
        call(h, ket(SystemLayout((("A", 2), ("B", 3))), 0))
    assert "(('A', 2), ('B', 3))" in str(info.value)
    assert "(('A', 2), ('B', 2))" in str(info.value)


class TestUnitaryEvolution:
    def test_direct_qubit_closed_form(self):
        h = direct_optimal(2)
        traj = evolve_unitary(h, ket(h.layout, 0), TimeGrid(0.0, math.pi / 2, 0.01))
        expect = 0.5 * np.sin(2 * traj.times)
        assert np.abs(traj.columns["negativity"] - expect).max() < 1e-10

    def test_bures_angle_equals_time_on_geodesic(self):
        # the optimal direct coupling moves along a Bures geodesic
        h = direct_optimal(3)
        traj = evolve_unitary(h, ket(h.layout, 0), TimeGrid(0.0, 0.9, 0.05))
        assert np.abs(traj.columns["bures_angle_from_initial"] - traj.times).max() < 1e-9

    def test_energy_columns_constant(self):
        h, s = cmi_product_example()
        traj = evolve_unitary(h, s, TimeGrid(0.0, 1.0, 0.1))
        assert np.ptp(traj.columns["mean_energy"]) < 1e-10
        assert np.ptp(traj.columns["energy_std"]) < 1e-10

    def test_mixed_initial_state(self):
        h, s = classical_mediator_example()
        traj = evolve_unitary(h, s, TimeGrid(0.0, math.pi / 4, math.pi / 16))
        expect = 0.5 * np.sin(2 * traj.times)
        assert np.abs(traj.columns["negativity"] - expect).max() < 1e-10

    def test_grid_start_offset(self):
        h = direct_optimal(2)
        traj = evolve_unitary(h, ket(h.layout, 0), TimeGrid(0.5, 1.0, 0.25))
        # s0 is the state at T=0.5; negativity at the first point is N(0)
        assert_allclose(traj.columns["negativity"][0], 0.0, atol=1e-12)
        assert_allclose(traj.columns["negativity"][1],
                        0.5 * math.sin(2 * 0.25), atol=1e-10)

    def test_layout_mismatch(self):
        h = direct_optimal(2)
        other = SystemLayout((("X", 2), ("Y", 2)))
        with pytest.raises(LayoutMismatchError):
            evolve_unitary(h, ket(other, 0), TimeGrid(0.0, 1.0, 0.1))

    def test_observe_custom_target(self):
        h = direct_optimal(2)
        from medqsl.states import maximally_entangled
        target = maximally_entangled(h.layout)
        traj = evolve_unitary(h, ket(h.layout, 0), TimeGrid(0.0, math.pi / 4, math.pi / 8),
                              cut=Bipartition.parse("A:B"), target=target)
        assert_allclose(traj.columns["fidelity_to_target"][-1], 1.0, atol=1e-10)

    def test_eigensolves_do_not_grow_with_the_grid(self, monkeypatch):
        # both grids fit in one propagation chunk, so a mixed 3-qubit evolve
        # makes as many eigensolves for 250 points as for 10; one per grid
        # point anywhere in the observation would break this
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        s0 = classical_mediator_example()[1]
        stream = RngStream(5, 0)
        psi = haar_pure(8, stream)
        s0 = DensityState(s0.layout, 0.9 * np.outer(psi, psi.conj())
                          + 0.1 * random_density(8, stream))
        seen = []
        for points in (10, 250):
            # a fresh Hamiltonian each time, so neither run reuses a kept spectrum
            h = classical_mediator_example()[0]
            before = dict(counts)
            traj = evolve_unitary(h, s0, TimeGrid(0.0, (points - 1) * 1e-3, 1e-3))
            assert len(traj.states) == points
            seen.append({name: counts[name] - before[name] for name in counts})
        assert seen[0] == seen[1]
        assert 0 < seen[0]["eigh"] and 0 < seen[0]["eigvalsh"] < 20

    def test_mixed_states_are_checked_through_their_factor(self, monkeypatch):
        # the propagated states X X+ are built unchecked from their factors:
        # no eigvalsh sees a (T, 8, 8) stack; the rank-2 start keeps the
        # fidelity's eigensolves 2 x 2, so only the marginals' remain
        shapes = []

        def counted(a, *args, _original=np.linalg.eigvalsh, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        h, s0 = classical_mediator_example()
        traj = evolve_unitary(h, s0, TimeGrid(0.0, 0.299, 1e-3))
        assert shapes and not [s for s in shapes if len(s) == 3 and s[1:] == (8, 8)]
        assert all(stack.spectrum is None for stack in traj.stacks)
        x = sqrtm_psd(s0.matrix)
        for stack, t in zip(traj.stacks, (traj.times[:256], traj.times[256:])):
            y = dynamics.propagate(*h.eig, x, t)
            assert_array_equal(stack.matrix, y @ y.conj().swapaxes(1, 2))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_overflowing_phases_refused_before_propagating(self, monkeypatch, mixed):
        # max|w| = 10 here, so the phase 10 T of the last grid point is inf,
        # past PHASE_MAX; the suite turns any numpy RuntimeWarning into an error
        h = Hamiltonian(classical_mediator_example()[0].layout,
                        np.diag([10.0, 0, 0, -10, 0, 0, 0, 0]))
        s0 = classical_mediator_example()[1] if mixed else ket(h.layout, 0)
        monkeypatch.setattr(dynamics, "propagate", _refuse)
        with pytest.raises(ValueError, match=r"= inf rad at T = 1\.7e\+308 exceeds 5\.63e\+14 "
                                             r"rad, .* \(max\|w\| = 10\)"):
            evolve_unitary(h, s0, TimeGrid(0.0, 1.7e308, 1e307))

    def test_phases_past_their_last_digits_refused(self, monkeypatch):
        # max|w| = 8: a phase of exactly PHASE_MAX = 2^49 rad (ulp 1/8 rad) is
        # propagated, one ulp of T more is refused before propagating, and so is
        # T = 1e20 (phases of 8e20 rad, whose ulp is 1.3e5 rad)
        h = Hamiltonian(classical_mediator_example()[0].layout,
                        np.diag([8.0, 0, 0, -8, 0, 0, 0, 0]))
        s0 = ket(h.layout, 0)
        assert dynamics.PHASE_MAX == 2.0 ** 49
        traj = evolve_unitary(h, s0, TimeGrid(0.0, 2.0 ** 46, 2.0 ** 45))
        assert traj.times[-1] == 2.0 ** 46
        monkeypatch.setattr(dynamics, "propagate", _refuse)
        with pytest.raises(ValueError, match=r"= 5\.63e\+14 rad at T = 7\.03687e\+13 exceeds "
                                             r"5\.63e\+14 rad, where a phase's ulp is 1/8 rad "
                                             r"\(max\|w\| = 8\)"):
            above = np.nextafter(2.0 ** 46, np.inf)
            evolve_unitary(h, s0, TimeGrid(0.0, above, above))
        with pytest.raises(ValueError, match=r"= 8e\+20 rad at T = 1e\+20 exceeds"):
            evolve_unitary(h, s0, TimeGrid(0.0, 1e20, 1e19))

    def test_states_are_views_of_the_validated_stack(self):
        h, s0 = entangled_mediator_example()
        traj = evolve_unitary(h, s0, TimeGrid(0.0, 0.3, 1e-3))
        assert len(traj.states) == len(traj.times) == 301
        assert all(st.is_pure and st.matrix.shape == (8, 8) for st in traj.states)
        last = traj.states[-1]
        assert not last.matrix.flags.writeable and not last.pure_vector.flags.writeable
        assert_allclose(last.matrix, np.outer(last.pure_vector, last.pure_vector.conj()),
                        rtol=0, atol=0)


def _evolve_open(h, s0, grid, **observed):
    jumps = JumpOperatorSet.local(h.layout, "dephasing", 0.1)
    return evolve_lindblad(h, s0, grid, jumps, **observed)


@pytest.mark.parametrize("evolve", [evolve_unitary, _evolve_open])
class TestObserve:
    """The fidelity and angle columns of a mixed trajectory, over two chunks."""

    grid = TimeGrid(0.0, 0.3, 1e-3)

    @staticmethod
    def _mixed(seed):
        h, s0 = classical_mediator_example()
        stream = RngStream(seed, 0)
        psi = haar_pure(8, stream)
        return h, DensityState(s0.layout, 0.9 * np.outer(psi, psi.conj())
                               + 0.1 * random_density(8, stream))

    def test_default_target_angle_is_acos_of_its_fidelity(self, evolve):
        h, s0 = self._mixed(5)
        traj = evolve(h, s0, self.grid)
        assert len(traj.stacks) == 2
        fid = traj.columns["fidelity_to_target"]
        assert traj.columns["bures_angle_from_initial"].tolist() == [math.acos(f) for f in fid]
        # the first state is s0 by definition; the others are computed
        assert fid[0] == 1.0
        assert_array_equal(fid[1:], np.concatenate(
            [uhlmann_fidelity(s0, st) for st in traj.stacks])[1:])

    @pytest.mark.parametrize("seed", [7, 9, 12])
    def test_first_point_is_s0(self, evolve, seed):
        # mixed root fidelities miss 1 by ~1e-14, which acos turns into ~1e-7
        h, s0 = self._mixed(seed)
        traj = evolve(h, s0, TimeGrid(0.0, 0.01, 1e-3))
        assert traj.columns["bures_angle_from_initial"][0] == 0.0
        assert traj.columns["fidelity_to_target"][0] == 1.0
        assert traj.columns["bures_angle_from_initial"][1] > 0.0

    def test_distinct_target_is_its_own_fidelity(self, evolve):
        h, s0 = self._mixed(5)
        target = self._mixed(6)[1]
        traj = evolve(h, s0, self.grid, target=target)
        assert_array_equal(traj.columns["fidelity_to_target"],
                           np.concatenate([uhlmann_fidelity(target, st) for st in traj.stacks]))
        angle = traj.columns["bures_angle_from_initial"]
        assert angle[0] == 0.0
        assert_array_equal(angle[1:],
                           np.concatenate([bures_angle(s0, st) for st in traj.stacks])[1:])


class TestNegativityCurve:
    """The factor path against the per-state negativity of evolve_unitary."""

    LAYOUT = SystemLayout((("A", 2), ("B", 2), ("C", 2)))

    def _case(self, pure):
        stream = RngStream(11, 0)
        h = Hamiltonian(self.LAYOUT, random_hermitian(8, stream))
        psi = haar_pure(8, stream)
        if pure:
            return h, DensityState.from_pure(self.LAYOUT, psi)
        rho = 0.9 * np.outer(psi, psi.conj()) + 0.1 * random_density(8, stream)
        return h, DensityState(self.LAYOUT, rho)

    # A:C needs the factor transposed; A,B:C keeps every label
    @pytest.mark.parametrize("cut", ["A:C", "A,B:C", "A:B"])
    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    def test_matches_evolve_unitary(self, cut, pure):
        h, s0 = self._case(pure)
        p = Bipartition.parse(cut)
        grid = TimeGrid(0.0, 2.0, 0.05)
        ref = evolve_unitary(h, s0, grid, cut=p).columns["negativity"]
        assert ref.max() > 1e-2
        x0 = s0.pure_vector if pure else sqrtm_psd(s0.matrix)
        got = negativity_curve(h, x0, grid.times, p)
        assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_unknown_label(self):
        # refused at the call, whichever side names the label
        h, s0 = self._case(True)
        for cut in ("A:D", "D:A"):
            with pytest.raises(UnknownLabelError):
                negativity_curve(h, s0.pure_vector, [0.0], Bipartition.parse(cut))


def _liouvillian(h, jumps):
    """L on row-stacked rho, from the embedded jumps: vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(h.layout.dim)
    gen = -1j * (np.kron(h.matrix, eye) - np.kron(eye, h.matrix.T))
    for label, op in jumps.ops:
        q = embed_operator(h.layout, (label,), op)
        qq = q.conj().T @ q
        gen += np.kron(q, q.conj()) - 0.5 * (np.kron(qq, eye) + np.kron(eye, qq.T))
    return gen


def _exact_map(gen, t):
    """exp(gen t): Taylor to degree 30 of gen t / 2^s, ||gen t||_1 / 2^s <= 2, squared s times.

    The remainder is below 2^31 / 31! < 1e-24, so only roundoff separates it from exp.
    """
    a = gen * t
    s = max(0, math.ceil(math.log2(np.abs(a).sum(axis=0).max() / 2 + 1e-300)))
    a = a / 2.0 ** s
    term = out = np.eye(len(a), dtype=complex)
    for j in range(1, 31):
        term = term @ a / j
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _taylor_reference(h, jumps, rho, t):
    """exp(L t) rho, L rho = -i[H, rho] + sum_q (Q rho Q+ - {Q+Q, rho} / 2) from the embedded
    jumps: 25 Taylor terms in each of the s steps that take ||L t / s||_1 of the test's own
    L to at most 1, so the remainder is below 1 / 26!."""
    qs = [(q, q.conj().T, q.conj().T @ q)
          for q in (embed_operator(h.layout, (label,), op) for label, op in jumps.ops)]

    def lind(r):
        out = -1j * (h.matrix @ r - r @ h.matrix)
        for q, q_adj, qq in qs:
            out += q @ r @ q_adj - 0.5 * (qq @ r + r @ qq)
        return out

    s = math.ceil(np.abs(_liouvillian(h, jumps)).sum(axis=0).max() * t)
    for _ in range(s):
        term = rho
        for j in range(1, 26):
            term = lind(term) * (t / s / j)
            rho = rho + term
    return rho


def _hermitian_basis(n):
    """Columns vec(b) of the orthonormal Hermitian basis: each E_jj, then (E_jk + E_kj)/sqrt 2
    and i (E_jk - E_kj)/sqrt 2 for the pairs j < k in row-major order."""
    e = np.eye(n)
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    basis = ([np.outer(e[j], e[j]) for j in range(n)]
             + [(np.outer(e[j], e[k]) + np.outer(e[k], e[j])) / math.sqrt(2) for j, k in pairs]
             + [1j * (np.outer(e[j], e[k]) - np.outer(e[k], e[j])) / math.sqrt(2)
                for j, k in pairs])
    return np.array([b.reshape(-1) for b in basis]).T


@pytest.mark.parametrize("kind", sorted(JUMP_KINDS))
@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 3, 2), (3, 2)])
def test_jumps_keep_the_embedded_bits(kind, dims):
    # the stack and sum_q Q+Q keep the bits of each jump's embedding, zero
    # signs included (a qutrit clock operator chained through two identity
    # products would not)
    lay = SystemLayout(tuple(zip("ABC", dims)))
    jumps = JumpOperatorSet.local(lay, kind, 0.3)
    q, qq = jumps.embedded
    old = np.array([embed_operator(lay, (lab,), op) for lab, op in jumps.ops],
                   dtype=complex).reshape((-1,) + 2 * (lay.dim,))
    assert q.tobytes() == old.tobytes()
    assert qq.tobytes() == (old.conj().swapaxes(1, 2) @ old).sum(axis=0).tobytes()


def _jumps(lay, *specs):
    """The jump set of (kind, rate, label) triples, in order."""
    return JumpOperatorSet(lay, tuple(op for kind, rate, lab in specs
                                      for op in JumpOperatorSet.local(lay, kind, rate, (lab,)).ops))


_STEPPER_CASES = {
    "no-jumps": ((("A", 2), ("B", 2)), ()),
    "dephasing-qubit": ((("A", 2), ("B", 2)), (("dephasing", 0.4, "B"),)),
    "damping-qutrit": ((("A", 3), ("B", 2)), (("damping", 0.7, "A"),)),
    "mixed-kinds": ((("A", 3), ("B", 2)), (("dephasing", 1.5, "A"), ("damping", 1.0, "B"))),
    "every-qubit": ((("A", 2), ("B", 2), ("C", 2)),
                    (("damping", 0.3, "A"), ("dephasing", 0.5, "B"), ("damping", 0.2, "C"))),
}


def _stepped_against_exact_map(form, dims, specs):
    """The largest entry by which ``form(k, q, grid.step)`` misses exp(L T) of the test's own
    L over a grid of 8 steps, and the largest by which the exact states move."""
    lay = SystemLayout(dims)
    stream = RngStream(13, len(specs))
    h = Hamiltonian(lay, 3.0 * random_hermitian(lay.dim, stream))
    s0 = DensityState(lay, random_density(lay.dim, stream))
    grid = TimeGrid(0.0, 0.2, 0.025)
    jumps = _jumps(lay, *specs)
    step = form(*dynamics._generator(h, jumps), grid.step)
    segment = _exact_map(_liouvillian(h, jumps), grid.step)
    got, ref = [s0.matrix], [s0.matrix.reshape(-1)]
    for _ in grid.times[1:]:
        got.append(step(got[-1]))
        ref.append(segment @ ref[-1])
    ref = np.array(ref).reshape(-1, lay.dim, lay.dim)
    return np.abs(np.array(got) - ref).max(), np.abs(ref[-1] - ref[0]).max()


@pytest.mark.parametrize("dims, specs", _STEPPER_CASES.values(), ids=_STEPPER_CASES.keys())
def test_factor_form_matches_the_exact_map(dims, specs):
    # the Taylor action over each grid step is exp(L T) to roundoff, here
    # against a Taylor exponential of the test's own L
    miss, moved = _stepped_against_exact_map(dynamics._factor_form, dims, specs)
    assert miss <= 1e-13 and moved > 1e-2


@pytest.mark.parametrize("dims, specs", _STEPPER_CASES.values(),
                         ids=["liouville-" + name for name in _STEPPER_CASES])
def test_stepper_matches_four_stage_rk4(dims, specs):
    # the Liouville form, built for the one span of the grid step, is its
    # exact map exp(L T), here against a Taylor exponential of the test's
    # own L (its factor-form cases are test_factor_form_matches_the_exact_map)
    miss, moved = _stepped_against_exact_map(dynamics._liouville_form, dims, specs)
    assert miss <= 1e-12 and moved > 1e-2


class TestStepperForm:
    """The one rule in ``_open_stacks`` that picks the substep's form."""

    @pytest.fixture
    def built(self, monkeypatch):
        # the forms built, by name and dimension, each still the real one
        built = []
        for name in ("_factor_form", "_liouville_form"):
            def recording(k, q, span, name=name, form=getattr(dynamics, name)):
                built.append((name, k.shape[-1]))
                return form(k, q, span)
            monkeypatch.setattr(dynamics, name, recording)
        return built

    def test_no_setting_chooses_it(self):
        # the cap counts the real map's 8 n^4 bytes: up to n = 19
        assert list(inspect.signature(dynamics._open_stacks).parameters) == [
            "h", "s0", "jumps", "grid"]
        assert 8 * 19 ** 4 <= dynamics.LIOUVILLE_MAX_BYTES < 8 * 20 ** 4

    def test_lindblad_open_shape_takes_the_liouville_form(self, built):
        # n = 8, three dephasing jumps, 5 grid steps of 0.1
        h, s0 = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "dephasing", 0.1)
        evolve_lindblad(h, s0, TimeGrid(0.0, 0.5, 0.1), jumps)
        assert built == [("_liouville_form", 8)]

    @pytest.mark.parametrize("thousandths", [1, 2, 8, 10, 500])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 3, 3)], ids=["n4", "n8", "n18"])
    def test_every_run_whose_map_fits_takes_it(self, built, dims, thousandths):
        # the form follows from the size alone: a grid step of any length,
        # here 1e-3 to 0.5, takes the exact map wherever it fits (n <= 19)
        lay = SystemLayout(tuple(zip("ABC", dims)))
        h = Hamiltonian(lay, random_hermitian(lay.dim, RngStream(3, 0)))
        tmax = thousandths * 1e-3
        evolve_lindblad(h, ket(lay, 0), TimeGrid(0.0, tmax, tmax),
                        JumpOperatorSet.local(lay, "dephasing", 0.1))
        assert built == [("_liouville_form", lay.dim)]

    @pytest.mark.parametrize("dims, form", [((19,), "_liouville_form"),
                                            ((4, 5), "_factor_form")], ids=["n19", "n20"])
    def test_size_rule_at_its_edge(self, built, dims, form):
        # one grid step each: the real map of n = 19 is 8 * 19^4 bytes, within
        # the 1 MiB cap, and that of n = 20 is not
        lay = SystemLayout(tuple(zip("AB", dims)))
        h = Hamiltonian(lay, random_hermitian(lay.dim, RngStream(3, 0)))
        (stack,) = dynamics._open_stacks(h, ket(lay, 0),
                                         JumpOperatorSet.local(lay, "dephasing", 0.1),
                                         TimeGrid(0.0, 1e-3, 1e-3))
        assert built == [(form, lay.dim)] and len(stack.matrix) == 2

    def test_map_side_plans_no_substeps(self, built, monkeypatch):
        # a run that takes the map never plans or prices Taylor substeps
        monkeypatch.setattr(dynamics, "_substeps", _not_reached)
        h, s0 = open_system_example()
        traj = evolve_lindblad(h, s0, TimeGrid(0.0, 0.5, 0.1),
                               JumpOperatorSet.local(h.layout, "dephasing", 0.1))
        assert built == [("_liouville_form", 8)] and len(traj.states) == 6

    def test_long_qutrit_run_builds_no_map_above_the_cap(self, monkeypatch):
        # one step of 10 at n = 27: its map (8.5 MB) would exceed the cap, so
        # the factor form steps it, here with its substeps stubbed out
        built = []

        def unstepped(k, q, span):
            built.append(len(k))
            return lambda rho: rho

        monkeypatch.setattr(dynamics, "_factor_form", unstepped)
        lay = SystemLayout((("A", 3), ("B", 3), ("C", 3)))
        h = Hamiltonian(lay, random_hermitian(27, RngStream(3, 0)))
        jumps = JumpOperatorSet.local(lay, "damping", 0.1)
        tracemalloc.start()
        try:
            dynamics._open_stacks(h, ket(lay, 0), jumps, TimeGrid(0.0, 10.0, 10.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == [27]
        assert peak < dynamics.LIOUVILLE_MAX_BYTES


    @pytest.mark.parametrize("grid, steps", [
        (TimeGrid(0.0, 10.0, 1e-3), 10_000), (TimeGrid(0.0, 50.0, 0.05), 1_000),
        (TimeGrid(0.0, 0.5, 0.1), 5)], ids=["1e-3", "0.05", "lindblad-open"])
    def test_substeps_counted_from_the_grid_step(self, monkeypatch, grid, steps):
        # one factor form is built for grid.step, not for each segment of the
        # rounded grid times, whose lengths differ in their last bits, and
        # takes every grid step; the run is priced at its substeps of grid.step
        # (the map's one span per run: TestExactMap)
        spans, taken, priced = [], [], []
        substeps_of = dynamics._substeps

        def unstepped(k, q, span):
            spans.append(span)
            return lambda rho: taken.append(span) or rho

        def pricing(k, q, span, steps=1):
            priced.append((span, steps))
            return substeps_of(k, q, span, steps)

        monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
        monkeypatch.setattr(dynamics, "_factor_form", unstepped)
        monkeypatch.setattr(dynamics, "_substeps", pricing)
        h = direct_optimal(2)
        jumps = JumpOperatorSet.local(h.layout, "dephasing", 0.1)
        dynamics._open_stacks(h, ket(h.layout, 0), jumps, grid)
        assert spans == [grid.step] and priced == [(grid.step, len(grid) - 1)]
        assert len(taken) == len(grid) - 1 == steps
        # ||L||_1 <= 2 ||K||_1 + sum_q ||Q||_1^2 = 2 (1 + 0.1) + 2 (0.1) = 2.4
        k, q = dynamics._generator(h, jumps)
        bound = 2 * np.linalg.norm(k, 1) + sum(np.linalg.norm(x, 1) ** 2 for x in q)
        assert bound == pytest.approx(2.4, rel=1e-15)
        assert substeps_of(k, q, grid.step) == math.ceil(bound * grid.step) == 1
        assert substeps_of(k, q, 1.0) == 3


class TestExactMap:
    """Small systems step by the exact map exp(L T) of each grid step."""

    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0, 10.0, 30.0, 100.0])
    def test_exact_in_any_units(self, scale):
        # H = s GUE(8), dephasing at 0.3 s on every qubit: 1e-3 RK4 substeps
        # were 1.3e-14 (s = 0.3) to 1.0e-6 (s = 100) away; the map is within
        # roundoff of exp(L T) of the test's own L at every s
        lay = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
        stream = RngStream(5, 0)
        h = Hamiltonian(lay, scale * random_hermitian(8, stream))
        s0 = DensityState(lay, random_density(8, stream))
        jumps = JumpOperatorSet.local(lay, "dephasing", 0.3 * scale)
        grid = TimeGrid(0.0, 1.0, 0.1)
        (stack,) = dynamics._open_stacks(h, s0, jumps, grid)
        gen = _liouvillian(h, jumps)
        want = [(_exact_map(gen, t) @ s0.matrix.reshape(-1)).reshape(8, 8) for t in grid.times]
        assert np.abs(stack.matrix - np.array(want)).max() <= 1e-13

    @pytest.mark.parametrize("rate", [1e4, 1e5, 1e6])
    def test_stiff_rates_keep_a_state(self, rate):
        # the rates at which 1e-3 RK4 substeps diverge: the map dephases the
        # state and keeps its trace and positivity
        h, s = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "dephasing", rate)
        traj = evolve_lindblad(h, s, TimeGrid(0.0, 0.5, 0.1), jumps)
        for st in traj.states:
            assert abs(np.trace(st.matrix) - 1) <= 1e-12
            assert np.linalg.eigvalsh(st.matrix)[0] >= -1e-12

    @pytest.mark.parametrize("grid", [TimeGrid(0.0, 0.5, 0.1), TimeGrid(0.0, 2.0, 1e-3)],
                             ids=["lindblad-open", "1e-3"])
    def test_one_map_per_grid_span(self, monkeypatch, grid):
        spans = []
        monkeypatch.setattr(dynamics, "expm", lambda a: spans.append(a) or expm(a))
        h, s0 = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "dephasing", 0.1)
        dynamics._open_stacks(h, s0, jumps, grid)
        b = _hermitian_basis(8)
        l_r = b.conj().T @ _liouvillian(h, jumps) @ b
        assert len(spans) == 1 and spans[0].dtype == float
        assert np.abs(l_r.imag).max() <= 1e-15
        assert np.abs(spans[0] - grid.step * l_r.real).max() <= 1e-15

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 3, 3)],
                             ids=["n4", "n8", "n16", "n18"])
    def test_real_map_states_are_exactly_hermitian(self, monkeypatch, dims):
        # each grid step is one real product on rho's n^2 coordinates, and rho
        # is rebuilt from them exactly Hermitian; within roundoff of the test's
        # own exp(L T) up to n = 18, whose real map (8 n^4 bytes) fits the cap
        monkeypatch.setattr(dynamics, "_factor_form", _not_reached)
        lay = SystemLayout(tuple(zip("ABCD", dims)))
        stream = RngStream(17, len(dims))
        h = Hamiltonian(lay, 2.0 * random_hermitian(lay.dim, stream))
        s0 = DensityState(lay, random_density(lay.dim, stream))
        jumps = _jumps(lay, ("damping", 0.2, "A"), *(("dephasing", 0.3, lab) for lab in lay.labels))
        grid = TimeGrid(0.0, 0.4, 0.1)
        (stack,) = dynamics._open_stacks(h, s0, jumps, grid)
        for rho in stack.matrix[1:]:
            assert np.array_equal(rho, rho.conj().T)
        segment = _exact_map(_liouvillian(h, jumps), grid.step)
        want = [s0.matrix.reshape(-1)]
        for _ in grid.times[1:]:
            want.append(segment @ want[-1])
        assert np.abs(stack.matrix - np.array(want).reshape(stack.matrix.shape)).max() <= 1e-13
        assert np.abs(stack.matrix[-1] - s0.matrix).max() > 1e-2

    def test_map_keeps_the_trace_over_many_squarings(self):
        # exp(L_r T) at T = 1e6 takes 19 squarings, each of which doubles the
        # roundoff of the conserved trace (some 1e-10 uncorrected): the map's
        # diagonal rows sum to the trace functional, so the trace stays
        lay = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
        for seed in range(6):
            stream = RngStream(seed, 0)
            h = Hamiltonian(lay, random_hermitian(8, stream))
            rho = random_density(8, stream)
            step = dynamics._liouville_form(*dynamics._generator(
                h, JumpOperatorSet.local(lay, sorted(JUMP_KINDS)[seed % 2], 0.1)), 1e6)
            assert abs(np.trace(step(rho)) - 1) <= 1e-14

    def test_map_refuses_its_span_before_forming_it(self, monkeypatch):
        # ||L dT||_1 = 2.4e306 would take some 1,000 squarings: refused
        # once L is gathered, before it is exponentiated
        monkeypatch.setattr(dynamics, "expm", _not_reached)
        h, _ = open_system_example()
        k, q = dynamics._generator(h, JumpOperatorSet.local(h.layout, "dephasing", 0.1))
        with pytest.raises(ValueError, match=r"step of 1e\+306 .* more than 28 squarings"):
            dynamics._liouville_form(k, q, 1e306)
        # one jump at rate 1e308 keeps K finite, but L's entries pass a float
        # as it is gathered: refused the same way, with no numpy warning
        lab = h.layout.labels[0]
        k, q = dynamics._generator(h, JumpOperatorSet.local(h.layout, "dephasing", 1e308, (lab,)))
        with pytest.raises(ValueError, match=r"step of 0\.001 .* more than 28 squarings"):
            dynamics._liouville_form(k, q, 1e-3)

    def test_squaring_cap_read_on_the_map(self, monkeypatch):
        # the cap is decided on the real map that expm is handed, whose 1-norm
        # is 0.99x the factor form's bound on ||L||_1 at damping 0.3 and 1.15x
        # at dephasing 0.1: a damping step of 3.63e8 (28 squarings) is taken,
        # and a dephasing step of 4.5e8 (29) is refused before it is
        # exponentiated
        h = build(parse_file(OPEN3))
        s0, grid = ket(h.layout, 0), TimeGrid(0.0, 3.63e8, 3.63e8)
        (stack,) = dynamics._open_stacks(h, s0, JumpOperatorSet.local(h.layout, "damping", 0.3),
                                         grid)
        assert len(stack.matrix) == 2
        monkeypatch.setattr(dynamics, "expm", _not_reached)
        with pytest.raises(ValueError, match=r"^the exact map exp\(L dT\) of a step of 4\.5e\+08 "
                                             r"\(\|\|L dT\|\|_1 = 1\.54e\+09\) takes more than 28 "
                                             r"squarings, each doubling its roundoff; shorten"):
            dynamics._open_stacks(h, s0, JumpOperatorSet.local(h.layout, "dephasing", 0.1),
                                  TimeGrid(0.0, 4.5e8, 4.5e8))

    def test_no_map_takes_more_than_the_cap(self, monkeypatch):
        # spans swept across each system's cap: every map built takes at most
        # MAX_SQUARINGS squarings as expm plans it, one of them exactly that,
        # and the spans past the cap are refused
        plans, plan_of = [], linalg.expm_plan

        def spy(norm):
            plans.append(plan_of(norm))
            return plans[-1]

        monkeypatch.setattr(linalg, "expm_plan", spy)
        h, built = build(parse_file(OPEN3)), 0
        for kind, rate in (("dephasing", 0.1), ("damping", 0.3)):
            k, q = dynamics._generator(h, JumpOperatorSet.local(h.layout, kind, rate))
            refused = 0
            for span in np.geomspace(1e8, 1e9, 61):
                try:
                    dynamics._liouville_form(k, q, span)
                    built += 1
                except ValueError:
                    refused += 1
            assert 0 < refused < 61
        assert len(plans) == built
        assert max(s for _, s in plans) == dynamics.MAX_SQUARINGS == 28

    def test_factor_form_work_is_capped(self, monkeypatch):
        # a step of 1e6 at n = 27 (the map would not fit), 5.7e7 Taylor
        # substeps by ||L||_1, is refused before one is taken; the same span
        # at n = 8 takes the map
        monkeypatch.setattr(dynamics, "_factor_form", _not_reached)
        lay = SystemLayout((("A", 3), ("B", 3), ("C", 3)))
        h = Hamiltonian(lay, random_hermitian(27, RngStream(3, 0)))
        grid = TimeGrid(0.0, 1e6, 1e6)
        with pytest.raises(ValueError, match=r"^1 step\(s\) of 1e\+06 take 5\.66054e\+07 Taylor "
                                             r"substeps at dimension 27, above the cap of 1e\+10 "
                                             r"L-applications x n\^3 at 18 per substep; shorten"):
            dynamics._open_stacks(h, ket(lay, 0), JumpOperatorSet.local(lay, "dephasing", 0.1),
                                  grid)
        h, s0 = open_system_example()
        (stack,) = dynamics._open_stacks(h, s0, JumpOperatorSet.local(h.layout, "dephasing", 0.1),
                                         grid)
        assert len(stack.matrix) == 2

    def test_stiff_factor_run_is_refused(self, monkeypatch):
        # dephasing at 1e6 on three qubits forced to the factor form: 6e5
        # substeps per step of 0.1, priced at 18 L-applications x 8^3 each,
        # 2.8e10 over the run, are refused before stepping
        monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
        monkeypatch.setattr(dynamics, "_factor_form", _not_reached)
        h, s = open_system_example()
        with pytest.raises(ValueError, match=r"^5 step\(s\) of 0\.1 take 3e\+06 Taylor "):
            evolve_lindblad(h, s, TimeGrid(0.0, 0.5, 0.1),
                            JumpOperatorSet.local(h.layout, "dephasing", 1e6))

    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0, 10.0, 30.0, 100.0])
    def test_factor_form_exact_in_any_units(self, scale):
        # n = 27, past the map's cap: H = s GUE(27) / ||GUE||_tr, dephasing at
        # 0.3 s on every qutrit; the Taylor action is within roundoff of a
        # numpy-only reference at every s
        lay = SystemLayout((("A", 3), ("B", 3), ("C", 3)))
        stream = RngStream(5, 0)
        m = random_hermitian(27, stream)
        h = Hamiltonian(lay, scale * m / np.abs(np.linalg.eigvalsh(m)).sum())
        s0 = DensityState(lay, random_density(27, stream))
        jumps = JumpOperatorSet.local(lay, "dephasing", 0.3 * scale)
        grid = TimeGrid(0.0, 1.0, 0.1)
        (stack,) = dynamics._open_stacks(h, s0, jumps, grid)
        want = [s0.matrix]
        for _ in grid.times[1:]:
            want.append(_taylor_reference(h, jumps, want[-1], grid.step))
        assert np.abs(stack.matrix - np.array(want)).max() <= 1e-13
        assert np.abs(want[-1] - want[0]).max() > 1e-3


class TestLindblad:
    @pytest.mark.parametrize("n", [4, 8], ids=["n4", "n8"])
    def test_no_jumps_matches_unitary(self, n):
        # with no jumps the exact map is the spectral propagator's: every
        # column to roundoff
        if n == 4:
            h = direct_optimal(2)
            s = ket(h.layout, 0)
        else:
            h, s = cmi_product_example()
        grid = TimeGrid(0.0, 0.5, 0.05)
        jumps = JumpOperatorSet(h.layout, ())
        open_traj = evolve_lindblad(h, s, grid, jumps)
        closed_traj = evolve_unitary(h, s, grid)
        for name in dynamics.TRAJECTORY_COLUMNS:
            diff = np.abs(open_traj.columns[name] - closed_traj.columns[name])
            assert diff.max() <= 1e-12, name
        assert np.ptp(closed_traj.columns["negativity"]) > 1e-2

    def test_matches_exact_exponential_map(self):
        # each grid step of 0.0125 is exp(0.0125 L) on row-stacked rho, to
        # roundoff; at |L| ~ 34 the RK4 map of 13 substeps of 1e-3 or less,
        # S^13 with S = sum_{k<=4} (hL)^k / k!, is 1e-10 or more away at T = 0.1
        lay = SystemLayout((("A", 3), ("B", 2)))
        stream = RngStream(11, 0)
        h = Hamiltonian(lay, 5.0 * random_hermitian(6, stream))
        s0 = DensityState(lay, random_density(6, stream))
        jumps = JumpOperatorSet(lay, JumpOperatorSet.local(lay, "dephasing", 1.5, labels=("A",)).ops
                                + JumpOperatorSet.local(lay, "damping", 1.0, labels=("B",)).ops)
        grid = TimeGrid(0.0, 0.1, 0.0125)
        traj = evolve_lindblad(h, s0, grid, jumps)
        gen = _liouvillian(h, jumps)
        hl = gen * (grid.step / 13)
        step = sum(np.linalg.matrix_power(hl, k) / math.factorial(k) for k in range(5))
        segment = _exact_map(gen, grid.step)
        rho = s0.matrix.reshape(-1)
        assert len(traj.states) == 9
        for st in traj.states:
            assert np.abs(st.matrix - rho.reshape(lay.dim, lay.dim)).max() <= 1e-12
            rho = segment @ rho
        rk4 = np.linalg.matrix_power(step, 13 * 8) @ s0.matrix.reshape(-1)
        assert np.abs(traj.states[-1].matrix.reshape(-1) - rk4).max() >= 1e-10

    def test_pure_dephasing_rate(self):
        # single qubit, H = 0: coherence decays exactly as exp(-2 gamma T)
        lay = SystemLayout((("A", 2), ("B", 2)))
        h = direct_optimal(2).scaled(0.0)
        plus = np.array([1, 1, 0, 0]) / math.sqrt(2)
        s = DensityState.from_pure(lay, plus)
        gamma = 0.25
        jumps = JumpOperatorSet.local(lay, "dephasing", gamma, labels=("B",))
        traj = evolve_lindblad(h, s, TimeGrid(0.0, 2.0, 0.1), jumps)
        coherence = np.array([abs(st.matrix[0, 1]) for st in traj.states])
        expect = 0.5 * np.exp(-2 * gamma * traj.times)
        assert np.abs(coherence - expect).max() < 1e-9

    def test_damping_reaches_ground(self):
        lay = SystemLayout((("A", 2), ("B", 2)))
        h = direct_optimal(2).scaled(0.0)
        s = ket(lay, 3)  # |11>
        jumps = JumpOperatorSet.local(lay, "damping", 1.0)
        traj = evolve_lindblad(h, s, TimeGrid(0.0, 12.0, 0.5), jumps)
        assert traj.states[-1].matrix[0, 0].real > 1 - 1e-4

    def test_trace_preserved(self):
        h, s = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "dephasing", 0.3)
        traj = evolve_lindblad(h, s, TimeGrid(0.0, 1.0, 0.1), jumps)
        for st in traj.states:
            assert abs(np.trace(st.matrix).real - 1) < 1e-10

    def test_positivity_lost(self, rk4_stepper):
        # ten 1e-3 RK4 substeps at rate 1000 overshoot far below the floor
        # (the exact map and the Taylor action do not)
        h, s = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "damping", 1000.0)
        with pytest.raises(PositivityLostError, match="T=0.01;"):
            evolve_lindblad(h, s, TimeGrid(0.0, 0.01, 0.01), jumps)

    def test_stiff_one_step_run_takes_the_exact_map(self, tmp_path, monkeypatch):
        # dt rate = 1: the ten 1e-3 substeps of this step overshoot, but the
        # run takes the exact map, in the library and through the CLI
        h, s = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "damping", 1000.0)
        grid = TimeGrid(0.0, 0.01, 0.01)
        want = (_exact_map(_liouvillian(h, jumps), 0.01) @ s.matrix.reshape(-1)).reshape(8, 8)
        traj = evolve_lindblad(h, s, grid, jumps)
        assert np.abs(traj.states[-1].matrix - want).max() <= 1e-12
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", "--ham", "open-system", "--lindblad", "damping:1000",
                     "--tmax", "0.01", "--dt", "0.01", "--out", "stiff.csv"]) == 0
        with open("stiff.csv") as fh:
            row = list(csv.DictReader(fh))[-1]
        stack = DensityState(h.layout, np.array([s.matrix, 0.5 * (want + want.conj().T)]))
        ref = dynamics._observe(h, s, grid.times, [stack],
                                *dynamics._observed(s, grid, None, None))
        assert row["T"] == "0.01"
        for name in dynamics.TRAJECTORY_COLUMNS:
            assert abs(float(row[name]) - ref.columns[name][-1]) <= 1e-12, name

    def test_positivity_lost_names_the_time_not_a_stack_index(self, rk4_stepper):
        # each stepped state is checked on its own before the columns are
        # taken from the stack, so the first failing grid point is named
        h, s = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "damping", 1000.0)
        with pytest.raises(PositivityLostError, match="T=0.01;") as info:
            evolve_lindblad(h, s, TimeGrid(0.0, 0.05, 0.01), jumps)
        assert "stack index" not in str(info.value)

    @pytest.mark.parametrize("rate, named", [(940.0, "T=0.397"), (1000.0, "T=0.066")])
    def test_positivity_lost_names_the_first_failing_point(self, rk4_stepper, rate, named):
        # one check per chunk of 256 points still names the first grid point
        # that fails: index 397 lies in the second chunk, 66 in the first.
        # RK4 overshoots; the exact map would not
        h, _ = open_system_example()
        eps = 1e-15
        s = DensityState(h.layout, np.diag([1 - 7 * eps] + [eps] * 7))
        jumps = JumpOperatorSet.local(h.layout, "damping", rate)
        with pytest.raises(PositivityLostError, match=rf"below -1e-06 at {named};") as info:
            evolve_lindblad(h, s, TimeGrid(0.0, 1.0, 1e-3), jumps)
        assert "stack index" not in str(info.value)

    @pytest.mark.parametrize("rate", [1e4, 1e5, 1e6])
    def test_divergent_stepping_is_positivity_lost(self, rk4_stepper, rate):
        # 100 RK4 substeps of 1e-3 at these rates overflow to inf and NaN
        # before the first output point: no numpy warning, and that point is
        # named (the exact map converges: TestExactMap)
        h, s = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "dephasing", rate)
        with pytest.raises(PositivityLostError,
                           match=r"non-finite entries.* at T=0\.1; reduce") as info:
            evolve_lindblad(h, s, TimeGrid(0.0, 0.5, 0.1), jumps)
        assert "stack index" not in str(info.value)

    def test_divergent_stepping_stops_at_the_first_non_finite_state(self, rk4_stepper,
                                                                    monkeypatch):
        # the chunk is checked once point 1 is non-finite, not after 255
        # more points of 100 RK4 substeps each
        h, s = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "dephasing", 1e4)
        checked = []
        init = DensityState.__init__

        def recording(self, layout, matrix, **kwargs):
            checked.append(len(matrix))
            init(self, layout, matrix, **kwargs)

        monkeypatch.setattr(DensityState, "__init__", recording)
        with pytest.raises(PositivityLostError, match="T=0.1;"):
            dynamics._open_stacks(h, s, jumps, TimeGrid(0.0, 25.5, 0.1))
        assert checked[0] == 2

    def test_lost_marginal_names_its_time(self):
        # a stepped state within the open floor (-1e-6) whose A:B marginal
        # is below PSD_FLOOR: observation names the T of that state, counted
        # across the chunks, with PositivityLostError, not the marginal's
        # stack index with NotPSDError
        h, s0 = open_system_example()
        bad = np.diag([1 + 1e-8, 0, -1e-8, 0, 0, 0, 0, 0]).astype(complex)
        stacks = [DensityState(h.layout, s0.matrix[None]),
                  DensityState(h.layout, np.array([s0.matrix, bad]), eig_floor=-1e-6)]
        grid = TimeGrid(0.0, 0.5, 0.25)
        with pytest.raises(PositivityLostError,
                           match=r"^minimum eigenvalue -1\.000e-08 below -1e-10 at T=0\.5; reduce "
                                 r"the step or the rates$"):
            dynamics._observe(h, s0, grid.times, stacks, *dynamics._observed(s0, grid, None, None))

    def test_qutrit_clock_operator(self):
        lay = SystemLayout((("A", 3), ("B", 3)))
        (_, op), _ = JumpOperatorSet.local(lay, "dephasing", 0.25).ops
        w = np.exp(2j * np.pi / 3)
        assert_allclose(op, 0.5 * np.diag([1, w, w * w]), atol=1e-15)
        assert op[0, 0] == 0.5

    @pytest.mark.parametrize("kind, qubit", [
        ("dephasing", [[1, 0], [0, -1]]),
        ("damping", [[0, 1], [0, 0]]),
    ])
    def test_qubit_operators_exact(self, kind, qubit):
        # exp(i pi) is not exactly -1: Z and |0><1| must come out bit for bit
        assert np.array_equal(JUMP_KINDS[kind](2), np.array(qubit, dtype=complex))
        lay = SystemLayout((("A", 2), ("B", 2)))
        for _, op in JumpOperatorSet.local(lay, kind, 0.1).ops:
            assert op.tobytes() == (math.sqrt(0.1) * np.array(qubit, dtype=complex)).tobytes()

    def test_quarter_turns_exact(self):
        assert np.array_equal(np.diag(JUMP_KINDS["dephasing"](4)), [1, 1j, -1, -1j])

    def test_qutrit_pure_dephasing_rate(self):
        # H = 0: rho_01 of the qutrit decays as exp(-gamma (1 - cos 2pi/3) T)
        lay = SystemLayout((("A", 3), ("B", 2)))
        h = Hamiltonian(lay, np.zeros((6, 6)))
        s = DensityState.from_pure(lay, np.array([1, 0, 1, 0, 0, 0]) / math.sqrt(2))
        gamma = 0.25
        jumps = JumpOperatorSet.local(lay, "dephasing", gamma, labels=("A",))
        traj = evolve_lindblad(h, s, TimeGrid(0.0, 2.0, 0.1), jumps)
        coherence = np.array([abs(st.matrix[0, 2]) for st in traj.states])
        expect = 0.5 * np.exp(-gamma * (1 - math.cos(2 * math.pi / 3)) * traj.times)
        assert np.abs(coherence - expect).max() < 1e-9

    def test_qutrit_damping_reaches_ground(self):
        lay = SystemLayout((("A", 3), ("B", 2)))
        h = Hamiltonian(lay, np.zeros((6, 6)))
        jumps = JumpOperatorSet.local(lay, "damping", 1.0, labels=("A",))
        traj = evolve_lindblad(h, ket(lay, 4), TimeGrid(0.0, 12.0, 0.5), jumps)  # |2>|0>
        assert traj.states[-1].matrix[0, 0].real > 1 - 1e-4

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
    def test_bad_rate_named(self, rate):
        lay = SystemLayout((("A", 2), ("B", 2)))
        with pytest.raises(ValueError, match=f"rate '{rate}'"):
            JumpOperatorSet.local(lay, "damping", rate)

    def test_unknown_kind_names_choices(self):
        lay = SystemLayout((("A", 2), ("B", 2)))
        with pytest.raises(ValueError, match="'thermal'; choices: .*dephasing.*damping"):
            JumpOperatorSet.local(lay, "thermal", 0.1)

    def test_unknown_label(self):
        lay = SystemLayout((("A", 2), ("B", 2)))
        with pytest.raises(UnknownLabelError):
            JumpOperatorSet.local(lay, "dephasing", 0.1, labels=("C",))


class TestRateProbe:
    def test_direct_coupling_linear_rate(self):
        h = direct_optimal(2)
        dn = entanglement_change_at_zero(h, ket(h.layout, 0), Bipartition.parse("A:B"))
        # N = sin(2T)/2, whose slope at T = 0 is 1
        assert type(dn) is float and abs(dn - 1.0) <= 1e-12

    def test_mediated_coupling_flat_at_zero(self):
        h, s = cmi_product_example()
        dn = entanglement_change_at_zero(h, s, Bipartition.parse("A:B"))
        assert abs(dn) < 1e-7

    def test_open_variant_never_positive_for_product_input(self):
        h, s = cmi_product_example()
        jumps = JumpOperatorSet.local(h.layout, "dephasing", 0.1)
        dn = entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), jumps=jumps)
        assert dn <= 1e-10

    def test_open_positivity_lost(self, rk4_stepper):
        # rate x step = 1: one RK4 substep over the step overshoots.  The probe
        # takes no step, so it gives its rate; a run stepped over it loses
        # positivity
        h, s = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "damping", 1e4)
        assert math.isfinite(entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), jumps))
        with pytest.raises(PositivityLostError, match="T=0.0001;"):
            evolve_lindblad(h, s, TimeGrid(0.0, OVERSHOOT_STEP, OVERSHOOT_STEP), jumps)

    def test_overflowing_jumps_are_refused(self):
        # K = -iM - sum Q+Q / 2 overflows: the probe refuses the jumps by
        # their rates, each the largest <j|q+q|j> (rate x (d - 1) for damping),
        # before any numpy warning
        h, s = open_system_example()
        jumps = JumpOperatorSet(h.layout,
                                JumpOperatorSet.local(h.layout, "dephasing", 1e308, ["A"]).ops
                                + JumpOperatorSet.local(h.layout, "damping", 1e308, ["B"]).ops)
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match=r"^the jump rates \(A 1e\+308, B 1e\+308\) overflow K"):
            entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), jumps=jumps)

    def test_no_jumps_open_matches_closed(self):
        # the closed probe is the open one with an empty jump set, K = -iM:
        # the two agree bit for bit, for the direct control's linear rate and
        # for seeded rate-zero draws
        p = Bipartition.parse("A:B")
        h = direct_optimal(2)
        cases = [(h, ket(h.layout, 0))]
        for sid in range(4):
            stream = RngStream(6, sid)
            rho_ab = random_density(4, stream)
            rho_c = random_density(2, stream)
            h = random_mediated_hamiltonian(2, 2, 2, stream)
            s = DensityState(h.layout, np.kron(rho_ab, rho_c))
            cases.append((h.scaled(energy_moments(h, s).scale()), s))
        closed = [entanglement_change_at_zero(h, s, p) for h, s in cases]
        stepped = [entanglement_change_at_zero(h, s, p, JumpOperatorSet(h.layout, ()))
                   for h, s in cases]
        assert abs(closed[0] - 1.0) <= 1e-12
        assert stepped == closed

    @pytest.mark.parametrize("kind", [None, "dephasing", "damping"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_rate_is_the_centred_difference_of_the_stepper(self, d, kind):
        # dN/dT at the state rho(h) of a run against (N(2h) - N(0)) / 2h of the
        # same run, h = 1e-6, to 1e-6 relative: the difference misses the
        # rate by h^2 / 6 times N's third derivative and by the stepped N's
        # roundoff over 2h.  Random couplings on A:d B:d C:d and pure starts, whose
        # A:B marginals are entangled; no jumps is the empty set, which the
        # closed probe takes
        lay = SystemLayout((("A", d), ("B", d), ("C", d)))
        p = Bipartition.parse("A:B")
        jumps = None if kind is None else JumpOperatorSet.local(lay, kind, 0.3)
        for sid in range(3):
            stream = RngStream(23, sid)
            h = Hamiltonian(lay, random_hermitian(lay.dim, stream))
            s0 = DensityState.from_pure(lay, haar_pure(lay.dim, stream))
            traj = evolve_lindblad(h, s0, TimeGrid(0.0, 2e-6, 1e-6),
                                   jumps or JumpOperatorSet(lay, ()), cut=p)
            n = traj.columns["negativity"]
            rate = entanglement_change_at_zero(h, traj.states[1], p, jumps)
            assert n[1] > 0.05 and abs(rate) > 1e-4
            assert_allclose(rate, (n[2] - n[0]) / 2e-6, rtol=1e-6)

    @pytest.mark.parametrize("kind", [None, "dephasing", "damping"])
    def test_coupling_stack_with_one_state(self, kind):
        # a (B, n, n) stack of couplings and one state give the (B,) rates, each
        # the bits of its own single-coupling call; random couplings and a pure
        # start entangled across A:B, so no rate is roundoff
        lay = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
        p = Bipartition.parse("A:B")
        s0 = DensityState.from_pure(lay, haar_pure(lay.dim, RngStream(9, 0)))
        ms = [random_hermitian(lay.dim, RngStream(9, sid)) for sid in range(1, 4)]
        jumps = None if kind is None else JumpOperatorSet.local(lay, kind, 0.3)
        stacked = entanglement_change_at_zero(Hamiltonian(lay, np.array(ms)), s0, p, jumps)
        single = [entanglement_change_at_zero(Hamiltonian(lay, m), s0, p, jumps) for m in ms]
        assert stacked.shape == (3,) and stacked.tolist() == single
        assert min(abs(x) for x in single) > 1e-4

    @pytest.mark.parametrize("kind", [None, "dephasing", "damping"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_one_coupling_with_state_stack(self, d, kind):
        # one coupling and a (3, n, n) stack of states give the (3,) rates, each
        # the bits of its own one-state call: L takes its leading shape from the
        # product of K and the states, not from K alone.  Pure starts entangled
        # across A:B, so no rate is roundoff
        lay = SystemLayout((("A", d), ("B", d), ("C", d)))
        p = Bipartition.parse("A:B")
        h = Hamiltonian(lay, random_hermitian(lay.dim, RngStream(9, 0)))
        stack = DensityState.from_pure(
            lay, np.array([haar_pure(lay.dim, RngStream(9, sid)) for sid in range(1, 4)]))
        jumps = None if kind is None else JumpOperatorSet.local(lay, kind, 0.3)
        stacked = entanglement_change_at_zero(h, stack, p, jumps)
        single = [entanglement_change_at_zero(h, s, p, jumps) for s in stack]
        assert stacked.shape == (3,) and stacked.tolist() == single
        assert min(abs(x) for x in single) > 1e-4

    @pytest.mark.parametrize("kind", [None, "dephasing", "damping"])
    def test_l_acts_on_a_trajectory_stack(self, kind):
        # L applied to the 11 stepped states of an open-system run, as one
        # (11, 8, 8) stack, gives each state's own L(rho) bit for bit
        h, s = open_system_example()
        jumps = JumpOperatorSet(h.layout, ()) if kind is None else JumpOperatorSet.local(
            h.layout, kind, 0.1)
        traj = evolve_lindblad(h, s, TimeGrid(0.0, 1.0, 0.1), jumps)
        [rhos] = [stack.matrix for stack in traj.stacks]
        act = dynamics._l_action(*dynamics._generator(h, jumps))
        out = act(rhos)
        assert rhos.shape == out.shape == (11, 8, 8)
        assert all(np.array_equal(row, act(rho)) for row, rho in zip(out, rhos))

    @pytest.mark.parametrize("layout", [
        (("X", 2), ("Y", 2), ("Z", 2)),
        (("A", 2), ("B", 2)),
    ], ids=["relabelled", "two-subsystems"])
    def test_jump_layout_checked(self, layout):
        # the same check as evolve_lindblad, before any matrix product
        h, s = cmi_product_example()
        jumps = JumpOperatorSet.local(SystemLayout(layout), "dephasing", 0.1)
        with pytest.raises(LayoutMismatchError, match="jump operators"):
            entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), jumps=jumps)
        with pytest.raises(LayoutMismatchError, match="jump operators"):
            evolve_lindblad(h, s, TimeGrid(0.0, 0.1, 0.1), jumps)

    @pytest.mark.parametrize("kind", [None, "dephasing", "damping"])
    def test_stacked_probe_matches_single_calls(self, kind):
        # a stack of couplings and states, state b under coupling b, gives
        # each row the bits of its own call, closed and open
        p = Bipartition.parse("A:B")
        ms, rhos = [], []
        for sid in range(5):
            stream = RngStream(6, sid)
            rho = np.kron(random_density(4, stream), random_density(2, stream))
            h = random_mediated_hamiltonian(2, 2, 2, stream)
            ms.append(h.scaled(energy_moments(h, DensityState(h.layout, rho)).scale()).matrix)
            rhos.append(rho)
        lay = h.layout
        jumps = None if kind is None else JumpOperatorSet.local(lay, kind, 0.1)
        stacked = entanglement_change_at_zero(Hamiltonian(lay, np.array(ms)),
                                              DensityState(lay, np.array(rhos)), p, jumps)
        single = [entanglement_change_at_zero(Hamiltonian(lay, m), DensityState(lay, rho), p,
                                              jumps) for m, rho in zip(ms, rhos)]
        assert stacked.shape == (5,) and stacked.tolist() == single
        assert all(type(x) is float for x in single)

    def test_stacked_positivity_lost_names_its_index(self, rk4_stepper):
        # a run's chunk of stepped states is checked as one stack: the earliest
        # failing state, index 1 of the chunk, the first RK4 substep at rate x
        # step = 1, is named by its T alone, and the error carries no index.
        # The probe gives the same stack of three its rates
        h, s = open_system_example()
        jumps = JumpOperatorSet.local(h.layout, "damping", 1e4)
        stack = Hamiltonian(h.layout, np.array([0 * h.matrix, h.matrix, h.matrix]))
        states = DensityState(h.layout, np.array([ket(h.layout, 0).matrix, s.matrix, s.matrix]))
        rates = entanglement_change_at_zero(stack, states, Bipartition.parse("A:B"), jumps=jumps)
        assert rates.shape == (3,) and np.isfinite(rates).all()
        with pytest.raises(PositivityLostError,
                           match=r"T=0\.0001; reduce the step or the rates$") as info:
            evolve_lindblad(h, s, TimeGrid(0.0, 3 * OVERSHOOT_STEP, OVERSHOOT_STEP), jumps)
        assert info.value.index == ()

    def test_embedded_once_per_set(self, monkeypatch):
        # three embeddings, one per jump, over three probes
        import medqsl.dynamics as dynamics
        calls = []

        def counting(layout, labels, op):
            calls.append(tuple(labels))
            return embed(layout, labels, op)

        embed = dynamics.embed_operator
        monkeypatch.setattr(dynamics, "embed_operator", counting)
        h, s = cmi_product_example()
        jumps = JumpOperatorSet.local(h.layout, "damping", 0.1)
        dns = [entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), jumps=jumps)
               for _ in range(3)]
        assert calls == [("A",), ("B",), ("C",)]
        assert dns[0] == dns[1] == dns[2]
        assert jumps.embedded is jumps.embedded


class TestFirstMaxTime:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_direct_optimal_times(self, d):
        h = direct_optimal(d)
        t = first_max_entanglement_time(h, ket(h.layout, 0),
                                        Bipartition.parse("A:B"), horizon=2.0)
        assert type(t) is float
        assert abs(t - math.acos(1 / math.sqrt(d))) < 1e-6

    def test_mediated_pair_needs_double_time(self):
        h, s = cmi_product_example()
        t = first_max_entanglement_time(h, s, Bipartition.parse("A:B"), horizon=2.0)
        assert abs(t - math.pi / 2) < 1e-6

    def test_entangled_mediator_meets_direct_time(self):
        h, s = entangled_mediator_example()
        t = first_max_entanglement_time(h, s, Bipartition.parse("A:B"), horizon=1.0)
        assert abs(t - math.pi / 4) < 1e-6

    def test_commuting_never_reaches(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        h = commuting_mediated(z, z, z)
        lay = h.layout
        plusplus = np.ones(8) / math.sqrt(8)
        s = DensityState.from_pure(lay, plusplus)
        t = first_max_entanglement_time(h, s, Bipartition.parse("A:B"), horizon=3.0)
        assert t is None

    def test_peak_past_first_chunk(self):
        # a tenfold slower coupling peaks thousands of grid points in
        h = direct_optimal(2).scaled(0.1)
        t = first_max_entanglement_time(h, ket(h.layout, 0),
                                        Bipartition.parse("A:B"), horizon=10.0)
        assert abs(t - 10 * math.pi / 4) < 1e-6

    def test_never_peaks_within_longest_horizon(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        h = commuting_mediated(z, z, z)
        s = DensityState.from_pure(h.layout, np.ones(8) / math.sqrt(8))
        assert first_max_entanglement_time(h, s, Bipartition.parse("A:B"),
                                           horizon=50.0) is None

    def test_level_comes_from_the_cut(self):
        # the level is (d-1)/2 for the smaller side: a qubit pair plus a
        # spectator qubit reaches 1/2 across A:B and across A:B,S alike
        h = direct_optimal(2)
        lay = SystemLayout((("A", 2), ("B", 2), ("S", 2)))
        h3 = Hamiltonian(lay, np.kron(h.matrix, np.eye(2)))
        s0 = ket(lay, 0)
        for cut in ("A:B", "A:B,S", "A,S:B"):
            t = first_max_entanglement_time(h3, s0, Bipartition.parse(cut), horizon=1.0)
            assert abs(t - math.pi / 4) < 1e-6, cut

    def test_side_of_dimension_one_rejected(self):
        lay = SystemLayout((("A", 2), ("B", 1)))
        h = Hamiltonian(lay, np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(BadDimensionError, match="dimension 1"):
            first_max_entanglement_time(h, ket(lay, 0), Bipartition.parse("A:B"))

    def test_peak_at_the_horizon(self):
        # the last grid point, 0.785, is still rising: only the refinement
        # past it, up to the horizon, finds the peak at pi/4
        h = direct_optimal(2)
        t = first_max_entanglement_time(h, ket(h.layout, 0), Bipartition.parse("A:B"),
                                        horizon=0.7855)
        assert t is not None and abs(t - math.pi / 4) < 1e-6

    def test_already_maximal_at_zero(self):
        from medqsl.states import maximally_entangled
        h = direct_optimal(2)
        s = maximally_entangled(h.layout)
        t = first_max_entanglement_time(h, s, Bipartition.parse("A:B"), horizon=1.0)
        assert t is not None and t < 2e-3


    @pytest.mark.parametrize("deficit, maximal", [(5e-7, False), (5e-8, True)])
    def test_peak_counts_only_within_the_slack(self, deficit, maximal):
        # (1 - eps) of the direct pair's path plus eps I/4 peaks at
        # N = 1/2 - 3 eps / 4: a peak that deficit below (d-1)/2 is maximal
        # only within FIRST_MAX_SLACK = 1e-7, not within ten times that
        h = direct_optimal(2)
        eps = 4 * deficit / 3
        rho = (1 - eps) * ket(h.layout, 0).matrix + eps * np.eye(4) / 4
        t = first_max_entanglement_time(h, DensityState(h.layout, rho),
                                        Bipartition.parse("A:B"), horizon=2.0)
        if maximal:
            assert abs(t - math.pi / 4) < 1e-6
        else:
            assert t is None


class TestScanAndRefine:
    """The grid refiner on analytic functions with known answers."""

    TIMES = TimeGrid(0.0, 1.0, 0.1).times

    @staticmethod
    def bump(top, t0=0.33, c=0.02):
        """A parabola peaking at ``top`` at T = t0, between the samples 0.3 and 0.4."""
        return lambda t: top - c * (t - t0) ** 2

    def scan(self, f, level):
        """The samples of ``f`` on ``TIMES`` and the one-row search of its first crossing."""
        values = f(self.TIMES)
        return values, first_crossing(f, self.TIMES, values[None], level)[0]

    def test_graze_between_samples(self):
        level = 0.5
        values, t = self.scan(self.bump(level + 1e-5), level)
        # no sample reaches the level, the nearest lies 8e-6 below it
        assert values.max() < level
        assert level - values.max() < 1e-5
        assert abs(t - (0.33 - math.sqrt(1e-5 / 0.02))) < 1e-8

    def test_first_sample_at_level(self):
        assert self.scan(lambda t: 1.0 - t, 0.9)[1] == 0.0

    def test_never_reached(self):
        # a grid-local peak within the slack is refined, and stays below
        values, t = self.scan(self.bump(0.5 - 1e-6), 0.5)
        assert 0.5 - values.max() < 1e-4
        assert math.isnan(t)
        assert math.isnan(self.scan(lambda t: 0.0 * t, 0.5)[1])

    def test_peak_at_grid_end(self):
        # f may return the array it is given
        t, value = refine_peak(lambda t: t, np.array([0.9]), np.array([1.0]))
        assert t.shape == value.shape == (1,)
        assert 1.0 - t[0] < 1e-9 and value[0] == t[0]
        t, value = refine_peak(lambda t: -t, np.array([0.0]), np.array([0.1]))
        assert t[0] < 1e-9 and value[0] == -t[0]
        assert abs(self.scan(lambda t: t, 0.95)[1] - 0.95) < 1e-9

    def test_bisection(self):
        t = bisect_crossing(lambda t: t * t, np.zeros(1), np.ones(1), 0.25)
        assert t.shape == (1,) and 0.0 <= t[0] - 0.5 < 1e-9

    def test_stacked_rows_match_one_row_searches(self):
        # row b of one stacked search has the bits of the one-row search of
        # bracket b: two-step brackets, one-step brackets (a peak at a grid's
        # first or last point, so fewer iterations), peaks at the lower and
        # upper bracket ends and a bracket already below REFINE_TOL
        tops = np.array([0.33, 0.05, 0.95, 0.61, -0.5, 1.2, 0.5])
        lo = np.array([0.3, 0.0, 0.9, 0.5, 0.0, 0.9, 0.5])
        hi = np.array([0.5, 0.1, 1.0, 0.7, 0.1, 1.0, 0.5 + 5e-10])
        calls = []

        def stacked(t):
            calls.append(t.copy())
            return -(t - tops) * (t - tops)

        t, value = refine_peak(stacked, lo, hi)
        assert t.shape == value.shape == (7,)
        one_row_calls = [0] * 7
        for b in range(7):
            def one_row(x, b=b):
                one_row_calls[b] += 1
                return -(x - tops[b]) * (x - tops[b])
            want = refine_peak(one_row, lo[b:b + 1], hi[b:b + 1])
            assert want[0].shape == want[1].shape == (1,)
            assert (t[b], value[b]) == (want[0][0], want[1][0])
        # the brackets are read, never written
        assert all(((lo <= x) & (x <= hi)).all() for x in calls)
        # each row stops at its own width: the narrower brackets stop first
        assert one_row_calls[6] == 3 and one_row_calls[1] < one_row_calls[0]
        assert len(calls) == max(one_row_calls)
        assert abs(t[4] - 0.0) < 1e-9 and abs(t[5] - 1.0) < 1e-9

    @staticmethod
    def rowwise(fs, calls):
        """The stacked f whose row b is ``fs[b]``, recording each (B,) vector of times."""
        def stacked(t):
            calls.append(t.copy())
            return np.array([g(x) for g, x in zip(fs, t.tolist())])
        return stacked

    def test_stacked_crossings_match_one_row_searches(self):
        # row b of one stacked first_crossing has the bits of the one-row
        # search of its samples: a graze between samples, a first sample at
        # the level, a row that never reaches it (its near-peak refined and
        # found short), one with no sample near it, and two rows with two
        # near-peaks before their first crossing, found at a sample after
        # both and by a graze at the second
        level = 0.5
        wave = lambda t: 0.49997 + 2e-5 * math.sin(2 * math.pi * t / 0.4)  # noqa: E731
        fs = [self.bump(level + 1e-5), lambda t: 1.0 - t, self.bump(level - 1e-6),
              lambda t: 0.0 * t, lambda t: wave(t) + max(0.0, t - 0.6),
              lambda t: wave(t) + 5e-5 * max(0.0, 1 - ((t - 0.55) / 0.05) ** 2)]
        values = np.array([[g(t) for t in self.TIMES.tolist()] for g in fs])
        calls = []
        got = first_crossing(self.rowwise(fs, calls), self.TIMES, values, level)
        want = [first_crossing(self.rowwise([g], []), self.TIMES, v[None], level)
                for g, v in zip(fs, values)]
        assert got.shape == (6,) and all(w.shape == (1,) for w in want)
        assert np.array_equal(got, np.concatenate(want), equal_nan=True)
        assert np.isnan(got[[2, 3]]).all() and got[1] == 0.0
        assert 0.3 < got[0] < 0.4 and 0.6 < got[4] <= 0.7 and 0.4 < got[5] < 0.6
        # rows 4 and 5 have two grid-local peaks within PEAK_SLACK before
        # their crossing, and no sample reaches the level before 0.7
        for row in values[4:]:
            peaks = [k for k in range(1, 10) if row[k] >= max(row[k - 1], row[k + 1])
                     and level - row[k] <= 1e-4 and row[k] < level]
            assert peaks[:2] == [1, 5]
        assert all(len(t) == 6 for t in calls)

    def test_stacked_bisections_match_one_row_searches(self):
        # row b of one stacked bisection has the bits of the one-row one, and
        # stops at its own width: a bracket already below REFINE_TOL takes no
        # step, and the stack takes as many f calls as its longest row
        level = 0.25
        lo = np.array([0.0, 0.4, 0.49, 0.5 - 4e-10, 0.2])
        hi = np.array([1.0, 0.6, 0.5, 0.5 + 4e-10, 0.9])
        fs = [lambda t, s=s: s * t * t for s in (1.0, 1.0, 1.0, 1.0, 1.5)]
        calls = []
        got = bisect_crossing(self.rowwise(fs, calls), lo, hi, level)
        one_row_calls = []
        for b in range(5):
            counted = []
            want = bisect_crossing(self.rowwise(fs[b:b + 1], counted), lo[b:b + 1],
                                   hi[b:b + 1], level)
            assert want.shape == (1,) and got[b] == want[0]
            one_row_calls.append(len(counted))
        assert one_row_calls[3] == 0 and one_row_calls[2] < one_row_calls[0]
        assert len(calls) == max(one_row_calls)
        assert all(((lo <= x) & (x <= hi)).all() for x in calls)


def test_write_csv_spells_non_finite_values_as_rows_do(tmp_path):
    # the one-format writer gives the bytes of a per-row %.17g writer, NaN,
    # infinities and -0.0 included
    n = 519
    cols = [np.linspace(-1.0, 1.0, n) for _ in range(3)]
    cols[0][[0, 5, n - 1]] = (math.nan, -0.0, math.inf)
    cols[1][[1, 300, n - 2]] = (-math.inf, math.nan, -0.0)
    cols[2][:] = math.nan
    dynamics.write_csv(tmp_path / "w.csv", ("T", "a", "b"), cols)
    rows = ["%.17g,%.17g,%.17g\n" % row for row in zip(*(c.tolist() for c in cols))]
    assert (tmp_path / "w.csv").read_text() == "T,a,b\n" + "".join(rows)
    assert "nan" in rows[0] and "-0," in rows[5] and "inf" in rows[-1]


def test_trajectory_csv_round_trip(tmp_path):
    h, s = cmi_product_example()
    traj = evolve_unitary(h, s, TimeGrid(0.0, 0.2, 0.1))
    out = tmp_path / "t.csv"
    traj.to_csv(out)
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "T" and "negativity" in header
    assert len(lines) == 1 + len(traj.times)
    back = float(lines[-1].split(",")[1])
    assert_allclose(back, traj.columns["negativity"][-1], rtol=1e-15)


def test_write_csv_matches_formatted_rows(tmp_path):
    gen = np.random.default_rng(12)
    cols = [gen.standard_normal(1000) * 10.0 ** gen.integers(-300, 300, 1000) for _ in range(4)]
    cols[0][:4] = (0.0, -0.0, 5e-324, -2.2250738585072014e-309)
    cols[1][:4] = (1.0, -1.0, 1e300, np.pi)
    names = ("T", "a", "b", "c")
    dynamics.write_csv(tmp_path / "w.csv", names, cols)
    rows = [",".join(f"{c[k]:.17g}" for c in cols) for k in range(1000)]
    assert (tmp_path / "w.csv").read_text() == "\n".join(["T,a,b,c", *rows]) + "\n"


def test_trajectory_keeps_its_chunk_stacks():
    h, s = cmi_product_example()
    traj = evolve_unitary(h, s, TimeGrid(0.0, 0.599, 1e-3))
    assert [len(st.matrix) for st in traj.stacks] == [256, 256, 88]
    assert "states" not in vars(traj)
    assert len(traj.states) == 600
    for k in (0, 255, 256, 599):
        assert np.shares_memory(traj.states[k].matrix, traj.stacks[k // 256].matrix)
