"""Evolution, the open-system integrator, and the timing probes."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from medqsl import dynamics
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
    entangled_mediator_example,
    open_system_example,
)
from medqsl.linalg import hermitian_eig, sqrtm_psd
from medqsl.randgen import RngStream, haar_pure, random_density, random_hermitian
from medqsl.states import Bipartition, DensityState, SystemLayout, embed_operator


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

    def test_len_without_building_the_times(self):
        for step in (0.25, 0.3):
            g = TimeGrid(0.0, 1.0, step)
            assert len(g) == len(g.times)
        assert len(TimeGrid(0.0, 10000.0, 1e-3)) == 10_000_001


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the size check")


class TestTrajectoryCap:
    """A trajectory above MAX_TRAJECTORY_BYTES is refused before any allocation."""

    @pytest.mark.parametrize("open_", [False, True], ids=["unitary", "lindblad"])
    def test_refused_before_the_grid_is_built(self, monkeypatch, open_):
        monkeypatch.setattr(TimeGrid, "times", property(_refuse))
        monkeypatch.setattr(dynamics, "hermitian_eig", _refuse)
        monkeypatch.setattr(JumpOperatorSet, "embedded", _refuse)
        h = direct_optimal(2)
        # 1e7 + 1 points of 4x4 complex matrices: 2.4 GiB
        args = (h, ket(h.layout, 0), TimeGrid(0.0, 10000.0, 1e-3))
        with pytest.raises(ValueError, match=r"10000001 states of dimension 4 needs 2.4 GiB, "
                                             r"above the cap of 2 GiB"):
            if open_:
                evolve_lindblad(*args, JumpOperatorSet.dephasing(h.layout))
            else:
                evolve_unitary(*args)

    def test_cap_is_inclusive(self, monkeypatch):
        h = direct_optimal(2)
        grid = TimeGrid(0.0, 1.0, 0.1)
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", 11 * 4 * 4 * 16)
        assert len(evolve_unitary(h, ket(h.layout, 0), grid).states) == 11
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", 11 * 4 * 4 * 16 - 1)
        with pytest.raises(ValueError, match="above the cap"):
            evolve_unitary(h, ket(h.layout, 0), grid)


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
        h, s0 = classical_mediator_example()
        stream = RngStream(5, 0)
        psi = haar_pure(8, stream)
        s0 = DensityState(s0.layout, 0.9 * np.outer(psi, psi.conj())
                          + 0.1 * random_density(8, stream))
        seen = []
        for points in (10, 250):
            before = dict(counts)
            traj = evolve_unitary(h, s0, TimeGrid(0.0, (points - 1) * 1e-3, 1e-3))
            assert len(traj.states) == points
            seen.append({name: counts[name] - before[name] for name in counts})
        assert seen[0] == seen[1]
        assert 0 < seen[0]["eigh"] and 0 < seen[0]["eigvalsh"] < 20

    def test_states_are_views_of_the_validated_stack(self):
        h, s0 = entangled_mediator_example()
        traj = evolve_unitary(h, s0, TimeGrid(0.0, 0.3, 1e-3))
        assert len(traj.states) == len(traj.times) == 301
        assert all(st.is_pure and st.matrix.shape == (8, 8) for st in traj.states)
        last = traj.states[-1]
        assert not last.matrix.flags.writeable and not last.pure_vector.flags.writeable
        assert_allclose(last.matrix, np.outer(last.pure_vector, last.pure_vector.conj()),
                        rtol=0, atol=0)


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
        w, v = hermitian_eig(h.matrix)
        x0 = s0.pure_vector if pure else sqrtm_psd(s0.matrix)
        got = negativity_curve(self.LAYOUT, p)(w, v, x0, grid.times)
        assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            negativity_curve(self.LAYOUT, Bipartition.parse("A:D"))


class TestLindblad:
    def test_no_jumps_matches_unitary(self):
        h, s = cmi_product_example()
        grid = TimeGrid(0.0, 0.5, 0.05)
        jumps = JumpOperatorSet(h.layout, ())
        open_traj = evolve_lindblad(h, s, grid, jumps)
        closed_traj = evolve_unitary(h, s, grid)
        diff = np.abs(open_traj.columns["negativity"] - closed_traj.columns["negativity"])
        assert diff.max() < 1e-9

    def test_matches_rk4_polynomial_map(self):
        # one RK4 substep of d rho/dT = L rho is S = sum_{k<=4} (hL)^k / k!, so
        # each grid step of 0.0125 (13 substeps) is S^13 on row-stacked rho; at
        # |L| ~ 34 a 12- or 14-substep map, or exp(0.0125 L), is 2e-10 or more away
        lay = SystemLayout((("A", 3), ("B", 2)))
        stream = RngStream(11, 0)
        h = Hamiltonian(lay, 5.0 * random_hermitian(6, stream))
        s0 = DensityState(lay, random_density(6, stream))
        jumps = JumpOperatorSet(lay, JumpOperatorSet.dephasing(lay, 1.5, labels=("A",)).ops
                                + JumpOperatorSet.damping(lay, 1.0, labels=("B",)).ops)
        grid = TimeGrid(0.0, 0.1, 0.0125)
        traj = evolve_lindblad(h, s0, grid, jumps)
        eye = np.eye(lay.dim)
        gen = -1j * (np.kron(h.matrix, eye) - np.kron(eye, h.matrix.T))
        for label, op in jumps.ops:
            q = embed_operator(lay, (label,), op)
            qq = q.conj().T @ q
            gen += np.kron(q, q.conj()) - 0.5 * (np.kron(qq, eye) + np.kron(eye, qq.T))
        hl = gen * (grid.step / 13)
        step = sum(np.linalg.matrix_power(hl, k) / math.factorial(k) for k in range(5))
        segment = np.linalg.matrix_power(step, 13)
        rho = s0.matrix.reshape(-1)
        assert len(traj.states) == 9
        for st in traj.states:
            assert np.abs(st.matrix - rho.reshape(lay.dim, lay.dim)).max() <= 1e-12
            rho = segment @ rho

    def test_pure_dephasing_rate(self):
        # single qubit, H = 0: coherence decays exactly as exp(-2 gamma T)
        lay = SystemLayout((("A", 2), ("B", 2)))
        h = direct_optimal(2).scaled(0.0)
        plus = np.array([1, 1, 0, 0]) / math.sqrt(2)
        s = DensityState.from_pure(lay, plus)
        gamma = 0.25
        jumps = JumpOperatorSet.dephasing(lay, gamma, labels=("B",))
        traj = evolve_lindblad(h, s, TimeGrid(0.0, 2.0, 0.1), jumps)
        coherence = np.array([abs(st.matrix[0, 1]) for st in traj.states])
        expect = 0.5 * np.exp(-2 * gamma * traj.times)
        assert np.abs(coherence - expect).max() < 1e-9

    def test_damping_reaches_ground(self):
        lay = SystemLayout((("A", 2), ("B", 2)))
        h = direct_optimal(2).scaled(0.0)
        s = ket(lay, 3)  # |11>
        jumps = JumpOperatorSet.damping(lay, 1.0)
        traj = evolve_lindblad(h, s, TimeGrid(0.0, 12.0, 0.5), jumps)
        assert traj.states[-1].matrix[0, 0].real > 1 - 1e-4

    def test_trace_preserved(self):
        h, s = open_system_example()
        jumps = JumpOperatorSet.dephasing(h.layout, 0.3)
        traj = evolve_lindblad(h, s, TimeGrid(0.0, 1.0, 0.1), jumps)
        for st in traj.states:
            assert abs(np.trace(st.matrix).real - 1) < 1e-10

    def test_positivity_lost(self):
        # one 1e-3 RK4 step at rate 1000 overshoots far below the floor
        h, s = open_system_example()
        jumps = JumpOperatorSet.damping(h.layout, 1000.0)
        with pytest.raises(PositivityLostError, match="T=0.010000"):
            evolve_lindblad(h, s, TimeGrid(0.0, 0.01, 0.01), jumps)

    def test_positivity_lost_names_the_time_not_a_stack_index(self):
        # each stepped state is checked on its own before the columns are
        # taken from the stack, so the first failing grid point is named
        h, s = open_system_example()
        jumps = JumpOperatorSet.damping(h.layout, 1000.0)
        with pytest.raises(PositivityLostError, match="T=0.010000") as info:
            evolve_lindblad(h, s, TimeGrid(0.0, 0.05, 0.01), jumps)
        assert "stack index" not in str(info.value)

    def test_qutrit_clock_operator(self):
        lay = SystemLayout((("A", 3), ("B", 3)))
        (_, op), _ = JumpOperatorSet.dephasing(lay, 0.25).ops
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
        jumps = JumpOperatorSet.dephasing(lay, gamma, labels=("A",))
        traj = evolve_lindblad(h, s, TimeGrid(0.0, 2.0, 0.1), jumps)
        coherence = np.array([abs(st.matrix[0, 2]) for st in traj.states])
        expect = 0.5 * np.exp(-gamma * (1 - math.cos(2 * math.pi / 3)) * traj.times)
        assert np.abs(coherence - expect).max() < 1e-9

    def test_qutrit_damping_reaches_ground(self):
        lay = SystemLayout((("A", 3), ("B", 2)))
        h = Hamiltonian(lay, np.zeros((6, 6)))
        jumps = JumpOperatorSet.damping(lay, 1.0, labels=("A",))
        traj = evolve_lindblad(h, ket(lay, 4), TimeGrid(0.0, 12.0, 0.5), jumps)  # |2>|0>
        assert traj.states[-1].matrix[0, 0].real > 1 - 1e-4

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
    def test_bad_rate_named(self, rate):
        lay = SystemLayout((("A", 2), ("B", 2)))
        with pytest.raises(ValueError, match=f"rate '{rate}'"):
            JumpOperatorSet.damping(lay, rate)

    def test_unknown_kind_names_choices(self):
        lay = SystemLayout((("A", 2), ("B", 2)))
        with pytest.raises(ValueError, match="'thermal'; choices: .*dephasing.*damping"):
            JumpOperatorSet.local(lay, "thermal", 0.1)

    def test_unknown_label(self):
        lay = SystemLayout((("A", 2), ("B", 2)))
        with pytest.raises(UnknownLabelError):
            JumpOperatorSet.dephasing(lay, 0.1, labels=("C",))


class TestRateProbe:
    def test_direct_coupling_linear_rate(self):
        h = direct_optimal(2)
        dn = entanglement_change_at_zero(h, ket(h.layout, 0), Bipartition.parse("A:B"),
                                         delta=1e-4)
        # N = sin(2 delta)/2 ~ delta - (2/3) delta^3
        assert_allclose(dn, 1e-4, rtol=1e-6)

    def test_mediated_coupling_flat_at_zero(self):
        h, s = cmi_product_example()
        dn = entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), delta=1e-4)
        assert abs(dn) < 1e-7

    def test_open_variant_never_positive_for_product_input(self):
        h, s = cmi_product_example()
        jumps = JumpOperatorSet.dephasing(h.layout, 0.1)
        dn = entanglement_change_at_zero(h, s, Bipartition.parse("A:B"),
                                         delta=1e-4, jumps=jumps)
        assert dn <= 1e-10

    def test_open_positivity_lost(self):
        h, s = open_system_example()
        jumps = JumpOperatorSet.damping(h.layout, 1000.0)
        with pytest.raises(PositivityLostError, match="T=0.001000"):
            entanglement_change_at_zero(h, s, Bipartition.parse("A:B"),
                                        delta=1e-3, jumps=jumps)

    def test_delta_range_enforced(self):
        h = direct_optimal(2)
        with pytest.raises(ValueError):
            entanglement_change_at_zero(h, ket(h.layout, 0),
                                        Bipartition.parse("A:B"), delta=0.5)

    @pytest.mark.parametrize("layout", [
        (("X", 2), ("Y", 2), ("Z", 2)),
        (("A", 2), ("B", 2)),
    ], ids=["relabelled", "two-subsystems"])
    def test_jump_layout_checked(self, layout):
        # the same check as evolve_lindblad, before any matrix product
        h, s = cmi_product_example()
        jumps = JumpOperatorSet.dephasing(SystemLayout(layout), 0.1)
        with pytest.raises(LayoutMismatchError, match="jump operators"):
            entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), jumps=jumps)
        with pytest.raises(LayoutMismatchError, match="jump operators"):
            evolve_lindblad(h, s, TimeGrid(0.0, 0.1, 0.1), jumps)

    def test_embedded_once_per_set(self, monkeypatch):
        import medqsl.dynamics as dynamics
        calls = []

        def counting(*args):
            calls.append(args[1])
            return embed(*args)

        embed = dynamics.embed_operator
        monkeypatch.setattr(dynamics, "embed_operator", counting)
        h, s = cmi_product_example()
        jumps = JumpOperatorSet.damping(h.layout, 0.1)
        dns = [entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), jumps=jumps)
               for _ in range(3)]
        assert calls == [("A",), ("B",), ("C",)]
        assert dns[0] == dns[1] == dns[2]
        assert jumps.embedded() is jumps.embedded()


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


class TestScanAndRefine:
    """The grid refiner on analytic functions with known answers."""

    TIMES = TimeGrid(0.0, 1.0, 0.1).times

    @staticmethod
    def bump(top, t0=0.33, c=0.02):
        """A parabola peaking at ``top`` at T = t0, between the samples 0.3 and 0.4."""
        return lambda t: top - c * (t - t0) ** 2

    def scan(self, f, level):
        values = np.array([f(t) for t in self.TIMES])
        return values, first_crossing(f, self.TIMES, values, level)

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
        t, value = refine_peak(lambda t: t, 0.9, 1.0)
        assert 1.0 - t < 1e-9 and value == t
        t, value = refine_peak(lambda t: -t, 0.0, 0.1)
        assert t < 1e-9 and value == -t
        assert abs(self.scan(lambda t: t, 0.95)[1] - 0.95) < 1e-9

    def test_bisection(self):
        t = bisect_crossing(lambda t: t * t, 0.0, 1.0, 0.25)
        assert 0.0 <= t - 0.5 < 1e-9


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
