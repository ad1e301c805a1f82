"""Evolution, the open-system integrator, and the timing probes."""

import csv
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from medqsl import dynamics, hamiltonians
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
from medqsl.sweep import SweepConfig, run_rate_zero


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

    def test_step_too_large_to_count_in_substeps(self):
        # 1e308 / 1e-3 overflows: a one-point grid takes no step and is not
        # counted, and a grid with a step to take is refused before stepping
        h = direct_optimal(2)
        jumps = JumpOperatorSet.dephasing(h.layout, 0.1)
        traj = evolve_lindblad(h, ket(h.layout, 0), TimeGrid(0.0, 1.0, 1e308), jumps)
        assert traj.times.tolist() == [0.0] and len(traj.states) == 1
        with pytest.raises(ValueError, match="too many RK4 substeps to count"):
            evolve_lindblad(h, ket(h.layout, 0), TimeGrid(0.0, 1.7e308, 1e306), jumps)

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
        monkeypatch.setattr(hamiltonians, "hermitian_eig", _refuse)
        monkeypatch.setattr(JumpOperatorSet, "embedded", property(_refuse))
        h = direct_optimal(2)
        # 1e7 + 1 points of a 4x4 complex matrix (256 B), a 4-vector (64 B)
        # and eight float columns (64 B): 3.84e9 B, 3.6 GiB
        args = (h, ket(h.layout, 0), TimeGrid(0.0, 10000.0, 1e-3))
        with pytest.raises(ValueError, match=r"10000001 states of dimension 4 needs 3.6 GiB, "
                                             r"above the cap of 2 GiB"):
            if open_:
                evolve_lindblad(*args, JumpOperatorSet.dephasing(h.layout))
            else:
                evolve_unitary(*args)

    def test_cap_is_inclusive(self, monkeypatch):
        h = direct_optimal(2)
        grid = TimeGrid(0.0, 1.0, 0.1)
        per_point = 4 * 4 * 16 + 4 * 16 + 8 * len(dynamics.TRAJECTORY_COLUMNS)
        assert per_point == 384
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", 11 * per_point)
        assert len(evolve_unitary(h, ket(h.layout, 0), grid).states) == 11
        monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_BYTES", 11 * per_point - 1)
        with pytest.raises(ValueError, match="above the cap"):
            evolve_unitary(h, ket(h.layout, 0), grid)


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
            evolve_lindblad(*args, JumpOperatorSet.dephasing(h.layout), cut=Bipartition.parse(cut))
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
            evolve_lindblad(*args, JumpOperatorSet.dephasing(h.layout), target=target)
        else:
            evolve_unitary(*args, target=target)


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
        # max|w| = 10 here, so the phase 10 T of the last grid point is inf;
        # the suite turns any numpy RuntimeWarning into an error
        h = Hamiltonian(classical_mediator_example()[0].layout,
                        np.diag([10.0, 0, 0, -10, 0, 0, 0, 0]))
        s0 = classical_mediator_example()[1] if mixed else ket(h.layout, 0)
        monkeypatch.setattr(dynamics, "propagate", _refuse)
        with pytest.raises(ValueError, match=r"overflows a float at T = 1\.7e\+308 "
                                             r"\(max\|w\| = 10\)"):
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
    return evolve_lindblad(h, s0, grid, JumpOperatorSet.dephasing(h.layout, 0.1), **observed)


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


def _substeps(times):
    """(count, dt) per segment of ``times``: the fewest substeps of at most 1e-3."""
    for t0, t1 in zip(times[:-1], times[1:]):
        n_sub = max(1, int(math.ceil((t1 - t0) / dynamics.LINDBLAD_MAX_STEP - 1e-12)))
        yield n_sub, (t1 - t0) / n_sub


def _rk4_reference(h, s0, jumps, times):
    """Four-stage RK4 on K r + (K r)+ + sum_q Q r Q+: the reference for the stepper."""
    q, q_adj, qq = jumps.embedded
    k_eff = -1j * h.matrix - 0.5 * qq

    def rhs(r):
        kr = k_eff @ r
        return kr + kr.conj().T + (q @ r @ q_adj).sum(axis=0)

    rho, out = s0.matrix, [s0.matrix]
    for n_sub, dt in _substeps(times):
        for _ in range(n_sub):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
        out.append(rho)
    return np.array(out)


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
    # the stack, its adjoints and sum_q Q+Q keep the bits of each jump's
    # embedding, zero signs included (a qutrit clock operator chained
    # through two identity products would not)
    lay = SystemLayout(tuple(zip("ABC", dims)))
    jumps = JumpOperatorSet.local(lay, kind, 0.3)
    q, q_adj, qq = jumps.embedded
    old = np.array([embed_operator(lay, (lab,), op) for lab, op in jumps.ops],
                   dtype=complex).reshape((-1,) + 2 * (lay.dim,))
    old_adj = old.conj().swapaxes(1, 2)
    assert q.tobytes() == old.tobytes()
    assert q_adj.tobytes() == old_adj.tobytes()
    assert qq.tobytes() == (old_adj @ old).sum(axis=0).tobytes()


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


@pytest.mark.parametrize("form, dims, specs", [
    pytest.param(form, dims, specs, id=prefix + name)
    for form, prefix in ((dynamics._factor_form, ""), (dynamics._liouville_form, "liouville-"))
    for name, (dims, specs) in _STEPPER_CASES.items()])
def test_stepper_matches_four_stage_rk4(form, dims, specs):
    # each form against its reference, to roundoff: the factor form's
    # substeps are the four-stage RK4 map of a linear, time-independent
    # generator; the Liouville form, built for the one span of the grid
    # step, is its exact map exp(L T), here against a Taylor exponential of
    # the test's own L
    lay = SystemLayout(dims)
    stream = RngStream(13, len(specs))
    h = Hamiltonian(lay, 3.0 * random_hermitian(lay.dim, stream))
    s0 = DensityState(lay, random_density(lay.dim, stream))
    grid = TimeGrid(0.0, 0.2, 0.025)
    jumps = _jumps(lay, *specs)
    k, q = dynamics._generator(h, jumps)
    got = [s0.matrix]
    if form is dynamics._factor_form:
        step = form(k, q)
        for n_sub, dt in _substeps(grid.times):
            got.append(step(got[-1], dt, n_sub))
        ref = _rk4_reference(h, s0, jumps, grid.times)
    else:
        step = form(k, q, grid.step)
        for _ in grid.times[1:]:
            got.append(step(got[-1]))
        segment = _exact_map(_liouvillian(h, jumps), grid.step)
        ref = [s0.matrix.reshape(-1)]
        for _ in grid.times[1:]:
            ref.append(segment @ ref[-1])
        ref = np.array(ref).reshape(-1, lay.dim, lay.dim)
    assert np.abs(np.array(got) - ref).max() <= 1e-12
    assert np.abs(ref[-1] - ref[0]).max() > 1e-2


class TestStepperForm:
    """The one rule in ``_open_stacks`` that picks the substep's form."""

    @pytest.fixture
    def built(self, monkeypatch):
        # the forms built, by name and dimension, each still the real one
        built = []
        for name in ("_factor_form", "_liouville_form"):
            def recording(k, q, *span, name=name, form=getattr(dynamics, name)):
                built.append((name, k.shape[-1]))
                return form(k, q, *span)
            monkeypatch.setattr(dynamics, name, recording)
        return built

    def test_no_setting_chooses_it(self):
        # the cap counts the real map's 8 n^4 bytes: up to n = 19
        assert list(inspect.signature(dynamics._open_stacks).parameters) == [
            "h", "s0", "jumps", "grid"]
        assert 8 * 19 ** 4 <= dynamics.LIOUVILLE_MAX_BYTES < 8 * 20 ** 4

    def test_lindblad_open_shape_takes_the_liouville_form(self, built):
        # n = 8, three dephasing jumps, 5 grid steps of 100 substeps
        h, s0 = open_system_example()
        jumps = JumpOperatorSet.dephasing(h.layout, 0.1)
        evolve_lindblad(h, s0, TimeGrid(0.0, 0.5, 0.1), jumps)
        assert built == [("_liouville_form", 8)]

    @pytest.mark.parametrize("substeps", [1, 2, 8, 10, 500])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (2, 3, 3)], ids=["n4", "n8", "n18"])
    def test_every_run_whose_map_fits_takes_it(self, built, dims, substeps):
        # the form follows from the size alone: a grid step of any number of
        # 1e-3 substeps takes the exact map wherever it fits (n <= 19)
        lay = SystemLayout(tuple(zip("ABC", dims)))
        h = Hamiltonian(lay, random_hermitian(lay.dim, RngStream(3, 0)))
        tmax = substeps * dynamics.LINDBLAD_MAX_STEP
        evolve_lindblad(h, ket(lay, 0), TimeGrid(0.0, tmax, tmax),
                        JumpOperatorSet.dephasing(lay, 0.1))
        assert built == [("_liouville_form", lay.dim)]

    @pytest.mark.parametrize("d, n", [(2, 8), (3, 27)])
    def test_rate_zero_probe_takes_the_factor_form(self, built, d, n):
        # one substep of RATE_DELTA per block, its K stacked: at d = 3 the map
        # would not fit either
        run_rate_zero(SweepConfig(experiment="rate-zero", n_instances=2, seed=7, d=d))
        assert built == [("_factor_form", n)]

    def test_long_qutrit_run_builds_no_map_above_the_cap(self, monkeypatch):
        # 10^4 substeps at n = 27: its map (8.5 MB) would exceed the cap, so
        # the factor form steps it, here with its substeps stubbed out
        built = []

        def unstepped(k, q):
            built.append(len(k))
            return lambda rho, dt, n_sub: rho

        monkeypatch.setattr(dynamics, "_factor_form", unstepped)
        lay = SystemLayout((("A", 3), ("B", 3), ("C", 3)))
        h = Hamiltonian(lay, random_hermitian(27, RngStream(3, 0)))
        jumps = JumpOperatorSet.damping(lay, 0.1)
        tracemalloc.start()
        try:
            dynamics._open_stacks(h, ket(lay, 0), jumps, TimeGrid(0.0, 10.0, 10.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == [27]
        assert peak < dynamics.LIOUVILLE_MAX_BYTES


    @pytest.mark.parametrize("grid, substeps", [
        (TimeGrid(0.0, 10.0, 1e-3), 10_000), (TimeGrid(0.0, 50.0, 0.05), 50_000),
        (TimeGrid(0.0, 0.5, 0.1), 500)], ids=["1e-3", "0.05", "lindblad-open"])
    def test_substeps_counted_from_the_grid_step(self, monkeypatch, grid, substeps):
        # every grid step of the factor form takes the same substeps, counted
        # from grid.step; counted per segment of the rounded grid times they
        # were 10,624 and 50,144 in 13 and 11 lengths (the map's one span per
        # run: TestExactMap)
        taken = []

        def unstepped(k, q):
            return lambda rho, dt, n_sub: taken.append((dt, n_sub)) or rho

        monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
        monkeypatch.setattr(dynamics, "_factor_form", unstepped)
        h = direct_optimal(2)
        dynamics._open_stacks(h, ket(h.layout, 0), JumpOperatorSet.dephasing(h.layout), grid)
        assert len(taken) == len(grid) - 1
        assert sum(n for _, n in taken) == substeps and len(set(taken)) == 1
        assert taken[0][0] == grid.step / taken[0][1] <= dynamics.LINDBLAD_MAX_STEP


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
        jumps = JumpOperatorSet.dephasing(lay, 0.3 * scale)
        grid = TimeGrid(0.0, 1.0, 0.1)
        (stack,) = dynamics._open_stacks(h, s0, jumps, grid)
        gen = _liouvillian(h, jumps)
        want = [(_exact_map(gen, t) @ s0.matrix.reshape(-1)).reshape(8, 8) for t in grid.times]
        assert np.abs(stack.matrix - np.array(want)).max() <= 1e-13

    @pytest.mark.parametrize("rate", [1e4, 1e5, 1e6])
    def test_stiff_rates_keep_a_state(self, rate):
        # the rates at which factor-form substeps diverge: the map dephases
        # the state and keeps its trace and positivity
        h, s = open_system_example()
        jumps = JumpOperatorSet.dephasing(h.layout, rate)
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
        jumps = JumpOperatorSet.dephasing(h.layout, 0.1)
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

    def test_factor_form_work_is_capped(self, monkeypatch):
        # 10^9 substeps at n = 27 (the map would not fit) are refused before
        # one is taken; the same span at n = 8 takes the map
        monkeypatch.setattr(dynamics, "_factor_form", _not_reached)
        lay = SystemLayout((("A", 3), ("B", 3), ("C", 3)))
        h = Hamiltonian(lay, random_hermitian(27, RngStream(3, 0)))
        grid = TimeGrid(0.0, 1e6, 1e6)
        with pytest.raises(ValueError, match=r"1000000000 RK4 substeps at dimension 27 exceed"):
            dynamics._open_stacks(h, ket(lay, 0), JumpOperatorSet.dephasing(lay, 0.1), grid)
        h, s0 = open_system_example()
        (stack,) = dynamics._open_stacks(h, s0, JumpOperatorSet.dephasing(h.layout, 0.1), grid)
        assert len(stack.matrix) == 2


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
        jumps = JumpOperatorSet(lay, JumpOperatorSet.dephasing(lay, 1.5, labels=("A",)).ops
                                + JumpOperatorSet.damping(lay, 1.0, labels=("B",)).ops)
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

    def test_positivity_lost(self, monkeypatch):
        # ten 1e-3 factor-form substeps at rate 1000 overshoot far below the
        # floor (the exact map, which this run would take, does not)
        monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
        h, s = open_system_example()
        jumps = JumpOperatorSet.damping(h.layout, 1000.0)
        with pytest.raises(PositivityLostError, match="T=0.01;"):
            evolve_lindblad(h, s, TimeGrid(0.0, 0.01, 0.01), jumps)

    def test_stiff_one_step_run_takes_the_exact_map(self, tmp_path, monkeypatch):
        # dt rate = 1: the ten 1e-3 substeps of this step overshoot, but the
        # run takes the exact map, in the library and through the CLI
        h, s = open_system_example()
        jumps = JumpOperatorSet.damping(h.layout, 1000.0)
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

    def test_positivity_lost_names_the_time_not_a_stack_index(self, monkeypatch):
        # each stepped state is checked on its own before the columns are
        # taken from the stack, so the first failing grid point is named; 50
        # substeps would take the exact map, which does not overshoot
        monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
        h, s = open_system_example()
        jumps = JumpOperatorSet.damping(h.layout, 1000.0)
        with pytest.raises(PositivityLostError, match="T=0.01;") as info:
            evolve_lindblad(h, s, TimeGrid(0.0, 0.05, 0.01), jumps)
        assert "stack index" not in str(info.value)

    @pytest.mark.parametrize("rate, named", [(940.0, "T=0.397"), (1000.0, "T=0.066")])
    def test_positivity_lost_names_the_first_failing_point(self, monkeypatch, rate, named):
        # one check per chunk of 256 points still names the first grid point
        # that fails: index 397 lies in the second chunk, 66 in the first.
        # The factor form overshoots; the exact map would not
        monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
        h, _ = open_system_example()
        eps = 1e-15
        s = DensityState(h.layout, np.diag([1 - 7 * eps] + [eps] * 7))
        jumps = JumpOperatorSet.damping(h.layout, rate)
        with pytest.raises(PositivityLostError, match=rf"below -1e-06 at {named};") as info:
            evolve_lindblad(h, s, TimeGrid(0.0, 1.0, 1e-3), jumps)
        assert "stack index" not in str(info.value)

    @pytest.mark.parametrize("rate", [1e4, 1e5, 1e6])
    def test_divergent_stepping_is_positivity_lost(self, monkeypatch, rate):
        # 100 factor-form substeps of 1e-3 at these rates overflow to inf and
        # NaN before the first output point: no numpy warning, and that point
        # is named (the exact map converges: TestExactMap)
        monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
        h, s = open_system_example()
        jumps = JumpOperatorSet.dephasing(h.layout, rate)
        with pytest.raises(PositivityLostError,
                           match=r"non-finite entries.* at T=0\.1; reduce") as info:
            evolve_lindblad(h, s, TimeGrid(0.0, 0.5, 0.1), jumps)
        assert "stack index" not in str(info.value)

    def test_divergent_stepping_stops_at_the_first_non_finite_state(self, monkeypatch):
        # the chunk is checked once point 1 is non-finite, not after 255
        # more points of 100 factor-form substeps each
        monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
        h, s = open_system_example()
        jumps = JumpOperatorSet.dephasing(h.layout, 1e4)
        checked = []
        init = DensityState.__init__

        def recording(self, layout, matrix, **kwargs):
            checked.append(len(matrix))
            init(self, layout, matrix, **kwargs)

        monkeypatch.setattr(DensityState, "__init__", recording)
        with pytest.raises(PositivityLostError, match="T=0.1;"):
            dynamics._open_stacks(h, s, jumps, TimeGrid(0.0, 25.5, 0.1))
        assert checked[0] == 2

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
        dn = entanglement_change_at_zero(h, ket(h.layout, 0), Bipartition.parse("A:B"))
        # N = sin(2 delta)/2 ~ delta - (2/3) delta^3, at delta = 1e-4
        assert_allclose(dn, 1e-4, rtol=1e-6)

    def test_mediated_coupling_flat_at_zero(self):
        h, s = cmi_product_example()
        dn = entanglement_change_at_zero(h, s, Bipartition.parse("A:B"))
        assert abs(dn) < 1e-7

    def test_open_variant_never_positive_for_product_input(self):
        h, s = cmi_product_example()
        jumps = JumpOperatorSet.dephasing(h.layout, 0.1)
        dn = entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), jumps=jumps)
        assert dn <= 1e-10

    def test_open_positivity_lost(self):
        h, s = open_system_example()
        # rate x delta = 1: the one RK4 substep of the probe overshoots
        jumps = JumpOperatorSet.damping(h.layout, 1e4)
        with pytest.raises(PositivityLostError, match="T=0.0001;"):
            entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), jumps=jumps)

    def test_overflowing_jumps_are_refused(self):
        # K = -iM - sum Q+Q / 2 overflows: the probe refuses the jumps by
        # their rates, each the largest <j|q+q|j> (rate x (d - 1) for damping),
        # before any numpy warning
        h, s = open_system_example()
        jumps = JumpOperatorSet(h.layout, JumpOperatorSet.dephasing(h.layout, 1e308, ["A"]).ops
                                + JumpOperatorSet.damping(h.layout, 1e308, ["B"]).ops)
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match=r"^the jump rates \(A 1e\+308, B 1e\+308\) overflow K"):
            entanglement_change_at_zero(h, s, Bipartition.parse("A:B"), jumps=jumps)

    def test_no_jumps_open_matches_closed(self):
        # an empty jump set steps the closed dynamics by RK4: the open probe
        # agrees with the spectral closed one, for the direct control's
        # linear rate and for seeded rate-zero draws
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
        assert_allclose(closed[0], 1e-4, rtol=1e-6)
        assert_allclose(stepped, closed, rtol=0, atol=1e-12)

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

    def test_stacked_positivity_lost_names_its_index(self):
        # the stepped stack is checked as one: the earliest failing state is
        # named by T and by its stack index, which a sweep turns into a stream.
        # Row 0, the ground state with H = 0, does not move under damping
        h, s = open_system_example()
        jumps = JumpOperatorSet.damping(h.layout, 1e4)
        stack = Hamiltonian(h.layout, np.array([0 * h.matrix, h.matrix, h.matrix]))
        states = DensityState(h.layout, np.array([ket(h.layout, 0).matrix, s.matrix, s.matrix]))
        with pytest.raises(PositivityLostError, match=r"T=0\.0001; .*\(stack index 1\)$") as info:
            entanglement_change_at_zero(stack, states, Bipartition.parse("A:B"), jumps=jumps)
        assert info.value.index == (1,)

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
        jumps = JumpOperatorSet.damping(h.layout, 0.1)
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

    def test_stacked_rows_match_scalar_searches(self):
        # row b of one stacked search has the bits of the scalar search of
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
        for b in range(7):
            top = float(tops[b])
            want = refine_peak(lambda x: -(x - top) * (x - top), float(lo[b]), float(hi[b]))
            assert type(want[0]) is float and type(want[1]) is float
            assert (t[b], value[b]) == want
        assert all(((lo <= x) & (x <= hi)).all() for x in calls)
        # each row stops at its own width: the narrower brackets stop first
        scalar_calls = [0] * 7
        for b in range(7):
            def count(x, b=b):
                scalar_calls[b] += 1
                return -(x - tops[b]) ** 2
            refine_peak(count, lo[b], hi[b])
        assert scalar_calls[6] == 3 and scalar_calls[1] < scalar_calls[0]
        assert len(calls) == max(scalar_calls)
        assert abs(t[4] - 0.0) < 1e-9 and abs(t[5] - 1.0) < 1e-9


    @staticmethod
    def rowwise(fs, calls):
        """The stacked f whose row b is ``fs[b]``, recording each (B,) vector of times."""
        def stacked(t):
            calls.append(t.copy())
            return np.array([g(x) for g, x in zip(fs, t.tolist())])
        return stacked

    def test_stacked_crossings_match_scalar_searches(self):
        # row b of one stacked first_crossing has the bits of the scalar
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
        want = [first_crossing(g, self.TIMES, v, level) for g, v in zip(fs, values)]
        assert got.shape == (6,) and all(type(w) is float for w in want)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[[2, 3]]).all() and got[1] == 0.0
        assert 0.3 < got[0] < 0.4 and 0.6 < got[4] <= 0.7 and 0.4 < got[5] < 0.6
        # rows 4 and 5 have two grid-local peaks within PEAK_SLACK before
        # their crossing, and no sample reaches the level before 0.7
        for row in values[4:]:
            peaks = [k for k in range(1, 10) if row[k] >= max(row[k - 1], row[k + 1])
                     and level - row[k] <= 1e-4 and row[k] < level]
            assert peaks[:2] == [1, 5]
        assert all(len(t) == 6 for t in calls)

    def test_stacked_bisections_match_scalar_searches(self):
        # row b of one stacked bisection has the bits of the scalar one, and
        # stops at its own width: a bracket already below REFINE_TOL takes no
        # step, and the stack takes as many f calls as its longest row
        level = 0.25
        lo = np.array([0.0, 0.4, 0.49, 0.5 - 4e-10, 0.2])
        hi = np.array([1.0, 0.6, 0.5, 0.5 + 4e-10, 0.9])
        fs = [lambda t, s=s: s * t * t for s in (1.0, 1.0, 1.0, 1.0, 1.5)]
        calls = []
        got = bisect_crossing(self.rowwise(fs, calls), lo, hi, level)
        scalar_calls = []
        for b in range(5):
            counted = []
            want = bisect_crossing(lambda t: counted.append(t) or fs[b](t),
                                   float(lo[b]), float(hi[b]), level)
            assert type(want) is float and got[b] == want
            scalar_calls.append(len(counted))
        assert scalar_calls[3] == 0 and scalar_calls[2] < scalar_calls[0]
        assert len(calls) == max(scalar_calls)
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
