"""Stacked states: one validation and one call per measure for T states.

Every stack-aware measure is checked against the per-state call on each
slice of seeded random stacks, mixed and pure, and a stack that fails
validation names the earliest failing state by its stack index.  Stacks
of couplings (the sweeps' blocks) are checked the same way: each row of
a stacked draw, embedding, propagation, moment and curve equals its own
one-coupling call.  Each argument that takes one state, or one coupling,
refuses a stack, naming the argument, and keeps its one-state result; a
state file holds one state.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from medqsl import (
    dynamics,
    qsl,
    states,
    Bipartition,
    DensityState,
    RngStream,
    commuting_mediated,
    embed_operator,
    negativity_curve,
    random_mediated_hamiltonian,
    SystemLayout,
    bures_angle,
    energy_moments,
    haar_pure,
    mutual_information,
    negativity,
    partial_trace,
    purity,
    random_density,
    random_hermitian,
    uhlmann_fidelity,
    von_neumann_entropy,
)
from medqsl.errors import (
    DimensionMismatchError, NormalizationError, NotHermitianError, NotPSDError,
    StationaryStateError,
)
from medqsl.hamiltonians import (
    EnergyMoments, Hamiltonian, energy_moments_array, entangled_mediator_example,
)
from medqsl.linalg import kron_stack, propagate, require_hermitian, sqrtm_psd

LAYOUTS = {
    "2x2": SystemLayout((("A", 2), ("B", 2))),
    "2x2x2": SystemLayout((("A", 2), ("B", 2), ("C", 2))),
    "3x3": SystemLayout((("A", 3), ("B", 3))),
}
CUT = Bipartition(("A",), ("B",))
SIZES = (1, 3, 17)


def _vectors(layout, count, rc):
    return np.array([haar_pure(layout.dim, rc) for _ in range(count)])


def _matrices(layout, count, rc):
    """Mostly near-pure states, entangled across A:B; every third one of rank 1."""
    out = []
    for k, v in enumerate(_vectors(layout, count, rc)):
        rho = np.outer(v, v.conj())
        if k % 3:
            rho = 0.9 * rho + 0.1 * random_density(layout.dim, rc)
        out.append(rho)
    return np.array(out)


def _case(name, count, pure, seed):
    """A stack and its states one by one, built the same way."""
    layout = LAYOUTS[name]
    rc = RngStream(seed, count)
    if pure:
        vectors = _vectors(layout, count, rc)
        return (DensityState.from_pure(layout, vectors),
                [DensityState.from_pure(layout, v) for v in vectors])
    matrices = _matrices(layout, count, rc)
    return DensityState(layout, matrices), [DensityState(layout, m) for m in matrices]


CASES = [(name, count, pure, seed) for name in LAYOUTS for count in SIZES
         for pure in (False, True) for seed in (3, 4)]


@pytest.mark.parametrize("name, count, pure, seed", CASES)
class TestStackedMeasures:
    """Each measure on a stack equals it on each slice, bit for bit."""

    def test_states_and_marginals(self, name, count, pure, seed):
        stack, singles = _case(name, count, pure, seed)
        assert stack.matrix.shape == (count, stack.layout.dim, stack.layout.dim)
        assert not stack.matrix.flags.writeable
        assert stack.is_pure == pure
        for got, single in zip(stack, singles):
            assert_array_equal(got.matrix, single.matrix)
            if pure:
                assert_array_equal(got.pure_vector, single.pure_vector)
            else:
                assert got.pure_vector is None
        for keep in (("A",), ("B",)):
            marg = partial_trace(stack, keep)
            for got, single in zip(marg, singles):
                assert_array_equal(got.matrix, partial_trace(single, keep).matrix)

    def test_measures(self, name, count, pure, seed):
        stack, singles = _case(name, count, pure, seed)
        if len(stack.layout) == 3:
            stack = partial_trace(stack, ("A", "B"))
            singles = [partial_trace(s, ("A", "B")) for s in singles]
        measures = (
            lambda s: negativity(s, CUT),
            purity,
            von_neumann_entropy,
            lambda s: mutual_information(s, CUT),
        )
        for measure in measures:
            got = measure(stack)
            assert got.shape == (count,)
            want = np.array([measure(s) for s in singles])
            assert isinstance(measure(singles[0]), float)
            assert np.abs(got - want).max() <= 1e-12
            assert_array_equal(got, want)
        assert negativity(stack, CUT).max() > 0.05

    def test_fidelity_and_angle(self, name, count, pure, seed):
        stack, singles = _case(name, count, pure, seed)
        other, others = _case(name, count, pure, seed + 100)
        fixed = (others[0], DensityState.from_pure(stack.layout, haar_pure(stack.layout.dim,
                                                                           RngStream(seed, 0))))
        for target in fixed:
            for measure in (uhlmann_fidelity, bures_angle):
                got = measure(stack, target)
                want = np.array([measure(s, target) for s in singles])
                assert np.abs(got - want).max() <= 1e-12
                assert_array_equal(got, want)
                assert_array_equal(measure(target, stack),
                                   [measure(target, s) for s in singles])
        # two stacks pair state k with state k
        assert_array_equal(uhlmann_fidelity(stack, other),
                           [uhlmann_fidelity(s, o) for s, o in zip(singles, others)])

    def test_energy_moments(self, name, count, pure, seed):
        stack, singles = _case(name, count, pure, seed)
        h = Hamiltonian(stack.layout, random_hermitian(stack.layout.dim, RngStream(seed, 999)))
        # density matrices, and pure states as their one-column factors
        for x, xs, density in ((stack.matrix, [s.matrix for s in singles], True),
                               (stack.pure_vector, [s.pure_vector for s in singles], False)):
            if x is None:
                continue
            if not density:
                x, xs = x[..., None], [xk[:, None] for xk in xs]
            got = energy_moments_array(h, x, density=density)
            ones = [energy_moments_array(h, xk, density=density) for xk in xs]
            for field in ("mean", "std"):
                want = np.array([getattr(em, field) for em in ones])
                assert np.abs(getattr(got, field) - want).max() <= 1e-12
                assert_array_equal(getattr(got, field), want)
        em = energy_moments(h, stack)
        assert_array_equal(em.mean, [energy_moments(h, s).mean for s in singles])
        assert_array_equal(em.std, [energy_moments(h, s).std for s in singles])


Q2 = LAYOUTS["2x2"]


def _valid_stack(count=5):
    return _matrices(Q2, count, RngStream(21, 0))


def _nonhermitian(m):
    m[0, 1] += 0.1


def _off_trace(m):
    m *= 1.1


def _below_floor(m):
    m[:] = np.diag([0.6, 0.5, -0.1, 0.0])


def _nan(m):
    m[1, 1] = np.nan


BREAKS = [
    (_nonhermitian, NotHermitianError, "deviates from Hermitian"),
    (_off_trace, ValueError, "is not 1 within"),
    (_below_floor, NotPSDError, "minimum eigenvalue -1.000e-01"),
    (_nan, NotHermitianError, r"non-finite entries, at \[\[1, 1\]\]"),
]


class TestStackedValidation:
    @pytest.mark.parametrize("k", [0, 2, 4])
    @pytest.mark.parametrize("breaks, error, message", BREAKS)
    def test_names_the_failing_index(self, breaks, error, message, k):
        m = _valid_stack()
        breaks(m[k])
        with pytest.raises(error, match=rf"{message}.*\(stack index {k}\)"):
            DensityState(Q2, m)

    @pytest.mark.parametrize("breaks, error, message", BREAKS)
    def test_names_the_first_of_two(self, breaks, error, message):
        m = _valid_stack()
        breaks(m[3])
        breaks(m[1])
        with pytest.raises(error, match=r"\(stack index 1\)"):
            DensityState(Q2, m)

    @pytest.mark.parametrize("early, error, late", [
        (_off_trace, ValueError, _nonhermitian),
        (_below_floor, NotPSDError, _nonhermitian),
        (_below_floor, NotPSDError, _off_trace),
        (_below_floor, NotPSDError, _nan),
    ], ids=["trace-then-hermitian", "psd-then-hermitian", "psd-then-trace", "psd-then-nan"])
    def test_names_the_earliest_failing_state(self, early, error, late):
        # state 1 fails a later check than state 3 does: state 1 is named,
        # with its own error, and no eigensolve sees the NaN of state 3
        m = _valid_stack()
        late(m[3])
        early(m[1])
        with pytest.raises(error, match=r"\(stack index 1\)$") as info:
            DensityState(Q2, m)
        assert info.value.index == (1,)

    def test_single_state_names_no_index(self):
        m = _valid_stack(1)[0]
        m[0, 1] += 0.1
        with pytest.raises(NotHermitianError) as info:
            DensityState(Q2, m)
        assert "stack index" not in str(info.value)

    def test_linalg_checks_every_matrix(self):
        m = _valid_stack()
        m[3, 2, 2] = -0.5
        with pytest.raises(NotPSDError, match=r"\(stack index 3\)"):
            sqrtm_psd(m)
        m[2, 0, 3] = 1.0
        with pytest.raises(NotHermitianError, match=r"\(stack index 2\)"):
            require_hermitian(m)
        # a (2, 3) stack of stacks names both indices
        grid = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
        grid[1, 2, 0, 0] = np.inf
        with pytest.raises(NotHermitianError, match=r"at \[\[0, 0\]\] \(stack index \(1, 2\)\)"):
            require_hermitian(grid)

    def test_from_pure_names_the_failing_vector(self):
        v = np.eye(4, dtype=complex)
        v[2] = 0.0
        with pytest.raises(ValueError, match=r"zero vector .*\(stack index 2\)"):
            DensityState.from_pure(Q2, v)
        v[2, 3] = np.inf
        with pytest.raises(ValueError, match=r"non-finite entries at \[3\] \(stack index 2\)"):
            DensityState.from_pure(Q2, v)
        # a non-finite vector before a zero one is the one named
        v[2, 3], v[3], v[1, 0] = 1.0, 0.0, np.nan
        with pytest.raises(ValueError, match=r"non-finite entries at \[0\] \(stack index 1\)"):
            DensityState.from_pure(Q2, v)

    def test_from_factor_names_the_failing_factor(self):
        x = np.broadcast_to(np.eye(4, 2) / math.sqrt(2), (5, 4, 2)).astype(complex)
        x[2, 1, 1] = np.nan
        with pytest.raises(NormalizationError,
                           match=r"factor has 1 non-finite entries, at \[\[1, 1\]\] "
                                 r"\(stack index 2\)$") as info:
            DensityState.from_factor(Q2, x)
        assert info.value.index == (2,)
        # an off-trace factor before the non-finite one is the one named
        x[1] *= 1.1
        with pytest.raises(NormalizationError,
                           match=r"trace 1\.210000000000 is not 1 within 1e-10 "
                                 r"\(stack index 1\)$"):
            DensityState.from_factor(Q2, x)
        with pytest.raises(NormalizationError, match=r"is not 1 within 1e-10$"):
            DensityState.from_factor(Q2, x[1])
        # a finite factor whose squares overflow: no numpy warning, an infinite trace
        x[0] *= 1e200
        with pytest.raises(NormalizationError, match=r"trace inf is not 1 .*\(stack index 0\)$"):
            DensityState.from_factor(Q2, x)
        with pytest.raises(DimensionMismatchError, match=r"factor shape \(3, 2\)"):
            DensityState.from_factor(Q2, x[0, :3])

    def test_fidelity_names_the_non_psd_product(self):
        m = _valid_stack()
        _below_floor(m[2])
        bad = DensityState._trusted(Q2, m)
        with pytest.raises(NotPSDError, match=r"minimum eigenvalue -2\.500e-02 .*\(stack index 2\)"):
            uhlmann_fidelity(DensityState(Q2, np.eye(4) / 4), bad)

    def test_stack_keeps_its_spectrum(self):
        stack = DensityState(Q2, _valid_stack())
        assert_array_equal(stack.spectrum, np.linalg.eigvalsh(stack.matrix))
        assert not stack.spectrum.flags.writeable
        assert all(s.spectrum is None for s in stack)
        pure = DensityState.from_pure(Q2, _vectors(Q2, 3, RngStream(21, 1)))
        assert pure.spectrum is None

    def test_stack_of_validated_states(self):
        single = DensityState(Q2, _valid_stack(1)[0])
        with pytest.raises(TypeError):
            iter(single)


def test_single_state_values_stay_floats():
    s = DensityState(Q2, _valid_stack(1)[0])
    for value in (negativity(s, CUT), purity(s), von_neumann_entropy(s),
                  mutual_information(s, CUT), uhlmann_fidelity(s, s), bures_angle(s, s)):
        assert type(value) is float
    assert math.isclose(uhlmann_fidelity(s, s), 1.0, abs_tol=1e-12)


def _couplings(count: int, seed: int, d: int = 2, dc: int = 3):
    """``count`` mediated couplings drawn one stream each, and mixed start factors."""
    streams = [RngStream(seed, sid) for sid in range(count)]
    h = random_mediated_hamiltonian(d, d, dc, streams)
    rho = np.array([random_density(h.layout.dim, RngStream(seed + 1, sid))
                    for sid in range(count)])
    return streams, h, sqrtm_psd(rho)


class TestStackedCouplings:
    @pytest.mark.parametrize("count", SIZES)
    def test_draws_and_embeddings(self, count):
        streams, h, _ = _couplings(count, 31)
        assert h.matrix.shape == (count, 12, 12)
        for sid in range(count):
            one = random_mediated_hamiltonian(2, 2, 3, RngStream(31, sid))
            assert_array_equal(h.matrix[sid], one.matrix)
        # the streams moved on exactly as one draw each moves them
        assert_array_equal([s.normals(1) for s in streams],
                           [_advanced(31, sid).normals(1) for sid in range(count)])
        ops = np.array([random_hermitian(6, RngStream(5, k)) for k in range(count)])
        stacked = embed_operator(h.layout, ("C", "A"), ops)
        for k in range(count):
            assert_array_equal(stacked[k], embed_operator(h.layout, ("C", "A"), ops[k]))
        a, b = ops[:, :2, :3], ops[:, 3:, 1:]
        for k in range(count):
            assert_array_equal(kron_stack(a, b)[k], np.kron(a[k], b[k]))

    @pytest.mark.parametrize("count", SIZES)
    def test_eig_scaled_and_moments(self, count):
        _, h, x = _couplings(count, 32)
        w, v = h.eig
        k = np.linspace(0.5, 2.0, count)
        scaled = h.scaled(k)
        assert scaled.eig[1] is v
        em = energy_moments_array(h, x)
        for i in range(count):
            one = Hamiltonian(h.layout, h.matrix[i])
            assert_array_equal(w[i], one.eig[0])
            assert_array_equal(scaled.matrix[i], one.scaled(k[i]).matrix)
            assert_array_equal(scaled.eig[0][i], one.scaled(k[i]).eig[0])
            # the moments from X+MX against those of the density matrix X X+
            ref = energy_moments(one, DensityState(h.layout, x[i] @ x[i].conj().T))
            assert em.mean[i] == pytest.approx(ref.mean, abs=1e-12)
            assert em.std[i] == pytest.approx(ref.std, abs=1e-12)
        # a stack iterates over its couplings, each keeping its row of the
        # kept spectrum rather than solving again
        rows = list(scaled)
        assert len(rows) == count
        for i, one in enumerate(rows):
            assert_array_equal(one.matrix, scaled.matrix[i])
            assert "eig" in one.__dict__ and np.shares_memory(one.eig[1], v)
            assert_array_equal(one.eig[0], scaled.eig[0][i])

    def test_moments_of_a_coupling_stack(self):
        # each coupling of a stack pairs with its own row of a state stack,
        # mixed or pure, or with the one state given, bit for bit; the form
        # is read from the state, not from the shape of its matrix
        _, h, _ = _couplings(3, 35, dc=2)
        rc = RngStream(36, 0)
        cases = [DensityState(h.layout, [random_density(8, rc) for _ in range(3)]),
                 DensityState.from_pure(h.layout, _vectors(h.layout, 3, rc)),
                 DensityState(h.layout, random_density(8, rc))]
        ones = [Hamiltonian(h.layout, m) for m in h.matrix]
        for states in cases:
            rows = list(states) if states.matrix.ndim == 3 else [states] * 3
            em = energy_moments(h, states)
            want = [energy_moments(one, s) for one, s in zip(ones, rows)]
            assert em.mean.shape == em.std.shape == (3,)
            assert_array_equal(em.mean, [w.mean for w in want])
            assert_array_equal(em.std, [w.std for w in want])

    @pytest.mark.parametrize("count", SIZES)
    def test_propagation_and_curves(self, count):
        _, h, x = _couplings(count, 33)
        times = np.linspace(0.0, 2.0, 9)[None, :] * np.linspace(1.0, 1.5, count)[:, None]
        w, v = h.eig
        out = propagate(w, v, x, times)
        curves = negativity_curve(h, x, times, CUT)
        assert out.shape == (count, 9, 12, 12) and curves.shape == (count, 9)
        for i in range(count):
            one = Hamiltonian(h.layout, h.matrix[i])
            assert_array_equal(out[i], propagate(*one.eig, x[i], times[i]))
            assert_array_equal(curves[i], negativity_curve(one, x[i], times[i], CUT))
            # exp(-iTM) from the spectrum, one time at a time
            for t, got in zip(times[i], out[i]):
                u = (v[i] * np.exp(-1j * t * w[i])) @ v[i].conj().T
                np.testing.assert_allclose(got, u @ x[i], rtol=0, atol=1e-12)
        vectors = x[:, :, 0] / np.linalg.norm(x[:, :, 0], axis=1, keepdims=True)
        pure = propagate(w, v, vectors, times)
        assert pure.shape == (count, 9, 12)
        assert_array_equal(pure[-1], propagate(w[-1], v[-1], vectors[-1], times[-1]))

    def test_commuting_couplings(self):
        factors = [np.array([random_hermitian(dim, RngStream(6, k)) for k in range(4)])
                   for dim in (2, 3, 2)]
        h = commuting_mediated(*factors)
        assert h.layout.dims == (2, 3, 2) and h.matrix.shape == (4, 12, 12)
        for k in range(4):
            assert_array_equal(h.matrix[k], commuting_mediated(*(f[k] for f in factors)).matrix)

    def test_scale_names_the_first_stationary_state(self):
        em = EnergyMoments(mean=np.array([1.0, 0.0, 2.0, 0.0]),
                           std=np.array([0.5, 0.0, 1.0, 1e-13]))
        with pytest.raises(StationaryStateError, match=r"vacuous \(stack index 1\)$") as exc:
            em.scale()
        assert exc.value.index == (1,)
        ok = EnergyMoments(mean=np.array([1.0, 4.0]), std=np.array([0.5, 2.0]))
        assert_array_equal(ok.scale(), [2.0, 0.5])
        assert_array_equal(ok.smaller, [0.5, 2.0])
        assert EnergyMoments(mean=1.0, std=0.25).scale() == 4.0


def _advanced(seed: int, sid: int) -> RngStream:
    """Stream ``sid`` after one lone coupling draw."""
    stream = RngStream(seed, sid)
    random_mediated_hamiltonian(2, 2, 3, stream)
    return stream


H_EM, S_EM = entangled_mediator_example()
GRID = dynamics.TimeGrid(0.0, 0.1, 0.05)
NO_JUMPS = dynamics.JumpOperatorSet(H_EM.layout, ())
# each argument that takes one state, as its name and a call of (start, target)
ONE_STATE_CALLS = {
    "evolve_unitary s0": lambda s, t: dynamics.evolve_unitary(H_EM, s, GRID, target=t),
    "evolve_unitary target": lambda s, t: dynamics.evolve_unitary(H_EM, t, GRID, target=s),
    "evolve_lindblad s0": lambda s, t: dynamics.evolve_lindblad(H_EM, s, GRID, NO_JUMPS,
                                                                target=t),
    "evolve_lindblad target": lambda s, t: dynamics.evolve_lindblad(H_EM, t, GRID, NO_JUMPS,
                                                                    target=s),
    "first_max_entanglement_time s0": lambda s, t: dynamics.first_max_entanglement_time(
        H_EM, s, CUT),
    "unified_bound s0": lambda s, t: qsl.unified_bound(s, t, H_EM),
    "unified_bound target": lambda s, t: qsl.unified_bound(t, s, H_EM),
    "is_classically_correlated_on s": lambda s, t: states.is_classically_correlated_on(s, "C"),
}


class TestOneStateArguments:
    """Where one state is meant, a stack is refused in one place, naming the argument."""

    @pytest.mark.parametrize("case", list(ONE_STATE_CALLS))
    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    def test_a_stack_of_two_is_refused(self, case, pure):
        two = (DensityState.from_pure(S_EM.layout, np.array([S_EM.pure_vector] * 2)) if pure
               else DensityState(S_EM.layout, np.array([S_EM.matrix] * 2)))
        name = case.rsplit(" ", 1)[1]
        with pytest.raises(DimensionMismatchError,
                           match=rf"^{name} is a stack of 2 states, not one$"):
            ONE_STATE_CALLS[case](two, S_EM)

    def test_a_stack_of_couplings_is_refused(self):
        # the one-coupling entry points refuse a stack of three couplings, naming h;
        # the rate probe and the energy moments take it, one row per coupling
        three = Hamiltonian(H_EM.layout, np.array([H_EM.matrix] * 3))
        for call in (lambda: dynamics.evolve_unitary(three, S_EM, GRID),
                     lambda: dynamics.evolve_lindblad(three, S_EM, GRID, NO_JUMPS),
                     lambda: dynamics.first_max_entanglement_time(three, S_EM, CUT),
                     lambda: qsl.unified_bound(S_EM, S_EM, three)):
            with pytest.raises(DimensionMismatchError,
                               match=r"^h is a stack of 3 couplings, not one$"):
                call()
        rate = dynamics.entanglement_change_at_zero(H_EM, S_EM, CUT)
        assert_array_equal(dynamics.entanglement_change_at_zero(three, S_EM, CUT), [rate] * 3)
        assert_array_equal(energy_moments(three, S_EM).std, [energy_moments(H_EM, S_EM).std] * 3)

    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    def test_a_stack_is_not_saved(self, tmp_path, pure):
        # a state file holds one state: a stack is refused before the file is opened
        two = (DensityState.from_pure(S_EM.layout, np.array([S_EM.pure_vector] * 2)) if pure
               else DensityState(S_EM.layout, np.array([S_EM.matrix] * 2)))
        for call in (lambda: states.state_to_dict(two),
                     lambda: states.save_state(two, tmp_path / "two.json")):
            with pytest.raises(DimensionMismatchError,
                               match=r"^s is a stack of 2 states, not one$"):
                call()
        assert not (tmp_path / "two.json").exists()
        states.save_state(next(iter(two)), tmp_path / "one.json")
        back = states.load_state(tmp_path / "one.json")
        assert back.is_pure == pure and np.array_equal(back.matrix, S_EM.matrix)

    def test_single_states_keep_their_results(self):
        # the guard moves no one-state result: first-max timing of the entangled
        # mediator example stays at its refined pi/4, where a stacked start gave None
        t = dynamics.first_max_entanglement_time(H_EM, S_EM, CUT)
        assert abs(t - 0.785398156129036) <= 1e-9 and abs(t - math.pi / 4) <= 1e-8
        report = qsl.unified_bound(S_EM, S_EM, H_EM)
        assert report.angle == 0.0 and type(report.bound) is float
        traj = dynamics.evolve_unitary(H_EM, S_EM, GRID)
        assert len(traj.states) == 3 and traj.columns["fidelity_to_target"][0] == 1.0
        assert type(states.is_classically_correlated_on(S_EM, "C")) is bool
