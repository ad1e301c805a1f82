"""Builtin Hamiltonians, energy moments, and the resource normalization."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from medqsl.errors import (
    BadDimensionError,
    LayoutMismatchError,
    NotHermitianError,
    StationaryStateError,
)
from medqsl.hamiltonians import (
    BUILTIN_PAIRS,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    EnergyMoments,
    Hamiltonian,
    builtin_pair,
    classical_mediator_example,
    cmi_product_example,
    commuting_mediated,
    direct_optimal,
    energy_moments,
    entangled_mediator_example,
    generalized_x,
    generalized_y,
    open_system_example,
)
from medqsl.qsl import unified_bound
from medqsl.states import DensityState, SystemLayout, embed_operator
from medqsl.tolerances import STATIONARY_TOL

SQ2 = math.sqrt(2)


class TestDirectOptimal:
    def test_spectrum_d2(self):
        h = direct_optimal(2)
        assert_allclose(np.linalg.eigvalsh(h.matrix), [-1, -1, 1, 1], atol=1e-12)

    def test_spectrum_d3(self):
        w = np.linalg.eigvalsh(direct_optimal(3).matrix)
        expect = [-1, -1 / SQ2, -1 / SQ2, 0, 0, 0, 1 / SQ2, 1 / SQ2, 1]
        assert_allclose(w, expect, atol=1e-12)

    def test_action_on_00(self):
        h = direct_optimal(2)
        v = np.zeros(4)
        v[0] = 1.0
        out = h.matrix @ v
        expect = np.zeros(4, dtype=complex)
        expect[3] = 1j
        assert_allclose(out, expect, atol=1e-14)

    def test_trajectory_stays_in_two_dims(self):
        # exp(-iMT)|00> = cos T |00> + sin T sum_j |jj>/sqrt(d-1)
        d = 4
        h = direct_optimal(d)
        w, v = np.linalg.eigh(h.matrix)
        psi0 = np.zeros(d * d)
        psi0[0] = 1.0
        t = 0.9
        psi = v @ (np.exp(-1j * t * w) * (v.conj().T @ psi0))
        expect = np.zeros(d * d, dtype=complex)
        expect[0] = math.cos(t)
        for j in range(1, d):
            expect[j * d + j] = math.sin(t) / math.sqrt(d - 1)
        assert_allclose(psi, expect, atol=1e-12)

    def test_d1_rejected(self):
        with pytest.raises(BadDimensionError):
            direct_optimal(1)


def test_generalized_paulis_reduce_to_qubit_ones():
    assert_allclose(generalized_x(2, 1), np.array([[0, 1], [1, 0]]), atol=0)
    assert_allclose(generalized_y(2, 1), np.array([[0, -1j], [1j, 0]]), atol=0)


class TestEnergyMoments:
    def test_direct_pair_is_unit(self):
        h = direct_optimal(2)
        v = np.zeros(4)
        v[0] = 1.0
        em = energy_moments(h, DensityState.from_pure(h.layout, v))
        assert_allclose([em.mean, em.std], [1.0, 1.0], atol=1e-12)

    def test_builtin_pairs_are_normalized(self):
        for name in BUILTIN_PAIRS:
            h, s = builtin_pair(name)
            em = energy_moments(h, s)
            assert abs(em.smaller - 1.0) < 1e-10, name

    def test_entangled_mediator_mean_is_sqrt2(self):
        h, s = entangled_mediator_example()
        em = energy_moments(h, s)
        assert_allclose(em.mean, SQ2, atol=1e-12)
        assert_allclose(em.std, 1.0, atol=1e-12)

    def test_mixed_state_path(self):
        h, s = classical_mediator_example()
        assert not s.is_pure
        em = energy_moments(h, s)
        assert_allclose([em.mean, em.std], [1.0, 1.0], atol=1e-12)

    def test_layout_mismatch(self):
        h = direct_optimal(2)
        other_lay = SystemLayout((("X", 2), ("Y", 2)))
        v = np.zeros(4)
        v[0] = 1.0
        with pytest.raises(LayoutMismatchError):
            energy_moments(h, DensityState.from_pure(other_lay, v))


class TestScale:
    """``EnergyMoments.scale``: the one home of k = 1 / min{mean, std}."""

    @pytest.mark.parametrize("mean,std", [(1.0, 3.0), (0.7, 0.3), (3.0, 3.0), (5.0, 2.0 ** -39)])
    def test_is_one_over_the_smaller_bit_for_bit(self, mean, std):
        assert EnergyMoments(mean, std).scale() == 1.0 / min(mean, std)

    @pytest.mark.parametrize("mean,std", [(0.0, 0.0), (STATIONARY_TOL, 2.0), (2.0, 1e-13)])
    def test_refuses_at_and_below_the_tolerance(self, mean, std):
        with pytest.raises(StationaryStateError, match="stationary.*vacuous"):
            EnergyMoments(mean, std).scale()

    def test_builtin_states_scale_to_their_reciprocal(self):
        for name in BUILTIN_PAIRS:
            em = energy_moments(*builtin_pair(name))
            assert em.scale() == 1.0 / em.smaller

    def test_refuses_a_stationary_state(self):
        h, _ = classical_mediator_example()
        em = energy_moments(h, DensityState.basis(h.layout))
        with pytest.raises(StationaryStateError, match="stationary.*vacuous"):
            em.scale()

    def test_normalization_and_bound_share_it(self):
        h, _ = classical_mediator_example()
        s = DensityState.basis(h.layout)
        messages = set()
        for call in (lambda: energy_moments(h, s).scale(),
                     lambda: unified_bound(s, s, h)):
            with pytest.raises(StationaryStateError) as exc:
                call()
            messages.add(str(exc.value))
        assert len(messages) == 1


class TestResourceEquality:
    """k = energy_moments(h, s).scale() and h.scaled(k), as ``bound --normalize`` applies them."""

    def test_scale_factor(self):
        h = direct_optimal(2).scaled(3.0)
        v = np.zeros(4)
        v[0] = 1.0
        s = DensityState.from_pure(h.layout, v)
        k = energy_moments(h, s).scale()
        assert_allclose(k, 1 / 3, atol=1e-12)
        em = energy_moments(h.scaled(k), s)
        assert_allclose(em.smaller, 1.0, atol=1e-12)

    def test_stationary_rejected(self):
        h, _ = classical_mediator_example()
        v = np.zeros(8)
        v[0] = 1.0  # |000> is an eigenstate of the dephasing-style coupling
        s = DensityState.from_pure(h.layout, v)
        with pytest.raises(StationaryStateError):
            energy_moments(h, s).scale()


class TestBuiltinStructure:
    def test_cmi_product_matrix(self):
        h, s = cmi_product_example()
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        i2 = np.eye(2)
        expect = (np.kron(np.kron(x, i2), y) + np.kron(np.kron(i2, y), x)) / SQ2
        assert_allclose(h.matrix, expect, atol=1e-14)
        assert s.is_pure and s.pure_vector[0] == 1.0

    def test_entangled_mediator_state_is_ghz(self):
        _, s = entangled_mediator_example()
        v = s.pure_vector
        assert_allclose([v[0], v[7]], [1 / SQ2, 1 / SQ2], atol=1e-14)
        assert abs(v[1:7]).max() == 0.0

    def test_classical_state_properties(self):
        _, s = classical_mediator_example()
        w = np.linalg.eigvalsh(s.matrix)
        assert_allclose(sorted(w)[-2:], [0.5, 0.5], atol=1e-12)

    def test_open_system_single_coupling(self):
        h, _ = open_system_example()
        z = np.diag([1.0, -1.0]).astype(complex)
        i2 = np.eye(2)
        assert_allclose(h.matrix, np.kron(np.kron(z, i2), z), atol=1e-14)

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_pair("no-such-system")


def _np_kron_builtins():
    """Each builtin's (matrix, state matrix) as built with np.kron; the GHZ state has no kron."""
    x, y, z, i2 = PAULI_X, PAULI_Y, PAULI_Z, ID2
    lay = SystemLayout((("A", 2), ("B", 2), ("C", 2)))

    def pair(a, b, scale):
        return (embed_operator(lay, ("A", "C"), a) + embed_operator(lay, ("B", "C"), b)) / scale

    plus = np.array([1, 1], dtype=complex) / SQ2
    minus = np.array([1, -1], dtype=complex) / SQ2
    psi = (np.kron(plus, minus) + np.kron(minus, plus)) / SQ2
    psi_t = (np.kron(minus, minus) + np.kron(plus, plus)) / SQ2
    k0 = np.array([1, 0], dtype=complex)
    k1 = np.array([0, 1], dtype=complex)
    classical = 0.5 * np.outer(np.kron(psi, k0), np.kron(psi, k0).conj()) \
        + 0.5 * np.outer(np.kron(psi_t, k1), np.kron(psi_t, k1).conj())
    hc1, hc2 = -(i2 + x + y + z), i2 - x - y + z
    basis = np.zeros((8, 8), dtype=complex)
    basis[0, 0] = 1.0
    return {
        "cmi-product": (pair(np.kron(x, y), np.kron(y, x), SQ2), basis),
        "cmi-entangled": (pair(np.kron(z, hc1), np.kron(z, hc2), 2 * SQ2), None),
        "cmi-classical": (pair(np.kron(z, z), np.kron(z, z), 2.0), classical),
        "open-system": (embed_operator(lay, ("A", "C"), np.kron(z, z)), classical),
    }


class TestKronConstruction:
    """The builtins are built with kron_stack, and keep np.kron's bits."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_PAIRS))
    def test_builtin_pairs(self, name):
        h, s = builtin_pair(name)
        matrix, state = _np_kron_builtins()[name]
        assert np.array_equal(h.matrix, matrix)
        if state is not None:
            assert np.array_equal(s.matrix, state)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_direct_optimal(self, d):
        m = np.zeros((d * d, d * d), dtype=complex)
        for j in range(1, d):
            a = generalized_x(d, j) + generalized_y(d, j)
            m += np.kron(a, a)
        assert np.array_equal(direct_optimal(d).matrix, m / (2.0 * math.sqrt(d - 1)))


class TestCommutingMediated:
    def test_terms_commute(self):
        g = np.random.default_rng(3)
        def herm(n):
            m = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
            return (m + m.conj().T) / 2
        ha, hb, hc = herm(2), herm(2), herm(3)
        h = commuting_mediated(ha, hb, hc)
        lay = h.layout
        from medqsl.states import embed_operator
        t1 = embed_operator(lay, ("A", "C"), np.kron(ha, hc))
        t2 = embed_operator(lay, ("B", "C"), np.kron(hb, hc))
        assert_allclose(t1 @ t2, t2 @ t1, atol=1e-10)
        assert_allclose(h.matrix, t1 + t2, atol=1e-12)

    def test_nonhermitian_factor_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            commuting_mediated(bad, np.eye(2), np.eye(2))


def test_hamiltonian_matrix_read_only():
    h = direct_optimal(2)
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 5.0
