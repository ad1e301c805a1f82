"""States, layouts, reductions, and the correlation measures.

Numeric reference values here were frozen from straight dense-numpy
calculations kept outside the package.
"""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from medqsl import randgen
from medqsl.randgen import RngStream
from medqsl.errors import (
    BadDimensionError,
    DimensionMismatchError,
    FullOrEmptySetError,
    LayoutMismatchError,
    NotHermitianError,
    NotPSDError,
    PartitionMismatchError,
    UnknownLabelError,
)
from medqsl.states import (
    MAX_TOTAL_DIM,
    Bipartition,
    DensityState,
    SystemLayout,
    bures_angle,
    embed_operator,
    is_classically_correlated_on,
    load_state,
    maximally_entangled,
    mutual_information,
    negativity,
    negativity_array,
    partial_trace,
    partial_trace_array,
    partial_transpose,
    partial_transpose_array,
    purity,
    save_state,
    state_from_dict,
    state_to_dict,
    uhlmann_fidelity,
    von_neumann_entropy,
)

rng = np.random.default_rng(5)

Q2 = SystemLayout((("A", 2), ("B", 2)))
Q3 = SystemLayout((("A", 2), ("B", 2), ("C", 2)))


def bell(layout=Q2):
    v = np.array([1, 0, 0, 1]) / math.sqrt(2)
    return DensityState.from_pure(layout, v)


def random_density(n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    p = g @ g.conj().T
    return p / np.trace(p).real


class TestSystemLayout:
    def test_basic_accessors(self):
        lay = SystemLayout((("A", 2), ("B", 3)))
        assert lay.labels == ("A", "B")
        assert lay.dims == (2, 3)
        assert lay.dim == 6
        assert lay.dim_of("B") == 3
        assert lay.position("B") == 1

    def test_basis_index_big_endian(self):
        lay = SystemLayout((("A", 2), ("B", 3)))
        assert lay.basis_index((1, 2)) == 5
        assert lay.basis_index((0, 1)) == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(UnknownLabelError):
            SystemLayout((("A", 2), ("A", 2)))

    def test_zero_dim_rejected(self):
        with pytest.raises(BadDimensionError):
            SystemLayout((("A", 0),))

    @pytest.mark.parametrize("dim", [2.9, 2.0, True, "2", None])
    def test_non_integer_dimension_rejected(self, dim):
        with pytest.raises(BadDimensionError, match=r"subsystem 'B' has dimension .*: not an integer"):
            SystemLayout((("A", 2), ("B", dim)))

    def test_numpy_integer_dimension_accepted(self):
        lay = SystemLayout((("A", np.int64(2)), ("B", np.uint8(3))))
        assert lay.dims == (2, 3) and all(type(d) is int for d in lay.dims)

    def test_total_dimension_cap(self):
        # checked on the declared dimensions, so nothing is allocated; a
        # fixed-width product of 10**10 * 10**10 would wrap instead
        assert SystemLayout((("A", 2), ("B", 2048))).dim == MAX_TOTAL_DIM
        for subs in ((("A", 2), ("B", 2049)), (("A", 10**10), ("B", 10**10))):
            with pytest.raises(BadDimensionError, match="cap"):
                SystemLayout(subs)


class TestBipartition:
    def test_parse(self):
        p = Bipartition.parse("A,B:C")
        assert p.side_a == ("A", "B") and p.side_b == ("C",)

    def test_overlap_rejected(self):
        with pytest.raises(PartitionMismatchError):
            Bipartition(("A",), ("A",))

    def test_covering_check(self):
        p = Bipartition.parse("A:B")
        with pytest.raises(PartitionMismatchError):
            p.validate_covering(Q3)


class TestDensityState:
    def test_pure_projector(self):
        s = bell()
        assert s.is_pure
        assert_allclose(np.trace(s.matrix).real, 1.0, atol=1e-14)

    def test_from_pure_normalizes(self):
        s = DensityState.from_pure(Q2, np.array([2.0, 0, 0, 0]))
        assert_allclose(s.matrix[0, 0], 1.0)

    def test_from_pure_checks_length(self):
        for n in (3, 8):
            with pytest.raises(DimensionMismatchError, match=f"length {n} != layout dim 4"):
                DensityState.from_pure(Q2, np.ones(n))

    def test_read_only(self):
        v = np.array([1.0, 0, 0, 1j]) / math.sqrt(2)
        pure = DensityState.from_pure(Q2, v)
        mixed = DensityState(Q2, np.eye(4) / 4)
        for arr in (pure.matrix, pure.pure_vector, mixed.matrix):
            assert not arr.flags.writeable
        v[0] = 0.0  # the caller's vector is not the state's
        assert abs(pure.pure_vector[0] - 1 / math.sqrt(2)) < 1e-15
        assert mixed.pure_vector is None and not mixed.is_pure

    def test_nonhermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(NotHermitianError):
            DensityState(Q2, m)

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityState(Q2, np.eye(4, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(NotPSDError):
            DensityState(Q2, m)

    def test_non_finite_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[2, 3] = m[3, 2] = np.nan
        with pytest.raises(NotHermitianError, match=r"\[\[2, 3\], \[3, 2\]\]"):
            DensityState(Q2, m)
        with pytest.raises(ValueError, match=r"non-finite entries at \[1\]"):
            DensityState.from_pure(Q2, np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError, match="non-finite"):
            DensityState.from_pure(Q2, np.array([1.0, 0.0, np.inf, 0.0]))

    def test_infinite_diagonal_names_the_entry_without_a_warning(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = np.inf
        with pytest.raises(NotHermitianError, match=r"non-finite entries, at \[\[0, 0\]\]"):
            DensityState(Q2, m)

    def test_eig_floor_loosens(self):
        m = np.diag([0.5, 0.5 + 1e-7, -1e-7, 0.0]).astype(complex)
        with pytest.raises(NotPSDError):
            DensityState(Q2, m)
        DensityState(Q2, m, eig_floor=-1e-6)


def test_maximally_entangled_negativity():
    for d in (2, 3, 4):
        lay = SystemLayout((("A", d), ("B", d)))
        s = maximally_entangled(lay)
        assert_allclose(negativity(s, Bipartition.parse("A:B")), (d - 1) / 2, atol=1e-12)


def test_maximally_entangled_needs_a_pair():
    for dims in ((2, 3), (2, 2, 2)):
        lay = SystemLayout(tuple(zip("ABC", dims)))
        with pytest.raises(DimensionMismatchError, match="pair"):
            maximally_entangled(lay)
    with pytest.raises(BadDimensionError):
        maximally_entangled(SystemLayout((("A", 1), ("B", 1))))


class TestPartialTrace:
    def test_product_state_factors(self):
        ra = random_density(2)
        rb = random_density(2)
        s = DensityState(Q2, np.kron(ra, rb))
        assert_allclose(partial_trace(s, ("A",)).matrix, ra, atol=1e-12)
        assert_allclose(partial_trace(s, ("B",)).matrix, rb, atol=1e-12)

    def test_bell_marginal_is_maximally_mixed(self):
        m = partial_trace(bell(), ("A",)).matrix
        assert_allclose(m, np.eye(2) / 2, atol=1e-14)

    def test_keep_order_follows_layout(self):
        # keep labels permuted in the request; output order is layout order
        ra, rb, rc = random_density(2), random_density(2), random_density(2)
        s = DensityState(Q3, np.kron(np.kron(ra, rb), rc))
        out = partial_trace(s, ("C", "A"))
        assert out.layout.labels == ("A", "C")
        assert_allclose(out.matrix, np.kron(ra, rc), atol=1e-12)

    def test_empty_and_full_keep_rejected(self):
        with pytest.raises(FullOrEmptySetError):
            partial_trace(bell(), ())
        with pytest.raises(FullOrEmptySetError):
            partial_trace(bell(), ("A", "B"))


class TestNegativity:
    def test_bell_half(self):
        assert_allclose(negativity(bell(), Bipartition.parse("A:B")), 0.5, atol=1e-14)

    def test_product_zero(self):
        s = DensityState(Q2, np.kron(random_density(2), random_density(2)))
        assert negativity(s, Bipartition.parse("A:B")) == 0.0

    def test_werner_threshold(self):
        # Werner state is PPT exactly up to p = 1/3
        bell_m = bell().matrix
        for p, expect in ((0.30, 0.0), (0.40, (3 * 0.40 - 1) / 4)):
            m = p * bell_m + (1 - p) * np.eye(4) / 4
            s = DensityState(Q2, m)
            assert_allclose(negativity(s, Bipartition.parse("A:B")), expect, atol=1e-12)

    def test_partial_transpose_involution(self):
        # on a product state the transpose stays positive, so the result
        # can be wrapped again and pushed through a second time
        ra, rb = random_density(2), random_density(2)
        s = DensityState(Q2, np.kron(ra, rb))
        p = Bipartition.parse("A:B")
        pt = partial_transpose(s, p)
        assert_allclose(pt, np.kron(ra, rb.T), atol=1e-14)
        ptpt = partial_transpose(DensityState(Q2, pt), p)
        assert_allclose(ptpt, s.matrix, atol=1e-14)


class TestStackedCores:
    """Array cores on random (T, n, n) stacks against the per-state path."""

    LAYOUT = SystemLayout((("A", 2), ("B", 3), ("C", 2)))

    def _stack(self, count=6):
        n = self.LAYOUT.dim
        out = []
        for k in range(count):
            # low rank keeps many of the draws entangled across every cut
            g = rng.normal(size=(n, 1 + k % 3)) + 1j * rng.normal(size=(n, 1 + k % 3))
            p = g @ g.conj().T
            out.append(p / np.trace(p).real)
        return np.array(out)

    def test_partial_trace(self):
        stack = self._stack()
        dims = self.LAYOUT.dims
        for keep, keep_pos in ((("A", "B"), [0, 1]), (("A", "C"), [0, 2]), (("B",), [1])):
            got = partial_trace_array(stack, dims, keep_pos)
            for rho, g in zip(stack, got):
                ref = partial_trace(DensityState(self.LAYOUT, rho), keep).matrix
                assert_allclose(g, ref, rtol=0, atol=1e-12)

    def test_partial_transpose_and_negativity(self):
        stack = self._stack()
        dims = self.LAYOUT.dims
        values = []
        for cut, b_pos in (("A:B,C", [1, 2]), ("A,C:B", [1]), ("C:A,B", [0, 1])):
            p = Bipartition.parse(cut)
            pts = partial_transpose_array(stack, dims, b_pos)
            negs = negativity_array(stack, dims, b_pos)
            assert negs.shape == (len(stack),)
            for rho, pt, neg in zip(stack, pts, negs):
                s = DensityState(self.LAYOUT, rho)
                assert_allclose(pt, partial_transpose(s, p), rtol=0, atol=1e-12)
                assert abs(neg - negativity(s, p)) <= 1e-12
                values.append(neg)
        assert max(values) > 0.1
        # no entanglement reads as +0.0, never -0.0
        zero = negativity_array(np.eye(4)[None] / 4, (2, 2), [1])
        assert zero[0] == 0.0 and math.copysign(1.0, zero[0]) == 1.0


class TestFidelityAndAngle:
    def test_pure_overlap(self):
        v = np.array([1, 0, 0, 0], dtype=complex)
        s1 = DensityState.from_pure(Q2, v)
        assert_allclose(uhlmann_fidelity(s1, bell()), 1 / math.sqrt(2), atol=1e-12)

    def test_identical_states(self):
        s = DensityState(Q2, random_density(4))
        assert_allclose(uhlmann_fidelity(s, s), 1.0, atol=1e-10)
        assert bures_angle(s, s) < 1e-5

    def test_orthogonal_states(self):
        a = DensityState.from_pure(Q2, np.array([1, 0, 0, 0.0]))
        b = DensityState.from_pure(Q2, np.array([0, 1, 0, 0.0]))
        assert_allclose(bures_angle(a, b), math.pi / 2, atol=1e-12)

    def test_mixed_against_pure_known_value(self):
        # F(|0..>, I/4) = sqrt(<0..|I/4|0..>) = 1/2
        s = DensityState(Q2, np.eye(4, dtype=complex) / 4)
        k = DensityState.from_pure(Q2, np.array([1, 0, 0, 0.0]))
        assert_allclose(uhlmann_fidelity(k, s), 0.5, atol=1e-12)

    def test_mixed_against_pure_is_the_closed_form(self):
        # sqrtm of the rank-one product sqrt(rho)|u><u|sqrt(rho) is good
        # only to about sqrt(eps); F = sqrt(<u|rho|u>) is good to eps
        layout = SystemLayout((("A", 2), ("B", 2), ("C", 3)))
        worst = 0.0
        for sid in range(50):
            stream = RngStream(11, sid)
            s = DensityState(layout, randgen.random_density(12, stream))
            u = randgen.haar_pure(12, stream)
            k = DensityState.from_pure(layout, u)
            want = math.sqrt(np.vdot(u, s.matrix @ u).real)
            worst = max(worst, abs(uhlmann_fidelity(s, k) - want),
                        abs(uhlmann_fidelity(k, s) - want))
        assert worst <= 1e-13

    def test_layout_mismatch(self):
        other = DensityState(SystemLayout((("X", 4),)), random_density(4))
        with pytest.raises(LayoutMismatchError):
            uhlmann_fidelity(bell(), other)


class TestEntropyAndInformation:
    def test_entropy_of_maximally_mixed(self):
        s = DensityState(Q2, np.eye(4, dtype=complex) / 4)
        assert_allclose(von_neumann_entropy(s), 2.0, atol=1e-12)

    def test_pure_entropy_zero(self):
        assert von_neumann_entropy(bell()) < 1e-12

    def test_bell_mutual_information(self):
        assert_allclose(mutual_information(bell(), Bipartition.parse("A:B")), 2.0,
                        atol=1e-10)

    def test_product_mutual_information_zero(self):
        s = DensityState(Q2, np.kron(random_density(2), random_density(2)))
        assert abs(mutual_information(s, Bipartition.parse("A:B"))) < 1e-10

    def test_purity(self):
        assert_allclose(purity(bell()), 1.0, atol=1e-14)
        s = DensityState(Q2, np.eye(4, dtype=complex) / 4)
        assert_allclose(purity(s), 0.25, atol=1e-14)


class TestClassicalCorrelation:
    def test_block_diagonal_state_is_classical(self):
        ra, rb = random_density(2), random_density(2)
        lay = SystemLayout((("A", 2), ("C", 2)))
        m = 0.5 * np.kron(ra, np.diag([1.0, 0])) + 0.5 * np.kron(rb, np.diag([0, 1.0]))
        assert is_classically_correlated_on(DensityState(lay, m.astype(complex)), "C")

    def test_entangled_mediator_is_not(self):
        v = np.zeros(8)
        v[0] = v[7] = 1 / math.sqrt(2)
        ghz = DensityState.from_pure(Q3, v)
        assert not is_classically_correlated_on(ghz, "C")

    def test_rotated_basis_still_found(self):
        # classical in the |+,-> basis of C rather than the computational one
        plus = np.array([1, 1]) / math.sqrt(2)
        minus = np.array([1, -1]) / math.sqrt(2)
        lay = SystemLayout((("A", 2), ("C", 2)))
        m = 0.5 * np.kron(random_density(2), np.outer(plus, plus)) \
            + 0.5 * np.kron(random_density(2), np.outer(minus, minus))
        assert is_classically_correlated_on(DensityState(lay, m.astype(complex)), "C")

    def test_degenerate_mediator_marginal(self):
        # equal-weight mixture leaves rho_C maximally mixed; the probe
        # refinement inside must still find the right joint basis
        k0 = np.diag([1.0, 0]).astype(complex)
        k1 = np.diag([0, 1.0]).astype(complex)
        psi = np.array([1, 0, 0, 1]) / math.sqrt(2)
        phi = np.array([0, 1, 1, 0]) / math.sqrt(2)
        m = 0.5 * np.kron(np.outer(psi, psi.conj()), k0) \
            + 0.5 * np.kron(np.outer(phi, phi.conj()), k1)
        s = DensityState(Q3, m.astype(complex))
        assert is_classically_correlated_on(s, "C")


class TestEmbedOperator:
    def test_single_site(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        m = embed_operator(Q2, ("B",), z)
        assert_allclose(m, np.kron(np.eye(2), z))

    def test_permuted_labels(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        ab = embed_operator(Q2, ("A", "B"), np.kron(x, z))
        ba = embed_operator(Q2, ("B", "A"), np.kron(z, x))
        assert_allclose(ab, ba)


class TestSerialization:
    def test_pure_round_trip(self, tmp_path):
        s = bell()
        path = tmp_path / "bell.json"
        save_state(s, path)
        back = load_state(path)
        assert back.layout == s.layout
        assert back.is_pure
        assert_allclose(back.matrix, s.matrix, atol=1e-15)

    def test_mixed_round_trip(self):
        s = DensityState(Q2, random_density(4))
        back = state_from_dict(state_to_dict(s))
        assert_allclose(back.matrix, s.matrix, atol=1e-15)

    @pytest.mark.parametrize("field, doc", [
        ("density", {"density": 5}),
        ("pure", {"pure": [["x", 0], [0, 0], [0, 0], [0, 0]]}),
        ("pure", {"pure": [1, 0, 0, 0]}),
    ], ids=["density-number", "string-entry", "flat-pure"])
    def test_malformed_entries_name_the_field(self, field, doc):
        with pytest.raises(DimensionMismatchError, match=f"bad '{field}' field"):
            state_from_dict({"layout": [["A", 2], ["B", 2]], **doc})

    def test_json_is_plain_data(self, tmp_path):
        path = tmp_path / "s.json"
        save_state(bell(), path)
        doc = json.loads(path.read_text())
        assert doc["layout"] == [["A", 2], ["B", 2]]
        assert "pure" in doc
