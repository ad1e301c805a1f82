"""States, layouts, reductions, and the correlation measures.

Numeric reference values here were frozen from straight dense-numpy
calculations kept outside the package.
"""

import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

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
from medqsl.hamiltonians import direct_optimal
from medqsl.linalg import kron_stack, sqrtm_psd
from medqsl.tolerances import ENTROPY_CUTOFF
from medqsl.states import (
    MAX_TOTAL_DIM,
    Bipartition,
    DensityState,
    SystemLayout,
    bures_angle,
    embed_operator,
    is_classically_correlated_on,
    json_text,
    load_state,
    maximally_entangled,
    mutual_information,
    negativity,
    negativity_array,
    negativity_rate,
    partial_trace,
    partial_trace_array,
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


def transposed_reference(layout, rho, side_b):
    """sum_ij E_ij rho E_ij, E_ij = |i><j| on the ``side_b`` subsystems: rho transposed on them."""
    d_b = math.prod(layout.dim_of(lab) for lab in side_b)
    out = np.zeros_like(rho)
    for i in range(d_b):
        for j in range(d_b):
            e = np.zeros((d_b, d_b))
            e[i, j] = 1.0
            e = embed_operator(layout, side_b, e)
            out += e @ rho @ e
    return out


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

    def test_positions_and_axes_first(self):
        lay = SystemLayout((("A", 2), ("B", 3), ("C", 2)))
        assert lay.positions(("C", "A")) == (2, 0)
        assert lay.positions(()) == ()
        assert lay.axes_first(("C", "A")) == (2, 0, 1)
        assert lay.axes_first(("B",)) == (1, 0, 2)
        assert lay.axes_first(()) == lay.axes_first(("A", "B", "C")) == (0, 1, 2)
        with pytest.raises(UnknownLabelError, match=r"repeated label in \('B', 'B'\)"):
            lay.positions(("B", "B"))
        with pytest.raises(UnknownLabelError, match="no subsystem labeled 'D'"):
            lay.axes_first(("A", "D"))

    def test_resolved_once_and_pickled_as_subsystems(self):
        # dims, dim, labels and positions are computed on first read and kept;
        # equality, hashing and pickles (what a sweep pool sends) see only
        # the subsystems, so a read layout pickles to a fresh one's bytes
        lay = SystemLayout((("A", 2), ("B", 3), ("C", 2)))
        fresh = pickle.dumps(SystemLayout(lay.subsystems))
        assert lay.dims is lay.dims and lay.labels is lay.labels
        assert (lay.dim, lay.position("C"), lay.dim_of("B")) == (12, 2, 3)
        assert pickle.dumps(lay) == fresh
        back = pickle.loads(fresh)
        assert back == lay and hash(back) == hash(lay) and back.dims == (2, 3, 2)
        assert {lay: 1}[SystemLayout((("A", 2), ("B", 3), ("C", 2)))] == 1
        assert lay != SystemLayout((("A", 2), ("C", 2), ("B", 3)))
        for bad in ("D", 0, ["A"]):
            with pytest.raises(UnknownLabelError, match="no subsystem labeled"):
                lay.position(bad)

    def test_embed_operator_checks_labels_and_shapes(self):
        lay = SystemLayout((("A", 2), ("B", 3)))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(embed_operator(lay, ("A",), x), np.kron(x, np.eye(3)))
        assert np.array_equal(embed_operator(lay, (), np.ones((1, 1))), np.eye(6))
        with pytest.raises(UnknownLabelError, match="no subsystem labeled 'C'"):
            embed_operator(lay, ("C",), x)
        with pytest.raises(UnknownLabelError, match="repeated label"):
            embed_operator(lay, ("A", "A"), np.kron(x, x))
        with pytest.raises(DimensionMismatchError,
                           match=r"operator shape \(2, 2\) does not match joint dim 3 of \('B',\)"):
            embed_operator(lay, ("B",), x)
        with pytest.raises(DimensionMismatchError, match=r"operator shape \(1, 2, 2, 2\)"):
            embed_operator(lay, ("A",), np.ones((1, 2, 2, 2)))

    def test_restricted_keeps_layout_order(self):
        lay = SystemLayout((("A", 2), ("B", 3), ("C", 2)))
        assert lay.restricted(("C", "A")) == SystemLayout((("A", 2), ("C", 2)))
        assert lay.restricted(["B"]).subsystems == (("B", 3),)

    @pytest.mark.parametrize("labels, message", [
        (("D", "A"), "no subsystem labeled 'D'"),
        (("D",), "no subsystem labeled 'D'"),
        (("A", "A"), "repeated label"),
    ])
    def test_restricted_refuses_unknown_and_repeated_labels(self, labels, message):
        # an unknown label is never dropped, and a sub-layout of it alone is
        # no dimension error
        with pytest.raises(UnknownLabelError, match=message):
            SystemLayout((("A", 2), ("B", 3), ("C", 2))).restricted(labels)


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

    def test_basis_defaults_to_all_zeros(self):
        s = DensityState.basis(Q2)
        assert s.is_pure and s.pure_vector.dtype == complex
        assert_array_equal(s.pure_vector, [1, 0, 0, 0])
        assert_array_equal(s.matrix, np.diag([1, 0, 0, 0]))

    def test_basis_packs_its_indices(self):
        lay = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
        for indices in ((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
            v = DensityState.basis(lay, indices).pure_vector
            assert_array_equal(v, np.eye(8)[lay.basis_index(indices)])
        # big-endian: A is the most significant digit
        assert DensityState.basis(lay, (1, 1, 0)).pure_vector[6] == 1

    @pytest.mark.parametrize("indices", [(0, 0), (0, 0, 0, 0), (2, 0, 0), (0, -1, 0)])
    def test_basis_refuses_bad_indices(self, indices):
        lay = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
        with pytest.raises(DimensionMismatchError):
            DensityState.basis(lay, indices)

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

    def test_spectrum_is_the_validated_one(self):
        s = DensityState(Q3, random_density(8))
        assert_array_equal(s.spectrum, np.linalg.eigvalsh(s.matrix))
        assert not s.spectrum.flags.writeable
        with pytest.raises(ValueError):
            s.spectrum[0] = 0.0
        assert DensityState.from_pure(Q2, [1.0, 0, 0, 0]).spectrum is None
        assert DensityState._trusted(Q3, s.matrix).spectrum is None

    def test_entropy_reads_the_spectrum(self, monkeypatch):
        s = DensityState(Q3, random_density(8))
        again = DensityState._trusted(Q3, s.matrix)
        assert von_neumann_entropy(s) == von_neumann_entropy(again)
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or original(m))
        marg = partial_trace(s, ("A", "B"))
        assert len(calls) == 1  # validation
        mutual_information(marg, Bipartition.parse("A:B"))
        # one per validated single-side marginal; none for the entropies
        assert len(calls) == 3


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
        pt = partial_transpose_array(s.matrix, Q2.dims, [1])
        assert_allclose(pt, np.kron(ra, rb.T), atol=1e-14)
        ptpt = partial_transpose_array(DensityState(Q2, pt).matrix, Q2.dims, [1])
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
                assert_allclose(pt, transposed_reference(self.LAYOUT, rho, p.side_b),
                                rtol=0, atol=1e-12)
                assert abs(neg - negativity(s, p)) <= 1e-12
                values.append(neg)
        assert max(values) > 0.1
        # no entanglement reads as +0.0, never -0.0
        zero = negativity_array(np.eye(4)[None] / 4, (2, 2), [1])
        assert zero[0] == 0.0 and math.copysign(1.0, zero[0]) == 1.0


def _rank_deficient_density(d: int, rank: int, stream: RngStream) -> np.ndarray:
    """G G+ / tr(G G+), G a d x ``rank`` complex Ginibre draw from ``stream``."""
    g = stream.complex_normals(d, rank)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestNegativityRate:
    """``negativity_rate`` against one-sided differences of ``negativity_array``."""

    H = 1e-7
    # the difference misses the rate by its O(h) term, h times N's second
    # derivative: at most 6.4e-5 over 1,200 seeded draws at d = 3, where a
    # lost kernel term or moving term is O(1)
    TOL = 1e-3

    def _difference(self, sigma, dsigma, d):
        n0, n_h = (negativity_array(m, (d, d), (1,)) for m in (sigma, sigma + self.H * dsigma))
        return (n_h - n0) / self.H

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32), d=st.sampled_from([2, 3]))
    def test_drawn_stacks(self, seed, d):
        streams = [RngStream(seed, i) for i in range(8)]
        sigma = randgen.random_density(d * d, streams)
        dsigma = randgen.random_hermitian(d * d, streams)
        rate = negativity_rate(sigma, dsigma, (d, d), (1,))
        assert rate.shape == (8,)
        assert np.abs(rate - self._difference(sigma, dsigma, d)).max() <= self.TOL
        for one, s, ds in zip(rate, sigma, dsigma):
            assert one == negativity_rate(s, ds, (d, d), (1,))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32), d=st.sampled_from([2, 3]), data=st.data())
    def test_planted_product_kernels(self, seed, d, data):
        # rho_A (x) rho_B with rank-deficient factors, |00><00| among them:
        # sigma^G = rho_A (x) rho_B^T has a kernel and no negative eigenvalue,
        # so N is 0 and only the kernel term moves it
        ranks = data.draw(st.tuples(st.integers(1, d), st.integers(1, d)).filter(
            lambda r: min(r) < d))
        stream = RngStream(seed, 0)
        sigma = np.kron(*(_rank_deficient_density(d, r, stream) for r in ranks))
        if data.draw(st.booleans()):
            sigma = np.zeros((d * d, d * d), dtype=complex)
            sigma[0, 0] = 1.0
        dsigma = randgen.random_hermitian(d * d, stream)
        rate = negativity_rate(sigma, dsigma, (d, d), (1,))
        assert negativity_array(sigma, (d, d), (1,)) == 0.0 and rate >= 0.0
        assert abs(rate - self._difference(sigma, dsigma, d)) <= self.TOL

    @pytest.mark.parametrize("d, want", [(2, 1.0), (3, math.sqrt(2))])
    def test_direct_control(self, d, want):
        # |00> under the optimal direct coupling: N grows at once, through
        # the kernel term alone
        m = direct_optimal(d).matrix
        sigma = np.zeros((d * d, d * d), dtype=complex)
        sigma[0, 0] = 1.0
        dsigma = -1j * (m @ sigma - sigma @ m)
        assert abs(negativity_rate(sigma, dsigma, (d, d), (1,)) - want) <= 1e-12


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

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 3)])
    def test_mixed_mixed_is_the_trace_of_the_root(self, dims):
        # sum sqrt(w) over the spectrum of r sigma r, r = sqrt(rho), is the
        # trace of its square root; F is symmetric, so both orders agree
        layout = SystemLayout(tuple((f"S{k}", d) for k, d in enumerate(dims)))
        worst = 0.0
        for sid in range(50):
            stream = RngStream(17, sid)
            rho, sigma = (DensityState(layout, randgen.random_density(layout.dim, stream))
                          for _ in range(2))
            r = sqrtm_psd(rho.matrix)
            want = np.trace(sqrtm_psd(r @ sigma.matrix @ r)).real
            worst = max(worst, abs(uhlmann_fidelity(rho, sigma) - want),
                        abs(uhlmann_fidelity(sigma, rho) - want))
        assert worst <= 1e-12

    @pytest.mark.parametrize("rank", range(1, 8))
    def test_rank_deficient_first_state_is_stable(self, rank):
        # taken on the support factor of sigma, F moves by roundoff under a
        # 1e-14 change of either state; summed over sigma's null space, whose
        # eigenvalues are roundoff, it moved by up to 6e-9
        layout = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
        worst = 0.0
        for sid in range(20):
            stream = RngStream(23, sid)
            x = stream.complex_normals(8, rank)
            sigma = x @ x.conj().T / np.vdot(x, x).real
            rho = randgen.random_density(8, stream)
            noise = []
            for _ in range(2):
                g = stream.complex_normals(8, 8)
                e = 0.5e-14 * (g + g.conj().T)
                noise.append(e - np.trace(e) / 8 * np.eye(8))
            f = uhlmann_fidelity(DensityState(layout, sigma), DensityState(layout, rho))
            moved = uhlmann_fidelity(DensityState(layout, sigma + noise[0]),
                                     DensityState(layout, rho + noise[1]))
            worst = max(worst, abs(moved - f))
            if rank == 1:  # the closed form of a pure first state
                u = x[:, 0] / np.linalg.norm(x)
                assert abs(f - math.sqrt(np.vdot(u, rho @ u).real)) <= 1e-14
        assert worst <= 1e-12

    def test_layout_mismatch(self):
        other = DensityState(SystemLayout((("X", 4),)), random_density(4))
        with pytest.raises(LayoutMismatchError):
            uhlmann_fidelity(bell(), other)


def _rank_deficient(layout, count, seed):
    """``count`` states of ``layout``, each of rank 1 to n - 1, as one checked stack."""
    n, gen = layout.dim, np.random.default_rng(seed)
    out = []
    for rank in gen.integers(1, n, count):
        g = gen.normal(size=(n, rank)) + 1j * gen.normal(size=(n, rank))
        out.append(g @ g.conj().T / np.linalg.norm(g) ** 2)
    return DensityState(layout, np.array(out))


class TestEntropyAndInformation:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_masked_sum_is_the_kept_entries_sum(self, n):
        # below 8 entries numpy sums a row in order, so the masked entries'
        # zeros leave the sum of the kept entries alone, bit for bit
        stack = _rank_deficient(SystemLayout((("A", n),)), 200, n)
        assert (stack.spectrum <= ENTROPY_CUTOFF).any(axis=1).all()
        want = [-(w * np.log2(w)).sum() for w in (row[row > ENTROPY_CUTOFF]
                                                  for row in stack.spectrum)]
        assert_array_equal(von_neumann_entropy(stack), want)

    @pytest.mark.parametrize("layout", [Q3, SystemLayout((("A", 3), ("B", 3))),
                                        SystemLayout((("A", 4), ("B", 4)))],
                             ids=["n8", "n9", "n16"])
    def test_stack_entropy_is_each_states(self, layout):
        stack = _rank_deficient(layout, 50, layout.dim)
        assert (stack.spectrum <= ENTROPY_CUTOFF).any(axis=1).all()
        want = [von_neumann_entropy(DensityState(layout, m)) for m in stack.matrix]
        assert_array_equal(von_neumann_entropy(stack), want)

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

    def test_stack_refused_before_reshape(self):
        stack = DensityState(Q3, np.stack([np.eye(8) / 8] * 3).astype(complex))
        with pytest.raises(DimensionMismatchError, match="a stack of 3 states"):
            is_classically_correlated_on(stack, "C")
        # a one-dimensional label would otherwise pass without a look
        lay = SystemLayout((("A", 2), ("C", 1)))
        with pytest.raises(DimensionMismatchError, match="a stack of 2 states"):
            is_classically_correlated_on(DensityState(lay, np.stack([np.eye(2) / 2] * 2)), "C")


def _kron_then_permute(layout, labels, op):
    """The embedding as op (x) I, then its axes permuted into layout order."""
    order = layout.axes_first(labels)
    lead = op.shape[:-2]
    big = kron_stack(op, np.eye(layout.dim // op.shape[-1], dtype=complex))
    dims = [layout.dims[k] for k in order]
    perm = len(lead) + np.argsort(order)
    t = big.reshape(lead + (*dims, *dims)).transpose(
        [*range(len(lead)), *perm, *(perm + len(order))])
    return np.ascontiguousarray(t.reshape(lead + (layout.dim, layout.dim)))


class TestEmbedOperator:
    @pytest.mark.parametrize("lead", [(), (5,)], ids=["single", "stack"])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 3, 2), (3, 2), (2, 3, 2, 3)])
    def test_bits_of_kron_then_permute(self, dims, lead):
        # every ordered label subset, with a row of -0 and a row of -0 real
        # parts: each entry is the one product op_ij e_kl of op (x) I, zero
        # signs included, so the smi seed digest that pins them holds
        labs = "ABCD"[:len(dims)]
        lay = SystemLayout(tuple(zip(labs, dims)))
        gen = np.random.default_rng(len(dims))
        for r in range(len(dims) + 1):
            for labels in itertools.permutations(labs, r):
                m = math.prod(lay.dim_of(lab) for lab in labels)
                op = gen.standard_normal(lead + (m, m)) + 1j * gen.standard_normal(lead + (m, m))
                op[..., 0, :] = complex(-0.0, -0.0)
                op.real[..., -1, :] = -0.0
                got = embed_operator(lay, labels, op)
                assert got.flags.c_contiguous, labels
                assert got.tobytes() == _kron_then_permute(lay, labels, op).tobytes(), labels

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


# documents at json's edges: non-finite and signed-zero floats, the
# extremes of float repr, ints, bools, None, empty and mixed containers,
# nested [re, im] rows, tuples, escapes, non-ASCII text and non-str keys
JSON_EDGE_DOCS = [
    {"nan": [math.nan, 1.0], "inf": [math.inf, -math.inf], "zero": [-0.0, 0.0],
     "tiny": 5e-324, "big": [1e16, 1.7976931348623157e308, 2.0 ** 70], "int": [0, -3, 10 ** 30],
     "flags": [True, False, None], "empty": [[], {}, [[]], {"a": {}}],
     "mixed": [1, 2.5, True, "x", None, 3], "rows": [[1.0, -0.0], [0.5, 1e-300]],
     "tuple": (1.0, (2, 3.5)), "text": "tab\t quote\" back\\ nl\n ctl\x01 é ü 量 🙂",
     "é-key": {"b": 1, "a": 2, "A": 3, "": 4}},
    {2: "two", 1: "one"}, {2.5: "b", math.inf: "c", -1.5: "a"}, {True: "t"}, {None: "n"},
    [math.nan], [math.inf, 1.0, -0.0], [np.float64(2.5), 1.0], {"x": np.float64(0.1)},
    [], {}, "", 0, -0.0, math.nan, None, True, 1e-7, [1, 2], [[[1.0]]],
]


@pytest.mark.parametrize("doc", JSON_EDGE_DOCS)
def test_json_text_is_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [{"a": np.int64(1)}, {(1, 2): 3}, [object()], {1: 2, "a": 3}])
def test_json_text_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        json_text(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("state", [bell(), DensityState(Q3, random_density(8))],
                         ids=["pure", "mixed"])
def test_state_file_is_json_dumps(tmp_path, state):
    save_state(state, tmp_path / "s.json")
    want = json.dumps(state_to_dict(state), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "s.json").read_text() == want

