"""Counter-based random ensembles: determinism, distributions, structure.

The Haar overlap distribution check is a hand-rolled Kolmogorov-Smirnov
test against the exact CDF 1 - (1-x)^(n-1) for |<psi|phi>|^2 of
independent Haar vectors in dimension n, at significance 1e-3.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from medqsl.randgen import (
    RngStream,
    haar_pure,
    random_density,
    random_hermitian,
    random_mediated_hamiltonian,
    random_weights,
)


class TestStreams:
    def test_same_key_same_draws(self):
        a = RngStream(7, 3).normals(16)
        b = RngStream(7, 3).normals(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 0).normals(16)
        b = RngStream(7, 1).normals(16)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RngStream(7, 0).normals(16)
        b = RngStream(8, 0).normals(16)
        assert not np.array_equal(a, b)

    def test_sequential_draws_extend(self):
        # draws from one stream form a sequence; a fresh stream replays it
        s = RngStream(7, 0)
        first = s.normals(8)
        second = s.normals(8)
        replay = RngStream(7, 0).normals(16)
        assert np.array_equal(np.concatenate([first, second]), replay)

    def test_key_range_enforced(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, 2 ** 64)

    @pytest.mark.parametrize("seed", [7.9, 7.0, True, "7"])
    def test_seed_must_be_an_integer(self, seed):
        # int() used to truncate 7.9 to stream 7 without a word
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            RngStream(seed, 0)

    @pytest.mark.parametrize("stream_id", [1.5, 1.0, False, "1"])
    def test_stream_id_must_be_an_integer(self, stream_id):
        with pytest.raises(ValueError, match=f"stream_id must be an integer, got {stream_id!r}"):
            RngStream(7, stream_id)

    def test_numpy_integers_accepted(self):
        s = RngStream(np.uint64(7), np.int32(3))
        assert (type(s.seed), type(s.stream_id)) == (int, int)
        assert np.array_equal(s.normals(4), RngStream(7, 3).normals(4))

    def test_complex_normals_shape(self):
        z = RngStream(1, 1).complex_normals(3, 4)
        assert z.shape == (3, 4) and np.iscomplexobj(z)


class TestHaarPure:
    def test_normalized(self):
        for d in (2, 5, 9):
            v = haar_pure(d, RngStream(3, 0))
            assert_allclose(np.vdot(v, v).real, 1.0, atol=1e-12)

    def test_overlap_distribution(self):
        # KS test: F = |<psi|phi>|^2 ~ Beta(1, n-1) for Haar pairs
        n = 4
        cases = 2000
        stream = RngStream(12, 0)
        samples = np.empty(cases)
        for k in range(cases):
            a = haar_pure(n, stream)
            b = haar_pure(n, stream)
            samples[k] = abs(np.vdot(a, b)) ** 2
        xs = np.sort(samples)
        cdf = 1.0 - (1.0 - xs) ** (n - 1)
        ks = np.abs(cdf - np.arange(1, cases + 1) / cases).max()
        ks = max(ks, np.abs(cdf - np.arange(cases) / cases).max())
        alpha = 1e-3
        critical = math.sqrt(-math.log(alpha / 2) / (2 * cases))
        assert ks < critical

    def test_phase_invariant_statistics(self):
        # the first-amplitude modulus^2 should average 1/d
        d = 6
        stream = RngStream(4, 2)
        vals = [abs(haar_pure(d, stream)[0]) ** 2 for _ in range(4000)]
        assert abs(np.mean(vals) - 1 / d) < 0.01


class TestRandomDensity:
    def test_valid_state(self):
        rho = random_density(5, RngStream(9, 1))
        assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
        assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(rho)[0] > -1e-14

    def test_mean_purity_matches_trace_formula(self):
        # square Ginibre: E[tr rho^2] = 2d / (d^2 + 1); 4/5 for qubits
        stream = RngStream(21, 0)
        n = 20000
        acc = 0.0
        for _ in range(n):
            rho = random_density(2, stream)
            acc += float(np.trace(rho @ rho).real)
        assert abs(acc / n - 0.8) < 0.005


class TestRandomHermitian:
    def test_hermitian(self):
        h = random_hermitian(6, RngStream(2, 5))
        assert_allclose(h, h.conj().T, atol=1e-14)

    def test_gue_eigenvalue_scale(self):
        # unit-variance entries put the semicircle edge at 2 sqrt(n)
        n = 40
        h = random_hermitian(n, RngStream(17, 0))
        w = np.linalg.eigvalsh(h)
        assert w.max() < 2.2 * math.sqrt(n)
        assert w.min() > -2.2 * math.sqrt(n)
        assert w.max() > 1.5 * math.sqrt(n)


class TestMediatedHamiltonian:
    def test_structure(self):
        h = random_mediated_hamiltonian(2, 2, 3, RngStream(5, 0))
        assert h.layout.dims == (2, 2, 3)
        # no direct A-B block: tracing out C of the commutator with any
        # A-local operator must touch only A and C; verify Hermitian + shape
        assert h.matrix.shape == (12, 12)

    def test_no_direct_pair_coupling(self):
        # in the three-qubit Pauli basis, any term acting nontrivially on
        # both A and B at once must have zero weight
        h = random_mediated_hamiltonian(2, 2, 2, RngStream(5, 1)).matrix
        paulis = [np.eye(2, dtype=complex),
                  np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]], dtype=complex),
                  np.diag([1.0, -1.0]).astype(complex)]
        for i in range(1, 4):
            for j in range(1, 4):
                for k in range(4):
                    basis = np.kron(np.kron(paulis[i], paulis[j]), paulis[k])
                    coeff = np.trace(basis @ h) / 8
                    assert abs(coeff) < 1e-12

    def test_replay_is_deterministic(self):
        a = random_mediated_hamiltonian(2, 2, 2, RngStream(5, 1)).matrix
        b = random_mediated_hamiltonian(2, 2, 2, RngStream(5, 1)).matrix
        assert np.array_equal(a, b)

    def test_minimum_dims(self):
        with pytest.raises(Exception):
            random_mediated_hamiltonian(1, 2, 2, RngStream(0, 0))
        # a trivial mediator is allowed (dimension 1)
        h = random_mediated_hamiltonian(2, 2, 1, RngStream(0, 0))
        assert h.layout.dims == (2, 2, 1)


class TestBlockDraws:
    """A sequence of streams draws a stack: row i is, bit for bit, the one-stream
    draw from stream i, and each stream is left where that one draw leaves it."""

    @staticmethod
    def check(draw, seed, block):
        streams = [RngStream(seed, sid) for sid in range(block)]
        twins = [RngStream(seed, sid) for sid in range(block)]
        stacked = draw(streams)
        assert_array_equal(stacked, np.array([draw(twin) for twin in twins]))
        for stream, twin in zip(streams, twins):
            assert_array_equal(stream.normals(3), twin.normals(3))

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("sampler", [haar_pure, random_density, random_hermitian,
                                         random_weights])
    def test_samplers(self, sampler, dim, block, seed):
        self.check(lambda s: sampler(dim, s), seed, block)

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("d, d_c", [(2, 1), (2, 2), (2, 3), (3, 3)])
    def test_mediated_hamiltonian(self, d, d_c, block, seed):
        self.check(lambda s: random_mediated_hamiltonian(d, d, d_c, s).matrix, seed, block)
