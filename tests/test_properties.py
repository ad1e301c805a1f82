"""Metric and entanglement laws checked over large random case batches.

Each property runs a thousand seeded cases drawn through the package's own
stream machinery, so a failure pins down a reproducible (seed, case) pair.
"""

import math

import numpy as np
import pytest

from medqsl import (
    Bipartition,
    DensityState,
    Hamiltonian,
    RngStream,
    SystemLayout,
    bures_angle,
    direct_optimal,
    embed_operator,
    energy_moments,
    haar_pure,
    is_classically_correlated_on,
    negativity,
    partial_trace,
    random_density,
    random_hermitian,
    uhlmann_fidelity,
    unified_bound,
)

N_CASES = 1000


def _single(d):
    return SystemLayout((("A", d),))


def _pair(da, db):
    return SystemLayout((("A", da), ("B", db)))


def _state(d, rc):
    return DensityState(_single(d), random_density(d, rc))


def _haar_unitary(d, rc):
    q, r = np.linalg.qr(rc.complex_normals(d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestFidelityLaws:
    def test_multiplicative_over_tensor_products(self):
        for i in range(N_CASES):
            rc = RngStream(101, i)
            d1 = 2 + i % 2
            d2 = 2 + (i // 2) % 2
            r1, s1 = _state(d1, rc), _state(d1, rc)
            r2, s2 = _state(d2, rc), _state(d2, rc)
            lay = _pair(d1, d2)
            rr = DensityState(lay, np.kron(r1.matrix, r2.matrix))
            ss = DensityState(lay, np.kron(s1.matrix, s2.matrix))
            lhs = uhlmann_fidelity(rr, ss)
            rhs = uhlmann_fidelity(r1, s1) * uhlmann_fidelity(r2, s2)
            assert abs(lhs - rhs) < 1e-9, (i, lhs, rhs)

    def test_monotone_under_partial_trace(self):
        for i in range(N_CASES):
            rc = RngStream(102, i)
            da = 2 + i % 2
            db = 2 + (i // 3) % 2
            lay = _pair(da, db)
            r = DensityState(lay, random_density(da * db, rc))
            s = DensityState(lay, random_density(da * db, rc))
            joint = uhlmann_fidelity(r, s)
            reduced = uhlmann_fidelity(partial_trace(r, ("A",)),
                                       partial_trace(s, ("A",)))
            assert reduced >= joint - 1e-10, (i, joint, reduced)

    def test_bures_triangle_inequality(self):
        for i in range(N_CASES):
            rc = RngStream(103, i)
            d = 2 + i % 3
            a, b, c = _state(d, rc), _state(d, rc), _state(d, rc)
            assert bures_angle(a, c) <= (
                bures_angle(a, b) + bures_angle(b, c) + 1e-9
            ), i


class TestNegativityLaws:
    def test_invariant_under_local_unitaries(self):
        cut = Bipartition(("A",), ("B",))
        for i in range(N_CASES):
            rc = RngStream(104, i)
            da = 2 + i % 2
            db = 2 + (i // 2) % 2
            lay = _pair(da, db)
            rho = random_density(da * db, rc)
            u = np.kron(_haar_unitary(da, rc), _haar_unitary(db, rc))
            before = negativity(DensityState(lay, rho), cut)
            after = negativity(DensityState(lay, u @ rho @ u.conj().T), cut)
            assert abs(before - after) < 1e-10, i

    def test_pure_states_match_schmidt_form(self):
        # N = ((sum of Schmidt coefficients)^2 - 1) / 2
        cut = Bipartition(("A",), ("B",))
        for i in range(N_CASES):
            rc = RngStream(105, i)
            da = 2 + i % 3
            db = 2 + (i // 3) % 3
            lay = _pair(da, db)
            v = haar_pure(da * db, rc)
            coeffs = np.linalg.svd(v.reshape(da, db), compute_uv=False)
            expected = (coeffs.sum() ** 2 - 1) / 2
            got = negativity(DensityState.from_pure(lay, v), cut)
            assert abs(got - expected) < 1e-10, i


def _layout_with_c(i, dc):
    """Qubit A, qubit or qutrit B and a dc-level C, with C first, middle or last."""
    subs = [("A", 2), ("B", 2 + (i // 3) % 2)]
    subs.insert(i % 3, ("C", dc))
    return SystemLayout(tuple(subs))


def _classical_on_c(i, rc, eps):
    """sum_k p_k |u_k><u_k| (x) rho_k in a Haar-random basis u of C, plus eps X
    |u_0><u_1| + h.c. for a random unit X, with C placed by ``_layout_with_c``.

    Even cases take equal weights, and every other pair of cases repeats
    the first conditional state, so equal blocks p_k rho_k occur too.
    Each rho_k is at least half maximally mixed, so a small coupling
    keeps the state positive.
    """
    dc = 2 + i % 3
    dr = 2 * (2 + (i // 3) % 2)
    u = _haar_unitary(dc, rc)
    p = np.ones(dc) if i % 2 == 0 else np.abs(rc.normals(dc)) + 0.1
    p = p / p.sum()
    conds = [0.5 * random_density(dr, rc) + 0.5 * np.eye(dr) / dr for _ in range(dc)]
    if (i // 2) % 2:
        conds[1] = conds[0]
    m = sum(p[k] * np.kron(np.outer(u[:, k], u[:, k].conj()), conds[k])
            for k in range(dc))
    x = rc.complex_normals(dr, dr)
    off = eps * np.kron(np.outer(u[:, 0], u[:, 1].conj()), x / np.linalg.norm(x))
    lay = _layout_with_c(i, dc)
    return DensityState(lay, embed_operator(lay, ("C", "A", "B"), m + off + off.conj().T))


class TestClassicalityLaws:
    def test_classical_states_are_found(self):
        for i in range(N_CASES):
            s = _classical_on_c(i, RngStream(108, i), 0.0)
            assert is_classically_correlated_on(s, "C"), i

    def test_coherence_within_tolerance_is_classical(self):
        # a coherence of 1e-11 is a thousand times below CLASSICAL_TOL
        for i in range(N_CASES):
            s = _classical_on_c(i, RngStream(111, i), 1e-11)
            assert is_classically_correlated_on(s, "C"), i

    def test_coherent_coupling_is_not_classical(self):
        for i in range(N_CASES):
            s = _classical_on_c(i, RngStream(109, i), 1e-6)
            assert not is_classically_correlated_on(s, "C"), i

    def test_random_states_are_not_classical(self):
        for i in range(N_CASES):
            rc = RngStream(110, i)
            lay = _layout_with_c(i, 2 + i % 3)
            if i % 2:
                s = DensityState.from_pure(lay, haar_pure(lay.dim, rc))
            else:
                s = DensityState(lay, random_density(lay.dim, rc))
            assert not is_classically_correlated_on(s, "C"), i


class TestFactorStates:
    def test_constructor_accepts_every_factor_state(self):
        # full-rank and rank-deficient factors X (k <= n columns), with
        # condition numbers from 1 to 1e12: the Gram product that from_factor
        # builds unchecked passes the constructor's full validation, eigensolve
        # included, and the two keep the same matrix bits
        for i in range(N_CASES):
            rc = RngStream(112, i)
            lay = _layout_with_c(i, 2 + i % 2)
            n = lay.dim
            k = 1 + (i // 5) % n
            sigma = 10.0 ** (-3 * (i % 5) * np.linspace(0.0, 1.0, k))
            x = _haar_unitary(n, rc)[:, :k] * (sigma / np.linalg.norm(sigma)) \
                @ _haar_unitary(k, rc).conj().T
            s = DensityState.from_factor(lay, x)
            assert s.spectrum is None and not s.matrix.flags.writeable
            assert np.array_equal(s.matrix, x @ x.conj().T), i
            assert np.array_equal(DensityState(lay, s.matrix).matrix, s.matrix), i


class TestSpeedLimitLaws:
    def test_angle_never_beats_normalized_time(self):
        # With the energy spread as the binding resource (std <= mean, the
        # regime of every bundled coupling), rescaling to min{mean, std} = 1
        # caps the Bures speed at 1, so no stretch of length T moves the
        # state by more than T.  The mean-side bound is linear only at
        # orthogonality; the next test samples that half.
        for i in range(N_CASES):
            rc = RngStream(106, i)
            d = (2, 2) if i % 2 else (2, 3)
            lay = _pair(*d)
            n = lay.dim
            for _ in range(100):
                h = Hamiltonian(lay, random_hermitian(n, rc))
                psi0 = haar_pure(n, rc)
                s0 = DensityState.from_pure(lay, psi0)
                em = energy_moments(h, s0)
                if em.std <= em.mean:
                    break
            else:
                pytest.fail(f"case {i}: no spread-binding draw in 100 tries")
            k = 1.0 / em.smaller
            w, u = np.linalg.eigh(h.matrix * k)
            t = 0.01 + 2.99 * (i / N_CASES)
            psi_t = u @ (np.exp(-1j * w * t) * (u.conj().T @ psi0))
            theta = math.acos(min(1.0, abs(np.vdot(psi0, psi_t))))
            assert theta <= t + 1e-8, (i, theta, t)

    def test_bound_never_beats_the_time_where_the_mean_binds(self):
        # The other half: starts near the ground state, where the mean energy
        # above it is the smaller moment.  Rescaled to mean = 1, the state at
        # T is no further from its start than the unified bound allows,
        # max(theta / std, alpha(theta)) <= T, although theta itself may
        # exceed T there, and alpha binds in some draws.
        beats_angle = alpha_binds = 0
        for i in range(N_CASES):
            rc = RngStream(112, i)
            lay = _pair(2, 2) if i % 2 else _pair(2, 3)
            n = lay.dim
            for _ in range(100):
                h = Hamiltonian(lay, random_hermitian(n, rc))
                psi0 = h.eig[1][:, 0] + 0.3 * abs(rc.normals(1)[0]) * haar_pure(n, rc)
                s0 = DensityState.from_pure(lay, psi0)
                em = energy_moments(h, s0)
                if em.mean < em.std:
                    break
            else:
                pytest.fail(f"case {i}: no mean-binding draw in 100 tries")
            h = h.scaled(em.scale())
            w, u = h.eig
            t = 0.01 + 2.99 * (i / N_CASES)
            psi_t = u @ (np.exp(-1j * w * t) * (u.conj().T @ s0.pure_vector))
            rep = unified_bound(s0, DensityState.from_pure(lay, psi_t), h)
            assert rep.bound <= t + 1e-8, (i, rep.mt, rep.ml, t)
            beats_angle += rep.angle > t
            alpha_binds += rep.ml > rep.mt
        assert beats_angle > N_CASES // 20 and alpha_binds > N_CASES // 4

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_optimal_coupling_moves_on_a_geodesic(self, d):
        ham = direct_optimal(d)
        w, u = np.linalg.eigh(ham.matrix)
        psi0 = np.zeros(d * d, dtype=complex)
        psi0[0] = 1.0
        rng = np.random.default_rng(107 + d)
        for _ in range(N_CASES // 4):
            t1, t2 = np.sort(rng.uniform(0.0, math.pi / 2, size=2))
            a = u @ (np.exp(-1j * w * t1) * (u.conj().T @ psi0))
            b = u @ (np.exp(-1j * w * t2) * (u.conj().T @ psi0))
            theta = math.acos(min(1.0, abs(np.vdot(a, b))))
            assert abs(theta - (t2 - t1)) < 1e-9, (t1, t2, theta)
