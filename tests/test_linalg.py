import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from medqsl.errors import NotHermitianError, NotPSDError
from medqsl.linalg import (
    expm,
    expm_plan,
    hermitian_eig,
    propagate,
    require_hermitian,
    sqrtm_psd,
)

rng = np.random.default_rng(11)


def random_hermitian(n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


class TestRequireHermitian:
    def test_accepts_hermitian(self):
        m = random_hermitian(5)
        out = require_hermitian(m)
        assert_allclose(out, m)

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            require_hermitian(m)

    def test_tolerance_is_absolute(self):
        m = np.eye(3, dtype=complex)
        m[0, 1] = 1e-11  # below the 1e-10 default
        require_hermitian(m)
        m[0, 1] = 1e-9
        with pytest.raises(NotHermitianError):
            require_hermitian(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        # NaN compares False against any tolerance; it must still fail
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(NotHermitianError, match=r"non-finite entries, at \[\[1, 2\]\]"):
            require_hermitian(m)

    def test_infinite_diagonal_names_the_entry_without_a_warning(self):
        # inf - inf is NaN; under the suite's error::RuntimeWarning filter a
        # numpy warning would fail this test before the error is raised
        m = np.eye(3, dtype=complex)
        m[0, 0] = np.inf
        with pytest.raises(NotHermitianError, match=r"non-finite entries, at \[\[0, 0\]\]$"):
            require_hermitian(m)


def unitary_at(m, t):
    """exp(-i t m) from ``propagate`` applied to the identity factor."""
    w, v = hermitian_eig(m)
    return propagate(w, v, np.eye(len(m)), [t])[0]


class TestExpm:
    """exp(-i t m) as computed by ``propagate``."""

    def test_unitary(self):
        m = random_hermitian(6)
        u = unitary_at(m, 0.37)
        assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)

    def test_matches_series_for_small_t(self):
        m = random_hermitian(4)
        t = 1e-5
        series = np.eye(4) - 1j * t * m - 0.5 * t * t * (m @ m)
        assert_allclose(unitary_at(m, t), series, atol=1e-13)

    def test_group_property(self):
        m = random_hermitian(4)
        u = unitary_at(m, 0.3) @ unitary_at(m, 0.4)
        assert_allclose(u, unitary_at(m, 0.7), atol=1e-12)

    def test_stack_matches_taylor_series(self):
        # a random vector and a random 3-column factor over a stack of
        # times, against exp(-i t m) summed as a Taylor series
        m = random_hermitian(5)
        times = np.array([0.0, 0.05, 0.2, 0.5])
        w, v = hermitian_eig(m)
        for x0 in (rng.normal(size=5) + 1j * rng.normal(size=5),
                   rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))):
            out = propagate(w, v, x0, times)
            assert out.shape == (len(times),) + x0.shape
            for t, got in zip(times, out):
                term = x0.astype(complex)
                series = term.copy()
                for k in range(1, 40):
                    term = (-1j * t / k) * (m @ term)
                    series = series + term
                assert_allclose(got, series, atol=1e-12)


class TestScalingAndSquaring:
    """``expm``, Pade [m/m] with scaling and squaring, against closed forms."""

    @pytest.mark.parametrize("norm, plan", [
        (0.01, (3, 0)), (0.2, (5, 0)), (0.9, (7, 0)), (2.0, (9, 0)), (5.0, (13, 0)),
        (50.0, (13, 4)), (500.0, (13, 7))])
    def test_unitary_matches_eigh(self, norm, plan):
        # exp(-i t m) = v exp(-i t w) v+ at a 1-norm that each degree, and
        # then each count of squarings, is taken for; the roundoff of the
        # phases grows with the norm
        m = random_hermitian(6)
        t = norm / np.abs(m).sum(axis=0).max()
        assert expm_plan(norm) == plan
        w, v = hermitian_eig(m)
        assert_allclose(expm(-1j * t * m), (v * np.exp(-1j * t * w)) @ v.conj().T,
                        rtol=0, atol=1e-15 * max(norm, 5.0))

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_jordan_block(self, t):
        # exp(t (lam I + N)) = exp(lam t) sum_k (t N)^k / k!, N nilpotent
        lam, n = -1 + 0.5j, 5
        got = expm(t * (lam * np.eye(n) + np.eye(n, k=1)))
        want = np.exp(lam * t) * sum(np.eye(n, k=k) * t ** k / math.factorial(k)
                                     for k in range(n))
        assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_diagonal(self):
        # exact to roundoff relative to 1: exp(-50) comes out below 1e-15
        d = np.array([-50, -3 + 2j, -0.1j, 0, 0.5, 2 + 1j])
        got = expm(np.diag(d))
        assert_allclose(np.diag(got), np.exp(d), rtol=1e-14, atol=1e-15)
        assert np.array_equal(got, np.diag(np.diag(got)))

    def test_non_finite_norm_is_refused(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="1-norm"):
                expm(np.diag([1.0, bad]))


class TestSqrtmPsd:
    def test_squares_back(self):
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        p = g @ g.conj().T
        r = sqrtm_psd(p)
        assert_allclose(r @ r, p, atol=1e-10)

    def test_clamps_tiny_negative(self):
        p = np.diag([1.0, -1e-11])  # inside the -1e-10 floor
        r = sqrtm_psd(p)
        assert r[1, 1] == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(NotHermitianError, match="non-finite"):
            sqrtm_psd(np.diag([1.0, np.nan]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            sqrtm_psd(np.diag([1.0, -1e-6]))


def test_hermitian_eig_sorted_ascending():
    m = random_hermitian(7)
    w, v = hermitian_eig(m)
    assert np.all(np.diff(w) >= 0)
    assert_allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-12)
