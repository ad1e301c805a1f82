"""Fixtures shared by the test modules."""

import math

import pytest

from medqsl import dynamics


def _rk4_form(k, q, span):
    """``step(rho)``: four-stage RK4 in the fewest equal substeps of at most 1e-3 that make
    up ``span``, on K r + (K r)+ + sum_q Q r Q+.

    Not completely positive: at rate x substep near 1 it overshoots, and far above it
    diverges, so it stands in for an open stepper that loses positivity.
    """
    n_sub = max(1, math.ceil(span / 1e-3 - 1e-12))
    dt = span / n_sub
    q_adj = q.conj().swapaxes(-1, -2)

    def rhs(r):
        kr = k @ r
        return kr + kr.conj().swapaxes(-1, -2) + (q @ r[..., None, :, :] @ q_adj).sum(axis=-3)

    def step(rho):
        for _ in range(n_sub):
            k1 = rhs(rho)
            k2 = rhs(rho + 0.5 * dt * k1)
            k3 = rhs(rho + 0.5 * dt * k2)
            k4 = rhs(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
        return rho
    return step


@pytest.fixture
def rk4_stepper(monkeypatch):
    """Every open run, at any size, steps by ``_rk4_form``.

    The work cap prices Taylor substeps, which this stepper does not take, so it is lifted.
    """
    monkeypatch.setattr(dynamics, "LIOUVILLE_MAX_BYTES", 0)
    monkeypatch.setattr(dynamics, "MAX_FACTOR_WORK", math.inf)
    monkeypatch.setattr(dynamics, "_factor_form", _rk4_form)
