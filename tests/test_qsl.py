import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from medqsl import qsl
from medqsl.dynamics import TimeGrid, evolve_unitary, first_max_entanglement_time
from medqsl.errors import BadDimensionError, LayoutMismatchError, StationaryStateError
from medqsl.hamiltonians import Hamiltonian, direct_optimal, energy_moments
from medqsl.qsl import (
    BoundReport,
    conjecture_bound,
    di_bound,
    smi_bound,
    swap_stage_fidelity,
    unified_bound,
)
from medqsl.randgen import RngStream, random_density
from medqsl.states import Bipartition, DensityState, SystemLayout, maximally_entangled


def ket0(layout):
    v = np.zeros(layout.dim)
    v[0] = 1.0
    return DensityState.from_pure(layout, v)


class TestUnifiedBound:
    def test_qubit_pair_to_bell(self):
        h = direct_optimal(2)
        s0 = ket0(h.layout)
        target = maximally_entangled(h.layout)
        rep = unified_bound(s0, target, h)
        assert_allclose(rep.angle, math.pi / 4, atol=1e-12)
        assert_allclose(rep.bound, math.pi / 4, atol=1e-12)
        assert_allclose([rep.moments.mean, rep.moments.std], [1, 1], atol=1e-12)
        assert rep.d == 2

    def test_bound_divides_by_smaller_moment(self):
        h = direct_optimal(2).scaled(2.0)
        s0 = ket0(h.layout)
        target = maximally_entangled(h.layout)
        rep = unified_bound(s0, target, h)
        # doubling the coupling halves the minimal time
        assert_allclose(rep.bound, math.pi / 8, atol=1e-12)
        # the spread binds (std = mean here): the bound is the angle over it, bit for bit
        assert rep.bound == rep.mt == rep.angle / rep.moments.std
        assert rep.ml < rep.mt

    def test_stationary_raises(self):
        # |00> is an eigenstate of Z(x)Z, so the energy spread vanishes
        lay = SystemLayout((("A", 2), ("B", 2)))
        z = np.diag([1.0, -1.0]).astype(complex)
        from medqsl.hamiltonians import Hamiltonian
        hzz = Hamiltonian(lay, np.kron(z, z))
        with pytest.raises(StationaryStateError):
            unified_bound(ket0(lay), maximally_entangled(lay), hzz)

    def test_layout_mismatch(self):
        h = direct_optimal(2)
        other = SystemLayout((("X", 2), ("Y", 2)))
        with pytest.raises(LayoutMismatchError):
            unified_bound(ket0(other), ket0(other), h)

    def test_report_dict(self):
        h = direct_optimal(2)
        rep = unified_bound(ket0(h.layout), maximally_entangled(h.layout), h)
        doc = rep.to_dict()
        assert set(doc) == {"angle", "bound", "mt", "ml", "mean_energy", "energy_std",
                            "reference_bounds", "d"}
        assert_allclose(doc["reference_bounds"]["di"], math.pi / 4, atol=1e-12)


def _alpha_reference(theta: float) -> float:
    """min over p in [(1 - cos theta)/2, 1/2] of p arccos(1 - sin^2 theta / (2p(1-p))), on a grid."""
    p = np.linspace((1 - math.cos(theta)) / 2, 0.5, 10 ** 6)[1:]
    arg = 1 - math.sin(theta) ** 2 / (2 * p * (1 - p))
    return float((p * np.arccos(np.clip(arg, -1.0, 1.0))).min())


def _mean_binding_pair():
    """H proportional to |e><e|, |e> = sqrt(p)|00> - sqrt(1-p)|11>, scaled so that |00> has E = 1.

    With p = (1 - 1/sqrt 2)/2 the spread is 1 + sqrt 2, and |00> turns
    into (|00> + |11>)/sqrt 2, an angle of pi/4, in less than pi/4.
    """
    lay = SystemLayout((("A", 2), ("B", 2)))
    p = (1 - 1 / math.sqrt(2)) / 2
    e = np.array([math.sqrt(p), 0.0, 0.0, -math.sqrt(1 - p)])
    h = Hamiltonian(lay, np.outer(e, e).astype(complex))
    s0 = DensityState.basis(lay)
    return h.scaled(energy_moments(h, s0).scale()), s0


class TestMeanEnergyBinds:
    def test_alpha(self):
        assert abs(qsl._ml_angle(math.pi / 4) - 0.41625) < 5e-6
        assert abs(qsl._ml_angle(math.pi / 4) - _alpha_reference(math.pi / 4)) < 1e-9
        assert qsl._ml_angle(math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)
        assert qsl._ml_angle(0.0) == 0.0
        for theta in np.linspace(0.05, math.pi / 2, 12):
            alpha = qsl._ml_angle(theta)
            assert alpha <= theta
            assert alpha == pytest.approx(_alpha_reference(theta), rel=1e-8, abs=1e-12)

    def test_counterexample(self):
        # the mean energy binds (E = 1 < spread = 2.414): the dynamics reach
        # the Bell state at T = 0.46008, below the angle pi/4, and the bound
        # is alpha(pi/4) = 0.41625, the mean-energy side
        h, s0 = _mean_binding_pair()
        bell = maximally_entangled(s0.layout)
        em = energy_moments(h, s0)
        assert em.mean == pytest.approx(1.0, abs=1e-12)
        assert em.std == pytest.approx(1 + math.sqrt(2), abs=1e-12)
        t = first_max_entanglement_time(h, s0, Bipartition.parse("A:B"))
        assert t == pytest.approx(0.46008, abs=1e-5)
        reached = evolve_unitary(h, s0, TimeGrid(0.0, t, t), target=bell)
        assert reached.columns["fidelity_to_target"][-1] == pytest.approx(1.0, abs=1e-9)
        rep = unified_bound(s0, bell, h)
        assert rep.bound <= t
        assert rep.bound == rep.ml
        assert abs(rep.bound - _alpha_reference(math.pi / 4)) < 1e-6
        assert rep.mt == pytest.approx(math.pi / 4 / (1 + math.sqrt(2)), abs=1e-12)

    def test_mixed_start_keeps_the_spread_side(self):
        lay = SystemLayout((("A", 2), ("B", 2)))
        s0 = DensityState(lay, random_density(4, RngStream(3, 0)))
        rep = unified_bound(s0, maximally_entangled(lay), direct_optimal(2))
        assert rep.moments.mean < rep.moments.std
        assert rep.ml is None and rep.to_dict()["ml"] is None
        assert rep.bound == rep.mt == rep.angle / rep.moments.std


class TestReferenceBounds:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_formulas(self, d):
        di = math.acos(1 / math.sqrt(d))
        assert_allclose(di_bound(d), di, atol=1e-15)
        assert_allclose(conjecture_bound(d), 2 * di, atol=1e-15)
        assert_allclose(smi_bound(d), di + math.acos(1 / d), atol=1e-15)

    def test_smi_d2_closed_form(self):
        assert_allclose(smi_bound(2), math.pi / 4 + math.pi / 3, atol=1e-12)

    def test_d1_rejected(self):
        with pytest.raises(BadDimensionError):
            di_bound(1)


class TestSwapStageFidelity:
    @pytest.mark.parametrize("d,expect", [(2, 0.5), (3, 1 / 3), (4, 0.25), (5, 0.2)])
    def test_inverse_dimension(self, d, expect):
        assert_allclose(swap_stage_fidelity(d), expect, atol=1e-12)

    def test_angle_matches_second_stage_bound(self):
        for d in (2, 3, 4):
            angle = math.acos(swap_stage_fidelity(d))
            assert_allclose(angle, math.acos(1 / d), atol=1e-12)
