import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from medqsl.errors import BadDimensionError, LayoutMismatchError, StationaryStateError
from medqsl.hamiltonians import direct_optimal
from medqsl.qsl import (
    BoundReport,
    conjecture_bound,
    di_bound,
    smi_bound,
    swap_stage_fidelity,
    unified_bound,
)
from medqsl.states import DensityState, SystemLayout, maximally_entangled


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
        assert set(doc) >= {"angle", "bound", "mean_energy", "energy_std",
                            "reference_bounds", "d"}
        assert_allclose(doc["reference_bounds"]["di"], math.pi / 4, atol=1e-12)


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
