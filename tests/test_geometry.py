"""Ring-partition geometry: areas, membership rules, plan validation."""

import math

import numpy as np
import pytest

from irsplan.geometry import (CellConfig, RingPlan, _wrap_to_half,
                              coverage_area_accounting, irs_distance,
                              locate_ue_arrays, make_ring_plan,
                              mean_ues_per_sector, sector_area, validate_plan)

TWO_PI = 2.0 * math.pi


@pytest.fixture
def two_ring_plan(cell):
    # handy round numbers for area/membership math (mean load is over the cap,
    # which validate_plan-focused tests avoid by using feasible_plan instead)
    return make_ring_plan(cell, (250.0, 200.0, 120.0), (9, 14))


@pytest.fixture
def feasible_plan(cell):
    return make_ring_plan(cell, (250.0, 230.0, 190.0), (10, 17))


class TestCellConfig:
    def test_density(self):
        c = CellConfig(R_ex=250.0, K=500)
        assert c.ue_density == pytest.approx(500.0 / (math.pi * 250.0 ** 2), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            CellConfig(R_ex=0.0)
        with pytest.raises(ValueError):
            CellConfig(K=0)
        with pytest.raises(ValueError):
            CellConfig(L_min=0.5)


class TestRingPlanConstruction:
    def test_circle_radii_rule(self, cell):
        plan = make_ring_plan(cell, (250.0, 200.0, 120.0, 40.0), (10, 5, 8))
        assert plan.L[0] == cell.L_min
        assert plan.L[1] == pytest.approx(0.5 * (120.0 + 200.0))
        assert plan.L[2] == pytest.approx(0.5 * (40.0 + 120.0))
        assert plan.I == 3
        assert plan.ring_bounds(2) == (120.0, 200.0)
        assert plan.sector_angle(1) == pytest.approx(TWO_PI / 10)

    def test_length_mismatch_rejected(self, cell):
        with pytest.raises(ValueError):
            make_ring_plan(cell, (250.0, 200.0), (9, 14))

    def test_sector_area_closed_form(self, two_ring_plan):
        assert sector_area(two_ring_plan, 1) == pytest.approx(
            math.pi * (250.0 ** 2 - 200.0 ** 2) / 9, rel=1e-14)
        # the ring-1 slice here is the classic quarter-hectare sector
        assert sector_area(two_ring_plan, 1) == pytest.approx(7853.98, abs=0.01)
        assert sector_area(two_ring_plan, 2) == pytest.approx(
            math.pi * (200.0 ** 2 - 120.0 ** 2) / 14, rel=1e-14)
        with pytest.raises(ValueError):
            sector_area(two_ring_plan, 3)

    def test_mean_load(self, cell, two_ring_plan):
        want = cell.ue_density * sector_area(two_ring_plan, 2)
        assert mean_ues_per_sector(cell, two_ring_plan, 2) == pytest.approx(want, rel=1e-14)

    def test_area_accounting_partitions_cell(self, cell, two_ring_plan):
        sectors, ap_disc, exterior = coverage_area_accounting(cell, two_ring_plan)
        assert sectors + ap_disc + exterior == pytest.approx(
            math.pi * cell.R_ex ** 2, rel=1e-12)
        assert exterior == pytest.approx(0.0, abs=1e-9)

    def test_area_accounting_with_exterior(self, cell):
        plan = make_ring_plan(cell, (220.0, 150.0), (6,))
        sectors, ap_disc, exterior = coverage_area_accounting(cell, plan)
        assert exterior == pytest.approx(math.pi * (250.0 ** 2 - 220.0 ** 2), rel=1e-12)
        assert sectors + ap_disc + exterior == pytest.approx(
            math.pi * cell.R_ex ** 2, rel=1e-12)


class TestMembership:
    def test_regions_by_radius(self, cell, two_ring_plan):
        ring, sector, l, d = locate_ue_arrays(cell, two_ring_plan, [60.0, 160.0, 230.0],
                                              [1.0, 1.0, 1.0])
        assert ring.tolist() == [0, 2, 1]
        # AP-only UEs carry no sector and no link geometry
        assert sector[0] == -1 and np.isnan(l[0]) and np.isnan(d[0])

    def test_boundary_ties_go_outward(self, cell, two_ring_plan):
        # shared boundary radius belongs to the outer ring; the innermost ring
        # keeps its own inner edge; the cell edge stays in ring 1
        ring, *_ = locate_ue_arrays(cell, two_ring_plan,
                                    [200.0, 120.0, 250.0, 119.999], [0.3] * 4)
        assert ring.tolist() == [1, 2, 1, 0]

    def test_exterior_is_ap(self, cell):
        plan = make_ring_plan(cell, (220.0, 150.0), (6,))
        ring, *_ = locate_ue_arrays(cell, plan, [240.0, 220.0], [0.5, 0.5])
        assert ring.tolist() == [0, 1]

    def test_outside_cell_rejected(self, cell, two_ring_plan):
        with pytest.raises(ValueError):
            locate_ue_arrays(cell, two_ring_plan, [251.0], [0.0])

    def test_sector_indexing(self, cell, two_ring_plan):
        phi = TWO_PI / 9
        # sector centre, just below 2 pi, and the same azimuth a turn apart
        _, sector, _, _ = locate_ue_arrays(cell, two_ring_plan, [230.0] * 4,
                                           [0.5 * phi, TWO_PI - 1e-9, 1.0, 1.0 + TWO_PI])
        assert sector[0] == 0
        assert sector[1] == 8
        assert sector[2] == sector[3]

    def test_distance_against_cartesian_oracle(self, cell, two_ring_plan, rng):
        r = rng.uniform(120.0, 250.0, size=300)
        az = rng.uniform(0.0, TWO_PI, size=300)
        ring, sector, l, d = locate_ue_arrays(cell, two_ring_plan, r, az)
        assert (ring > 0).all()
        L = np.array(two_ring_plan.L)[ring - 1]
        # the sector's IRS sits at its angular centre (sector + 0.5) * phi
        c = (sector + 0.5) * TWO_PI / np.array(two_ring_plan.M)[ring - 1]
        gap = np.hypot(r * np.cos(az) - L * np.cos(c), r * np.sin(az) - L * np.sin(c))
        assert np.array_equal(l, L)
        np.testing.assert_allclose(d, gap, rtol=1e-12, atol=1e-9)

    def test_irs_distance(self, cell, two_ring_plan, rng):
        # a UE on the surface: at L = 141.73 rounding pushes the law of
        # cosines to -7e-12, which the clamp turns into 0 (not NaN)
        assert irs_distance(141.73, 141.73, 0.0) == 0.0
        assert irs_distance(17.3, 17.3, 0.0) == 0.0
        r = cell.R_ex * np.sqrt(rng.uniform(size=500))
        az = rng.uniform(0.0, TWO_PI, size=500)
        ring, sector, l, d = locate_ue_arrays(cell, two_ring_plan, r, az)
        at = ring > 0
        phi = TWO_PI / np.array(two_ring_plan.M)[ring[at] - 1]
        dphi = _wrap_to_half(az[at] - (sector[at] + 0.5) * phi)
        assert np.array_equal(irs_distance(r[at], l[at], dphi), d[at])

    def test_zero_ring_plan_is_all_ap(self, cell):
        plan = RingPlan(R_in=(250.0,), M=(), L=())
        ring, _, _, _ = locate_ue_arrays(cell, plan, np.array([5.0, 100.0, 249.0]),
                                         np.array([0.0, 1.0, 3.0]))
        assert (ring == 0).all()


class TestValidatePlan:
    def test_feasible_plan_is_clean(self, cell, feasible_plan):
        assert validate_plan(cell, feasible_plan, total_irs=27) == []
        # the round-number plan trips exactly the load cap and nothing else
        assert {v.code for v in validate_plan(cell, make_ring_plan(
            cell, (250.0, 200.0, 120.0), (9, 14)))} == {"sector-load"}

    def _codes(self, violations):
        return {v.code for v in violations}

    def test_violation_codes(self, cell):
        v = validate_plan(cell, make_ring_plan(cell, (260.0, 120.0), (5,)))
        assert "radii-range" in self._codes(v)

        v = validate_plan(cell, RingPlan((250.0, 200.0, 210.0), (5, 5), (10.0, 205.0)))
        assert "radii-order" in self._codes(v)

        v = validate_plan(cell, make_ring_plan(cell, (250.0, 200.0), (11,)))
        assert "near-ap-slots" in self._codes(v)

        v = validate_plan(cell, RingPlan((250.0, 200.0), (0,), (10.0,)))
        assert "ring-count" in self._codes(v)

        v = validate_plan(cell, make_ring_plan(cell, (250.0, 200.0), (9,)), total_irs=10)
        assert "irs-budget" in self._codes(v)

        v = validate_plan(cell, RingPlan((250.0, 120.0, 40.0), (9, 5), (10.0, 99.0)))
        assert "irs-circle" in self._codes(v)

        # one giant sector over most of the cell blows the mean-load cap
        v = validate_plan(cell, make_ring_plan(cell, (250.0, 50.0), (1,)))
        assert "sector-load" in self._codes(v)

    def test_power_ratio_checks(self, cell):
        plan = make_ring_plan(cell, (250.0, 230.0, 190.0), (10, 17))
        assert "power-sum" in self._codes(validate_plan(cell, plan, rho=(0.5, 0.3, 0.3)))
        assert "power-sign" in self._codes(validate_plan(cell, plan, rho=(0.5, 0.6, -0.1)))
        assert validate_plan(cell, plan, rho=(0.2, 0.3, 0.5)) == []

    def test_violation_detail_is_quantitative(self, cell):
        v = validate_plan(cell, make_ring_plan(cell, (250.0, 200.0), (11,)))
        slot = [x for x in v if x.code == "near-ap-slots"][0]
        assert slot.detail == "M_1=11 exceeds M1_max=10"
