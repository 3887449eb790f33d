"""Ring-partition geometry: areas, membership rules, plan validation."""

import math

import numpy as np
import pytest

from irsplan.geometry import (CellConfig, RingPlan, _wrap_to_half,
                              coverage_area_accounting, irs_distance, locate_ue,
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
        assert locate_ue(cell, two_ring_plan, 60.0, 1.0).region == "ap"
        assert locate_ue(cell, two_ring_plan, 160.0, 1.0).ring == 2
        assert locate_ue(cell, two_ring_plan, 230.0, 1.0).ring == 1

    def test_boundary_ties_go_outward(self, cell, two_ring_plan):
        # shared boundary radius belongs to the outer ring; the innermost ring
        # keeps its own inner edge; the cell edge stays in ring 1
        assert locate_ue(cell, two_ring_plan, 200.0, 0.3).ring == 1
        assert locate_ue(cell, two_ring_plan, 120.0, 0.3).ring == 2
        assert locate_ue(cell, two_ring_plan, 250.0, 0.3).ring == 1
        assert locate_ue(cell, two_ring_plan, 119.999, 0.3).region == "ap"

    def test_exterior_is_ap(self, cell):
        plan = make_ring_plan(cell, (220.0, 150.0), (6,))
        assert locate_ue(cell, plan, 240.0, 0.5).region == "ap"
        assert locate_ue(cell, plan, 220.0, 0.5).ring == 1

    def test_outside_cell_rejected(self, cell, two_ring_plan):
        with pytest.raises(ValueError):
            locate_ue(cell, two_ring_plan, 251.0, 0.0)

    def test_sector_indexing(self, cell, two_ring_plan):
        phi = TWO_PI / 9
        loc = locate_ue(cell, two_ring_plan, 230.0, 0.5 * phi)
        assert loc.sector == 0
        assert loc.assignment.irs_azimuth == pytest.approx(0.5 * phi)
        assert loc.assignment.span == pytest.approx(phi)
        assert locate_ue(cell, two_ring_plan, 230.0, TWO_PI - 1e-9).sector == 8
        # azimuth wraps modulo 2 pi
        a = locate_ue(cell, two_ring_plan, 230.0, 1.0)
        b = locate_ue(cell, two_ring_plan, 230.0, 1.0 + TWO_PI)
        assert a.sector == b.sector

    def test_distance_against_cartesian_oracle(self, cell, two_ring_plan, rng):
        for _ in range(300):
            r = float(rng.uniform(120.0, 250.0))
            az = float(rng.uniform(0.0, TWO_PI))
            loc = locate_ue(cell, two_ring_plan, r, az)
            assert loc.region == "irs"
            L = two_ring_plan.L[loc.ring - 1]
            c = loc.assignment.irs_azimuth
            ue = np.array([r * math.cos(az), r * math.sin(az)])
            irs_xy = np.array([L * math.cos(c), L * math.sin(c)])
            assert loc.geom.d == pytest.approx(float(np.linalg.norm(ue - irs_xy)),
                                               rel=1e-12, abs=1e-9)
            assert loc.geom.l == L
            assert loc.geom.r == r

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

    def test_array_form_matches_scalar(self, cell, two_ring_plan, rng):
        n = 2000
        r = cell.R_ex * np.sqrt(rng.uniform(size=n))
        az = rng.uniform(0.0, TWO_PI, size=n)
        ring, sector, l, d = locate_ue_arrays(cell, two_ring_plan, r, az)
        idx = rng.choice(n, size=120, replace=False)
        for j in idx:
            loc = locate_ue(cell, two_ring_plan, r[j], az[j])
            if loc.region == "ap":
                assert ring[j] == 0
                assert np.isnan(l[j]) and np.isnan(d[j])
            else:
                assert ring[j] == loc.ring
                assert sector[j] == loc.sector
                assert l[j] == pytest.approx(loc.geom.l, rel=1e-14)
                assert d[j] == pytest.approx(loc.geom.d, rel=1e-12)

    def test_zero_ring_plan_is_all_ap(self, cell):
        plan = RingPlan(R_in=(250.0,), M=(), L=())
        assert locate_ue(cell, plan, 100.0, 1.0).region == "ap"
        ring, _, _, _ = locate_ue_arrays(cell, plan, np.array([5.0, 249.0]),
                                         np.array([0.0, 3.0]))
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
        plan = make_ring_plan(cell, (250.0, 230.0, 190.0), (10, 17),
                              rho=(0.5, 0.3, 0.3))
        assert "power-sum" in self._codes(validate_plan(cell, plan))
        plan = make_ring_plan(cell, (250.0, 230.0, 190.0), (10, 17),
                              rho=(0.5, 0.6, -0.1))
        assert "power-sign" in self._codes(validate_plan(cell, plan))
        plan = make_ring_plan(cell, (250.0, 230.0, 190.0), (10, 17),
                              rho=(0.2, 0.3, 0.5))
        assert validate_plan(cell, plan) == []

    def test_slack_is_quantitative(self, cell):
        v = validate_plan(cell, make_ring_plan(cell, (250.0, 200.0), (11,)))
        slot = [x for x in v if x.code == "near-ap-slots"][0]
        assert slot.slack == pytest.approx(1.0)
