"""Placement search: coverage study, exhaustive line search, fast heuristic."""

import math

import numpy as np
import pytest

from irsplan.channel import IrsSpec, LinkGeometry, composite_stats, nop_direct
from irsplan.geometry import (CellConfig, coverage_area_accounting,
                              validate_plan)
from irsplan.planner import (PlanInfeasibleError, SearchGrid, _coefficient_table,
                             algorithm1, coverage_range, line_search)

ETA_MIN = 10.0  # linear mean-SNR threshold for the coverage study
P_TX = 0.01    # [W]


class TestCoverageRange:
    def test_direct_closed_form(self, radio, irs):
        res = coverage_range(radio, irs, P_TX, ETA_MIN)
        assert res.r_star == pytest.approx(563.173367959328, rel=1e-10)
        assert not res.limited
        # r* solves p g_d(r) / W == eta: invert the gain law by hand
        g_needed = ETA_MIN * radio.W / P_TX
        r_hand = math.sqrt((radio.alpha0 / g_needed) ** (2.0 / radio.n0)
                           - radio.H_A ** 2)
        assert res.r_star == pytest.approx(r_hand, rel=1e-12)

    def test_direct_monotone_in_power(self, radio, irs):
        r = [coverage_range(radio, irs, p, ETA_MIN).r_star
             for p in (0.005, 0.01, 0.02)]
        assert r[0] < r[1] < r[2]

    def test_assisted_meets_threshold_at_radius(self, radio, irs):
        for l in (100.0, 300.0, 450.0):
            res = coverage_range(radio, irs, P_TX, ETA_MIN, l=l)
            st = composite_stats(radio, irs,
                                 LinkGeometry(res.r_star, l, res.r_star - l))
            assert P_TX * st.mean_Z2 / radio.W == pytest.approx(ETA_MIN, rel=1e-6)

    def test_assisted_always_extends(self, radio, irs):
        base = coverage_range(radio, irs, P_TX, ETA_MIN).r_star
        for l in (50.0, 150.0, 300.0, 500.0):
            res = coverage_range(radio, irs, P_TX, ETA_MIN, l=l)
            assert res.r_star > base

    def test_excess_dips_mid_range(self, radio, irs):
        # the assisted-over-direct margin is largest near the AP and near the
        # cell edge, with a shallow floor in between
        base = coverage_range(radio, irs, P_TX, ETA_MIN).r_star
        excess = {l: coverage_range(radio, irs, P_TX, ETA_MIN, l=l).r_star - base
                  for l in (50.0, 300.0, 550.0)}
        assert excess[300.0] < excess[50.0]
        assert excess[300.0] < excess[550.0]

    def test_zero_elements_matches_direct(self, radio):
        none = IrsSpec(0)
        base = coverage_range(radio, none, P_TX, ETA_MIN).r_star
        res = coverage_range(radio, none, P_TX, ETA_MIN, l=200.0)
        assert res.r_star == pytest.approx(base, abs=1e-4)  # bisection pitch

    def test_unreachable_threshold_flagged(self, radio, irs):
        res = coverage_range(radio, irs, 1e-30, ETA_MIN)
        assert res.limited


class TestLineSearch:
    def test_full_budget_anchor(self, plan_m100):
        plan = plan_m100.plan
        assert plan.R_in == (250.0, 225.0, 185.0, 120.0)
        assert plan.M == (10, 57, 33)
        assert plan.L == (10.0, 205.0, 152.5)
        assert plan_m100.allocation.eta0_star == pytest.approx(28.05372746237608, rel=1e-9)
        assert plan_m100.nu_bar == pytest.approx(4.617618793583888, rel=1e-9)
        assert plan.rho == pytest.approx(
            (0.12397569809205518, 0.3206221290851474,
             0.280549358444113, 0.27485281437868453), rel=1e-9)

    def test_anchor_is_valid_plan(self, cell, plan_m100):
        assert validate_plan(cell, plan_m100.plan, total_irs=100) == []
        sectors, ap, ext = coverage_area_accounting(cell, plan_m100.plan)
        assert sectors + ap + ext == pytest.approx(math.pi * cell.R_ex ** 2, rel=1e-12)
        assert ext == pytest.approx(0.0, abs=1e-9)

    def test_allocation_consistency(self, radio, plan_m100):
        alloc = plan_m100.allocation
        assert sum(plan_m100.plan.rho) == pytest.approx(1.0, rel=1e-12)
        assert alloc.R_bar == pytest.approx(math.log2(1.0 + alloc.eta0_star), rel=1e-14)
        assert plan_m100.nu_bar == pytest.approx(0.95 * alloc.R_bar, rel=1e-14)
        # diagnostics carry the region coefficients that produced eta0*
        coeffs = plan_m100.diagnostics["region_coefficients_J"]
        assert radio.E_total / sum(coeffs.values()) == pytest.approx(
            alloc.eta0_star, rel=1e-12)

    def test_ring_cap_is_upper_bound(self, cell, radio, irs):
        # a 15-surface budget prefers two rings even when three are allowed
        res = line_search(cell, radio, irs, 15, 3)
        assert res.plan.I == 2
        assert res.plan.M[0] == 10

    def test_small_budget_single_ring(self, cell, radio, irs):
        res = line_search(cell, radio, irs, 8, 3)
        assert res.plan.I == 1
        assert res.plan.M == (8,)
        # grid-quantized radius lands within one pitch of the load-cap radius
        cap_r = math.sqrt(cell.R_ex ** 2 - 8 * cell.K_irs_max / cell.ue_density / math.pi)
        assert abs(res.plan.R_in[1] - cap_r) <= SearchGrid().radius_step

    def test_infeasible_when_no_near_ap_slots(self, radio, irs):
        cell = CellConfig(M1_max=0)
        with pytest.raises(PlanInfeasibleError) as exc:
            line_search(cell, radio, irs, 10, 3)
        assert any("M1_max" in b for b in exc.value.bindings)

    def test_rejects_bad_arguments(self, cell, radio, irs):
        with pytest.raises(ValueError):
            line_search(cell, radio, irs, 0, 3)
        with pytest.raises(ValueError):
            line_search(cell, radio, irs, 10, 0)

    def test_evicted_coefficient_table_is_rebuilt(self, cell, radio, irs):
        first = _coefficient_table(cell, radio, irs, 0.95, 10.0)
        hi = len(first.radii) - 1
        ref = first.ring_vec(hi, 7, False).copy()
        # the cache is bounded: this many other grid pitches push 10 m out
        for k in range(_coefficient_table.cache_info().maxsize):
            _coefficient_table(cell, radio, irs, 0.95, 11.0 + k)
        again = _coefficient_table(cell, radio, irs, 0.95, 10.0)
        assert again is not first
        assert np.array_equal(again.ring_vec(hi, 7, False), ref)
        assert _coefficient_table(cell, radio, IrsSpec(irs.N), 0.95, 10) is again


class TestAlgorithm1:
    def test_small_budget_closed_form(self, cell, radio, irs):
        res = algorithm1(cell, radio, irs, 8, I_max=10)
        cap_r = math.sqrt(cell.R_ex ** 2 - 8 * cell.K_irs_max / cell.ue_density / math.pi)
        assert res.plan.R_in == (250.0, pytest.approx(cap_r, rel=1e-12))
        assert res.plan.M == (8,)

    def test_m15_anchor(self, plan_m15_a1):
        plan = plan_m15_a1.plan
        assert plan.R_in == pytest.approx(
            (250.0, 223.60679774997897, 209.16500663351889), rel=1e-12)
        assert plan.M == (10, 5)
        assert plan_m15_a1.nu_bar == pytest.approx(3.267767924660948, rel=1e-9)
        assert plan_m15_a1.allocation.eta0_star == pytest.approx(9.85099707761813, rel=1e-9)

    def test_outputs_validate(self, cell, radio, irs, plan_m15_a1):
        assert validate_plan(cell, plan_m15_a1.plan, total_irs=15) == []
        res = algorithm1(cell, radio, irs, 40, I_max=10)
        assert validate_plan(cell, res.plan, total_irs=40) == []

    def test_ring1_takes_all_near_ap_slots(self, cell, radio, irs):
        for M in (15, 40, 80):
            res = algorithm1(cell, radio, irs, M, I_max=10)
            assert res.plan.M[0] == cell.M1_max
            assert sum(res.plan.M) == M

    def test_depth_limit_enforced(self, cell, radio, irs):
        with pytest.raises(PlanInfeasibleError):
            algorithm1(cell, radio, irs, 15, I_max=1)

    def test_close_to_exhaustive_at_small_budgets(self, cell, radio, irs,
                                                  plan_m15_a1):
        ls = line_search(cell, radio, irs, 15, 3)
        gap = (plan_m15_a1.nu_bar - ls.nu_bar) / ls.nu_bar
        assert abs(gap) < 0.02


class TestMonotonicity:
    def test_throughput_grows_with_budget(self, cell, radio, irs, plan_m15_a1):
        nu = [plan_m15_a1.nu_bar]
        for M in (40, 80):
            nu.append(algorithm1(cell, radio, irs, M, I_max=10).nu_bar)
        assert nu[0] < nu[1] < nu[2]

    def test_assisted_beats_ap_only_baselines(self, cell, radio, plan_m100):
        from irsplan.powerctl import benchmark_cipc, benchmark_equal_power
        assert plan_m100.nu_bar > benchmark_cipc(radio, cell, 0.95).nu_bar
        assert plan_m100.nu_bar > benchmark_equal_power(radio, cell, 0.95).nu_bar


class TestSearchGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchGrid(radius_step=0.0)
        with pytest.raises(ValueError):
            SearchGrid(rho_step=1.5)
        with pytest.raises(ValueError):
            SearchGrid(I_max=0)
