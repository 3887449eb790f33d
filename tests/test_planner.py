"""Placement search: coverage study, exact line search, fast heuristic."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from irsplan.channel import IrsSpec, LinkGeometry, composite_stats, nop_direct
from irsplan.geometry import (CellConfig, coverage_area_accounting,
                              make_ring_plan, validate_plan)
from irsplan.planner import (PlanInfeasibleError, SearchGrid,
                             _coefficient_table, _RingCoefficientTable,
                             algorithm1, coverage_range, line_search)
from irsplan.powerctl import ap_region_coefficient

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


def brute_force_plan(cell, table, M, I, search_r0):
    """Every (boundary index tuple, split) on the grid, by itertools.

    Applies the documented rule: least summed coefficient; within 1e-9
    relative of it the smallest R_in[1]; then the lower cost.  None when
    the load cap and slot limit exclude every split.
    """
    radii, c0 = table.radii, table.c0_grid
    n = len(radii)
    tops = range(1, n) if search_r0 else [n - 1]
    found = []  # (cost, R_in[1] index, boundary indices, split)
    for rings in range(1, min(I, M) + 1):
        for r0 in tops:
            for inner in itertools.combinations(range(r0 - 1, -1, -1), rings):
                idx = (r0,) + inner
                for cuts in itertools.combinations(range(1, M), rings - 1):
                    split = [b - a for a, b in zip((0,) + cuts, cuts + (M,))]
                    if split[0] > cell.M1_max:
                        continue
                    cost = c0[n - 1] - c0[r0]
                    for ring, m in enumerate(split):
                        hi, lo = idx[ring], idx[ring + 1]
                        if radii[hi] ** 2 - radii[lo] ** 2 > table.max_span2(m) * (1 + 1e-12):
                            break
                        cost += table.ring_vec(hi, m, ring == 0)[lo]
                    else:
                        found.append((cost + c0[idx[-1]], idx[1], idx, split))
    if not found:
        return None
    c_min = min(f[0] for f in found)
    near = [f for f in found if f[0] - c_min <= 1e-9 * c_min]
    _, _, idx, split = min(near, key=lambda f: (f[1], f[0]))
    return make_ring_plan(cell, [radii[k] for k in idx], split)


class TestExactSearch:
    """The dynamic program against exhaustive enumeration on a coarse grid."""

    STEP = 25.0

    # the default cell, and one whose looser load cap and fewer near-AP
    # slots let three rings fit on the coarse grid
    @pytest.mark.parametrize("cell_args", [{}, {"K_irs_max": 40.0, "M1_max": 4}])
    @pytest.mark.parametrize("search_r0", [False, True])
    @pytest.mark.parametrize("I", [1, 2, 3])
    def test_matches_brute_force(self, radio, irs, cell_args, I, search_r0):
        cell = CellConfig(**cell_args)
        table = _coefficient_table(cell, radio, irs, 0.95, self.STEP)
        grid = SearchGrid(radius_step=self.STEP, R_in0_search=search_r0)
        for M in (1, 4, 5, 9, 10, 11, 13, 18, 25):
            want = brute_force_plan(cell, table, M, I, search_r0)
            if want is None:
                with pytest.raises(PlanInfeasibleError):
                    line_search(cell, radio, irs, M, I, grid=grid)
            else:
                res = line_search(cell, radio, irs, M, I, grid=grid)
                assert replace(res.plan, rho=None) == want, (M, I, search_r0)

    def test_exact_ties_prefer_the_smallest_r1(self, cell, radio, irs, monkeypatch):
        # every ring costs the same and the AP disc is free, so all one-ring
        # plans tie: the innermost R_in[1] the load cap allows must win
        import irsplan.planner
        table = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0)
        table.c0_grid = np.zeros_like(table.c0_grid)
        table.ring_vec = lambda hi_idx, m, near_ap: np.where(
            np.arange(hi_idx) >= table.lo_min(hi_idx, m), 1.0, np.inf)
        monkeypatch.setattr(irsplan.planner, "_coefficient_table", lambda *args: table)
        res = line_search(cell, radio, irs, 10, 1)
        top = len(table.radii) - 1
        assert table.lo_min(top, 10) < top - 1  # several candidates tie
        assert res.plan.R_in == (250.0, table.radii[table.lo_min(top, 10)])

    @pytest.mark.parametrize("step", [5.0, 10.0, 12.5, 25.0])
    def test_c0_grid_is_the_ap_closed_form(self, cell, radio, irs, step):
        table = _coefficient_table(cell, radio, irs, 0.95, step)
        want = [ap_region_coefficient(radio, cell, 0.95, R).C for R in table.radii]
        assert np.array_equal(table.c0_grid, want)

    def test_ring_rows_outside_load_cap_are_inf(self, cell, radio, irs):
        table = _coefficient_table(cell, radio, irs, 0.95, 10.0)
        every_lo = _RingCoefficientTable(cell, radio, irs, 0.95, 10.0)
        every_lo.lo_min = lambda hi_idx, m: 0
        r2 = table.radii ** 2
        for hi in (1, 7, 18, 25):
            for m in (1, 3, 10, 40):
                for near_ap in (False, True):
                    got = table.ring_vec(hi, m, near_ap)
                    full = every_lo.ring_vec(hi, m, near_ap)
                    inside = r2[hi] - r2[:hi] <= table.max_span2(m) * (1 + 1e-12)
                    assert np.isfinite(full).all()
                    assert np.isinf(got[~inside]).all() and (got[~inside] > 0).all()
                    assert np.array_equal(got[inside], full[inside])


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
