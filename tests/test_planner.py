"""Placement search: coverage study, exact line search, fast heuristic."""

import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from irsplan.channel import IrsSpec, LinkGeometry, _power_factor_table, composite_stats
from irsplan.geometry import (CellConfig, coverage_area_accounting,
                              make_ring_plan, validate_plan)
from irsplan.planner import (PlanInfeasibleError, SearchGrid, _RingCoefficientTable,
                             algorithm1, coverage_range, line_search,
                             line_search_budgets)
from irsplan.powerctl import RING_TABLE_STATS, ap_region_coefficient

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
        assert plan_m100.allocation.rho == pytest.approx(
            (0.12397569809205518, 0.3206221290851474,
             0.280549358444113, 0.27485281437868453), rel=1e-9)

    def test_anchor_is_valid_plan(self, cell, plan_m100):
        assert validate_plan(cell, plan_m100.plan, total_irs=100) == []
        sectors, ap, ext = coverage_area_accounting(cell, plan_m100.plan)
        assert sectors + ap + ext == pytest.approx(math.pi * cell.R_ex ** 2, rel=1e-12)
        assert ext == pytest.approx(0.0, abs=1e-9)

    def test_allocation_consistency(self, radio, plan_m100):
        alloc = plan_m100.allocation
        assert sum(alloc.rho) == pytest.approx(1.0, rel=1e-12)
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

    def test_search_keeps_no_table(self, cell, radio, irs, monkeypatch):
        # each search builds its own table and drops it when it returns
        import irsplan.planner
        program, tables = irsplan.planner._ring_program, []

        def spy(table, *args):
            tables.append(weakref.ref(table))
            return program(table, *args)

        monkeypatch.setattr(irsplan.planner, "_ring_program", spy)
        line_search(cell, radio, irs, 20, 2, grid=SearchGrid(radius_step=10.0))
        gc.collect()
        assert tables and all(ref() is None for ref in tables)


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
                        span2 = radii[hi] ** 2 - radii[lo] ** 2
                        if span2 > cell.K_irs_max * m / (cell.ue_density * math.pi) * (1 + 1e-12):
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
        table = _RingCoefficientTable(cell, radio, irs, 0.95, self.STEP, 25, I)
        grid = SearchGrid(radius_step=self.STEP, R_in0_search=search_r0)
        for M in (1, 4, 5, 9, 10, 11, 13, 18, 25):
            want = brute_force_plan(cell, table, M, I, search_r0)
            if want is None:
                with pytest.raises(PlanInfeasibleError):
                    line_search(cell, radio, irs, M, I, grid=grid)
            else:
                res = line_search(cell, radio, irs, M, I, grid=grid)
                assert res.plan == want, (M, I, search_r0)

    def test_program_depth_is_capped_by_the_grid(self, cell, radio, irs, monkeypatch):
        # no plan on n radii closes more than n - 1 rings, so an I far above
        # the grid sizes V by the grid and finds the plan of a grid-sized I
        import irsplan.planner
        n = len(_RingCoefficientTable(cell, radio, irs, 0.95, self.STEP, 1, 1).radii)
        program, depths = irsplan.planner._ring_program, []

        def spy(*args):
            V, found = program(*args)
            depths.append(V.shape[0])
            return V, found

        monkeypatch.setattr(irsplan.planner, "_ring_program", spy)
        grid = SearchGrid(radius_step=self.STEP)
        got = line_search(cell, radio, irs, 60, 1000, grid=grid)
        assert depths and max(depths) <= n - 1
        want = line_search(cell, radio, irs, 60, n - 2, grid=grid)
        assert got.plan == want.plan
        assert got.allocation == want.allocation

    def test_exact_ties_prefer_the_smallest_r1(self, cell, radio, irs, monkeypatch):
        # every ring costs the same and the AP disc is free, so all one-ring
        # plans tie: the innermost R_in[1] the load cap allows must win
        import irsplan.planner
        table = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 10, 1)
        table.c0_grid = np.zeros_like(table.c0_grid)
        table.ring_vec = lambda hi_idx, m, near_ap: np.where(
            np.arange(hi_idx) >= table.lo_min[hi_idx, m], 1.0, np.inf)
        monkeypatch.setattr(irsplan.planner, "_RingCoefficientTable", lambda *args: table)
        res = line_search(cell, radio, irs, 10, 1)
        top = len(table.radii) - 1
        assert table.lo_min[top, 10] < top - 1  # several candidates tie
        assert res.plan.R_in == (250.0, table.radii[table.lo_min[top, 10]])

    @pytest.mark.parametrize("cell_args", [{}, {"K_irs_max": 40.0, "M1_max": 4}])
    def test_search_and_checker_admit_the_same_rings(self, radio, irs, cell_args):
        # one load-cap rule: a ring [radii[lo], radii[hi]] with m surfaces lies
        # in the table's window exactly when validate_plan finds it within the cap
        cell = CellConfig(**cell_args)
        for step in (5.0, 7.0, 10.0, 25.0):
            table = _RingCoefficientTable(cell, radio, irs, 0.95, step, 60, 1)
            radii = table.radii
            for lo, hi in itertools.combinations(range(len(radii)), 2):
                for m in range(1, 61):
                    plan = make_ring_plan(cell, [radii[hi], radii[lo]], [m])
                    within = all(v.code != "sector-load" for v in validate_plan(cell, plan))
                    assert (lo >= table.lo_min[hi, m]) == within, (step, lo, hi, m)

    @pytest.mark.parametrize("step", [5.0, 10.0, 12.5, 25.0])
    def test_c0_grid_is_the_ap_closed_form(self, cell, radio, irs, step):
        table = _RingCoefficientTable(cell, radio, irs, 0.95, step, 1, 1)
        want = [ap_region_coefficient(radio, cell, 0.95, R) for R in table.radii]
        assert np.array_equal(table.c0_grid, want)

    def test_ring_rows_outside_load_cap_are_inf(self, cell, radio, irs):
        table = _RingCoefficientTable(cell, radio, irs, 0.95, 10.0, 40, 1)
        every_lo = _RingCoefficientTable(cell, radio, irs, 0.95, 10.0, 40, 1)
        every_lo.lo_min = np.zeros_like(every_lo.lo_min)
        r2 = table.radii ** 2
        for hi in (1, 7, 18, 25):
            for m in (1, 3, 10, 40):
                for near_ap in (False, True):
                    got = table.ring_vec(hi, m, near_ap)
                    full = every_lo.ring_vec(hi, m, near_ap)
                    cap = cell.K_irs_max * m / (cell.ue_density * math.pi) * (1 + 1e-12)
                    inside = r2[hi] - r2[:hi] <= cap
                    assert np.isfinite(full).all()
                    assert np.isinf(got[~inside]).all() and (got[~inside] > 0).all()
                    assert np.array_equal(got[inside], full[inside])

    @pytest.mark.parametrize("step,M", [(5.0, 100), (7.0, 77), (10.0, 60), (25.0, 25)])
    def test_candidate_rows_count_the_load_cap_window(self, cell, radio, irs, monkeypatch,
                                                       step, M):
        # the closed-form count is the load-cap window summed over every key,
        # so it bounds the rows a search fills; a DP layer meets each row of
        # key (hi, m) at the M + 1 - m surface counts j <= M - m below it
        import irsplan.planner
        table = _RingCoefficientTable(cell, radio, irs, 0.95, step, M, 3)
        windows = [(int(hi - table.lo_min[hi, m]), m)
                   for hi in range(len(table.radii)) for m in range(1, M + 1)]
        rows = sum(w for w, _ in windows)
        assert table.candidate_work(M) == (rows, sum(w * (M + 1 - m) for w, m in windows))
        monkeypatch.setattr(irsplan.planner, "_RingCoefficientTable", lambda *args: table)
        line_search(cell, radio, irs, M, 3, grid=SearchGrid(radius_step=step))
        filled = sum(np.isfinite(v).sum() for k, v in table._cache.items() if not k[2])
        assert 0 < filled <= rows

    @pytest.mark.parametrize("step,M,I,ops,refused", [
        (5.0, 100, 3, 13722066, False),            # the default sweep
        (5.0, 300, 300, 2570676100, False),        # 8.9 s of DP
        (5.0, 3000, 3, 17026115316, False),        # 20 s
        (5.0, 3000, 5, 28376858860, True),         # 49 s
        (5.0, 1000, 1000, 30848838600, True),      # 55 s
        (25.0, 30000, 3, 74157119898, True)])      # 93.5 s
    def test_operation_bound_covers_the_program(self, cell, radio, irs, step, M, I, ops,
                                                refused):
        # the bound counts the element operations of the program's moves,
        # and it is at least the cells of V, so it bounds memory too
        import irsplan.planner
        table = _RingCoefficientTable(cell, radio, irs, 0.95, step, 1, 1)
        n = len(table.radii)
        depth = min(I, M, n - 1)
        got = depth * table.candidate_work(M)[1]
        assert got == ops
        assert got >= depth * n * (M + 1)
        assert (got > irsplan.planner.MAX_DP_OPERATIONS) == refused


class TestBatchedFill:
    """One batched fill gives the bits of key-by-key fills."""

    def test_batch_independence(self, cell, radio, irs):
        keys = [(hi, m, False) for hi in range(20, 51) for m in (3, 9, 27, 81)]
        keys += [(50, m, True) for m in range(1, 11)] + [(44, 3, True)]
        one = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 81, 1)
        for key in keys:
            one.fill([key])
        batch = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 81, 1)
        batch.fill(keys)
        shuffled = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 81, 1)
        shuffled.fill(keys[::-7] + keys)
        rows = sum(hi - int(one.lo_min[hi, m]) for hi, m, _ in keys)
        # several chunks, with keys straddling their edges
        assert rows > 2 * one.CHUNK_ROWS and rows % one.CHUNK_ROWS
        for key in keys:
            assert np.array_equal(batch.ring_vec(*key), one.ring_vec(*key)), key
            assert np.array_equal(shuffled.ring_vec(*key), one.ring_vec(*key)), key

    def test_halved_batches_give_the_same_bits(self, cell, radio, irs):
        # a batch over FILL_ROWS rows is halved until each part fits; the
        # parts fill the same rows, with the same bits and counters
        keys = [(hi, m, near_ap) for hi in range(30, 51) for m in (4, 12, 36)
                for near_ap in (False, True)]
        whole = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 36, 1)
        whole.fill(keys)
        halved = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 36, 1)
        halved.FILL_ROWS = 150
        rows = RING_TABLE_STATS.rows
        halved.fill(keys)
        assert RING_TABLE_STATS.rows - rows == sum(hi - halved.lo_min[hi, m] for hi, m, _ in keys)
        assert RING_TABLE_STATS.rows - rows > 8 * halved.FILL_ROWS
        for key in keys:
            assert np.array_equal(halved.ring_vec(*key), whole.ring_vec(*key)), key

    def test_line_search_memory_is_bounded(self, cell, radio, irs):
        # the fill's working set is one run of FILL_ROWS rows (about 5.5 MB),
        # not one DP layer: layer 1 here fills 185,633 rows, about 16 MB of
        # row arrays at once (the one-off power-factor table is built first:
        # it is not the fill's)
        _power_factor_table(irs.N, 0.95)
        tracemalloc.start()
        try:
            line_search(cell, radio, irs, 200, 3, grid=SearchGrid(radius_step=5.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20


class TestMultiBudget:
    """One dynamic program for many budgets gives every budget's own plan."""

    # M = 1..3 cannot close a ring on the 10 m grid under R_in[0] = R_ex, and
    # one ring holds at most M1_max = 10 surfaces
    @pytest.mark.parametrize("I,search_r0,n_infeasible", [(3, False, 3), (1, False, 53),
                                                          (2, True, 0)])
    def test_every_budget_matches_its_own_run(self, cell, radio, irs, I, search_r0,
                                              n_infeasible):
        grid = SearchGrid(radius_step=10.0, R_in0_search=search_r0)
        own, infeasible = {}, {}
        for M in range(1, 61):
            try:
                own[M] = line_search(cell, radio, irs, M, I, grid=grid)
            except PlanInfeasibleError as exc:
                infeasible[M] = str(exc)
        assert len(infeasible) == n_infeasible
        plans = line_search_budgets(cell, radio, irs, own, I, grid=grid)
        assert sorted(plans) == sorted(own)
        for M, got in plans.items():
            want = own[M]
            assert got.plan.R_in == want.plan.R_in, M
            assert got.plan.M == want.plan.M, M
            assert got.nu_bar == want.nu_bar, M
            assert (got.diagnostics["region_coefficients_J"]
                    == want.diagnostics["region_coefficients_J"]), M
        # a range with infeasible budgets raises its smallest one's refusal
        for first in (1, min(own)):
            bad = [M for M in infeasible if M >= first]
            if bad:
                with pytest.raises(PlanInfeasibleError) as exc:
                    line_search_budgets(cell, radio, irs, range(first, 61), I, grid=grid)
                assert str(exc.value) == infeasible[bad[0]], first

    def test_rejects_bad_budgets(self, cell, radio, irs):
        for budgets in ([], [0, 5], [5, -1]):
            with pytest.raises(ValueError):
                line_search_budgets(cell, radio, irs, budgets, 3)


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
        with pytest.raises(PlanInfeasibleError, match="I_max=1 forbids deeper rings"):
            algorithm1(cell, radio, irs, 15, I_max=1)
        # ring 1 alone needs no deeper ring
        assert algorithm1(cell, radio, irs, 10, I_max=1).diagnostics["I_candidates"] == [1]
        with pytest.raises(ValueError):
            algorithm1(cell, radio, irs, 10, I_max=0)

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

    @pytest.mark.parametrize("step", [3.0, 5.0, 6.0, 7.0, 40.0, 300.0])
    def test_radius_grid_rises_to_the_cell_edge(self, cell, radio, irs, step):
        # a remainder above half a step once put a point past R_ex before it
        # (..., 252, 250 at step 6), and m_min needs the grid increasing
        radii = _RingCoefficientTable(cell, radio, irs, 0.95, step, 1, 1).radii
        assert radii[0] == 0.0 and radii[-1] == cell.R_ex
        assert np.all(np.diff(radii) > 0.0)
