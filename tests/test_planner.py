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
                              make_ring_plan, surface_circle, validate_plan)
from irsplan.planner import (PlanInfeasibleError, SearchGrid, _RingCoefficientTable,
                             algorithm1, coverage_range, line_search,
                             line_search_budgets)
from irsplan.powerctl import (RING_TABLE_STATS, SECTOR_NODES, _graded_edges,
                              _sector_integrals, ap_region_coefficient, ring_coefficients)

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
    """Each ring is integrated once for all of its m, and a key's bits do not
    depend on the batch it is filled in."""

    KEYS = ([(hi, m, False) for hi in range(20, 51) for m in (3, 9, 27, 64, 65, 81)]
            + [(50, m, True) for m in range(1, 11)] + [(44, 3, True)])

    def test_batch_independence(self, cell, radio, irs):
        keys = self.KEYS
        one = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 81, 1)
        for key in keys:
            one.fill([key])
        batch = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 81, 1)
        rings = RING_TABLE_STATS.rings
        batch.fill(keys)
        # one integration per ring (lo, hi, near_ap) some key's window holds
        assert RING_TABLE_STATS.rings - rings == len(
            {(lo, hi, a) for hi, m, a in keys for lo in range(batch.lo_min[hi, m], hi)})
        shuffled = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 81, 1)
        shuffled.fill(keys[::-7] + keys)
        for key in keys:
            assert np.array_equal(batch.ring_vec(*key), one.ring_vec(*key)), key
            assert np.array_equal(shuffled.ring_vec(*key), one.ring_vec(*key)), key

    def test_batch_bounds_do_not_move_bits(self, cell, radio, irs, monkeypatch):
        # one ring a batch and one ring an integrand call give the bits of
        # the default bounds
        import irsplan.powerctl
        whole = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 81, 1)
        whole.fill(self.KEYS)
        small = _RingCoefficientTable(cell, radio, irs, 0.95, 5.0, 81, 1)
        small.BATCH_POINTS = 1
        monkeypatch.setattr(irsplan.powerctl, "SCREEN_CHUNK_POINTS", 1)
        small.fill(self.KEYS)
        for key in self.KEYS:
            assert np.array_equal(small.ring_vec(*key), whole.ring_vec(*key)), key

    def test_line_search_memory_is_bounded(self, cell, radio, irs):
        # a fill holds its keys' vectors, a few arrays per ring and one
        # batch of rings at a time, not one DP layer's reads: layer 1 here
        # reads 185,633 rows (the one-off power-factor table is built first:
        # it is not the fill's)
        _power_factor_table(irs.N, 0.95)
        tracemalloc.start()
        try:
            line_search(cell, radio, irs, 200, 3, grid=SearchGrid(radius_step=5.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20


def _sweep_table(cell, radio, irs, budgets, monkeypatch, **grid):
    """The ring table of one line_search_budgets call, kept after it returns."""
    import irsplan.planner
    tables = []

    class Kept(_RingCoefficientTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(irsplan.planner, "_RingCoefficientTable", Kept)
    line_search_budgets(cell, radio, irs, budgets, 3, grid=SearchGrid(**grid))
    return tables[0]


# line-search placements (budget:R_in/M) of the one-panel 16 x 16 screen that the
# shared-azimuth screen replaced: every pick is unchanged
PINNED_PLACEMENTS = {
    "default-sweep": (
        "10:250,225/10 20:250,230,195/8,12 30:250,225,165/10,20 40:250,225,170,125/10,19,11 "
        "50:250,225,175,115/10,26,14 60:250,225,180,110/10,33,17 70:250,225,185,115/10,39,21 "
        "80:250,225,185,115/10,45,25 90:250,225,185,120/10,51,29 100:250,225,185,120/10,57,33"),
    "r0-10m-I2": (
        "7:220,200/7 14:250,230,220/8,6 21:250,230,200/8,13 28:250,230,170/8,20 "
        "35:250,230,150/8,27 42:250,230,150/8,34 49:250,230,160/8,41 56:250,230,160/8,48 "
        "63:250,230,160/8,55 70:250,230,160/8,62 77:250,230,160/8,69 84:250,230,160/8,76 "
        "91:250,230,160/8,83 98:250,230,160/8,90 105:250,230,160/8,97 112:250,230,160/8,104 "
        "119:250,230,160/8,111"),
    "k40m4-10m-I3": (
        "10:250,210,120/4,6 20:250,210,130/4,16 30:250,210,150,0/4,21,5 "
        "40:250,210,160,90/4,26,10 50:250,210,170,100/4,31,15 60:250,210,170,100/4,37,19 "
        "70:250,210,170,110/4,42,24 80:250,210,170,110/4,49,27 90:250,210,170,110/4,55,31 "
        "100:250,210,170,110/4,61,35"),
    "5m-I4": (
        "8:250,230/8 16:250,225,210/10,6 24:250,225,185/10,14 32:250,225,155/10,22 "
        "40:250,225,170,125/10,19,11 48:250,225,175,115/10,24,14 56:250,225,180,115/10,30,16 "
        "64:250,225,185,130,85/10,29,17,8 72:250,225,185,140,85/10,33,19,10 "
        "80:250,225,190,145,80/10,35,23,12 88:250,225,190,150,85/10,39,26,13 "
        "96:250,225,190,150,85/10,43,29,14 104:250,225,195,155,90/10,45,33,16 "
        "112:250,225,195,155,90/10,49,35,18 120:250,225,195,155,95/10,52,38,20"),
    "r0-25m-I3": (
        "1:25,0/1 2:50,0/2 3:75,50/3 4:100,75/4 5:125,100/5 6:150,125/6 7:175,150/7 "
        "8:200,175/8 9:225,200/9 10:250,225/10 11:150,125,100/6,5 12:150,125,100/6,6 "
        "13:175,150,125/7,6 14:175,150,125/7,7 15:200,175,150/8,7 16:200,175,150/8,8 "
        "17:225,200,175/9,8 18:225,200,175/9,9 19:250,225,200/10,9 20:250,225,200/10,10 "
        "21:250,225,200/10,11 22:250,225,200/10,12 23:250,225,200/10,13 24:250,225,200/10,14 "
        "25:250,225,200/10,15 26:250,225,175/10,16 27:250,225,175/10,17 28:250,225,175/10,18 "
        "29:250,225,175/10,19 30:250,225,175/10,20 31:250,225,175/10,21 32:250,225,175/10,22 "
        "33:250,225,150/10,23 34:250,225,150/10,24 35:250,225,150/10,25 36:250,225,150/10,26 "
        "37:250,225,150/10,27 38:250,225,175,125/10,16,12 39:250,225,175,125/10,17,12 "
        "40:250,225,175,125/10,18,12 41:250,225,175,125/10,19,12 42:250,225,175,125/10,20,12 "
        "43:250,225,175,125/10,21,12 44:250,225,175,125/10,22,12 45:250,225,175,125/10,23,12 "
        "46:250,225,175,125/10,24,12 47:250,225,175,125/10,25,12 48:250,225,175,125/10,26,12 "
        "49:250,225,175,125/10,27,12 50:250,225,175,125/10,27,13 51:250,225,175,100/10,24,17 "
        "52:250,225,175,100/10,25,17 53:250,225,175,100/10,26,17 54:250,225,175,100/10,27,17 "
        "55:250,225,175,100/10,28,17 56:250,225,175,100/10,29,17 57:250,225,175,100/10,30,17 "
        "58:250,225,175,100/10,31,17 59:250,225,175,100/10,32,17 60:250,225,175,100/10,33,17 "
        "61:250,225,175,100/10,34,17 62:250,225,175,100/10,35,17 63:250,225,175,100/10,36,17 "
        "64:250,225,175,100/10,37,17 65:250,225,175,100/10,38,17 66:250,225,175,100/10,38,18 "
        "67:250,225,175,100/10,39,18 68:250,225,175,100/10,40,18 69:250,225,175,100/10,40,19 "
        "70:250,225,175,100/10,41,19 71:250,225,175,100/10,42,19 72:250,225,175,100/10,42,20 "
        "73:250,225,175,100/10,43,20 74:250,225,175,100/10,44,20 75:250,225,175,100/10,44,21 "
        "76:250,225,175,100/10,45,21 77:250,225,175,100/10,45,22 78:250,225,175,100/10,46,22 "
        "79:250,225,175,100/10,47,22 80:250,225,175,100/10,47,23 81:250,225,175,100/10,48,23 "
        "82:250,225,175,100/10,49,23 83:250,225,175,100/10,49,24 84:250,225,175,100/10,50,24 "
        "85:250,225,175,100/10,51,24 86:250,225,175,100/10,51,25 87:250,225,175,100/10,52,25 "
        "88:250,225,175,100/10,53,25 89:250,225,175,100/10,53,26 90:250,225,175,100/10,54,26 "
        "91:250,225,175,100/10,55,26 92:250,225,175,100/10,55,27 93:250,225,175,100/10,56,27 "
        "94:250,225,175,100/10,56,28 95:250,225,175,100/10,57,28 96:250,225,175,100/10,58,28 "
        "97:250,225,175,100/10,58,29 98:250,225,175,100/10,59,29 99:250,225,175,100/10,60,29 "
        "100:250,225,175,100/10,60,30 101:250,225,175,100/10,61,30 "
        "102:250,225,175,100/10,62,30 103:250,225,175,100/10,62,31 "
        "104:250,225,175,100/10,63,31 105:250,225,175,100/10,64,31 "
        "106:250,225,175,100/10,64,32 107:250,225,175,100/10,65,32 "
        "108:250,225,175,100/10,66,32 109:250,225,175,100/10,66,33 "
        "110:250,225,175,100/10,67,33 111:250,225,175,100/10,67,34 "
        "112:250,225,175,100/10,68,34 113:250,225,175,100/10,69,34 "
        "114:250,225,175,100/10,69,35 115:250,225,175,100/10,70,35 "
        "116:250,225,175,100/10,71,35 117:250,225,175,100/10,71,36 "
        "118:250,225,175,100/10,72,36 119:250,225,175,100/10,73,36 "
        "120:250,225,175,100/10,73,37"),
}
PINNED_CONFIGS = {  # (cell, grid step, R_in0_search, I, budgets)
    "default-sweep": ({}, 5.0, False, 3, range(10, 101, 10)),
    "r0-10m-I2": ({}, 10.0, True, 2, range(7, 120, 7)),
    "k40m4-10m-I3": ({"K_irs_max": 40.0, "M1_max": 4}, 10.0, False, 3, range(10, 101, 10)),
    "5m-I4": ({}, 5.0, False, 4, range(8, 121, 8)),
    "r0-25m-I3": ({}, 25.0, True, 3, range(1, 121)),
}


class TestScreen:
    """The shared-azimuth screen against the graded price that prices plans."""

    def test_screen_tracks_the_graded_price(self, cell, radio, irs, monkeypatch):
        table = _sweep_table(cell, radio, irs, range(10, 101, 10), monkeypatch)
        rows = [(hi, m, a, lo) for (hi, m, a), vec in table._cache.items()
                for lo in np.flatnonzero(np.isfinite(vec))]
        assert len(rows) == 70849
        worst = 0.0
        for i in np.random.default_rng(7).choice(len(rows), 1500, replace=False):
            hi, m, a, lo = rows[i]
            r_lo, r_hi = table.radii[lo], table.radii[hi]
            L = float(surface_circle(cell, a, r_lo, r_hi))
            edges = _graded_edges(r_lo, r_hi, L, math.pi / m)
            graded = ring_coefficients(radio, cell, irs, 0.95, m, np.array([L]),
                                       lambda f: _sector_integrals(f, *edges, SECTOR_NODES))[0]
            worst = max(worst, abs(table._cache[hi, m, a][lo] / graded - 1.0))
        assert worst <= 5e-4

    def test_sparse_reads_pay_per_read(self, cell, radio, irs):
        # each ring here is read at a few m near 3000: one tail panel a read,
        # not every [pi/(m'+1), pi/m'] panel up to 4095 (6,249,780 points)
        points = RING_TABLE_STATS.points
        res = line_search(cell, radio, irs, 3000, 2, grid=SearchGrid(radius_step=5.0))
        assert RING_TABLE_STATS.points - points < 100_000
        assert res.plan.R_in == (250.0, 225.0, 155.0) and res.plan.M == (10, 2990)

    def test_rows_do_not_depend_on_the_top_budget(self, cell, radio, irs, monkeypatch):
        small = _sweep_table(cell, radio, irs, [40], monkeypatch, radius_step=5.0)
        large = _sweep_table(cell, radio, irs, [100], monkeypatch, radius_step=5.0)
        shared = small._cache.keys() & large._cache.keys()
        assert len(shared) > 400
        for key in shared:
            assert np.array_equal(small.ring_vec(*key), large.ring_vec(*key)), key

    def test_sidecar_margin_is_the_plans_own(self, cell, radio, irs, monkeypatch):
        # the largest screen error on the plans' rings, and the smallest gap
        # between a budget's best and runner-up R_in[1] costs
        import irsplan.planner
        monkeypatch.setattr(RING_TABLE_STATS, "screen_max_rel_error", None)
        monkeypatch.setattr(RING_TABLE_STATS, "min_runner_up_gap", None)
        program, seen = irsplan.planner._ring_program, {}

        def spy(table, *args):
            V, found = program(table, *args)
            seen.update(table=table, found=found)
            return V, found

        monkeypatch.setattr(irsplan.planner, "_ring_program", spy)
        plans = line_search_budgets(cell, radio, irs, (30, 100), 3)
        table = seen["table"]
        index = {float(r): k for k, r in enumerate(table.radii)}
        errors = []
        for res in plans.values():
            R_idx = [index[R] for R in res.plan.R_in]
            graded = res.diagnostics["region_coefficients_J"]
            errors += [abs(table.ring_vec(R_idx[i], m, i == 0)[R_idx[i + 1]]
                           / graded[f"ring{i + 1}"] - 1.0) for i, m in enumerate(res.plan.M)]
        costs = [np.sort(best)[:2] for best, _ in seen["found"].values()]
        assert RING_TABLE_STATS.screen_max_rel_error == max(errors) > 0.0
        assert RING_TABLE_STATS.min_runner_up_gap == min(b / a - 1.0 for a, b in costs) > 0.0

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_placements_are_pinned(self, radio, irs, name):
        cell_args, step, search_r0, I, budgets = PINNED_CONFIGS[name]
        plans = line_search_budgets(CellConfig(**cell_args), radio, irs, budgets, I,
                                    grid=SearchGrid(radius_step=step, R_in0_search=search_r0))
        want = dict(entry.split(":") for entry in PINNED_PLACEMENTS[name].split())
        got = {str(M): ",".join(f"{r:g}" for r in p.plan.R_in) + "/"
               + ",".join(map(str, p.plan.M)) for M, p in plans.items()}
        assert got == want


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
