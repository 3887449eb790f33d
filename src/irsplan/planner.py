"""Placement optimizers.

Three entry points:

* ``coverage_range`` -- how far one AP-IRS pair extends the SNR-threshold
  coverage radius when the surface sits at distance l on the AP-UE axis.

* ``line_search`` -- exact max-min optimization over ring radii on a
  uniform grid and integer IRS splits, for at most I rings.  The power
  split never has to be searched: every region's frame energy is linear in
  the common SNR threshold, so the optimal ratios are closed-form for each
  candidate placement and maximizing throughput reduces to minimizing the
  summed energy coefficients.  That sum is additive over rings, so a
  dynamic program over (rings left, ring boundary, surfaces left) finds the
  optimum without enumerating splits.

* ``algorithm1`` -- the fast constructive heuristic: fill the near-AP circle
  first, then lay rings inward with equal-interval tentative radii, sizing
  each ring so one sector carries the per-IRS UE cap.

The search screens sector energy integrals through a coefficient table of
its own, over the candidate inner radii the load cap allows: each DP layer
fills the keys it needs in one call, which integrates every ring they read
once for all of its surface counts (``powerctl.screen_coefficients``, the
shared-azimuth screen).  It prices the winning configuration with
``powerctl``'s graded rule (``irs_region_coefficient``) before returning it.
Both are ``powerctl.ring_coefficients``, the one ring coefficient, on
different rules.  ``line_search_budgets`` runs the dynamic program once for
many budgets (``line_search`` is its one-budget case), and
``RING_TABLE_STATS`` counts the table and pricing work of the process and
how close the screen came to deciding a pick.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import IrsSpec, RadioConfig, composite_stats_arrays
from .geometry import (CellConfig, RingPlan, ap_spans, make_ring_plan, min_surfaces,
                       surface_circle, validate_plan)
from .numerics import Refused, bisect, concat_ranges
from .powerctl import (RING_TABLE_STATS, PowerAllocation, ap_region_coefficient,
                       equalize_power, irs_region_coefficient, screen_coefficients)


class PlanInfeasibleError(Refused):
    """No feasible placement; .bindings lists the constraints that bit."""

    def __init__(self, bindings):
        super().__init__("infeasible", "no feasible placement: " + "; ".join(bindings),
                         bindings=list(bindings))


class PlanCheckError(Refused):
    """A planner's result failed its own consistency check.

    .method names the planner and .violations lists the checks that failed.
    """

    def __init__(self, method, violations):
        super().__init__("invalid-plan",
                         f"{method} produced an invalid plan: " + "; ".join(violations),
                         method=method, violations=list(violations))


@dataclass(frozen=True)
class SearchGrid:
    radius_step: float = 5.0    # ring-radius grid pitch [m]
    R_in0_search: bool = False  # also search the exterior boundary R_in[0]

    def __post_init__(self):
        if self.radius_step <= 0:
            raise ValueError("SearchGrid: radius_step must be positive")


@dataclass(frozen=True)
class CoverageResult:
    r_star: float
    limited: bool = False  # threshold unreachable even at the closest point


@dataclass(frozen=True)
class PlanResult:
    plan: RingPlan
    allocation: PowerAllocation
    method: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def nu_bar(self):
        """The allocation's common throughput [bps/Hz]."""
        return self.allocation.nu_bar


# ---------------------------------------------------------------------------
# coverage-range study
# ---------------------------------------------------------------------------

def coverage_range(cfg: RadioConfig, irs: IrsSpec, p, gamma_thresh,
                   l: Optional[float] = None) -> CoverageResult:
    """Maximum AP-UE distance meeting mean-SNR threshold gamma_thresh.

    Without an IRS the mean SNR is p g_d(r) / W and the radius is closed-form.
    With an IRS at AP distance l (surface on the AP-UE axis, d = r - l), the
    mean channel power E{Z^2} replaces g_d and the radius is bisected between
    l and an upper end that starts at max(10 x no-IRS radius, 2 l + 1) and
    doubles until the threshold fails there.
    """
    if p <= 0 or gamma_thresh <= 0:
        raise ValueError("coverage_range: p and gamma_thresh must be positive")
    arg = (p * cfg.alpha0 / (cfg.W * gamma_thresh)) ** (2.0 / cfg.n0) - cfg.H_A ** 2
    if arg <= 0.0:
        direct = CoverageResult(r_star=0.0, limited=True)
    else:
        direct = CoverageResult(r_star=math.sqrt(arg), limited=False)
    if l is None:
        return direct

    l = float(l)
    if l < 0:
        raise ValueError("coverage_range: l must be nonnegative")

    def margin(r):
        mean, _, _, _ = composite_stats_arrays(cfg, irs, r, l, r - l)
        return p * float(mean) / cfg.W - gamma_thresh

    if margin(l) < 0.0:
        return CoverageResult(r_star=l, limited=True)
    hi = max(10.0 * direct.r_star, 2.0 * l + 1.0)
    while margin(hi) >= 0.0:  # E{Z^2} -> 0 as r grows, so this terminates
        hi *= 2.0
    r_star = bisect(margin, l, hi)
    return CoverageResult(r_star=r_star, limited=False)


# ---------------------------------------------------------------------------
# ring-coefficient table for the line search
# ---------------------------------------------------------------------------

# DP element operations, depth x the pair operations of candidate_work.  An
# operation cost 1.2-3.5 ns over the 5 m and 25 m grids at M = 300...30000
# (2-core Xeon), so the limit is about 25-70 s of DP
MAX_DP_OPERATIONS = 20_000_000_000


class _RingCoefficientTable:
    """One line search's per-ring energy coefficients on a fixed radius grid.

    Built for the search's largest budget M and ring count I.  The load cap
    (``geometry.min_surfaces``) is worked out once: m_min[hi, lo] is the
    fewest surfaces of a ring [radii[lo], radii[hi]] (+inf unless lo < hi),
    and lo_min[hi, m] the lowest lo a ring ending at radii[hi] with m <= M
    surfaces may reach (hi when none may).  A grid of more than MAX_RADII
    radii, then a search whose ``candidate_work`` exceeds MAX_ROWS rows or
    MAX_DP_OPERATIONS operations, is refused before lo_min is built.

    ``ring_vec(hi_idx, m, near_ap)`` returns, indexed by lo < hi, the screen
    coefficient (``powerctl.screen_coefficients``) of a ring [radii[lo],
    radii[hi]] with m surfaces, filled for lo >= lo_min[hi, m] and +inf
    below.  near_ap marks ring 1 for ``geometry.surface_circle``.
    ``c0_grid`` is ``ap_region_coefficient`` per radius.  ``fill(keys)``
    computes many keys at once: each ring (lo, hi, near_ap) in their windows
    is integrated once, in batches of at most BATCH_POINTS integrand points,
    and a row's coefficient is a function of its ring and m alone, the same
    bits whichever keys, batch or top budget it is filled with.
    """

    BATCH_POINTS = 262_144  # integrand points a batch of rings: 22k azimuths laid out at once
    MAX_RADII = 1001  # rows grow as radii^2: the default sweep fills 70,849 at 51 radii
    # 260k rows/s cold (1 m grid, M=40: 11 rows a ring) to 950k (5 m grid,
    # M=1000: 917) on a 2-core Xeon: at most about 15 s at the limit
    MAX_ROWS = 4_000_000

    def __init__(self, cell, cfg, irs, p_no, step, M, I):
        self.cell, self.cfg, self.irs, self.p_no = cell, cfg, irs, p_no
        n = math.ceil((cell.R_ex - 1e-9) / step) + 1  # the grid below, counted first
        if n > self.MAX_RADII:
            raise Refused("too-expensive", f"a {step:g} m radius grid has {n} radii; "
                          f"the ring table allows at most {self.MAX_RADII}")
        # strictly increasing and ending at R_ex whatever the remainder
        self.radii = np.append(np.arange(0.0, cell.R_ex - 1e-9, step), cell.R_ex)
        self.m_min = np.where(np.tri(n, k=-1, dtype=bool),
                              min_surfaces(cell, self.radii, self.radii[:, None]), math.inf)
        rows, pair_ops = self.candidate_work(M)
        ops = min(I, M, n - 1) * pair_ops  # the program's depth times its pair operations
        if rows > self.MAX_ROWS or ops > MAX_DP_OPERATIONS:
            raise Refused("too-expensive", f"a line search up to M={M} with I={I} on the "
                          f"{step:g} m grid admits {rows} ring-table rows and "
                          f"{ops} DP operations; at most {self.MAX_ROWS} rows and "
                          f"{MAX_DP_OPERATIONS} operations are allowed")
        self.lo_min = np.array([np.searchsorted(-self.m_min[hi, :hi], -np.arange(M + 1.0))
                                for hi in range(n)])  # m_min[hi, :hi] falls as lo rises
        self.c0_grid = np.array([ap_region_coefficient(cfg, cell, p_no, R) for R in self.radii])
        self._cache = {}

    def candidate_work(self, M):
        """(rows, pair operations) up to budget M.  A pair lo < hi admits the
        T = M + 1 - m_min surface counts m the load cap allows: T rows of the
        near_ap=False keys, and T (T + 1) / 2 (m, j <= M - m) element
        operations in each DP layer."""
        T = np.maximum(M + 1.0 - self.m_min, 0.0)
        return int(T.sum()), int((T * (T + 1.0)).sum()) // 2

    def ring_vec(self, hi_idx, m, near_ap):
        key = (int(hi_idx), int(m), bool(near_ap))
        if key not in self._cache:
            self.fill([key])
        return self._cache[key]

    def fill(self, keys):
        """Compute and cache every (hi_idx, m, near_ap) key not cached yet.

        Each ring [radii[lo], radii[hi]] (near_ap or not) in some key's
        window is integrated once, for the m of every key whose window holds
        it (``powerctl.screen_coefficients``)."""
        todo = sorted({(bool(a), int(h), int(m)) for h, m, a in keys
                       if (int(h), int(m), bool(a)) not in self._cache})
        if not todo:
            return
        start = time.perf_counter()
        near_ap, hi, m = (np.array(v) for v in zip(*todo))
        n = len(self.radii)
        family = near_ap * n + hi  # one code per (near_ap, hi), rising along the keys
        last = np.flatnonzero(np.diff(family, append=-1))  # a family's last key reaches lowest
        lowest = self.lo_min[hi[last], m[last]]
        ring = np.repeat(last, hi[last] - lowest)  # each ring's family, as its last key
        lo = concat_ranges(lowest, hi[last] - lowest)
        # a ring's keys are its family's from the first whose window holds lo on
        window = family * (n + 1) + n - self.lo_min[hi, m]  # rises along the keys
        first = np.searchsorted(window, family[ring] * (n + 1) + n - lo)
        count = ring + 1 - first
        at = np.cumsum(hi) - hi  # each key's vector over lo, in one buffer
        vecs = np.full(int(hi.sum()), math.inf)
        r_lo, r_hi = self.radii[lo], self.radii[hi[ring]]
        L = surface_circle(self.cell, near_ap[ring], r_lo, r_hi)
        for b, t, C in screen_coefficients(self.cfg, self.cell, self.irs, self.p_no, r_lo, r_hi,
                                           L, m, first, count, self.BATCH_POINTS):
            vecs[at[t] + np.repeat(lo[b], count[b])] = C
        for (a, h, mm), s in zip(todo, at.tolist()):
            self._cache[h, mm, a] = vecs[s:s + h]
        RING_TABLE_STATS.fills += len(todo)
        RING_TABLE_STATS.rows += int(count.sum())
        RING_TABLE_STATS.fill_s += time.perf_counter() - start


# ---------------------------------------------------------------------------
# exact line search over ring counts up to I
# ---------------------------------------------------------------------------

def _finalize(cell, cfg, irs, p_no, R_in, M, total_irs, method) -> PlanResult:
    """Price a candidate's rings with the graded rule, check it against the
    budget of total_irs surfaces, and package it."""
    plan = make_ring_plan(cell, R_in, M)
    C0 = sum(ap_region_coefficient(cfg, cell, p_no, hi)
             - ap_region_coefficient(cfg, cell, p_no, lo) for lo, hi in ap_spans(cell, plan))
    coeffs = [C0] + [irs_region_coefficient(cfg, cell, irs, plan, i, p_no)
                     for i in range(1, plan.I + 1)]
    alloc = equalize_power(coeffs, cfg, p_no)
    violations = validate_plan(cell, plan, total_irs=total_irs, rho=alloc.rho)
    if violations:
        raise PlanCheckError(method, [f"{v.code}: {v.detail}" for v in violations])
    diag = {"region_coefficients_J": {f"ring{i}" if i else "ap": C for i, C in enumerate(coeffs)}}
    return PlanResult(plan=plan, allocation=alloc, method=method, diagnostics=diag)


def _ring_moves(lo_min, k, hi, j):
    """(m, first lo) of every ring at depth k ending at radii[hi] with j
    surfaces at and below it: the k - 1 rings below keep one surface each,
    and lo stays at or above k - 1 so that they fit under it."""
    return ((m, max(lo_min[hi, m], k - 1)) for m in range(1, j - k + 2))


def _ring_program(table, tops, I, m1_max):
    """The dynamic program behind line_search, for every budget in `tops` at once.

    tops maps each budget M to its candidate R_in[0] indices.  V[k, hi, j]
    (as line_search describes it) depends on no budget, and every state that
    feeds a state some budget reaches is reached too, so one V over the union
    of the budgets' reachable states holds, at each budget's states, the
    values that budget's own program would compute (+inf at states no
    budget reaches).  V and reach hold min(I, M, n - 1) ring depths: ring 1
    above k deeper rings needs k <= lo < R_in[0] index <= n - 1, so no plan
    on n radii uses a deeper layer.  Each layer first collects its moves,
    then fills their coefficients in one batch, then takes the minima.
    Returns (V, found) with found[M] = (best, choice): best[lo] the cheapest
    total whose ring 1 ends at R_in[1] = radii[lo], choice[lo] its (deeper
    ring count, R_in[0] index, M_1).
    """
    c0, lo_min = table.c0_grid, table.lo_min
    n = len(c0)
    top_M = max(tops)
    depth = min(I, top_M, n - 1)  # ring depths a plan on n radii can use

    def top_moves(M, k):
        """(R_in[0] index, M_1, first lo) for ring 1 above k deeper rings."""
        for r0 in tops[M]:
            for m1, lo in _ring_moves(lo_min, k + 1, r0, M):
                if m1 > m1_max:
                    break
                if lo < r0 and (k or m1 == M):  # ring 1 alone takes every surface
                    yield r0, m1, lo

    ring1 = [(M, k, move) for M in sorted(tops) for k in range(min(I, M, n - 1))
             for move in top_moves(M, k)]
    # forward pass: reach[k, hi, j] marks the states some split can reach
    reach = np.zeros((depth, n, top_M + 1), dtype=bool)
    for M, k, (r0, m1, lo) in ring1:
        reach[k, lo:r0, M - m1] = True
    for k in range(depth - 1, 1, -1):
        for hi in np.flatnonzero(reach[k].any(axis=1)):
            for m, lo in _ring_moves(lo_min, k, hi, np.flatnonzero(reach[k, hi])[-1]):
                reach[k - 1, lo:hi, k - 1:top_M + 1 - m] |= reach[k, hi, k - 1 + m:]

    V = np.full((depth, n, top_M + 1), math.inf)
    V[0, :, 0] = c0
    for k in range(1, depth):
        moves = []
        for hi in np.flatnonzero(reach[k].any(axis=1)):
            want = reach[k, hi]
            for m, lo in _ring_moves(lo_min, k, hi, np.flatnonzero(want)[-1]):
                if np.isfinite(V[k - 1, lo:hi, k - 1:top_M + 1 - m][:, want[k - 1 + m:]]).any():
                    moves.append((hi, m, lo))
        table.fill((hi, m, False) for hi, m, _ in moves)
        for hi, m, lo in moves:
            vec = table.ring_vec(hi, m, near_ap=False)[lo:hi, None]
            below = V[k - 1, lo:hi, k - 1:top_M + 1 - m]
            out = V[k, hi, k - 1 + m:]
            np.minimum(out, (vec + below).min(axis=0), out=out)
        V[k][~reach[k]] = math.inf

    # ring 1 on top of V: the cheapest total for each R_in[1] index
    ring1 = [(M, k, move) for M, k, move in ring1
             if np.isfinite(V[k, move[2]:move[0], M - move[1]]).any()]
    table.fill((r0, m1, True) for _, _, (r0, m1, _) in ring1)
    found = {M: (np.full(n, math.inf), np.zeros((n, 3), dtype=np.int64)) for M in tops}
    for M, k, (r0, m1, lo) in ring1:
        best, choice = found[M]
        cost = ((c0[n - 1] - c0[r0] + table.ring_vec(r0, m1, near_ap=True)[lo:r0])
                + V[k, lo:r0, M - m1])
        better = cost < best[lo:r0]
        best[lo:r0][better] = cost[better]
        choice[lo:r0][better] = (k, r0, m1)
    return V, found


def _recover_path(table, V, M, best, choice):
    """Boundary indices and split of the winning plan of budget M.

    Ties: the minimum summed coefficient wins; candidates within 1e-9
    relative of it prefer the smallest R_in[1], then the lower cost.
    """
    c_min = best.min()
    lo1 = int(np.flatnonzero(best - c_min <= 1e-9 * c_min)[0])
    deeper, r0, m1 = (int(v) for v in choice[lo1])
    R_idx, Ms = [r0, lo1], [m1]
    hi, j = lo1, M - m1
    for k in range(deeper, 0, -1):
        step = (math.inf, 0, 0)  # (cost, m, lo) of the cheapest ring at hi
        for m, lo in _ring_moves(table.lo_min, k, hi, j):
            below = V[k - 1, lo:hi, j - m]
            if not np.isfinite(below).any():
                continue
            cost = table.ring_vec(hi, m, near_ap=False)[lo:hi] + below
            at = int(np.argmin(cost))
            if cost[at] < step[0]:
                step = (cost[at], m, lo + at)
        if step[0] != V[k, hi, j]:
            raise PlanCheckError("line-search", [
                f"path recovery at ring depth {k}: cheapest ring costs "
                f"{float(step[0])!r}, the table holds {float(V[k, hi, j])!r}"])
        _, m, hi = step
        j -= m
        R_idx.append(hi)
        Ms.append(m)
    return R_idx, Ms


def line_search_budgets(cell: CellConfig, cfg: RadioConfig, irs: IrsSpec, budgets, I,
                        grid: SearchGrid = SearchGrid(), p_no=0.95) -> dict:
    """``line_search`` for every budget in `budgets`, over one dynamic program.

    Returns {M: PlanResult}, each budget's plan the one line_search finds for
    it alone, or raises the PlanInfeasibleError of the smallest budget no
    split serves.
    """
    budgets = sorted({int(M) for M in budgets})
    I = int(I)
    if not budgets or budgets[0] < 1 or I < 1:
        raise ValueError("line_search: M >= 1 and I >= 1 required")
    if cell.M1_max < 1:
        raise PlanInfeasibleError(["no near-AP slots available (M1_max = 0)"])

    start, fill_s = time.perf_counter(), RING_TABLE_STATS.fill_s
    table = _RingCoefficientTable(cell, cfg, irs, p_no, grid.radius_step, budgets[-1], I)
    radii, c0, n = table.radii, table.c0_grid, len(table.radii)
    V, found = _ring_program(table, {M: [n - 1] for M in budgets}, I, cell.M1_max)
    if grid.R_in0_search:
        # every term of a plan's cost is nonnegative, so a plan whose open
        # exterior annulus alone costs more than the best closed plan (with a
        # margin far wider than the 1e-9 tie window) cannot win
        tops = {M: [r0 for r0 in range(1, n) if c0[n - 1] - c0[r0] <= best.min() * (1.0 + 1e-6)]
                for M, (best, _) in found.items()}
        if any(len(t) > 1 for t in tops.values()):
            V, found = _ring_program(table, tops, I, cell.M1_max)
    for M in budgets:
        if not math.isfinite(found[M][0].min()):
            raise PlanInfeasibleError([
                "per-sector load cap and near-AP slot limit exclude every split "
                f"of M={M} over ring counts 1..{I} on the {grid.radius_step:g} m grid"])
    paths = {M: _recover_path(table, V, M, *found[M]) for M in budgets}
    RING_TABLE_STATS.dp_s += (time.perf_counter() - start) - (RING_TABLE_STATS.fill_s - fill_s)
    plans = {M: _finalize(cell, cfg, irs, p_no, [radii[i] for i in R_idx], Ms, M, "line-search")
             for M, (R_idx, Ms) in paths.items()}
    _record_screen_margin(table, found, paths, plans)
    return plans


def _record_screen_margin(table, found, paths, plans):
    """Keep in RING_TABLE_STATS the largest relative error of the screen
    against the graded price on the plans' rings, and the smallest relative
    gap between a budget's best and runner-up R_in[1] costs: a gap below the
    error marks a pick the screen could flip."""
    errors = [abs(table.ring_vec(R_idx[i], m, i == 0)[R_idx[i + 1]]
                  / plans[M].diagnostics["region_coefficients_J"][f"ring{i + 1}"] - 1.0)
              for M, (R_idx, Ms) in paths.items() for i, m in enumerate(Ms)]
    costs = [np.sort(best[np.isfinite(best)])[:2] for best, _ in found.values()]
    gaps = [c[1] / c[0] - 1.0 for c in costs if c.size == 2]
    stats = RING_TABLE_STATS
    if stats.screen_max_rel_error is not None:
        errors.append(stats.screen_max_rel_error)
    if stats.min_runner_up_gap is not None:
        gaps.append(stats.min_runner_up_gap)
    stats.screen_max_rel_error = float(max(errors))
    stats.min_runner_up_gap = float(min(gaps)) if gaps else None


def line_search(cell: CellConfig, cfg: RadioConfig, irs: IrsSpec, M, I,
                grid: SearchGrid = SearchGrid(), p_no=0.95) -> PlanResult:
    """Exact search over ring radii (grid) and IRS splits with <= I rings.

    A split that leaves a ring empty is the same deployment as one with fewer
    rings, so every ring count from 1 up to I competes.  Maximizing the common
    throughput is equivalent to minimizing the summed region energy
    coefficients, and that sum is additive over rings:

        annulus(R_in[0]) + sum_i ring_vec(hi_i, M_i)[lo_i] + c0(R_in[I]).

    So a dynamic program finds the optimum without enumerating splits.
    V[k, hi, j] is the cheapest way to place k rings off the near-AP circle
    below boundary radii[hi] with exactly j surfaces (V[0, lo, 0] is the AP
    disc c0(radii[lo])); each layer is a minimum over the surfaces m of the
    ring ending at hi and, vectorized, over its inner index lo and over j.
    Ring 1 (near-AP circle, at most M1_max surfaces) and every candidate
    R_in[0] are handled once on top of V, and the winning path is recovered
    by argmin.  A forward pass over the grid, which computes no
    coefficients, first marks the (k, hi, j) states some split can reach
    under the per-sector load cap, so coefficients are filled only for rings
    a plan can use.  With grid.R_in0_search the closed boundary
    R_in[0] = R_ex is solved first; an open exterior annulus costs
    c0(R_ex) - c0(R_in[0]) by itself, so only the boundaries whose annulus
    undercuts that optimum are then searched, over one shared V.

    Ties: the minimum summed coefficient wins; candidates within 1e-9
    relative of it prefer the smallest R_in[1], then the lower cost.
    Raises PlanInfeasibleError when no assignment satisfies the near-AP slot
    limit and per-sector load cap.  This is the one-budget case of
    ``line_search_budgets``.
    """
    return line_search_budgets(cell, cfg, irs, [M], I, grid, p_no)[int(M)]


# ---------------------------------------------------------------------------
# constructive heuristic
# ---------------------------------------------------------------------------

def algorithm1(cell: CellConfig, cfg: RadioConfig, irs: IrsSpec, M, I_max,
               p_no=0.95) -> PlanResult:
    """Fast ring construction: near-AP circle first, then equal-interval rings.

    Ring 1 takes m1 = min(M, M1_max) near-AP slots and serves an outermost
    ring sized to the per-sector cap.  Each ring count I (1 when m1 = M)
    lays the other surfaces in rings 2..I inward from equal-interval
    tentative radii, each sized so one sector carries the cap; the best I
    wins.  The integer rounding of ring sizes is repaired against the
    remaining budget (never starving a deeper ring, last ring absorbs the
    remainder).
    """
    M = int(M)
    if M < 1 or I_max < 1:
        raise ValueError("algorithm1: M >= 1 and I_max >= 1 required")
    if cell.M1_max < 1:
        raise PlanInfeasibleError(["no near-AP slots available (M1_max = 0)"])
    lam = cell.ue_density
    cap_area = cell.K_irs_max / lam  # sector area at the UE cap
    m1 = min(M, cell.M1_max)
    rest = M - m1  # surfaces for rings 2..I
    R1 = math.sqrt(max(cell.R_ex ** 2 - m1 * cap_area / math.pi, 0.0))
    total_area = M * cap_area
    if total_area >= math.pi * cell.R_ex ** 2:
        R_target = 0.0
        kbar_rest = lam * math.pi * R1 ** 2 / max(rest, 1)  # read only when rest > 0
    else:
        R_target = math.sqrt(cell.R_ex ** 2 - total_area / math.pi)
        kbar_rest = cell.K_irs_max
    area_rest = kbar_rest / lam

    best, tried = None, []
    for I in range(1, I_max + 1):
        if rest < I - 1 or (I == 1 and rest):
            continue  # ring 1 alone takes every surface; each deeper ring needs one
        tried.append(I)
        Rs, Ms, budget, r_prev = [cell.R_ex, R1], [m1], rest, R1
        for i in range(2, I + 1):
            delta = (r_prev - R_target) / (I - i + 1)
            r_tent = r_prev - delta
            need = math.ceil(lam * math.pi * (r_prev ** 2 - r_tent ** 2) / kbar_rest - 1e-9)
            if i < I:
                m_i = max(1, min(need, budget - (I - i)))
            else:
                m_i = budget
            r_i = math.sqrt(max(r_prev ** 2 - m_i * area_rest / math.pi, 0.0))
            Rs.append(r_i)
            Ms.append(m_i)
            budget -= m_i
            r_prev = r_i
        result = _finalize(cell, cfg, irs, p_no, Rs, Ms, M, "algorithm1")
        if best is None or result.nu_bar > best.nu_bar * (1.0 + 1e-9):
            best = result
    if best is None:  # surfaces remain (I = 2 takes any rest >= 1), but I_max < 2
        raise PlanInfeasibleError([
            f"M={M} exceeds the near-AP slots (M1_max={cell.M1_max}) and "
            f"I_max={I_max} forbids deeper rings"])
    best.diagnostics["I_candidates"] = tried
    return best
