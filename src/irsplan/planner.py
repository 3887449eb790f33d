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

The search amortizes sector energy integrals through a per-configuration
coefficient table (fixed 16-point tensor quadrature over the half sector,
batched over the candidate inner radii the load cap allows) and re-derives
the winning configuration through the adaptive-quadrature contract path
before returning it.  Both integrate ``channel.irs_power_factor``, which
reads one shared table per (N, p_no).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .channel import IrsSpec, RadioConfig, composite_stats_arrays, irs_power_factor
from .geometry import CellConfig, RingPlan, irs_distance, make_ring_plan, validate_plan
from .numerics import _gl_nodes, bisect
from .powerctl import (PowerAllocation, RegionEnergyCoefficient, _ap_spans,
                       ap_region_coefficient, equalize_power,
                       irs_region_coefficient)


class PlanInfeasibleError(RuntimeError):
    """No feasible placement; .bindings lists the constraints that bit."""

    def __init__(self, bindings):
        super().__init__("no feasible placement: " + "; ".join(bindings))
        self.bindings = list(bindings)


class PlanCheckError(RuntimeError):
    """A planner's result failed its own consistency check.

    .method names the planner and .violations lists the checks that failed.
    """

    def __init__(self, method, violations):
        super().__init__(f"{method} produced an invalid plan: " + "; ".join(violations))
        self.method = method
        self.violations = list(violations)


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
    nu_bar: float
    method: str
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# coverage-range study
# ---------------------------------------------------------------------------

def coverage_range(cfg: RadioConfig, irs: IrsSpec, p, gamma_thresh,
                   l: Optional[float] = None) -> CoverageResult:
    """Maximum AP-UE distance meeting mean-SNR threshold gamma_thresh.

    Without an IRS the mean SNR is p g_d(r) / W and the radius is closed-form.
    With an IRS at AP distance l (surface on the AP-UE axis, d = r - l), the
    mean channel power E{Z^2} replaces g_d and the radius is bisected on
    [l, 10 x no-IRS radius].
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
    for _ in range(8):  # the mean gain decays like r^-n0, so this terminates
        if margin(hi) < 0.0:
            break
        hi *= 2.0
    r_star = bisect(margin, l, hi)
    return CoverageResult(r_star=r_star, limited=False)


# ---------------------------------------------------------------------------
# ring-coefficient table for the line search
# ---------------------------------------------------------------------------

class _RingCoefficientTable:
    """Cached per-ring energy coefficients on a fixed radius grid.

    ``ring_vec(hi_idx, m, near_ap)`` returns, indexed by lo < hi, the
    coefficient of a ring [radii[lo], radii[hi]] with m surfaces, using a
    16-point tensor Gauss-Legendre rule over the half sector (doubled by
    mirror symmetry).  Only the rows inside the load-cap window
    [lo_min(hi, m), hi) are filled; rows below it, which no feasible plan
    uses, hold +inf.  near_ap selects the L = L_min circle of ring 1; other
    rings take the annulus mid-radius.  The integrand is ``irs_power_factor``
    at ``irs_distance``; ``c0_grid`` is ``ap_region_coefficient`` per radius.
    """

    NODES = 16

    def __init__(self, cell, cfg, irs, p_no, step):
        self.cell = cell
        self.cfg = cfg
        self.irs = irs
        self.p_no = p_no
        self.radii = np.arange(0.0, cell.R_ex + 0.5 * step, step)
        if abs(self.radii[-1] - cell.R_ex) > 1e-9:
            self.radii = np.append(self.radii, cell.R_ex)
        self._r2 = self.radii ** 2
        self._glx, self._glw = _gl_nodes(self.NODES)
        self.c0_grid = np.array([ap_region_coefficient(cfg, cell, p_no, R).C
                                 for R in self.radii])
        self._cache = {}

    def max_span2(self, m):
        """Largest hi^2 - lo^2 a ring of m surfaces may cover under the load cap."""
        return self.cell.K_irs_max * m / (self.cell.ue_density * math.pi)

    def lo_min(self, hi_idx, m):
        """Lowest inner index lo a ring ending at radii[hi_idx] with m surfaces
        may reach under the load cap (hi_idx when none may); m may be an array."""
        span2 = self._r2[hi_idx] - self._r2[:hi_idx]  # falls as lo rises
        return np.searchsorted(-span2, -self.max_span2(m) * (1 + 1e-12))

    def ring_vec(self, hi_idx, m, near_ap):
        key = (int(hi_idx), int(m), bool(near_ap))
        got = self._cache.get(key)
        if got is not None:
            return got
        cfg = self.cfg
        first = int(self.lo_min(hi_idx, m))
        hi = self.radii[hi_idx]
        lo = self.radii[first:hi_idx]  # candidate inner radii inside the window
        half = math.pi / m        # half sector angle
        r_hat = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * self._glx[None, :]
        r_w = 0.5 * (hi - lo)[:, None] * self._glw[None, :]
        az = 0.5 * half + 0.5 * half * self._glx
        az_w = 0.5 * half * self._glw
        if near_ap:
            L = np.full((len(lo), 1, 1), self.cell.L_min)
        else:
            L = (0.5 * (hi + lo))[:, None, None]
        rr = r_hat[:, :, None]
        vals = irs_power_factor(cfg, self.irs, rr, L, irs_distance(rr, L, az[None, None, :]),
                                self.p_no)
        F = 2.0 * np.einsum("bi,j,bij->b", r_w * r_hat, az_w, vals)
        C = np.full(hi_idx, math.inf)
        C[first:] = m * self.cell.ue_density * cfg.W * cfg.t0 * F
        self._cache[key] = C
        return C


@functools.lru_cache(maxsize=8)
def _coefficient_table(cell, cfg, irs, p_no, step) -> _RingCoefficientTable:
    """Per-process table for the eight most recently used settings.

    IrsSpec compares by N alone, so the cache key is (cell, cfg, N, p_no, step).
    """
    return _RingCoefficientTable(cell, cfg, irs, p_no, step)


# ---------------------------------------------------------------------------
# exact line search over ring counts up to I
# ---------------------------------------------------------------------------

def _finalize(cell, cfg, irs, p_no, R_in, M, method, diagnostics=None) -> PlanResult:
    """Re-derive a candidate through the adaptive contract path and package it."""
    plan = make_ring_plan(cell, R_in, M)
    C0 = sum(ap_region_coefficient(cfg, cell, p_no, hi).C
             - ap_region_coefficient(cfg, cell, p_no, lo).C for lo, hi in _ap_spans(cell, plan))
    coeffs = [RegionEnergyCoefficient(region="ap", C=C0)]
    for i in range(1, plan.I + 1):
        coeffs.append(irs_region_coefficient(cfg, cell, irs, plan, i, p_no))
    alloc = equalize_power(coeffs, cfg, p_no)
    plan = replace(plan, rho=alloc.rho)
    violations = validate_plan(cell, plan, total_irs=sum(M))
    if violations:
        raise PlanCheckError(method, [f"{v.code}: {v.detail}" for v in violations])
    diag = dict(diagnostics or {})
    diag["region_coefficients_J"] = {c.region: c.C for c in coeffs}
    return PlanResult(plan=plan, allocation=alloc, nu_bar=alloc.nu_bar,
                      method=method, diagnostics=diag)


def _ring_program(table, lo_min, M, depth, m1_max, tops):
    """The dynamic program behind line_search, for R_in[0] indices `tops`.

    Returns (V, best, choice): V[k, hi, j] as line_search describes it (+inf
    at states no split reaches); best[lo] the cheapest total whose ring 1
    ends at R_in[1] = radii[lo]; choice[lo] its (deeper ring count, R_in[0]
    index, M_1).
    """
    c0 = table.c0_grid
    n = len(c0)

    def top_moves(k):
        """(R_in[0] index, M_1, first lo) for ring 1 above k deeper rings."""
        if k:
            m1s = range(1, min(m1_max, M - k) + 1)
        else:  # ring 1 alone takes every surface
            m1s = [M] if M <= m1_max else []
        for r0 in tops:
            for m1 in m1s:
                lo = max(lo_min[r0, m1], k)
                if lo < r0:
                    yield r0, m1, lo

    # forward pass: reach[k, hi, j] marks the states some split can reach
    reach = np.zeros((depth, n, M + 1), dtype=bool)
    for k in range(depth):
        for r0, m1, lo in top_moves(k):
            reach[k, lo:r0, M - m1] = True
    for k in range(depth - 1, 1, -1):
        for hi in np.flatnonzero(reach[k].any(axis=1)):
            for m in range(1, np.flatnonzero(reach[k, hi])[-1] - k + 2):
                lo = max(lo_min[hi, m], k - 1)
                reach[k - 1, lo:hi, k - 1:M + 1 - m] |= reach[k, hi, k - 1 + m:]

    V = np.full((depth, n, M + 1), math.inf)
    V[0, :, 0] = c0
    for k in range(1, depth):
        for hi in np.flatnonzero(reach[k].any(axis=1)):
            row, want = V[k, hi], reach[k, hi]
            for m in range(1, np.flatnonzero(want)[-1] - k + 2):
                lo = max(lo_min[hi, m], k - 1)
                below = V[k - 1, lo:hi, k - 1:M + 1 - m]
                if not np.isfinite(below[:, want[k - 1 + m:]]).any():
                    continue
                vec = table.ring_vec(hi, m, near_ap=False)[lo:hi, None]
                np.minimum(row[k - 1 + m:], (vec + below).min(axis=0),
                           out=row[k - 1 + m:])
            row[~want] = math.inf

    # ring 1 on top of V: the cheapest total for each R_in[1] index
    best = np.full(n, math.inf)
    choice = np.zeros((n, 3), dtype=np.int64)
    for k in range(depth):
        for r0, m1, lo in top_moves(k):
            below = V[k, lo:r0, M - m1]
            if not np.isfinite(below).any():
                continue
            cost = (c0[n - 1] - c0[r0] + table.ring_vec(r0, m1, near_ap=True)[lo:r0]) + below
            better = cost < best[lo:r0]
            best[lo:r0][better] = cost[better]
            choice[lo:r0][better] = (k, r0, m1)
    return V, best, choice


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
    limit and per-sector load cap.
    """
    M = int(M)
    I = int(I)
    if M < 1 or I < 1:
        raise ValueError("line_search: M >= 1 and I >= 1 required")
    if cell.M1_max < 1:
        raise PlanInfeasibleError(["no near-AP slots available (M1_max = 0)"])

    table = _coefficient_table(cell, cfg, irs, p_no, grid.radius_step)
    radii, c0 = table.radii, table.c0_grid
    n = len(radii)
    lo_min = np.array([table.lo_min(hi, np.arange(M + 1)) for hi in range(n)])
    V, best, choice = _ring_program(table, lo_min, M, min(I, M), cell.M1_max, [n - 1])
    if grid.R_in0_search:
        # every term of a plan's cost is nonnegative, so a plan whose open
        # exterior annulus alone costs more than the best closed plan (with a
        # margin far wider than the 1e-9 tie window) cannot win
        bound = best.min() * (1.0 + 1e-6)
        tops = [r0 for r0 in range(1, n) if c0[n - 1] - c0[r0] <= bound]
        if len(tops) > 1:
            V, best, choice = _ring_program(table, lo_min, M, min(I, M), cell.M1_max, tops)
    c_min = best.min()
    if not math.isfinite(c_min):
        raise PlanInfeasibleError([
            "per-sector load cap and near-AP slot limit exclude every split "
            f"of M={M} over ring counts 1..{I} on the {grid.radius_step:g} m grid"])
    lo1 = int(np.flatnonzero(best - c_min <= 1e-9 * c_min)[0])
    deeper, r0, m1 = (int(v) for v in choice[lo1])
    R_idx, Ms = [r0, lo1], [m1]
    hi, j = lo1, M - m1
    for k in range(deeper, 0, -1):
        step = (math.inf, 0, 0)  # (cost, m, lo) of the cheapest ring at hi
        for m in range(1, j - k + 2):
            lo = max(lo_min[hi, m], k - 1)
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
    return _finalize(cell, cfg, irs, p_no, [radii[i] for i in R_idx], Ms, "line-search",
                     {"grid_step_m": grid.radius_step, "searched_R_in0": grid.R_in0_search})


# ---------------------------------------------------------------------------
# constructive heuristic
# ---------------------------------------------------------------------------

def algorithm1(cell: CellConfig, cfg: RadioConfig, irs: IrsSpec, M, I_max,
               p_no=0.95) -> PlanResult:
    """Fast ring construction: near-AP circle first, then equal-interval rings.

    For M <= M1_max every surface sits on the near-AP circle and serves an
    outermost ring sized to the per-sector cap.  Otherwise ring 1 takes all
    M1_max near-AP slots and, for each candidate ring count, the remaining
    surfaces fill rings laid inward from equal-interval tentative radii, each
    ring sized so one sector carries the cap; the best ring count wins.  The
    integer rounding of ring sizes is repaired against the remaining budget
    (never starving a deeper ring, last ring absorbs the remainder).
    """
    M = int(M)
    if M < 1:
        raise ValueError("algorithm1: M >= 1 required")
    if cell.M1_max < 1:
        raise PlanInfeasibleError(["no near-AP slots available (M1_max = 0)"])
    lam = cell.ue_density
    cap_area = cell.K_irs_max / lam  # sector area at the UE cap

    if M <= cell.M1_max:
        inner_sq = cell.R_ex ** 2 - M * cap_area / math.pi
        R1 = math.sqrt(max(inner_sq, 0.0))
        return _finalize(cell, cfg, irs, p_no, [cell.R_ex, R1], [M], "algorithm1",
                         {"I_candidates": [1]})

    if I_max < 2:
        raise PlanInfeasibleError([
            f"M={M} exceeds the near-AP slots (M1_max={cell.M1_max}) and "
            f"I_max={I_max} forbids deeper rings"])

    best = None
    tried = []
    R1 = math.sqrt(max(cell.R_ex ** 2 - cell.M1_max * cap_area / math.pi, 0.0))
    for I in range(2, I_max + 1):
        budget = M - cell.M1_max
        if budget < I - 1:
            continue
        tried.append(I)
        total_area = M * cap_area
        if total_area >= math.pi * cell.R_ex ** 2:
            R_target = 0.0
            kbar_rest = lam * math.pi * R1 ** 2 / (M - cell.M1_max)
        else:
            R_target = math.sqrt(cell.R_ex ** 2 - total_area / math.pi)
            kbar_rest = cell.K_irs_max
        area_rest = kbar_rest / lam
        Rs = [cell.R_ex, R1]
        Ms = [cell.M1_max]
        r_prev = R1
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
        result = _finalize(cell, cfg, irs, p_no, Rs, Ms, "algorithm1", {})
        if best is None or result.nu_bar > best.nu_bar * (1.0 + 1e-9):
            best = result
    if best is None:
        raise PlanInfeasibleError([
            f"budget M-M1_max={M - cell.M1_max} cannot populate any ring count "
            f"2..{I_max} with at least one surface per ring"])
    best.diagnostics["I_candidates"] = tried
    return best
