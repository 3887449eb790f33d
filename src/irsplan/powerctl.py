"""Power-control policies and region energy accounting.

Both service regions admit a *slow* (position-dependent, fading-independent)
policy whose expected per-frame energy is exactly linear in the common SNR
threshold eta0:

* AP-only disc: channel-inversion power control (CIPC) at mean SNR
  gamma_bar = eta0 / ln(1/p_no) makes every UE's non-outage probability
  exactly p_no; the expected frame energy is eta0 * C_0 with
  C_0 = 2 pi lambda W t_0 F_0 / (alpha0 ln(1/p_no)) and
  F_0(R) = ((R^2 + H_A^2)^((n0+2)/2) - H_A^(n0+2)) / (n0 + 2).

* IRS ring i: each UE gets the Gamma-tail required power, and integrating
  beta / q_alpha(p_no) (``channel.irs_power_factor``) over one sector gives
  energy eta0 * C_i with C_i = M_i lambda W t_0 F_i.

Because every region's energy is eta0 * C_region and every region's
throughput at its target is p_no * log2(1 + eta0), the budget
sum(eta0 * C) = E_total pins the max-min-optimal common threshold in closed
form: eta0* = E_total / sum(C); the power ratios follow as rho = eta0* C / E.

``f0_integral`` and ``ap_region_coefficient`` are the one AP-energy closed
form; the planner and the mean-CIPC benchmark call them.  ``_sector_integrals``
is the one sector quadrature, a batched tensor Gauss-Legendre rule on given
panel breakpoints, and ``ring_coefficients`` the one ring coefficient built on
it.  The planner's screen is its one-panel, 16-node case; the graded rule
(10 nodes a panel on ``_graded_edges``) prices every ring
(``irs_region_coefficient``) and the mean-CIPC inverse-gain integral.

The fixed-placement policy benchmarks (``benchmark_irs_equal_power``,
``benchmark_irs_mean_cipc``) share one position model: Z^2 ~ Gamma(alpha,
beta) at every worst-case grid position, exactly Gamma(1, 1/g_d) at the AP
radii.  A policy picks each position's power p, and ``_policy_report`` tunes
the common rate max-min on the one forward NOP G_alpha(beta W eta0 / p).
``_maxmin_over_rate`` finds the same optimum as evaluating every position at
every rate, but evaluates few: an upper bound from a small seed subset (the
positions of extreme shape and scale, which ``_policy_report`` picks) rules
out most of the 240 coarse rates before any full evaluation (bound and
verify), and inside the golden-section bracket only positions that
monotonicity in eta0 allows to be the minimum are kept, with a 1e-9 relative
margin for rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (IrsSpec, RadioConfig, composite_stats_arrays,
                      irs_power_factor, mean_gain_direct)
from .geometry import CellConfig, RingPlan, ap_spans, irs_distance, irs_distance2
from .numerics import _gl_panels, reg_upper_gamma

SECTOR_NODES = 10                     # Gauss-Legendre nodes per panel of the graded rule
SECTOR_GRADING = 3.0 ** np.arange(6)  # breakpoints at L +- 3^k m and 3^k / L rad, k = 0..5


@dataclass
class RingTableStats:
    """Work counters of this process's ring tables, searches and pricing.

    Telemetry only (the CLI writes them to the ``.meta.json`` sidecars):
    ``fills`` (hi, m, near_ap) keys filled in the planner's tables, ``rows``
    ring coefficients computed in them, ``points`` their integrand points,
    ``fill_s`` the fills' seconds, ``dp_s`` the line searches' seconds less
    fills and pricing, ``priced_rings`` / ``priced_points`` the graded rule's
    sector integrals and integrand points.
    """

    fills: int = 0
    rows: int = 0
    points: int = 0
    fill_s: float = 0.0
    dp_s: float = 0.0
    priced_rings: int = 0
    priced_points: int = 0


RING_TABLE_STATS = RingTableStats()


@dataclass(frozen=True)
class PowerAllocation:
    rho: tuple          # power split, same order as the coefficients (AP first)
    eta0_star: float    # common SNR threshold
    p_no: float         # non-outage target the split was built for

    @property
    def R_bar(self):
        """Common rate log2(1 + eta0*) [bps/Hz]."""
        return math.log2(1.0 + self.eta0_star)

    @property
    def nu_bar(self):
        """Common throughput p_no * R_bar [bps/Hz]."""
        return self.p_no * self.R_bar


@dataclass(frozen=True)
class ThroughputReport:
    method: str
    eta0: float
    p_no: float
    details: dict = field(default_factory=dict)

    @property
    def R_bar(self):
        """Common rate log2(1 + eta0) [bps/Hz]."""
        return math.log2(1.0 + self.eta0)

    @property
    def nu_bar(self):
        """Common throughput p_no * R_bar [bps/Hz]."""
        return self.p_no * self.R_bar


def cipc_power(cfg: RadioConfig, gamma_bar, r):
    """CIPC transmit power: mean received SNR is gamma_bar at every radius."""
    if np.any(np.asarray(gamma_bar) <= 0):
        raise ValueError("cipc_power: gamma_bar must be positive")
    out = np.asarray(gamma_bar, float) * cfg.W / mean_gain_direct(cfg, r)
    return float(out[()]) if np.ndim(out) == 0 else out


def f0_integral(cfg: RadioConfig, R):
    """Closed form of int_0^R (r^2 + H_A^2)^(n0/2) r dr."""
    R = float(R)
    if R < 0:
        raise ValueError("f0_integral: R must be nonnegative")
    e = 0.5 * (cfg.n0 + 2.0)
    return ((R ** 2 + cfg.H_A ** 2) ** e - cfg.H_A ** (cfg.n0 + 2.0)) / (cfg.n0 + 2.0)


def ap_region_coefficient(cfg: RadioConfig, cell: CellConfig, p_no, R_inner) -> float:
    """Energy-per-eta0 coefficient [J] of the AP-only disc of radius R_inner."""
    if not (0.0 < p_no < 1.0):
        raise ValueError("ap_region_coefficient: p_no must lie in (0, 1)")
    return (2.0 * math.pi * cell.ue_density * cfg.W * cfg.t0 * f0_integral(cfg, R_inner)
            / (cfg.alpha0 * math.log(1.0 / p_no)))


def irs_region_coefficient(cfg: RadioConfig, cell: CellConfig, irs: IrsSpec,
                           plan: RingPlan, i, p_no) -> float:
    """Energy-per-eta0 coefficient [J] of ring i (1-based): the graded
    rule's ``ring_coefficients`` of its one row."""
    if not (0.0 < p_no < 1.0):
        raise ValueError("irs_region_coefficient: p_no must lie in (0, 1)")
    lo, hi = plan.ring_bounds(i)
    if hi - lo <= 0.0:
        return 0.0
    L, m = plan.L[i - 1], plan.M[i - 1]
    return float(ring_coefficients(cfg, cell, irs, p_no, m, np.array([L]),
                                   *_graded_edges(lo, hi, L, math.pi / m), SECTOR_NODES)[0])


def ring_coefficients(cfg: RadioConfig, cell: CellConfig, irs: IrsSpec, p_no, m, L,
                      r_edges, az_edges, nodes):
    """Energy-per-eta0 coefficients [J] C = m * lambda * W * t_0 * F of rings,
    one per row: m[b] surfaces (m may be a scalar) on the circle L[b], and F
    twice (mirror symmetry) the integral of beta / q_alpha(p_no) over the half
    sector on the breakpoints r_edges[b] x az_edges[b]."""
    L = L[:, None, None]

    def factor(r, az):
        return irs_power_factor(cfg, irs, r ** 2, L ** 2, irs_distance2(r, L, az), p_no)

    F = 2.0 * _sector_integrals(factor, r_edges, az_edges, nodes)
    return m * cell.ue_density * cfg.W * cfg.t0 * F


def _sector_integrals(f, r_edges, az_edges, nodes):
    """Integrals of f(r, az) * r over polar boxes, one per row: composite GL
    with `nodes` nodes a panel on the breakpoints r_edges[b] (radius) and
    az_edges[b] (azimuth).  f sees (rows, radii, 1) and (rows, 1, azimuths)
    arrays once; each row contracts azimuth first, then radius."""
    r, r_w = _gl_panels(r_edges, nodes)
    az, az_w = _gl_panels(az_edges, nodes)
    vals = f(r[:, :, None], az[:, None, :])
    return np.einsum("bi,bi->b", np.einsum("bij,bj->bi", vals, az_w), r_w * r)


def _graded_edges(lo, hi, L, half):
    """Breakpoints (one row each) of the graded rule on [lo, hi] x [0, half]:
    L +- 3^k m and 3^k / L rad, clipped to the box, grade the panels toward
    (L, 0), where the IRS-UE distance falls to H_I (Davis & Rabinowitz,
    Methods of Numerical Integration, 1984).  Each call counts one priced
    ring in RING_TABLE_STATS."""
    r_edges = np.concatenate(([lo, hi], L - SECTOR_GRADING, L + SECTOR_GRADING))
    az_edges = np.concatenate(([0.0, half], SECTOR_GRADING / L))
    edges = np.unique(np.clip(r_edges, lo, hi))[None], np.unique(np.clip(az_edges, 0, half))[None]
    RING_TABLE_STATS.priced_rings += 1
    RING_TABLE_STATS.priced_points += (edges[0].size - 1) * (edges[1].size - 1) * SECTOR_NODES ** 2
    return edges


def equalize_power(coeffs, cfg: RadioConfig, p_no) -> PowerAllocation:
    """Closed-form max-min power split across regions.

    coeffs holds each region's energy-per-eta0 coefficient C [J].  With every
    region's frame energy equal to eta0 * C and all regions sharing the
    common threshold, the budget gives eta0* = E_total / sum(C).
    """
    C = np.asarray(coeffs, dtype=float)
    if (C < 0).any():
        raise ValueError("equalize_power: coefficients must be nonnegative")
    total = float(C.sum())
    if total <= 0.0:
        raise ValueError("equalize_power: all region coefficients are zero")
    eta0 = cfg.E_total / total
    rho = eta0 * C / cfg.E_total
    return PowerAllocation(rho=tuple(float(v) for v in rho), eta0_star=eta0, p_no=p_no)


def benchmark_equal_power(cfg: RadioConfig, cell: CellConfig, p_no) -> ThroughputReport:
    """AP-only, equal per-UE power; the cell-edge UE pins the common rate."""
    p = cfg.E_total / (cell.K * cfg.t0)
    eta0 = p * mean_gain_direct(cfg, cell.R_ex) * math.log(1.0 / p_no) / cfg.W
    return ThroughputReport(method="ap-equal-power", eta0=eta0, p_no=p_no,
                            details={"p_ue_W": p})


def benchmark_cipc(cfg: RadioConfig, cell: CellConfig, p_no) -> ThroughputReport:
    """AP-only CIPC over the whole cell (single-region equalization)."""
    alloc = equalize_power([ap_region_coefficient(cfg, cell, p_no, cell.R_ex)], cfg, p_no)
    return ThroughputReport(method="ap-cipc", eta0=alloc.eta0_star, p_no=p_no,
                            details={"C0_J": cfg.E_total / alloc.eta0_star})


# ---------------------------------------------------------------------------
# repo-defined IRS power-control benchmarks (placement fixed, policy varied)
# ---------------------------------------------------------------------------

def _worst_case_grid(cfg, cell, irs, plan):
    """Rows (alpha, beta, mean_z2) of Z^2 ~ Gamma(alpha, beta) on a worst-case
    grid: 40 radii x 33 azimuths per ring over its half sector (the
    statistics are mirror-symmetric about the IRS azimuth) and 40 radii per
    AP span, where Z^2 = g_d E is exactly Gamma(1, 1/g_d)."""
    n_r, n_az = 40, 33
    parts = [np.empty((3, 0))]
    for i in range(1, plan.I + 1):
        lo, hi = plan.ring_bounds(i)
        if hi <= lo:
            continue
        L = plan.L[i - 1]
        r = np.linspace(lo if lo > 0 else 1e-6, hi, n_r)[:, None]
        az = np.linspace(0.0, 0.5 * plan.sector_angle(i), n_az)[None, :]
        mean, _, alpha, beta = composite_stats_arrays(cfg, irs, r, L, irs_distance(r, L, az))
        parts.append(np.stack([alpha, beta, mean]).reshape(3, -1))
    for lo, hi in ap_spans(cell, plan):
        g_d = mean_gain_direct(cfg, np.linspace(lo, hi, n_r))
        parts.append(np.stack([np.ones(n_r), 1.0 / g_d, g_d]))
    return np.concatenate(parts, axis=1)


def _maxmin_over_rate(nops, n, seed):
    """Maximize R(eta0) * min-NOP(eta0) over the common threshold.

    nops(eta0, idx) returns the NOPs of grid positions idx (an index array
    into 0..n-1) at threshold eta0, each nonincreasing in eta0; given a
    column of thresholds it returns one row per threshold.  The NOP at eta0
    is the minimum over all n positions, capped at 1.  The search is a
    deterministic 240-point log-space scan of [1e-4, 1e6], then 60
    golden-section steps around its argmax; returns (eta0, nop).  It finds the same numbers
    as evaluating every position at every rate, while evaluating few:

    * Bound and verify.  A minimum over the subset ``seed`` can only be
      larger than or equal to the minimum over all positions, so
      log2(1 + eta0) * min-over-seed is an upper bound on the objective at
      every rate, exactly in floating point.  The bound is taken at all 240
      rates; rates are then evaluated over every position in descending
      bound order until the bound falls below the best exact value found.
      No rate left out can be the argmax (first maximum, as np.argmax).
      The seed sets the cost only, never the result.
    * Monotone bracket.  For eta0 in [a, b], min_j NOP_j(eta0) <= min_j
      NOP_j(a) and NOP_k(eta0) >= NOP_k(b), so only positions with
      NOP_k(b) <= min_j NOP_j(a) can be the minimum inside the bracket.  The
      test carries a relative margin of 1e-9, because computed NOPs are
      monotone only up to rounding: gammaincc's values rose against the
      trend by at most 4.3e-14 relative when measured over 400 shapes of the
      sweep's grids (alpha 1.09 to 235), and by at most 2.8e-15 at alpha = 1
      (the AP radii; 2e5 points of x in [1e-8, 700]), at steps of 1 to 4096
      ulps in x.  The margin keeps every position that a rounding error of
      that size could make the minimum, with four orders of magnitude to
      spare.  A rate the section evaluates outside
      [a, b] (exp of a rounded log endpoint) falls back to every position.
    """
    coarse = 240
    grid = np.exp(np.linspace(math.log(1e-4), math.log(1e6), coarse))
    everything = np.arange(n)

    def min_nop(eta0, idx):
        return float(np.min(nops(eta0, idx), initial=1.0))

    seed_min = np.min(nops(grid[:, None], seed), axis=1, initial=1.0)
    bound = [math.log2(1.0 + e) * float(m) for e, m in zip(grid, seed_min)]
    k, best = -1, -math.inf
    for i in sorted(range(coarse), key=lambda i: -bound[i]):
        if bound[i] < best:
            break
        v = math.log2(1.0 + grid[i]) * min_nop(grid[i], everything)
        if v > best or (v == best and i < k):
            k, best = i, v
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, coarse - 1)]
    floor = float(np.min(nops(a, everything), initial=math.inf)) * (1.0 + 1e-9)
    keep = everything[nops(b, everything) <= floor]

    def nop_of_eta0(eta0):
        return min_nop(eta0, keep if a <= eta0 <= b else everything)

    def objective(eta0):
        return math.log2(1.0 + eta0) * nop_of_eta0(eta0)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    la, lb = math.log(a), math.log(b)
    c = lb - invphi * (lb - la)
    dd = la + invphi * (lb - la)
    fc, fd = objective(math.exp(c)), objective(math.exp(dd))
    for _ in range(60):
        if fc >= fd:
            lb, dd, fd = dd, c, fc
            c = lb - invphi * (lb - la)
            fc = objective(math.exp(c))
        else:
            la, c, fc = c, dd, fd
            dd = la + invphi * (lb - la)
            fd = objective(math.exp(dd))
    eta0 = math.exp(0.5 * (la + lb))
    return eta0, nop_of_eta0(eta0)


def _policy_report(method, alpha, scale, details) -> ThroughputReport:
    """Max-min common rate when position k has NOP G_alpha[k](scale[k] eta0).

    The positions of smallest and largest shape and scale seed the rate
    scan's bound (``_maxmin_over_rate``), which sets its cost only."""
    def nops(eta0, idx):
        return reg_upper_gamma(alpha[idx], scale[idx] * eta0)

    seed = np.unique([np.argmin(alpha), np.argmax(alpha), np.argmin(scale), np.argmax(scale)])
    eta0, nop = _maxmin_over_rate(nops, alpha.size, seed)
    return ThroughputReport(method=method, eta0=eta0, p_no=nop, details=details)


def benchmark_irs_equal_power(cfg, cell, irs, plan) -> ThroughputReport:
    """IRS placement kept, power policy replaced by an equal per-UE split.

    The common rate is tuned so the worst grid position's throughput is
    maximal; unlike the target-NOP policies the achieved NOP floats.
    """
    p = cfg.E_total / (cell.K * cfg.t0)
    alpha, beta, _ = _worst_case_grid(cfg, cell, irs, plan)
    return _policy_report("irs-equal-power", alpha, beta * cfg.W / p, {"p_ue_W": p})


def benchmark_irs_mean_cipc(cfg, cell, irs, plan) -> ThroughputReport:
    """IRS placement kept, power set by mean-gain inversion on E{Z^2}.

    gamma_bar is calibrated so the expected frame energy over uniform UE
    positions meets the budget; the common rate is then tuned max-min as in
    the equal-power variant.
    """
    inv_gain_integral = 0.0  # integral of 1/E{Z^2} over the cell [m^2/gain]
    for i in range(1, plan.I + 1):
        lo, hi = plan.ring_bounds(i)
        if hi <= lo:
            continue
        L = plan.L[i - 1]

        def inv_mean(r, az):
            mean, _, _, _ = composite_stats_arrays(cfg, irs, r, L, irs_distance(r, L, az))
            return 1.0 / mean

        edges = _graded_edges(lo, hi, L, 0.5 * plan.sector_angle(i))
        inv_gain_integral += (plan.M[i - 1] * 2.0
                              * float(_sector_integrals(inv_mean, *edges, SECTOR_NODES)[0]))
    for lo, hi in ap_spans(cell, plan):  # 1/g_d = (r^2 + H_A^2)^(n0/2) / alpha0
        inv_gain_integral += (2.0 * math.pi * (f0_integral(cfg, hi) - f0_integral(cfg, lo))
                              / cfg.alpha0)
    gamma_bar = cfg.E_total / (cell.ue_density * cfg.W * cfg.t0 * inv_gain_integral)

    alpha, beta, mean_z2 = _worst_case_grid(cfg, cell, irs, plan)
    # p = gbar W / E{Z^2}
    return _policy_report("irs-mean-cipc", alpha, beta * mean_z2 / gamma_bar,
                          {"gamma_bar": gamma_bar})
