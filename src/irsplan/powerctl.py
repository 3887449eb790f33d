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
form; the planner and the mean-CIPC benchmark call them.

The fixed-placement policy benchmarks (``benchmark_irs_equal_power``,
``benchmark_irs_mean_cipc``) tune the common rate max-min over a grid of
positions.  ``_maxmin_over_rate`` finds the same optimum as evaluating every
position at every rate, but evaluates few: an upper bound from a small seed
subset rules out most of the 240 coarse rates before any full evaluation
(bound and verify), and inside the golden-section bracket only positions
that monotonicity in eta0 allows to be the minimum are kept, with a 1e-9
relative margin for rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (IrsSpec, RadioConfig, composite_stats_arrays,
                      irs_power_factor, mean_gain_direct)
from .geometry import CellConfig, RingPlan, irs_distance
from .numerics import get_tail_quantile, integrate_polar_sector, reg_upper_gamma


@dataclass(frozen=True)
class RegionEnergyCoefficient:
    region: str   # "ap" or "ring<i>"
    C: float      # energy per unit eta0 [J]


@dataclass(frozen=True)
class PowerAllocation:
    rho: tuple          # power split, same order as the coefficient list
    eta0_star: float    # common SNR threshold
    R_bar: float        # common rate [bps/Hz]
    nu_bar: float       # common throughput [bps/Hz]
    p_no: float         # non-outage target the split was built for


@dataclass(frozen=True)
class ThroughputReport:
    method: str
    eta0: float
    R_bar: float
    p_no: float
    nu_bar: float
    details: dict = field(default_factory=dict)


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


def ap_region_coefficient(cfg: RadioConfig, cell: CellConfig, p_no, R_inner) -> RegionEnergyCoefficient:
    """Energy-per-eta0 coefficient of the AP-only disc of radius R_inner."""
    if not (0.0 < p_no < 1.0):
        raise ValueError("ap_region_coefficient: p_no must lie in (0, 1)")
    C = (2.0 * math.pi * cell.ue_density * cfg.W * cfg.t0 * f0_integral(cfg, R_inner)
         / (cfg.alpha0 * math.log(1.0 / p_no)))
    return RegionEnergyCoefficient(region="ap", C=C)


def irs_region_coefficient(cfg: RadioConfig, cell: CellConfig, irs: IrsSpec,
                           plan: RingPlan, i, p_no) -> RegionEnergyCoefficient:
    """Energy-per-eta0 coefficient of ring i (1-based).

    F_i integrates beta / q_alpha(p_no) over one sector (adaptive polar
    quadrature, exploiting mirror symmetry about the IRS azimuth); the ring
    coefficient is C_i = M_i * lambda * W * t_0 * F_i.
    """
    if not (0.0 < p_no < 1.0):
        raise ValueError("irs_region_coefficient: p_no must lie in (0, 1)")
    lo, hi = plan.ring_bounds(i)
    name = f"ring{i}"
    if hi - lo <= 0.0:
        return RegionEnergyCoefficient(region=name, C=0.0)
    L = plan.L[i - 1]
    phi = plan.sector_angle(i)
    quantile = get_tail_quantile(p_no)

    def integrand(r, az):
        return irs_power_factor(cfg, irs, r, L, irs_distance(r, L, az), quantile)

    F = 2.0 * integrate_polar_sector(integrand, lo, hi, 0.5 * phi)
    C = plan.M[i - 1] * cell.ue_density * cfg.W * cfg.t0 * F
    return RegionEnergyCoefficient(region=name, C=C)


def equalize_power(coeffs, cfg: RadioConfig, p_no) -> PowerAllocation:
    """Closed-form max-min power split across regions.

    With every region's frame energy equal to eta0 * C_region and all regions
    sharing the common threshold, the budget gives eta0* = E_total / sum(C).
    """
    C = np.asarray([c.C for c in coeffs], dtype=float)
    if (C < 0).any():
        raise ValueError("equalize_power: coefficients must be nonnegative")
    total = float(C.sum())
    if total <= 0.0:
        raise ValueError("equalize_power: all region coefficients are zero")
    eta0 = cfg.E_total / total
    rho = eta0 * C / cfg.E_total
    R_bar = math.log2(1.0 + eta0)
    return PowerAllocation(rho=tuple(float(v) for v in rho), eta0_star=eta0,
                           R_bar=R_bar, nu_bar=p_no * R_bar, p_no=p_no)


def benchmark_equal_power(cfg: RadioConfig, cell: CellConfig, p_no) -> ThroughputReport:
    """AP-only, equal per-UE power; the cell-edge UE pins the common rate."""
    p = cfg.E_total / (cell.K * cfg.t0)
    eta0 = p * mean_gain_direct(cfg, cell.R_ex) * math.log(1.0 / p_no) / cfg.W
    R_bar = math.log2(1.0 + eta0)
    return ThroughputReport(method="ap-equal-power", eta0=eta0, R_bar=R_bar,
                            p_no=p_no, nu_bar=p_no * R_bar,
                            details={"p_ue_W": p, "benchmark": True})


def benchmark_cipc(cfg: RadioConfig, cell: CellConfig, p_no) -> ThroughputReport:
    """AP-only CIPC over the whole cell (single-region equalization)."""
    alloc = equalize_power([ap_region_coefficient(cfg, cell, p_no, cell.R_ex)], cfg, p_no)
    return ThroughputReport(method="ap-cipc", eta0=alloc.eta0_star, R_bar=alloc.R_bar,
                            p_no=p_no, nu_bar=alloc.nu_bar,
                            details={"C0_J": cfg.E_total / alloc.eta0_star, "benchmark": True})


# ---------------------------------------------------------------------------
# repo-defined IRS power-control benchmarks (placement fixed, policy varied)
# ---------------------------------------------------------------------------

def _ap_spans(cell, plan):
    """Nonempty radial spans (lo, hi) served by the AP alone, inner disc first.

    The inner disc ends at the last ring boundary R_in[I], which is R_in[0]
    for a plan without rings; the exterior annulus (R_in[0], R_ex] is
    AP-served whenever the outermost boundary sits inside the cell edge.
    """
    spans = ((0.0, plan.R_in[-1]), (plan.R_in[0], cell.R_ex))
    return [(lo, hi) for lo, hi in spans if hi > lo]


def _worst_case_grid(cfg, cell, irs, plan):
    """Mean-Z2 / direct-gain samples over a radial-angular worst-case grid.

    Returns (mean_z2, alpha, beta) arrays for IRS sectors plus an AP-region
    radius grid; covers each ring's full radial span with 40 radii and half
    sector with 33 azimuths (the statistics are mirror-symmetric about the
    IRS azimuth), and each AP span with 40 radii.
    """
    n_r, n_az = 40, 33
    mean_list, alpha_list, beta_list = [], [], []
    for i in range(1, plan.I + 1):
        lo, hi = plan.ring_bounds(i)
        if hi <= lo:
            continue
        L = plan.L[i - 1]
        half = 0.5 * plan.sector_angle(i)
        r = np.linspace(lo if lo > 0 else 1e-6, hi, n_r)[:, None]
        az = np.linspace(0.0, half, n_az)[None, :]
        mean, _, alpha, beta = composite_stats_arrays(cfg, irs, r, L, irs_distance(r, L, az))
        mean_list.append(mean.ravel())
        alpha_list.append(alpha.ravel())
        beta_list.append(beta.ravel())
    if mean_list:
        mean_z2 = np.concatenate(mean_list)
        alpha = np.concatenate(alpha_list)
        beta = np.concatenate(beta_list)
    else:
        mean_z2 = alpha = beta = np.empty(0)
    r_ap = [np.linspace(lo, hi, n_r) for lo, hi in _ap_spans(cell, plan)]
    g_ap = mean_gain_direct(cfg, np.concatenate(r_ap)) if r_ap else np.empty(0)
    return mean_z2, alpha, beta, g_ap


def _maxmin_over_rate(nops, n, seed):
    """Maximize R(eta0) * min-NOP(eta0) over the common threshold.

    nops(eta0, idx) returns the NOPs of grid positions idx (an index array
    into 0..n-1) at threshold eta0, each nonincreasing in eta0; given a
    column of thresholds it returns one row per threshold.  The NOP at eta0
    is the minimum over all n positions, capped at 1.  The search is a
    deterministic 240-point log-space scan of [1e-4, 1e6], then 60
    golden-section steps around its argmax; returns a
    ThroughputReport-ready (eta0, nu_bar, nop).  It finds the same numbers
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
      monotone only up to rounding: exp errs by under one ulp, and
      gammaincc's values rose against the trend by at most 4.3e-14 relative
      when measured over 400 shapes of the sweep's grids (alpha 1.09 to
      235) at steps of 1 to 4096 ulps in x.  The margin keeps every position
      that a rounding error of that size could make the minimum, with four
      orders of magnitude to spare.  A rate the section evaluates outside
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
    return eta0, objective(eta0), nop_of_eta0(eta0)


def _pareto_seed(alpha, beta):
    """Positions no other beats on both low alpha and high beta.

    G_alpha(beta x) increases with alpha and decreases with beta, so every
    other position's NOP is at least one of these at any rate.
    """
    order = np.lexsort((-beta, alpha))
    b = beta[order]
    prev_max = np.maximum.accumulate(np.concatenate([[-np.inf], b[:-1]]))
    return order[b > prev_max]


def benchmark_irs_equal_power(cfg, cell, irs, plan) -> ThroughputReport:
    """IRS placement kept, power policy replaced by an equal per-UE split.

    The common rate is tuned so the worst grid position's throughput is
    maximal; unlike the target-NOP policies the achieved NOP floats.
    Positions 0..n_irs-1 are the surface grid, the rest the AP radii.
    """
    p = cfg.E_total / (cell.K * cfg.t0)
    _, alpha, beta, g_ap = _worst_case_grid(cfg, cell, irs, plan)
    n_irs = alpha.size

    def nops(eta0, idx):
        thr = cfg.W * eta0 / p
        on_irs = idx < n_irs
        out = np.empty(np.broadcast_shapes(np.shape(thr), idx.shape))
        out[..., ~on_irs] = np.exp(-thr / g_ap[idx[~on_irs] - n_irs])
        if on_irs.any():
            irs_idx = idx[on_irs]
            out[..., on_irs] = reg_upper_gamma(alpha[irs_idx], beta[irs_idx] * thr)
        return out

    seed = _pareto_seed(alpha, beta)
    if g_ap.size:
        seed = np.append(seed, n_irs + np.argmin(g_ap))
    eta0, nu, nop = _maxmin_over_rate(nops, n_irs + g_ap.size, seed)
    return ThroughputReport(method="irs-equal-power", eta0=eta0,
                            R_bar=math.log2(1.0 + eta0), p_no=nop, nu_bar=nu,
                            details={"p_ue_W": p, "benchmark": True,
                                     "policy": "equal per-UE power on the fixed placement"})


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

        def inv_mean(r, az, L=L):
            mean, _, _, _ = composite_stats_arrays(cfg, irs, r, L, irs_distance(r, L, az))
            return 1.0 / mean

        half = 0.5 * plan.sector_angle(i)
        inv_gain_integral += plan.M[i - 1] * 2.0 * integrate_polar_sector(inv_mean, lo, hi, half)
    for lo, hi in _ap_spans(cell, plan):  # 1/g_d = (r^2 + H_A^2)^(n0/2) / alpha0
        inv_gain_integral += (2.0 * math.pi * (f0_integral(cfg, hi) - f0_integral(cfg, lo))
                              / cfg.alpha0)
    gamma_bar = cfg.E_total / (cell.ue_density * cfg.W * cfg.t0 * inv_gain_integral)

    mean_z2, alpha, beta, g_ap = _worst_case_grid(cfg, cell, irs, plan)
    # thr = W eta0 / p with p = gbar W / mean; beta * mean is alpha up to
    # rounding, and G_alpha(alpha t) is monotone in alpha, so the extreme
    # shapes seed the bound.  Position n_irs (if any) is the AP term, the
    # same at every AP radius.
    beta_mean = beta * mean_z2
    n_irs = alpha.size
    ap_nop = np.vectorize(lambda eta0: math.exp(-eta0 / gamma_bar), otypes=[float])

    def nops(eta0, idx):
        on_irs = idx < n_irs
        out = np.empty(np.broadcast_shapes(np.shape(eta0), idx.shape))
        out[...] = ap_nop(eta0)
        if on_irs.any():
            irs_idx = idx[on_irs]
            out[..., on_irs] = reg_upper_gamma(alpha[irs_idx],
                                               beta_mean[irs_idx] * eta0 / gamma_bar)
        return out

    seed = np.unique([np.argmin(alpha), np.argmax(alpha)]) if n_irs else np.empty(0, int)
    if g_ap.size:
        seed = np.append(seed, n_irs)
    eta0, nu, nop = _maxmin_over_rate(nops, n_irs + min(g_ap.size, 1), seed)
    return ThroughputReport(method="irs-mean-cipc", eta0=eta0,
                            R_bar=math.log2(1.0 + eta0), p_no=nop, nu_bar=nu,
                            details={"gamma_bar": gamma_bar, "benchmark": True,
                                     "policy": "mean-gain inversion on the fixed placement"})
