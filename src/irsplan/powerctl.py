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
``ring_coefficients`` is the one ring coefficient: it owns the integrand,
and one of two rules integrates it.  The graded rule, ``_sector_integrals``
(a batched tensor Gauss-Legendre rule, 10 nodes a panel on the breakpoints of
``_graded_edges``), prices every ring (``irs_region_coefficient``) and the
mean-CIPC inverse-gain integral.  The shared-azimuth screen
(``screen_coefficients``) fills the planner's ring table: it integrates
each ring once for all of its surface counts m, reading the azimuth
integral up to pi/m as a base [0, pi/2^k] shared by the m of one octave
(2^(k-1), 2^k] plus the tail [pi/2^k, pi/m], which each m takes as the exact
integral of one interpolant of the integrand on the octave [pi/2^k,
pi/2^(k-1)], shared too: a read costs weights, not integrand points.

The fixed-placement policy benchmarks (``benchmark_irs_equal_power``,
``benchmark_irs_mean_cipc``) share one position model: Z^2 ~ Gamma(alpha,
beta) at every worst-case grid position, exactly Gamma(1, 1/g_d) at the AP
radii.  A policy picks each position's power p, and ``_policy_report`` tunes
the common rate max-min on the one forward NOP G_alpha(beta W eta0 / p), which
``numerics.upper_gamma_tail`` gives with its hazard.  Each NOP is log-concave
in ln eta0 for every shape, and so is R * min-NOP: its maximizer is the root
of a derivative.  ``_maxmin_rate`` finds it by Newton's method on an active
set of positions, then evaluates every position once there and adds any below
the active minimum.  That minimum bounds the full one from above at every
rate and equals it at the root, so the root is the global max-min.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import (IrsSpec, RadioConfig, composite_stats_arrays,
                      irs_power_factor, mean_gain_direct)
from .geometry import CellConfig, RingPlan, ap_spans, irs_distance, irs_distance2
from .numerics import NumericsError, _gl_panels, concat_ranges, upper_gamma_tail

SECTOR_NODES = 10                     # Gauss-Legendre nodes per panel of the graded rule
SECTOR_GRADING = 3.0 ** np.arange(6)  # breakpoints at L +- 3^k m and 3^k / L rad, k = 0..5
# the screen's GL nodes a radial panel, a base azimuth panel and an octave
# [pi/2^k, pi/2^(k-1)], whose interpolant gives every read's tail
SCREEN_NODES = (6, 3, 8)
SCREEN_CHUNK_POINTS = 16_384  # integrand points a call: its arrays (128 KB) stay in a core's L2


@dataclass
class RingTableStats:
    """Work counters of this process's ring tables, searches and pricing.

    Telemetry only (the CLI writes them to the ``.meta.json`` sidecars):
    ``fills`` (hi, m, near_ap) keys filled in the planner's tables, ``rows``
    ring coefficients computed in them, ``rings`` the rings the screen
    integrated for them, ``points`` its integrand points (radial times
    azimuth nodes, padding included: each (ring, k) group's base panels and
    octave interpolation nodes; a read adds none), ``fill_s`` the
    fills' seconds, ``dp_s`` the line searches' seconds less fills and
    pricing, ``priced_rings`` / ``priced_points`` the rings the graded rule
    priced (``irs_region_coefficient``, once a distinct ring per
    ``algorithm1`` call or line search; the mean-CIPC benchmark's integrals
    price no ring) and their integrand points.  ``screen_max_rel_error`` is
    the largest |screen / graded - 1| on the rings of the line searches'
    plans, and ``min_runner_up_gap`` the smallest relative gap between a
    budget's best and runner-up R_in[1] costs (None before any line
    search): a gap below the error marks a pick the screen could flip.
    """

    fills: int = 0
    rows: int = 0
    rings: int = 0
    points: int = 0
    fill_s: float = 0.0
    dp_s: float = 0.0
    priced_rings: int = 0
    priced_points: int = 0
    screen_max_rel_error: Optional[float] = None
    min_runner_up_gap: Optional[float] = None


RING_TABLE_STATS = RingTableStats()


@dataclass
class PolicyScanStats:
    """This process's policy rate solves (``_maxmin_rate``), for the CLI's
    sidecars: ``reports``, ``full_evaluations`` of every grid position (one
    per active-set pass), ``newton_steps`` (one rate each) and ``policy_s``."""

    reports: int = 0
    full_evaluations: int = 0
    newton_steps: int = 0
    policy_s: float = 0.0


POLICY_SCAN_STATS = PolicyScanStats()


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
    edges = _graded_edges(lo, hi, L, math.pi / m)
    RING_TABLE_STATS.priced_rings += 1
    RING_TABLE_STATS.priced_points += (edges[0].size - 1) * (edges[1].size - 1) * SECTOR_NODES ** 2
    return float(ring_coefficients(cfg, cell, irs, p_no, m, np.array([L]),
                                   lambda f: _sector_integrals(f, *edges, SECTOR_NODES))[0])


def ring_coefficients(cfg: RadioConfig, cell: CellConfig, irs: IrsSpec, p_no, m, L, integrals):
    """Energy-per-eta0 coefficients [J] C = m * lambda * W * t_0 * F of rings
    on the circles L (one per ring), with m surfaces (m broadcasts against
    the output): F is twice (mirror symmetry) the integral of
    beta / q_alpha(p_no) over the half sector, as integrals(f) computes it
    from f(r, az, rows) on (rings, ., .) arrays of the rings L[rows] (rows
    defaults to all of them)."""
    def factor(r, az, rows=slice(None)):
        l = L[rows, None, None]
        return irs_power_factor(cfg, irs, r ** 2, l ** 2, irs_distance2(r, l, az), p_no)

    F = 2.0 * integrals(factor)
    return m * cell.ue_density * cfg.W * cfg.t0 * F


def screen_coefficients(cfg: RadioConfig, cell: CellConfig, irs: IrsSpec, p_no,
                        lo, hi, L, m, first, count, max_points):
    """The line search's screen: ``ring_coefficients`` of the rings [lo[b],
    hi[b]] on the circles L[b], ring b with each of the surface counts
    m[first[b]:first[b] + count[b]] (ascending).  Each ring is integrated
    once for all of its m.

    Radius: two SCREEN_NODES[0]-node GL panels split at L, clipped to the
    ring.  Azimuth up to pi/m, with k = ceil(log2 m): the base [0, pi/2^k],
    graded at 3^j/L (SECTOR_GRADING) with SCREEN_NODES[1] nodes a panel, plus
    the tail [pi/2^k, pi/m], the exact integral of the polynomial that
    interpolates the integrand at the SCREEN_NODES[2] GL nodes of the octave
    [pi/2^k, pi/2^(k-1)] (product integration, Davis & Rabinowitz, Methods
    of Numerical Integration, 1984).  Base and octave are shared by the
    ring's reads of one k; a read at m = 2^k has no tail, and a group whose
    one read is that m has no octave.  A read's terms depend on its ring and
    m alone, so its bits do not depend on the other reads.  The reads fall
    into (ring, k) groups (``_screen_groups``), found once from the keys m.
    The rings are laid out in batches of similar azimuth node and read
    counts, of at most max_points integrand points and as many reads (or one
    ring) each, and each batch takes its rings' groups.  Yields (rings b,
    reads t into m, ring by ring, and their coefficients) per batch, and
    counts the rings in RING_TABLE_STATS.
    """
    # held across the batches: a few arrays a group, the tail weights a key
    # and none a read (the fill's memory peak, which
    # test_line_search_memory_is_bounded pins)
    n_groups, k, start, reads = _screen_groups(m, first, count)
    g_first = np.cumsum(n_groups) - n_groups
    panels = 1 + (SECTOR_GRADING / np.repeat(L, n_groups)[:, None]
                  < np.ldexp(math.pi, -k)[:, None]).sum(axis=1)
    octave = m[start] < 2 ** k  # some read of the group is below 2^k
    tail_w = _tail_weights(m, SCREEN_NODES[2])
    n_az = SCREEN_NODES[1] * panels + SCREEN_NODES[2] * octave
    size = np.add.reduceat(n_az, g_first) + count  # a read holds about an azimuth's memory
    order = np.argsort(size, kind="stable")
    for batch in _runs(size[order], max_points // (2 * SCREEN_NODES[0])):
        b = order[batch]
        g, t = concat_ranges(g_first[b], n_groups[b]), concat_ranges(first[b], count[b])
        integrals = _screen_batch(lo[b], hi[b], L[b], np.repeat(np.arange(b.size), n_groups[b]),
                                  k[g], reads[g], panels[g], octave[g], tail_w[t])
        yield b, t, ring_coefficients(cfg, cell, irs, p_no, m[t], L[b], integrals)
        RING_TABLE_STATS.rings += b.size


def _screen_groups(m, first, count):
    """The screen's (ring, k) groups of the reads m[first[b]:first[b] +
    count[b]] of each ring b (ascending m): the runs of equal k = ceil(log2
    m) over the keys m, clipped to each ring's reads.  Returns each ring's
    group count, and each group's k, first read and read count, ring by
    ring, then by k (a group's reads follow those of the group before it)."""
    k = np.frexp(m - 1.0)[1]  # ceil(log2 m)
    run = np.flatnonzero(np.diff(k, prepend=-1))  # each run's first key
    a = np.searchsorted(run, first, side="right") - 1  # the run of a ring's first read
    n = np.searchsorted(run, first + count) - a
    ring, g = np.repeat(np.arange(first.size), n), concat_ranges(a, n)
    start = np.maximum(run[g], first[ring])
    end = np.minimum(np.append(run[1:], m.size)[g], (first + count)[ring])
    return n, k[run[g]], start, end - start


def _runs(size, bound):
    """Slices [a, b) that cover the ascending array `size` in order, each
    with (b - a) * size[b - 1] <= bound, or of one entry."""
    a = 0
    while a < size.size:
        ahead = np.arange(1, min(size.size - a, max(1, bound // size[a])) + 1)
        b = a + max(1, int(np.searchsorted(ahead * size[a:a + ahead.size], bound, side="right")))
        yield slice(a, b)
        a = b


def _screen_batch(lo, hi, L, owner, k, reads, n_panels, octave, tail_w):
    """The screen's integrals(f) for one batch of rings [lo, hi] on the
    circles L, with (ring, k) groups of ring owner, octave k, `reads` reads,
    n_panels base panels and, where `octave`, the octave's SCREEN_NODES[2]
    interpolation nodes, ring by ring, then by k, and the tail weights
    tail_w on those nodes of the groups' reads, in order: a read is its
    group's base plus its weights times the octave's values.  f is called on runs of rings of at most SCREEN_CHUNK_POINTS
    points, each padded to its widest ring with azimuths that no read sums,
    and contracted over radius first.  Counts the points in
    RING_TABLE_STATS."""
    n_r, n_base, q = SCREEN_NODES
    r, r_w = _gl_panels(np.stack([lo, np.clip(L, lo, hi), hi], axis=1), n_r)
    r_w *= r
    top = np.ldexp(math.pi, -k)[:, None]  # base breakpoints: 0, the 3^j/L below pi/2^k, pi/2^k...
    edges = np.sort(np.concatenate([np.zeros_like(top), top,
                                    np.minimum(SECTOR_GRADING / L[owner, None], top)], axis=1))
    g_size = n_base * n_panels + q * octave
    size = np.bincount(owner, g_size)
    width = int(size.max())
    at = np.cumsum(g_size) - g_size  # each group's first azimuth: its base, then its octave
    at += owner * width - at[np.flatnonzero(np.diff(owner, prepend=-1))][owner]  # padded rows
    base_of, slot = np.nonzero(np.arange(edges.shape[1] - 1) < n_panels[:, None])
    base_az, base_w = _gl_panels(np.stack([edges[base_of, slot], edges[base_of, slot + 1]],
                                          axis=1), n_base)
    base_at = (at[base_of] + n_base * slot)[:, None] + np.arange(n_base)
    # a group without an octave points its reads (m = 2^k, weights 0) at its first azimuth
    oct_at = np.where(octave[:, None], (at + n_base * n_panels)[:, None] + np.arange(q),
                      at[:, None])
    az = np.zeros((lo.size, width))
    az.reshape(-1)[base_at] = base_az
    az.reshape(-1)[oct_at[octave]] = _gl_panels(np.concatenate([top, 2.0 * top], axis=1)[octave],
                                                q)[0]
    group = np.repeat(np.arange(reads.size), reads)

    def integrals(f):
        h = np.empty((lo.size, width))
        for rows in _runs(size, SCREEN_CHUNK_POINTS // (2 * n_r)):
            w = int(size[rows].max())
            vals = f(r[rows, None, :], np.ascontiguousarray(az[rows, :w, None]), rows)
            h[rows, :w] = np.einsum("bar,br->ba", vals, r_w[rows])
            RING_TABLE_STATS.points += vals.size
        h = h.reshape(-1)
        base = np.add.reduceat((h[base_at] * base_w).sum(axis=1), np.cumsum(n_panels) - n_panels)
        return base[group] + (h[oct_at[group]] * tail_w).sum(axis=1)

    return integrals


def _tail_weights(m, q):
    """Weights, one row per surface count m, on the q GL nodes of the octave
    [pi/2^k, pi/2^(k-1)], k = ceil(log2 m), that integrate the polynomial
    interpolating there over the tail [pi/2^k, pi/m]: [-1, u], u = 2^(k+1)/m
    - 3, on the nodes x of [-1, 1], with weights w_i sum_j (2j + 1) / 2
    P_j(x_i) int_-1^u P_j, as the nodes make P_0..P_(q-1) discretely
    orthogonal, int_-1^u P_0 = u + 1 and int_-1^u P_j = (P_(j+1)(u) -
    P_(j-1)(u)) / (2j + 1).  Every weight is 0 at m = 2^k (u = -1)."""
    k = np.frexp(m - 1.0)[1]
    u = np.ldexp(2.0, k) / m - 3.0
    x, w = _gl_panels(np.array([-1.0, 1.0]), q)
    P_u = np.polynomial.legendre.legvander(u, q)
    P_x = np.polynomial.legendre.legvander(x, q - 1)
    out = np.multiply.outer(0.5 * (u + 1.0), P_x[:, 0])
    for j in range(1, q):
        out += np.multiply.outer(0.5 * (P_u[:, j + 1] - P_u[:, j - 1]), P_x[:, j])
    return out * w * np.ldexp(0.5 * math.pi, -k)[:, None]  # half the octave's width


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
    Methods of Numerical Integration, 1984)."""
    r_edges = np.concatenate(([lo, hi], L - SECTOR_GRADING, L + SECTOR_GRADING))
    az_edges = np.concatenate(([0.0, half], SECTOR_GRADING / L))
    return (_sorted_unique(np.clip(r_edges, lo, hi))[None],
            _sorted_unique(np.clip(az_edges, 0, half))[None])


def _sorted_unique(x):
    """np.unique(x) of a 1-d array, without the numpy.ma import that np.unique
    (and np.union1d) pull in through np.ma.is_masked on first use."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])]


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


def _maxmin_rate(tail, alpha, scale, active):
    """(eta0, NOP) maximizing log2(1 + eta0) min_k Q_k over eta0 in [1e-4, 1e6],
    Q_k = tail(scale[k] eta0, k)[0] (1 for no position), from ``active`` up.

    In u = ln eta0, with x = scale_j e^u at the binding position j, h = D_j /
    Q_j and g1 = e^u / ((1 + e^u) ln(1 + e^u)): phi = ln log2(1 + e^u) + ln Q_j
    has phi' = g1 - h and phi'' = g1 (1 / (1 + e^u) - g1) - h (alpha_j - x + h)
    < 0, as h > x - alpha_j for every shape (integrate t^(a-1) e^-t <=
    -(t^a e^-t)' / (x - a) over t >= x > a).  Newton's method on phi' keeps a
    bracket and bisects it when a step leaves it; Q_j = 0 reads as phi' =
    -inf, and a step below 2^-30 ends it, as the next would be below an ulp.
    """
    lo, hi = math.log(1e-4), math.log(1e6)

    def slopes(u, idx):  # phi' and phi'' at the rates e^u (an array)
        eu = np.exp(u)
        xs = scale[idx] * eu[:, None]
        qs, lnds = (v.reshape(xs.shape) for v in tail(xs.ravel(), np.tile(idx, u.size)))
        j = (np.arange(u.size), np.argmin(qs, axis=1))
        q, x = qs[j], xs[j]
        h = np.exp(lnds[j] - np.log(q, out=np.full(u.size, -math.inf), where=q > 0.0))
        g1 = eu / ((1.0 + eu) * np.log1p(eu))
        return g1 - h, g1 * (1.0 / (1.0 + eu) - g1) - h * (alpha[idx[j[1]]] - x + h)

    def root(u, idx):
        d1, d2 = slopes(np.array([lo, hi, u]), idx)
        if d1[0] <= 0.0 or d1[1] >= 0.0:
            return lo if d1[0] <= 0.0 else hi
        a, b, d1, d2 = lo, hi, d1[2], d2[2]
        for _ in range(200):
            POLICY_SCAN_STATS.newton_steps += 1
            a, b = (u, b) if d1 > 0.0 else (a, u)
            step = -d1 / d2 if math.isfinite(d1) and d2 < 0.0 else math.inf
            if abs(step) <= 2.0 ** -30:
                return u + step
            u = u + step if a < u + step < b else 0.5 * (a + b)
            if not a < u < b:  # a bracket of one ulp
                return u
            d1, d2 = (float(v[0]) for v in slopes(np.array([u]), idx))
        raise NumericsError("policy rate: Newton iteration did not converge")

    every, u = np.arange(alpha.size), 0.5 * (lo + hi)
    while True:
        u = root(u, active) if active.size else hi  # no position: phi' = g1 > 0
        q = tail(scale * math.exp(u), every)[0]
        POLICY_SCAN_STATS.full_evaluations += 1
        below = np.flatnonzero(q < q[active].min(initial=1.0))
        if not below.size:
            return math.exp(u), float(q.min(initial=1.0))
        active = np.sort(np.concatenate([active, below]))  # disjoint: below is under q[active]


def _policy_report(method, alpha, scale, details) -> ThroughputReport:
    """Max-min common rate when position k has NOP G_alpha[k](scale[k] eta0), from
    the positions of extreme shape and scale up.  A shape not positive and finite is refused."""
    if not np.all((alpha > 0.0) & np.isfinite(alpha)):
        raise NumericsError(f"{method}: rate solve on Gamma shapes from {alpha.min():g}")
    start = time.perf_counter()
    seed = _sorted_unique(np.array([np.argmin(alpha), np.argmax(alpha),
                                    np.argmin(scale), np.argmax(scale)]))
    eta0, nop = _maxmin_rate(upper_gamma_tail(alpha), alpha, scale, seed)
    POLICY_SCAN_STATS.reports += 1
    POLICY_SCAN_STATS.policy_s += time.perf_counter() - start
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
