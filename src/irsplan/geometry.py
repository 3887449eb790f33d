"""Cell layout: ring partition, annulus sectors, and UE-region membership.

The cell is a disc of radius R_ex around the AP.  IRS-served UEs live in I
concentric rings indexed outermost-first: ring i spans radii
[R_in[i], R_in[i-1]) (ring 1 also keeps R_in[0]) and is tiled by M_i equal
annulus sectors, each with one IRS on the circle of radius L_i.  Ring 1's
surfaces sit on the near-AP circle L_min (they beamform outward to the cell
edge); every deeper ring's circle is the mid-radius of its annulus.  UEs
inside R_in[I] (and, if the exterior range is open, beyond R_in[0]) are
served by the AP alone.

``surface_circle`` is the one circle rule, ``min_surfaces`` the one load-cap
rule and ``ap_spans`` the one list of AP-served spans.  One routine,
``locate_ue_arrays``, maps UE position arrays to their ring, sector and link
distances.  The IRS-UE distance has one law of cosines, ``irs_distance2``,
which gives its square: the power-factor integrands read d^2 straight from
it, and ``irs_distance`` is its square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CellConfig:
    R_ex: float = 250.0       # cell radius [m]
    K: int = 500              # number of UEs
    L_min: float = 10.0       # near-AP IRS circle radius [m]
    M1_max: int = 10          # IRS positions available on the near-AP circle
    K_irs_max: float = 10.0   # cap on mean UEs per IRS sector

    def __post_init__(self):
        if self.R_ex <= 0 or self.K < 1:
            raise ValueError("CellConfig: R_ex > 0 and K >= 1 required")
        if self.L_min < 1.0 or self.M1_max < 0 or self.K_irs_max < 1.0:
            raise ValueError("CellConfig: L_min >= 1, M1_max >= 0, K_irs_max >= 1 required")

    @property
    def ue_density(self):
        """Mean UEs per m^2 (uniform over the disc)."""
        return self.K / (math.pi * self.R_ex ** 2)


@dataclass(frozen=True)
class RingPlan:
    """A ring deployment: radii (descending, length I+1), IRS counts, circles."""

    R_in: tuple      # (R_in[0], ..., R_in[I]) [m], nonincreasing
    M: tuple         # (M_1, ..., M_I) surfaces per ring
    L: tuple         # (L_1, ..., L_I) IRS circle radii [m]

    @property
    def I(self):
        return len(self.M)

    def ring_bounds(self, i):
        """(inner, outer) radii of ring i (1-based)."""
        return self.R_in[i], self.R_in[i - 1]

    def sector_angle(self, i):
        """Angular span phi_i = 2 pi / M_i of ring i's sectors [rad]."""
        return TWO_PI / self.M[i - 1]


def make_ring_plan(cell: CellConfig, R_in, M) -> RingPlan:
    """Construct a RingPlan with the standard IRS circle radii
    (``surface_circle``)."""
    R_in = tuple(float(v) for v in R_in)
    M = tuple(int(m) for m in M)
    if len(R_in) != len(M) + 1:
        raise ValueError("make_ring_plan: need len(R_in) == len(M) + 1")
    L = tuple(float(surface_circle(cell, i == 1, R_in[i], R_in[i - 1]))
              for i in range(1, len(M) + 1))
    return RingPlan(R_in=R_in, M=M, L=L)


def surface_circle(cell: CellConfig, near_ap, lo, hi):
    """Radius of the circle a ring's surfaces sit on: the near-AP circle
    L_min for ring 1 (near_ap), the annulus mid-radius (lo + hi) / 2 for a
    deeper ring [lo, hi].  Broadcasts over arrays."""
    return np.where(near_ap, cell.L_min, 0.5 * (lo + hi))


def min_surfaces(cell: CellConfig, lo, hi):
    """Fewest surfaces (at least 1) a ring [lo, hi] needs to keep its mean
    UEs per sector within the cap K_irs_max, with 1e-12 relative slack on
    the cap.  Broadcasts over arrays."""
    cap = cell.K_irs_max / (cell.ue_density * math.pi) * (1 + 1e-12)  # hi^2 - lo^2 per sector
    return np.maximum(np.ceil((hi ** 2 - lo ** 2) / cap), 1.0)


def ap_spans(cell: CellConfig, plan: RingPlan):
    """Nonempty radial spans (lo, hi) served by the AP alone, inner disc first.

    The inner disc ends at the last ring boundary R_in[I], which is R_in[0]
    for a plan without rings; the exterior annulus (R_in[0], R_ex] is
    AP-served whenever the outermost boundary sits inside the cell edge.
    """
    spans = ((0.0, plan.R_in[-1]), (plan.R_in[0], cell.R_ex))
    return [(lo, hi) for lo, hi in spans if hi > lo]


@dataclass(frozen=True)
class PlanViolation:
    code: str
    detail: str


def validate_plan(cell: CellConfig, plan: RingPlan, total_irs=None, rho=None):
    """All violated placement invariants.

    Returns an empty list when the plan is feasible.  ``total_irs`` adds the
    fixed-budget check sum(M_i) == total_irs when given; ``rho`` adds the
    checks of a power split (AP region first, then rings 1..I) when given.
    """
    v = []
    R = plan.R_in
    if len(R) != plan.I + 1:
        v.append(PlanViolation("radii-length", f"len(R_in)={len(R)} != I+1={plan.I + 1}"))
        return v
    for name, values in (("R_in", R), ("L", plan.L), ("rho", rho or ())):
        bad = [i for i, x in enumerate(values) if not math.isfinite(x)]
        if bad:
            v.append(PlanViolation("non-finite", f"{name}[{bad[0]}]={values[bad[0]]}"))
    if v:
        return v  # every comparison below is False on NaN
    if R[0] > cell.R_ex * (1 + 1e-12):
        v.append(PlanViolation("radii-range", f"R_in[0]={R[0]:.6g} exceeds R_ex={cell.R_ex:.6g}"))
    if plan.I and R[-1] < -1e-12:
        v.append(PlanViolation("radii-range", f"R_in[{plan.I}]={R[-1]:.6g} negative"))
    for i in range(1, len(R)):
        if R[i] > R[i - 1] * (1 + 1e-12) + 1e-12:
            v.append(PlanViolation("radii-order",
                                   f"R_in[{i}]={R[i]:.6g} > R_in[{i - 1}]={R[i - 1]:.6g}"))
    if plan.I and plan.M[0] > cell.M1_max:
        v.append(PlanViolation("near-ap-slots", f"M_1={plan.M[0]} exceeds M1_max={cell.M1_max}"))
    for i, m in enumerate(plan.M, start=1):
        if m < 1:
            v.append(PlanViolation("ring-count", f"ring {i} has M_i={m} < 1"))
    if total_irs is not None and sum(plan.M) != total_irs:
        v.append(PlanViolation("irs-budget", f"sum(M_i)={sum(plan.M)} != M={total_irs}"))
    for i in range(1, plan.I + 1):
        if plan.M[i - 1] < 1:
            continue  # ring-count violation already recorded; area/M undefined
        want = float(surface_circle(cell, i == 1, R[i], R[i - 1]))
        if abs(plan.L[i - 1] - want) > 1e-9 * max(1.0, want):
            v.append(PlanViolation("irs-circle",
                                   f"ring {i} L={plan.L[i - 1]:.6g}, expected {want:.6g}"))
        if plan.M[i - 1] < min_surfaces(cell, R[i], R[i - 1]):
            v.append(PlanViolation("sector-load", f"ring {i} mean UEs/sector "
                                   f"{mean_ues_per_sector(cell, plan, i):.4g} "
                                   f"exceeds cap {cell.K_irs_max:.4g}"))
    if rho is not None:
        rho = np.asarray(rho, dtype=float)
        if len(rho) != plan.I + 1:
            v.append(PlanViolation("power-length", f"len(rho)={len(rho)} != I+1={plan.I + 1}"))
        else:
            if (rho < -1e-12).any():
                v.append(PlanViolation("power-sign", "negative power ratio"))
            s = float(rho.sum())
            if abs(s - 1.0) > 1e-9:
                v.append(PlanViolation("power-sum", f"power ratios sum to {s:.6g} != 1"))
    return v


def sector_area(plan: RingPlan, i):
    """Area of one annulus sector of ring i (1-based) [m^2]."""
    if not 1 <= i <= plan.I:
        raise ValueError(f"sector_area: ring index {i} outside 1..{plan.I}")
    lo, hi = plan.ring_bounds(i)
    return math.pi * (hi ** 2 - lo ** 2) / plan.M[i - 1]


def mean_ues_per_sector(cell: CellConfig, plan: RingPlan, i):
    """Mean UE count of one sector of ring i: density times sector area."""
    return cell.ue_density * sector_area(plan, i)


def _wrap_to_half(angle):
    """Wrap angles into [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


def locate_ue_arrays(cell: CellConfig, plan: RingPlan, r, azimuth):
    """Region membership and link geometry over position arrays.

    Ring i covers radii in [R_in[i], R_in[i-1]); boundary radii therefore
    resolve to the outer of the two adjacent rings, and ring 1 is closed at
    R_in[0] (ties break toward IRS service).  Radii above R_in[0] (exterior
    range) and below R_in[I] are AP-only.

    Returns (ring, sector, l, d): ring is 0 for AP-only service, 1..I for
    IRS rings; sector is -1 and l and d are NaN where AP-only.
    """
    r = np.asarray(r, dtype=float)
    az = np.asarray(azimuth, dtype=float) % TWO_PI
    if np.any(r > cell.R_ex * (1 + 1e-12)):
        raise ValueError(f"locate_ue_arrays: positions outside the cell (R_ex={cell.R_ex:.6g})")
    ring = np.zeros(r.shape, dtype=np.int64)
    sector = np.full(r.shape, -1, dtype=np.int64)
    l = np.full(r.shape, np.nan)
    d = np.full(r.shape, np.nan)
    R = plan.R_in
    for i in range(1, plan.I + 1):
        if i == 1:
            members = (r >= R[1]) & (r <= R[0])
        else:
            members = (r >= R[i]) & (r < R[i - 1])
        if not members.any():
            continue
        m = plan.M[i - 1]
        phi = TWO_PI / m
        s = np.minimum((az[members] // phi).astype(np.int64), m - 1)
        dphi = _wrap_to_half(az[members] - (s + 0.5) * phi)
        L = plan.L[i - 1]
        rm = r[members]
        ring[members] = i
        sector[members] = s
        l[members] = L
        d[members] = irs_distance(rm, L, dphi)
    return ring, sector, l, d


def irs_distance2(r, L, dphi):
    """Squared IRS-UE distance from the UE's AP distance r, the IRS's AP
    distance L and their azimuth gap dphi (law of cosines, clamped at 0 so that
    rounding cannot make it negative)."""
    return np.maximum(r ** 2 + L ** 2 - 2.0 * r * L * np.cos(dphi), 0.0)


def irs_distance(r, L, dphi):
    """IRS-UE distance: the square root of ``irs_distance2``."""
    return np.sqrt(irs_distance2(r, L, dphi))


def coverage_area_accounting(cell: CellConfig, plan: RingPlan):
    """(sum of sector areas, AP disc area, exterior annulus area) [m^2]."""
    sectors = sum(plan.M[i - 1] * sector_area(plan, i) for i in range(1, plan.I + 1))
    ap_disc = math.pi * plan.R_in[-1] ** 2 if plan.I else math.pi * plan.R_in[0] ** 2
    exterior = math.pi * (cell.R_ex ** 2 - plan.R_in[0] ** 2)
    return sectors, ap_disc, exterior
