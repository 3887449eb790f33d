"""Cell layout: ring partition, annulus sectors, and UE-region membership.

The cell is a disc of radius R_ex around the AP.  IRS-served UEs live in I
concentric rings indexed outermost-first: ring i spans radii
(R_in[i], R_in[i-1]] and is tiled by M_i equal annulus sectors, each with one
IRS on the circle of radius L_i.  Ring 1's surfaces sit on the near-AP circle
L_min (they beamform outward to the cell edge); every deeper ring's circle is
the mid-radius of its annulus.  UEs inside R_in[I] (and, if the exterior
range is open, beyond R_in[0]) are served by the AP alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import LinkGeometry

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
    """A ring deployment: radii (descending, length I+1), IRS counts, circles.

    rho holds the power split (AP region first, then rings 1..I) once a power
    allocation has been attached; it is None for bare placements.
    """

    R_in: tuple      # (R_in[0], ..., R_in[I]) [m], nonincreasing
    M: tuple         # (M_1, ..., M_I) surfaces per ring
    L: tuple         # (L_1, ..., L_I) IRS circle radii [m]
    rho: Optional[tuple] = None

    @property
    def I(self):
        return len(self.M)

    def ring_bounds(self, i):
        """(inner, outer) radii of ring i (1-based)."""
        return self.R_in[i], self.R_in[i - 1]

    def sector_angle(self, i):
        """Angular span phi_i = 2 pi / M_i of ring i's sectors [rad]."""
        return TWO_PI / self.M[i - 1]


def make_ring_plan(cell: CellConfig, R_in, M, rho=None) -> RingPlan:
    """Construct a RingPlan with the standard IRS circle radii.

    Ring 1 uses the near-AP circle L_min; ring i >= 2 uses the mid-radius
    (R_in[i] + R_in[i-1]) / 2 of its annulus.
    """
    R_in = tuple(float(v) for v in R_in)
    M = tuple(int(m) for m in M)
    if len(R_in) != len(M) + 1:
        raise ValueError("make_ring_plan: need len(R_in) == len(M) + 1")
    L = []
    for i in range(1, len(M) + 1):
        L.append(cell.L_min if i == 1 else 0.5 * (R_in[i] + R_in[i - 1]))
    return RingPlan(R_in=R_in, M=M, L=tuple(L),
                    rho=None if rho is None else tuple(float(v) for v in rho))


@dataclass(frozen=True)
class SectorAssignment:
    ring: int            # 1-based ring index
    sector: int          # 0-based sector index within the ring
    irs_azimuth: float   # [rad], sector angular center
    span: float          # phi_i [rad]


@dataclass(frozen=True)
class UeLocation:
    region: str                            # "ap" or "irs"
    ring: Optional[int] = None             # 1-based, IRS regions only
    sector: Optional[int] = None
    geom: Optional[LinkGeometry] = None    # None in the AP-only region
    assignment: Optional[SectorAssignment] = None


@dataclass(frozen=True)
class PlanViolation:
    code: str
    detail: str
    slack: float


def validate_plan(cell: CellConfig, plan: RingPlan, total_irs=None):
    """All violated placement invariants, with quantitative slack.

    Returns an empty list when the plan is feasible.  ``total_irs`` adds the
    fixed-budget check sum(M_i) == total_irs when given.
    """
    v = []
    R = plan.R_in
    if len(R) != plan.I + 1:
        v.append(PlanViolation("radii-length", f"len(R_in)={len(R)} != I+1={plan.I + 1}",
                               abs(len(R) - plan.I - 1)))
        return v
    if R[0] > cell.R_ex * (1 + 1e-12):
        v.append(PlanViolation("radii-range", f"R_in[0]={R[0]:.6g} exceeds R_ex={cell.R_ex:.6g}",
                               R[0] - cell.R_ex))
    if plan.I and R[-1] < -1e-12:
        v.append(PlanViolation("radii-range", f"R_in[{plan.I}]={R[-1]:.6g} negative", -R[-1]))
    for i in range(1, len(R)):
        if R[i] > R[i - 1] * (1 + 1e-12) + 1e-12:
            v.append(PlanViolation("radii-order",
                                   f"R_in[{i}]={R[i]:.6g} > R_in[{i - 1}]={R[i - 1]:.6g}",
                                   R[i] - R[i - 1]))
    if plan.I and plan.M[0] > cell.M1_max:
        v.append(PlanViolation("near-ap-slots", f"M_1={plan.M[0]} exceeds M1_max={cell.M1_max}",
                               plan.M[0] - cell.M1_max))
    for i, m in enumerate(plan.M, start=1):
        if m < 1:
            v.append(PlanViolation("ring-count", f"ring {i} has M_i={m} < 1", 1 - m))
    if total_irs is not None and sum(plan.M) != total_irs:
        v.append(PlanViolation("irs-budget", f"sum(M_i)={sum(plan.M)} != M={total_irs}",
                               abs(sum(plan.M) - total_irs)))
    for i in range(1, plan.I + 1):
        if plan.M[i - 1] < 1:
            continue  # ring-count violation already recorded; area/M undefined
        want = cell.L_min if i == 1 else 0.5 * (R[i] + R[i - 1])
        if abs(plan.L[i - 1] - want) > 1e-9 * max(1.0, want):
            v.append(PlanViolation("irs-circle", f"ring {i} L={plan.L[i - 1]:.6g}, expected {want:.6g}",
                                   abs(plan.L[i - 1] - want)))
        kbar = mean_ues_per_sector(cell, plan, i)
        if kbar > cell.K_irs_max * (1 + 1e-12):
            v.append(PlanViolation("sector-load", f"ring {i} mean UEs/sector {kbar:.4g} "
                                   f"exceeds cap {cell.K_irs_max:.4g}", kbar - cell.K_irs_max))
    if plan.rho is not None:
        rho = np.asarray(plan.rho, dtype=float)
        if len(rho) != plan.I + 1:
            v.append(PlanViolation("power-length", f"len(rho)={len(rho)} != I+1={plan.I + 1}",
                                   abs(len(rho) - plan.I - 1)))
        else:
            if (rho < -1e-12).any():
                v.append(PlanViolation("power-sign", "negative power ratio", float(-rho.min())))
            s = float(rho.sum())
            if abs(s - 1.0) > 1e-9:
                v.append(PlanViolation("power-sum", f"power ratios sum to {s:.6g} != 1",
                                       abs(s - 1.0)))
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


def locate_ue(cell: CellConfig, plan: RingPlan, r, azimuth) -> UeLocation:
    """Region membership and link geometry for one UE at polar (r, azimuth).

    The scalar form of ``locate_ue_arrays``, which sets the membership rules.
    """
    ring, sector, l, d = locate_ue_arrays(cell, plan, np.array([float(r)]),
                                          np.array([float(azimuth)]))
    if ring[0] == 0:
        return UeLocation(region="ap")
    i, s = int(ring[0]), int(sector[0])
    phi = TWO_PI / plan.M[i - 1]
    return UeLocation(region="irs", ring=i, sector=s,
                      geom=LinkGeometry(r=float(r), l=float(l[0]), d=float(d[0])),
                      assignment=SectorAssignment(ring=i, sector=s,
                                                  irs_azimuth=(s + 0.5) * phi, span=phi))


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


def irs_distance(r, L, dphi):
    """IRS-UE distance from the UE's AP distance r, the IRS's AP distance L and
    their azimuth gap dphi (law of cosines, clamped so d = 0 is not NaN)."""
    return np.sqrt(np.maximum(r ** 2 + L ** 2 - 2.0 * r * L * np.cos(dphi), 0.0))


def coverage_area_accounting(cell: CellConfig, plan: RingPlan):
    """(sum of sector areas, AP disc area, exterior annulus area) [m^2]."""
    sectors = sum(plan.M[i - 1] * sector_area(plan, i) for i in range(1, plan.I + 1))
    ap_disc = math.pi * plan.R_in[-1] ** 2 if plan.I else math.pi * plan.R_in[0] ** 2
    exterior = math.pi * (cell.R_ex ** 2 - plan.R_in[0] ** 2)
    return sectors, ap_disc, exterior
