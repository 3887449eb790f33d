"""Max-min throughput planning for IRS-assisted single-cell networks.

The package plans ring-based placements for passive reflecting surfaces
around a single access point, splits a frame energy budget so every service
region sustains the same guaranteed throughput, and certifies the analytical
chain (moment matching, Gamma tail fit, required-power inversion) with a
counter-based Monte Carlo harness.

Layout:

* :mod:`irsplan.numerics`   -- regularized incomplete gamma + inverse, quadrature
* :mod:`irsplan.channel`    -- mean gains, composite fading moments, NOP, and
  the required power, read off one table per (N, p_no) indexed by
  c^2 = g_i g_r / g_d
* :mod:`irsplan.geometry`   -- cell partition, array-form UE location
  (``locate_ue_arrays``), plan validation
* :mod:`irsplan.powerctl`   -- region energy coefficients and equalization
* :mod:`irsplan.planner`    -- coverage study, exact ring search, fast heuristic
* :mod:`irsplan.simulation` -- topology + fading Monte Carlo certification
* :mod:`irsplan.cli`        -- reproducible experiment artifacts

Exact element-level fading is drawn by one vectorized numpy routine,
``irsplan._kernels.exact_unit_draws``; the exact Monte Carlo bank and
``exact_tail_stats`` both read it.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND as KERNEL_BACKEND  # read by perfbench's set-up probe
from .channel import (CompositeChannelStats, IrsSpec, LinkGeometry, MeanGains,
                      RadioConfig, composite_stats, mean_gain_direct,
                      mean_gains_irs, nop_direct, nop_irs, required_power_irs)
from .geometry import (CellConfig, PlanViolation, RingPlan,
                       coverage_area_accounting, make_ring_plan,
                       mean_ues_per_sector, sector_area, validate_plan)
from .numerics import (Refused, Tolerance, get_tail_quantile,
                       integrate_polar_sector, integrate_radial,
                       inv_reg_upper_gamma, reg_upper_gamma)
from .planner import (CoverageResult, PlanCheckError, PlanInfeasibleError,
                      PlanResult, SearchGrid, algorithm1, coverage_range,
                      line_search, line_search_budgets)
from .powerctl import (PowerAllocation, ThroughputReport, benchmark_cipc,
                       benchmark_equal_power, benchmark_irs_equal_power,
                       benchmark_irs_mean_cipc, cipc_power, equalize_power,
                       irs_region_coefficient)
from .simulation import (McConfig, McEstimate, SlotLimitError, Topology,
                         sample_topology, validate_plan_mc)

__all__ = [
    "__version__", "KERNEL_BACKEND",
    "CompositeChannelStats", "IrsSpec", "LinkGeometry", "MeanGains",
    "RadioConfig", "composite_stats", "mean_gain_direct",
    "mean_gains_irs", "nop_direct", "nop_irs", "required_power_irs",
    "CellConfig", "PlanViolation", "RingPlan",
    "coverage_area_accounting", "make_ring_plan",
    "mean_ues_per_sector", "sector_area", "validate_plan",
    "Refused", "Tolerance", "get_tail_quantile",
    "integrate_polar_sector", "integrate_radial", "inv_reg_upper_gamma",
    "reg_upper_gamma",
    "CoverageResult", "PlanCheckError", "PlanInfeasibleError", "PlanResult",
    "SearchGrid",
    "algorithm1", "coverage_range", "line_search", "line_search_budgets",
    "PowerAllocation", "ThroughputReport",
    "benchmark_cipc", "benchmark_equal_power", "benchmark_irs_equal_power",
    "benchmark_irs_mean_cipc", "cipc_power", "equalize_power",
    "irs_region_coefficient",
    "McConfig", "McEstimate", "SlotLimitError", "Topology", "sample_topology",
    "validate_plan_mc",
]
