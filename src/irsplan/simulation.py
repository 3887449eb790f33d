"""Monte Carlo certification of a deployment plan.

Draws random UE topologies (uniform over the disc), assigns UEs to service
regions with the per-sector slot limit enforced (the n_t nearest-by-d UEs
keep IRS service; the rest overflow to AP service at the AP region's
inversion SNR, which equals the direct-path required power for the common
target), applies the plan's slow power policies, and measures empirical
non-outage probabilities, common throughput, and frame energy.

Randomness is counter-based: one Philox stream per (seed, topology) for
positions and one per (seed, topology, UE) for fading, so results are
bit-identical for any worker count and the workload can be sharded freely.
Fading draws come in two flavours:

* ``exact``        -- element-level Rayleigh products through the streaming
                      kernel (2N+1 exponentials per realization);
* ``gaussian-surrogate`` -- the CLT model itself (Gaussian cascade amplitude
                      plus Rayleigh direct), matching the analytical
                      derivation's distributional assumptions.

The energy audit reports both the allocation-model mean (overflow UEs booked
at their ring's required power -- the quantity the closed-form budget pins)
and the as-deployed mean including the overflow surcharge.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._kernels import exact_tail_stats
from .channel import (IrsSpec, RadioConfig, _cascade_moments, _gain_irs_links,
                      mean_gain_direct, required_power_irs)
from .geometry import CellConfig, RingPlan, locate_ue_arrays
from .numerics import get_tail_quantile
from .planner import PlanResult
from .powerctl import cipc_power


class SlotLimitError(RuntimeError):
    """A simulated sector served more UEs than the frame has time slots."""

    def __init__(self, max_load, n_t):
        super().__init__(f"slot limit violated: {max_load} > n_t={n_t}")
        self.max_load = max_load
        self.n_t = n_t


@dataclass(frozen=True)
class McConfig:
    n_topologies: int = 100
    n_fading: int = 10_000
    seed: int = 0
    element_draws: str = "exact"      # "exact" | "gaussian-surrogate"
    n_workers: int = 1

    def __post_init__(self):
        if self.element_draws not in ("exact", "gaussian-surrogate"):
            raise ValueError("McConfig: element_draws must be 'exact' or 'gaussian-surrogate'")
        if self.n_topologies < 1 or self.n_fading < 1 or self.n_workers < 1:
            raise ValueError("McConfig: counts must be positive")


@dataclass
class Topology:
    """One random UE drop with service assignment and per-UE powers."""

    r: np.ndarray              # AP distance [m]
    az: np.ndarray             # azimuth [rad]
    ring: np.ndarray           # geometric ring (0 = AP disc / exterior)
    sector: np.ndarray
    l: np.ndarray              # AP-IRS distance (NaN if AP region)
    d: np.ndarray              # IRS-UE distance (NaN if AP region)
    served_by_irs: np.ndarray  # bool; False for AP region and overflow UEs
    overflow: np.ndarray       # bool; True where the slot limit bumped a UE
    power: np.ndarray          # deployed transmit power [W]
    power_model: np.ndarray    # allocation-model power (overflow at ring policy) [W]

    @property
    def K(self):
        return len(self.r)


@dataclass
class McEstimate:
    """Aggregated Monte Carlo certification report."""

    n_topologies: int
    n_fading: int
    seed: int
    element_draws: str
    analytical_nu_bar: float
    # throughput: R_bar * min over service regions of pooled per-region NOP,
    # averaged over topologies, with a CLT interval over the topology values
    common_throughput: float
    common_half_width: float
    min_ue_throughput: float           # mean of R_bar * worst per-UE NOP
    nop_by_region: dict
    nop_half_width_by_region: dict
    nop_by_decile: list
    nop_decile_half_width: list
    energy_mean: float                 # allocation-model frame energy [J]
    energy_mean_with_overflow: float   # deployed frame energy [J]
    energy_rel_half_width: float
    overflow_ue_share: float
    max_sector_load: int
    notes: dict = field(default_factory=dict)


def _position_stream(seed, topo_idx):
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, topo_idx << 20], dtype=np.uint64)))


def _fading_stream(seed, topo_idx, ue_idx):
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, (topo_idx << 20) | (ue_idx + 1)], dtype=np.uint64)))


def sample_topology(cell: CellConfig, cfg: RadioConfig, irs: IrsSpec,
                    plan: RingPlan, eta0_star, p_no, topo_idx,
                    mc: McConfig) -> Topology:
    """Drop cell.K uniform UEs, assign service, and apply the power policies."""
    rng = _position_stream(mc.seed, topo_idx)
    u = rng.random((cell.K, 2))
    r = cell.R_ex * np.sqrt(u[:, 0])
    az = 2.0 * math.pi * u[:, 1]
    ring, sector, l, d = locate_ue_arrays(cell, plan, r, az)

    overflow = np.zeros(cell.K, dtype=bool)
    for i in range(1, plan.I + 1):
        in_ring = ring == i
        if not in_ring.any():
            continue
        for s in np.unique(sector[in_ring]):
            members = np.flatnonzero(in_ring & (sector == s))
            if len(members) > cfg.n_t:
                order = members[np.argsort(d[members], kind="stable")]
                overflow[order[cfg.n_t:]] = True
    served_by_irs = (ring > 0) & ~overflow

    p_ap = cipc_power(cfg, eta0_star / math.log(1.0 / p_no), r)
    p_irs = np.zeros(cell.K)
    irs_pos = ring > 0
    if irs_pos.any():
        p_irs[irs_pos] = required_power_irs(
            cfg, irs, (r[irs_pos], l[irs_pos], d[irs_pos]), eta0_star, p_no,
            quantile=get_tail_quantile(p_no))
    power_model = np.where(irs_pos, p_irs, p_ap)
    power = np.where(served_by_irs, p_irs, p_ap)
    return Topology(r=r, az=az, ring=ring, sector=sector, l=l, d=d,
                    served_by_irs=served_by_irs, overflow=overflow,
                    power=power, power_model=power_model)


def _surrogate_tail_count(rng, n_draws, N, g_i, g_r, g_d, z2_min):
    """Tail count under the CLT surrogate: Gaussian cascade + Rayleigh direct."""
    mu, s2 = _cascade_moments(N, g_i, g_r)
    sig = math.sqrt(s2)
    z = mu + sig * rng.standard_normal(n_draws)
    z = z + np.sqrt(g_d * rng.standard_exponential(n_draws))
    z = np.maximum(z, 0.0)
    return int(np.count_nonzero(z * z >= z2_min))


def simulate_ue_successes(cfg: RadioConfig, irs: IrsSpec, topo: Topology,
                          eta0, mc: McConfig, topo_idx):
    """Per-UE non-outage success counts out of mc.n_fading fading draws."""
    counts = np.zeros(topo.K, dtype=np.int64)
    g_d_all = mean_gain_direct(cfg, topo.r)
    for k in range(topo.K):
        rng = _fading_stream(mc.seed, topo_idx, k)
        p = topo.power[k]
        if topo.served_by_irs[k]:
            g_i, g_r = _gain_irs_links(cfg, topo.l[k], topo.d[k])
            z2_min = cfg.W * eta0 / p
            if mc.element_draws == "exact":
                counts[k] = exact_tail_stats(rng.bit_generator, mc.n_fading,
                                             irs.N, g_i, g_r, g_d_all[k], z2_min)[0]
            else:
                counts[k] = _surrogate_tail_count(rng, mc.n_fading, irs.N,
                                                  g_i, g_r, g_d_all[k], z2_min)
        else:
            thr = cfg.W * eta0 / (p * g_d_all[k])
            f = rng.standard_exponential(mc.n_fading)
            counts[k] = int(np.count_nonzero(f >= thr))
    return counts


def _decile_edges(R_ex, n=10):
    """Equal-probability radial bins for uniform-disc UEs."""
    return R_ex * np.sqrt(np.linspace(0.0, 1.0, n + 1))


def empirical_nop(cfg: RadioConfig, irs: IrsSpec, cell: CellConfig,
                  topo: Topology, eta0, mc: McConfig, topo_idx):
    """Empirical NOP per stratum for one topology.

    Strata: service regions ("ap", "ring1", ...) and radial deciles
    ("decile0" ... "decile9", equal-probability bins).  Values are
    (successes, trials) so callers can pool across topologies.
    """
    counts = simulate_ue_successes(cfg, irs, topo, eta0, mc, topo_idx)
    out = {}
    ap = ~topo.served_by_irs
    if ap.any():
        out["ap"] = (int(counts[ap].sum()), int(ap.sum()) * mc.n_fading)
    rings = np.unique(topo.ring[topo.served_by_irs])
    for i in rings:
        m = topo.served_by_irs & (topo.ring == i)
        out[f"ring{i}"] = (int(counts[m].sum()), int(m.sum()) * mc.n_fading)
    edges = _decile_edges(cell.R_ex)
    which = np.clip(np.digitize(topo.r, edges[1:-1]), 0, 9)
    for j in range(10):
        m = which == j
        if m.any():
            out[f"decile{j}"] = (int(counts[m].sum()), int(m.sum()) * mc.n_fading)
    return out, counts


def _run_topology(args):
    (cell, cfg, irs, plan, eta0, p_no, mc, t) = args
    topo = sample_topology(cell, cfg, irs, plan, eta0, p_no, t, mc)
    strata, counts = empirical_nop(cfg, irs, cell, topo, eta0, mc, t)
    load = 0
    for i in range(1, plan.I + 1):
        in_ring = topo.served_by_irs & (topo.ring == i)
        if in_ring.any():
            _, per = np.unique(topo.sector[in_ring], return_counts=True)
            load = max(load, int(per.max()))
    energy_model = float(topo.power_model.sum()) * cfg.t0
    energy_actual = float(topo.power.sum()) * cfg.t0
    return strata, counts, load, energy_model, energy_actual, int(topo.overflow.sum())


def validate_plan_mc(cell: CellConfig, cfg: RadioConfig, irs: IrsSpec,
                     result: PlanResult, mc: McConfig) -> McEstimate:
    """Monte Carlo certification of a PlanResult's throughput promise."""
    plan = result.plan
    alloc = result.allocation
    eta0 = alloc.eta0_star
    p_no = alloc.p_no
    tasks = [(cell, cfg, irs, plan, eta0, p_no, mc, t) for t in range(mc.n_topologies)]
    if mc.n_workers > 1:
        with ThreadPoolExecutor(max_workers=mc.n_workers) as pool:
            rows = list(pool.map(_run_topology, tasks))
    else:
        rows = [_run_topology(t) for t in tasks]

    pooled = {}
    per_topo_common = []
    per_topo_min_ue = []
    energies_model = []
    energies_actual = []
    overflow_total = 0
    max_load = 0
    for strata, counts, load, e_model, e_actual, n_over in rows:
        region_hats = [s / t for key, (s, t) in strata.items() if not key.startswith("decile")]
        per_topo_common.append(alloc.R_bar * min(region_hats))
        per_topo_min_ue.append(alloc.R_bar * counts.min() / mc.n_fading)
        for key, (s, t) in strata.items():
            acc = pooled.setdefault(key, [0, 0])
            acc[0] += s
            acc[1] += t
        energies_model.append(e_model)
        energies_actual.append(e_actual)
        overflow_total += n_over
        max_load = max(max_load, load)
    if max_load > cfg.n_t:
        raise SlotLimitError(max_load, cfg.n_t)

    def hat(key):
        s, t = pooled[key]
        return s / t

    def hw(key):
        s, t = pooled[key]
        p = s / t
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / t)

    regions = sorted(k for k in pooled if not k.startswith("decile"))
    deciles = [f"decile{j}" for j in range(10) if f"decile{j}" in pooled]
    v = np.asarray(per_topo_common)
    T = mc.n_topologies
    common_hw = 1.96 * float(v.std(ddof=1)) / math.sqrt(T) if T > 1 else math.inf
    e_model = np.asarray(energies_model)
    e_rel_hw = (1.96 * float(e_model.std(ddof=1)) / math.sqrt(T) / float(e_model.mean())
                if T > 1 else math.inf)
    irs_bias = {k: hat(k) - p_no for k in regions if k != "ap"}
    return McEstimate(
        n_topologies=T, n_fading=mc.n_fading, seed=mc.seed,
        element_draws=mc.element_draws,
        analytical_nu_bar=alloc.nu_bar,
        common_throughput=float(v.mean()),
        common_half_width=common_hw,
        min_ue_throughput=float(np.mean(per_topo_min_ue)),
        nop_by_region={k: hat(k) for k in regions},
        nop_half_width_by_region={k: hw(k) for k in regions},
        nop_by_decile=[hat(k) for k in deciles],
        nop_decile_half_width=[hw(k) for k in deciles],
        energy_mean=float(e_model.mean()),
        energy_mean_with_overflow=float(np.mean(energies_actual)),
        energy_rel_half_width=e_rel_hw,
        overflow_ue_share=overflow_total / (T * cell.K),
        max_sector_load=max_load,
        notes={
            "overflow_policy": "AP service at the AP region's inversion SNR",
            "irs_region_nop_minus_target": irs_bias,
            "tail_fit_note": ("IRS-region empirical NOP sits above the target: "
                              "the Gamma tail fit is conservative at this "
                              "operating point (positive deltas above)"),
        })
