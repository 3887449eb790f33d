"""Monte Carlo certification of a deployment plan.

Draws random UE topologies (uniform over the disc), assigns UEs to service
regions with the per-sector slot limit enforced (the n_t nearest-by-d UEs
keep IRS service; the rest overflow to AP service at the AP region's
inversion SNR, which equals the direct-path required power for the common
target), applies the plan's slow power policies, and measures empirical
non-outage probabilities, common throughput, and frame energy.

Randomness is counter-based: each (seed, topology) owns two Philox streams,
one for positions and one for fading, so results are bit-identical for any
worker count and the workload can be sharded freely.  The composite amplitude
is Z = sqrt(g_i g_r) X + sqrt(g_d E), and X and E do not depend on geometry.
Surface-served UEs are priced in one of two flavours:

* ``exact``        -- a bank of n_fading element-level unit draws (X, sqrt(E))
                      from the fading stream through the kernel's one draw
                      routine (2N+1 exponentials per realization,
                      X = sum_j sqrt(e1 e2)), the root taken over E in place;
                      every surface-served UE of the topology counts its
                      successes off that bank (common random numbers);
* ``gaussian-surrogate`` -- the CLT model itself (Gaussian cascade amplitude
                      plus Rayleigh direct), which the analytical derivation
                      assumes; its success probability is closed form, so a
                      UE's tally is n_fading times it, a float, with no draws.

AP-served and overflow UEs draw independent binomial counts from the fading
stream, after the exact bank or at its head.

Each topology is tallied as arrays over one stratum axis: the service
regions 0..I (0 = AP service, including overflow UEs; i = ring i's surfaces)
followed by the ten equal-probability radial deciles.  ``validate_plan_mc``
stacks these into (topology x stratum) success and UE-count matrices and
reads every estimate off their columns.  UEs of one topology share its
layout and fading stream, so the NOP half-widths are cluster intervals over
topologies: the ratio estimator's spread across the T rows, floored by an
Agresti-Coull binomial interval at n_fading draws per topology whose stratum
holds counted UEs (a stratum with none is floored only at zero spread).  The
common throughput and the frame energy are means of T per-topology values,
so their half-widths are Student-t intervals on T - 1 degrees of freedom.

The energy audit reports both the allocation-model mean (overflow UEs booked
at their ring's required power -- the quantity the closed-form budget pins)
and the as-deployed mean including the overflow surcharge.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import exact_unit_draws, unit_draw_bytes
from .channel import (IrsSpec, RadioConfig, _cascade_moments, _gain_irs_links,
                      mean_gain_direct, required_power_irs)
from .geometry import CellConfig, RingPlan, locate_ue_arrays
from .numerics import Refused, student_t_quantile
from .planner import PlanResult
from .powerctl import cipc_power


class SlotLimitError(Refused):
    """A simulated sector served more UEs than the frame has time slots."""

    def __init__(self, max_load, n_t):
        super().__init__("slot-limit", f"slot limit violated: {max_load} > n_t={n_t}",
                         max_load=max_load, n_t=n_t)


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
        if self.n_topologies < 2 or self.n_fading < 1 or self.n_workers < 1:
            raise ValueError("McConfig: need n_fading, n_workers >= 1 and n_topologies >= 2 "
                             "(every interval takes T - 1 degrees of freedom)")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("McConfig: seed must lie in [0, 2**64), the Philox key word")


@dataclass
class Topology:
    """One random UE drop with service assignment and per-UE powers."""

    r: np.ndarray              # AP distance [m]
    ring: np.ndarray           # geometric ring (0 = AP disc / exterior)
    sector: np.ndarray         # global sector id over all rings (-1 = AP region)
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
    """Aggregated Monte Carlo certification report; the run's settings are
    the McConfig it was given."""

    analytical_nu_bar: float
    # throughput: R_bar * min over service regions of pooled per-region NOP,
    # averaged over topologies, with a Student-t interval over the topology
    # values (as energy_rel_half_width)
    common_throughput: float
    common_half_width: float
    nop_by_region: dict
    nop_half_width_by_region: dict
    nop_by_decile: list
    nop_decile_half_width: list
    energy_mean: float                 # allocation-model frame energy [J]
    energy_mean_with_overflow: float   # deployed frame energy [J]
    energy_rel_half_width: float
    overflow_ue_share: float
    max_sector_load: int


@dataclass
class McStats:
    """The last ``validate_plan_mc`` run, for the ``validate`` sidecar; over all
    topologies, the surface-served UEs priced in closed form and the UEs whose
    successes were drawn as counts."""

    topologies: int = 0
    n_fading: int = 0
    closed_form_ues: int = 0
    counted_ues: int = 0
    workers: int = 0
    mc_s: float = 0.0


MC_STATS = McStats()

# Low 20 bits of a topology's key word: positions take slot 0, fading (the
# exact bank and the binomial counts) the top slot, so the two streams never
# share a key.
_BANK_SLOT = (1 << 20) - 1

# UE x draw elements per comparison block: larger blocks were slower and
# raised peak memory.
_BLOCK_ELEMS = 250_000

# Bytes the workers' exact fading banks may hold at once, checked before any draw.
MAX_BANK_BYTES = 2 << 30

_Z95 = 1.96

_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _philox(seed, topo_idx, slot):
    return np.random.Philox(
        key=np.array([seed, (topo_idx << 20) | slot], dtype=np.uint64))


def _fading_stream(mc: McConfig, topo_idx):
    return np.random.Generator(_philox(mc.seed, topo_idx, _BANK_SLOT))


def _fading_bank(mc: McConfig, n_elems, topo_idx):
    """One topology's n_fading exact unit draws (X, sqrt(E)), and its fading
    stream, left where the bank ends."""
    rng = _fading_stream(mc, topo_idx)
    x, e = exact_unit_draws(rng.bit_generator, mc.n_fading, n_elems)
    return x, np.sqrt(e, out=e), rng


def _surrogate_success(c, t, n_elems):
    """P(c X + sqrt(E) >= t) for the CLT cascade X ~ N(mu, s2) of
    ``_cascade_moments(n_elems, 1, 1)`` and E ~ Exp(1).

    This is E_X[exp(-(t - c X)_+^2)]; with m = t - c mu, v = c^2 s2 and
    w = 1 + 2 v, completing the square gives
    Phi(-m / sqrt(v)) + exp(-m^2 / w) / sqrt(w) Phi(m / sqrt(v w)), a sum of
    two positive terms, so it keeps its relative precision deep in the tail.
    """
    mu, s2 = _cascade_moments(n_elems, 1.0, 1.0)
    m = t - c * mu
    if s2 == 0.0:    # no elements: the direct link alone
        return np.exp(-np.square(np.maximum(m, 0.0)))
    v = c * c * s2
    w = 1.0 + 2.0 * v
    r = np.sqrt(2.0 * v)  # Phi(z) = erfc(-z / sqrt(2)) / 2
    return 0.5 * (_ERFC(m / r).astype(float)
                  + np.exp(-m * m / w) / np.sqrt(w) * _ERFC(-m / (r * np.sqrt(w))).astype(float))


def sample_topology(cell: CellConfig, cfg: RadioConfig, irs: IrsSpec,
                    plan: RingPlan, eta0_star, p_no, topo_idx,
                    mc: McConfig) -> Topology:
    """Drop cell.K uniform UEs, assign service, and apply the power policies."""
    rng = np.random.Generator(_philox(mc.seed, topo_idx, 0))
    u = rng.random((cell.K, 2))
    r = cell.R_ex * np.sqrt(u[:, 0])
    ring, sector, l, d = locate_ue_arrays(cell, plan, r, 2.0 * math.pi * u[:, 1])
    irs_pos = ring > 0
    first_sector = np.cumsum((0, *plan.M))
    sector = np.where(irs_pos, first_sector[ring - 1] + sector, -1)

    # slot limit: within each sector the n_t UEs nearest their surface keep
    # IRS service (stable, so equal distances keep UE order)
    irs_ue = np.flatnonzero(irs_pos)
    order = irs_ue[np.lexsort((d[irs_ue], sector[irs_ue]))]
    sorted_sector = sector[order]
    rank = np.arange(order.size) - np.searchsorted(sorted_sector, sorted_sector)
    overflow = np.zeros(cell.K, dtype=bool)
    overflow[order[rank >= cfg.n_t]] = True
    served_by_irs = irs_pos & ~overflow

    p_ap = cipc_power(cfg, eta0_star / math.log(1.0 / p_no), r)
    p_irs = np.zeros(cell.K)
    if irs_pos.any():
        p_irs[irs_pos] = required_power_irs(
            cfg, irs, (r[irs_pos], l[irs_pos], d[irs_pos]), eta0_star, p_no)
    power_model = np.where(irs_pos, p_irs, p_ap)
    power = np.where(served_by_irs, p_irs, p_ap)
    return Topology(r=r, ring=ring, sector=sector, l=l, d=d,
                    served_by_irs=served_by_irs, overflow=overflow,
                    power=power, power_model=power_model)


def simulate_ue_successes(cfg: RadioConfig, irs: IrsSpec, topo: Topology,
                          eta0, mc: McConfig, topo_idx):
    """Per-UE non-outage successes out of the topology's mc.n_fading draws:
    counts, except that a surrogate surface-served UE tallies its expected
    count n_fading P, a float."""
    exact = mc.element_draws == "exact"
    if exact:
        x, s, rng = _fading_bank(mc, irs.N, topo_idx)
    else:
        rng = _fading_stream(mc, topo_idx)
    counts = np.empty(topo.K)
    g_d = mean_gain_direct(cfg, topo.r)
    z2_min = cfg.W * eta0 / topo.power

    # AP service (and overflow): Z^2 = g_d E, so a UE's count of E >= z2_min / g_d
    # over n_fading unit exponentials of its own is Binomial(n_fading, exp(-z2_min / g_d))
    ap = ~topo.served_by_irs
    counts[ap] = rng.binomial(mc.n_fading, np.exp(-z2_min[ap] / g_d[ap]))

    # IRS service: Z / sqrt(g_d) = c X + sqrt(E) against t = sqrt(z2_min / g_d)
    irs_ue = np.flatnonzero(topo.served_by_irs)
    g_i, g_r = _gain_irs_links(cfg, topo.l[irs_ue], topo.d[irs_ue])
    c = np.sqrt(g_i * g_r / g_d[irs_ue])
    t = np.sqrt(z2_min[irs_ue] / g_d[irs_ue])
    if not exact:
        counts[irs_ue] = mc.n_fading * _surrogate_success(c, t, irs.N)
        return counts
    block = max(1, _BLOCK_ELEMS // mc.n_fading)
    buf = np.empty((min(block, irs_ue.size), mc.n_fading))
    hit = np.empty(buf.shape, dtype=bool)
    for lo in range(0, irs_ue.size, block):
        hi = min(lo + block, irs_ue.size)
        z, ok = buf[:hi - lo], hit[:hi - lo]  # c x + s >= t, in place
        np.multiply(c[lo:hi, None], x, out=z)
        z += s
        np.greater_equal(z, t[lo:hi, None], out=ok)
        counts[irs_ue[lo:hi]] = np.count_nonzero(ok, axis=1)
    return counts


def _run_topology(args):
    """One topology's per-stratum (successes, UEs) and its audit scalars.

    Strata are the regions 0..I (by service) and then the ten radial deciles
    of equal probability, I+1..I+10.
    """
    (cell, cfg, irs, plan, eta0, p_no, mc, t) = args
    topo = sample_topology(cell, cfg, irs, plan, eta0, p_no, t, mc)
    counts = simulate_ue_successes(cfg, irs, topo, eta0, mc, t)
    region = np.where(topo.served_by_irs, topo.ring, 0)
    decile = np.digitize(topo.r, cell.R_ex * np.sqrt(np.linspace(0.0, 1.0, 11)[1:-1]))
    labels = np.concatenate((region, plan.I + 1 + decile))
    n_strata = plan.I + 11
    successes = np.bincount(labels, weights=np.concatenate((counts, counts)),
                            minlength=n_strata)
    n_ue = np.bincount(labels, minlength=n_strata)
    # UEs whose successes are drawn counts: all in exact mode, AP service in the surrogate
    counted = ~topo.served_by_irs | (mc.element_draws == "exact")
    n_counted = np.bincount(labels[np.concatenate((counted, counted))], minlength=n_strata)
    served = topo.sector[topo.served_by_irs]
    load = int(np.bincount(served).max()) if served.size else 0
    energy_model = float(topo.power_model.sum()) * cfg.t0
    energy_actual = float(topo.power.sum()) * cfg.t0
    return (successes, n_ue, load, energy_model, energy_actual, int(topo.overflow.sum()),
            n_counted)


def _cpus_available():
    """CPUs this process may run on (``sched_getaffinity`` is Linux-only)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def validate_plan_mc(cell: CellConfig, cfg: RadioConfig, irs: IrsSpec,
                     result: PlanResult, mc: McConfig) -> McEstimate:
    """Monte Carlo certification of a PlanResult's throughput promise."""
    start = time.perf_counter()
    plan = result.plan
    alloc = result.allocation
    tasks = [(cell, cfg, irs, plan, alloc.eta0_star, alloc.p_no, mc, t)
             for t in range(mc.n_topologies)]
    workers = min(mc.n_workers, mc.n_topologies, _cpus_available())
    if mc.element_draws == "exact":
        # a worker holds X, sqrt(E), a comparison block and its mask, and the kernel's buffers
        need = workers * (16 * mc.n_fading + 9 * max(mc.n_fading, _BLOCK_ELEMS)
                          + unit_draw_bytes(mc.n_fading, irs.N))
        if need > MAX_BANK_BYTES:
            raise Refused("too-expensive", f"{workers} worker(s) drawing {mc.n_fading}-draw "
                          f"fading banks need about {need} bytes; at most {MAX_BANK_BYTES} "
                          "are allowed")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(_run_topology, tasks))
    successes, n_ue, load, e_model, e_actual, n_over, n_counted = map(np.array, zip(*rows))
    max_load = int(load.max())
    if max_load > cfg.n_t:
        raise SlotLimitError(max_load, cfg.n_t)

    # (topology x stratum) matrices; columns 0..I are regions, the rest deciles
    trials = n_ue * mc.n_fading
    n_regions = plan.I + 1
    topo_hat = np.divide(successes, trials, out=np.full(trials.shape, np.inf),
                         where=trials > 0)
    v = alloc.R_bar * topo_hat[:, :n_regions].min(axis=1)
    n = trials.sum(axis=0)
    present = n > 0
    n = np.maximum(n, 1)       # absent strata are never reported
    hat = successes.sum(axis=0) / n
    T = mc.n_topologies
    # cluster interval: the ratio estimator's variance across topologies ...
    resid2 = np.square(successes - hat * trials).sum(axis=0)
    hw = _Z95 * np.sqrt(resid2 * T / (T - 1)) / n
    # ... floored by Agresti-Coull at n_fading draws per topology with counted
    # UEs in the stratum; a stratum priced in closed form alone has no binomial
    # error, and is floored (per topology present) only where its spread is 0
    counted = (n_counted > 0).sum(axis=0)
    n_ac = np.where(counted > 0, counted, (trials > 0).sum(axis=0)) * mc.n_fading + _Z95 ** 2
    p_ac = (hat * (n_ac - _Z95 ** 2) + _Z95 ** 2 / 2.0) / n_ac
    hw = np.where((counted > 0) | (hw == 0.0),
                  np.maximum(hw, _Z95 * np.sqrt(p_ac * (1.0 - p_ac) / n_ac)), hw)
    regions = {("ap" if i == 0 else f"ring{i}"): i
               for i in np.flatnonzero(present[:n_regions])}
    deciles = n_regions + np.flatnonzero(present[n_regions:])

    # both are means of T per-topology values: Student-t, T - 1 dof
    t95 = student_t_quantile(T - 1, 0.975)
    common_hw = t95 * float(v.std(ddof=1)) / math.sqrt(T)
    e_rel_hw = t95 * float(e_model.std(ddof=1)) / math.sqrt(T) / float(e_model.mean())
    counted_ues = int(n_counted[:, :n_regions].sum())
    vars(MC_STATS).update(topologies=T, n_fading=mc.n_fading, workers=workers,
                          closed_form_ues=int(n_ue[:, :n_regions].sum()) - counted_ues,
                          counted_ues=counted_ues, mc_s=time.perf_counter() - start)
    return McEstimate(
        analytical_nu_bar=alloc.nu_bar,
        common_throughput=float(v.mean()),
        common_half_width=common_hw,
        nop_by_region={k: float(hat[i]) for k, i in regions.items()},
        nop_half_width_by_region={k: float(hw[i]) for k, i in regions.items()},
        nop_by_decile=hat[deciles].tolist(),
        nop_decile_half_width=hw[deciles].tolist(),
        energy_mean=float(e_model.mean()),
        energy_mean_with_overflow=float(np.mean(e_actual)),
        energy_rel_half_width=e_rel_hw,
        overflow_ue_share=int(n_over.sum()) / (T * cell.K),
        max_sector_load=max_load)
