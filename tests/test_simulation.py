"""Monte Carlo harness: topology sampling, stratified NOP, certification."""

import dataclasses
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.special import stdtrit

from irsplan import simulation
from irsplan._kernels import exact_tail_stats, unit_draw_bytes
from irsplan.channel import IrsSpec, _cascade_moments, _gain_irs_links, mean_gain_direct
from irsplan.geometry import CellConfig, RingPlan, sector_area
from irsplan.numerics import Refused
from irsplan.planner import PlanResult, algorithm1
from irsplan.powerctl import ap_region_coefficient, equalize_power
from irsplan.simulation import (McConfig, sample_topology, simulate_ue_successes,
                                validate_plan_mc)


def ap_only_result(radio, cell, p_no=0.95):
    """Whole-cell CIPC wrapped as a PlanResult (no IRS rings)."""
    plan = RingPlan(R_in=(cell.R_ex,), M=(), L=())
    alloc = equalize_power([ap_region_coefficient(radio, cell, p_no, cell.R_ex)],
                           radio, p_no)
    return PlanResult(plan=plan, allocation=alloc, method="ap-cipc")


def per_ue_successes(cfg, irs, topo, eta0, mc, topo_idx):
    """Small-scale oracle: independent draws from one Philox stream per UE."""
    counts = np.zeros(topo.K, dtype=np.int64)
    g_d_all = mean_gain_direct(cfg, topo.r)
    for k in range(topo.K):
        rng = np.random.Generator(np.random.Philox(key=np.array(
            [mc.seed, (topo_idx << 20) | (k + 1)], dtype=np.uint64)))
        g_d = g_d_all[k]
        z2_min = cfg.W * eta0 / topo.power[k]
        if not topo.served_by_irs[k]:
            counts[k] = np.count_nonzero(rng.standard_exponential(mc.n_fading) >= z2_min / g_d)
            continue
        g_i, g_r = _gain_irs_links(cfg, topo.l[k], topo.d[k])
        if mc.element_draws == "exact":
            counts[k] = exact_tail_stats(rng.bit_generator, mc.n_fading, irs.N,
                                         g_i, g_r, g_d, z2_min)[0]
        else:
            mu, s2 = _cascade_moments(irs.N, g_i, g_r)
            z = mu + math.sqrt(s2) * rng.standard_normal(mc.n_fading)
            z = np.maximum(z + np.sqrt(g_d * rng.standard_exponential(mc.n_fading)), 0.0)
            counts[k] = np.count_nonzero(z * z >= z2_min)
    return counts


class Drawn(Exception):
    pass


def no_draw(*args):
    """A fading bank that must not be drawn."""
    raise Drawn


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(element_draws="fancy")
        with pytest.raises(ValueError):
            McConfig(n_topologies=0)
        # the cluster and Student-t intervals need T - 1 >= 1
        with pytest.raises(ValueError, match="n_topologies >= 2"):
            McConfig(n_topologies=1)


class TestTopologySampling:
    def test_positions_deterministic_per_index(self, cell, radio, irs,
                                               plan_m15_a1):
        mc = McConfig(seed=5)
        alloc = plan_m15_a1.allocation
        a = sample_topology(cell, radio, irs, plan_m15_a1.plan,
                            alloc.eta0_star, alloc.p_no, 3, mc)
        b = sample_topology(cell, radio, irs, plan_m15_a1.plan,
                            alloc.eta0_star, alloc.p_no, 3, mc)
        c = sample_topology(cell, radio, irs, plan_m15_a1.plan,
                            alloc.eta0_star, alloc.p_no, 4, mc)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.power, b.power)
        assert not np.array_equal(a.r, c.r)

    def test_uniform_disc_radius_moment(self, cell, radio, irs, plan_m15_a1):
        # r = R sqrt(u) gives E{r} = 2R/3
        mc = McConfig(seed=2)
        alloc = plan_m15_a1.allocation
        rs = np.concatenate([
            sample_topology(cell, radio, irs, plan_m15_a1.plan,
                            alloc.eta0_star, alloc.p_no, t, mc).r
            for t in range(40)])
        se = cell.R_ex * math.sqrt(1.0 / 18.0) / math.sqrt(rs.size)  # std of r
        assert rs.mean() == pytest.approx(2.0 * cell.R_ex / 3.0, abs=4 * se)
        assert rs.max() <= cell.R_ex

    def test_ring_occupancy_matches_area(self, cell, radio, irs, plan_m15_a1):
        mc = McConfig(seed=7)
        plan = plan_m15_a1.plan
        alloc = plan_m15_a1.allocation
        T = 60
        in_ring1 = sum(
            int((sample_topology(cell, radio, irs, plan, alloc.eta0_star,
                                 alloc.p_no, t, mc).ring == 1).sum())
            for t in range(T))
        frac = plan.M[0] * sector_area(plan, 1) / (math.pi * cell.R_ex ** 2)
        n = T * cell.K
        sd = math.sqrt(n * frac * (1 - frac))
        assert abs(in_ring1 - n * frac) < 4 * sd

    def test_slot_limit_keeps_nearest(self, radio, irs):
        # one giant sector and a tiny slot limit force overflow; the survivors
        # must be the UEs closest to the surface
        cfg = dataclasses.replace(radio, n_t=3)
        cell = CellConfig(R_ex=250.0, K=40, K_irs_max=1000.0, M1_max=10)
        plan = RingPlan(R_in=(250.0, 10.0), M=(1,), L=(10.0,))
        mc = McConfig(seed=1)
        topo = sample_topology(cell, cfg, irs, plan, 10.0, 0.95, 0, mc)
        ring_members = np.flatnonzero(topo.ring == 1)
        kept = np.flatnonzero(topo.served_by_irs)
        assert len(kept) == 3
        worst_kept = topo.d[kept].max()
        bumped = np.flatnonzero(topo.overflow)
        assert len(bumped) == len(ring_members) - 3
        assert (topo.d[bumped] >= worst_kept).all()

    def test_slot_limit_per_sector_over_rings(self, cell, radio, irs):
        # a multi-ring plan with a small slot limit overflows many sectors at
        # once; each (ring, sector) keeps exactly min(members, n_t) UEs, its
        # nearest to the surface
        cfg = dataclasses.replace(radio, n_t=4)
        res = algorithm1(cell, cfg, irs, 30, I_max=10)
        assert res.plan.I > 1
        alloc = res.allocation
        n_full = 0
        for t in range(3):
            topo = sample_topology(cell, cfg, irs, res.plan, alloc.eta0_star,
                                   alloc.p_no, t, McConfig(seed=4))
            irs_ue = topo.ring > 0
            assert np.array_equal(topo.served_by_irs | topo.overflow, irs_ue)
            pairs = set(zip(topo.ring[irs_ue], topo.sector[irs_ue]))
            assert len(pairs) == len(np.unique(topo.sector[irs_ue]))
            for i, s in pairs:
                members = (topo.ring == i) & (topo.sector == s)
                kept = members & topo.served_by_irs
                bumped = members & topo.overflow
                assert kept.sum() == min(members.sum(), cfg.n_t)
                if bumped.any():
                    n_full += 1
                    assert topo.d[bumped].min() >= topo.d[kept].max()
        assert n_full > 1

    def test_overflow_power_policy(self, radio, irs):
        from irsplan.channel import mean_gain_direct
        cfg = dataclasses.replace(radio, n_t=3)
        cell = CellConfig(R_ex=250.0, K=40, K_irs_max=1000.0, M1_max=10)
        plan = RingPlan(R_in=(250.0, 10.0), M=(1,), L=(10.0,))
        eta0, p_no = 10.0, 0.95
        topo = sample_topology(cell, cfg, irs, plan, eta0, p_no, 0, McConfig(seed=1))
        bumped = topo.overflow
        gamma0 = eta0 / math.log(1.0 / p_no)
        want = gamma0 * cfg.W / mean_gain_direct(cfg, topo.r[bumped])
        assert topo.power[bumped] == pytest.approx(want, rel=1e-12)
        # the allocation model keeps charging the ring policy for bumped UEs
        assert (topo.power_model[bumped] != topo.power[bumped]).all()

    def test_powers_are_the_shared_formulas(self, cell, radio, irs, plan_m15_a1):
        from irsplan.channel import required_power_irs
        from irsplan.powerctl import cipc_power
        eta0, p_no = plan_m15_a1.allocation.eta0_star, 0.95
        topo = sample_topology(cell, radio, irs, plan_m15_a1.plan, eta0, p_no, 2,
                               McConfig(seed=5))
        irs_ue = topo.ring > 0
        assert irs_ue.any() and (~irs_ue).any()
        want_irs = required_power_irs(radio, irs, (topo.r[irs_ue], topo.l[irs_ue],
                                                   topo.d[irs_ue]), eta0, p_no)
        want_ap = cipc_power(radio, eta0 / math.log(1.0 / p_no), topo.r[~irs_ue])
        assert np.array_equal(topo.power_model[irs_ue], want_irs)
        assert np.array_equal(topo.power_model[~irs_ue], want_ap)


class TestApOnlyCertification:
    def test_cipc_hits_target_exactly(self, cell, radio, irs):
        res = ap_only_result(radio, cell)
        mc = McConfig(n_topologies=20, n_fading=1000, seed=3,
                      element_draws="gaussian-surrogate")
        est = validate_plan_mc(cell, radio, irs, res, mc)
        hw = est.nop_half_width_by_region["ap"]
        assert est.nop_by_region["ap"] == pytest.approx(0.95, abs=3 * hw)
        assert est.analytical_nu_bar == pytest.approx(res.nu_bar, rel=1e-14)
        # analytical promise sits inside the certification interval
        assert abs(est.common_throughput - res.nu_bar) < 3 * est.common_half_width
        assert est.overflow_ue_share == 0.0
        assert est.energy_mean == est.energy_mean_with_overflow

    def test_interval_shrinks_like_sqrt_n(self, cell, radio, irs):
        res = ap_only_result(radio, cell)
        hws = []
        # at 10 topologies the ratio of two half-widths missed (2.2, 7.0) at
        # 6 of 40 seeds; at 30 it missed at none
        for n in (250, 4000):
            est = validate_plan_mc(cell, radio, irs, res,
                                   McConfig(n_topologies=30, n_fading=n, seed=9,
                                            element_draws="gaussian-surrogate"))
            hws.append(est.common_half_width)
        ratio = hws[0] / hws[1]
        assert 2.2 < ratio < 7.0  # ideal 4 for a 16x draw increase

    def test_energy_audit_tracks_budget(self, cell, radio, irs):
        res = ap_only_result(radio, cell)
        est = validate_plan_mc(cell, radio, irs, res,
                               McConfig(n_topologies=60, n_fading=10, seed=4,
                                        element_draws="gaussian-surrogate"))
        # mean frame energy is E_total in expectation; 3 CLT half-widths
        assert abs(est.energy_mean - radio.E_total) < \
            3 * est.energy_rel_half_width * radio.E_total
        deciles = est.nop_by_decile
        assert len(deciles) == 10
        assert all(d == pytest.approx(0.95, abs=0.03) for d in deciles)


class TestRingPlanCertification:
    def test_surrogate_run_report(self, cell, radio, irs, plan_m15_a1):
        mc = McConfig(n_topologies=4, n_fading=1500, seed=11,
                      element_draws="gaussian-surrogate")
        est = validate_plan_mc(cell, radio, irs, plan_m15_a1, mc)
        assert set(est.nop_by_region) == {"ap", "ring1", "ring2"}
        assert est.max_sector_load <= radio.n_t
        # a topology's throughput is R_bar times a success share, so at most R_bar
        assert 0.0 < est.common_throughput <= est.analytical_nu_bar / 0.95
        # AP stratum is exact CIPC; IRS strata may only err on the safe side
        assert est.nop_by_region["ap"] == pytest.approx(
            0.95, abs=3 * est.nop_half_width_by_region["ap"] + 1e-3)
        for k in ("ring1", "ring2"):
            assert est.nop_by_region[k] > 0.94
        assert est.nop_half_width_by_region.keys() == {"ap", "ring1", "ring2"}

    def test_exact_draws_agree_with_surrogate(self, cell, radio, irs,
                                              plan_m15_a1):
        kw = dict(n_topologies=2, n_fading=1200, seed=11)
        exact = validate_plan_mc(cell, radio, irs, plan_m15_a1,
                                 McConfig(element_draws="exact", **kw))
        surr = validate_plan_mc(cell, radio, irs, plan_m15_a1,
                                McConfig(element_draws="gaussian-surrogate", **kw))
        assert exact.nop_by_region != surr.nop_by_region  # the two flavours draw apart
        for k in ("ap", "ring1", "ring2"):
            assert exact.nop_by_region[k] == pytest.approx(
                surr.nop_by_region[k], abs=0.02)

    def test_worker_count_does_not_change_results(self, cell, radio, irs,
                                                  plan_m15_a1, monkeypatch):
        # three threads on any host, however few CPUs it has
        monkeypatch.setattr(simulation, "_cpus_available", lambda: 3)
        kw = dict(n_topologies=4, n_fading=800, seed=6,
                  element_draws="gaussian-surrogate")
        one = validate_plan_mc(cell, radio, irs, plan_m15_a1,
                               McConfig(n_workers=1, **kw))
        three = validate_plan_mc(cell, radio, irs, plan_m15_a1,
                                 McConfig(n_workers=3, **kw))
        for f in dataclasses.fields(one):
            assert getattr(one, f.name) == getattr(three, f.name), f.name

    @pytest.mark.parametrize("draws", ["exact"])
    def test_bank_bytes_are_refused_before_any_draw(self, cell, radio, irs, plan_m15_a1,
                                                    monkeypatch, draws):
        monkeypatch.setattr(simulation, "_cpus_available", lambda: 3)
        monkeypatch.setattr(simulation, "_fading_bank", no_draw)
        n = 2 * simulation._BLOCK_ELEMS   # past one block: 25 B a draw
        need = 3 * (25 * n + unit_draw_bytes(n, irs.N))  # every worker holds its own bank
        mc = McConfig(n_topologies=4, n_fading=n, n_workers=3, element_draws=draws)
        monkeypatch.setattr(simulation, "MAX_BANK_BYTES", need - 1)
        with pytest.raises(Refused) as err:
            validate_plan_mc(cell, radio, irs, plan_m15_a1, mc)
        assert err.value.payload["kind"] == "too-expensive"
        assert f"{need} bytes" in err.value.payload["detail"]
        monkeypatch.setattr(simulation, "MAX_BANK_BYTES", need)
        with pytest.raises(Drawn):
            validate_plan_mc(cell, radio, irs, plan_m15_a1, mc)

    def test_surrogate_draws_no_bank(self, cell, radio, irs, plan_m15_a1, monkeypatch):
        # surface-served UEs are priced in closed form, so no byte limit
        # applies and the cost does not grow with n_fading: the ring NOPs at
        # 1e8 draws are those at 10
        monkeypatch.setattr(simulation, "_cpus_available", lambda: 3)
        monkeypatch.setattr(simulation, "_fading_bank", no_draw)
        monkeypatch.setattr(simulation, "MAX_BANK_BYTES", 0)
        kw = dict(n_topologies=2, seed=4, n_workers=3, element_draws="gaussian-surrogate")
        start = time.perf_counter()
        big = validate_plan_mc(cell, radio, irs, plan_m15_a1, McConfig(n_fading=10 ** 8, **kw))
        assert time.perf_counter() - start < 10.0
        small = validate_plan_mc(cell, radio, irs, plan_m15_a1, McConfig(n_fading=10, **kw))
        for k in ("ring1", "ring2"):
            assert big.nop_by_region[k] == pytest.approx(small.nop_by_region[k], rel=1e-12)
        assert big.nop_by_region["ap"] == pytest.approx(0.95, abs=1e-3)

    def test_wide_realizations_are_refused(self, cell, radio, plan_m15_a1, monkeypatch):
        # one realization of 2N+1 exponentials outgrows the kernel's chunk: at
        # N = 1e8 its row and product buffer hold 2.4e9 bytes for one draw
        monkeypatch.setattr(simulation, "_fading_bank", no_draw)
        mc = McConfig(n_topologies=2, n_fading=1, n_workers=1, element_draws="exact")
        with pytest.raises(Refused) as err:
            validate_plan_mc(cell, radio, IrsSpec(N=10 ** 8), plan_m15_a1, mc)
        assert err.value.payload["kind"] == "too-expensive"

    @pytest.mark.parametrize("n_workers,T,cpus,want", [(10 ** 6, 5, 2, 2), (64, 3, 64, 3),
                                                       (1, 4, 8, 1), (4, 10, 3, 3)])
    def test_worker_threads_are_clamped(self, cell, radio, irs, plan_m15_a1, monkeypatch,
                                        n_workers, T, cpus, want):
        # min(n_workers, n_topologies, CPUs); the pool is faked, so no thread
        # starts whatever the settings ask for
        assert simulation._cpus_available() >= 1
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(simulation, "_cpus_available", lambda: cpus)
        validate_plan_mc(cell, radio, irs, plan_m15_a1,
                         McConfig(n_topologies=T, n_fading=10, n_workers=n_workers,
                                  element_draws="gaussian-surrogate"))
        assert asked == [want]

    def test_repeat_run_is_identical(self, cell, radio, irs, plan_m15_a1):
        kw = dict(n_topologies=3, n_fading=600, seed=8,
                  element_draws="gaussian-surrogate")
        a = validate_plan_mc(cell, radio, irs, plan_m15_a1, McConfig(**kw))
        b = validate_plan_mc(cell, radio, irs, plan_m15_a1, McConfig(**kw))
        assert a == b

    def test_topology_means_use_student_t(self, cell, radio, irs, plan_m15_a1,
                                          monkeypatch):
        # common throughput and frame energy are means of T per-topology
        # values, so their 95% half-widths take t(T - 1), 2.262 at T = 10
        rows = []
        run = simulation._run_topology
        monkeypatch.setattr(simulation, "_run_topology",
                            lambda task: rows.append(run(task)) or rows[-1])
        T, n = 10, 500
        est = validate_plan_mc(cell, radio, irs, plan_m15_a1,
                               McConfig(n_topologies=T, n_fading=n, seed=5,
                                        element_draws="gaussian-surrogate"))
        t95 = stdtrit(T - 1, 0.975)
        assert t95 == pytest.approx(2.262, abs=5e-4)
        successes, n_ue = (np.array([r[i] for r in rows]) for i in (0, 1))
        regions = plan_m15_a1.plan.I + 1
        with np.errstate(divide="ignore", invalid="ignore"):
            nop = np.where(n_ue > 0, successes / (n_ue * n), np.inf)[:, :regions]
        v = plan_m15_a1.allocation.R_bar * nop.min(axis=1)
        assert est.common_half_width == pytest.approx(
            t95 * v.std(ddof=1) / math.sqrt(T), rel=1e-12)
        e_model = np.array([r[4] for r in rows])
        assert est.energy_rel_half_width == pytest.approx(
            t95 * e_model.std(ddof=1) / math.sqrt(T) / e_model.mean(), rel=1e-12)

    def test_seed_changes_results(self, cell, radio, irs, plan_m15_a1):
        kw = dict(n_topologies=3, n_fading=600,
                  element_draws="gaussian-surrogate")
        a = validate_plan_mc(cell, radio, irs, plan_m15_a1, McConfig(seed=8, **kw))
        b = validate_plan_mc(cell, radio, irs, plan_m15_a1, McConfig(seed=81, **kw))
        assert a.common_throughput != b.common_throughput


class TestSurrogateClosedForm:
    """A surrogate surface-served UE's success probability
    E_X[exp(-(t - c X)_+^2)], X ~ N(mu, s2) of _cascade_moments(N, 1, 1)."""

    @staticmethod
    def quadrature(c, t, n_elems):
        # 30 digits: the Gaussian integral over X below the kink x0 = t / c,
        # split at the integrand's peak and scaled by its value there (the
        # quadrature's tolerance is absolute), plus the normal tail above x0
        with mp.workdps(30):
            mu, s2 = _cascade_moments(n_elems, 1.0, 1.0)
            mu, sd, c, t = mp.mpf(mu), mp.sqrt(mp.mpf(s2)), mp.mpf(c), mp.mpf(t)
            x0 = t / c
            peak = (mu + 2 * c * t * sd ** 2) / (1 + 2 * c ** 2 * sd ** 2)
            width = sd / mp.sqrt(1 + 2 * c ** 2 * sd ** 2)
            pts = sorted({x0, *(p for p in (peak - 8 * width, peak, peak + 8 * width) if p < x0)})

            def log_f(x):
                return -((x - mu) / sd) ** 2 / 2 - (t - c * x) ** 2

            top = log_f(min(peak, x0))
            below = mp.quad(lambda x: mp.exp(log_f(x) - top), [-mp.inf, *pts])
            return below * mp.exp(top) / (sd * mp.sqrt(2 * mp.pi)) + mp.ncdf(-(x0 - mu) / sd)

    def test_against_mpmath_quadrature(self):
        got_tail = []
        for n_elems in (1, 100, 2000):
            mu, s2 = _cascade_moments(n_elems, 1.0, 1.0)
            for c in (1e-3 / n_elems, 0.05 / n_elems, 1.0 / n_elems, 10.0 / n_elems):
                sd = c * math.sqrt(s2)
                # m = t - c mu from far below 0, through 0, to a tail of 1e-30
                for k in (-8.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 3.0, 8.0, 12.0):
                    t = c * mu + k * math.hypot(sd, math.sqrt(0.5 + sd * sd))
                    if t <= 0.0:    # t = sqrt(z2_min / g_d) is positive
                        continue
                    got = float(simulation._surrogate_success(np.array([c]), np.array([t]),
                                                              n_elems)[0])
                    want = self.quadrature(c, t, n_elems)
                    assert abs(got - want) <= 1e-12 * want, (n_elems, c, k, got, want)
                    got_tail.append(got)
        assert min(got_tail) < 1e-30 and max(got_tail) > 1.0 - 1e-10

    @pytest.mark.parametrize("n_elems,c,k", [(1, 0.6, 0.5), (100, 0.5, -0.7),
                                             (2000, 4e-4, 1.2)])
    def test_against_counted_draws(self, n_elems, c, k):
        # 1e6 surrogate draws of c X + sqrt(E) >= t: the hit share within 4
        # binomial sigma of P
        n = 10 ** 6
        mu, s2 = _cascade_moments(n_elems, 1.0, 1.0)
        t = c * mu + k * math.sqrt(0.5 + c * c * s2)
        gen = np.random.Generator(np.random.Philox(key=np.array([5, n_elems], dtype=np.uint64)))
        x = mu + math.sqrt(s2) * gen.standard_normal(n)
        hits = np.count_nonzero(c * x + np.sqrt(gen.standard_exponential(n)) >= t)
        p = float(simulation._surrogate_success(np.array([c]), np.array([t]), n_elems)[0])
        assert 0.01 < p < 0.99
        assert abs(hits / n - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)

    def test_no_elements_is_the_direct_link(self):
        # v = 0: P = 1 for m <= 0 and exp(-m^2) above, with no division by 0
        t = np.array([0.0, 0.3, 2.0])
        with np.errstate(all="raise"):
            got = simulation._surrogate_success(np.full(3, 0.7), t, 0)
        assert np.array_equal(got, np.exp(-t ** 2))


class TestFadingBank:
    """Every UE of a topology reads its count off one bank of unit draws."""

    @pytest.fixture(scope="class")
    def topo(self, cell, radio, irs, plan_m15_a1):
        alloc = plan_m15_a1.allocation
        topo = sample_topology(cell, radio, irs, plan_m15_a1.plan, alloc.eta0_star,
                               alloc.p_no, 2, McConfig(seed=3))
        assert topo.served_by_irs.any() and (~topo.served_by_irs).any()
        return topo

    @pytest.mark.parametrize("draws", ["exact"])
    def test_counts_are_the_composite_tail(self, radio, irs, plan_m15_a1, topo, draws):
        # the scaled comparison in the bank equals Z^2 >= z2_min on its draws
        # for every surface-served UE
        mc = McConfig(n_fading=300, seed=3, element_draws=draws)
        eta0 = plan_m15_a1.allocation.eta0_star
        x, s, _ = simulation._fading_bank(mc, irs.N, 2)
        g_d = mean_gain_direct(radio, topo.r)[:, None]
        g_i, g_r = _gain_irs_links(radio, topo.l, topo.d)
        a = np.where(topo.served_by_irs, np.sqrt(g_i * g_r), 0.0)[:, None]
        z = np.maximum(a * x + np.sqrt(g_d) * s, 0.0)
        want = np.count_nonzero(z * z >= (radio.W * eta0 / topo.power)[:, None], axis=1)
        got = simulate_ue_successes(radio, irs, topo, eta0, mc, 2)
        assert np.array_equal(got[topo.served_by_irs], want[topo.served_by_irs])

    @pytest.mark.parametrize("draws", ["exact"])
    def test_bank_holds_the_exact_root(self, irs, draws):
        # the bank's second array is sqrt(E) of the stream's direct draws, bit
        # for bit: the root is taken in place over E
        n = 300
        _, s, _ = simulation._fading_bank(McConfig(n_fading=n, seed=3, element_draws=draws),
                                          irs.N, 2)
        gen = np.random.Generator(simulation._philox(3, 2, simulation._BANK_SLOT))
        e = gen.standard_exponential((n, 2 * irs.N + 1))[:, 2 * irs.N]
        assert np.array_equal(s, np.sqrt(e))

    @pytest.mark.parametrize("draws", ["exact", "gaussian-surrogate"])
    def test_ap_counts_are_independent(self, radio, irs, plan_m15_a1, topo, draws):
        # AP-served and overflow UEs each succeed with probability p_no, on
        # draws of their own: their counts differ, pool to p_no, and rerun
        mc = McConfig(n_fading=2000, seed=3, element_draws=draws)
        alloc = plan_m15_a1.allocation
        got = simulate_ue_successes(radio, irs, topo, alloc.eta0_star, mc, 2)
        ap = got[~topo.served_by_irs]
        n = ap.size * mc.n_fading
        assert len(np.unique(ap)) > 1
        assert abs(ap.sum() / n - alloc.p_no) <= 4 * math.sqrt(alloc.p_no * (1 - alloc.p_no) / n)
        again = simulate_ue_successes(radio, irs, topo, alloc.eta0_star, mc, 2)
        assert np.array_equal(again, got)

    @pytest.mark.parametrize("draws", ["exact"])
    def test_counts_match_the_plain_expression(self, radio, irs, plan_m15_a1, topo, draws):
        # the in-place counting loop against one full-size c x + s >= t
        mc = McConfig(n_fading=700, seed=5, element_draws=draws)
        eta0 = plan_m15_a1.allocation.eta0_star
        x, s, _ = simulation._fading_bank(mc, irs.N, 2)
        irs_ue = np.flatnonzero(topo.served_by_irs)
        g_d = mean_gain_direct(radio, topo.r[irs_ue])
        g_i, g_r = _gain_irs_links(radio, topo.l[irs_ue], topo.d[irs_ue])
        c = np.sqrt(g_i * g_r / g_d)
        t = np.sqrt(radio.W * eta0 / topo.power[irs_ue] / g_d)
        want = np.count_nonzero(c[:, None] * x + s >= t[:, None], axis=1)
        got = simulate_ue_successes(radio, irs, topo, eta0, mc, 2)
        assert np.array_equal(got[irs_ue], want)

    @pytest.mark.parametrize("draws", ["exact"])
    def test_block_size_invariance(self, radio, irs, plan_m15_a1, topo, draws,
                                   monkeypatch):
        mc = McConfig(n_fading=500, seed=4, element_draws=draws)
        eta0 = plan_m15_a1.allocation.eta0_star
        one = simulate_ue_successes(radio, irs, topo, eta0, mc, 2)
        for elems in (1, 1700, 10 ** 9):
            monkeypatch.setattr(simulation, "_BLOCK_ELEMS", elems)
            assert np.array_equal(simulate_ue_successes(radio, irs, topo, eta0, mc, 2), one)

    @pytest.mark.parametrize("draws,T,n", [("exact", 3, 200),
                                           ("gaussian-surrogate", 20, 4000)])
    def test_bank_agrees_with_per_ue_oracle(self, cell, radio, irs, plan_m15_a1,
                                            monkeypatch, draws, T, n):
        mc = McConfig(n_topologies=T, n_fading=n, seed=12, element_draws=draws)
        bank = validate_plan_mc(cell, radio, irs, plan_m15_a1, mc)
        monkeypatch.setattr(simulation, "simulate_ue_successes", per_ue_successes)
        oracle = validate_plan_mc(cell, radio, irs, plan_m15_a1, mc)
        assert set(bank.nop_by_region) == set(oracle.nop_by_region) == {"ap", "ring1", "ring2"}
        for k in bank.nop_by_region:
            combined = bank.nop_half_width_by_region[k] + oracle.nop_half_width_by_region[k]
            assert abs(bank.nop_by_region[k] - oracle.nop_by_region[k]) <= combined, k

    def test_no_zero_half_width(self, cell, radio, irs):
        # at p_no ~ 1 every draw succeeds, so every cluster spread is 0; the
        # Agresti-Coull floor must still give a positive width
        res = ap_only_result(radio, cell, p_no=1.0 - 1e-12)
        est = validate_plan_mc(cell, radio, irs, res,
                               McConfig(n_topologies=5, n_fading=20, seed=2,
                                        element_draws="exact"))
        assert est.nop_by_region == {"ap": 1.0}
        assert est.nop_by_decile == [1.0] * 10
        widths = [est.nop_half_width_by_region["ap"], *est.nop_decile_half_width]
        assert all(0.0 < w < 0.2 for w in widths)

    def test_bank_key_differs_from_position_key(self):
        def key(gen):
            return tuple(gen.state["state"]["key"])

        for seed in (0, 1, 2 ** 32 - 1):
            positions = {key(simulation._philox(seed, t, 0))
                         for t in range(64)}
            banks = {key(simulation._philox(seed, t, simulation._BANK_SLOT))
                     for t in range(64)}
            assert len(positions) == len(banks) == 64
            assert not positions & banks
