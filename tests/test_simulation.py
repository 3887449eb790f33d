"""Monte Carlo harness: topology sampling, stratified NOP, certification."""

import dataclasses
import math

import numpy as np
import pytest

from irsplan.channel import RadioConfig
from irsplan.geometry import CellConfig, RingPlan, sector_area
from irsplan.planner import PlanResult
from irsplan.powerctl import ap_region_coefficient, equalize_power
from irsplan.simulation import (McConfig, sample_topology, validate_plan_mc)


def ap_only_result(radio, cell):
    """Whole-cell CIPC wrapped as a PlanResult (no IRS rings)."""
    plan = RingPlan(R_in=(cell.R_ex,), M=(), L=())
    alloc = equalize_power([ap_region_coefficient(radio, cell, 0.95, cell.R_ex)],
                           radio, 0.95)
    return PlanResult(plan=plan, allocation=alloc, nu_bar=alloc.nu_bar,
                      method="ap-cipc")


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(element_draws="fancy")
        with pytest.raises(ValueError):
            McConfig(n_topologies=0)


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
        from irsplan.numerics import get_tail_quantile
        from irsplan.powerctl import cipc_power
        eta0, p_no = plan_m15_a1.allocation.eta0_star, 0.95
        topo = sample_topology(cell, radio, irs, plan_m15_a1.plan, eta0, p_no, 2,
                               McConfig(seed=5))
        irs_ue = topo.ring > 0
        assert irs_ue.any() and (~irs_ue).any()
        want_irs = required_power_irs(radio, irs, (topo.r[irs_ue], topo.l[irs_ue],
                                                   topo.d[irs_ue]), eta0, p_no,
                                      quantile=get_tail_quantile(p_no))
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
        for n in (250, 4000):
            est = validate_plan_mc(cell, radio, irs, res,
                                   McConfig(n_topologies=10, n_fading=n, seed=9,
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
        assert est.min_ue_throughput <= est.common_throughput + 1e-12
        # AP stratum is exact CIPC; IRS strata may only err on the safe side
        assert est.nop_by_region["ap"] == pytest.approx(
            0.95, abs=3 * est.nop_half_width_by_region["ap"] + 1e-3)
        for k in ("ring1", "ring2"):
            assert est.nop_by_region[k] > 0.94
        assert "tail_fit_note" in est.notes
        assert est.notes["irs_region_nop_minus_target"].keys() == {"ring1", "ring2"}

    def test_exact_draws_agree_with_surrogate(self, cell, radio, irs,
                                              plan_m15_a1):
        kw = dict(n_topologies=2, n_fading=1200, seed=11)
        exact = validate_plan_mc(cell, radio, irs, plan_m15_a1,
                                 McConfig(element_draws="exact", **kw))
        surr = validate_plan_mc(cell, radio, irs, plan_m15_a1,
                                McConfig(element_draws="gaussian-surrogate", **kw))
        assert exact.element_draws == "exact"
        for k in ("ap", "ring1", "ring2"):
            assert exact.nop_by_region[k] == pytest.approx(
                surr.nop_by_region[k], abs=0.02)

    def test_worker_count_does_not_change_results(self, cell, radio, irs,
                                                  plan_m15_a1):
        kw = dict(n_topologies=4, n_fading=800, seed=6,
                  element_draws="gaussian-surrogate")
        one = validate_plan_mc(cell, radio, irs, plan_m15_a1,
                               McConfig(n_workers=1, **kw))
        three = validate_plan_mc(cell, radio, irs, plan_m15_a1,
                                 McConfig(n_workers=3, **kw))
        for f in dataclasses.fields(one):
            assert getattr(one, f.name) == getattr(three, f.name), f.name

    def test_repeat_run_is_identical(self, cell, radio, irs, plan_m15_a1):
        kw = dict(n_topologies=3, n_fading=600, seed=8,
                  element_draws="gaussian-surrogate")
        a = validate_plan_mc(cell, radio, irs, plan_m15_a1, McConfig(**kw))
        b = validate_plan_mc(cell, radio, irs, plan_m15_a1, McConfig(**kw))
        assert a == b

    def test_seed_changes_results(self, cell, radio, irs, plan_m15_a1):
        kw = dict(n_topologies=3, n_fading=600,
                  element_draws="gaussian-surrogate")
        a = validate_plan_mc(cell, radio, irs, plan_m15_a1, McConfig(seed=8, **kw))
        b = validate_plan_mc(cell, radio, irs, plan_m15_a1, McConfig(seed=81, **kw))
        assert a.common_throughput != b.common_throughput
