"""Power-control policies: CIPC, region energy coefficients, equalization."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from irsplan.channel import nop_direct
from irsplan.geometry import make_ring_plan
from irsplan.numerics import integrate_radial, reg_upper_gamma
from irsplan.planner import _coefficient_table, _finalize, line_search
from irsplan.powerctl import (RegionEnergyCoefficient, _maxmin_over_rate,
                              _pareto_seed, _worst_case_grid,
                              ap_region_coefficient, benchmark_cipc,
                              benchmark_equal_power, benchmark_irs_equal_power,
                              benchmark_irs_mean_cipc, cipc_power,
                              equalize_power, f0_integral,
                              irs_region_coefficient)


class TestCipc:
    def test_nop_is_exactly_target_everywhere(self, radio):
        eta0, p_no = 28.05, 0.95
        gamma_bar = eta0 / math.log(1.0 / p_no)
        for r in (0.0, 17.0, 120.0, 250.0):
            p = cipc_power(radio, gamma_bar, r)
            assert nop_direct(radio, p, r, eta0) == pytest.approx(p_no, abs=1e-14)

    def test_vectorized(self, radio):
        r = np.array([0.0, 50.0, 120.0])
        p = cipc_power(radio, 10.0, r)
        assert p.shape == (3,)
        assert np.all(np.diff(p) > 0)  # farther UEs need more power

    def test_rejects_nonpositive_snr(self, radio):
        with pytest.raises(ValueError):
            cipc_power(radio, 0.0, 100.0)


class TestApCoefficient:
    def test_f0_against_quadrature(self, radio):
        for R in (60.0, 120.0, 250.0):
            quad = integrate_radial(
                lambda r: r * (r * r + radio.H_A ** 2) ** (radio.n0 / 2.0), 0.0, R)
            assert f0_integral(radio, R) == pytest.approx(quad, rel=1e-12)
        assert f0_integral(radio, 0.0) == 0.0
        with pytest.raises(ValueError):
            f0_integral(radio, -1.0)

    def test_c0_algebraic_form(self, radio, cell):
        p_no, R = 0.95, 120.0
        c = ap_region_coefficient(radio, cell, p_no, R)
        want = (2.0 * math.pi * cell.ue_density * radio.W * radio.t0
                * f0_integral(radio, R) / (radio.alpha0 * math.log(1.0 / p_no)))
        assert c.C == pytest.approx(want, rel=1e-14)
        assert c.region == "ap"

    def test_energy_coefficient_is_expected_cipc_energy(self, radio, cell):
        # C * eta0 must equal the mean per-frame energy of CIPC over the disc:
        # K * (area fraction) * t0 * E{p(r)} with r^2 uniform on the disc
        p_no, R, eta0 = 0.95, 180.0, 12.0
        gamma_bar = eta0 / math.log(1.0 / p_no)
        mean_p = 2.0 * integrate_radial(
            lambda r: r * cipc_power(radio, gamma_bar, r), 0.0, R) / R ** 2
        ues_in_disc = cell.K * R ** 2 / cell.R_ex ** 2
        want = ues_in_disc * radio.t0 * mean_p
        got = ap_region_coefficient(radio, cell, p_no, R).C * eta0
        assert got == pytest.approx(want, rel=1e-10)

    def test_finalize_sums_the_ap_spans(self, radio, cell, irs):
        # an open exterior adds the annulus (R_in[0], R_ex] to the inner disc
        def ap(R):
            return ap_region_coefficient(radio, cell, 0.95, R).C

        res = _finalize(cell, radio, irs, 0.95, [230.0, 210.0], [10], "t")
        assert res.diagnostics["region_coefficients_J"]["ap"] == \
            ap(210.0) + (ap(250.0) - ap(230.0))
        # without rings the two spans cover the whole cell
        closed = _finalize(cell, radio, irs, 0.95, [250.0], [], "t")
        assert closed.diagnostics["region_coefficients_J"]["ap"] == ap(250.0)
        opened = _finalize(cell, radio, irs, 0.95, [200.0], [], "t")
        assert opened.diagnostics["region_coefficients_J"]["ap"] == \
            pytest.approx(ap(250.0), rel=1e-14)

    def test_target_validation(self, radio, cell):
        with pytest.raises(ValueError):
            ap_region_coefficient(radio, cell, 1.0, 100.0)


class TestIrsCoefficient:
    def test_fixed_vs_adaptive_quadrature(self, radio, cell, irs):
        # the planner's fixed 16-point rule against the adaptive contract path
        plan = make_ring_plan(cell, (250.0, 230.0, 190.0), (10, 17))
        table = _coefficient_table(cell, radio, irs, 0.95, 10.0)
        index = {float(r): k for k, r in enumerate(table.radii)}
        for i in (1, 2):
            adaptive = irs_region_coefficient(radio, cell, irs, plan, i, 0.95)
            lo, hi = plan.ring_bounds(i)
            C_fixed = table.ring_vec(index[hi], plan.M[i - 1], i == 1)[index[lo]]
            assert adaptive.C == pytest.approx(C_fixed, rel=2e-6)
            assert adaptive.region == f"ring{i}"

    def test_empty_ring_has_zero_cost(self, radio, cell, irs):
        plan = make_ring_plan(cell, (250.0, 250.0, 190.0), (10, 17))
        assert irs_region_coefficient(radio, cell, irs, plan, 1, 0.95).C == 0.0

    def test_more_sectors_cost_less(self, radio, cell, irs):
        # splitting a ring into more sectors shrinks each sector's span, so
        # the worst in-sector offsets shrink and the summed energy drops
        base = make_ring_plan(cell, (250.0, 230.0), (5,))
        fine = make_ring_plan(cell, (250.0, 230.0), (10,))
        C5 = irs_region_coefficient(radio, cell, irs, base, 1, 0.95).C / 5
        C10 = irs_region_coefficient(radio, cell, irs, fine, 1, 0.95).C / 10
        assert C10 < C5  # per-sector energy, not just per-ring


class TestEqualizePower:
    COEFFS = [RegionEnergyCoefficient("ap", 4.0e-5),
              RegionEnergyCoefficient("ring1", 1.0e-5),
              RegionEnergyCoefficient("ring2", 3.0e-5)]

    def test_closed_form_split(self, radio):
        alloc = equalize_power(self.COEFFS, radio, 0.95)
        total = 8.0e-5
        assert alloc.eta0_star == pytest.approx(radio.E_total / total, rel=1e-14)
        assert sum(alloc.rho) == pytest.approx(1.0, rel=1e-14)
        assert alloc.rho[0] == pytest.approx(4.0 / 8.0, rel=1e-14)
        assert alloc.rho[1] == pytest.approx(1.0 / 8.0, rel=1e-14)
        assert alloc.R_bar == pytest.approx(math.log2(1.0 + alloc.eta0_star), rel=1e-14)
        assert alloc.nu_bar == pytest.approx(0.95 * alloc.R_bar, rel=1e-14)

    def test_matches_root_finding_oracle(self, radio):
        # the budget constraint sum(eta0 * C) = E_total solved blindly
        total = sum(c.C for c in self.COEFFS)
        root = brentq(lambda e: e * total - radio.E_total, 1e-6, 1e9,
                      xtol=1e-18, rtol=1e-15)
        alloc = equalize_power(self.COEFFS, radio, 0.95)
        assert alloc.eta0_star == pytest.approx(root, rel=1e-12)

    def test_energy_budget_identity(self, radio):
        alloc = equalize_power(self.COEFFS, radio, 0.95)
        spent = sum(alloc.eta0_star * c.C for c in self.COEFFS)
        assert spent == pytest.approx(radio.E_total, rel=1e-14)

    def test_rejects_bad_coefficients(self, radio):
        with pytest.raises(ValueError):
            equalize_power([RegionEnergyCoefficient("ap", -1.0)], radio, 0.95)
        with pytest.raises(ValueError):
            equalize_power([RegionEnergyCoefficient("ap", 0.0)], radio, 0.95)


class TestApBaselines:
    def test_equal_power_anchor(self, radio, cell):
        rep = benchmark_equal_power(radio, cell, 0.95)
        assert rep.details["p_ue_W"] == pytest.approx(
            radio.E_total / (cell.K * radio.t0), rel=1e-14)
        assert rep.eta0 == pytest.approx(2.3409426570690024, rel=1e-12)
        assert rep.nu_bar == pytest.approx(1.653242459858146, rel=1e-12)

    def test_equal_power_closed_form(self, radio, cell):
        from irsplan.channel import mean_gain_direct
        rep = benchmark_equal_power(radio, cell, 0.95)
        p = radio.E_total / (cell.K * radio.t0)
        eta0 = p * mean_gain_direct(radio, cell.R_ex) * math.log(1 / 0.95) / radio.W
        assert rep.eta0 == pytest.approx(eta0, rel=1e-14)

    def test_cipc_anchor(self, radio, cell):
        rep = benchmark_cipc(radio, cell, 0.95)
        assert rep.eta0 == pytest.approx(5.843008426081728, rel=1e-12)
        assert rep.nu_bar == pytest.approx(2.635899187631741, rel=1e-12)
        assert rep.details["C0_J"] == pytest.approx(1.71144712976324e-4, rel=1e-12)

    def test_cipc_beats_equal_power(self, radio, cell):
        assert benchmark_cipc(radio, cell, 0.95).nu_bar > \
            benchmark_equal_power(radio, cell, 0.95).nu_bar


@pytest.fixture(scope="module")
def small_plan(cell):
    return make_ring_plan(cell, (250.0, 230.0, 190.0), (10, 17))


class TestIrsBaselines:
    def test_equal_power_on_fixed_placement(self, radio, cell, irs, small_plan):
        rep = benchmark_irs_equal_power(radio, cell, irs, small_plan)
        assert rep.method == "irs-equal-power"
        assert 0.0 < rep.nu_bar
        # achieved NOP floats with the policy but stays a probability
        assert 0.0 < rep.p_no <= 1.0
        assert rep.nu_bar == pytest.approx(rep.p_no * rep.R_bar, rel=1e-9)

    def test_mean_cipc_on_fixed_placement(self, radio, cell, irs, small_plan):
        rep = benchmark_irs_mean_cipc(radio, cell, irs, small_plan)
        assert rep.method == "irs-mean-cipc"
        assert rep.details["gamma_bar"] > 0
        assert 0.0 < rep.p_no <= 1.0
        assert rep.nu_bar == pytest.approx(rep.p_no * rep.R_bar, rel=1e-9)

    def test_policy_ordering_on_shared_placement(self, radio, cell, irs, small_plan):
        # mean-gain inversion adapts to position, equal power does not; with
        # the IRS placement fixed the adaptive policy should not lose
        ep = benchmark_irs_equal_power(radio, cell, irs, small_plan)
        mc = benchmark_irs_mean_cipc(radio, cell, irs, small_plan)
        assert mc.nu_bar >= ep.nu_bar * 0.98

    def test_mean_cipc_without_rings_is_ap_cipc(self, radio, cell, irs):
        # no rings: the disc inside R_in[0] and the exterior annulus are both
        # AP-served, so gamma_bar is the AP-only CIPC mean SNR over the cell
        plan = make_ring_plan(cell, [200.0], [])
        rep = benchmark_irs_mean_cipc(radio, cell, irs, plan)
        want = (radio.E_total * radio.alpha0
                / (2.0 * math.pi * cell.ue_density * radio.W * radio.t0
                   * f0_integral(radio, cell.R_ex)))
        assert rep.details["gamma_bar"] == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# the pruned max-min rate scan against the brute-force scan it replaced
# ---------------------------------------------------------------------------

RATES = np.exp(np.linspace(math.log(1e-4), math.log(1e6), 240))


def unpruned_scan(nop_of_eta0):
    """Oracle: every position at all 240 rates, then 60 golden-section steps.

    nop_of_eta0 maps a scalar threshold to the minimum NOP over every
    position; this is the scan before bound-and-verify pruning, kept
    verbatim so the pruned one can be held to its exact numbers.
    """
    coarse = 240
    grid = np.exp(np.linspace(math.log(1e-4), math.log(1e6), coarse))

    def objective(eta0):
        return math.log2(1.0 + eta0) * nop_of_eta0(eta0)

    vals = [objective(e) for e in grid]
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, coarse - 1)]
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


def unpruned_equal_power(radio, cell, irs, plan):
    p = radio.E_total / (cell.K * radio.t0)
    _, alpha, beta, g_ap = _worst_case_grid(radio, cell, irs, plan)

    def min_nop(eta0):
        thr = radio.W * eta0 / p
        worst = 1.0
        if alpha.size:
            worst = min(worst, float(reg_upper_gamma(alpha, beta * thr).min()))
        if g_ap.size:
            worst = min(worst, float(np.exp(-thr / g_ap).min()))
        return worst

    return unpruned_scan(min_nop)


def unpruned_mean_cipc(radio, cell, irs, plan, gamma_bar):
    mean_z2, alpha, beta, g_ap = _worst_case_grid(radio, cell, irs, plan)

    def min_nop(eta0):
        worst = 1.0
        if alpha.size:
            x = beta * mean_z2 * eta0 / gamma_bar
            worst = min(worst, float(reg_upper_gamma(alpha, x).min()))
        if g_ap.size:
            worst = min(worst, math.exp(-eta0 / gamma_bar))
        return worst

    return unpruned_scan(min_nop)


def unpruned_synthetic(nops, n):
    every = np.arange(n)
    return unpruned_scan(lambda e: float(np.min(nops(e, every), initial=1.0)))


def gamma_nops(alpha, beta):
    """Positions with NOP G_alpha(beta eta0), the equal-power form."""
    def nops(eta0, idx):
        return reg_upper_gamma(alpha[idx], beta[idx] * eta0)
    return nops


def step_nops(*positions):
    """Positions given as NOP functions of a rate array."""
    def nops(eta0, idx):
        e = np.asarray(eta0, dtype=float).reshape(np.shape(eta0)[:1])  # () or (rates,)
        return np.stack([f(e) + np.zeros(e.shape) for f in positions], axis=-1)[..., idx]
    return nops


@pytest.fixture(scope="module", params=[10, 20, 50, 100])
def line_search_plan(request, cell, radio, irs):
    return line_search(cell, radio, irs, request.param, 3).plan


def _plans(cell):
    return {"ap-only": make_ring_plan(cell, [200.0], []),
            "no-ap-span": make_ring_plan(cell, (250.0, 120.0, 0.0), (10, 17)),
            "two-rings": make_ring_plan(cell, (250.0, 230.0, 190.0), (10, 17))}


class TestPrunedRateScan:
    @staticmethod
    def assert_both_policies_exact(radio, cell, irs, plan):
        ep = benchmark_irs_equal_power(radio, cell, irs, plan)
        assert (ep.eta0, ep.nu_bar, ep.p_no) == unpruned_equal_power(radio, cell, irs, plan)
        mc = benchmark_irs_mean_cipc(radio, cell, irs, plan)
        assert (mc.eta0, mc.nu_bar, mc.p_no) == unpruned_mean_cipc(
            radio, cell, irs, plan, mc.details["gamma_bar"])

    def test_line_search_plans(self, radio, cell, irs, line_search_plan):
        self.assert_both_policies_exact(radio, cell, irs, line_search_plan)

    @pytest.mark.parametrize("name", ["ap-only", "no-ap-span", "two-rings"])
    def test_edge_plans(self, radio, cell, irs, name):
        plan = _plans(cell)[name]
        if name == "no-ap-span":
            assert _worst_case_grid(radio, cell, irs, plan)[3].size == 0
        self.assert_both_policies_exact(radio, cell, irs, plan)

    def test_pareto_seed_dominates_every_position(self, radio, cell, irs):
        _, alpha, beta, _ = _worst_case_grid(radio, cell, irs, _plans(cell)["two-rings"])
        seed = _pareto_seed(alpha, beta)
        assert 0 < seed.size < alpha.size / 10
        dominated = ((alpha[seed][:, None] <= alpha[None, :])
                     & (beta[seed][:, None] >= beta[None, :]))
        assert dominated.any(axis=0).all()

    @pytest.mark.parametrize("seed_kind", ["pareto", "empty", "first", "all"])
    @pytest.mark.parametrize("case", ["duplicated", "all-equal", "underflow",
                                      "all-underflow"])
    def test_synthetic_positions(self, radio, cell, irs, case, seed_kind):
        # the seed sets the cost only: any subset, even none, gives the
        # brute-force numbers
        if case == "duplicated":
            _, alpha, beta, _ = _worst_case_grid(radio, cell, irs,
                                                 _plans(cell)["two-rings"])
            thr_per_eta0 = radio.W * cell.K * radio.t0 / radio.E_total
            alpha, beta = np.tile(alpha, 3), np.tile(beta * thr_per_eta0, 3)
        elif case == "all-equal":
            alpha, beta = np.full(50, 3.0), np.full(50, 0.2)
        elif case == "underflow":  # zero NOP at most rates, never at the lowest
            alpha = np.linspace(1.0, 5.0, 40)
            beta = np.geomspace(1e2, 1e4, 40)
        else:
            alpha, beta = np.full(30, 1.0), np.geomspace(1e10, 1e12, 30)
        nops, n = gamma_nops(alpha, beta), alpha.size
        if case.endswith("underflow"):
            assert nops(1e6, np.arange(n)).max() == 0.0
        seed = {"pareto": _pareto_seed(alpha, beta), "empty": np.empty(0, int),
                "first": np.array([0]), "all": np.arange(n)}[seed_kind]
        assert _maxmin_over_rate(nops, n, seed) == unpruned_synthetic(nops, n)

    def test_margin_covers_rounding_inversions(self):
        # one position, monotone but for a 2e-12 relative rise at the top
        # rate, as rounding can produce; without the 1e-9 margin the bracket
        # [RATES[-2], RATES[-1]] would drop it and read the capped NOP 1
        top = RATES[-1]
        nops = step_nops(lambda e: np.where(e < top, 0.5 * (1.0 - 2e-12), 0.5))
        got = _maxmin_over_rate(nops, 1, np.array([0]))
        assert got == unpruned_synthetic(nops, 1)
        assert got[2] == 0.5 * (1.0 - 2e-12)

    def test_rates_outside_the_bracket_see_every_position(self, monkeypatch):
        # an exp that errs 1e-12 high pushes the section's last rates past
        # the bracket end b = RATES[-1]; a position with a high NOP at b
        # that collapses just beyond it must still be seen there
        top = RATES[-1]
        nops = step_nops(
            lambda e: np.full(e.shape, 0.5),
            lambda e: np.where(e <= top, 0.9,
                               1e-3 * np.exp(-np.maximum(e / top - 1.0, 0.0) * 1e13)))
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda x: exp(x) * (1.0 + 1e-12))
        got = _maxmin_over_rate(nops, 2, np.array([0]))
        want = unpruned_synthetic(nops, 2)
        monkeypatch.undo()
        assert got == want
