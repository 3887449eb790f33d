"""Power-control policies: CIPC, region energy coefficients, equalization."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq

from irsplan.channel import (composite_stats_arrays, irs_power_factor,
                             mean_gain_direct, nop_direct)
from irsplan.geometry import irs_distance, irs_distance2, make_ring_plan
from irsplan import powerctl
from irsplan.numerics import NumericsError, integrate_radial, reg_upper_gamma, upper_gamma_tail
from irsplan.planner import PlanCheckError, _finalize, _RingCoefficientTable, line_search
from irsplan.powerctl import (RING_TABLE_STATS, _maxmin_rate,
                              _policy_report, _worst_case_grid,
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
        assert c == pytest.approx(want, rel=1e-14)
        assert isinstance(c, float)

    def test_energy_coefficient_is_expected_cipc_energy(self, radio, cell):
        # C * eta0 must equal the mean per-frame energy of CIPC over the disc:
        # K * (area fraction) * t0 * E{p(r)} with r^2 uniform on the disc
        p_no, R, eta0 = 0.95, 180.0, 12.0
        gamma_bar = eta0 / math.log(1.0 / p_no)
        mean_p = 2.0 * integrate_radial(
            lambda r: r * cipc_power(radio, gamma_bar, r), 0.0, R) / R ** 2
        ues_in_disc = cell.K * R ** 2 / cell.R_ex ** 2
        want = ues_in_disc * radio.t0 * mean_p
        got = ap_region_coefficient(radio, cell, p_no, R) * eta0
        assert got == pytest.approx(want, rel=1e-10)

    def test_finalize_sums_the_ap_spans(self, radio, cell, irs):
        # an open exterior adds the annulus (R_in[0], R_ex] to the inner disc
        def ap(R):
            return ap_region_coefficient(radio, cell, 0.95, R)

        res = _finalize(cell, radio, irs, 0.95, [230.0, 210.0], [10], 10, "t")
        assert list(res.diagnostics["region_coefficients_J"]) == ["ap", "ring1"]
        assert res.diagnostics["region_coefficients_J"]["ap"] == \
            ap(210.0) + (ap(250.0) - ap(230.0))
        # without rings the two spans cover the whole cell
        closed = _finalize(cell, radio, irs, 0.95, [250.0], [], 0, "t")
        assert closed.diagnostics["region_coefficients_J"]["ap"] == ap(250.0)
        opened = _finalize(cell, radio, irs, 0.95, [200.0], [], 0, "t")
        assert opened.diagnostics["region_coefficients_J"]["ap"] == \
            pytest.approx(ap(250.0), rel=1e-14)

    def test_finalize_checks_the_budget_it_was_given(self, radio, cell, irs):
        # a split one surface short of the budget is the planner's fault
        with pytest.raises(PlanCheckError) as err:
            _finalize(cell, radio, irs, 0.95, [250.0, 230.0, 190.0], [10, 16], 27, "t")
        assert err.value.violations == ["irs-budget: sum(M_i)=26 != M=27"]
        assert err.value.payload["kind"] == "invalid-plan"
        assert _finalize(cell, radio, irs, 0.95, [250.0, 230.0, 190.0], [10, 17], 27,
                         "t").plan.M == (10, 17)

    def test_target_validation(self, radio, cell):
        with pytest.raises(ValueError):
            ap_region_coefficient(radio, cell, 1.0, 100.0)


class TestIrsCoefficient:
    def test_screen_vs_graded_price(self, radio, cell, irs):
        # the planner's shared-azimuth screen against the graded rule that prices plans
        plan = make_ring_plan(cell, (250.0, 230.0, 190.0), (10, 17))
        table = _RingCoefficientTable(cell, radio, irs, 0.95, 10.0, 17, 2)
        index = {float(r): k for k, r in enumerate(table.radii)}
        for i in (1, 2):
            graded = irs_region_coefficient(radio, cell, irs, plan, i, 0.95)
            lo, hi = plan.ring_bounds(i)
            C_screen = table.ring_vec(index[hi], plan.M[i - 1], i == 1)[index[lo]]
            assert graded == pytest.approx(C_screen, rel=2e-6)
            assert isinstance(graded, float)

    def test_graded_rule_against_nested_quad(self, radio, cell, irs):
        # scipy's adaptive quad, split at the surface radius, as the reference
        def nested_quad(f, lo, hi, L, half):
            def inner(r):
                return integrate.quad(lambda az: float(f(r, az)) * r, 0.0, half,
                                      epsabs=0.0, epsrel=1e-11, limit=200)[0]
            points = [L] if lo < L < hi else None
            return integrate.quad(inner, lo, hi, points=points, epsabs=0.0,
                                  epsrel=1e-11, limit=200)[0]

        rings = [((250.0, 200.0, 196.85), (10, 1)),  # d -> 0 inside, half sector pi
                 ((250.0, 225.0, 185.0), (10, 57)),  # d -> 0 inside, narrow sector
                 ((250.0, 200.0, 120.0), (10, 1)),   # wide ring, half sector pi
                 ((250.0, 230.0, 0.0), (10, 40))]    # reaches the AP
        for R_in, M in rings:
            plan = make_ring_plan(cell, R_in, M)
            for i in (1, 2):  # ring 1 is a near-AP ring, L = L_min
                lo, hi = plan.ring_bounds(i)
                L, m = plan.L[i - 1], plan.M[i - 1]

                def factor(r, az):
                    return irs_power_factor(radio, irs, r * r, L * L,
                                            irs_distance2(r, L, az), 0.95)

                F = 2.0 * nested_quad(factor, lo, hi, L, math.pi / m)
                want = m * cell.ue_density * radio.W * radio.t0 * F
                got = irs_region_coefficient(radio, cell, irs, plan, i, 0.95)
                assert got == pytest.approx(want, rel=2e-12, abs=0.0), (R_in, M, i)

        # the mean-CIPC calibration integrates 1/E{Z^2} with the same rule
        plan = make_ring_plan(cell, (250.0, 225.0, 185.0, 120.0), (10, 57, 33))
        inv_gain = 2.0 * math.pi * f0_integral(radio, plan.R_in[-1]) / radio.alpha0
        for i in range(1, plan.I + 1):
            lo, hi = plan.ring_bounds(i)
            L = plan.L[i - 1]

            def inv_mean(r, az):
                return 1.0 / composite_stats_arrays(radio, irs, r, L, irs_distance(r, L, az))[0]

            inv_gain += plan.M[i - 1] * 2.0 * nested_quad(inv_mean, lo, hi, L,
                                                          0.5 * plan.sector_angle(i))
        gamma_bar = radio.E_total / (cell.ue_density * radio.W * radio.t0 * inv_gain)
        got = benchmark_irs_mean_cipc(radio, cell, irs, plan).details["gamma_bar"]
        assert got == pytest.approx(gamma_bar, rel=2e-12, abs=0.0)

    def test_graded_rule_counts_its_points(self, radio, cell, irs):
        # ring [185, 225] m, L = 205 m, 57 sectors: radial breakpoints at
        # 196, 202, 204, 206, 208, 214 m (7 panels) and azimuth breakpoints at
        # 1/205, 3/205, 9/205 rad below pi/57 (4 panels), 10 x 10 nodes each
        plan = make_ring_plan(cell, (250.0, 225.0, 185.0), (10, 57))
        before = replace(RING_TABLE_STATS)
        irs_region_coefficient(radio, cell, irs, plan, 2, 0.95)
        assert RING_TABLE_STATS.priced_rings - before.priced_rings == 1
        assert RING_TABLE_STATS.priced_points - before.priced_points == 70 * 40

    def test_only_ring_prices_are_counted(self, radio, cell, irs):
        # the mean-CIPC benchmark integrates on the graded rule too, but it
        # prices no ring; _finalize prices each of a plan's rings once
        R_in, M = (250.0, 225.0, 185.0, 120.0), (10, 30, 17)
        before = replace(RING_TABLE_STATS)
        benchmark_irs_mean_cipc(radio, cell, irs, make_ring_plan(cell, R_in, M))
        assert RING_TABLE_STATS.priced_rings == before.priced_rings
        assert RING_TABLE_STATS.priced_points == before.priced_points
        _finalize(cell, radio, irs, 0.95, R_in, M, sum(M), "line-search")
        assert RING_TABLE_STATS.priced_rings - before.priced_rings == 3

    def test_empty_ring_has_zero_cost(self, radio, cell, irs):
        plan = make_ring_plan(cell, (250.0, 250.0, 190.0), (10, 17))
        assert irs_region_coefficient(radio, cell, irs, plan, 1, 0.95) == 0.0

    def test_more_sectors_cost_less(self, radio, cell, irs):
        # splitting a ring into more sectors shrinks each sector's span, so
        # the worst in-sector offsets shrink and the summed energy drops
        base = make_ring_plan(cell, (250.0, 230.0), (5,))
        fine = make_ring_plan(cell, (250.0, 230.0), (10,))
        C5 = irs_region_coefficient(radio, cell, irs, base, 1, 0.95) / 5
        C10 = irs_region_coefficient(radio, cell, irs, fine, 1, 0.95) / 10
        assert C10 < C5  # per-sector energy, not just per-ring


class TestEqualizePower:
    COEFFS = [4.0e-5, 1.0e-5, 3.0e-5]  # AP, ring 1, ring 2

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
        total = sum(self.COEFFS)
        root = brentq(lambda e: e * total - radio.E_total, 1e-6, 1e9,
                      xtol=1e-18, rtol=1e-15)
        alloc = equalize_power(self.COEFFS, radio, 0.95)
        assert alloc.eta0_star == pytest.approx(root, rel=1e-12)

    def test_energy_budget_identity(self, radio):
        alloc = equalize_power(self.COEFFS, radio, 0.95)
        spent = sum(alloc.eta0_star * C for C in self.COEFFS)
        assert spent == pytest.approx(radio.E_total, rel=1e-14)

    def test_rejects_bad_coefficients(self, radio):
        with pytest.raises(ValueError):
            equalize_power([-1.0], radio, 0.95)
        with pytest.raises(ValueError):
            equalize_power([0.0], radio, 0.95)


class TestApBaselines:
    def test_equal_power_anchor(self, radio, cell):
        rep = benchmark_equal_power(radio, cell, 0.95)
        assert rep.details["p_ue_W"] == pytest.approx(
            radio.E_total / (cell.K * radio.t0), rel=1e-14)
        assert rep.eta0 == pytest.approx(2.3409426570690024, rel=1e-12)
        assert rep.nu_bar == pytest.approx(1.653242459858146, rel=1e-12)

    def test_equal_power_closed_form(self, radio, cell):
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
# the max-min rate solve against the golden-section scan it replaced, and
# against a 50-digit root of its stationarity condition
# ---------------------------------------------------------------------------

ULP = 2.0 ** -52


def unpruned_scan(nop_of_eta0):
    """The golden section the Newton root replaced, kept verbatim: every
    position at all 240 rates, then 60 golden-section steps.

    nop_of_eta0 maps a scalar threshold to the minimum NOP over every
    position.  Its optimum lies below the root's but for rounding.
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


def assert_at_least_the_scan(alpha, scale, eta0, nop):
    """nop is the minimum NOP over every position at eta0, and the throughput
    there is at least the golden section's less 4 ulps of rounding.

    Both throughputs take the rate as log1p: log2(1 + eta0) errs by up to
    2^-53 / ln(1 + eta0) relative (6e-13 at eta0 = 3.6e-4), and the section's
    comparisons pick that rounding up."""
    assert nop == float(np.min(reg_upper_gamma(alpha, scale * eta0), initial=1.0))
    eta_s, _, nop_s = unpruned_scan(
        lambda e: float(np.min(reg_upper_gamma(alpha, scale * e), initial=1.0)))
    assert nop * math.log1p(eta0) >= nop_s * math.log1p(eta_s) * (1.0 - 4.0 * ULP)


def policy_inputs(radio, cell, irs, plan):
    """(method, alpha, scale) of the two policy reports on plan."""
    alpha, beta, mean_z2 = _worst_case_grid(radio, cell, irs, plan)
    p = radio.E_total / (cell.K * radio.t0)
    gamma_bar = benchmark_irs_mean_cipc(radio, cell, irs, plan).details["gamma_bar"]
    return [("irs-equal-power", alpha, beta * radio.W / p),
            ("irs-mean-cipc", alpha, beta * mean_z2 / gamma_bar)]


def mp_stationary_rate(a, s, eta0):
    """The root near eta0 of d/du [ln ln(1 + e^u) + ln Q_a(s e^u)], u = ln eta0,
    to 50 digits."""
    with mpmath.workdps(50):
        a, s = mpmath.mpf(a), mpmath.mpf(s)

        def slope(u):
            eu = mpmath.exp(u)
            x = s * eu
            d = mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a))
            h = d / mpmath.gammainc(a, x, mpmath.inf, regularized=True)
            return eu / ((1 + eu) * mpmath.log1p(eu)) - h

        return float(mpmath.exp(mpmath.findroot(slope, mpmath.log(eta0))))


@pytest.fixture(scope="module", params=[10, 20, 50, 100])
def line_search_plan(request, cell, radio, irs):
    return line_search(cell, radio, irs, request.param, 3).plan


def _plans(cell):
    return {"ap-only": make_ring_plan(cell, [200.0], []),
            "no-ap-span": make_ring_plan(cell, (250.0, 120.0, 0.0), (10, 17)),
            "two-rings": make_ring_plan(cell, (250.0, 230.0, 190.0), (10, 17))}


class TestPrunedRateScan:
    """The policies' rate: a Newton root on an active set of positions."""

    @staticmethod
    def assert_both_policies_optimal(radio, cell, irs, plan):
        reports = (benchmark_irs_equal_power(radio, cell, irs, plan),
                   benchmark_irs_mean_cipc(radio, cell, irs, plan))
        for rep, (method, alpha, scale) in zip(reports, policy_inputs(radio, cell, irs, plan)):
            assert rep.method == method
            assert_at_least_the_scan(alpha, scale, rep.eta0, rep.p_no)

    def test_line_search_plans(self, radio, cell, irs, line_search_plan):
        self.assert_both_policies_optimal(radio, cell, irs, line_search_plan)

    @pytest.mark.parametrize("name", ["ap-only", "no-ap-span", "two-rings"])
    def test_edge_plans(self, radio, cell, irs, name):
        plan = _plans(cell)[name]
        alpha = _worst_case_grid(radio, cell, irs, plan)[0]
        if name == "no-ap-span":  # AP radii are the Gamma(1, 1/g_d) positions
            assert not (alpha == 1.0).any()
        if name == "ap-only":
            assert (alpha == 1.0).all()
        self.assert_both_policies_optimal(radio, cell, irs, plan)

    def test_root_against_mpmath(self, radio, cell, irs, line_search_plan):
        # eta0 is the stationary point of the binding position's throughput
        for method, alpha, scale in policy_inputs(radio, cell, irs, line_search_plan):
            eta0 = _policy_report(method, alpha, scale, {}).eta0
            j = int(np.argmin(reg_upper_gamma(alpha, scale * eta0)))
            want = mp_stationary_rate(alpha[j], scale[j], eta0)
            assert abs(eta0 / want - 1.0) < 1e-12, method

    def test_one_ulp_moves_the_root_below_1e_12(self, radio, cell, irs, line_search_plan,
                                                 monkeypatch):
        # every scale, then every NOP, one ulp up; the golden section's eta0
        # moved by 3.4e-8 under the NOP's ulp
        inputs = policy_inputs(radio, cell, irs, line_search_plan)
        base = np.array([_policy_report(m, a, s, {}).eta0 for m, a, s in inputs])
        scaled = [_policy_report(m, a, s * (1.0 + ULP), {}).eta0 for m, a, s in inputs]
        tail = powerctl.upper_gamma_tail

        def raised(alpha):
            exact = tail(alpha)

            def tail_up(x, idx):
                q, lnd = exact(x, idx)
                return q * (1.0 + ULP), lnd

            return tail_up

        monkeypatch.setattr(powerctl, "upper_gamma_tail", raised)
        nops = [_policy_report(m, a, s, {}).eta0 for m, a, s in inputs]
        for moved in (scaled, nops):
            assert np.all(np.abs(np.array(moved) / base - 1.0) < 1e-12), moved

    def test_shapes_below_one_are_solved(self):
        # ln Q_a(s e^u) is concave in u for every shape a > 0, not only a >= 1:
        # the root at a = 1/2 is the stationary point, and beats the section
        alpha, scale = np.array([0.5, 0.5, 3.0]), np.array([0.2, 0.1, 0.01])
        rep = _policy_report("synthetic", alpha, scale, {})
        assert int(np.argmin(reg_upper_gamma(alpha, scale * rep.eta0))) == 0
        assert abs(rep.eta0 / mp_stationary_rate(0.5, 0.2, rep.eta0) - 1.0) < 1e-12
        assert_at_least_the_scan(alpha, scale, rep.eta0, rep.p_no)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_shapes_without_a_gamma_law_are_refused(self, bad):
        with pytest.raises(NumericsError, match="rate solve on Gamma shapes"):
            _policy_report("synthetic", np.array([bad, 2.0]), np.array([1.0, 1.0]), {})

    @pytest.mark.parametrize("N", [0, 1, 10, 2000, 100_000])
    def test_grid_shapes_are_at_least_one(self, radio, cell, irs, line_search_plan, N):
        # the Gamma fit of Z^2 = |X + Y|^2 is never more spread than Y^2's
        # exponential law (shape 1); with no elements it is that law, whose
        # fitted shape rounds to 1 - 2 ulps
        for plan in [line_search_plan, *_plans(cell).values()]:
            alpha = _worst_case_grid(radio, cell, replace(irs, N=N), plan)[0]
            assert alpha.min() >= 1.0 - 4.0 * ULP
            if N:
                assert alpha.min() >= 1.0

    def test_ap_radii_are_exponential_positions(self, radio, cell, irs):
        # Z^2 = g_d E at an AP radius: Gamma(1, 1/g_d), so the equal-power NOP
        # G_1(beta W eta0 / p) is the direct link's exp(-W eta0 / (p g_d))
        alpha, beta, mean_z2 = _worst_case_grid(radio, cell, irs, _plans(cell)["ap-only"])
        r = np.concatenate([np.linspace(0.0, 200.0, 40), np.linspace(200.0, 250.0, 40)])
        assert np.array_equal(mean_z2, mean_gain_direct(radio, r))
        assert np.array_equal(beta, 1.0 / mean_z2)
        p, eta0 = 0.02, 7.5
        got = reg_upper_gamma(alpha, beta * radio.W / p * eta0)
        assert got == pytest.approx(nop_direct(radio, p, r, eta0), rel=1e-13)

    @pytest.mark.parametrize("seed_kind", ["pareto", "empty", "first", "all", "policy"])
    @pytest.mark.parametrize("case", ["duplicated", "all-equal", "underflow",
                                      "all-underflow"])
    def test_synthetic_positions(self, radio, cell, irs, case, seed_kind):
        # the seed sets the cost, not the optimum: any subset, even none,
        # finds it; "pareto" is the tightest bound's seed (no other position
        # has both a lower alpha and a higher beta), "policy" the policy
        # benchmarks' own
        if case == "duplicated":
            alpha, beta, _ = _worst_case_grid(radio, cell, irs, _plans(cell)["two-rings"])
            thr_per_eta0 = radio.W * cell.K * radio.t0 / radio.E_total
            alpha, beta = np.tile(alpha, 3), np.tile(beta * thr_per_eta0, 3)
        elif case == "all-equal":
            alpha, beta = np.full(50, 3.0), np.full(50, 0.2)
        elif case == "underflow":  # zero NOP at most rates, never at the lowest
            alpha = np.linspace(1.0, 5.0, 40)
            beta = np.geomspace(1e2, 1e4, 40)
        else:
            alpha, beta = np.full(30, 1.0), np.geomspace(1e10, 1e12, 30)
        n, tail = alpha.size, upper_gamma_tail(alpha)
        if case.endswith("underflow"):
            assert reg_upper_gamma(alpha, beta * 1e6).max() == 0.0
        if seed_kind == "policy":
            rep = _policy_report("synthetic", alpha, beta, {})
            eta0, nop = rep.eta0, rep.p_no
        else:
            order = np.lexsort((-beta, alpha))  # by alpha, ties by beta descending
            b = beta[order]
            pareto = order[b > np.maximum.accumulate(np.r_[-np.inf, b[:-1]])]
            seed = {"pareto": pareto, "empty": np.empty(0, int),
                    "first": np.array([0]), "all": np.arange(n)}[seed_kind]
            eta0, nop = _maxmin_rate(tail, alpha, beta, seed)
        assert_at_least_the_scan(alpha, beta, eta0, nop)
        assert eta0 == pytest.approx(_maxmin_rate(tail, alpha, beta, np.arange(n))[0],
                                     rel=1e-12)
        if case == "all-underflow":  # every NOP 0 at every rate: the lowest rate
            assert (eta0, nop) == (pytest.approx(1e-4, rel=1e-15), 0.0)
