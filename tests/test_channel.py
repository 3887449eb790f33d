"""Channel-layer suite: mean gains, composite moments, Gamma fit, outage, power table.

The moment recipe is checked three ways: an independent recomposition of the
raw Gaussian/Rayleigh moments written out in this file, frozen regression
literals, and a live Monte Carlo oracle drawn with plain numpy (no library
sampling code involved).
"""

import math

import mpmath
import numpy as np
import pytest

from irsplan.channel import (IrsSpec, LinkGeometry, RadioConfig,
                             _PowerFactorTable, _power_factor_table,
                             _unit_power_factor, composite_stats,
                             composite_stats_arrays, irs_power_factor,
                             mean_gain_direct, mean_gains_irs,
                             mean_z2_closed_form, nop_direct, nop_irs,
                             required_power_irs)
from irsplan.numerics import inv_reg_upper_gamma

_PI2_16 = math.pi ** 2 / 16.0


def oracle_z2_moments(N, g_d, g_i, g_r):
    """Independent E{Z^2}/var{Z^2} from raw moments of X ~ N(mu, s2), Y Rayleigh.

    Z = X + Y with X the Gaussian cascade-sum amplitude and Y the direct
    amplitude; binomial expansion of (X + Y)^k with independence.
    """
    a = np.sqrt(g_i * g_r)
    mu = N * (math.pi / 4.0) * a
    s2 = N * (1.0 - _PI2_16) * g_i * g_r
    delta = np.sqrt(g_d / 2.0)
    x1, x2, x3, x4 = (mu,
                      mu * mu + s2,
                      mu ** 3 + 3.0 * mu * s2,
                      mu ** 4 + 6.0 * mu * mu * s2 + 3.0 * s2 * s2)
    y1 = delta * math.sqrt(math.pi / 2.0)
    y2 = 2.0 * delta ** 2
    y3 = 3.0 * delta ** 3 * math.sqrt(math.pi / 2.0)
    y4 = 8.0 * delta ** 4
    m2 = x2 + 2.0 * x1 * y1 + y2
    m4 = x4 + 4.0 * x3 * y1 + 6.0 * x2 * y2 + 4.0 * x1 * y3 + y4
    return m2, m4 - m2 * m2


class TestRadioConfig:
    def test_derived_constants(self):
        cfg = RadioConfig()
        assert cfg.b0 == pytest.approx(200e3)
        assert cfg.t0 == pytest.approx(0.5e-3)
        assert cfg.W == pytest.approx(7.962143411069972e-16, rel=1e-12)
        assert cfg.alpha0 == pytest.approx(1.4228584142858628e-4, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadioConfig(E_total=0.0)
        with pytest.raises(ValueError):
            RadioConfig(n0=1.0)

    def test_beamforming_factor(self):
        assert IrsSpec(2000).G_bf == pytest.approx(2468167.399722203, rel=1e-12)
        assert IrsSpec(0).G_bf == 0.0
        assert IrsSpec(1).G_bf == pytest.approx(1.0)


class TestGeometryTypes:
    def test_triangle_violation_rejected(self):
        with pytest.raises(ValueError):
            LinkGeometry(r=100.0, l=10.0, d=20.0)  # l + d < r

    def test_direct_gain_formula(self, radio):
        for r in (0.0, 10.0, 250.0, 563.0):
            expect = radio.alpha0 * (r * r + radio.H_A ** 2) ** (-radio.n0 / 2.0)
            assert mean_gain_direct(radio, r) == pytest.approx(expect, rel=1e-14)

    def test_link_gains(self, radio):
        g = mean_gains_irs(radio, LinkGeometry(180.0, 120.0, 70.0))
        a0, n0 = radio.alpha0, radio.n0
        assert g.g_i == pytest.approx(a0 * (120.0 ** 2 + 81.0) ** (-n0 / 2), rel=1e-14)
        assert g.g_r == pytest.approx(a0 * (70.0 ** 2 + 1.0) ** (-n0 / 2), rel=1e-14)
        assert g.g_d == pytest.approx(a0 * (180.0 ** 2 + 100.0) ** (-n0 / 2), rel=1e-14)


GEOMS = [(180.0, 120.0, 70.0), (240.0, 10.0, 230.3), (130.0, 152.5, 23.0)]
FROZEN = {
    GEOMS[0]: (2.689320768752e-11, 6.528142232749e-22, 1.107887349782),
    GEOMS[1]: (1.930535243520e-11, 1.957810424037e-22, 1.903640046409),
    GEOMS[2]: (8.055976329271e-11, 5.161034763097e-21, 1.257475634185),
}


class TestCompositeMoments:
    @pytest.mark.parametrize("geom", GEOMS)
    def test_against_independent_recomposition(self, radio, irs, geom):
        g = mean_gains_irs(radio, LinkGeometry(*geom))
        mean_o, var_o = oracle_z2_moments(irs.N, g.g_d, g.g_i, g.g_r)
        st = composite_stats(radio, irs, LinkGeometry(*geom))
        assert st.mean_Z2 == pytest.approx(mean_o, rel=1e-12)
        assert st.var_Z2 == pytest.approx(var_o, rel=1e-12)

    @pytest.mark.parametrize("geom", GEOMS)
    def test_frozen_regression_values(self, radio, irs, geom):
        st = composite_stats(radio, irs, LinkGeometry(*geom))
        mean, var, alpha = FROZEN[geom]
        assert st.mean_Z2 == pytest.approx(mean, rel=1e-11)
        assert st.var_Z2 == pytest.approx(var, rel=1e-11)
        assert st.alpha == pytest.approx(alpha, rel=1e-11)

    def test_grouped_mean_form_agrees(self, radio, irs):
        for geom in GEOMS:
            st = composite_stats(radio, irs, LinkGeometry(*geom))
            grouped = mean_z2_closed_form(radio, irs, LinkGeometry(*geom))
            assert grouped == pytest.approx(st.mean_Z2, rel=1e-12)

    def test_gamma_fit_identities(self, radio, irs):
        st = composite_stats(radio, irs, LinkGeometry(*GEOMS[0]))
        assert st.alpha / st.beta == pytest.approx(st.mean_Z2, rel=1e-12)
        assert st.alpha / st.beta ** 2 == pytest.approx(st.var_Z2, rel=1e-12)

    def test_live_monte_carlo_oracle(self, radio):
        # reduced element count keeps the oracle cheap; the recipe is N-generic
        N, n = 200, 150_000
        geom = LinkGeometry(150.0, 100.0, 52.0)
        g = mean_gains_irs(radio, geom)
        st = composite_stats(radio, IrsSpec(N), geom)
        rng = np.random.default_rng(2024)
        scale = math.sqrt(g.g_i * g.g_r)
        z2_sum = z4_sum = 0.0
        for _ in range(5):
            a = np.sqrt(rng.standard_exponential((n // 5, N)))
            b = np.sqrt(rng.standard_exponential((n // 5, N)))
            x = scale * (a * b).sum(axis=1)
            z = x + np.sqrt(g.g_d * rng.standard_exponential(n // 5))
            z2 = z * z
            z2_sum += z2.sum()
            z4_sum += (z2 * z2).sum()
        mc_mean = z2_sum / n
        mc_var = z4_sum / n - mc_mean ** 2
        # ~4 sigma bands at this sample size
        assert mc_mean == pytest.approx(st.mean_Z2, rel=4.0 / math.sqrt(st.alpha * n))
        assert mc_var == pytest.approx(st.var_Z2, rel=0.03)

    def test_zero_elements_collapses_to_exponential(self, radio):
        st = composite_stats(radio, IrsSpec(0), LinkGeometry(180.0, 120.0, 70.0))
        g_d = mean_gain_direct(radio, 180.0)
        assert st.mean_Z2 == pytest.approx(g_d, rel=1e-12)
        assert st.var_Z2 == pytest.approx(g_d * g_d, rel=1e-12)
        assert st.alpha == pytest.approx(1.0, rel=1e-12)

    def test_array_broadcast(self, radio, irs):
        r = np.array([150.0, 180.0])
        l = np.array([100.0, 120.0])
        d = np.array([52.0, 70.0])
        mean, var, alpha, beta = composite_stats_arrays(radio, irs, r, l, d)
        for i, geom in enumerate([(150.0, 100.0, 52.0), (180.0, 120.0, 70.0)]):
            st = composite_stats(radio, irs, LinkGeometry(*geom))
            assert mean[i] == pytest.approx(st.mean_Z2, rel=1e-14)
            assert alpha[i] == pytest.approx(st.alpha, rel=1e-14)
            assert beta[i] == pytest.approx(st.beta, rel=1e-14)
        assert var.shape == (2,)


class TestOutage:
    def test_direct_exponential_law(self, radio):
        # closed form restated: NOP = exp(-W eta0 / (p g_d))
        for (p, eta0, r) in [(1e-3, 10.0, 200.0), (0.01, 28.0, 563.0)]:
            expect = math.exp(-radio.W * eta0 / (p * mean_gain_direct(radio, r)))
            assert nop_direct(radio, p, r, eta0) == pytest.approx(expect, rel=1e-14)

    def test_direct_monotone(self, radio):
        p = np.linspace(1e-4, 1e-2, 30)
        vals = np.array([nop_direct(radio, pi, 300.0, 10.0) for pi in p])
        assert np.all(np.diff(vals) > 0)

    def test_irs_nop_via_gamma_tail(self, radio, irs):
        # independent evaluation through mpmath's incomplete gamma
        import mpmath
        geom = LinkGeometry(*GEOMS[0])
        st = composite_stats(radio, irs, geom)
        p, eta0 = 5e-3, 28.0
        with mpmath.workdps(30):
            expect = float(mpmath.gammainc(st.alpha, st.beta * radio.W * eta0 / p,
                                           mpmath.inf, regularized=True))
        assert nop_irs(radio, irs, p, geom, eta0) == pytest.approx(expect, rel=1e-12)

    def test_required_power_round_trip(self, radio, irs):
        for geom in GEOMS:
            for p_no in (0.9, 0.95, 0.99):
                p = required_power_irs(radio, irs, LinkGeometry(*geom), 28.0, p_no)
                achieved = nop_irs(radio, irs, p, LinkGeometry(*geom), 28.0)
                assert achieved == pytest.approx(p_no, abs=1e-10)

    def test_required_power_monotone_in_target(self, radio, irs):
        geom = LinkGeometry(*GEOMS[0])
        targets = np.linspace(0.5, 0.99, 25)
        powers = [required_power_irs(radio, irs, geom, 28.0, t) for t in targets]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_more_elements_need_less_power(self, radio):
        geom = LinkGeometry(130.0, 120.0, 12.0)
        powers = [required_power_irs(radio, IrsSpec(N), geom, 28.0, 0.95)
                  for N in (0, 500, 1000, 2000, 4000)]
        assert all(b < a for a, b in zip(powers, powers[1:]))

    def test_starved_link_has_negligible_nop(self, radio, irs):
        geom = LinkGeometry(240.0, 10.0, 230.3)
        assert nop_irs(radio, irs, 1e-9, geom, 28.0) < 0.01


def exact_factor(N, c2, p_no):
    """beta / q_alpha(p_no) at g_d = 1, g_i g_r = c2, from the oracle moments."""
    mean, var = oracle_z2_moments(N, 1.0, c2, 1.0)
    return (mean / var) / inv_reg_upper_gamma(mean * mean / var, p_no)


def mp_factor(N, c2, p_no):
    """The same factor at 40 digits, moments and quantile both in mpmath."""
    with mpmath.workdps(40):
        c2, p_no = mpmath.mpf(c2), mpmath.mpf(p_no)
        mu = N * mpmath.pi / 4 * mpmath.sqrt(c2)
        s2 = N * (1 - mpmath.pi ** 2 / 16) * c2
        x = (mu, mu ** 2 + s2, mu ** 3 + 3 * mu * s2, mu ** 4 + 6 * mu ** 2 * s2 + 3 * s2 ** 2)
        delta = mpmath.sqrt(mpmath.mpf(1) / 2)
        k = mpmath.sqrt(mpmath.pi / 2)
        y = (delta * k, 2 * delta ** 2, 3 * delta ** 3 * k, 8 * delta ** 4)
        mean = x[1] + 2 * x[0] * y[0] + y[1]
        var = x[3] + 4 * x[2] * y[0] + 6 * x[1] * y[1] + 4 * x[0] * y[2] + y[3] - mean ** 2
        alpha, beta = mean ** 2 / var, mean / var
        q = mpmath.findroot(
            lambda t: mpmath.gammainc(alpha, t, mpmath.inf, regularized=True) - p_no,
            inv_reg_upper_gamma(float(alpha), float(p_no)))
        return float(beta / q)


def table_unit(table, c2):
    """unit(c^2) read off a power-factor table."""
    return np.exp(table.log_unit(np.log(c2)))


def pow_form_factor(cfg, irs, r, l, d, p_no):
    """The pow-law form of beta / q_alpha(p_no) that the log-domain factor replaced.

    Gains by powers, c^2 = g_i g_r / g_d, the table read at log c^2 and the
    exact expression outside it, divided by g_d.
    """
    g_d = cfg.alpha0 * (r ** 2 + cfg.H_A ** 2) ** (-0.5 * cfg.n0)
    g_i = cfg.alpha0 * (l ** 2 + (cfg.H_A - cfg.H_I) ** 2) ** (-0.5 * cfg.n0)
    g_r = cfg.alpha0 * (d ** 2 + cfg.H_I ** 2) ** (-0.5 * cfg.n0)
    table = _power_factor_table(irs.N, p_no)
    c2 = g_i * g_r / g_d
    u = (np.log(c2) - table.LOG_LO) * table._inv_h
    inside = (u >= 0.0) & (u < table.KNOTS - 1)
    unit = np.empty_like(c2)
    unit[inside] = np.exp(table._inside(u[inside]))
    unit[~inside] = _unit_power_factor(irs.N, c2[~inside], p_no)
    return unit / g_d, inside


class TestPowerFactorTable:
    LO = math.exp(_PowerFactorTable.LOG_LO)
    HI = math.exp(_PowerFactorTable.LOG_HI)

    def test_certified_against_exact_factor(self, rng):
        c2 = np.exp(rng.uniform(_PowerFactorTable.LOG_LO, _PowerFactorTable.LOG_HI, 100_000))
        for N, p_no in ((2000, 0.95), (2000, 0.99), (50, 0.9)):
            want = exact_factor(N, c2, p_no)
            assert np.abs(table_unit(_power_factor_table(N, p_no), c2) / want - 1.0).max() <= 5e-12

    def test_against_mpmath(self):
        c2 = np.geomspace(1.0001 * self.LO, 0.9999 * self.HI, 64)
        got = table_unit(_power_factor_table(2000, 0.95), c2)
        want = np.array([mp_factor(2000, x, 0.95) for x in c2])
        assert np.abs(got / want - 1.0).max() <= 5e-12

    def test_link_form_matches_gamma_fit(self, radio, irs, rng):
        # unit(c^2) / g_d against beta / q_alpha computed from the link gains
        r = rng.uniform(1.0, 250.0, 2000)
        l = rng.uniform(10.0, 250.0, 2000)
        d = np.abs(r - l) + rng.uniform(0.0, 1.0, 2000) * (r + l - np.abs(r - l))
        _, _, alpha, beta = composite_stats_arrays(radio, irs, r, l, d)
        want = beta / inv_reg_upper_gamma(alpha, 0.95)
        got = irs_power_factor(radio, irs, r * r, l * l, d * d, 0.95)
        assert np.abs(got / want - 1.0).max() <= 5e-12
        geom = LinkGeometry(180.0, 120.0, 70.0)
        assert required_power_irs(radio, irs, geom, 28.0, 0.95) == (
            radio.W * 28.0 * float(irs_power_factor(radio, irs, 180.0 ** 2, 120.0 ** 2,
                                                    70.0 ** 2, 0.95)))

    @pytest.mark.parametrize("f_c", [2.0e9, 1.0e5])
    def test_log_domain_matches_pow_form(self, irs, rng, f_c):
        # 1e5 geometries on the law of cosines, 500 of them with d = 0; at
        # 100 kHz the gains are large enough that c^2 leaves the table near
        # the surface.  Both forms round ln c^2 at the scale of the table
        # coordinate (about 1e4, so 9e-15 of ln c^2 per half ulp), which
        # bounds their agreement at a few 1e-14.
        cfg = RadioConfig(f_c=f_c)
        r = rng.uniform(0.0, 250.0, 100_000)
        l = rng.uniform(0.0, 250.0, 100_000)
        az = rng.uniform(0.0, math.pi, 100_000)
        l[:500], az[:500] = r[:500], 0.0
        d2 = np.maximum(r ** 2 + l ** 2 - 2.0 * r * l * np.cos(az), 0.0)
        assert (d2[:500] == 0.0).all()
        want, inside = pow_form_factor(cfg, irs, r, l, np.sqrt(d2), 0.95)
        got = irs_power_factor(cfg, irs, r * r, l * l, d2, 0.95)
        assert np.abs(got / want - 1.0).max() <= 3e-14
        if f_c < 1e9:
            assert 0 < np.count_nonzero(~inside) < inside.size

    def test_out_of_table_falls_back(self):
        table = _power_factor_table(2000, 0.95)
        outside = np.log([1e-40, 0.5 * self.LO, self.HI, 3e5])
        assert np.array_equal(table.log_unit(outside),
                              np.log(_unit_power_factor(2000, np.exp(outside), 0.95)))
        assert math.exp(table.log_unit(math.log(1e-40))) == pytest.approx(
            exact_factor(2000, 1e-40, 0.95), rel=1e-14)
        mixed = np.log([1e-40, 1e-3, 2e-9, 3e5])
        assert np.array_equal(table.log_unit(mixed), [table.log_unit(x) for x in mixed])
        with pytest.raises(ValueError):
            table.log_unit(np.array([1e-3, np.nan]))

    def test_no_elements_is_the_exponential_law(self, radio, rng):
        r = rng.uniform(0.0, 250.0, 500)
        l = rng.uniform(10.0, 250.0, 500)
        d = np.abs(r - l)
        for p_no in (0.5, 0.95, 0.999):
            got = irs_power_factor(radio, IrsSpec(0), r * r, l * l, d * d, p_no)
            want = 1.0 / (mean_gain_direct(radio, r) * math.log(1.0 / p_no))
            assert np.abs(got / want - 1.0).max() <= 1e-13

    def test_rejects_bad_target(self):
        for p_no in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                _PowerFactorTable(2000, p_no)

    def test_cache_returns_same_table(self):
        assert _power_factor_table(2000, 0.95) is _power_factor_table(2000, 0.95)
        assert _power_factor_table(2000, 0.95) is not _power_factor_table(1000, 0.95)

    def test_evicted_table_is_rebuilt(self):
        first = _power_factor_table(2000, 0.9)
        # the cache is bounded: this many other targets push 0.9 out
        for p_no in np.linspace(0.5, 0.6, _power_factor_table.cache_info().maxsize):
            _power_factor_table(2000, float(p_no))
        again = _power_factor_table(2000, 0.9)
        assert again is not first
        ln_c2 = np.log(np.geomspace(1e-35, 1e5, 2000))
        assert np.array_equal(again.log_unit(ln_c2), first.log_unit(ln_c2))
