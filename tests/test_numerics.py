"""Numerics suite: incomplete gamma, inverses, quadrature.

Library code evaluates the incomplete gamma and its inverse with
scipy.special, so the oracle here is mpmath's arbitrary-precision
incomplete gamma, an implementation independent of scipy's.
"""

import math

import mpmath
import numpy as np
import pytest

from irsplan.numerics import (DEFAULT_TOL, NumericsError, TailQuantile,
                              Tolerance, bisect, get_tail_quantile,
                              integrate_polar_sector, integrate_radial,
                              inv_reg_upper_gamma, reg_upper_gamma)


def mp_reg_upper_gamma(a, x):
    """G_a(x) by mpmath at 30 significant digits."""
    with mpmath.workdps(30):
        return mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x), mpmath.inf,
                               regularized=True)


class TestRegUpperGamma:
    def test_against_mpmath_wide_grid(self, rng):
        alpha = np.exp(rng.uniform(np.log(1e-2), np.log(1e4), 4000))
        x = np.exp(rng.uniform(np.log(1e-6), np.log(1e4), 4000))
        ours = reg_upper_gamma(alpha, x)
        ref = np.array([float(mp_reg_upper_gamma(a, xx)) for a, xx in zip(alpha, x)])
        assert np.max(np.abs(ours - ref)) < 5e-12

    def test_known_values(self):
        # Q(1, x) = exp(-x); Q(0.5, x) = erfc(sqrt(x))
        for x in (0.01, 0.4, 2.0, 11.0):
            assert reg_upper_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)
            assert reg_upper_gamma(0.5, x) == pytest.approx(
                math.erfc(math.sqrt(x)), rel=1e-13)

    def test_edges(self):
        assert reg_upper_gamma(3.0, 0.0) == 1.0
        assert reg_upper_gamma(3.0, 700.0) < 1e-290
        out = reg_upper_gamma(np.array([0.5, 5.0]), np.array([0.0, 1e3]))
        assert out[0] == 1.0
        assert 0.0 <= out[1] < 1e-300

    def test_monotone_in_x(self):
        x = np.linspace(0.01, 60.0, 500)
        q = reg_upper_gamma(7.3, x)
        assert np.all(np.diff(q) < 0)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            reg_upper_gamma(-1.0, 2.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(2.0, -3.0)


class TestInverse:
    def test_round_trip_acceptance_range(self, rng):
        # shape grid spanning [0.5, 500] x several tail probabilities
        alphas = np.exp(rng.uniform(np.log(0.5), np.log(500.0), 300))
        for p in (0.5, 0.9, 0.95, 0.99):
            for a in alphas[:75]:
                x = inv_reg_upper_gamma(float(a), p)
                assert abs(reg_upper_gamma(float(a), x) - p) < 1e-8

    def test_extreme_small_shape(self):
        # quantiles far below the shape, down to ~1e-130 at alpha = 0.01
        for a, p in ((0.02, 0.95), (0.1, 0.99), (0.01, 0.9)):
            x = inv_reg_upper_gamma(a, p)
            assert x > 0.0
            assert abs(reg_upper_gamma(a, x) - p) < 1e-10

    def test_mpmath_cross_check(self):
        for a in (0.5, 2.0, 37.0, 480.0):
            ours = inv_reg_upper_gamma(a, 0.95)
            with mpmath.workdps(30):
                ref = mpmath.findroot(
                    lambda x: mp_reg_upper_gamma(a, x) - mpmath.mpf("0.95"), ours)
            assert ours == pytest.approx(float(ref), rel=1e-10)

    def test_array_form_matches_scalar(self):
        alpha = np.array([[0.02, 1.5], [40.0, 3e4]])
        vec = inv_reg_upper_gamma(alpha, 0.95)
        assert vec.shape == alpha.shape
        assert all(vec[i] == inv_reg_upper_gamma(float(alpha[i]), 0.95)
                   for i in np.ndindex(alpha.shape))
        with pytest.raises(ValueError):
            inv_reg_upper_gamma(np.array([1.0, -1.0]), 0.95)

    def test_p_one_maps_to_zero(self):
        assert inv_reg_upper_gamma(3.0, 1.0) == 0.0

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            inv_reg_upper_gamma(0.0, 0.5)
        with pytest.raises(ValueError):
            inv_reg_upper_gamma(2.0, 0.0)


class TestTailQuantile:
    def test_certified_against_direct_inverse(self, rng):
        tq = get_tail_quantile(0.95)
        alpha = np.exp(rng.uniform(np.log(2e-2), np.log(9e4), 1500))
        direct = np.array([inv_reg_upper_gamma(float(a), 0.95) for a in alpha])
        rel = np.abs(tq(alpha) - direct) / direct
        assert rel.max() < 1e-9
        # the physically used range (composite shapes are >= 1) is tighter
        assert rel[alpha >= 1.0].max() < 5e-12

    def test_knots_against_mpmath(self):
        # 60 of the default table's 6000 knots, spread over its whole range
        tq = get_tail_quantile(0.95)
        alpha = np.exp(np.linspace(math.log(1e-2), math.log(1e5), 6000)[::100])
        resid = [abs(mp_reg_upper_gamma(a, q) - mpmath.mpf("0.95"))
                 for a, q in zip(alpha, tq(alpha))]
        assert max(resid) <= 1e-13

    def test_out_of_table_falls_back(self):
        tq = TailQuantile(0.95, alpha_lo=1.0, alpha_hi=10.0, n_knots=200)
        a = 3e5
        assert tq(a) == pytest.approx(inv_reg_upper_gamma(a, 0.95), rel=1e-12)
        mixed = np.array([0.5, 3.0, 3e5])
        assert np.array_equal(tq(mixed), [tq(0.5), tq(3.0), tq(3e5)])
        with pytest.raises(ValueError):
            tq(np.array([3.0, 0.0]))

    def test_direct_index_matches_spline(self, rng):
        # evaluation by direct index must reproduce scipy's own evaluation of
        # the spline: random shapes, every knot, both ends of the table
        tq = get_tail_quantile(0.95)
        knots = np.exp(tq._spline.x)
        alpha = np.concatenate([
            np.exp(rng.uniform(np.log(tq.alpha_lo), np.log(tq.alpha_hi), 200_000)),
            knots[(knots >= tq.alpha_lo) & (knots <= tq.alpha_hi)],
            [tq.alpha_lo, tq.alpha_hi]])
        want = np.exp(tq._spline(np.log(alpha)))
        assert (np.abs(tq(alpha) - want) <= 2 * np.spacing(want)).all()
        # inside shapes of a mixed array take the same path; outside ones
        # fall back to the direct inverse
        mixed = np.array([5e-3, tq.alpha_lo, 3.7, tq.alpha_hi, 2e5])
        got = tq(mixed)
        inside = np.exp(tq._spline(np.log(mixed[1:4])))
        assert (np.abs(got[1:4] - inside) <= 2 * np.spacing(inside)).all()
        assert got[0] == inv_reg_upper_gamma(5e-3, 0.95)
        assert got[4] == inv_reg_upper_gamma(2e5, 0.95)

    def test_cache_returns_same_object(self):
        assert get_tail_quantile(0.95) is get_tail_quantile(0.95)

    def test_evicted_table_is_rebuilt(self):
        first = get_tail_quantile(0.9)
        # the cache is bounded: this many other targets push 0.9 out
        for p in np.linspace(0.5, 0.6, get_tail_quantile.cache_info().maxsize):
            get_tail_quantile(float(p))
        again = get_tail_quantile(0.9)
        assert again is not first
        alpha = np.geomspace(2e-2, 9e4, 200)
        assert np.array_equal(again(alpha), first(alpha))

    def test_underflowing_table_rejected(self):
        with pytest.raises(NumericsError):
            TailQuantile(0.9999, alpha_lo=1e-3, alpha_hi=1.0, n_knots=50)


class TestQuadrature:
    def test_polynomial_exactness_radial(self):
        # GL-32 panels integrate low-degree polynomials to machine precision
        exact = 7.0 ** 4 / 4.0 - 2.0 ** 4 / 4.0 + 5 * (7.0 ** 2 - 2.0 ** 2) / 2
        got = integrate_radial(lambda r: r ** 3 + 5 * r, 2.0, 7.0)
        assert got == pytest.approx(exact, rel=1e-14)

    def test_radial_moment_closed_form(self):
        # int_0^R (r^2 + H^2)^(3/2) r dr = ((R^2+H^2)^(5/2) - H^5) / 5
        R, H = 250.0, 10.0
        exact = ((R * R + H * H) ** 2.5 - H ** 5) / 5.0
        got = integrate_radial(lambda r: (r * r + H * H) ** 1.5 * r, 0.0, R)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_radial_sharp_peak_refines(self):
        # steep Gaussian bump: the first levels disagree, refinement resolves it
        got = integrate_radial(lambda r: np.exp(-((r - 3.0) / 0.5) ** 2),
                               0.0, 10.0, tol=Tolerance(1e-13, 1e-11, 200))
        exact = 0.5 * math.sqrt(math.pi)  # erf terms are ~1e-16 from 1
        assert got == pytest.approx(exact, rel=1e-10)

    def test_polar_sector_area_and_moment(self):
        phi = 2.0 * math.pi / 57.0
        area = integrate_polar_sector(lambda r, a: np.ones_like(r * a),
                                      185.0, 225.0, phi)
        assert area == pytest.approx(0.5 * phi * (225.0 ** 2 - 185.0 ** 2), rel=1e-12)
        # angular-dependent integrand: int r^2 cos(a) over the sector
        got = integrate_polar_sector(lambda r, a: r * np.cos(a), 0.0, 2.0, math.pi / 3)
        exact = (2.0 ** 3 / 3.0) * math.sin(math.pi / 3)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_unresolvable_integrand_raises(self):
        # inverse-sqrt endpoint singularity converges only algebraically
        with pytest.raises(NumericsError):
            integrate_radial(lambda r: 1.0 / np.sqrt(r), 1e-30, 1.0,
                             tol=Tolerance(1e-15, 1e-14, 200), max_levels=3)


class TestBisect:
    def test_root_of_cubic(self):
        got = bisect(lambda x: x ** 3 - 2.0, 0.0, 2.0,
                     tol=Tolerance(1e-12, 1e-12, 200))
        assert got == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)

    def test_requires_sign_change(self):
        with pytest.raises(ValueError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(-1e-10, 1e-8, 100)
    assert DEFAULT_TOL.max_iter >= 100
