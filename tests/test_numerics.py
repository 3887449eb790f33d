"""Numerics suite: incomplete gamma, inverses, quadrature.

Library code evaluates the incomplete gamma and its inverse with
scipy.special, so the oracle here is mpmath's arbitrary-precision
incomplete gamma, an implementation independent of scipy's.
"""

import math

import mpmath
import numpy as np
import pytest

from irsplan.numerics import (NumericsError, Tolerance, bisect, get_tail_quantile,
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
        q = get_tail_quantile(0.95)
        alpha = np.exp(rng.uniform(np.log(2e-2), np.log(9e4), 1500))
        assert np.array_equal(q(alpha), inv_reg_upper_gamma(alpha, 0.95))
        assert q(2.5) == inv_reg_upper_gamma(2.5, 0.95)
        with pytest.raises(ValueError):
            get_tail_quantile(1.0)

    def test_against_mpmath(self):
        q = get_tail_quantile(0.95)
        alpha = np.geomspace(1e-2, 1e5, 60)
        resid = [abs(mp_reg_upper_gamma(a, x) - mpmath.mpf("0.95"))
                 for a, x in zip(alpha, q(alpha))]
        assert max(resid) <= 1e-13


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
                               0.0, 10.0, tol=Tolerance(1e-13, 1e-11))
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
                             tol=Tolerance(1e-15, 1e-14), max_levels=3)


class TestBisect:
    def test_root_of_cubic(self):
        got = bisect(lambda x: x ** 3 - 2.0, 0.0, 2.0,
                     tol=Tolerance(1e-12, 1e-12))
        assert got == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)

    def test_requires_sign_change(self):
        with pytest.raises(ValueError):
            bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(-1e-10, 1e-8)
