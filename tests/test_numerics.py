"""Numerics suite: incomplete gamma, inverses, quadrature.

The incomplete gamma and its inverse are numpy code in irsplan.numerics.
Two implementations independent of it are the oracles: mpmath's
arbitrary-precision incomplete gamma, and scipy.special (DiDonato & Morris'
algorithms), which the tests alone import.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc, gammainccinv, stdtrit

from irsplan.channel import _PowerFactorTable, _z2_moment_arrays
from irsplan.numerics import (NumericsError, Tolerance, bisect, get_tail_quantile,
                              integrate_polar_sector, integrate_radial,
                              inv_reg_upper_gamma, reg_upper_gamma, student_t_quantile)


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

    def test_against_scipy_on_the_sweep_regime(self, rng):
        # the policy benchmarks' shapes and arguments: alpha in [1, 250],
        # x in [1e-10, 2e6], with a band around x = alpha
        alpha = np.exp(rng.uniform(0.0, np.log(250.0), 60000))
        x = np.concatenate([np.exp(rng.uniform(np.log(1e-10), np.log(2e6), 40000)),
                            alpha[40000:] * np.exp(rng.normal(0.0, 2.0, 20000)
                                                   / np.sqrt(alpha[40000:]))])
        ours, ref = reg_upper_gamma(alpha, x), gammaincc(alpha, x)
        normal = ref > 1e-290
        assert np.max(np.abs(ours[normal] / ref[normal] - 1.0)) <= 1e-12
        assert np.max(np.abs(ours - ref)) <= 1e-14
        # far tails underflow to 0 with scipy's, and never go negative
        assert np.count_nonzero(ref == 0.0) > 1000
        assert np.all((ours[~normal] >= 0.0) & (ours[~normal] <= 1e-290))

    def test_rounding_rise_is_bounded(self, rng):
        # computed tails are monotone in x up to a few ulps of rounding; the
        # bound keeps any rise far below what a comparison of NOPs could notice
        shapes = np.concatenate([[1.0], np.exp(rng.uniform(0.0, np.log(250.0), 39))])
        for a in shapes:
            x = np.geomspace(1e-8, max(700.0, 8.0 * a), 300)
            q0 = reg_upper_gamma(np.full(x.size, a), x)
            for k in (1, 16, 256, 4096):
                q1 = reg_upper_gamma(np.full(x.size, a), x + k * np.spacing(x))
                live = q0 > 0.0
                assert np.all(q1[live] - q0[live] <= 1e-11 * q0[live]), (a, k)

    def test_element_depends_on_itself_alone(self, rng):
        # the series pass count, the continued fraction's active set and
        # Temme's region are per call; no value may depend on them
        alpha = np.exp(rng.uniform(np.log(0.05), np.log(1e5), 3000))
        x = alpha * np.exp(rng.normal(0.0, 1.5, 3000))
        x[::7] = rng.uniform(0.0, 1e-3, x[::7].size)
        whole = reg_upper_gamma(alpha, x)
        for part in (slice(0, 1), slice(5, 900, 3), slice(1000, None)):
            assert np.array_equal(reg_upper_gamma(alpha[part], x[part]), whole[part])
        assert all(reg_upper_gamma(float(alpha[i]), float(x[i])) == whole[i]
                   for i in range(0, 3000, 97))
        grid = np.array([[0.3], [30.0], [300.0]])
        assert np.array_equal(reg_upper_gamma(alpha[:50], grid * alpha[:50]),
                              np.stack([reg_upper_gamma(alpha[:50], g * alpha[:50])
                                        for g in grid[:, 0]]))
        assert reg_upper_gamma(np.ones((2, 0)), 1.0).shape == (2, 0)


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

    @pytest.mark.parametrize("n_elements", [0, 1, 10, 100, 2000, 100_000])
    def test_against_scipy_on_table_knots(self, n_elements):
        alpha = _knot_shapes(n_elements)
        for p in (0.5, 0.9, 0.95, 0.99):
            ours = inv_reg_upper_gamma(alpha, p)
            assert np.max(np.abs(ours / gammainccinv(alpha, p) - 1.0)) <= 1e-13, p

    def test_extreme_targets_converge(self):
        # Newton keeps a bracket: far tails, subnormal roots and huge shapes
        alpha = np.geomspace(1e-3, 1e6, 100)
        for p in (1e-300, 1e-10, 0.3, 0.7, 1.0 - 2.0 ** -52):
            x = inv_reg_upper_gamma(alpha, p)
            ref = gammainccinv(alpha, p)
            normal = ref > 1e-300
            assert np.all(x[~normal] <= 1e-300)
            assert np.max(np.abs(x[normal] / ref[normal] - 1.0)) <= 1e-11, p
            # beyond 1e6 scipy's own inverse drifts (2.5e-6 at a = 1e8, p = 1 - 2^-52):
            # x's relative error is the residual over dQ/d(ln x) = x^a e^-x / Gamma(a)
            for a in (1e7, 1e8):
                x = inv_reg_upper_gamma(a, p)
                with mpmath.workdps(30):
                    a_, x_ = mpmath.mpf(a), mpmath.mpf(x)
                    slope = mpmath.exp(a_ * mpmath.log(x_) - x_ - mpmath.loggamma(a_))
                    rel_x = abs(mp_reg_upper_gamma(a, x) - p) / slope
                assert rel_x <= 1e-15, (a, p, float(rel_x))

    def test_largest_table_finishes(self):
        # irs.N = 1e8: shapes up to 4e7, where Temme's expansion serves
        alpha = _knot_shapes(10 ** 8)
        assert 3.9e7 < alpha.max() < 4.1e7
        start = time.perf_counter()
        x = inv_reg_upper_gamma(alpha, 0.95)
        took = time.perf_counter() - start
        # at a = 4e7 one ulp of x moves Q by about 3e-13
        resid = np.abs(reg_upper_gamma(alpha, x) - 0.95)
        assert np.max(resid) <= 1e-12, f"largest residual {np.max(resid):.2e} ({took:.3f} s)"


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


def _knot_shapes(n_elements):
    """The Gamma shapes at _PowerFactorTable's knots for N = n_elements."""
    table = _PowerFactorTable
    h = (table.LOG_HI - table.LOG_LO) / (table.KNOTS - 1)
    c2 = np.exp(table.LOG_LO + h * np.arange(-1, table.KNOTS + 1))
    mean, var = _z2_moment_arrays(n_elements, 1.0, c2, 1.0)
    return mean ** 2 / var


class TestStudentT:
    def test_against_scipy(self):
        # the closed-form sums lose about dof ulps in 1 - A: at dof = 12345,
        # p = 0.999 the quantile is off by 2.5e-12, at p = 0.975 by 1e-13
        for dof in (*range(1, 40), 99, 100, 999):
            for p in (0.5, 0.9, 0.975, 0.999):
                assert student_t_quantile(dof, p) == pytest.approx(
                    stdtrit(dof, p), rel=1e-12, abs=1e-15)
        assert student_t_quantile(12345, 0.975) == pytest.approx(stdtrit(12345, 0.975),
                                                                 rel=1e-12)

    def test_rejects_bad_domain(self):
        for dof, p in ((0, 0.975), (3, 0.4), (3, 1.0)):
            with pytest.raises(ValueError):
                student_t_quantile(dof, p)


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
