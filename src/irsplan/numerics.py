"""Special functions, quadrature and root finding for the analytical layer.

Everything in this module is domain-free.  The regularized upper incomplete
gamma function and its inverse are domain-checked wrappers around
``scipy.special.gammaincc`` and ``scipy.special.gammainccinv`` (the
DiDonato-Morris algorithms, ACM TOMS 12, 1986).  The planner evaluates the
inverse at one fixed probability over millions of shapes, so
``TailQuantile`` tabulates it once as a cubic spline in log-log space,
which is several times cheaper per point than the direct inverse.
Quadrature is composite Gauss-Legendre with dyadic refinement; root finding
is bisection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammainccinv


class NumericsError(RuntimeError):
    """Raised when an iteration fails to converge.

    Carries the last two estimates (quadrature) or the final residual
    (root finding) so callers can report how close the failure was.
    """

    def __init__(self, msg, *, estimates=None, residual=None):
        super().__init__(msg)
        self.estimates = estimates
        self.residual = residual


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = 1e-10   # absolute convergence floor
    rel_tol: float = 1e-8    # relative convergence target
    max_iter: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0 and self.max_iter >= 1):
            raise ValueError("Tolerance fields must be positive (max_iter >= 1)")


DEFAULT_TOL = Tolerance()


# ---------------------------------------------------------------------------
# regularized upper incomplete gamma
# ---------------------------------------------------------------------------

def reg_upper_gamma(alpha, x):
    """Regularized upper incomplete gamma G_a(x) = Gamma(a, x)/Gamma(a).

    Monotone nonincreasing in x with G_a(0) = 1.  Accepts scalars or arrays
    (broadcast) and returns a float for scalar inputs.
    """
    scalar = np.isscalar(alpha) and np.isscalar(x)
    a = np.asarray(alpha, dtype=float)
    xx = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(xx))):
        raise ValueError("reg_upper_gamma: inputs must be finite")
    if np.any(a <= 0.0) or np.any(xx < 0.0):
        raise ValueError("reg_upper_gamma: requires alpha > 0 and x >= 0")
    out = gammaincc(a, xx)
    return float(out) if scalar else out


def inv_reg_upper_gamma(alpha, p):
    """Inverse of reg_upper_gamma in x: the x with G_alpha(x) = p.

    Accepts scalars or arrays (broadcast) and returns a float for scalar
    inputs.  p = 1 maps to 0.
    """
    scalar = np.isscalar(alpha) and np.isscalar(p)
    a = np.asarray(alpha, dtype=float)
    pp = np.asarray(p, dtype=float)
    if not np.all((a > 0.0) & np.isfinite(a)):
        raise ValueError("inv_reg_upper_gamma: alpha must be positive and finite")
    if not np.all((pp > 0.0) & (pp <= 1.0)):
        raise ValueError("inv_reg_upper_gamma: p must lie in (0, 1]")
    out = gammainccinv(a, pp)
    return float(out) if scalar else out


class TailQuantile:
    """Fixed-probability inverse-gamma accelerator.

    The sector energy integrals and the Monte Carlo harness evaluate
    inv_reg_upper_gamma at one fixed p across millions of shape values.
    A cubic spline of log x(alpha) over log alpha turns each evaluation
    into an interpolation (~1e-12 relative error over the table range,
    certified against the direct inverse in the test suite), several times
    cheaper per point than the direct inverse.  Shapes outside the table
    fall back to the direct inverse.

    The spline is built by ``scipy.interpolate.CubicSpline`` but evaluated
    here: the knots are uniform in log alpha, so a point's interval is the
    floor of its scaled offset, snapped by at most one step to the interval
    a binary search would pick (x[i] <= t < x[i+1], the last interval
    closed).  The cubic is then summed in the same order as
    ``PPoly.__call__``, so the result is bit-identical to the spline's,
    at a fraction of its per-point cost.
    """

    def __init__(self, p, alpha_lo=1e-2, alpha_hi=1e5, n_knots=6000):
        # imported here: scipy.interpolate is a large share of the package's
        # import time, which commands that never build a table (coverage)
        # should not pay
        from scipy.interpolate import CubicSpline

        if not (0.0 < p < 1.0):
            raise ValueError("TailQuantile: p must lie in (0, 1)")
        self.p = float(p)
        self.alpha_lo = float(alpha_lo)
        self.alpha_hi = float(alpha_hi)
        t = np.linspace(math.log(alpha_lo), math.log(alpha_hi), n_knots)
        q = gammainccinv(np.exp(t), self.p)
        with np.errstate(divide="ignore"):
            logq = np.log(q)
        if not np.all(np.isfinite(logq)):
            raise NumericsError("TailQuantile: quantiles underflow at the low "
                                "end of the shape table; raise alpha_lo",
                                residual=float(np.min(q)))
        self._spline = CubicSpline(t, logq)
        x = self._spline.x
        self._knots = x
        self._inv_step = (n_knots - 1) / (t[-1] - t[0])
        # snap bounds: a point below below[i] belongs to interval i - 1, one
        # at or above above[i] to interval i + 1; the sentinels keep the
        # first and last intervals (whose ends extrapolate) from moving
        self._below = np.concatenate([[-np.inf], x[1:-1]])
        self._above = np.concatenate([x[1:-1], [np.inf]])
        # power coefficients per interval, highest degree first
        self._coef = [np.ascontiguousarray(c) for c in self._spline.c]

    def _log_quantile(self, t):
        """The spline at log-shapes t inside the table, by direct index."""
        # t >= knots[0] up to rounding, so truncation is the floor
        i = ((t - self._knots[0]) * self._inv_step).astype(np.intp)
        np.minimum(i, len(self._knots) - 2, out=i)
        i -= t < self._below[i]
        i += t >= self._above[i]
        s = t - self._knots[i]
        z = s * s
        c3, c2, c1, c0 = self._coef
        # c0 + c1 s + c2 s^2 + c3 s^3, summed in PPoly's order
        out = c1[i]
        out *= s
        out += c0[i]
        term = c2[i]
        term *= z
        out += term
        z *= s
        term = c3[i]
        term *= z
        out += term
        return out

    def __call__(self, alpha):
        scalar = np.isscalar(alpha)
        a = np.atleast_1d(np.asarray(alpha, dtype=float))
        inside = (a >= self.alpha_lo) & (a <= self.alpha_hi)
        if inside.all():
            out = np.exp(self._log_quantile(np.log(a)))
        else:
            out = np.empty_like(a)
            if inside.any():
                out[inside] = np.exp(self._log_quantile(np.log(a[inside])))
            out[~inside] = inv_reg_upper_gamma(a[~inside], self.p)
        return float(out[0]) if scalar else out


@functools.lru_cache(maxsize=8)
def get_tail_quantile(p) -> TailQuantile:
    """Shared per-process TailQuantile table for a given target probability.

    Tables for the eight most recently used targets are kept.
    """
    return TailQuantile(float(p))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def _gl_panels(a, b, n_panels, nodes):
    """Node positions and weights for composite GL over [a, b]."""
    x, w = _gl_nodes(nodes)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def integrate_radial(f, a, b, tol: Tolerance = DEFAULT_TOL, nodes=32, max_levels=12):
    """Integral of f over [a, b] by composite Gauss-Legendre quadrature.

    The panel count doubles until two successive refinements agree to
    tol.rel_tol (or tol.abs_tol).  f must accept numpy arrays elementwise.
    """
    a = float(a)
    b = float(b)
    if b < a:
        raise ValueError("integrate_radial: requires a <= b")
    if a == b:
        return 0.0
    prev = None
    for level in range(max_levels + 1):
        pts, wts = _gl_panels(a, b, 2 ** level, nodes)
        cur = float(np.dot(wts, np.asarray(f(pts), dtype=float)))
        if prev is not None and abs(cur - prev) <= tol.abs_tol + tol.rel_tol * abs(cur):
            return cur
        prev = cur
    raise NumericsError("integrate_radial: refinement did not converge",
                        estimates=(prev, cur))


def integrate_polar_sector(f, r_in, r_out, phi, tol: Tolerance = DEFAULT_TOL,
                           nodes=32, max_levels=8):
    """Integral of f(r, az) * r over the polar box [r_in, r_out] x [0, phi].

    Tensor-product Gauss-Legendre with simultaneous dyadic refinement in
    both directions; the Jacobian r is applied internally.  f must accept
    broadcast numpy arrays.
    """
    r_in = float(r_in)
    r_out = float(r_out)
    phi = float(phi)
    if not (0.0 <= r_in <= r_out):
        raise ValueError("integrate_polar_sector: requires 0 <= r_in <= r_out")
    if not (0.0 < phi <= 2.0 * math.pi + 1e-12):
        raise ValueError("integrate_polar_sector: requires 0 < phi <= 2*pi")
    if r_in == r_out:
        return 0.0
    prev = None
    for level in range(max_levels + 1):
        rp, rw = _gl_panels(r_in, r_out, 2 ** level, nodes)
        pp, pw = _gl_panels(0.0, phi, 2 ** level, nodes)
        vals = np.asarray(f(rp[:, None], pp[None, :]), dtype=float)
        cur = float(np.einsum("i,j,ij->", rw * rp, pw, vals))
        if prev is not None and abs(cur - prev) <= tol.abs_tol + tol.rel_tol * abs(cur):
            return cur
        prev = cur
    raise NumericsError("integrate_polar_sector: refinement did not converge",
                        estimates=(prev, cur))


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def bisect(g, lo, hi, tol: Tolerance = DEFAULT_TOL):
    """Root of a sign-changing function on [lo, hi] by bisection."""
    lo = float(lo)
    hi = float(hi)
    glo = g(lo)
    ghi = g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0.0:
        raise ValueError("bisect: g(lo) and g(hi) must have opposite signs")
    for _ in range(max(tol.max_iter, 200)):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0 or (hi - lo) <= 2.0 * (tol.abs_tol + tol.rel_tol * abs(mid)):
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)
