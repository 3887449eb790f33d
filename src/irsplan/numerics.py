"""Special functions, quadrature and root finding for the analytical layer.

Everything in this module is domain-free and needs numpy alone.  The
regularized incomplete gamma functions P and Q have one implementation,
``_gamma_pq``: the series for P when x < a + 1, Legendre's continued fraction
for Q otherwise, and Temme's uniform expansion for a >= 100 near x = a, all
scaled by the prefactor x^a e^-x / Gamma(a) taken as
exp(1/2 ln(a / 2 pi) - Stirling's correction - a phi(x/a)), phi(t) = t - 1 - ln t
(DiDonato & Morris, ACM TOMS 12, 1986; Gil, Segura & Temme, SIAM J. Sci.
Comput. 34, 2012).  ``reg_upper_gamma`` is Q; ``inv_reg_upper_gamma`` solves
through it by Newton's method on ln P or ln Q, and ``get_tail_quantile`` fixes
its probability; ``upper_gamma_tail`` gives Q with D, its shape terms taken
once.  ``student_t_quantile`` serves the Monte Carlo intervals.
Quadrature is composite Gauss-Legendre on given panel breakpoints
(``_gl_panels``; ``concat_ranges`` lays out batches of ragged panel sets); the
public integrators refine dyadic panels and serve as references.  Root finding
is bisection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class Refused(Exception):
    """A refused request.  ``.payload`` = {"kind", "detail", **extra} is what the
    CLI prints on stderr with exit code 2; each extra is also an attribute."""

    def __init__(self, kind, detail, **extra):
        super().__init__(detail)
        self.payload = {"kind": kind, "detail": detail, **extra}
        vars(self).update(extra)


class NumericsError(Refused):
    """Raised when an iteration fails to converge (an adaptive quadrature's
    refinement, whose message carries its last two estimates, or the incomplete
    gamma's continued fraction or inverse, which converge on every finite input
    tried) or its premise fails.  No CLI command integrates adaptively."""

    def __init__(self, detail):
        super().__init__("numerics-error", detail)


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = 1e-10   # absolute convergence floor
    rel_tol: float = 1e-8    # relative convergence target

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("Tolerance fields must be positive")


DEFAULT_TOL = Tolerance()


# ---------------------------------------------------------------------------
# regularized incomplete gamma
# ---------------------------------------------------------------------------

_EPS = 2.0 ** -52
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)), k = 1..8: ln Gamma(z) - ((z - 1/2) ln z - z + ln sqrt(2 pi))
# ~ sum_k c_k z^(1 - 2k), to 3e-17 at z >= 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
# Temme's uniform expansion serves a >= 100 with |eta| <= 1/2 (x/a in about
# [0.56, 1.55]); there its first 8 terms, each to eta^19, leave less than 1e-17
_TEMME_MIN_SHAPE = 100.0
_TEMME_MAX_ETA2 = 0.25
_SERIES_ROWS = np.arange(1.0, 17.0)[:, None]   # terms of P's series per pass
_FRACTION_MAX_TERMS = 100_000


def _stirling(z, z2):
    """Stirling's correction ln Gamma(z) - ((z - 1/2) ln z - z + ln sqrt(2 pi))
    for z >= 10, given z2 = z^2."""
    t = 1.0 / z2
    s = _STIRLING[-1] * t
    for c in _STIRLING[-2:0:-1]:
        s += c
        s *= t
    s += _STIRLING[0]
    s /= z
    return s


def _log_scale(a):
    """ln(a^a e^-a / Gamma(a)) over an array a > 0, so that the prefactor
    D = x^a e^-x / Gamma(a) is exp(_log_scale(a) - a phi(x/a)).

    It is 1/2 ln(a / 2 pi) less Stirling's correction.  Below a = 10 the
    correction is taken at z = a + 10 and Gamma(a) = Gamma(z) / (a (a+1) ...
    (a+9)), the product formed in pairs (a + j)(a + 9 - j) = a(a + 9) + j(9 - j)
    and scaled by z^-10 before its logarithm, so no term exceeds about 10.
    """
    small = a < 10.0
    n_small = np.count_nonzero(small)
    if n_small == a.size:  # the usual call: shapes of a few units
        return _log_scale_below_10(a)
    if n_small == 0:
        return 0.5 * np.log(a) - _LN_SQRT_2PI - _stirling(a, a * a)
    out = np.empty_like(a)
    out[small] = _log_scale_below_10(a[small])
    out[~small] = _log_scale(a[~small])
    return out


def _log_scale_below_10(a):
    z = a + 10.0
    w = a * (a + 9.0)
    prod = w * (w + 8.0)
    prod *= w + 14.0
    prod *= w + 18.0
    prod *= w + 20.0
    z2 = z * z
    z4 = z2 * z2
    prod /= z4 * z4 * z2
    r = np.log(a / z)
    r *= a
    r += np.log(prod)
    r += 0.5 * np.log(z)
    r += 10.0 - _LN_SQRT_2PI
    r -= _stirling(z, z2)
    return r


def _temme_coefficients(terms=8, degree=20):
    """Taylor coefficients c[k, j] (j < degree) of the first `terms` functions
    C_k(eta) of Temme's expansion, R_a(eta) ~ e^(-a eta^2 / 2) / sqrt(2 pi a)
    sum_k C_k(eta) a^-k.

    With mu = x/a - 1 and eta^2 / 2 = mu - ln(1 + mu): C_0 = 1/mu - 1/eta and
    C_k = C_(k-1)'(eta) / eta + (-1)^k g_k / mu, g_k the coefficients of
    Gamma*(a) = sum_k g_k a^-k (Temme, "Special Functions", 1996, sec. 11.2).
    mu(eta) = sum m_i eta^i follows from eta (1 + mu) = mu mu'.
    """
    n = degree + 2 * terms + 2
    m = [0.0, 1.0, 1.0 / 3.0]
    for i in range(3, n + 1):
        m.append((m[i - 1] - sum((i + 1 - r) * m[r] * m[i + 1 - r] for r in range(2, i)))
                 / (i + 1))
    b = [1.0]  # eta / mu = sum b_i eta^i
    for i in range(1, n):
        b.append(-sum(m[r + 1] * b[i - r] for r in range(1, i + 1)))
    ln_gstar = [0.0] * (terms + 1)  # ln Gamma*(a) = sum_k _STIRLING[k] a^(-2k-1)
    for k, c in enumerate(_STIRLING):
        if 2 * k + 1 <= terms:
            ln_gstar[2 * k + 1] = c
    g = [1.0]
    for k in range(1, terms + 1):
        g.append(sum(j * ln_gstar[j] * g[k - j] for j in range(1, k + 1)) / k)
    rows = [b[1:]]
    for k in range(1, terms):
        prev, gk = rows[-1], (-1) ** k * g[k]
        # the 1/eta poles of the two terms cancel: prev[1] = -gk
        rows.append([(i + 2) * prev[i + 2] + gk * b[i + 1] for i in range(len(prev) - 2)])
    return np.array([row[:degree] for row in rows])


_TEMME = _temme_coefficients()


def _gamma_pq(a, x, scale):
    """(P, Q, ln D) over flat arrays of shapes a > 0 and arguments x >= 0,
    with scale = _log_scale(a) and D = x^a e^-x / Gamma(a).

    ln D = scale - a phi(x/a), phi(t) = t - 1 - ln t.  The plain form errs
    by about 2 a ulps of a phi near t = 1, so for a >= 10 with t within 1/2
    of 1 phi comes from ``_phi_near`` on u = (x - a)/a (x - a is then exact),
    and a phi keeps its relative accuracy however large a is.  P is summed as
    a series for x < a + 1, Q taken from Legendre's continued fraction
    otherwise, and both from Temme's uniform expansion for a >= 100 with
    |eta| <= 1/2; the other one is the complement.  A tail whose prefactor
    underflows is 0.  Every point's value depends on that point alone.
    """
    t = x / a
    tm1 = t - 1.0
    with np.errstate(divide="ignore"):
        aphi = tm1 - np.log(t)
    a_max = a.max()
    if a_max >= 10.0:
        near = (np.abs(tm1) < 0.5) & (a >= 10.0)
        if near.any():
            aphi[near] = _phi_near((x[near] - a[near]) / a[near])
    aphi *= a
    lnd = scale - aphi
    d = np.exp(lnd)
    series = x < a + 1.0
    temme = None
    if a_max >= _TEMME_MIN_SHAPE:
        temme = (a >= _TEMME_MIN_SHAPE) & (aphi <= (0.5 * _TEMME_MAX_ETA2) * a)
        series &= ~temme
    if np.count_nonzero(series) == series.size:  # every point; the usual call
        p = _p_series(a, x)
        p *= d
        p /= a
        return p, 1.0 - p, lnd
    p = np.zeros_like(x)
    q = np.ones_like(x)
    if series.any():
        p[series] = _p_series(a[series], x[series]) * d[series] / a[series]
        q[series] = 1.0 - p[series]
    fraction = ~series if temme is None else ~(series | temme)
    q[fraction] = 0.0
    p[fraction] = 1.0
    fraction &= d > 0.0
    if fraction.any():
        q[fraction] = _q_fraction(a[fraction], x[fraction]) * d[fraction]
        p[fraction] = 1.0 - q[fraction]
    if temme is not None and temme.any():
        p[temme], q[temme] = _temme_pq(a[temme], x[temme], aphi[temme])
    return p, q, lnd


def _phi_near(u):
    """u - ln(1 + u) for |u| < 1/2, to a few ulps: with r = u / (2 + u),
    ln(1 + u) = 2 atanh r, so u - ln(1 + u) = r u - 2 r^3 sum_k r^2k / (2k + 3),
    r^2 <= 1/9 and 17 terms."""
    r = u / (2.0 + u)
    r2 = r * r
    s = np.full_like(r, 1.0 / 35.0)
    for k in range(15, -1, -1):
        s *= r2
        s += 1.0 / (2 * k + 3)
    return r * u - 2.0 * r * r2 * s


def _p_series(a, x):
    """sum_n x^n / ((a+1) ... (a+n)), so that P = D S / a, for x < a + 1.

    Terms are added in order until each point's term is below a quarter ulp
    of its sum.  From then on every further term rounds away, so a point's
    sum does not depend on how many terms the slowest point in the call
    needs; its terms are zeroed to keep them out of subnormals."""
    term = np.ones_like(x)
    s = np.ones_like(x)
    n = 0.0
    while True:
        ratio = a + (_SERIES_ROWS + n)
        np.divide(x, ratio, out=ratio)
        for row in ratio:
            term *= row
            s += term
        n += _SERIES_ROWS.size
        done = term < (0.25 * _EPS) * s
        if np.count_nonzero(done) == done.size:
            return s
        term *= ~done


def _q_fraction(a, x):
    """Q / D = 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))) by the modified
    Lentz method (Numerical Recipes, 3rd ed., sec. 6.2), each point stopping
    when its last factor is within 2 ulps of 1."""
    tiny = 1e-300
    out = np.empty_like(x)
    idx = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _FRACTION_MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[d == 0.0] = tiny
        d = 1.0 / d
        c = b + an / c
        c[c == 0.0] = tiny
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) <= 2.0 * _EPS
        out[idx[done]] = h[done]
        keep = ~done
        if not keep.any():
            return out
        idx, a, b, c, d, h = idx[keep], a[keep], b[keep], c[keep], d[keep], h[keep]
    raise NumericsError("incomplete gamma: continued fraction did not converge")


def _temme_pq(a, x, aphi):
    """(P, Q) by Temme's uniform expansion: Q = erfc(eta sqrt(a/2)) / 2 + R_a(eta),
    eta = sign(x - a) sqrt(2 phi(x/a)).  erfc(y) for y >= 0 is Q(1/2, y^2),
    and y^2 = a phi is at hand."""
    eta = np.sqrt(2.0 * aphi / a)
    below = x < a
    eta[below] *= -1.0
    inv_a = 1.0 / a
    coef = np.repeat(_TEMME[-1:], a.size, axis=0)  # sum_k c[k, j] a^-k, row per point
    for row in _TEMME[-2::-1]:
        coef *= inv_a[:, None]
        coef += row
    s = coef[:, -1].copy()
    for j in range(coef.shape[1] - 2, -1, -1):
        s *= eta
        s += coef[:, j]
    r = np.exp(-aphi) / np.sqrt(2.0 * math.pi * a) * s
    half = np.full_like(a, 0.5)
    half = 0.5 * _gamma_pq(half, aphi, _log_scale(half))[1]
    tail = half + np.where(below, -r, r)  # P below x = a, Q above
    return np.where(below, tail, 1.0 - tail), np.where(below, 1.0 - tail, tail)


def reg_upper_gamma(alpha, x):
    """Regularized upper incomplete gamma G_a(x) = Gamma(a, x)/Gamma(a).

    Monotone nonincreasing in x with G_a(0) = 1.  Accepts scalars or arrays
    (broadcast) and returns a float for scalar inputs.  Every element's value
    depends on its own (alpha, x) alone, never on the rest of the call.
    """
    scalar = np.isscalar(alpha) and np.isscalar(x)
    a = np.asarray(alpha, dtype=float)
    xx = np.asarray(x, dtype=float)
    # a NaN fails every comparison; an empty array passes
    if not (a.min(initial=math.inf) > 0.0 and a.max(initial=1.0) < math.inf
            and xx.min(initial=0.0) >= 0.0 and xx.max(initial=0.0) < math.inf):
        if not (np.isfinite(a).all() and np.isfinite(xx).all()):
            raise ValueError("reg_upper_gamma: inputs must be finite")
        raise ValueError("reg_upper_gamma: requires alpha > 0 and x >= 0")
    scale = _log_scale(a.ravel()).reshape(a.shape)  # once per shape, before broadcasting
    if a.shape != xx.shape:
        a, xx, scale = np.broadcast_arrays(a, xx, scale)
    if a.size == 0:
        return np.ones(a.shape)
    out = _gamma_pq(a.ravel(), xx.ravel(), scale.ravel())[1].reshape(a.shape)
    return float(out) if scalar else out


def upper_gamma_tail(alpha):
    """(x, idx) -> (Q, ln D) over flat arrays x >= 0 and idx: the tails Q =
    G_alpha[idx](x) of the shapes alpha (a flat array), as ``reg_upper_gamma``
    gives them, and D = x^a e^-x / Gamma(a) = -dQ / d ln x."""
    a = np.asarray(alpha, dtype=float)
    if not np.all((a > 0.0) & np.isfinite(a)):
        raise ValueError("upper_gamma_tail: alpha must be positive and finite")
    scale = _log_scale(a)
    return lambda x, idx: _gamma_pq(a[idx], x, scale[idx])[1:]


def _normal_isf(q):
    """Upper-tail standard normal quantile for 0 < q <= 1/2, within 4.5e-4
    (Abramowitz & Stegun 26.2.23); a starting point only."""
    t = np.sqrt(-2.0 * np.log(q))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))


def inv_reg_upper_gamma(alpha, p):
    """Inverse of reg_upper_gamma in x: the x with G_alpha(x) = p.

    Accepts scalars or arrays (broadcast) and returns a float for scalar
    inputs.  p = 1 maps to 0, and a root below the smallest subnormal to 0.

    Newton's method in s = ln x on ln P = ln(1 - p) for p > 1/2, else on
    ln Q = ln p: both are concave in s, so from the side where the tail is
    below its target the steps never overshoot.  Each point starts from
    Wilson-Hilferty, or from P <= x^a / Gamma(a + 1) where that cube root
    fails or a < 1 with p > 1/2, and keeps a bracket; a step that leaves it
    (a tail that underflowed) bisects it geometrically, or moves e-fold when
    it is still open.  A point stops when Newton's error estimate for the
    new iterate, |f''/2f'| step^2, is below half an ulp, or when x no longer
    moves; both are tolerances in ulps, not an iteration count.
    """
    scalar = np.isscalar(alpha) and np.isscalar(p)
    a, pp = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(p, dtype=float))
    if not np.all((a > 0.0) & np.isfinite(a)):
        raise ValueError("inv_reg_upper_gamma: alpha must be positive and finite")
    if not np.all((pp > 0.0) & (pp <= 1.0)):
        raise ValueError("inv_reg_upper_gamma: p must lie in (0, 1]")
    shape = a.shape
    a, pp = a.ravel(), pp.ravel()
    lower = pp > 0.5               # solve on P = 1 - p, exact here
    target = np.where(lower, 1.0 - pp, pp)
    scale = _log_scale(a)
    # p = 1 (target 0) takes no logarithm's warning: it is set apart below
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        ln_target = np.log(target)
        z = _normal_isf(target)
        c = 1.0 / (9.0 * a)
        cube = 1.0 - c + np.where(lower, -z, z) * np.sqrt(c)
        # P <= x^a / Gamma(a + 1), with ln Gamma(a + 1) = (a + 1) ln a - a - scale
        ln_p = np.where(lower, ln_target, np.log1p(-target))
        x = np.exp((ln_p + (a + 1.0) * np.log(a) - a - scale) / a)
    x = np.where((cube > 0.0) & ~(lower & (a < 1.0)), a * cube ** 3, x)
    out = np.zeros_like(a)
    idx = np.flatnonzero((pp < 1.0) & (x > 0.0))
    a, x, lower, ln_target, scale = a[idx], x[idx], lower[idx], ln_target[idx], scale[idx]
    lo = np.zeros_like(x)
    hi = np.full_like(x, math.inf)
    for _ in range(200):
        if not idx.size:
            return float(out[0]) if scalar else out.reshape(shape)
        p_, q_, lnd = _gamma_pq(a, x, scale)
        tail = np.where(lower, p_, q_)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ln_tail = np.log(tail)
            f = np.where(lower, ln_tail - ln_target, ln_target - ln_tail)  # increasing in x
            slope = np.exp(lnd - ln_tail)  # f' = |d ln(tail) / ds|
            step = -f / slope
            new = x * np.exp(step)
            lo = np.where(f < 0.0, x, lo)
            hi = np.where(f > 0.0, x, hi)
            bad = ~((new > lo) & (new < hi))
            if bad.any():
                mid = np.where((lo > 0.0) & (hi < math.inf), np.sqrt(lo * hi),
                               np.where(f < 0.0, x * math.e, x / math.e))
                new = np.where(bad, mid, new)
            curvature = a - x - np.where(lower, slope, -slope)  # f'' / f'
            done = (new == x) | (~bad & (np.abs(step) <= 2.0 ** -20)
                                 & (0.5 * np.abs(curvature) * step * step <= 2.0 ** -53))
        x = new
        out[idx[done]] = x[done]
        keep = ~done
        idx, a, x, lower, ln_target, scale, lo, hi = (
            v[keep] for v in (idx, a, x, lower, ln_target, scale, lo, hi))
    raise NumericsError("inv_reg_upper_gamma: Newton iteration did not converge")


def get_tail_quantile(p):
    """The p tail quantile as a function of the Gamma shape alone.

    alpha -> inv_reg_upper_gamma(alpha, p), evaluated exactly.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("get_tail_quantile: p must lie in (0, 1)")
    return functools.partial(inv_reg_upper_gamma, p=float(p))


def student_t_quantile(dof, p):
    """The p quantile (1/2 <= p < 1) of Student's t with dof >= 1 degrees of
    freedom.

    Bisects theta = atan(t / sqrt(dof)) in [0, pi/2] to the last ulp on the
    closed-form two-sided probability A = 2p - 1 (Abramowitz & Stegun
    26.7.3-4): with c = cos^2 theta, A = sin theta sum_(k < dof/2) c^k
    (1 3 ... (2k-1)) / (2 4 ... 2k) for even dof, and (2/pi) (theta +
    sin theta cos theta sum_(k < (dof-1)/2) c^k (2 4 ... 2k) / (3 5 ... (2k+1)))
    for odd dof.
    """
    dof = int(dof)
    if dof < 1 or not (0.5 <= p < 1.0):
        raise ValueError("student_t_quantile: requires dof >= 1 and 1/2 <= p < 1")
    odd = dof % 2 == 1
    k = np.arange(1.0, dof // 2)
    coef = np.cumprod(np.concatenate(([1.0], 2.0 * k / (2.0 * k + 1.0) if odd
                                      else (2.0 * k - 1.0) / (2.0 * k))))[:dof // 2]
    powers = np.arange(coef.size)

    def excess(theta):
        c = math.cos(theta)
        series = float(np.dot(coef, (c * c) ** powers))
        if odd:
            return 2.0 / math.pi * (theta + math.sin(theta) * c * series) - (2.0 * p - 1.0)
        return math.sin(theta) * series - (2.0 * p - 1.0)

    theta = bisect(excess, 0.0, 0.5 * math.pi, Tolerance(5e-324, 2.0 ** -53))
    return math.sqrt(dof) * math.tan(theta)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gl_nodes(n):
    """Gauss-Legendre nodes and weights on [-1, 1] (shared; do not mutate)."""
    return np.polynomial.legendre.leggauss(n)


def _gl_panels(edges, nodes):
    """Node positions and weights of composite GL on the panels between
    consecutive breakpoints along the last axis of the array `edges`; leading
    axes batch independent rules."""
    x, w = _gl_nodes(nodes)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = edges.shape[:-1] + ((edges.shape[-1] - 1) * nodes,)
    pts = (mid[..., None] + half[..., None] * x).reshape(shape)
    return pts, (half[..., None] * w).reshape(shape)


def concat_ranges(starts, counts):
    """Concatenated integer ranges [starts[i], starts[i] + counts[i])."""
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(out.size)
    return out


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
        pts, wts = _gl_panels(np.linspace(a, b, 2 ** level + 1), nodes)
        cur = float(np.dot(wts, np.asarray(f(pts), dtype=float)))
        if prev is not None and abs(cur - prev) <= tol.abs_tol + tol.rel_tol * abs(cur):
            return cur
        prev = cur
    raise NumericsError("integrate_radial: refinement did not converge "
                        f"(last two estimates {prev!r}, {cur!r})")


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
        rp, rw = _gl_panels(np.linspace(r_in, r_out, 2 ** level + 1), nodes)
        pp, pw = _gl_panels(np.linspace(0.0, phi, 2 ** level + 1), nodes)
        vals = np.asarray(f(rp[:, None], pp[None, :]), dtype=float)
        cur = float(np.einsum("i,j,ij->", rw * rp, pw, vals))
        if prev is not None and abs(cur - prev) <= tol.abs_tol + tol.rel_tol * abs(cur):
            return cur
        prev = cur
    raise NumericsError("integrate_polar_sector: refinement did not converge "
                        f"(last two estimates {prev!r}, {cur!r})")


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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0 or (hi - lo) <= 2.0 * (tol.abs_tol + tol.rel_tol * abs(mid)):
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)
