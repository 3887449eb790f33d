"""Special functions, quadrature and root finding for the analytical layer.

Everything in this module is domain-free.  The regularized upper incomplete
gamma function and its inverse are domain-checked wrappers around
``scipy.special.gammaincc`` and ``scipy.special.gammainccinv`` (the
DiDonato-Morris algorithms, ACM TOMS 12, 1986), imported where first called
so that importing irsplan does not import scipy; ``get_tail_quantile`` fixes
the inverse's probability.  Quadrature is composite Gauss-Legendre on given
panel breakpoints (``_gl_panels``; ``concat_ranges`` lays out batches of
ragged panel sets); the public integrators refine dyadic panels and serve as
references.  Root finding is bisection.
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
    """Raised when an adaptive quadrature's refinement fails to converge; the
    message carries its last two estimates.  No CLI command integrates
    adaptively, so none emits this kind."""

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
    from scipy.special import gammaincc  # imported on first use: coverage never needs it
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
    from scipy.special import gammainccinv
    out = gammainccinv(a, pp)
    return float(out) if scalar else out


def get_tail_quantile(p):
    """The p tail quantile as a function of the Gamma shape alone.

    alpha -> inv_reg_upper_gamma(alpha, p), evaluated exactly.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("get_tail_quantile: p must lie in (0, 1)")
    return functools.partial(inv_reg_upper_gamma, p=float(p))


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
