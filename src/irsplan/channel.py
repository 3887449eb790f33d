"""Link-level statistics for the IRS-aided downlink.

Covers the distance-law mean gains of the three links (AP-UE direct, AP-IRS,
IRS-UE), the first two moments of the squared composite amplitude Z^2 when an
N-element reflecting surface adds a phase-aligned cascaded path on top of the
Rayleigh direct path, the Gamma tail approximation built from those moments,
and the resulting non-outage probability (NOP) / required-power formulas.
Other modules call these, never re-derive them: ``_cascade_moments`` also sets
the MC surrogate's law, and ``irs_power_factor`` is every sector integrand and
prices every IRS-served UE in the MC topologies.

Model: the cascaded amplitude X = sum_j |h_i,j||h_r,j| is treated as Gaussian
by the CLT with

    E X   = N (pi/4) sqrt(g_i g_r),
    var X = N (1 - pi^2/16) g_i g_r,

and the direct amplitude Y is Rayleigh with scale delta = sqrt(g_d / 2).
Z = X + Y, and Z^2 is matched by moments to Gamma(alpha, beta) (inverse-scale
convention), whose upper tail gives the NOP.  All gains and powers are linear
(watts); dB only exists at the CLI boundary.

Z / sqrt(g_d) has a law that depends on c^2 = g_i g_r / g_d alone, so the
required power per unit W eta0, beta / q_alpha(p_no), is unit(c^2) / g_d.
``_PowerFactorTable`` tabulates ln unit once per (N, p_no) from
``numerics.inv_reg_upper_gamma``, Newton's method on the numpy incomplete
gamma (no scipy); ``irs_power_factor`` reads it in the log domain, from
squared distances, and ``required_power_irs`` through it.  ``POWER_TABLE_STATS``
counts the tables built and their seconds, for the CLI's sidecars.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .numerics import inv_reg_upper_gamma, reg_upper_gamma

C_LIGHT = 299_792_458.0  # free-space propagation speed [m/s]

_PI2_16 = math.pi ** 2 / 16.0


@dataclass(frozen=True)
class RadioConfig:
    """Air-interface and resource-frame constants."""

    f_c: float = 2.0e9          # carrier frequency [Hz]
    B: float = 5.0e6            # total bandwidth [Hz]
    n_b: int = 25               # number of equal sub-bands
    n_t: int = 20               # time slots per frame
    T: float = 0.01             # frame duration [s]
    N0: float = 10.0 ** -20.4   # noise PSD [W/Hz]  (-174 dBm/Hz)
    E_total: float = 1e-3       # per-frame transmit energy budget [J]
    n0: float = 3.0             # path-loss exponent
    H_A: float = 10.0           # AP antenna height [m]
    H_I: float = 1.0            # IRS mounting height [m]

    def __post_init__(self):
        if self.f_c <= 0 or self.B <= 0 or self.N0 <= 0 or self.E_total <= 0:
            raise ValueError("RadioConfig: f_c, B, N0, E_total must be positive")
        if self.n_b < 1 or self.n_t < 1 or self.T <= 0:
            raise ValueError("RadioConfig: need n_b >= 1, n_t >= 1, T > 0")
        if self.n0 < 2.0:
            raise ValueError("RadioConfig: path-loss exponent n0 must be >= 2")
        if self.H_A < 1.0 or self.H_I < 1.0:
            raise ValueError("RadioConfig: antenna heights must be >= 1 m (far-field floor)")

    @property
    def b0(self):
        """Sub-band width [Hz]."""
        return self.B / self.n_b

    @property
    def t0(self):
        """Slot duration [s]."""
        return self.T / self.n_t

    @property
    def W(self):
        """Per-sub-band noise power [W]."""
        return self.N0 * self.b0

    @property
    def alpha0(self):
        """Reference gain at 1 m: (4 pi f_c / c)^-2."""
        return (4.0 * math.pi * self.f_c / C_LIGHT) ** -2


@dataclass(frozen=True)
class IrsSpec:
    N: int = 2000  # reflecting elements per surface

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("IrsSpec: N must be nonnegative")

    @property
    def G_bf(self):
        """Passive beamforming power factor (pi^2/16) N^2 + (1 - pi^2/16) N."""
        return _PI2_16 * self.N ** 2 + (1.0 - _PI2_16) * self.N


@dataclass(frozen=True)
class LinkGeometry:
    """Horizontal distances of one UE's links [m]."""

    r: float        # AP - UE
    l: float        # AP - IRS
    d: float        # IRS - UE

    def __post_init__(self):
        if min(self.r, self.l, self.d) < 0.0:
            raise ValueError("LinkGeometry: distances must be nonnegative")
        slack = 1e-9 * (self.r + self.l + self.d) + 1e-9
        if not (abs(self.l - self.d) - slack <= self.r <= self.l + self.d + slack):
            raise ValueError(
                f"LinkGeometry: ({self.r}, {self.l}, {self.d}) violates the "
                "triangle inequality for coplanar AP/IRS/UE projections")


@dataclass(frozen=True)
class MeanGains:
    g_d: float  # AP-UE mean power gain
    g_i: float  # AP-IRS per-element mean power gain
    g_r: float  # IRS-UE per-element mean power gain


@dataclass(frozen=True)
class CompositeChannelStats:
    mean_Z2: float
    var_Z2: float
    alpha: float   # Gamma shape
    beta: float    # Gamma inverse scale


# ---------------------------------------------------------------------------
# mean gains
# ---------------------------------------------------------------------------

def mean_gain_direct(cfg: RadioConfig, r):
    """Mean AP-UE power gain alpha0 (r^2 + H_A^2)^(-n0/2).  Vectorized in r."""
    r = np.asarray(r, dtype=float)
    out = cfg.alpha0 * (r ** 2 + cfg.H_A ** 2) ** (-0.5 * cfg.n0)
    return float(out[()]) if out.ndim == 0 else out


def _gain_irs_links(cfg: RadioConfig, l, d):
    g_i = cfg.alpha0 * (np.asarray(l, float) ** 2 + (cfg.H_A - cfg.H_I) ** 2) ** (-0.5 * cfg.n0)
    g_r = cfg.alpha0 * (np.asarray(d, float) ** 2 + cfg.H_I ** 2) ** (-0.5 * cfg.n0)
    return g_i, g_r


def mean_gains_irs(cfg: RadioConfig, geom: LinkGeometry) -> MeanGains:
    """All three mean link gains for one UE."""
    g_i, g_r = _gain_irs_links(cfg, geom.l, geom.d)
    return MeanGains(g_d=mean_gain_direct(cfg, geom.r), g_i=float(g_i), g_r=float(g_r))


# ---------------------------------------------------------------------------
# composite moments and the Gamma fit
# ---------------------------------------------------------------------------

def _cascade_moments(N, g_i, g_r):
    """(mu, s2): mean and variance of the CLT cascade amplitude X."""
    return N * (math.pi / 4.0) * np.sqrt(g_i * g_r), N * (1.0 - _PI2_16) * g_i * g_r


def _z2_moment_arrays(N, g_d, g_i, g_r):
    """Mean and variance of Z^2 from the Gaussian (CLT) + Rayleigh model.

    Raw moments: Gaussian X -> (mu, mu^2+s2, mu^3+3 mu s2, mu^4+6 mu^2 s2+3 s2^2),
    Rayleigh Y with scale delta -> (delta sqrt(pi/2), 2 delta^2,
    3 delta^3 sqrt(pi/2), 8 delta^4).  Binomial expansion of E (X+Y)^2 and
    E (X+Y)^4 using independence.
    """
    mu, s2 = _cascade_moments(N, g_i, g_r)
    delta = np.sqrt(g_d / 2.0)
    y1 = delta * math.sqrt(math.pi / 2.0)
    y2 = 2.0 * delta ** 2
    y3 = 3.0 * delta ** 3 * math.sqrt(math.pi / 2.0)
    y4 = 8.0 * delta ** 4
    m1 = mu
    m2 = mu ** 2 + s2
    m3 = mu ** 3 + 3.0 * mu * s2
    m4 = mu ** 4 + 6.0 * mu ** 2 * s2 + 3.0 * s2 ** 2
    mean = m2 + 2.0 * m1 * y1 + y2
    ez4 = m4 + 4.0 * m3 * y1 + 6.0 * m2 * y2 + 4.0 * m1 * y3 + y4
    return mean, ez4 - mean ** 2


def _unit_power_factor(N, c2, p_no):
    """beta / q_alpha(p_no) of the Gamma fit at g_d = 1 and g_i g_r = c2, exactly."""
    mean, var = _z2_moment_arrays(N, 1.0, c2, 1.0)
    alpha = mean ** 2 / var
    beta = mean / var
    return beta / inv_reg_upper_gamma(alpha, p_no)


@dataclass
class PowerTableStats:
    """Power-factor tables this process built (``builds``) and the seconds
    the builds took (``build_s``).  Telemetry only."""

    builds: int = 0
    build_s: float = 0.0


POWER_TABLE_STATS = PowerTableStats()


class _PowerFactorTable:
    """ln unit(c^2), unit = ``_unit_power_factor``, over ln c^2 for one (N, p_no).

    Z / sqrt(g_d) = c X' + Y' with X' and Y' free of the gains, so the Gamma
    fit's beta / q_alpha(p_no) is unit(c^2) / g_d.  log unit is tabulated on
    a uniform grid in log c^2 and read by the 4-point Lagrange cubic through
    the knots around a point (one cubic's coefficients per interval).  Points
    outside the table take the exact expression.
    """

    LOG_LO = math.log(1e-30)
    LOG_HI = math.log(1e4)
    KNOTS = 16_000

    def __init__(self, N, p_no):
        if not (0.0 < p_no < 1.0):
            raise ValueError("power-factor table: p_no must lie in (0, 1)")
        start = time.perf_counter()
        self.N = N
        self.p_no = p_no
        h = (self.LOG_HI - self.LOG_LO) / (self.KNOTS - 1)
        self._inv_h = 1.0 / h
        self._n = self.KNOTS - 1  # intervals
        # one extra knot beyond each end, for the end intervals' cubics
        t = self.LOG_LO + h * np.arange(-1, self.KNOTS + 1)
        f = np.log(_unit_power_factor(N, np.exp(t), p_no))
        fm, f0, f1, f2 = f[:-3], f[1:-2], f[2:-1], f[3:]
        # the cubic through knots -1, 0, 1, 2 in s = (log c^2 - knot 0) / h,
        # its coefficients (s^3, s^2, s, 1) side by side: a point reads all
        # four with one 32-byte gather
        coef = np.stack([(f2 - fm) / 6.0 + 0.5 * (f0 - f1),
                         0.5 * (fm + f1) - f0,
                         f1 - fm / 3.0 - 0.5 * f0 - f2 / 6.0,
                         f0], axis=1)
        self._cubics = coef.view(np.dtype((np.void, coef.itemsize * 4))).ravel()
        POWER_TABLE_STATS.builds += 1
        POWER_TABLE_STATS.build_s += time.perf_counter() - start

    def _inside(self, u):
        """The cubics at a 1-D array u of table coordinates in [0, KNOTS - 1);
        overwrites u."""
        i = u.astype(np.intp)
        u -= i
        c = np.take(self._cubics, i).view(float).reshape(u.size, 4)
        out = c[:, 0] * u
        out += c[:, 1]
        out *= u
        out += c[:, 2]
        out *= u
        out += c[:, 3]
        return out

    def log_unit(self, ln_c2):
        """ln unit(c^2) over an array of ln c^2.

        ln c^2 maps to the table coordinate u = (ln c^2 - LOG_LO) / h, h the
        knot spacing; points outside the table take the exact expression.
        """
        u = np.subtract(ln_c2, self.LOG_LO, dtype=float).reshape(-1)
        u *= self._inv_h
        # every point inside is the usual call, and its own return pays: the
        # masked path alone took an in-process round (line-search and
        # algorithm1 plans, default sweep, surrogate validate) from 0.68 to
        # 0.91 s at best of 10 on a 2-core Xeon; one clip-and-patch path read
        # all-inside calls in 25 / 127-139 / 5300 us against 22 / 125 / 2400
        # at 2,000 / 16,384 / 200,000 points (best of 7, numpy 2.4)
        if u.size and u.min() >= 0.0 and u.max() < self._n:
            return self._inside(u).reshape(np.shape(ln_c2))
        inside = (u >= 0.0) & (u < self._n)
        out = np.empty_like(u)
        out[inside] = self._inside(u[inside])
        outside = np.exp(np.reshape(ln_c2, -1)[~inside])
        out[~inside] = np.log(_unit_power_factor(self.N, outside, self.p_no))
        return out.reshape(np.shape(ln_c2))


@functools.lru_cache(maxsize=8)
def _power_factor_table(N, p_no) -> _PowerFactorTable:
    """Shared table for the eight most recently used (N, p_no)."""
    return _PowerFactorTable(N, p_no)


def composite_stats_arrays(cfg: RadioConfig, irs: IrsSpec, r, l, d):
    """(mean_Z2, var_Z2, alpha, beta) over broadcast geometry arrays."""
    g_d = mean_gain_direct(cfg, r)
    g_i, g_r = _gain_irs_links(cfg, l, d)
    mean, var = _z2_moment_arrays(irs.N, g_d, g_i, g_r)
    alpha = mean ** 2 / var
    beta = mean / var
    return mean, var, alpha, beta


def composite_stats(cfg: RadioConfig, irs: IrsSpec, geom: LinkGeometry) -> CompositeChannelStats:
    """Moment statistics of Z^2 and its Gamma(alpha, beta) fit for one UE."""
    mean, var, alpha, beta = composite_stats_arrays(cfg, irs, geom.r, geom.l, geom.d)
    return CompositeChannelStats(mean_Z2=float(mean), var_Z2=float(var),
                                 alpha=float(alpha), beta=float(beta))


def mean_z2_closed_form(cfg: RadioConfig, irs: IrsSpec, geom: LinkGeometry):
    """E{Z^2} in its grouped form G_bf g_i g_r + N (pi/4) sqrt(pi g_i g_r g_d) + g_d.

    Algebraically identical to CompositeChannelStats.mean_Z2 (the cross term
    equals 2 E{X} E{Y}); kept as an independent expression for tests.
    """
    g = mean_gains_irs(cfg, geom)
    return (irs.G_bf * g.g_i * g.g_r
            + irs.N * (math.pi / 4.0) * math.sqrt(math.pi * g.g_i * g.g_r * g.g_d)
            + g.g_d)


# ---------------------------------------------------------------------------
# outage and power
# ---------------------------------------------------------------------------

def _distances(geom):
    """(r, l, d) of a LinkGeometry or of an (r, l, d) tuple."""
    if isinstance(geom, LinkGeometry):
        return geom.r, geom.l, geom.d
    return geom


def nop_direct(cfg: RadioConfig, p, r, eta0):
    """Non-outage probability of an AP-only UE: exp(-W eta0 / (p g_d)).

    Exact under Rayleigh fading (exponential channel power).  Vectorized.
    """
    g_d = mean_gain_direct(cfg, r)
    out = np.exp(-cfg.W * np.asarray(eta0, float) / (np.asarray(p, float) * g_d))
    return float(out[()]) if np.ndim(out) == 0 else out


def nop_irs(cfg: RadioConfig, irs: IrsSpec, p, geom, eta0):
    """Non-outage probability of an IRS-served UE under the Gamma tail fit.

    geom may be a LinkGeometry or a tuple of broadcastable (r, l, d) arrays.
    """
    _, _, alpha, beta = composite_stats_arrays(cfg, irs, *_distances(geom))
    x = beta * cfg.W * np.asarray(eta0, float) / np.asarray(p, float)
    out = reg_upper_gamma(alpha, x)
    return float(out) if np.ndim(out) == 0 else out


def irs_power_factor(cfg: RadioConfig, irs: IrsSpec, r2, l2, d2, p_no):
    """beta / q_alpha(p_no), the required power per unit W eta0, over the
    squared horizontal distances r2 (AP-UE), l2 (AP-IRS) and d2 (IRS-UE).

    Equal to unit(c^2) / g_d, worked in the log domain: with
    a = (n0/2) ln(r2 + H_A^2), b = (n0/2) ln(l2 + (H_A - H_I)^2) and
    e = (n0/2) ln(d2 + H_I^2), ln c^2 = ln alpha0 + a - b - e is read off the
    shared (N, p_no) table and 1 / g_d = exp(a) / alpha0, so no power is
    taken and no distance is square-rooted.  The arguments broadcast; only
    e is evaluated at their full shape.
    """
    h = 0.5 * cfg.n0
    a = h * np.log(np.add(r2, cfg.H_A ** 2, dtype=float))
    b = h * np.log(np.add(l2, (cfg.H_A - cfg.H_I) ** 2, dtype=float))
    e = h * np.log(np.add(d2, cfg.H_I ** 2, dtype=float))
    log_unit = _power_factor_table(irs.N, p_no).log_unit((math.log(cfg.alpha0) + a - b) - e)
    return np.exp(log_unit + (a - math.log(cfg.alpha0)))


def required_power_irs(cfg: RadioConfig, irs: IrsSpec, geom, eta0, p_no):
    """Transmit power that meets NOP target p_no for an IRS-served UE.

    Inverts the Gamma tail: p = W eta0 beta / q where G_alpha(q) = p_no, i.e.
    W eta0 ``irs_power_factor``.  geom may be a LinkGeometry or a tuple of
    broadcastable (r, l, d) arrays.
    """
    r2, l2, d2 = (np.square(v, dtype=float) for v in _distances(geom))
    out = cfg.W * np.asarray(eta0, float) * irs_power_factor(cfg, irs, r2, l2, d2, p_no)
    return float(out) if np.ndim(out) == 0 else out
