"""Link-level statistics for the IRS-aided downlink.

Covers the distance-law mean gains of the three links (AP-UE direct, AP-IRS,
IRS-UE), the first two moments of the squared composite amplitude Z^2 when an
N-element reflecting surface adds a phase-aligned cascaded path on top of the
Rayleigh direct path, the Gamma tail approximation built from those moments,
and the resulting non-outage probability (NOP) / required-power formulas.
Other modules call these, never re-derive them: ``_cascade_moments`` also sets
the MC surrogate's law, and ``irs_power_factor`` is every sector integrand.

Model: the cascaded amplitude X = sum_j |h_i,j||h_r,j| is treated as Gaussian
by the CLT with

    E X   = N (pi/4) sqrt(g_i g_r),
    var X = N (1 - pi^2/16) g_i g_r,

and the direct amplitude Y is Rayleigh with scale delta = sqrt(g_d / 2).
Z = X + Y, and Z^2 is matched by moments to Gamma(alpha, beta) (inverse-scale
convention), whose upper tail gives the NOP.  All gains and powers are linear
(watts); dB only exists at the CLI boundary.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class OutageSpec:
    R_bar: float        # common rate threshold [bps/Hz]
    p_no_min: float     # target non-outage probability

    def __post_init__(self):
        if not (0.0 < self.p_no_min < 1.0):
            raise ValueError("OutageSpec: p_no_min must lie in (0, 1)")
        if self.R_bar < 0.0:
            raise ValueError("OutageSpec: R_bar must be nonnegative")

    @property
    def eta0(self):
        """SNR threshold 2^R_bar - 1."""
        return 2.0 ** self.R_bar - 1.0

    @property
    def nu(self):
        """Throughput at the target: p_no_min * R_bar [bps/Hz]."""
        return self.p_no_min * self.R_bar


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
    if isinstance(geom, LinkGeometry):
        r, l, d = geom.r, geom.l, geom.d
    else:
        r, l, d = geom
    _, _, alpha, beta = composite_stats_arrays(cfg, irs, r, l, d)
    x = beta * cfg.W * np.asarray(eta0, float) / np.asarray(p, float)
    out = reg_upper_gamma(alpha, x)
    return float(out) if np.ndim(out) == 0 else out


def irs_power_factor(cfg: RadioConfig, irs: IrsSpec, r, l, d, quantile):
    """beta / q_alpha(p_no), the required power per unit W eta0, over (r, l, d).

    ``quantile`` maps Gamma shapes to their p_no tail quantile (a TailQuantile).
    """
    _, _, alpha, beta = composite_stats_arrays(cfg, irs, r, l, d)
    return beta / quantile(alpha)


def required_power_irs(cfg: RadioConfig, irs: IrsSpec, geom, eta0, p_no, quantile=None):
    """Transmit power that meets NOP target p_no for an IRS-served UE.

    Inverts the Gamma tail: p = W eta0 beta / q (W eta0 ``irs_power_factor``)
    where G_alpha(q) = p_no.  ``quantile`` may supply a TailQuantile table;
    otherwise the direct inverse is evaluated.
    """
    if isinstance(geom, LinkGeometry):
        r, l, d = geom.r, geom.l, geom.d
    else:
        r, l, d = geom
    _, _, alpha, beta = composite_stats_arrays(cfg, irs, r, l, d)
    q = inv_reg_upper_gamma(alpha, p_no) if quantile is None else quantile(alpha)
    out = cfg.W * np.asarray(eta0, float) * beta / q
    return float(out) if np.ndim(out) == 0 else out
