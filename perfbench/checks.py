"""Checks of irsplan's artifacts, computed apart from irsplan's own code.

Every check takes the artifact's text (and the plan it refers to, where it
needs one) and returns a list of failure messages; an empty list means the
artifact passed.  The physics is recomputed from the paper's formulas with
plain floats, scipy.special and scipy.integrate; nothing here imports
irsplan.
"""

import csv
import io
import json
import math

from scipy import integrate, special, stats

C_LIGHT = 299_792_458.0

# Relative agreement demanded of recomputed closed forms and quadratures.
# Measured agreement is about 3e-13; a 7th-digit change must still fail.
REL_TOL = 1e-9
# Coverage radii come from a bisection stopped at 1e-8 relative in r.
SNR_REL_TOL = 1e-6
# Statistical checks on mc_report.json, in multiples of the report's own
# 95% half-widths (1.96 standard errors).  At 3 and 4 half-widths a correct
# program fails about once in 1e4 and 1e5 runs; at 1 it would fail one
# seed in 40 by chance alone.
NOP_HW_MULTIPLE = 4.0
THROUGHPUT_HW_MULTIPLE = 3.0
ENERGY_HW_MULTIPLE = 4.0

# The M=100 line-search placement of the default configuration (5 m grid,
# I=3).  Its throughput is recomputed below and compared with the sweep.
REFERENCE_PLAN_M100 = {"R_in_m": [250.0, 225.0, 185.0, 120.0], "M": [10, 57, 33]}


class Model:
    """The paper's link model for one resolved irsplan configuration."""

    def __init__(self, config):
        radio, cell = config["radio"], config["cell"]
        self.p_no = float(config["outage"]["p_no_min"])
        self.N = int(config["irs"]["N"])
        self.n0 = float(radio["n0"])
        self.H_A = float(radio["H_A"])
        self.H_I = float(radio["H_I"])
        self.E_total = float(radio["E_total"])
        self.n_t = int(radio["n_t"])
        self.alpha0 = (C_LIGHT / (4.0 * math.pi * float(radio["f_c"]))) ** 2
        self.W = float(radio["N0"]) * float(radio["B"]) / int(radio["n_b"])
        self.t0 = float(radio["T"]) / int(radio["n_t"])
        self.R_ex = float(cell["R_ex"])
        self.K = int(cell["K"])
        self.L_min = float(cell["L_min"])
        self.M1_max = int(cell["M1_max"])
        self.K_irs_max = float(cell["K_irs_max"])
        self.density = self.K / (math.pi * self.R_ex ** 2)
        # raw moments of the standard normal and the unit-scale Rayleigh law,
        # with the binomial weights that combine them
        self._z = [float(stats.norm.moment(k)) for k in range(5)]
        self._y = [float(stats.rayleigh.moment(k)) for k in range(5)]
        self._binom = [[math.comb(k, j) for j in range(k + 1)] for k in range(5)]

    def gain(self, horizontal, height):
        return self.alpha0 * (horizontal ** 2 + height ** 2) ** (-self.n0 / 2.0)

    def link_gains(self, r, l, d):
        return (self.gain(r, self.H_A), self.gain(l, self.H_A - self.H_I),
                self.gain(d, self.H_I))

    def mean_z2_grouped(self, r, l, d):
        """E{Z^2} = G_bf g_i g_r + N (pi/4) sqrt(pi g_i g_r g_d) + g_d."""
        g_d, g_i, g_r = self.link_gains(r, l, d)
        c = math.pi ** 2 / 16.0
        g_bf = c * self.N ** 2 + (1.0 - c) * self.N
        return (g_bf * g_i * g_r
                + self.N * math.pi / 4.0 * math.sqrt(math.pi * g_i * g_r * g_d) + g_d)

    def gamma_fit(self, r, l, d):
        """(shape, rate) of the Gamma law matched to E{Z^2} and E{Z^4}.

        Z = X + Y with X Gaussian (CLT over N element cascades) and Y
        Rayleigh; raw moments of the sum by the binomial theorem.
        """
        g_d, g_i, g_r = self.link_gains(r, l, d)
        mu = self.N * math.pi / 4.0 * math.sqrt(g_i * g_r)
        sd = math.sqrt(self.N * (1.0 - math.pi ** 2 / 16.0) * g_i * g_r)
        scale = math.sqrt(g_d / 2.0)
        b, z = self._binom, self._z
        x = [sum(b[k][j] * mu ** (k - j) * sd ** j * z[j] for j in range(k + 1))
             for k in range(5)]
        y = [self._y[k] * scale ** k for k in range(5)]
        m2, m4 = (sum(b[k][j] * x[j] * y[k - j] for j in range(k + 1)) for k in (2, 4))
        var = m4 - m2 * m2
        return m2 * m2 / var, m2 / var

    def ap_coefficient(self, r_lo, r_hi):
        """AP-served annulus energy per unit SNR threshold [J], closed form.

        Channel inversion at mean SNR eta0 / ln(1/p_no):
        C = 2 pi lambda W t0 / (alpha0 ln(1/p_no)) * int r (r^2+H_A^2)^(n0/2) dr.
        """
        e = self.n0 / 2.0 + 1.0
        f = ((r_hi ** 2 + self.H_A ** 2) ** e - (r_lo ** 2 + self.H_A ** 2) ** e) / (2.0 * e)
        return (2.0 * math.pi * self.density * self.W * self.t0 * f
                / (self.alpha0 * math.log(1.0 / self.p_no)))

    def ring_coefficient(self, lo, hi, m, L):
        """Ring energy per unit SNR threshold [J]: M lambda W t0 times the
        sector integral of beta / q_alpha(p_no), q from gammainccinv."""
        if hi <= lo:
            return 0.0
        half = math.pi / m

        def integrand(az, r):
            d = math.sqrt(max(r * r + L * L - 2.0 * r * L * math.cos(az), 0.0))
            shape, rate = self.gamma_fit(r, L, d)
            return rate / special.gammainccinv(shape, self.p_no) * r

        def inner(r):
            return integrate.quad(integrand, 0.0, half, args=(r,), epsabs=0.0,
                                  epsrel=1e-11, limit=200)[0]

        points = [L] if lo < L < hi else None
        F = 2.0 * integrate.quad(inner, lo, hi, points=points, epsabs=0.0,
                                 epsrel=1e-11, limit=200)[0]
        return m * self.density * self.W * self.t0 * F

    def coefficients(self, R_in, M):
        """Region coefficients {'ap', 'ring1', ...} of a placement."""
        L = [self.L_min] + [0.5 * (R_in[i] + R_in[i - 1]) for i in range(2, len(M) + 1)]
        out = {"ap": self.ap_coefficient(0.0, R_in[-1])
               + self.ap_coefficient(R_in[0], self.R_ex)}
        for i in range(1, len(M) + 1):
            out[f"ring{i}"] = self.ring_coefficient(R_in[i], R_in[i - 1], M[i - 1], L[i - 1])
        return out

    def nu_bar(self, total_coefficient):
        return self.p_no * math.log2(1.0 + self.E_total / total_coefficient)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def read_csv(text):
    """(resolved config, rows as dicts) of an irsplan CSV artifact."""
    first, rest = text.split("\n", 1)
    if not first.startswith("# config: "):
        raise ValueError("missing '# config:' line")
    return json.loads(first[len("# config: "):]), list(csv.DictReader(io.StringIO(rest)))


def check_plan(text, method, reference=None):
    """plan.json: feasibility by our own arithmetic, coefficients, nu_bar."""
    doc = json.loads(text)
    model = Model(doc["config"])
    body = doc["plan"]
    R, M, L, rho = body["R_in_m"], body["M"], body["L_m"], body["rho"]
    fails = []
    if doc.get("method") != method:
        fails.append(f"method {doc.get('method')!r} != {method!r}")
    if len(R) != len(M) + 1 or len(L) != len(M) or len(rho) != len(M) + 1:
        return fails + ["plan arrays have inconsistent lengths"]
    if sum(M) != doc["config"]["plan"]["M"] or min(M) < 1:
        fails.append(f"surface counts {M} do not split M={doc['config']['plan']['M']}")
    if M[0] > model.M1_max:
        fails.append(f"M_1={M[0]} exceeds M1_max={model.M1_max}")
    if not (model.R_ex >= R[0] and R[-1] >= 0.0
            and all(a >= b for a, b in zip(R, R[1:]))):
        fails.append(f"ring radii {R} not non-increasing within [0, R_ex]")
    want_L = [model.L_min] + [0.5 * (R[i] + R[i - 1]) for i in range(2, len(M) + 1)]
    if any(_rel(a, b) > 1e-12 for a, b in zip(L, want_L)):
        fails.append(f"surface circles {L} != {want_L}")
    for i, m in enumerate(M, start=1):
        kbar = model.density * math.pi * (R[i - 1] ** 2 - R[i] ** 2) / m
        if kbar > model.K_irs_max * (1.0 + 1e-12):
            fails.append(f"ring{i} carries {kbar:.4g} mean UEs per sector > {model.K_irs_max}")
    if min(rho) < 0.0 or abs(sum(rho) - 1.0) > 1e-12:
        fails.append(f"power split {rho} is not a distribution")

    stored = doc["diagnostics"]["region_coefficients_J"]
    ours = model.coefficients(R, M)
    if sorted(stored) != sorted(ours):
        fails.append(f"coefficient regions {sorted(stored)} != {sorted(ours)}")
    else:
        for key, value in ours.items():
            if _rel(stored[key], value) > REL_TOL:
                fails.append(f"C[{key}]={stored[key]!r} but recomputed {value!r}")
        total = sum(stored.values())
        for key, share in zip(["ap"] + [f"ring{i}" for i in range(1, len(M) + 1)], rho):
            if abs(share - stored[key] / total) > 1e-12:
                fails.append(f"rho[{key}]={share!r} != C/sum(C)")
    nu = model.nu_bar(sum(ours.values()))
    for where in (doc["nu_bar_bps_hz"], doc["allocation"]["nu_bar_bps_hz"]):
        if _rel(where, nu) > REL_TOL:
            fails.append(f"nu_bar={where!r} but recomputed {nu!r}")
    if reference is not None and (R != reference["R_in_m"] or M != reference["M"]):
        fails.append(f"placement R_in={R} M={M} differs from the reference "
                     f"{reference['R_in_m']} {reference['M']}")
    return fails


def check_coverage(text):
    """coverage.csv: direct radius in closed form, SNR = threshold at each r*."""
    config, rows = read_csv(text)
    model = Model(config)
    cov = config["coverage"]
    p, snr = float(cov["p_tx"]), float(cov["snr_min"])
    fails = []
    direct = [row for row in rows if row["mode"] == "direct"]
    irs = [row for row in rows if row["mode"] == "irs"]
    n_l = int(round((cov["l_stop"] - cov["l_start"]) / cov["l_step"])) + 1
    if len(direct) != 1 or len(irs) != n_l or len(rows) != n_l + 1:
        return [f"expected 1 direct and {n_l} irs rows, got {len(direct)} and {len(irs)}"]
    want = math.sqrt((p * model.alpha0 / (model.W * snr)) ** (2.0 / model.n0) - model.H_A ** 2)
    if _rel(float(direct[0]["r_star_m"]), want) > 1e-12:
        fails.append(f"direct r*={direct[0]['r_star_m']} but closed form gives {want!r}")
    for k, row in enumerate(irs):
        l = float(row["l_m"])
        if abs(l - (cov["l_start"] + k * cov["l_step"])) > 1e-9:
            fails.append(f"row {k}: l={l} off the sweep grid")
        r = float(row["r_star_m"])
        if row["limited"] == "true":
            if p * model.mean_z2_grouped(l, l, 0.0) / model.W >= snr:
                fails.append(f"l={l}: marked limited but the threshold is reachable")
            continue
        got = p * model.mean_z2_grouped(r, l, r - l) / model.W
        if _rel(got, snr) > SNR_REL_TOL:
            fails.append(f"l={l}: SNR at r*={r} is {got!r}, not {snr}")
    return fails


def check_sweep(text):
    """sweep.csv: one row per (M, method), AP baselines in closed form,
    planners above AP-only CIPC, and the reference M=100 throughput."""
    config, rows = read_csv(text)
    model = Model(config)
    fails = []
    budgets = sorted({m for m in config["sweep"]["M_values"] if m > 0})
    methods = config["sweep"]["methods"]
    keys = [(row["M"], row["method"]) for row in rows]
    want = [("", "ap-equal-power"), ("", "ap-cipc")] + [
        (str(m), meth) for m in budgets for meth in methods]
    if keys != want:
        return [f"rows {keys} are not one per (M, method) in order"]
    nu = {key: float(row["nu_bar_bps_hz"]) for key, row in zip(keys, rows)}
    p_ue = model.E_total / (model.K * model.t0)
    eta0 = p_ue * model.gain(model.R_ex, model.H_A) * math.log(1.0 / model.p_no) / model.W
    equal = model.p_no * math.log2(1.0 + eta0)
    cipc = model.nu_bar(model.ap_coefficient(0.0, model.R_ex))
    if _rel(nu[("", "ap-equal-power")], equal) > 1e-12:
        fails.append(f"ap-equal-power {nu[('', 'ap-equal-power')]!r} != {equal!r}")
    if _rel(nu[("", "ap-cipc")], cipc) > 1e-12:
        fails.append(f"ap-cipc {nu[('', 'ap-cipc')]!r} != {cipc!r}")
    for (m, meth), value in nu.items():
        if meth in ("line-search", "algorithm1") and not value > cipc:
            fails.append(f"M={m} {meth} nu_bar={value} does not beat ap-cipc {cipc}")
    if 100 in budgets and "line-search" in methods:
        ref = REFERENCE_PLAN_M100
        want100 = model.nu_bar(sum(model.coefficients(ref["R_in_m"], ref["M"]).values()))
        if _rel(nu[("100", "line-search")], want100) > REL_TOL:
            fails.append(f"M=100 line-search {nu[('100', 'line-search')]!r} != "
                         f"reference placement's {want100!r}")
    return fails


def check_mc_report(text, plan_text):
    """mc_report.json against the plan it certifies."""
    doc = json.loads(text)
    plan = json.loads(plan_text)
    model = Model(doc["config"])
    mc, deltas = doc["mc"], doc["deltas"]
    nu_bar = plan["nu_bar_bps_hz"]
    fails = []
    nop, hw = mc["nop_by_region"], mc["nop_half_width_by_region"]
    if "ap" not in nop:
        fails.append("no AP-region NOP")
    elif abs(nop["ap"] - model.p_no) > NOP_HW_MULTIPLE * hw["ap"]:
        fails.append(f"AP NOP {nop['ap']!r} is {abs(nop['ap'] - model.p_no) / hw['ap']:.2f} "
                     f"half-widths from p_no={model.p_no}")
    for key in nop:
        if key != "ap" and nop[key] < model.p_no - hw[key]:
            fails.append(f"{key} NOP {nop[key]!r} below p_no - half-width")
    if mc["analytical_nu_bar"] != nu_bar:
        fails.append(f"report certifies nu_bar={mc['analytical_nu_bar']!r}, plan says {nu_bar!r}")
    upper = mc["common_throughput"] + THROUGHPUT_HW_MULTIPLE * mc["common_half_width"]
    if upper < nu_bar:
        fails.append(f"certified throughput {mc['common_throughput']!r} + "
                     f"{THROUGHPUT_HW_MULTIPLE:g} half-widths < nu_bar {nu_bar!r}")
    ratio = deltas["energy_budget_ratio"]
    if abs(ratio - 1.0) > ENERGY_HW_MULTIPLE * mc["energy_rel_half_width"]:
        fails.append(f"energy budget ratio {ratio!r} is more than {ENERGY_HW_MULTIPLE:g} "
                     f"relative half-widths ({mc['energy_rel_half_width']!r}) from 1")
    if _rel(ratio, mc["energy_mean"] / model.E_total) > 1e-12:
        fails.append("energy_budget_ratio != energy_mean / E_total")
    if mc["max_sector_load"] > model.n_t:
        fails.append(f"max_sector_load {mc['max_sector_load']} > n_t={model.n_t}")
    return fails
