"""Command-line experiment runner.

Subcommands::

    irsplan coverage   l-sweep of the IRS-assisted coverage range + baseline
    irsplan plan       one placement run (line-search | algorithm1)
    irsplan sweep      nu_bar vs M for planners, baselines, and benchmarks
    irsplan validate   Monte Carlo certification of a saved plan file

Artifacts are deterministic: CSV files carry the resolved config as a '#'
comment line, JSON reports embed it under "config", and anything
time-dependent lives in a ``<name>.meta.json`` sidecar so reruns with the
same config are byte-identical.  Exit codes: 0 ok, 2 a ``Refused`` request
(rejected input, infeasible or too expensive request, or a result that
failed its own check; its payload as JSON on stderr), 1 crash.
"""

import argparse
import json
import math
import sys
import traceback
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .channel import POWER_TABLE_STATS
from .config import ExperimentConfig, load_config
from .geometry import RingPlan, ap_spans, mean_ues_per_sector, validate_plan
from .numerics import Refused
from .planner import (RING_TABLE_STATS, PlanResult, algorithm1, coverage_range,
                      line_search, line_search_budgets)
from .powerctl import (POLICY_SCAN_STATS, PowerAllocation, benchmark_cipc,
                       benchmark_equal_power, benchmark_irs_equal_power,
                       benchmark_irs_mean_cipc)
from .simulation import MC_STATS, validate_plan_mc

SCHEMA_VERSION = 2
MAX_COVERAGE_ROWS = 100_000  # each l-row bisects its own radius (about 0.4 ms)


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _cell_text(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_text(path: Path, text: str):
    """Write one output file; a path that cannot take it is refused."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise Refused("output-error", f"cannot write {path}: {exc}", path=str(path))


def _write_sidecar(path: Path, extra=None):
    meta = {"written_at": datetime.now(timezone.utc).isoformat(),
            "tool": "irsplan", "version": __version__, **(extra or {})}
    _write_text(Path(str(path) + ".meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, columns, rows, cfg: ExperimentConfig, meta=None):
    """UTF-8 CSV: one '# config: {...}' comment line, header row, data rows.

    meta adds entries to the ``.meta.json`` sidecar."""
    lines = ["# config: " + json.dumps(cfg.to_dict(), sort_keys=True,
                                       separators=(",", ":"))]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell_text(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")
    _write_sidecar(path, meta)


def write_json(path: Path, payload: dict, cfg: ExperimentConfig, meta=None):
    doc = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict()}
    doc.update(payload)
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    _write_sidecar(path, meta)


def _planning_meta():
    """This process's ring-table, power-factor-table and policy rate-solve
    counters, for a sidecar."""
    return {"ring_table": asdict(RING_TABLE_STATS),
            "power_factor_table": asdict(POWER_TABLE_STATS),
            "policy_scan": asdict(POLICY_SCAN_STATS)}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_coverage(cfg: ExperimentConfig, out_dir: Path) -> int:
    cov = cfg.coverage
    base = coverage_range(cfg.radio, cfg.irs, cov.p_tx, cov.snr_min)
    rows = [("direct", None, base.r_star, base.limited)]
    n = int(round((cov.l_stop - cov.l_start) / cov.l_step)) + 1
    if n > MAX_COVERAGE_ROWS:
        raise Refused("too-expensive", f"a {cov.l_step:g} m l-step asks for {n} coverage "
                      f"rows; at most {MAX_COVERAGE_ROWS} are allowed")
    for k in range(n):
        l = cov.l_start + k * cov.l_step
        if l > cov.l_stop + 1e-9:
            break
        res = coverage_range(cfg.radio, cfg.irs, cov.p_tx, cov.snr_min, l=l)
        rows.append(("irs", float(l), res.r_star, res.limited))
    write_csv(out_dir / "coverage.csv",
              ("mode", "l_m", "r_star_m", "limited"), rows, cfg)
    print(f"coverage: baseline r*={base.r_star:.2f} m, "
          f"{len(rows) - 1} sweep rows -> {out_dir / 'coverage.csv'}")
    return 0


def _run_planner(cfg: ExperimentConfig, method: str, M: int) -> PlanResult:
    p_no = cfg.outage.p_no_min
    if method == "line-search":
        return line_search(cfg.cell, cfg.radio, cfg.irs, M, cfg.plan.I,
                           grid=cfg.grid, p_no=p_no)
    return algorithm1(cfg.cell, cfg.radio, cfg.irs, M, I_max=cfg.plan.I_max, p_no=p_no)


def _plan_payload(result: PlanResult) -> dict:
    plan = result.plan
    alloc = result.allocation
    return {
        "method": result.method,
        "nu_bar_bps_hz": alloc.nu_bar,
        "plan": {"R_in_m": list(plan.R_in), "M": list(plan.M),
                 "L_m": list(plan.L), "rho": list(alloc.rho)},
        "allocation": {"eta0_star": alloc.eta0_star,
                       "R_bar_bps_hz": alloc.R_bar, "p_no": alloc.p_no,
                       "nu_bar_bps_hz": alloc.nu_bar},
        "diagnostics": result.diagnostics,
    }


def _ring_table_rows(cfg: ExperimentConfig, result: PlanResult):
    plan = result.plan
    alloc = result.allocation
    coeff = result.diagnostics.get("region_coefficients_J", {})
    rows = [("ap", 0, plan.R_in[-1], 0.0, 0, None, alloc.rho[0], None,
             coeff.get("ap"), alloc.nu_bar)]
    for i in range(1, plan.I + 1):
        rows.append((f"ring{i}", i, plan.R_in[i - 1], plan.R_in[i],
                     plan.M[i - 1], plan.L[i - 1], alloc.rho[i],
                     mean_ues_per_sector(cfg.cell, plan, i),
                     coeff.get(f"ring{i}"), alloc.nu_bar))
    if (plan.R_in[0], cfg.cell.R_ex) in ap_spans(cfg.cell, plan):  # the exterior annulus
        rows.append(("ap-exterior", None, cfg.cell.R_ex, plan.R_in[0],
                     0, None, None, None, None, alloc.nu_bar))
    return rows


def cmd_plan(cfg: ExperimentConfig, out_dir: Path) -> int:
    result = _run_planner(cfg, cfg.plan.method, cfg.plan.M)
    write_json(out_dir / "plan.json", _plan_payload(result), cfg, _planning_meta())
    write_csv(out_dir / "plan_rings.csv",
              ("region", "i", "R_out_m", "R_in_m", "M_i", "L_i_m",
               "rho_i", "Kbar_i", "C_J", "nu_bar_bps_hz"),
              _ring_table_rows(cfg, result), cfg)
    print(f"plan: method={result.method} M={sum(result.plan.M)} "
          f"I={result.plan.I} nu_bar={result.nu_bar:.4f} bps/Hz "
          f"-> {out_dir / 'plan.json'}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    p_no = cfg.outage.p_no_min
    rows = []
    for report in (benchmark_equal_power(cfg.radio, cfg.cell, p_no),
                   benchmark_cipc(cfg.radio, cfg.cell, p_no)):
        rows.append((None, report.method, report.nu_bar))
    budgets = sorted(set(cfg.sweep.M_values) - {0})  # M = 0: the baselines alone
    plans = {}
    if budgets and set(cfg.sweep.methods) - {"algorithm1"}:  # the rest need placements
        plans = line_search_budgets(cfg.cell, cfg.radio, cfg.irs, budgets, cfg.plan.I,
                                    grid=cfg.grid, p_no=p_no)
    for M in budgets:
        for method in cfg.sweep.methods:
            if method == "line-search":
                nu = plans[M].nu_bar
            elif method == "algorithm1":
                nu = _run_planner(cfg, "algorithm1", M).nu_bar
            else:  # a fixed-placement policy benchmark
                policy = (benchmark_irs_equal_power if method == "irs-equal-power"
                          else benchmark_irs_mean_cipc)
                nu = policy(cfg.radio, cfg.cell, cfg.irs, plans[M].plan).nu_bar
            rows.append((M, method, nu))
    write_csv(out_dir / "sweep.csv", ("M", "method", "nu_bar_bps_hz"),
              rows, cfg, _planning_meta())
    print(f"sweep: {len(rows)} rows -> {out_dir / 'sweep.csv'}")
    return 0


def _json_numbers(values, cast=float):
    """A plan file's list of JSON numbers as a tuple of cast (float or int).
    A bool, a string or, for int, a number with a fraction raises ValueError."""
    if any(type(x) not in (int, float) or (cast is int and not float(x).is_integer())
           for x in values):
        raise ValueError(f"{values!r} is not a list of {cast.__name__}s")
    return tuple(cast(x) for x in values)


def _load_plan_file(path: Path, cfg: ExperimentConfig) -> PlanResult:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise Refused("plan-file-error", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise Refused("plan-file-error", f"{path} is not valid JSON: {exc}")
    try:
        embedded = doc["config"]
        body = doc["plan"]
        alloc = doc["allocation"]
        plan = RingPlan(R_in=_json_numbers(body["R_in_m"]), M=_json_numbers(body["M"], int),
                        L=_json_numbers(body["L_m"]))
        allocation = PowerAllocation(rho=_json_numbers(body["rho"]),
                                     eta0_star=float(alloc["eta0_star"]),
                                     p_no=float(alloc["p_no"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise Refused("plan-file-error", f"{path} is missing fields or holds bad values: {exc}")
    if not isinstance(embedded, dict):
        raise Refused("plan-file-error", f"{path}: config is not a mapping")
    if not (math.isfinite(allocation.eta0_star) and allocation.eta0_star > 0.0):
        raise Refused("plan-file-error",
                      f"{path}: eta0_star={allocation.eta0_star} is not a positive number")
    current = cfg.to_dict()
    mismatched = [s for s in ("radio", "cell", "irs", "outage")
                  if embedded.get(s) != current[s]]
    if mismatched:
        raise Refused("plan-config-mismatch",
                      "plan file was produced under a different setup",
                      sections=mismatched)
    if allocation.p_no != cfg.outage.p_no_min:  # which the config keeps in (0, 1)
        raise Refused("plan-file-error", f"{path}: p_no={allocation.p_no} != outage.p_no_min")
    result = PlanResult(plan=plan, allocation=allocation, method=str(doc.get("method", "unknown")))
    # exactly what the writer derives from the rebuilt result: JSON round-trips floats
    rebuilt = _plan_payload(result)
    contradictions = [k for k in ("allocation", "nu_bar_bps_hz") if doc.get(k) != rebuilt[k]]
    if contradictions:
        raise Refused("plan-file-error", "plan file allocation contradicts itself",
                      contradictions=contradictions)
    violations = validate_plan(cfg.cell, plan, rho=allocation.rho)
    if violations:
        raise Refused("plan-file-error", "plan file violates placement invariants",
                      violations=[v.code for v in violations])
    return result


def _verdict(est, p_no):
    """(verdict, throughput slack, IRS NOP slack) of a certification run.

    The promise is violated when even the upper end of the throughput
    interval falls short of nu_bar.  It is met with conservative slack when
    every IRS region's NOP interval lies wholly above the target.  The
    throughput slack is the upper end minus nu_bar; the NOP slack is the
    smallest IRS-region lower end minus p_no (None without IRS regions).
    """
    throughput_slack = est.common_throughput + est.common_half_width - est.analytical_nu_bar
    lows = [est.nop_by_region[k] - est.nop_half_width_by_region[k]
            for k in est.nop_by_region if k != "ap"]
    nop_slack = min(lows) - p_no if lows else None
    if throughput_slack < 0.0:
        return "violated", throughput_slack, nop_slack
    if nop_slack is not None and nop_slack > 0.0:
        return "met-conservative", throughput_slack, nop_slack
    return "met", throughput_slack, nop_slack


def cmd_validate(cfg: ExperimentConfig, plan_file: Path, out_dir: Path) -> int:
    result = _load_plan_file(plan_file, cfg)
    est = validate_plan_mc(cfg.cell, cfg.radio, cfg.irs, result, cfg.mc)
    lo = est.common_throughput - est.common_half_width
    hi = est.common_throughput + est.common_half_width
    verdict, throughput_slack, nop_slack = _verdict(est, result.allocation.p_no)
    payload = {
        "mc": asdict(est),
        "deltas": {
            "verdict": verdict,
            "throughput_slack": throughput_slack,
            "irs_nop_slack": nop_slack,
            "common_minus_analytical": est.common_throughput - est.analytical_nu_bar,
            "analytical_within_interval": bool(lo <= est.analytical_nu_bar <= hi),
            "energy_budget_ratio": est.energy_mean / cfg.radio.E_total,
            "energy_budget_ratio_with_overflow":
                est.energy_mean_with_overflow / cfg.radio.E_total,
        },
    }
    write_json(out_dir / "mc_report.json", payload, cfg, {"mc": asdict(MC_STATS)})
    print(f"validate: analytical nu_bar={est.analytical_nu_bar:.4f}, "
          f"MC {est.common_throughput:.4f} +/- {est.common_half_width:.4f} "
          f"bps/Hz, verdict {verdict} -> {out_dir / 'mc_report.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _output_dir(path: Path) -> Path:
    """Create the --out directory; a path that cannot be one is refused."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise Refused("output-error", f"cannot create {path}: {exc}", path=str(path))
    return path


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="irsplan",
        description="Ring-based IRS placement and power planning experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="YAML experiment config")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config field "
                       "(dotted key, repeatable)")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory")

    common(sub.add_parser("coverage", help="coverage-range l sweep"))
    p_plan = sub.add_parser("plan", help="single placement run")
    common(p_plan)
    p_plan.add_argument("--method", choices=("line-search", "algorithm1"),
                        default=None, help="planner (default from config)")
    common(sub.add_parser("sweep", help="nu_bar vs M for all methods"))
    p_val = sub.add_parser("validate", help="Monte Carlo plan certification")
    common(p_val)
    p_val.add_argument("--seed", type=int, default=None,
                       help="Monte Carlo seed (overrides mc.seed)")
    p_val.add_argument("plan_file", type=Path, help="plan.json from 'plan'")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the flags go after --set, so they win
        flags = {"mc.seed": getattr(args, "seed", None),
                 "plan.method": getattr(args, "method", None)}
        cfg = load_config(args.config, args.overrides + [
            f"{key}={value}" for key, value in flags.items() if value is not None])
        out_dir = _output_dir(args.out)
        if args.command == "coverage":
            return cmd_coverage(cfg, out_dir)
        if args.command == "plan":
            return cmd_plan(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        return cmd_validate(cfg, args.plan_file, out_dir)
    except Refused as exc:
        print(json.dumps({"error": exc.payload}), file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
