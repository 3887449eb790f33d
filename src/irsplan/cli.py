"""Command-line experiment runner.

Subcommands::

    irsplan coverage   l-sweep of the IRS-assisted coverage range + baseline
    irsplan plan       one placement run (line-search | algorithm1)
    irsplan sweep      nu_bar vs M for planners, baselines, and benchmarks
    irsplan validate   Monte Carlo certification of a saved plan file

Artifacts are deterministic: CSV files carry the resolved config as a '#'
comment line, JSON reports embed it under "config", and anything
time-dependent lives in a ``<name>.meta.json`` sidecar so reruns with the
same config are byte-identical.  Exit codes: 0 ok, 2 rejected input,
infeasible request or a result that failed its own consistency check
(structured JSON on stderr), 1 crash.
"""

import argparse
import json
import sys
import traceback
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .geometry import RingPlan, mean_ues_per_sector, validate_plan
from .planner import (PlanCheckError, PlanInfeasibleError, PlanResult,
                      algorithm1, coverage_range, line_search)
from .powerctl import (PowerAllocation, benchmark_cipc, benchmark_equal_power,
                       benchmark_irs_equal_power, benchmark_irs_mean_cipc)
from .simulation import SlotLimitError, validate_plan_mc

SCHEMA_VERSION = 2


class CliError(Exception):
    """Rejected input with a structured payload (exit code 2)."""

    def __init__(self, kind, detail, **extra):
        super().__init__(f"{kind}: {detail}")
        self.payload = {"kind": kind, "detail": detail, **extra}


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def _cell_text(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_sidecar(path: Path):
    meta = {"written_at": datetime.now(timezone.utc).isoformat(),
            "tool": "irsplan", "version": __version__}
    Path(str(path) + ".meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path: Path, columns, rows, cfg: ExperimentConfig):
    """UTF-8 CSV: one '# config: {...}' comment line, header row, data rows."""
    lines = ["# config: " + json.dumps(cfg.to_dict(), sort_keys=True,
                                       separators=(",", ":"))]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell_text(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_sidecar(path)


def write_json(path: Path, payload: dict, cfg: ExperimentConfig):
    doc = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict()}
    doc.update(_jsonable(payload))
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    _write_sidecar(path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_coverage(cfg: ExperimentConfig, out_dir: Path) -> int:
    cov = cfg.coverage
    base = coverage_range(cfg.radio, cfg.irs, cov.p_tx, cov.snr_min)
    rows = [("direct", None, base.r_star, base.limited)]
    n = int(round((cov.l_stop - cov.l_start) / cov.l_step)) + 1
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
    if method == "algorithm1":
        return algorithm1(cfg.cell, cfg.radio, cfg.irs, M,
                          I_max=cfg.plan.I_max, p_no=p_no)
    raise CliError("usage", f"unknown planner method {method!r}")


def _plan_payload(result: PlanResult) -> dict:
    plan = result.plan
    alloc = result.allocation
    return {
        "method": result.method,
        "nu_bar_bps_hz": alloc.nu_bar,
        "plan": {"R_in_m": list(plan.R_in), "M": list(plan.M),
                 "L_m": list(plan.L), "rho": list(plan.rho)},
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
    if plan.R_in[0] < cfg.cell.R_ex - 1e-9:
        rows.append(("ap-exterior", None, cfg.cell.R_ex, plan.R_in[0],
                     0, None, None, None, None, alloc.nu_bar))
    return rows


def cmd_plan(cfg: ExperimentConfig, out_dir: Path, method=None) -> int:
    method = method or cfg.plan.method
    result = _run_planner(cfg, method, cfg.plan.M)
    write_json(out_dir / "plan.json", _plan_payload(result), cfg)
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
    placement_cache = {}

    def placement(M):
        if M not in placement_cache:
            placement_cache[M] = _run_planner(cfg, "line-search", M)
        return placement_cache[M]

    for M in sorted(set(cfg.sweep.M_values)):
        if M == 0:
            continue  # no surfaces: only the AP-only baseline rows apply
        for method in cfg.sweep.methods:
            if method == "line-search":
                nu = placement(M).nu_bar
            elif method == "algorithm1":
                nu = _run_planner(cfg, "algorithm1", M).nu_bar
            elif method == "irs-equal-power":
                nu = benchmark_irs_equal_power(cfg.radio, cfg.cell, cfg.irs,
                                               placement(M).plan, p_no).nu_bar
            else:  # irs-mean-cipc
                nu = benchmark_irs_mean_cipc(cfg.radio, cfg.cell, cfg.irs,
                                             placement(M).plan, p_no).nu_bar
            rows.append((M, method, nu))
    write_csv(out_dir / "sweep.csv", ("M", "method", "nu_bar_bps_hz"),
              rows, cfg)
    print(f"sweep: {len(rows)} rows -> {out_dir / 'sweep.csv'}")
    return 0


def _load_plan_file(path: Path, cfg: ExperimentConfig) -> PlanResult:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError("plan-file-error", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError("plan-file-error", f"{path} is not valid JSON: {exc}")
    try:
        embedded = doc["config"]
        body = doc["plan"]
        alloc = doc["allocation"]
        plan = RingPlan(R_in=tuple(float(x) for x in body["R_in_m"]),
                        M=tuple(int(x) for x in body["M"]),
                        L=tuple(float(x) for x in body["L_m"]),
                        rho=tuple(float(x) for x in body["rho"]))
        allocation = PowerAllocation(rho=plan.rho,
                                     eta0_star=float(alloc["eta0_star"]),
                                     R_bar=float(alloc["R_bar_bps_hz"]),
                                     nu_bar=float(alloc["nu_bar_bps_hz"]),
                                     p_no=float(alloc["p_no"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError("plan-file-error", f"{path} is missing fields: {exc}")
    current = cfg.to_dict()
    mismatched = [s for s in ("radio", "cell", "irs", "outage")
                  if embedded.get(s) != current[s]]
    if mismatched:
        raise CliError("plan-config-mismatch",
                       "plan file was produced under a different setup",
                       sections=mismatched)
    violations = validate_plan(cfg.cell, plan)
    if violations:
        raise CliError("plan-file-error", "plan file violates placement invariants",
                       violations=[v.code for v in violations])
    return PlanResult(plan=plan, allocation=allocation,
                      nu_bar=allocation.nu_bar,
                      method=str(doc.get("method", "unknown")), diagnostics={})


def cmd_validate(cfg: ExperimentConfig, plan_file: Path, out_dir: Path) -> int:
    result = _load_plan_file(plan_file, cfg)
    est = validate_plan_mc(cfg.cell, cfg.radio, cfg.irs, result, cfg.mc)
    lo = est.common_throughput - est.common_half_width
    hi = est.common_throughput + est.common_half_width
    payload = {
        "mc": {k: getattr(est, k) for k in (
            "n_topologies", "n_fading", "seed", "element_draws",
            "analytical_nu_bar", "common_throughput", "common_half_width",
            "min_ue_throughput", "nop_by_region", "nop_half_width_by_region",
            "nop_by_decile", "nop_decile_half_width", "energy_mean",
            "energy_mean_with_overflow", "energy_rel_half_width",
            "overflow_ue_share", "max_sector_load", "notes")},
        "deltas": {
            "common_minus_analytical": est.common_throughput - est.analytical_nu_bar,
            "analytical_within_interval": bool(lo <= est.analytical_nu_bar <= hi),
            "energy_budget_ratio": est.energy_mean / cfg.radio.E_total,
            "energy_budget_ratio_with_overflow":
                est.energy_mean_with_overflow / cfg.radio.E_total,
        },
    }
    write_json(out_dir / "mc_report.json", payload, cfg)
    print(f"validate: analytical nu_bar={est.analytical_nu_bar:.4f}, "
          f"MC {est.common_throughput:.4f} +/- {est.common_half_width:.4f} "
          f"bps/Hz -> {out_dir / 'mc_report.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

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
        p.add_argument("--seed", type=int, default=None,
                       help="Monte Carlo seed (overrides mc.seed)")
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
    p_val.add_argument("plan_file", type=Path, help="plan.json from 'plan'")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, seed=args.seed)
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "coverage":
            return cmd_coverage(cfg, out_dir)
        if args.command == "plan":
            return cmd_plan(cfg, out_dir, method=args.method)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        return cmd_validate(cfg, args.plan_file, out_dir)
    except ConfigError as exc:
        print(json.dumps({"error": {"kind": "config-error", "detail": str(exc)}}),
              file=sys.stderr)
        return 2
    except CliError as exc:
        print(json.dumps({"error": exc.payload}), file=sys.stderr)
        return 2
    except PlanInfeasibleError as exc:
        print(json.dumps({"error": {"kind": "infeasible", "detail": str(exc),
                                    "bindings": exc.bindings}}), file=sys.stderr)
        return 2
    except PlanCheckError as exc:
        print(json.dumps({"error": {"kind": "invalid-plan", "detail": str(exc),
                                    "method": exc.method,
                                    "violations": exc.violations}}), file=sys.stderr)
        return 2
    except SlotLimitError as exc:
        print(json.dumps({"error": {"kind": "slot-limit", "detail": str(exc),
                                    "max_load": exc.max_load, "n_t": exc.n_t}}),
              file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
