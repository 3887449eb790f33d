"""Config resolution and CLI artifact contracts (run against tmp dirs)."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from irsplan.channel import LinkGeometry, composite_stats
from irsplan.cli import _load_plan_file, _plan_payload, main, write_json
from irsplan.config import (ConfigError, ExperimentConfig, load_config,
                            parse_unit_scalar)
from irsplan.powerctl import POLICY_SCAN_STATS

ROOT = Path(__file__).resolve().parent.parent


class TestUnitParsing:
    def test_db_suffixes(self):
        assert parse_unit_scalar("3 dB") == pytest.approx(10 ** 0.3)
        assert parse_unit_scalar("10 dBm") == pytest.approx(0.01)
        assert parse_unit_scalar("-174 dBm/Hz") == pytest.approx(10 ** -20.4)
        assert parse_unit_scalar("-174dBm/Hz") == pytest.approx(10 ** -20.4)

    def test_passthrough(self):
        assert parse_unit_scalar(5) == 5
        assert parse_unit_scalar("line-search") == "line-search"
        assert parse_unit_scalar("10 dollars") == "10 dollars"
        assert parse_unit_scalar(None) is None

    def test_bare_numbers(self):
        # YAML 1.1 reads 1e-3 (no dot) as a string
        assert parse_unit_scalar("1e-3") == 1e-3
        assert parse_unit_scalar("-2.5E+2") == -250.0
        assert parse_unit_scalar("1.2.3") == "1.2.3"


class TestLoadConfig:
    def test_empty_is_default(self):
        assert load_config() == ExperimentConfig()

    def test_yaml_file(self, tmp_path):
        p = tmp_path / "exp.yaml"
        p.write_text("radio:\n  N0: -174 dBm/Hz\n  E_total: 2.0e-3\n"
                     "irs:\n  N: 1000\ncell:\n  K: 200\n", encoding="utf-8")
        cfg = load_config(p)
        assert cfg.radio.N0 == pytest.approx(10 ** -20.4)
        assert cfg.radio.E_total == pytest.approx(2e-3)
        assert cfg.irs.N == 1000
        assert cfg.cell.K == 200
        assert cfg.plan.M == 100  # untouched sections keep defaults

    def test_scientific_notation(self, tmp_path):
        assert load_config(overrides=["radio.E_total=1e-3"]).radio.E_total == 1e-3
        p = tmp_path / "exp.yaml"
        p.write_text("radio:\n  E_total: 2e-3\n", encoding="utf-8")
        assert load_config(p).radio.E_total == 2e-3

    def test_overrides(self):
        cfg = load_config(overrides=["irs.N=0", "plan.method=algorithm1",
                                     "sweep.M_values=[10, 20]",
                                     "radio.N0=-174 dBm/Hz"])
        assert cfg.irs.N == 0
        assert cfg.plan.method == "algorithm1"
        assert cfg.sweep.M_values == (10, 20)
        assert cfg.radio.N0 == pytest.approx(10 ** -20.4)

    def test_override_beats_file(self, tmp_path):
        p = tmp_path / "exp.yaml"
        p.write_text("cell:\n  K: 200\n", encoding="utf-8")
        assert load_config(p, overrides=["cell.K=300"]).cell.K == 300

    def test_seed(self):
        cfg = load_config(overrides=["mc.seed=42"])
        assert cfg.mc.seed == 42

    def test_full_scale_flag_is_gone(self, tmp_path):
        # 1000 x 1e6 draws never finishes; --set mc.n_topologies/n_fading remain
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(tmp_path / "plan.json"), "--full-scale",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["coverage", "plan", "sweep"])
    def test_seed_flag_is_validate_only(self, tmp_path, command):
        # no Monte Carlo runs outside validate, so a seed there sets nothing
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_rejections(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(overrides=["bogus.x=1"])
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(overrides=["radio.bogus=1"])
        with pytest.raises(ConfigError, match="expected an integer"):
            load_config(overrides=["cell.K=true"])
        with pytest.raises(ConfigError, match="expected an integer"):
            load_config(overrides=["cell.K=3.5"])
        with pytest.raises(ConfigError, match="section.field"):
            load_config(overrides=["K=3"])
        with pytest.raises(ConfigError, match="p_no_min"):
            load_config(overrides=["outage.p_no_min=1.5"])
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.yaml")

    def test_integerlike_float_accepted(self):
        assert load_config(overrides=["cell.K=3.0"]).cell.K == 3

    def test_yaml_diagnostics_carry_position(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("radio:\n  N0: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line"):
            load_config(p)

    def test_non_mapping_rejected(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(p)

    def test_to_dict_shape(self):
        d = ExperimentConfig().to_dict()
        assert set(d) == {"radio", "cell", "irs", "outage", "mc", "grid",
                          "coverage", "plan", "sweep"}
        assert d["sweep"]["M_values"] == list(range(10, 101, 10))
        assert isinstance(d["sweep"]["methods"], list)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config: ")
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    return json.loads(lines[0][len("# config: "):]), header, rows


COVERAGE_ARGS = ["--set", "coverage.l_start=100", "--set", "coverage.l_stop=120",
                 "--set", "coverage.l_step=10"]


class TestCoverageCommand:
    def test_artifact_contract(self, tmp_path, capsys):
        rc = main(["coverage", "--out", str(tmp_path)] + COVERAGE_ARGS)
        assert rc == 0
        assert "coverage:" in capsys.readouterr().out
        cfg_echo, header, rows = read_csv(tmp_path / "coverage.csv")
        assert header == ["mode", "l_m", "r_star_m", "limited"]
        assert cfg_echo["coverage"]["l_start"] == 100
        assert rows[0]["mode"] == "direct" and rows[0]["l_m"] == ""
        assert float(rows[0]["r_star_m"]) == pytest.approx(563.173367959328, rel=1e-9)
        assert [r["l_m"] for r in rows[1:]] == ["100.0", "110.0", "120.0"]
        for r in rows[1:]:
            assert float(r["r_star_m"]) > float(rows[0]["r_star_m"])
            assert r["limited"] == "false"
        assert (tmp_path / "coverage.csv.meta.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["coverage", "--out", str(a)] + COVERAGE_ARGS) == 0
        assert main(["coverage", "--out", str(b)] + COVERAGE_ARGS) == 0
        assert (a / "coverage.csv").read_bytes() == (b / "coverage.csv").read_bytes()

    def test_no_elements_collapses_to_direct(self, tmp_path):
        rc = main(["coverage", "--out", str(tmp_path), "--set", "irs.N=0"]
                  + COVERAGE_ARGS)
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "coverage.csv")
        base = float(rows[0]["r_star_m"])
        for r in rows[1:]:
            assert float(r["r_star_m"]) == pytest.approx(base, abs=1e-3)

    def test_far_reaching_surface_is_bracketed(self, tmp_path):
        # r* lies about 13 doublings above the first upper bracket at this N
        rc = main(["coverage", "--out", str(tmp_path), "--set", "irs.N=1000000000",
                   "--set", "coverage.l_stop=20"])
        assert rc == 0
        cfg = load_config(overrides=["irs.N=1000000000"])
        _, _, rows = read_csv(tmp_path / "coverage.csv")
        assert [r["l_m"] for r in rows[1:]] == ["10.0", "15.0", "20.0"]
        for r in rows[1:]:
            l, r_star = float(r["l_m"]), float(r["r_star_m"])
            assert math.isfinite(r_star) and r["limited"] == "false"
            st = composite_stats(cfg.radio, cfg.irs, LinkGeometry(r_star, l, r_star - l))
            assert cfg.coverage.p_tx * st.mean_Z2 / cfg.radio.W == pytest.approx(
                cfg.coverage.snr_min, rel=1e-6)

    def test_runaway_l_grid_is_refused(self, tmp_path, capsys):
        # 590,000,001 rows at 0.4 ms each: refused before the first one
        rc = main(["coverage", "--out", str(tmp_path), "--set", "coverage.l_step=1e-6"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "too-expensive"
        assert "590000001" in err["detail"] and "100000" in err["detail"]
        assert not (tmp_path / "coverage.csv").exists()

    def test_uncreatable_out_is_refused(self, tmp_path, capsys):
        # no directory can be made under a regular file
        out = tmp_path / "file" / "sub"
        out.parent.write_text("", encoding="utf-8")
        rc = main(["coverage", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "output-error" and err["path"] == str(out)

    @pytest.mark.parametrize("blocked", ["coverage.csv", "coverage.csv.meta.json"])
    def test_unwritable_artifact_is_refused(self, tmp_path, capsys, blocked):
        # a directory where the artifact or its sidecar goes cannot be written
        (tmp_path / blocked).mkdir()
        rc = main(["coverage", "--out", str(tmp_path), "--set", "coverage.l_start=100",
                   "--set", "coverage.l_stop=120", "--set", "coverage.l_step=10"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "output-error" and err["path"] == str(tmp_path / blocked)
        assert "Is a directory" in err["detail"]


PLAN_ARGS = ["--set", "plan.method=algorithm1", "--set", "plan.M=15"]


class TestPlanCommand:
    def test_artifacts(self, tmp_path, capsys):
        rc = main(["plan", "--out", str(tmp_path)] + PLAN_ARGS)
        assert rc == 0
        assert "nu_bar=3.2678" in capsys.readouterr().out
        doc = json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))
        assert doc["schema_version"] == 2
        assert doc["method"] == "algorithm1"
        assert doc["plan"]["M"] == [10, 5]
        assert doc["plan"]["R_in_m"][0] == 250.0
        assert doc["allocation"]["p_no"] == 0.95
        assert doc["nu_bar_bps_hz"] == pytest.approx(3.267767924660948, rel=1e-9)
        assert math.isclose(sum(doc["plan"]["rho"]), 1.0, rel_tol=1e-12)

        _, header, rows = read_csv(tmp_path / "plan_rings.csv")
        assert header == ["region", "i", "R_out_m", "R_in_m", "M_i", "L_i_m",
                          "rho_i", "Kbar_i", "C_J", "nu_bar_bps_hz"]
        assert [r["region"] for r in rows] == ["ap", "ring1", "ring2"]
        assert float(rows[1]["L_i_m"]) == 10.0
        assert int(rows[1]["M_i"]) == 10 and int(rows[2]["M_i"]) == 5
        for r in rows[1:]:
            assert float(r["Kbar_i"]) <= 10.0 + 1e-9

    def test_sidecar_counts_ring_table_work(self, tmp_path):
        rc = main(["plan", "--out", str(tmp_path), "--method", "line-search",
                   "--set", "plan.M=12", "--set", "grid.radius_step=12.5"])
        assert rc == 0
        meta = json.loads((tmp_path / "plan.json.meta.json").read_text(encoding="utf-8"))
        ring = meta["ring_table"]
        assert set(ring) == {"fills", "rows", "rings", "points", "fill_s", "dp_s",
                             "priced_rings", "priced_points", "screen_max_rel_error",
                             "min_runner_up_gap"}
        # a ring's reads share its integral: at least 3 azimuths x 12 radii each
        assert ring["fills"] > 0 and ring["rows"] >= ring["rings"] > 0
        assert ring["points"] >= 36 * ring["rings"]
        assert 0.0 < ring["screen_max_rel_error"] < 5e-4
        assert ring["min_runner_up_gap"] is None or ring["min_runner_up_gap"] >= 0.0
        # the graded rule prices the winning plan's rings, 10 x 10 nodes a panel at least
        assert ring["priced_points"] >= 100 * ring["priced_rings"] > 0
        assert ring["fill_s"] > 0.0 and ring["dp_s"] > 0.0
        doc = json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))
        assert "ring_table" not in json.dumps(doc)

    def test_cold_plan_counts_one_power_table_build(self, tmp_path):
        # a fresh process, so no (N, p_no) table is cached from other tests
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        script = ("import sys; from irsplan.cli import main; sys.exit(main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", script, "plan", "--out", str(tmp_path),
                               "--set", "plan.M=12", "--set", "grid.radius_step=12.5"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        meta = json.loads((tmp_path / "plan.json.meta.json").read_text(encoding="utf-8"))
        table = meta["power_factor_table"]
        assert table["builds"] == 1
        # the build runs inside the first ring-table fill
        assert 0.0 < table["build_s"] < meta["ring_table"]["fill_s"]
        doc = (tmp_path / "plan.json").read_text(encoding="utf-8")
        assert "power_factor_table" not in doc

    def test_runaway_radius_grid_is_refused(self, tmp_path, capsys):
        # 250,001 radii would ask c0_grid for as many quadratures and the
        # dynamic program for a 600 MB array; refused before either
        rc = main(["plan", "--out", str(tmp_path), "--method", "line-search",
                   "--set", "grid.radius_step=1e-3"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "too-expensive"
        assert "250001" in err["detail"] and "1001" in err["detail"]
        assert not (tmp_path / "plan.json").exists()

    @pytest.mark.parametrize("command,setting,rows", [
        ("plan", "plan.M=4000", 5078560),             # over a minute of fills
        ("plan", "grid.radius_step=0.25", 41938902),  # 1,001 radii pass the grid limit
        ("sweep", "sweep.M_values=[10,4000]", 5078560)])
    def test_oversized_line_search_is_refused(self, tmp_path, capsys, command, setting, rows):
        start = time.perf_counter()
        rc = main([command, "--out", str(tmp_path), "--set", "plan.method=line-search",
                   "--set", setting])
        assert time.perf_counter() - start < 2.0
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "too-expensive"
        assert str(rows) in err["detail"] and "4000000" in err["detail"]
        assert not list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("command,setting", [("plan", "plan.M=1000"),
                                                 ("sweep", "sweep.M_values=[10,1000]")])
    def test_oversized_ring_program_is_refused(self, tmp_path, capsys, command, setting):
        # M=1000 passes the row limit (1,253,560 rows), but I=1000 asks the
        # program for 3.08e10 element operations: about a minute of DP
        start = time.perf_counter()
        rc = main([command, "--out", str(tmp_path), "--set", "plan.method=line-search",
                   "--set", "plan.I=1000", "--set", setting])
        assert time.perf_counter() - start < 2.0
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "too-expensive"
        assert "30848838600" in err["detail"] and "20000000000" in err["detail"]
        assert not list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("settings,ops", [
        (["grid.radius_step=25", "plan.M=30000"], 74157119898),  # 93 s of DP once
        (["plan.M=3000", "plan.I=5"], 28376858860)])             # 49 s of DP once
    def test_dp_operations_are_refused_before_the_program(self, tmp_path, capsys, monkeypatch,
                                                          settings, ops):
        # both pass the row limit; the operation count refuses them unrun
        import irsplan.planner

        def program(*args):
            raise AssertionError("the dynamic program ran")

        monkeypatch.setattr(irsplan.planner, "_ring_program", program)
        rc = main(["plan", "--out", str(tmp_path), "--set", "plan.method=line-search"]
                  + [arg for setting in settings for arg in ("--set", setting)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "too-expensive"
        assert str(ops) in err["detail"] and "20000000000" in err["detail"]

    def test_exterior_row_follows_the_ap_spans(self, tmp_path):
        # an exterior annulus 1e-10 m wide is AP-served energy, so it gets its row
        from irsplan.cli import _ring_table_rows
        from irsplan.geometry import ap_spans
        from irsplan.planner import _finalize
        cfg = load_config(None, [])
        cell = cfg.cell
        for R0 in (cell.R_ex - 1e-10, cell.R_ex):
            res = _finalize(cell, cfg.radio, cfg.irs, 0.95, [R0, 230.0], [10], 10, "t")
            exterior = [r for r in _ring_table_rows(cfg, res) if r[0] == "ap-exterior"]
            spans = ap_spans(cell, res.plan)
            assert [(r[3], r[2]) for r in exterior] == spans[1:]
            assert len(spans) == (2 if R0 < cell.R_ex else 1)

    def test_method_flag_overrides_config(self, tmp_path):
        rc = main(["plan", "--out", str(tmp_path), "--method", "algorithm1",
                   "--set", "plan.M=15", "--set", "plan.method=line-search"])
        assert rc == 0
        doc = json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))
        assert doc["method"] == "algorithm1"
        assert doc["config"]["plan"]["method"] == "algorithm1"

    def test_infeasible_request_is_structured(self, tmp_path, capsys):
        rc = main(["plan", "--out", str(tmp_path), "--set", "cell.M1_max=0"]
                  + PLAN_ARGS)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "infeasible"
        assert err["error"]["bindings"]

    def test_invalid_plan_is_structured(self, tmp_path, capsys, monkeypatch):
        # a planner whose result fails the placement checks exits with code 2
        import irsplan.planner
        from irsplan.geometry import PlanViolation
        monkeypatch.setattr(irsplan.planner, "validate_plan", lambda *a, **k: [
            PlanViolation("sector-load", "ring 2 over the cap")])
        rc = main(["plan", "--out", str(tmp_path)] + PLAN_ARGS)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "invalid-plan"
        assert err["error"]["method"] == "algorithm1"
        assert err["error"]["violations"] == ["sector-load: ring 2 over the cap"]

    def test_config_error_is_structured(self, tmp_path, capsys):
        rc = main(["plan", "--out", str(tmp_path), "--set", "cell.K=true"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config-error"
        assert "cell.K" in err["error"]["detail"]

    @pytest.mark.parametrize("setting", ["grid.I_max=5", "grid.rho_step=0.1"])
    def test_dropped_grid_keys_are_rejected(self, tmp_path, capsys, setting):
        # both were once accepted and silently ignored by every planner
        rc = main(["plan", "--out", str(tmp_path), "--set", setting] + PLAN_ARGS)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config-error"
        assert setting.split("=")[0] in err["error"]["detail"]


SWEEP_ARGS = ["--set", "sweep.M_values=[0, 15]",
              "--set", "sweep.methods=[algorithm1, irs-mean-cipc]"]


class TestSweepCommand:
    def test_rows_and_ordering(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path)] + SWEEP_ARGS)
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["M", "method", "nu_bar_bps_hz"]
        # two AP-only baseline rows first (no M), then per-M method rows;
        # M=0 contributes nothing beyond the baselines
        assert [r["method"] for r in rows[:2]] == ["ap-equal-power", "ap-cipc"]
        assert all(r["M"] == "" for r in rows[:2])
        assert [(r["M"], r["method"]) for r in rows[2:]] == [
            ("15", "algorithm1"), ("15", "irs-mean-cipc")]
        nu = {r["method"]: float(r["nu_bar_bps_hz"]) for r in rows}
        assert nu["ap-equal-power"] == pytest.approx(1.653242459858146, rel=1e-9)
        assert nu["ap-cipc"] == pytest.approx(2.635899187631741, rel=1e-9)
        assert nu["algorithm1"] == pytest.approx(3.267767924660948, rel=1e-9)

    def test_sidecar_carries_ring_table_counters(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path), "--set", "sweep.M_values=[12]",
                   "--set", "sweep.methods=[line-search]"])
        assert rc == 0
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text(encoding="utf-8"))
        ring = meta["ring_table"]
        assert ring["rows"] >= ring["rings"] > 0 and ring["points"] >= 36 * ring["rings"]
        assert ring["screen_max_rel_error"] < 5e-4
        assert set(meta["power_factor_table"]) == {"builds", "build_s"}

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["sweep", "--out", str(out), "--set", "sweep.M_values=[10,20]"]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_sidecar_carries_policy_scan_counters(self, tmp_path):
        before = dict(vars(POLICY_SCAN_STATS))
        assert main(["sweep", "--out", str(tmp_path), "--set", "sweep.M_values=[10,20]"]) == 0
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text(encoding="utf-8"))
        scan = {k: v - before[k] for k, v in meta["policy_scan"].items()}
        assert scan["reports"] == 4  # two policies at each of two budgets
        assert scan["full_evaluations"] >= scan["reports"]
        assert scan["newton_steps"] > 0 and scan["policy_s"] > 0.0

    @pytest.mark.parametrize("budgets", ["[true]", "[true, 1]", "[10, false]"])
    def test_boolean_budgets_are_rejected(self, tmp_path, capsys, budgets):
        # a YAML true is a Python int; it once ran as M = 1 and wrote "true"
        rc = main(["sweep", "--out", str(tmp_path),
                   "--set", f"sweep.M_values={budgets}"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config-error"
        assert "sweep.M_values" in err["error"]["detail"]
        assert not (tmp_path / "sweep.csv").exists()


VALIDATE_MC = ["--set", "mc.n_topologies=2", "--set", "mc.n_fading=400",
               "--set", "mc.element_draws=gaussian-surrogate"]


class TestValidateCommand:
    @pytest.fixture
    def plan_file(self, tmp_path):
        out = tmp_path / "planner"
        assert main(["plan", "--out", str(out)] + PLAN_ARGS) == 0
        return out / "plan.json"

    def test_report_contract(self, tmp_path, plan_file, capsys):
        out = tmp_path / "mc"
        rc = main(["validate", str(plan_file), "--out", str(out), "--seed", "11"]
                  + VALIDATE_MC)
        assert rc == 0
        assert "validate:" in capsys.readouterr().out
        doc = json.loads((out / "mc_report.json").read_text(encoding="utf-8"))
        assert doc["config"]["mc"]["seed"] == 11
        assert doc["config"]["mc"]["n_topologies"] == 2 and doc["config"]["mc"]["n_fading"] == 400
        mc = doc["mc"]
        # the run's settings live in config.mc alone
        assert not {"n_topologies", "n_fading", "seed", "element_draws", "notes",
                    "min_ue_throughput"} & set(mc)
        assert set(mc["nop_by_region"]) == {"ap", "ring1", "ring2"}
        assert len(mc["nop_by_decile"]) == 10
        assert mc["max_sector_load"] <= 20
        d = doc["deltas"]
        assert d["energy_budget_ratio"] == pytest.approx(1.0, abs=0.2)
        assert abs(d["common_minus_analytical"]) < 0.2
        assert isinstance(d["analytical_within_interval"], bool)

    @pytest.mark.parametrize("draws", ["gaussian-surrogate", "exact"])
    def test_sidecar_says_where_the_time_went(self, tmp_path, plan_file, draws):
        out = tmp_path / "mc"
        assert main(["validate", str(plan_file), "--out", str(out)] + VALIDATE_MC
                    + ["--set", f"mc.element_draws={draws}", "--set", "mc.n_fading=10"]) == 0
        doc = json.loads((out / "mc_report.json").read_text(encoding="utf-8"))
        meta = json.loads((out / "mc_report.json.meta.json").read_text(encoding="utf-8"))
        mc = meta["mc"]
        assert set(mc) == {"topologies", "n_fading", "closed_form_ues", "counted_ues",
                           "workers", "mc_s"}
        assert (mc["topologies"], mc["n_fading"], mc["workers"]) == (2, 10, 1)
        assert mc["closed_form_ues"] + mc["counted_ues"] == 2 * doc["config"]["cell"]["K"]
        # the surrogate prices surface-served UEs in closed form; exact counts all
        assert (mc["closed_form_ues"] > 0) == (draws == "gaussian-surrogate")
        assert mc["mc_s"] > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_elements_validates_cleanly(self, tmp_path):
        # irs.N=0: the surrogate cascade has zero variance, and the closed
        # form must not divide by it; the planner still places rings
        plan_dir, out = tmp_path / "planner", tmp_path / "mc"
        no_elements = ["--set", "irs.N=0"]
        assert main(["plan", "--out", str(plan_dir), "--method", "line-search",
                     "--set", "plan.M=20"] + no_elements) == 0
        assert main(["validate", str(plan_dir / "plan.json"), "--out", str(out)]
                    + VALIDATE_MC + no_elements) == 0
        doc = json.loads((out / "mc_report.json").read_text(encoding="utf-8"))
        nop = doc["mc"]["nop_by_region"]
        assert len(nop) > 1 and all(0.0 < v <= 1.0 for v in nop.values())

    def test_report_is_strict_json(self, tmp_path, plan_file):
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out = tmp_path / "mc"
        assert main(["validate", str(plan_file), "--out", str(out)] + VALIDATE_MC) == 0
        doc = json.loads((out / "mc_report.json").read_text(encoding="utf-8"),
                         parse_constant=refuse)
        assert math.isfinite(doc["mc"]["common_half_width"])
        with pytest.raises(ValueError):  # the writer refuses what it cannot encode
            write_json(tmp_path / "bad.json", {"x": math.inf}, load_config())

    def test_one_topology_is_a_config_error(self, tmp_path, plan_file, capsys):
        # T = 1 once wrote Infinity half-widths and a 'met' verdict
        rc = main(["validate", str(plan_file), "--out", str(tmp_path / "mc")]
                  + VALIDATE_MC + ["--set", "mc.n_topologies=1"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config-error"
        assert "n_topologies" in err["error"]["detail"]
        assert not (tmp_path / "mc" / "mc_report.json").exists()

    def _forced_report(self, tmp_path, plan_file, monkeypatch, **changes):
        # a real run with some McEstimate fields overridden, for outcomes a
        # small run cannot reach
        import dataclasses
        import irsplan.cli
        run = irsplan.cli.validate_plan_mc

        def forced(*args):
            est = run(*args)
            return dataclasses.replace(est, **{k: f(est) for k, f in changes.items()})

        monkeypatch.setattr(irsplan.cli, "validate_plan_mc", forced)
        out = tmp_path / "forced"
        assert main(["validate", str(plan_file), "--out", str(out)] + VALIDATE_MC) == 0
        return json.loads((out / "mc_report.json").read_text(encoding="utf-8"))

    def test_verdict_met_conservative(self, tmp_path, plan_file, monkeypatch):
        doc = self._forced_report(
            tmp_path, plan_file, monkeypatch,
            nop_by_region=lambda est: {"ap": 0.95, "ring1": 0.99, "ring2": 0.98},
            nop_half_width_by_region=lambda est: dict.fromkeys(est.nop_by_region, 0.01))
        d = doc["deltas"]
        assert d["verdict"] == "met-conservative"
        assert d["irs_nop_slack"] == pytest.approx(0.98 - 0.01 - 0.95, abs=1e-12)
        assert d["throughput_slack"] >= 0.0

    def test_verdict_met(self, tmp_path, plan_file, monkeypatch):
        # one IRS region's interval reaches the target: met, without slack
        doc = self._forced_report(
            tmp_path, plan_file, monkeypatch,
            nop_by_region=lambda est: {"ap": 0.95, "ring1": 0.99, "ring2": 0.955},
            nop_half_width_by_region=lambda est: dict.fromkeys(est.nop_by_region, 0.01))
        d = doc["deltas"]
        assert d["verdict"] == "met"
        assert d["irs_nop_slack"] == pytest.approx(0.955 - 0.01 - 0.95, abs=1e-12)
        assert d["throughput_slack"] >= 0.0

    def test_verdict_violated(self, tmp_path, plan_file, monkeypatch):
        doc = self._forced_report(
            tmp_path, plan_file, monkeypatch,
            common_throughput=lambda est: est.analytical_nu_bar - 0.5,
            common_half_width=lambda est: 0.1)
        d = doc["deltas"]
        assert d["verdict"] == "violated"
        assert d["throughput_slack"] == pytest.approx(-0.4, abs=1e-12)

    def test_verdict_of_a_real_run(self, tmp_path, plan_file):
        out = tmp_path / "mc"
        assert main(["validate", str(plan_file), "--out", str(out), "--seed", "3"]
                    + VALIDATE_MC) == 0
        doc = json.loads((out / "mc_report.json").read_text(encoding="utf-8"))
        mc, d = doc["mc"], doc["deltas"]
        upper = mc["common_throughput"] + mc["common_half_width"]
        assert d["throughput_slack"] == pytest.approx(upper - mc["analytical_nu_bar"],
                                                      abs=1e-12)
        low = min(mc["nop_by_region"][k] - mc["nop_half_width_by_region"][k]
                  for k in ("ring1", "ring2"))
        assert d["irs_nop_slack"] == pytest.approx(low - 0.95, abs=1e-12)
        assert d["verdict"] == ("violated" if upper < mc["analytical_nu_bar"] else
                                "met-conservative" if low > 0.95 else "met")

    def test_violated_run_claims_no_conservative_fit(self, tmp_path):
        # at p_no = 0.6 the Gamma fit is optimistic: every IRS region falls
        # short of the target, and the report carries no fixed note about the fit
        low = ["--set", "outage.p_no_min=0.6"]
        assert main(["plan", "--out", str(tmp_path)] + low) == 0
        out = tmp_path / "mc"
        assert main(["validate", str(tmp_path / "plan.json"), "--out", str(out),
                     "--seed", "1", "--set", "mc.element_draws=gaussian-surrogate",
                     "--set", "mc.n_topologies=20", "--set", "mc.n_fading=2000"] + low) == 0
        doc = json.loads((out / "mc_report.json").read_text(encoding="utf-8"))
        assert doc["deltas"]["verdict"] == "violated"
        assert "notes" not in doc["mc"]
        assert all(v < 0.6 for k, v in doc["mc"]["nop_by_region"].items() if k != "ap")

    def test_oversized_fading_bank_is_refused(self, tmp_path, plan_file, capsys):
        out = tmp_path / "mc"
        rc = main(["validate", str(plan_file), "--out", str(out),
                   "--set", "mc.n_topologies=2", "--set", "mc.n_fading=100000000000"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "too-expensive"
        assert "2500048156600" in err["detail"] and "2147483648" in err["detail"]
        assert not (out / "mc_report.json").exists()

    def test_seed_flag_beats_set(self, tmp_path, plan_file):
        # --seed wins over --set mc.seed wherever either stands on the line
        out = tmp_path / "mc"
        assert main(["validate", str(plan_file), "--out", str(out), "--seed", "7",
                     "--set", "mc.seed=5"] + VALIDATE_MC) == 0
        doc = json.loads((out / "mc_report.json").read_text(encoding="utf-8"))
        assert doc["config"]["mc"]["seed"] == 7

    def test_rerun_is_byte_identical(self, tmp_path, plan_file):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["validate", str(plan_file), "--out", str(out),
                         "--seed", "5"] + VALIDATE_MC) == 0
        assert (a / "mc_report.json").read_bytes() == \
            (b / "mc_report.json").read_bytes()

    def test_slot_limit_is_structured(self, tmp_path, plan_file, capsys, monkeypatch):
        # a topology whose busiest sector outgrows the frame exits with code 2
        import irsplan.simulation
        run = irsplan.simulation._run_topology

        def overloaded(task):
            successes, n_ue, load, *rest = run(task)
            return (successes, n_ue, 21, *rest)

        monkeypatch.setattr(irsplan.simulation, "_run_topology", overloaded)
        rc = main(["validate", str(plan_file), "--out", str(tmp_path / "mc")]
                  + VALIDATE_MC)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "slot-limit"
        assert err["error"]["max_load"] == 21 and err["error"]["n_t"] == 20

    @pytest.mark.parametrize("seed_args", [["--seed", "-1"],
                                           ["--set", f"mc.seed={2 ** 64}"]],
                             ids=["negative", "past-64-bits"])
    def test_seed_outside_philox_key_rejected(self, tmp_path, plan_file, capsys,
                                              seed_args):
        # both once crashed with an OverflowError building the Philox key
        rc = main(["validate", str(plan_file), "--out", str(tmp_path / "mc")]
                  + VALIDATE_MC + seed_args)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config-error"
        assert "seed" in err["error"]["detail"]

    def test_missing_plan_file(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)] + VALIDATE_MC)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "plan-file-error"

    def test_real_plan_file_round_trips(self, plan_file):
        # the derived fields are what the writer makes of the rebuilt result
        doc = json.loads(plan_file.read_text(encoding="utf-8"))
        rebuilt = _plan_payload(_load_plan_file(plan_file, load_config()))
        for key in ("allocation", "nu_bar_bps_hz", "plan"):
            assert rebuilt[key] == doc[key]

    def test_contradictions_name_the_keys(self, tmp_path, plan_file, capsys):
        doc = json.loads(plan_file.read_text(encoding="utf-8"))
        doc["allocation"]["R_bar_bps_hz"] += 1.0
        doc["nu_bar_bps_hz"] += 1.0
        bad = tmp_path / "derived.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["validate", str(bad), "--out", str(tmp_path / "mc")] + VALIDATE_MC)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "plan-file-error"
        assert err["contradictions"] == ["allocation", "nu_bar_bps_hz"]

    def test_config_mismatch_detected(self, tmp_path, plan_file, capsys):
        rc = main(["validate", str(plan_file), "--out", str(tmp_path),
                   "--set", "irs.N=1000"] + VALIDATE_MC)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "plan-config-mismatch"
        assert err["error"]["sections"] == ["irs"]

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc.update(config=[]),
        lambda doc: doc["allocation"].update(p_no=1.5),
        lambda doc: doc["plan"]["R_in_m"].__setitem__(1, math.nan),
        lambda doc: doc["allocation"].update(eta0_star=math.nan),
        lambda doc: doc["allocation"].update(R_bar_bps_hz=99.0),
        lambda doc: doc["allocation"].update(nu_bar_bps_hz=1.0),
        lambda doc: doc["allocation"].update(p_no=0.5),
        lambda doc: doc.update(nu_bar_bps_hz=99.0),
        lambda doc: doc["plan"]["M"].__setitem__(1, doc["plan"]["M"][1] + 0.5),
        lambda doc: doc["plan"]["M"].__setitem__(1, str(doc["plan"]["M"][1])),
        lambda doc: doc["plan"]["M"].__setitem__(0, True),
        lambda doc: doc["plan"]["R_in_m"].__setitem__(1, str(doc["plan"]["R_in_m"][1])),
        lambda doc: doc["plan"]["L_m"].__setitem__(0, str(doc["plan"]["L_m"][0])),
        lambda doc: doc["plan"]["rho"].__setitem__(0, str(doc["plan"]["rho"][0])),
    ], ids=["config-not-mapping", "p_no-out-of-range", "nan-radius", "nan-threshold",
            "rate-off-threshold", "throughput-off-rate", "p_no-off-target",
            "top-level-throughput-off-allocation", "fractional-M", "string-M", "bool-M",
            "string-radius", "string-circle", "string-power-ratio"])
    def test_malformed_plan_values_rejected(self, tmp_path, plan_file, capsys, mutate):
        doc = json.loads(plan_file.read_text(encoding="utf-8"))
        mutate(doc)
        bad = tmp_path / "mutated.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["validate", str(bad), "--out", str(tmp_path / "mc")] + VALIDATE_MC)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "plan-file-error"

    def test_tampered_plan_rejected(self, tmp_path, plan_file, capsys):
        doc = json.loads(plan_file.read_text(encoding="utf-8"))
        doc["plan"]["M"][0] = 99  # blows both the budget and the slot limit
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["validate", str(bad), "--out", str(tmp_path)] + VALIDATE_MC)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "plan-file-error"
        assert "near-ap-slots" in err["error"]["violations"]

    @pytest.mark.parametrize("mutate,code", [
        (lambda rho: rho.append(0.0), "power-length"),
        (lambda rho: rho.__setitem__(slice(0, 2), [rho[0] + rho[1] + 0.1, -0.1]),
         "power-sign"),
        (lambda rho: rho.__setitem__(0, rho[0] + 0.1), "power-sum"),
        (lambda rho: rho.__setitem__(1, math.nan), "non-finite"),
    ], ids=["length", "negative", "sum", "nan"])
    def test_bad_power_split_rejected(self, tmp_path, plan_file, capsys, mutate, code):
        doc = json.loads(plan_file.read_text(encoding="utf-8"))
        mutate(doc["plan"]["rho"])
        bad = tmp_path / "split.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["validate", str(bad), "--out", str(tmp_path)] + VALIDATE_MC)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "plan-file-error"
        assert err["error"]["violations"] == [code]
