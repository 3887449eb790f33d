"""Config resolution and CLI artifact contracts (run against tmp dirs)."""

import json
import math

import pytest

from irsplan.cli import main
from irsplan.config import (ConfigError, ExperimentConfig, load_config,
                            parse_unit_scalar)


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
        cfg = load_config(seed=42)
        assert cfg.mc.seed == 42

    def test_full_scale_flag_is_gone(self, tmp_path):
        # 1000 x 1e6 draws never finishes; --set mc.n_topologies/n_fading remain
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(tmp_path / "plan.json"), "--full-scale",
                  "--out", str(tmp_path)])
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

    def test_method_flag_overrides_config(self, tmp_path):
        rc = main(["plan", "--out", str(tmp_path), "--method", "algorithm1",
                   "--set", "plan.M=15", "--set", "plan.method=line-search"])
        assert rc == 0
        doc = json.loads((tmp_path / "plan.json").read_text(encoding="utf-8"))
        assert doc["method"] == "algorithm1"

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
            PlanViolation("sector-load", "ring 2 over the cap", 0.5)])
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
        mc = doc["mc"]
        assert mc["n_topologies"] == 2 and mc["n_fading"] == 400
        assert set(mc["nop_by_region"]) == {"ap", "ring1", "ring2"}
        assert len(mc["nop_by_decile"]) == 10
        assert mc["max_sector_load"] <= 20
        d = doc["deltas"]
        assert d["energy_budget_ratio"] == pytest.approx(1.0, abs=0.2)
        assert abs(d["common_minus_analytical"]) < 0.2
        assert isinstance(d["analytical_within_interval"], bool)

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
            successes, n_ue, min_count, load, *rest = run(task)
            return (successes, n_ue, min_count, 21, *rest)

        monkeypatch.setattr(irsplan.simulation, "_run_topology", overloaded)
        rc = main(["validate", str(plan_file), "--out", str(tmp_path / "mc")]
                  + VALIDATE_MC)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "slot-limit"
        assert err["error"]["max_load"] == 21 and err["error"]["n_t"] == 20

    def test_missing_plan_file(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)] + VALIDATE_MC)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "plan-file-error"

    def test_config_mismatch_detected(self, tmp_path, plan_file, capsys):
        rc = main(["validate", str(plan_file), "--out", str(tmp_path),
                   "--set", "irs.N=1000"] + VALIDATE_MC)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "plan-config-mismatch"
        assert err["error"]["sections"] == ["irs"]

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
