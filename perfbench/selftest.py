"""Self-test of the output checks: each must pass the program's genuine
artifact and fail a deliberately perturbed copy of it.

    python3 perfbench/selftest.py

Run from the root of an irsplan checkout (about 30 s: one cold `plan` and
one small surrogate `validate`).  Exits 0 when every check behaves.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run


def cli(args, env):
    subprocess.run([sys.executable, "-m", "irsplan.cli"] + args, cwd=run.ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def main():
    env = run.child_env()
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_work"))
    try:
        cli(["plan"] + run.PLAN_LINE_SEARCH + ["--out", str(work)], env)
        cli(["validate", str(work / "plan.json"), "--seed", "1", "--out", str(work),
             "--set", "mc.element_draws=gaussian-surrogate",
             "--set", "mc.n_topologies=20", "--set", "mc.n_fading=2000"], env)
        plan_text = (work / "plan.json").read_text(encoding="utf-8")
        report_text = (work / "mc_report.json").read_text(encoding="utf-8")

        def plan_check(text):
            return checks.check_plan(text, "line-search", checks.REFERENCE_PLAN_M100)

        def report_check(text):
            return checks.check_mc_report(text, plan_text)

        def perturbed(text, edit):
            doc = json.loads(text)
            edit(doc)
            return json.dumps(doc)

        def m1_is_11(doc):
            doc["plan"]["M"][0] = 11   # one surface moved from ring 2:
            doc["plan"]["M"][1] -= 1   # the budget still sums to M

        def nu_bar_7th_digit(doc):
            doc["nu_bar_bps_hz"] += 1e-6   # 4.617618... -> 4.617619...

        def ap_nop_5_half_widths(doc):
            mc = doc["mc"]
            mc["nop_by_region"]["ap"] += 5.0 * mc["nop_half_width_by_region"]["ap"]

        cases = [
            ("genuine plan.json", plan_check, plan_text, False),
            ("plan.json with M_1 = 11", plan_check, perturbed(plan_text, m1_is_11), True),
            ("plan.json with nu_bar changed in the 7th digit", plan_check,
             perturbed(plan_text, nu_bar_7th_digit), True),
            ("genuine mc_report.json", report_check, report_text, False),
            ("mc_report.json with the AP NOP moved by 5 half-widths", report_check,
             perturbed(report_text, ap_nop_5_half_widths), True),
        ]
        ok = True
        for label, check, text, must_fail in cases:
            fails = check(text)
            good = bool(fails) == must_fail
            ok = ok and good
            verdict = "rejected" if fails else "accepted"
            print(f"{'ok  ' if good else 'BAD '} {label}: {verdict}"
                  + (f" ({fails[0]})" if fails else ""))
        return 0 if ok else 1
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
