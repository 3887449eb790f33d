"""Cold-process benchmark of the irsplan command line.

    python3 perfbench/run.py --workload {plan-cold,sweep,certify}
                             --seed N --seconds S --trace {0,1}

Run from the root of an irsplan checkout; the package is used from src/
without being installed.  Every timed command is a fresh process, as a user
runs it.  With --trace 0 a run repeats rounds of its workload until S
seconds have passed (at least one round), checks every artifact against
computations made apart from irsplan (perfbench/checks.py) and reports the
end-to-end metrics.  With --trace 1 it runs each command once untraced and
once traced (perfbench/child.py), checks that both wrote byte-identical
artifacts, and reports the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("plan-cold", "sweep", "certify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PLAN_LINE_SEARCH = ["--method", "line-search", "--set", "plan.M=100",
                    "--set", "plan.I=3", "--set", "grid.radius_step=5.0"]
PLAN_ALGORITHM1 = ["--method", "algorithm1", "--set", "plan.M=100",
                   "--set", "plan.I_max=10"]
SWEEP_BUDGETS = "sweep.M_values=[10,20,30,40,50,60,70,80,90,100]"
VALIDATE_SURROGATE = ["--set", "mc.element_draws=gaussian-surrogate",
                      "--set", "mc.n_topologies=100", "--set", "mc.n_fading=2000",
                      "--set", "mc.n_workers=1"]
# Exact element draws cost (2N+1) exponentials per draw; at the default
# 100 x 1e4 that is 6-8 h on one core, so certify draws at reduced scale.
VALIDATE_EXACT = ["--set", "mc.element_draws=exact",
                  "--set", "mc.n_topologies=10", "--set", "mc.n_fading=10",
                  "--set", "mc.n_workers=1"]

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "numerics.tail_quantile_build_s": "s",
    "numerics.tail_quantile_builds": "count",
    "numerics.inv_reg_upper_gamma_calls": "count",
    "numerics.reg_upper_gamma_calls": "count",
    "numerics.reg_upper_gamma_points": "count",
    "numerics.reg_upper_gamma_s": "s",
    "numerics.tail_quantile_eval_points": "count",
    "numerics.tail_quantile_eval_s": "s",
    "numerics.integrate_polar_sector_calls": "count",
    "numerics.integrate_polar_sector_s": "s",
    "channel.composite_stats_points": "count",
    "channel.composite_stats_s": "s",
    "geometry.locate_ue_arrays_points": "count",
    "geometry.locate_ue_arrays_s": "s",
    "powerctl.irs_region_coefficient_calls": "count",
    "powerctl.irs_region_coefficient_s": "s",
    "powerctl.policy_benchmarks_s": "s",
    "planner.line_search_self_s": "s",
    "planner.ring_vec_calls": "count",
    "planner.ring_vec_fills": "count",
    "planner.ring_vec_hit_ratio": "ratio",
    "planner.ring_vec_s": "s",
    "planner.coverage_range_calls": "count",
    "planner.coverage_range_s": "s",
    "simulation.topologies": "count",
    "simulation.sample_topology_s": "s",
    "simulation.ue_streams": "count",
    "simulation.fading_draws": "count",
    "simulation.simulate_ue_successes_s": "s",
    "kernels.exact_tail_stats_calls": "count",
    "kernels.exact_tail_stats_s": "s",
    "kernels.exponentials": "count",
    "kernels.exponentials_per_s": "1/s",
    "trace.overhead_s": "s",
}


@dataclass
class Command:
    """One timed CLI command of a workload, with its artifacts and checks."""

    name: str          # the command's own timing, e.g. "sweep_s"
    args: list         # CLI arguments without --out
    artifacts: list    # files compared byte for byte on repeats
    check: object      # out_dir -> list of failure messages


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _plan_check(method, reference=None):
    return lambda out: checks.check_plan(_read(out / "plan.json"), method, reference)


def workload_commands(name, seed, plan_file):
    """The timed commands of a workload, in the order a round runs them."""
    if name == "plan-cold":
        return [
            Command("coverage_s", ["coverage"], ["coverage.csv"],
                    lambda out: checks.check_coverage(_read(out / "coverage.csv"))),
            Command("plan_line_search_s", ["plan"] + PLAN_LINE_SEARCH,
                    ["plan.json", "plan_rings.csv"],
                    _plan_check("line-search", checks.REFERENCE_PLAN_M100)),
            Command("plan_algorithm1_s", ["plan"] + PLAN_ALGORITHM1,
                    ["plan.json", "plan_rings.csv"], _plan_check("algorithm1")),
        ]
    if name == "sweep":
        return [Command("sweep_s", ["sweep", "--set", SWEEP_BUDGETS], ["sweep.csv"],
                        lambda out: checks.check_sweep(_read(out / "sweep.csv")))]
    plan_text = _read(plan_file)

    def report_check(out):
        return checks.check_mc_report(_read(out / "mc_report.json"), plan_text)

    mc_seed = str(seed % 2 ** 32)
    return [
        Command("validate_surrogate_s", ["validate", str(plan_file), "--seed", mc_seed]
                + VALIDATE_SURROGATE, ["mc_report.json"], report_check),
        Command("validate_exact_s", ["validate", str(plan_file), "--seed", mc_seed]
                + VALIDATE_EXACT, ["mc_report.json"], report_check),
    ]


class Bench:
    """Spawns the cold processes of one run and keeps its accounting."""

    def __init__(self, work, env):
        self.work = work
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems = []      # wrong outputs: these make the run incorrect
        self.peak_rss_kb = 0
        self.backend = None
        self._n = 0

    def spawn(self, argv, ready=False):
        """Run argv to its end; (exit code, wall s, seconds to 'ready').

        With ready=True the child prints "ready <kernel backend>" once set
        up; the time to that line is returned as the third value.
        """
        self._n += 1
        log = self.work / f"proc{self._n:03d}.log"
        ready_s = None
        with open(log, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stderr=err,
                                    stdout=subprocess.PIPE if ready else err, text=True)
            try:
                if ready:
                    line = proc.stdout.readline()
                    words = line.split()
                    if words[:1] == ["ready"] and len(words) == 2:
                        ready_s = time.perf_counter() - start
                        self.backend = words[1]
                    err.write(line + proc.stdout.read())
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-600:]
            print(f"# process failed (exit {proc.returncode}): {' '.join(argv[1:])}\n{tail}",
                  file=sys.stderr)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, wall, ready_s

    def operation(self, command, out, argv=None, reference=None):
        """One timed cold command; its wall time, or None if it failed.

        A non-zero exit, an artifact that fails its check, or an artifact
        that differs from the reference repetition's fails the operation.
        """
        self.attempted += 1
        if argv is None:
            argv = [sys.executable, "-m", "irsplan.cli"] + command.args + ["--out", str(out)]
        code, wall, _ = self.spawn(argv)
        problems = []
        if code == 0:
            try:
                problems = command.check(out)
                for name in command.artifacts if reference is not None else []:
                    if (out / name).read_bytes() != (reference / name).read_bytes():
                        problems.append(f"{name} differs between two runs of the same command")
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"artifact missing or malformed: {exc!r}")
        if code != 0 or problems:
            self.failed += 1
            self.problems += [f"{command.name}: {p}" for p in problems]
            return None
        return wall


def setup_probe(bench, then_args=None):
    """Fresh process: import irsplan and build the tail-quantile table.

    With then_args the process goes on to run the CLI on them.
    """
    argv = [sys.executable, str(HERE / "child.py"), "probe"] + (then_args or [])
    code, _, ready_s = bench.spawn(argv, ready=True)
    return ready_s if code == 0 else None


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def machine_facts(env, backend):
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "kernel_backend": backend,
            "thread_caps": {var: env[var] for var in THREAD_VARS}}


def run_timed(bench, commands, seconds, setups):
    """Rounds of set-up probe + commands until `seconds` have passed.

    `setups` holds set-up times already measured; the first round then
    reuses the first of them instead of probing again.
    """
    walls = []
    per_command = {c.name: [] for c in commands}
    first = {}
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        rnd += 1
        if rnd > 1 or not setups:
            bench.attempted += 1
            ready_s = setup_probe(bench)
            if ready_s is None:
                bench.failed += 1
            else:
                setups.append(ready_s)
        round_ok, wall = True, 0.0
        for command in commands:
            out = bench.work / f"r{rnd}-{command.name}"
            got = bench.operation(command, out, reference=first.get(command.name))
            if got is None:
                round_ok = False
                continue
            first.setdefault(command.name, out)
            per_command[command.name].append(got)
            wall += got
        if round_ok:
            walls.append(wall)
    for name, values in per_command.items():
        if values:
            print(f"# {name} = {statistics.median(values):.3f} s "
                  f"(median of {len(values)})")
    if not (setups and walls):
        return None
    return {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
            "peak_rss_mb": bench.peak_rss_kb / 1024.0}


def aggregate_trace(path):
    """Per-layer metrics of one traced process, from its span file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    # a layer's time leaves out a table build it happens to trigger: that
    # one-off cost is numerics.tail_quantile_build_s wherever it falls
    build_inside = [0.0] * len(spans)
    for name, parent, start, end, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
        if name == "numerics.tail_quantile_build":
            while parent >= 0:
                build_inside[parent] += end - start
                parent = spans[parent][1]
    total = {}
    for i, (name, parent, start, end, *points) in enumerate(spans):
        acc = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "points": [0, 0]})
        acc["calls"] += 1
        acc["s"] += end - start - build_inside[i]
        acc["self_s"] += end - start - child_time[i]
        for k, p in enumerate(points):
            acc["points"][k] += p

    def get(name, field, k=0):
        acc = total.get(name)
        if acc is None:
            return 0
        return acc["points"][k] if field == "points" else acc[field]

    fills = get("planner.ring_vec", "calls")
    calls = fills + doc["ring_vec_hits"]
    return {
        "cli.import_s": doc["import_s"],
        "numerics.tail_quantile_build_s": get("numerics.tail_quantile_build", "s"),
        "numerics.tail_quantile_builds": get("numerics.tail_quantile_build", "calls"),
        "numerics.inv_reg_upper_gamma_calls": get("numerics.inv_reg_upper_gamma", "calls"),
        "numerics.reg_upper_gamma_calls": get("numerics.reg_upper_gamma", "calls"),
        "numerics.reg_upper_gamma_points": get("numerics.reg_upper_gamma", "points"),
        "numerics.reg_upper_gamma_s": get("numerics.reg_upper_gamma", "s"),
        "numerics.tail_quantile_eval_points": get("numerics.tail_quantile_eval", "points"),
        "numerics.tail_quantile_eval_s": get("numerics.tail_quantile_eval", "s"),
        "numerics.integrate_polar_sector_calls": get("numerics.integrate_polar_sector", "calls"),
        "numerics.integrate_polar_sector_s": get("numerics.integrate_polar_sector", "s"),
        "channel.composite_stats_points": get("channel.composite_stats", "points"),
        "channel.composite_stats_s": get("channel.composite_stats", "s"),
        "geometry.locate_ue_arrays_points": get("geometry.locate_ue_arrays", "points"),
        "geometry.locate_ue_arrays_s": get("geometry.locate_ue_arrays", "s"),
        "powerctl.irs_region_coefficient_calls": get("powerctl.irs_region_coefficient", "calls"),
        "powerctl.irs_region_coefficient_s": get("powerctl.irs_region_coefficient", "s"),
        "powerctl.policy_benchmarks_s": get("powerctl.policy_benchmarks", "s"),
        "planner.line_search_self_s": get("planner.line_search", "self_s"),
        "planner.ring_vec_calls": calls,
        "planner.ring_vec_fills": fills,
        "planner.ring_vec_s": get("planner.ring_vec", "s"),
        "planner.coverage_range_calls": get("planner.coverage_range", "calls"),
        "planner.coverage_range_s": get("planner.coverage_range", "s"),
        "simulation.topologies": get("simulation.sample_topology", "calls"),
        "simulation.sample_topology_s": get("simulation.sample_topology", "s"),
        "simulation.ue_streams": get("simulation.simulate_ue_successes", "points", 0),
        "simulation.fading_draws": get("simulation.simulate_ue_successes", "points", 1),
        "simulation.simulate_ue_successes_s": get("simulation.simulate_ue_successes", "s"),
        "kernels.exact_tail_stats_calls": get("kernels.exact_tail_stats", "calls"),
        "kernels.exact_tail_stats_s": get("kernels.exact_tail_stats", "s"),
        "kernels.exponentials": get("kernels.exact_tail_stats", "points"),
    }, doc["missing"], doc["backend"]


def layer_problems(workload, command, layers):
    """The layer separation the workloads are designed for, per process."""
    problems = []
    if layers["numerics.tail_quantile_builds"] > (0 if command == "coverage_s" else 1):
        problems.append(f"{command}: {layers['numerics.tail_quantile_builds']} "
                        "tail-quantile builds in one process")
    if command != "validate_exact_s" and layers["kernels.exact_tail_stats_calls"]:
        problems.append(f"{command}: fading kernel called")
    if workload != "sweep" and layers["powerctl.policy_benchmarks_s"]:
        problems.append(f"{command}: policy benchmarks ran")
    return problems


def run_traced(bench, workload, commands):
    """Each command untraced, then traced; per-layer metrics summed."""
    probe = Command("setup_probe", [], [], lambda out: [])
    runs = ([probe] if workload == "plan-cold" else []) + commands
    per_process, imports, overhead = [], [], 0.0
    for command in runs:
        spans = bench.work / f"trace-{command.name}.json"
        traced = bench.work / f"traced-{command.name}"
        if command is probe:
            reference = None
        else:
            reference = bench.work / f"untraced-{command.name}"
            untraced = bench.operation(command, reference)
            if untraced is None:
                continue
        argv = [sys.executable, str(HERE / "child.py"), "trace", str(spans)]
        if command.args:
            argv += command.args + ["--out", str(traced)]
        got = bench.operation(command, traced, argv=argv, reference=reference)
        if got is None:
            continue
        if reference is not None:
            overhead += got - untraced
        layers, missing, bench.backend = aggregate_trace(spans)
        for name in missing:
            print(f"# not traced (absent in this program): {name}")
        bench.problems += layer_problems(workload, command.name, layers)
        imports.append(layers.pop("cli.import_s"))
        per_process.append(layers)
    if not per_process:
        return None
    metrics = {name: sum(p[name] for p in per_process) for name in per_process[0]}
    metrics["cli.import_s"] = statistics.median(imports)
    calls = metrics["planner.ring_vec_calls"]
    metrics["planner.ring_vec_hit_ratio"] = (
        (calls - metrics["planner.ring_vec_fills"]) / calls if calls else 0.0)
    kernel_s = metrics["kernels.exact_tail_stats_s"]
    metrics["kernels.exponentials_per_s"] = (
        metrics["kernels.exponentials"] / kernel_s if kernel_s else 0.0)
    metrics["trace.overhead_s"] = overhead
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "irsplan" / "cli.py").is_file():
        print(f"run.py: no irsplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    env = child_env()
    bench = Bench(work, env)
    plan_file, setups = None, []
    if args.workload == "certify":
        # set-up: the plan to certify, made by the program under test in the
        # set-up probe's process once its set-up time has been taken
        setup_dir = work / "setup-plan"
        ready_s = setup_probe(bench, ["plan"] + PLAN_LINE_SEARCH + ["--out", str(setup_dir)])
        if ready_s is None:
            print("run.py: set-up failed to make plan.json", file=sys.stderr)
            return 1
        bench.attempted += 1
        setups.append(ready_s)
        plan_file = setup_dir / "plan.json"
        fails = checks.check_plan(_read(plan_file), "line-search", checks.REFERENCE_PLAN_M100)
        if fails:
            print(f"run.py: set-up plan.json fails its checks: {fails}", file=sys.stderr)
            return 1
    commands = workload_commands(args.workload, args.seed, plan_file)
    if args.trace:
        metrics, units = run_traced(bench, args.workload, commands), PER_LAYER
    else:
        metrics, units = run_timed(bench, commands, args.seconds, setups), END_TO_END
    print("# machine " + json.dumps(machine_facts(env, bench.backend), sort_keys=True))
    print(f"# operations: attempted={bench.attempted} failed={bench.failed}")
    for problem in bench.problems:
        print(f"# WRONG OUTPUT: {problem}")
    if metrics is None:
        print(f"run.py: no operation succeeded; logs kept in {work}", file=sys.stderr)
        return 1
    if bench.failed or bench.problems:
        print(f"# logs kept in {work}")
    else:
        shutil.rmtree(work)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
