"""Child process of the benchmark: the set-up probe and traced CLI runs.

    python perfbench/child.py probe [CLI ARGS...]
        Import irsplan and build the p=0.95 tail-quantile table, print
        "ready", then run the CLI on CLI ARGS when any are given.
    python perfbench/child.py trace SPANS.json [CLI ARGS...]
        Wrap irsplan's public functions wherever they are bound, run
        irsplan.cli.main(CLI ARGS) (the probe's work when CLI ARGS is
        empty), and write the spans to SPANS.json.

Both expect PYTHONPATH to hold the checkout's src/ directory.
"""

import functools
import json
import sys
import time

P_NO = 0.95


class Tracer:
    """Spans kept in memory as [name, parent, start, end, points...]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []        # wrapped names this program does not have
        self.ring_vec_hits = 0

    def span(self, name, fn, points=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if points is not None:
                rec.extend(points(args, out))
            return out

        return wrapper


def _rebind(original, wrapper):
    """Replace `original` by `wrapper` in every irsplan module that binds it."""
    for name, mod in list(sys.modules.items()):
        if name == "irsplan" or name.startswith("irsplan."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer):
    """Wrap the public functions the per-layer metrics are taken from."""
    import irsplan.cli  # noqa: F401  (binds every module the CLI uses)
    from irsplan import channel, geometry, numerics, planner, powerctl, simulation
    import irsplan._kernels as kernels

    import numpy as np

    def size(i):
        return lambda a, out: (int(np.size(a[i])),)

    functions = [
        (numerics, "reg_upper_gamma", "numerics.reg_upper_gamma",
         lambda a, out: (int(np.size(out)),)),
        (numerics, "inv_reg_upper_gamma", "numerics.inv_reg_upper_gamma", None),
        (numerics, "integrate_polar_sector", "numerics.integrate_polar_sector", None),
        (channel, "composite_stats_arrays", "channel.composite_stats",
         lambda a, out: (int(np.size(out[0])),)),
        (geometry, "locate_ue_arrays", "geometry.locate_ue_arrays", size(2)),
        (powerctl, "irs_region_coefficient", "powerctl.irs_region_coefficient", None),
        (powerctl, "benchmark_irs_equal_power", "powerctl.policy_benchmarks", None),
        (powerctl, "benchmark_irs_mean_cipc", "powerctl.policy_benchmarks", None),
        (planner, "line_search", "planner.line_search", None),
        (planner, "coverage_range", "planner.coverage_range", None),
        (simulation, "sample_topology", "simulation.sample_topology", None),
        (simulation, "simulate_ue_successes", "simulation.simulate_ue_successes",
         lambda a, out: (int(a[2].K), int(a[2].K) * int(a[4].n_fading))),
        (kernels, "exact_tail_stats", "kernels.exact_tail_stats",
         lambda a, out: (int(a[1]) * (2 * int(a[2]) + 1),)),
    ]
    for mod, attr, name, points in functions:
        original = getattr(mod, attr, None)
        if original is None:
            tracer.missing.append(f"{mod.__name__}.{attr}")
            continue
        _rebind(original, tracer.span(name, original, points))

    tq = getattr(numerics, "TailQuantile", None)
    if tq is None:
        tracer.missing.append("irsplan.numerics.TailQuantile")
    else:
        tq.__init__ = tracer.span("numerics.tail_quantile_build", tq.__init__)
        tq.__call__ = tracer.span("numerics.tail_quantile_eval", tq.__call__, size(1))

    table = getattr(planner, "_RingCoefficientTable", None)
    if table is None:
        tracer.missing.append("irsplan.planner._RingCoefficientTable.ring_vec")
        return
    fill = tracer.span("planner.ring_vec", table.ring_vec)

    def ring_vec(self, hi_idx, m, near_ap):
        got = self._cache.get((int(hi_idx), int(m), bool(near_ap)))
        if got is not None:
            tracer.ring_vec_hits += 1  # a cache hit is a dict lookup: counted, no span
            return got
        return fill(self, hi_idx, m, near_ap)

    table.ring_vec = ring_vec


def probe():
    import irsplan
    irsplan.get_tail_quantile(P_NO)
    return irsplan.KERNEL_BACKEND


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        print("ready", probe(), flush=True)
        if rest:
            from irsplan.cli import main as cli_main
            return cli_main(rest)
        return 0
    if mode != "trace":
        raise SystemExit(f"child.py: unknown mode {mode!r}")
    spans_path, cli_args = rest[0], rest[1:]
    start = time.perf_counter()
    import irsplan.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    if cli_args:
        code = irsplan.cli.main(cli_args)
    else:
        probe()
        code = 0
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "backend": irsplan.KERNEL_BACKEND,
                   "spans": tracer.spans,
                   "ring_vec_hits": tracer.ring_vec_hits,
                   "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
