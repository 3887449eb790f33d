"""Every imported name in src/ and tests/ is used; every src/ parameter is read;
every private module-level name in src/ is referenced somewhere in src/; every
exception class in src/ derives from ``numerics.Refused``, so ``cli.main``
needs one refusal handler (exit code 2) beside its crash handler; the
policy benchmarks of ``powerctl`` reach ``reg_upper_gamma`` from one function;
no module but ``numerics`` calls its adaptive integrators; ``irs_power_factor``
is called from the one ring coefficient and the required power alone; no
module imports another's private names beyond a pinned set; and the only
process-wide caches (``lru_cache`` decorators) in src/ are a pinned pair.

No cold command imports ``scipy``: the incomplete gamma and the Student-t
quantile are numpy code in ``numerics``, and a ``scipy.special`` import alone
took about a third of a second.  The cold ``plan``, ``sweep`` and
``validate`` runs are checked twice: nothing named ``scipy`` ends up in
``sys.modules``, and they still succeed when ``import scipy`` raises.

No linter runs with the tests, so these stdlib-``ast`` scans are the guard
against dead imports and dead parameters.  A name counts as used when it
appears anywhere in the module as an identifier or is listed in the module's
``__all__``.  A parameter counts as read when its name is loaded anywhere in
its function's body (nested functions included); ``self`` and ``cls`` are
exempt.  A private name (one leading underscore) defined at module level
counts as referenced when some src/ module loads it, imports it or reads it
as an attribute.
"""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imported(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in _imported(tree) if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    unused = [u for f in files for u in unused_imports(f)]
    assert not unused, "imported and never used:\n" + "\n".join(unused)


def test_scan_flags_an_unused_name():
    tree = ast.parse("import os\nfrom math import pi, tau as t\n"
                     "__all__ = ['pi']\nprint(os.sep)\n")
    assert [n for n, _ in _imported(tree) if n not in _used(tree)] == ["t"]


def _unread_parameters(tree):
    """(function, parameter, line) for every parameter its body never loads."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        a = fn.args
        for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
            if arg is not None and arg.arg not in read and arg.arg not in ("self", "cls"):
                yield getattr(fn, "name", "<lambda>"), arg.arg, fn.lineno


def test_no_unread_parameters():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    unread = [f"{f.relative_to(ROOT)}:{line} {name}({arg})" for f in files
              for name, arg, line in _unread_parameters(
                  ast.parse(f.read_text(encoding="utf-8"), filename=str(f)))]
    assert not unread, "parameters never read:\n" + "\n".join(unread)


def test_scan_flags_an_unread_parameter():
    tree = ast.parse("def f(a, b, *args, c=1, **kw):\n"
                     "    def g(d):\n        return a + d\n"
                     "    b = 2\n    return g(kw)\n"
                     "class K:\n    def m(self, x):\n        return (lambda y, z: z)(x, 0)\n")
    assert sorted((n, p) for n, p, _ in _unread_parameters(tree)) == [
        ("<lambda>", "y"), ("f", "args"), ("f", "b"), ("f", "c")]


def _private_definitions(tree):
    """(name, line) for every module-level ``_name`` a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _references(tree):
    """Names a module loads, imports or reads as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def dead_private_names(trees):
    """'label:line name' for each private module-level name nothing references."""
    referenced = {name for tree in trees.values() for name in _references(tree)}
    return [f"{label}:{line} {name}" for label, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in referenced]


def test_no_dead_private_names():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    dead = dead_private_names({str(f.relative_to(ROOT)): ast.parse(
        f.read_text(encoding="utf-8"), filename=str(f)) for f in files})
    assert not dead, "private names nothing in src/ references:\n" + "\n".join(dead)


def test_scan_flags_a_dead_private_name():
    a = ast.parse("_LIMIT = 3\n_orphan, _pair = 1, 2\n__version__ = '1'\n"
                  "def _helper():\n    return _LIMIT\n"
                  "def _dead(n):\n    return n\n"
                  "class _Unused:\n    pass\n")
    b = ast.parse("from a import _helper\nimport a\nprint(_helper(), a._pair)\n")
    assert dead_private_names({"a": a, "b": b}) == [
        "a:2 _orphan", "a:6 _dead", "a:8 _Unused"]


def exceptions_outside(base, trees):
    """Sorted names of the exception classes in `trees` that do not derive from
    `base`; a class is an exception when its bases lead to a built-in one."""
    bases = {node.name: [ast.unparse(b).split(".")[-1] for b in node.bases]
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def derives(name, root):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return root == "BaseException"
        return name == root or any(derives(b, root) for b in bases.get(name, ()) if b != name)

    return sorted(n for n in bases if derives(n, "BaseException") and not derives(n, base))


def test_every_exception_is_a_refusal():
    trees = [ast.parse(f.read_text(encoding="utf-8"), filename=str(f))
             for f in sorted((ROOT / "src").rglob("*.py"))]
    assert trees
    outside = exceptions_outside("Refused", trees)
    assert not outside, "exceptions cli.main would report as crashes: " + ", ".join(outside)


def test_scan_flags_an_exception_outside_the_base():
    tree = ast.parse("class Refused(Exception):\n    pass\n"
                     "class A(Refused):\n    pass\nclass B(A, ValueError):\n    pass\n"
                     "class C(RuntimeError):\n    pass\nclass D(C):\n    pass\n"
                     "class E:\n    pass\nclass F(mod.E):\n    pass\n")
    assert exceptions_outside("Refused", [tree]) == ["C", "D"]


def test_cli_main_has_one_refusal_handler():
    tree = ast.parse((ROOT / "src" / "irsplan" / "cli.py").read_text(encoding="utf-8"))
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [ast.unparse(h.type) for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)]
    assert handlers == ["Refused", "Exception"]


def callers(name, tree):
    """Sorted module-level functions of `tree` whose bodies (nested functions
    included) call `name`."""
    return sorted(fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                          and n.func.id == name for n in ast.walk(fn)))


def test_policy_benchmarks_share_one_forward_nop():
    # a tail-model option must reach every policy through one place
    tree = ast.parse((ROOT / "src" / "irsplan" / "powerctl.py").read_text(encoding="utf-8"))
    assert callers("reg_upper_gamma", tree) == ["_policy_report"]


def test_scan_flags_a_second_caller():
    tree = ast.parse("def f(a):\n    def g(x):\n        return h(x)\n    return g(a)\n"
                     "def k(b):\n    return h(b) + m.h(b)\nh(1)\n")
    assert callers("h", tree) == ["f", "k"]


def calls_to(names, tree):
    """(line, name) for every call in `tree` of a function in `names`, whether
    bound by import (``f(...)``) or reached as an attribute (``mod.f(...)``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                yield node.lineno, name


def test_only_numerics_calls_the_adaptive_quadrature():
    # powerctl's graded rule prices every ring and the mean-CIPC integral; the
    # adaptive integrators stay public as references for the tests
    adaptive = {"integrate_polar_sector", "integrate_radial"}
    found = [f"{f.relative_to(ROOT)}:{line} {name}"
             for f in sorted((ROOT / "src").rglob("*.py")) if f.name != "numerics.py"
             for line, name in calls_to(adaptive, ast.parse(f.read_text(encoding="utf-8")))]
    assert not found, "adaptive quadrature called outside numerics:\n" + "\n".join(found)


def test_scan_flags_a_quadrature_call():
    tree = ast.parse("from irsplan import numerics\n"
                     "from irsplan.numerics import integrate_radial\n"
                     "x = integrate_radial(f, 0, 1)\n"
                     "y = numerics.integrate_polar_sector(f, 0, 1, 1)\n"
                     "z = integrate_polar_sector\n")
    assert list(calls_to({"integrate_polar_sector", "integrate_radial"}, tree)) == [
        (3, "integrate_radial"), (4, "integrate_polar_sector")]


def test_one_ring_coefficient_integrand():
    # the planner's screen and the graded price are one ring coefficient in
    # powerctl; the Monte Carlo sampler reaches the factor through the power
    sites = {}
    for f in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(f.read_text(encoding="utf-8"))
        calls = list(calls_to({"irs_power_factor"}, tree))
        if calls:
            sites[f.name] = (callers("irs_power_factor", tree), len(calls))
    assert sites == {"channel.py": (["required_power_irs"], 1),
                     "powerctl.py": (["ring_coefficients"], 1)}


def cached_functions(label, tree):
    """'label.name' for every function `tree` decorates with ``lru_cache`` or
    ``cache``, called or not, bound by import or reached through ``functools``."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in fn.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if ast.unparse(target).split(".")[-1] in ("lru_cache", "cache"):
                    yield f"{label}.{fn.name}"


def test_process_wide_caches_are_pinned():
    # a cache outlives the call that fills it: only the quadrature nodes and
    # the power-factor tables are kept per process; a line search's ring
    # table lives as long as the search
    found = {name for f in sorted((ROOT / "src").rglob("*.py"))
             for name in cached_functions(f.stem, ast.parse(f.read_text(encoding="utf-8")))}
    assert found == {"numerics._gl_nodes", "channel._power_factor_table"}


def test_scan_flags_a_cached_function():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@functools.lru_cache(maxsize=8)\ndef a(x):\n    return x\n"
                     "@lru_cache\ndef b(x):\n    return x\n"
                     "class K:\n    @cache\n    def c(self):\n        return 1\n"
                     "@staticmethod\ndef d():\n    return 2\n")
    assert list(cached_functions("m", tree)) == ["m.a", "m.b", "m.c"]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_imports(label, tree):
    """'label: module.name' for every private name (or name of a private
    module) that `tree` imports from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                if _private(module) or _private(alias.name):
                    yield f"{label}: {module + '.' if module else ''}{alias.name}"
        elif isinstance(node, ast.Import):
            yield from (f"{label}: {alias.name}" for alias in node.names
                        if any(_private(part) for part in alias.name.split(".")))


# the private names one module may take from another: the panel arithmetic
# of the one sector quadrature, the CLT moments and link gains the Monte
# Carlo surrogate shares with channel, and the fading kernel module (its draw
# routine, and its count of the bytes a draw holds, which the fading-bank
# memory limit reads)
PINNED_PRIVATE_IMPORTS = {"powerctl.py: numerics._gl_panels",
                          "simulation.py: channel._cascade_moments",
                          "simulation.py: channel._gain_irs_links",
                          "simulation.py: _kernels.exact_unit_draws",
                          "simulation.py: _kernels.unit_draw_bytes",
                          "__init__.py: _kernels.BACKEND"}


def test_no_private_imports_across_modules():
    found = {line for f in sorted((ROOT / "src").rglob("*.py"))
             for line in private_imports(f.name, ast.parse(f.read_text(encoding="utf-8")))}
    assert found <= PINNED_PRIVATE_IMPORTS, "private names imported across modules:\n" + \
        "\n".join(sorted(found - PINNED_PRIVATE_IMPORTS))


def test_scan_flags_a_private_import():
    tree = ast.parse("from __future__ import annotations\nimport os._x\n"
                     "from .numerics import Refused, _gl_panels\nfrom . import _kernels\n"
                     "from ._kernels import draw\nfrom .geometry import ap_spans\n")
    assert list(private_imports("m", tree)) == [
        "m: os._x", "m: numerics._gl_panels", "m: _kernels", "m: _kernels.draw"]


COLD_RUN = """
import sys
from irsplan.cli import main
out = sys.argv[1]
for args in (["plan", "--set", "plan.M=20", "--set", "grid.radius_step=10", "--out", out + "/ls"],
             ["plan", "--method", "algorithm1", "--set", "plan.M=20", "--out", out],
             ["sweep", "--set", "sweep.M_values=[10,20]", "--out", out + "/sweep"],
             ["validate", out + "/plan.json", "--out", out + "/mc",
              "--set", "mc.element_draws=gaussian-surrogate",
              "--set", "mc.n_topologies=2", "--set", "mc.n_fading=50"]):
    assert main(args) == 0, args
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

# the same run with every scipy import failing, as where scipy is not installed
WITHOUT_SCIPY = """
import importlib.abc
import sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is not installed")
        return None

sys.meta_path.insert(0, NoScipy())
""" + COLD_RUN


def _cold_run(script, out_dir):
    """Last stdout line of `script` run in a fresh interpreter on src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, str(out_dir)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_cold_commands_skip_scipy(tmp_path):
    assert _cold_run(COLD_RUN, tmp_path) == "[]"


def test_cold_commands_run_without_scipy(tmp_path):
    assert _cold_run(WITHOUT_SCIPY, tmp_path) == "[]"


COLD_COVERAGE = """
import sys
from irsplan.cli import main
assert main(["coverage", "--out", sys.argv[1], "--set", "coverage.l_start=100",
             "--set", "coverage.l_stop=120", "--set", "coverage.l_step=10"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cold_coverage_skips_scipy(tmp_path):
    assert _cold_run(COLD_COVERAGE, tmp_path) == "[]"
