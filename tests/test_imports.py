"""Every imported name in src/ and tests/ is used.

No linter runs with the tests, so this stdlib-``ast`` scan is the guard
against dead imports.  A name counts as used when it appears anywhere in the
module as an identifier or is listed in the module's ``__all__``.
"""

import ast
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
