"""The public surface: every exported name resolves, the README's library
quick start runs as written, and the package imports no numpy."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import homscal

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    namespace = {}
    exec("from homscal import *", namespace)  # AttributeError on a dangling name
    assert set(homscal.__all__) <= set(namespace)


def test_readme_quick_start_prints_its_certificate():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quick start", "exec"), {})
    assert out.getvalue() == "180 NotLocalMax\n"


def test_importing_the_package_and_its_cli_loads_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, homscal, homscal.cli; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _imported(node):
    """The modules an import statement names; a relative one starts with '.'."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return []


def _module_level_imports(node):
    """The modules imported when the module runs: every import outside a
    function body, class bodies and top-level if/try blocks included."""
    out = _imported(node)
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            out += _module_level_imports(child)
    return out


def test_no_module_of_the_package_imports_numpy():
    # pyproject.toml declares dependencies = []: a module-level import is of
    # the standard library or of the package itself; a function may import
    # an installed package lazily, but never numpy
    for path in sorted((ROOT / "src" / "homscal").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [name for node in ast.walk(tree) for name in _imported(node)]
        assert not any(name.split(".")[0] == "numpy" for name in names), path.name
        outside = [name for name in _module_level_imports(tree)
                   if not name.startswith(".")
                   and name.split(".")[0] not in sys.stdlib_module_names]
        assert outside == [], path.name


def _calls_of(tree, name):
    """The number of calls in tree of a function called name, as a bare
    name or an attribute."""
    return sum(isinstance(node, ast.Call)
               and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
               for node in ast.walk(tree))


def test_only_the_signomial_module_takes_exact_powers():
    # exact powers have one home: the one exact evaluator, Signomial.line_exact
    callers = [path.name for path in sorted((ROOT / "src" / "homscal").glob("*.py"))
               if _calls_of(ast.parse(path.read_text(encoding="utf-8")), "rational_pow")]
    assert callers == ["signomial.py"]


def test_call_check_sees_names_and_attributes():
    tree = ast.parse("from x import rational_pow\nrational_pow(2, 1)\n"
                     "def f():\n    return s.rational_pow(2, 1) + rational_pow\n")
    assert _calls_of(tree, "rational_pow") == 2


def test_module_level_import_check_sees_nested_imports():
    tree = ast.parse("import os\nif True:\n    import numpy\nclass A:\n    from . import x\n"
                     "def f():\n    import sympy\n")
    assert _module_level_imports(tree) == ["os", "numpy", "."]
