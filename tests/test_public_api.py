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


def test_no_module_of_the_package_imports_numpy():
    for path in sorted((ROOT / "src" / "homscal").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "numpy" for name in names), path.name
