"""The public surface: every exported name resolves, and the README's
library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

import homscal

README = Path(__file__).resolve().parent.parent / "README.md"


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
