"""Every script in demos/, and README's Quick start, runs to completion
against the source tree."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr


def quick_start_block() -> str:
    """The ```python block under README's ``## Quick start`` heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_quick_start():
    """The Quick start runs against the source tree, and each bare
    expression in it has the value its comment states."""
    tree = ast.parse(quick_start_block())
    namespace, values = {}, []
    for stmt in tree.body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert Path(namespace["cv"].__file__).resolve().is_relative_to(ROOT / "src")
    assert values == [Fraction(4, 1), (0, 0, 2), True]
    assert [type(v) for v in values] == [Fraction, tuple, bool]
