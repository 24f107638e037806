"""Every reference route lives in ``oracles.py``, once.

A test file that copies a route in as ``oracle_*`` instead of adding it to
``oracles.py``, or a second copy there, fails here.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def defined_oracles(path):
    return [node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("oracle_")]


def test_oracles_are_defined_once_in_oracles_py():
    elsewhere = {path.name: names for path in sorted(TESTS.glob("*.py"))
                 if path.name != "oracles.py" and (names := defined_oracles(path))}
    assert elsewhere == {}
    home = Counter(defined_oracles(TESTS / "oracles.py"))
    assert home and [name for name, count in home.items() if count > 1] == []
