"""Every reference route lives in ``oracles.py``, once, and is used.

A test file that copies a route in as ``oracle_*`` instead of adding it to
``oracles.py``, a second copy there, or a definition there that no test
reaches, directly or through other definitions, fails here.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def defined_oracles(path):
    return [node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("oracle_")]


def names_in(node):
    """Every name ``node`` reads, as a variable or as an attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for a in n.names})


def test_oracles_are_defined_once_in_oracles_py():
    elsewhere = {path.name: names for path in sorted(TESTS.glob("*.py"))
                 if path.name != "oracles.py" and (names := defined_oracles(path))}
    assert elsewhere == {}
    home = Counter(defined_oracles(TESTS / "oracles.py"))
    assert home and [name for name, count in home.items() if count > 1] == []


def test_every_definition_in_oracles_py_is_reachable_from_a_test():
    uses = {}  # top-level name -> the names its definition reads
    for node in ast.parse((TESTS / "oracles.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            uses[node.name] = names_in(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    uses[target.id] = names_in(node.value)
    reached = set()
    todo = set().union(*(names_in(ast.parse(path.read_text()))
                         for path in TESTS.glob("test_*.py"))) & uses.keys()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= (uses[name] & uses.keys()) - reached
    assert sorted(uses.keys() - reached) == []
