"""The benchmark's tracing hooks still name functions that exist in convval.

``perfbench/tracing.py`` wraps convval functions by name; a rename in
``src/`` would otherwise surface only when a traced benchmark run fails.
The file is executed from its source text, so nothing is written next to it
(no bytecode cache), and only its target lists are read.
"""

import importlib
import os
import types

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    if not os.path.exists(TRACING):
        pytest.skip("perfbench/tracing.py is not in this checkout")
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = TRACING
    with open(TRACING) as fh:
        exec(compile(fh.read(), TRACING, "exec"), module.__dict__)
    return module


def test_span_targets_resolve(tracing):
    for modname, attr, _ in tracing.SPAN_TARGETS:
        owner = importlib.import_module(f"convval.{modname}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"convval.{modname}.{attr}"


def test_linalg_targets_resolve(tracing):
    linalg = importlib.import_module("convval.linalg")
    for attr in tracing.LINALG_TARGETS:
        assert callable(getattr(linalg, attr)), f"convval.linalg.{attr}"


def test_dd_counter_counts_each_double_description(tracing):
    """``polyhedra.hrep_to_vrep.calls`` sees every double description that
    runs: reading a fresh H-polyhedron's V-rep makes exactly one traced call,
    and reading a ``cut_by`` restriction's, whose cone is carried, makes none.
    A route around the module name would read 0 in both cases."""
    polyhedra = importlib.import_module("convval.polyhedra")

    def traced_calls(read):
        tracer = tracing.Tracer()
        with tracing.installed(tracer), tracer.root("guard", 0):
            read()
        stats = tracing.layer_stats(tracer.spans)
        return stats.get("polyhedra.hrep_to_vrep", {"calls": 0})["calls"]

    square = polyhedra.Polyhedron.box([(0, 1), (0, 1)])
    assert traced_calls(lambda: square.vrep) == 1
    restriction, _ = next(polyhedra.cut_by(square, [[((1, 1), 1)]]))
    assert traced_calls(lambda: restriction.vrep) == 0
    assert len(restriction.vrep.vertices) == 3
