"""The package namespace: every public name, loaded on first use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convval
from oracles import RUN_MODULES, python_stdout

# The names ``convval`` exports, by defining module.
PUBLIC = {
    "errors": ["BudgetExceeded", "CertificateFailed", "ConvvalError", "DimensionMismatch",
               "DocumentError", "EmptyDomain", "EmptyPolyhedron", "NotCoercive",
               "NotConvexMin", "NotUnimodular", "OriginNotInBody", "SingularMatrix",
               "UnboundedPolyhedron"],
    "polyhedra": ["HRep", "Polyhedron", "VRep", "apply_linear", "hausdorff_distance",
                  "hrep_to_vrep", "intersect", "minkowski_sum", "random_unimodular",
                  "relative_interior_contains", "translate", "volume", "vrep_to_hrep"],
    "functions": ["PWAConvex", "cone_function", "indicator_function", "inf_if_convex", "make",
                  "pwa_equal", "sup", "transform"],
    "conjugacy": ["ConeBound", "biconjugate_check", "cone_bound", "conjugate", "epi_scale",
                  "inf_convolution", "moreau_eval", "uniform_cone_bound"],
    "growth": ["GrowthFunction", "check_derivative_relation", "check_psi_vanishes",
               "make_growth", "moment", "psi_from_zeta", "zero_growth"],
    "valuation": ["LevelVolumeProfile", "combined_valuation", "extract_growth",
                  "integral_valuation", "level_volume_profile", "mc_oracle", "min_valuation",
                  "tail_mass", "truncation_level"],
    "laws": ["FixturePair", "check_invariance", "check_level_convergence", "check_min_lattice",
             "check_valuation_identity", "generate_pair_with_convex_min", "random_body",
             "smoothing_sequence", "staircase_fixture", "staircase_limit_check",
             "truncation_fixture"],
    "reports": ["LawReport"],
    "documents": ["function_from_doc", "function_to_doc", "growth_from_doc", "growth_to_doc",
                  "load_function", "load_growth"],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_the_76_names_and_the_version():
    assert len(NAMES) == len(set(NAMES)) == 76
    assert sorted(convval.__all__) == sorted(NAMES)
    assert convval.__version__ == "0.1.0"


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_its_defining_module_object(module):
    owner = importlib.import_module(f"convval.{module}")
    for name in PUBLIC[module]:
        assert getattr(convval, name) is getattr(owner, name), name


def test_star_import_and_dir_give_every_name():
    namespace = {}
    exec("from convval import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert set(NAMES) | {"__version__"} <= set(dir(convval))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        convval.no_such_name


def test_submodules_import_as_before():
    from convval import polyhedra
    assert polyhedra.volume is convval.volume
    assert convval.make is convval.functions.make


LIBRARY = sorted(f"convval.{m}" for m in (*PUBLIC, "linalg"))


def test_import_runs_no_submodule_and_names_run_their_module():
    run = f"print([m for m in {RUN_MODULES} if m.startswith('convval.')])\n"
    code = (
        "import sys\n"
        "import convval\n"
        + run +
        "print(sorted(m for m in sys.modules if m.startswith('convval.')))\n"
        "convval.make_growth\n"
        + run +
        "print('make_growth' in vars(convval))\n"
        "print(convval.linalg.__name__)\n"
        "print('convval.cli' in sys.modules)\n"
    )
    assert python_stdout(code).splitlines() == [
        "[]", str(LIBRARY), "['convval.growth', 'convval.reports']", "True",
        "convval.linalg", "False"]


def test_reading_a_module_namespace_runs_it():
    """A walk over sys.modules that reads each ``convval`` module's namespace
    finds every library module run, with its functions in place."""
    code = (
        "import sys\n"
        "import convval\n"
        "names = {m: vars(mod) for m, mod in list(sys.modules.items())\n"
        "         if m.startswith('convval.')}\n"
        "print(sorted(names))\n"
        "print('hrep_to_vrep' in names['convval.polyhedra'])\n"
        f"print([m for m in {RUN_MODULES} if m.startswith('convval.')])\n"
    )
    assert python_stdout(code).splitlines() == [str(LIBRARY), "True", str(LIBRARY)]


def test_the_cli_runs_as_a_module_without_warnings():
    src = os.path.dirname(os.path.dirname(convval.__file__))
    out = subprocess.run([sys.executable, "-W", "error", "-m", "convval.cli", "--version"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, convval.__version__ + "\n", "")


def test_src_has_no_assert():
    """``python -O`` strips asserts, so ``src/convval`` checks by raising
    typed ``ConvvalError``s instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(convval.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
