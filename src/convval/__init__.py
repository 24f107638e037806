"""convval: exact computation with piecewise-affine convex functions and valuations.

``import convval`` runs no submodule.  It puts each library module in
``sys.modules`` as a lazy module (``importlib.util.LazyLoader``), compiled
and run on its first attribute access, and takes each public name below from
its defining module on first access (PEP 562).  So a program pays only for
the modules it uses (``convval.make_growth`` runs ``convval.growth`` and not
the polyhedra it never touches), and code that walks ``sys.modules``, such
as a tracer that rebinds names in every ``convval`` module, still finds them
all.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BudgetExceeded", "CertificateFailed", "ConvvalError", "DimensionMismatch",
        "DocumentError", "EmptyDomain", "EmptyPolyhedron", "NotCoercive", "NotConvexMin",
        "NotUnimodular", "OriginNotInBody", "SingularMatrix", "UnboundedPolyhedron",
    ),
    "polyhedra": (
        "HRep", "Polyhedron", "VRep", "apply_linear", "hausdorff_distance", "hrep_to_vrep",
        "intersect", "minkowski_sum", "random_unimodular", "relative_interior_contains",
        "translate", "volume", "vrep_to_hrep",
    ),
    "functions": (
        "PWAConvex", "cone_function", "indicator_function", "inf_if_convex", "make",
        "pwa_equal", "sup", "transform",
    ),
    "conjugacy": (
        "ConeBound", "biconjugate_check", "cone_bound", "conjugate", "epi_scale",
        "inf_convolution", "moreau_eval", "uniform_cone_bound",
    ),
    "growth": (
        "GrowthFunction", "check_derivative_relation", "check_psi_vanishes", "make_growth",
        "moment", "psi_from_zeta", "zero_growth",
    ),
    "valuation": (
        "LevelVolumeProfile", "combined_valuation", "extract_growth", "integral_valuation",
        "level_volume_profile", "mc_oracle", "min_valuation", "tail_mass", "truncation_level",
    ),
    "laws": (
        "FixturePair", "check_invariance", "check_level_convergence", "check_min_lattice",
        "check_valuation_identity", "generate_pair_with_convex_min", "random_body",
        "smoothing_sequence", "staircase_fixture", "staircase_limit_check",
        "truncation_fixture",
    ),
    "reports": ("LawReport",),
    "documents": (
        "function_from_doc", "function_to_doc", "growth_from_doc", "growth_to_doc",
        "load_function", "load_growth",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def _register(name):
    """Put ``convval.<name>`` in ``sys.modules`` and here, to run on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


# ``cli`` is left out: ``python -m convval.cli`` must find it unloaded.
for _name in (*_EXPORTS, "linalg"):
    _register(_name)
del _name


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(globals()[module], name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
