"""convval: exact computation with piecewise-affine convex functions and valuations."""

from .errors import (
    BudgetExceeded,
    CertificateFailed,
    ConvvalError,
    DimensionMismatch,
    DocumentError,
    EmptyDomain,
    EmptyPolyhedron,
    NotCoercive,
    NotConvexMin,
    NotUnimodular,
    OriginNotInBody,
    SingularMatrix,
    UnboundedPolyhedron,
)
from .polyhedra import (
    HRep,
    Polyhedron,
    VRep,
    apply_linear,
    hausdorff_distance,
    hrep_to_vrep,
    intersect,
    minkowski_sum,
    random_unimodular,
    relative_interior_contains,
    translate,
    volume,
    vrep_to_hrep,
)
from .functions import (
    PWAConvex,
    cone_function,
    indicator_function,
    inf_if_convex,
    make,
    pwa_equal,
    sup,
    transform,
)
from .conjugacy import (
    ConeBound,
    biconjugate_check,
    cone_bound,
    conjugate,
    epi_scale,
    inf_convolution,
    moreau_eval,
    uniform_cone_bound,
)
from .growth import (
    GrowthFunction,
    check_derivative_relation,
    check_psi_vanishes,
    make_growth,
    moment,
    psi_from_zeta,
    zero_growth,
)
from .valuation import (
    LevelVolumeProfile,
    combined_valuation,
    extract_growth,
    integral_valuation,
    level_volume_profile,
    mc_oracle,
    min_valuation,
    tail_mass,
    truncation_level,
)
from .laws import (
    FixturePair,
    check_invariance,
    check_level_convergence,
    check_min_lattice,
    check_valuation_identity,
    generate_pair_with_convex_min,
    random_body,
    smoothing_sequence,
    staircase_fixture,
    staircase_limit_check,
    truncation_fixture,
)
from .reports import LawReport
from .documents import (
    function_from_doc,
    function_to_doc,
    growth_from_doc,
    growth_to_doc,
    load_function,
    load_growth,
)

__version__ = "0.1.0"
