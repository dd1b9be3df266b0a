"""qwalk: exact enumeration and singularity analysis of small-step walks
confined to the quarter plane."""

from .steps import (
    DriftData,
    PRESETS,
    StepSet,
    all_step_sets,
    drift,
    from_json,
    is_singular,
    origin_in_hull_interior,
    parse_step_set,
    preset,
    symmetry_class,
    to_json,
)
from .counting import (
    CoefficientSeries,
    CountTable,
    catalan,
    check_functional_equation,
    count,
    series,
)
from .group import GroupOrderResult, RationalPoint, group_order, invariant_check, phi, psi
from .kernel import (
    BranchPoints,
    CurveTrace,
    KernelPolys,
    X_branches,
    Y_branches,
    branch_points,
    kernel_eval,
    kernel_polys,
    point_in_G_M,
    trace_curve_M,
)
from .singularities import (
    CriticalPoint,
    FirstSingularity,
    SingularityReport,
    classify_first_singularities,
    critical_point,
    z_X,
    z_Y,
    z_g_via_resultant,
)
from .bvp import (
    CGF,
    GFValue,
    circle_cgf,
    q00_general,
    q00_simple,
    q01_general,
    q10_general,
    q10_simple,
    q11_from_relation,
    q11_general,
)
from .asymptotics import PredictionReport, SeriesAnalysis, growth_estimate, verify_prediction

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
