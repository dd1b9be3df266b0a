"""qwalk: exact enumeration and singularity analysis of small-step walks
confined to the quarter plane.

The public names are resolved on first access (PEP 562), so `import qwalk`
loads no submodule and a caller pays only for the modules it uses: the exact
layers (steps, counting, group) run without numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "steps": (
        "DriftData", "KernelPolys", "PRESETS", "StepSet", "all_step_sets", "drift",
        "from_json", "is_singular", "kernel_polys", "origin_in_hull_interior",
        "parse_step_set", "preset", "symmetry_class", "to_json",
    ),
    "counting": (
        "CoefficientSeries", "CountTable", "catalan", "check_functional_equation", "count",
        "series",
    ),
    "group": ("GroupOrderResult", "RationalPoint", "group_order", "invariant_check", "phi", "psi"),
    "kernel": (
        "BranchPoints", "CurveTrace", "X_branches", "Y_branches", "branch_points",
        "kernel_eval", "point_in_G_M", "trace_curve_M",
    ),
    "singularities": (
        "CriticalPoint", "FirstSingularity", "SingularityReport",
        "classify_first_singularities", "critical_point", "z_X", "z_Y", "z_g_via_resultant",
    ),
    "bvp": (
        "CGF", "GFValue", "circle_cgf", "q00_general", "q00_simple", "q01_general",
        "q10_general", "q10_simple", "q11_from_relation", "q11_general",
    ),
    "asymptotics": ("PredictionReport", "SeriesAnalysis", "growth_estimate", "verify_prediction"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "errors")

__all__ = sorted([*_SOURCE, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
