import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qwalk"


def _names(node: ast.AST) -> set[str]:
    """Every identifier a node uses: bare names, attributes, imported names."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def test_every_public_definition_is_reached_outside_the_tests():
    # a public function or class of the library must be used by another part
    # of the library or by a demo; code that only the tests call belongs in
    # the tests.  Re-exports in the package's __init__ do not count
    modules = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    assert len(modules) > 5
    demo_names: set[str] = set()
    for p in sorted((ROOT / "demos").glob("*.py")):
        demo_names |= _names(ast.parse(p.read_text()))
    uses = [(stmt, _names(stmt)) for tree in modules.values() for stmt in tree.body]

    unreached = []
    for path, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name.startswith("_") or stmt.name in demo_names:
                continue
            if not any(stmt.name in names for other, names in uses if other is not stmt):
                unreached.append(f"{path.stem}.{stmt.name}")
    assert unreached == []


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # a default that no call in the library, the demos or the benchmark
    # overrides is a knob that only the tests turn.  A call passes a
    # parameter by its keyword, by position, or through *args or **kwargs
    callers = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    calls: dict[str, list[ast.Call]] = {}
    for p in callers:
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)

    def passes(call: ast.Call, name: str, position: int | None) -> bool:
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        return position is not None and (
            len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))

    unpassed = []
    for p in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(p.read_text()).body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_"):
                continue
            a = stmt.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [(arg.arg, k) for k, arg in enumerate(positional) if k >= first]
            defaulted += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            unpassed += [f"{p.stem}.{stmt.name}({name})" for name, k in defaulted
                         if not any(passes(c, name, k) for c in calls.get(stmt.name, []))]
    # the console-script entry point reads sys.argv when argv is not given
    assert unpassed == ["cli.main(argv)"]


def test_a_trace_is_the_only_handle_on_its_model_and_z():
    # a CurveTrace carries its step set and z; a function that takes the
    # trace reads them from it instead of taking them again, unchecked
    found = []
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                params = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
                if "trace" in params and params & {"s", "z"}:
                    found.append(f"{p.stem}.{node.name}")
    assert found == []


def test_kernel_polys_is_the_only_cache_across_calls():
    # per-curve work is kept on its CurveTrace and dies with it; a functools
    # cache keyed by z would serve repeated inputs instead of doing the work.
    # kernel_polys, keyed by the step set alone, is the one exception
    caching = {"cache", "lru_cache", "cached_property"}
    decorated, uses = [], 0
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    caching & _names(dec) for dec in node.decorator_list):
                decorated.append(f"{p.stem}.{node.name}")
            own = ({node.id} if isinstance(node, ast.Name) else
                   {node.attr} if isinstance(node, ast.Attribute) else
                   {a.name for a in node.names} if isinstance(node, ast.ImportFrom) else set())
            uses += len(caching & own)
    assert decorated == ["steps.kernel_polys"] and uses == 1


def test_every_name_the_demos_import_exists():
    # a deleted public name would break a demo; every
    # `from qwalk[.mod] import name` must resolve, demo 06 included
    missing, checked = [], 0
    for p in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "qwalk"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                checked += 1
                if not hasattr(module, alias.name):
                    missing.append(f"{p.name}: {node.module}.{alias.name}")
    assert checked > 10
    assert missing == []


def test_demos_run_cleanly():
    # the import check misses a deleted attribute such as a dataclass field,
    # and the demos are the only callers of some public names (psi, phi,
    # invariant_check, kernel_eval, verify_prediction, symmetry_class) outside
    # the tests; all six run in about 5 s, demo 06 about 4 s of it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 6
    for p in demos:
        proc = subprocess.run([sys.executable, str(p)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (p.name, proc.returncode, proc.stderr) == (p.name, 0, "")


def test_no_module_imports_a_private_name_of_a_sibling():
    # `from .mod import _name` reaches into another module's internals;
    # importing a private module itself (`from . import _ratpoly`) is allowed
    found = []
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and (node.level > 0 or node.module.split(".")[0] == "qwalk")):
                continue
            found += [f"{p.stem}: {node.module}.{alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []


SUBMODULES = ["asymptotics", "bvp", "counting", "errors", "group", "kernel", "singularities",
              "steps"]

# the package's __all__: 56 public names and the 8 submodules
PUBLIC_NAMES = [
    "BranchPoints", "CGF", "CoefficientSeries", "CountTable", "CriticalPoint", "CurveTrace",
    "DriftData", "FirstSingularity", "GFValue", "GroupOrderResult", "KernelPolys", "PRESETS",
    "PredictionReport", "RationalPoint", "SeriesAnalysis", "SingularityReport", "StepSet",
    "X_branches", "Y_branches", "all_step_sets", "asymptotics", "branch_points", "bvp",
    "catalan", "check_functional_equation", "circle_cgf", "classify_first_singularities",
    "count", "counting", "critical_point", "drift", "errors", "from_json", "group",
    "group_order", "growth_estimate", "invariant_check", "is_singular", "kernel", "kernel_eval",
    "kernel_polys", "origin_in_hull_interior", "parse_step_set", "phi", "point_in_G_M",
    "preset", "psi", "q00_general", "q00_simple", "q01_general", "q10_general", "q10_simple",
    "q11_from_relation", "q11_general", "series", "singularities", "steps", "symmetry_class",
    "to_json", "trace_curve_M", "verify_prediction", "z_X", "z_Y", "z_g_via_resultant",
]


def test_public_surface_resolves_to_the_submodules():
    # the names are loaded lazily, on first access; each must be the very
    # object its submodule defines, and dir() must list it beforehand
    import qwalk

    assert qwalk.__all__ == PUBLIC_NAMES
    assert len(set(PUBLIC_NAMES) - set(SUBMODULES)) == 56
    assert set(PUBLIC_NAMES) <= set(dir(qwalk))
    modules = {m: importlib.import_module(f"qwalk.{m}") for m in SUBMODULES}
    for name in PUBLIC_NAMES:
        value = getattr(qwalk, name)
        if name in modules:
            assert value is modules[name], name
        else:
            assert any(vars(m).get(name) is value for m in modules.values()), name
    assert qwalk.kernel.kernel_polys is qwalk.steps.kernel_polys
    assert isinstance(qwalk.__version__, str)
    assert not hasattr(qwalk, "numpy")
    with pytest.raises(AttributeError, match="no_such_name"):
        qwalk.no_such_name
