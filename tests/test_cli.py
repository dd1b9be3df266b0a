import argparse
import cmath
import json
import math
import os
import subprocess
import sys

import pytest

import qwalk
import qwalk.errors
from qwalk import cli, kernel, steps


QWALK_ERRORS = {name for name, obj in vars(qwalk.errors).items()
                if isinstance(obj, type) and issubclass(obj, qwalk.errors.QwalkError)}


def is_qwalk_error_line(err):
    """err is exactly one JSON line naming a QwalkError."""
    lines = err.splitlines()
    return len(lines) == 1 and json.loads(lines[0])["error"] in QWALK_ERRORS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*args):
    """Run a fresh interpreter on this checkout of qwalk."""
    src = os.path.dirname(os.path.dirname(qwalk.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--preset", "simple", "--n", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,i,j,q"
    assert "0,0,0,1" in lines[1]
    # layers 0..10: the n column covers all 11 values
    assert {int(row.split(",")[0]) for row in lines[1:]} == set(range(11))


def test_count_json_exact_strings(capsys):
    code, out, _ = run(capsys, "count", "--preset", "simple", "--n", "4")
    data = json.loads(out)
    assert data["layers"]["2"]["0,0"] == "2"
    assert data["layers"]["4"]["0,0"] == "10"


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "--preset", "simple", "--series", "q00",
                       "--n", "6", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,1", "1,0", "2,2", "3,0", "4,10", "5,0", "6,70"]


def test_series_json(capsys):
    # Kreweras excursions: 2 of length 3, 16 of length 6, 192 of length 9
    code, out, _ = run(capsys, "series", "--preset", "kreweras", "--series", "q00",
                       "--n", "9")
    assert code == 0
    assert json.loads(out) == {
        "config": {"n": 9, "preset": "kreweras", "series": "q00", "steps": None},
        "label": "Q(0,0,z)",
        "coefficients": ["1", "0", "0", "2", "0", "0", "16", "0", "0", "192"],
    }


def test_group_json(capsys):
    code, out, _ = run(capsys, "group", "--preset", "kreweras")
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_group_exceeds_bound(capsys):
    code, out, _ = run(capsys, "group", "--steps",
                       '{"steps": [[-1,1],[0,-1],[1,-1],[1,1]]}', "--max-half-order", "6")
    data = json.loads(out)
    assert data["order"] == "exceeds" and data["bound"] == 12


def test_kernel_branch_points(capsys):
    code, out, _ = run(capsys, "kernel", "branch-points", "--preset", "simple", "--z", "0.2")
    data = json.loads(out)
    assert data["ordering_asserted"] is True
    assert data["x_roots"][1]["re"] == pytest.approx(0.3819660112501051, rel=1e-9)


def test_branch_points_of_a_vanishing_discriminant_are_an_error(capsys):
    # at z = 1/2 every x is a branch point of these two-step sets (the
    # discriminant is 0): no "infinity" roots on stdout, one structured error
    for pts in ("[[0,-1],[0,1]]", "[[-1,0],[1,0]]", "[[-1,1],[1,-1]]", "[[-1,-1],[1,1]]"):
        code, out, err = run(capsys, "kernel", "branch-points", "--steps",
                             f'{{"steps": {pts}}}', "--z", "0.5")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "OutOfRange", "message": "the discriminant vanishes identically at z=0.5"}


def test_kernel_trace_csv(capsys):
    code, out, _ = run(capsys, "kernel", "trace", "--preset", "simple", "--z", "0.2",
                       "--points", "64")
    rows = out.strip().splitlines()
    assert rows[0] == "re,im"
    # the 64 contour nodes, then the first again to close the polygon
    assert len(rows) == 66 and rows[-1] == rows[1]
    re, im = map(float, rows[1].split(","))
    assert re * re + im * im == pytest.approx(1.0, abs=1e-8)


def test_singularities_simple(capsys):
    code, out, _ = run(capsys, "singularities", "--preset", "simple")
    data = json.loads(out)
    assert data["z_g"] == pytest.approx(0.25)
    assert data["z_X"] == pytest.approx(0.25)
    assert data["z_Y"] == pytest.approx(0.25)
    assert data["inv_cardinality"] == pytest.approx(0.25)
    assert data["fs_q10"]["label"] == "1/|S|"


def test_singularities_on_every_step_set(capsys):
    # the 131 genuine sets print a report; every other set is one typed
    # error line on stderr and exit code 1
    errors = []
    for s in steps.all_step_sets():
        code, out, err = run(capsys, "singularities", "--steps", steps.to_json(s))
        if code == 0:
            assert err == "" and json.loads(out)["z_g"] > 0, s
            continue
        lines = err.splitlines()
        assert (code, out, len(lines)) == (1, "", 1), s
        errors.append(json.loads(lines[0])["error"])
    assert len(errors) == 124
    assert sorted(set(errors)) == ["NoPositiveSolution", "SingularWalk"]
    assert errors.count("NoPositiveSolution") == 93


# every subcommand but count, series and singularities (swept above), at
# small z and n; 2550 in-process calls
SWEEP = (("group",), ("classify",), ("kernel", "branch-points", "--z", "0.1"),
         ("kernel", "trace", "--z", "0.1", "--points", "16"),
         *(("bvp", "--z", "0.1", "--target", t) for t in ("q00", "q10", "q01", "q11")),
         ("asymptotics", "--series", "q11", "--n", "60"), ("check", "--n", "40"))


def test_every_subcommand_on_every_step_set(capsys):
    # each call succeeds, or exits 1 with one JSON line naming a QwalkError
    for s in steps.all_step_sets():
        for argv in SWEEP:
            code, out, err = run(capsys, *argv, "--steps", steps.to_json(s))
            assert code == 0 or (code, out) == (1, "") and is_qwalk_error_line(err), (argv, s)


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--steps",
                       '{"steps": [[1,0],[0,1],[-1,-1],[1,1]]}')
    data = json.loads(out)
    assert data["drift_sign"] == ["+", "+"]
    assert data["fs_q11"]["label"] == "1/|S|"


def test_classify_is_singularities_restricted(capsys):
    keys = {"config", "drift_sign", "cov_sign", "fs_q10", "fs_q01", "fs_q11"}
    sources = [("--preset", name) for name in sorted(qwalk.PRESETS)]
    sources.append(("--steps", '{"steps": [[1,0],[0,1],[-1,-1],[1,1]]}'))
    for source in sources:
        _, classify, _ = run(capsys, "classify", *source)
        _, full, _ = run(capsys, "singularities", *source)
        full = json.loads(full)
        assert json.loads(classify) == {k: v for k, v in full.items() if k in keys}


def test_bvp_value(capsys):
    code, out, _ = run(capsys, "bvp", "--preset", "simple", "--z", "0.2", "--target", "q00")
    data = json.loads(out)
    assert data["value"] == pytest.approx(1.1029733226675287, rel=1e-10)
    assert data["method"] == "circle-closed-form"
    assert data["config"] == {"preset": "simple", "steps": None, "target": "q00", "z": 0.2}


def test_bvp_gluing_route_on_step_input(capsys):
    # {(-1,-1), (1,-1), (0,1)}: the circle glues the x-plane curve, so q10 goes
    # through the gluing route (x = 1 lies on the curve); the y plane has a
    # constant ct, its curve passes through infinity, and q01 is refused
    lrs = '{"steps": [[-1,-1],[1,-1],[0,1]]}'
    code, out, _ = run(capsys, "bvp", "--steps", lrs, "--z", "0.15", "--target", "q10")
    data = json.loads(out)
    assert code == 0 and data["method"] == "cgf-integral" and data["flags"] == ["boundary"]
    table = qwalk.counting.count(qwalk.from_json(lrs), 200, dense_max=0)
    want = qwalk.counting.eval_series(qwalk.counting.series(table, "q10").coeffs, 0.15)
    assert data["value"] == pytest.approx(want, abs=1e-8)
    code, out, err = run(capsys, "bvp", "--steps", lrs, "--z", "0.15", "--target", "q01")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "CGFUnavailable",
        "message": "c is constant: the curve passes through infinity and no CGF glues it",
    }


def test_bvp_error_is_structured(capsys):
    code, out, err = run(capsys, "bvp", "--preset", "kreweras", "--z", "0.2",
                         "--target", "q00")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert "error" in payload


def test_unconverged_bvp_error_is_the_only_stderr_line():
    # the simple walk's slit is about 1e-4 wide at z = 0.005 (dK/dx cancels
    # to 0), so its contour sums are non-finite; the second model's mirrored
    # curve is not glued by the circle; no numpy warning may precede the
    # structured error
    for source, error in (
        (("--preset", "simple", "--z", "0.005"), "QuadratureNotConverged"),
        (("--steps", '{"steps": [[-1,1],[0,-1],[0,1],[1,1]]}', "--z", "0.0625"),
         "CGFUnavailable"),
    ):
        proc = run_process("-W", "default", "-m", "qwalk.cli", "bvp", *source,
                           "--target", "q11")
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error


def test_asymptotics_json(capsys):
    code, out, _ = run(capsys, "asymptotics", "--preset", "simple", "--series", "q11",
                       "--n", "200")
    data = json.loads(out)
    assert data["rho"] == pytest.approx(4.0, rel=1e-6)


def test_check_simple(capsys):
    code, out, _ = run(capsys, "check", "--preset", "simple", "--n", "120")
    data = json.loads(out)
    assert code == 0 and data["ok"]
    names = {r["name"] for r in data["results"]}
    assert "functional-equation" in names
    assert "catalan-products" in names
    assert "cauchy-integral-vs-series" in names


def test_check_kreweras(capsys):
    code, out, _ = run(capsys, "check", "--preset", "kreweras", "--n", "100")
    data = json.loads(out)
    assert code == 0 and data["ok"]


def test_check_lists_skipped_checks(capsys):
    # gessel's curve passes through infinity, so there is no circle gluing
    # to check the Cauchy integral with; the skip is reported with its reason
    a = run(capsys, "check", "--preset", "gessel", "--n", "40")
    b = run(capsys, "check", "--preset", "gessel", "--n", "40")
    assert a == b
    data = json.loads(a[1])
    assert a[0] == 0 and data["ok"]
    skipped = {r["name"]: r["reason"] for r in data["skipped"]}
    assert skipped["cauchy-integral-vs-series"].startswith("SlitDegenerate")
    assert "growth-vs-first-singularity" in skipped
    assert not skipped.keys() & {r["name"] for r in data["results"]}


def test_check_skips_the_branch_ordering_of_an_even_discriminant(capsys):
    # the all-diagonal model's discriminants are even, so x1 = -x2 exactly
    # and the strict ordering ties: skipped with the reason, not failed
    code, out, _ = run(capsys, "check", "--steps",
                       '{"steps": [[-1,-1],[-1,1],[1,-1],[1,1]]}', "--n", "40")
    data = json.loads(out)
    assert code == 0 and data["ok"]
    skipped = {r["name"]: r["reason"] for r in data["skipped"]}
    assert skipped["branch-ordering"].startswith("even discriminant")
    assert "branch-ordering" not in {r["name"] for r in data["results"]}


def test_check_skips_the_analytic_checks_off_the_genuine_sets(capsys):
    # a singular walk and one with every step in a closed half-plane: only the
    # functional equation runs, and each analytic check is skipped with the reason
    analytic = ["z_g-method-agreement", "singularity-sandwich", "branch-ordering",
                "growth-vs-first-singularity", "cauchy-integral-vs-series"]
    for source in ('{"steps": [[1,0],[0,1],[1,1]]}', '{"steps": [[1,1],[1,-1],[1,0],[0,-1]]}'):
        code, out, _ = run(capsys, "check", "--steps", source, "--n", "30")
        data = json.loads(out)
        assert code == 0 and data["ok"]
        assert [r["name"] for r in data["results"]] == ["functional-equation"]
        assert data["skipped"] == [
            {"name": name, "reason": "singular walk or origin outside the hull interior"}
            for name in analytic]


def test_check_runs_its_gluing_check_once(capsys, monkeypatch):
    # the circle does not glue kreweras's curve: cauchy_value's own gluing
    # check raises, and check reports that error as the skip reason
    calls = []
    gluing_defect = qwalk.bvp.gluing_defect

    def counted(cgf, trace):
        calls.append(trace)
        return gluing_defect(cgf, trace)

    monkeypatch.setattr(qwalk.bvp, "gluing_defect", counted)
    code, out, _ = run(capsys, "check", "--preset", "kreweras", "--n", "40")
    skipped = {r["name"]: r["reason"] for r in json.loads(out)["skipped"]}
    assert code == 0
    assert skipped["cauchy-integral-vs-series"].startswith("CGFUnavailable")
    assert len(calls) == 1


def test_steps_file_source(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"steps": [[-1,0],[0,-1],[1,1]]}')
    code, out, _ = run(capsys, "group", "--steps-file", str(path))
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_steps_file_is_read_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    path.write_text('{"steps": [[-1,0],[0,-1],[1,1]]}')
    calls = []
    from_json = qwalk.steps.from_json

    def counted(text):
        calls.append(text)
        return from_json(text)

    monkeypatch.setattr(qwalk.steps, "from_json", counted)
    code, out, _ = run(capsys, "group", "--steps-file", str(path))
    assert code == 0 and json.loads(out)["config"]["steps"] == [[-1, 0], [0, -1], [1, 1]]
    assert len(calls) == 1


def test_malformed_step_sources_are_structured_errors(capsys, tmp_path):
    (tmp_path / "latin1.json").write_bytes(b"\xff\xfe{}")
    for source, error in (
        (("--steps", "nope"), "InvalidStep"),
        (("--steps", '{"steps": 5}'), "InvalidStep"),
        (("--steps", '{"steps": null}'), "InvalidStep"),
        (("--steps", '{"steps": [[1, 0], 5]}'), "InvalidStep"),
        (("--steps", '{"steps": [[true, false], [false, true], [-1, -1]]}'), "InvalidStep"),
        (("--steps-file", str(tmp_path / "missing.json")), "StepFileUnreadable"),
        (("--steps-file", str(tmp_path)), "StepFileUnreadable"),
        (("--steps-file", str(tmp_path / "latin1.json")), "StepFileUnreadable"),
        # past the JSON parser's recursion limit, and past its digit limit
        (("--steps", "[" * 100000), "InvalidStep"),
        (("--steps", '{"steps": [[' + "1" * 5000 + ", 0]]}"), "InvalidStep"),
    ):
        code, out, err = run(capsys, "group", *source)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == error


@pytest.mark.parametrize("value", ['"ab"', '""', "{}", '{"a": 1}'])
def test_a_string_or_object_is_not_a_step_list(capsys, value):
    # iterable, but over characters or keys: never split into "pairs"
    code, out, err = run(capsys, "group", "--steps", f'{{"steps": {value}}}')
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "InvalidStep", "message": f"not a list of integer pairs: {json.loads(value)!r}"}


def test_an_untyped_error_propagates(capsys, monkeypatch):
    # only QwalkErrors are analysis errors; anything else is a bug, not exit 1
    def broken(s, args):
        raise ValueError("not an analysis error")

    monkeypatch.setattr(cli, "_cmd_group", broken)
    with pytest.raises(ValueError, match="not an analysis error"):
        cli.main(["group", "--preset", "simple"])
    assert capsys.readouterr().err == ""


def test_bad_values_are_structured_errors(capsys):
    code, out, err = run(capsys, "kernel", "trace", "--preset", "simple",
                         "--z", "0.2", "--points", "4")
    assert code == 1 and json.loads(err)["error"] == "OutOfRange"
    code, out, err = run(capsys, "kernel", "trace", "--preset", "simple", "--z", "0")
    assert code == 1 and json.loads(err)["error"] == "OutOfRange"
    code, out, err = run(capsys, "kernel", "trace", "--preset", "simple", "--z", "0.26")
    assert code == 1 and json.loads(err)["error"] == "GenusZeroRegime"
    code, out, err = run(capsys, "bvp", "--preset", "simple", "--z", "0", "--target", "q11")
    assert code == 1 and json.loads(err)["error"] == "OutOfRange"
    # a non-finite z is refused before any root finding sees it
    for argv in (("kernel", "branch-points", "--preset", "kreweras", "--z", "nan"),
                 ("kernel", "branch-points", "--preset", "kreweras", "--z", "inf"),
                 ("kernel", "trace", "--preset", "kreweras", "--z", "nan"),
                 ("bvp", "--preset", "kreweras", "--z", "nan", "--target", "q00"),
                 ("bvp", "--preset", "simple", "--z", "inf", "--target", "q11"),
                 *(("bvp", "--preset", "simple", "--z", "nan", "--target", t)
                   for t in ("q00", "q10", "q01"))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and json.loads(err)["error"] == "OutOfRange", argv


def test_extreme_z_is_out_of_range_not_wrong_branch_points(capsys):
    # z^2 overflows at 1e160 and underflows at 1e-200, where the cleared
    # discriminant's coefficients no longer have its roots: a typed error,
    # not four "infinity" branch points or a genus-zero verdict
    for z in ("1e160", "1e-200"):
        for argv in (("kernel", "branch-points", "--preset", "simple", "--z", z),
                     ("kernel", "trace", "--preset", "kreweras", "--z", z),
                     ("bvp", "--preset", "kreweras", "--z", z, "--target", "q00")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert json.loads(err) == {
                "error": "OutOfRange",
                "message": f"z^2 is not a normal float at z={float(z)}"}, argv
    # at 1.3e154 z^2 is finite but the coefficient -2 z^2 of x^2 is not
    code, out, err = run(capsys, "kernel", "branch-points", "--preset", "simple", "--z", "1.3e154")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "OutOfRange", "message": "the discriminant's coefficients overflow at z=1.3e+154"}
    # at 1e150 z^2 is still a normal float: the true double roots -1 and 1
    code, out, _ = run(capsys, "kernel", "branch-points", "--preset", "simple", "--z", "1e150")
    assert code == 0
    assert sorted(r["re"] for r in json.loads(out)["x_roots"]) == [-1.0, -1.0, 1.0, 1.0]
    # at tiny z the closed-form roots overflow, or come out nan: a typed
    # error, never a traceback or a genus-zero verdict drawn from nan roots
    for z in ("1e-26", "1e-60", "1e-100"):
        for preset in sorted(qwalk.PRESETS):
            for argv in (("kernel", "branch-points"), ("kernel", "trace"), ("bvp", "--target", "q10")):
                argv += ("--preset", preset, "--z", z)
                code, out, err = run(capsys, *argv)
                assert code == 0 or (code, out) == (1, "") and is_qwalk_error_line(err), argv
                if code and json.loads(err)["error"] == "GenusZeroRegime":
                    roots = kernel.disc_roots(steps.preset(preset).mirrored(), float(z))[1]
                    assert all(map(cmath.isfinite, roots)), argv


def test_branch_points_with_roots_decades_apart(capsys):
    # the x-discriminant's roots are 1e-23 (double) and 2.5e45: all normal floats
    code, out, _ = run(capsys, "kernel", "branch-points", "--steps",
                       '{"steps": [[-1, 0], [0, 1], [1, -1]]}', "--z", "1e-23")
    assert code == 0
    moduli = sorted(math.hypot(r["re"], r["im"]) for r in json.loads(out)["x_roots"]
                    if r != "infinity")
    assert moduli[:2] == pytest.approx([1e-23, 1e-23], rel=1e-7)


def test_overflowed_roots_are_out_of_range(capsys):
    # nan roots from the closed forms take the overflow path, not a residual test
    for preset in ("gessel", "gouyou-beauchamps"):
        code, out, err = run(capsys, "kernel", "trace", "--preset", preset, "--z", "1e-100")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "OutOfRange",
                                   "message": "the discriminant's roots overflow at z=1e-100"}


def test_out_of_range_lengths_are_typed_errors(capsys):
    for argv in (("check", "--preset", "simple", "--n", "0"),
                 ("count", "--preset", "simple", "--n", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "OutOfRange", argv


def test_count_memory_guard_is_a_typed_error(capsys, monkeypatch):
    monkeypatch.setattr(qwalk.counting, "_MAX_BYTES", 10_000)
    code, out, err = run(capsys, "count", "--preset", "simple", "--n", "12")
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "ResourceLimit" and "GiB" in error["message"]


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--preset", "simple"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["group", "--preset", "simple", "--seed", "1"])  # the panel is fixed
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # the unit-disc map is the one builtin
        cli.main(["bvp", "--preset", "simple", "--z", "0.2", "--target", "q00",
                  "--cgf", "builtin-circle"])
    assert exc.value.code == 2


def test_every_choice_offers_two_values():
    # a knob with one choice is a constant: it selects nothing
    def actions(parser):
        for action in parser._actions:
            yield parser.prog, action
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)

    found = [(prog, a.dest, list(a.choices)) for prog, a in actions(cli.build_parser())
             if a.choices is not None]
    assert {"command", "preset", "target", "series", "action"} <= {d for _, d, _ in found}
    assert [f for f in found if len(f[2]) < 2] == []


def test_byte_identical_reruns(capsys):
    for argv in (("singularities", "--preset", "gessel"),
                 ("group", "--preset", "gessel"),
                 ("kernel", "branch-points", "--preset", "kreweras", "--z", "0.2"),
                 ("asymptotics", "--preset", "simple", "--series", "q11", "--n", "160")):
        assert run(capsys, *argv) == run(capsys, *argv), argv


def test_exact_subcommands_start_without_numpy():
    # start-up guard: `import qwalk` loads no submodule, and the exact
    # subcommands (series past its first widening of the digits, the
    # branch points and singularities through _ratpoly.roots, asymptotics
    # through its pure-Python fit) load neither numpy nor scipy
    code = """
import contextlib, io, json, sys
import qwalk
loaded = {"package": sorted(m for m in sys.modules if m.startswith("qwalk."))}
import qwalk.errors
from qwalk import cli, kernel, steps
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["group", "--preset", "gessel"],
        ["count", "--preset", "simple", "--n", "8"],
        ["series", "--preset", "kreweras", "--series", "q00", "--n", "30"],
        ["classify", "--preset", "gessel"],
        ["singularities", "--preset", "kreweras"],
        ["kernel", "branch-points", "--preset", "simple", "--z", "0.2"],
        ["asymptotics", "--preset", "simple", "--series", "q11", "--n", "160"],
    )]
loaded["numeric"] = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
print(json.dumps({"codes": codes, **loaded}))
"""
    proc = run_process("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * 7, "package": [], "numeric": []}
