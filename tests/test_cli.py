import json
import os
import subprocess
import sys

import pytest

import qwalk
from qwalk import cli


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


def test_kernel_trace_csv(capsys):
    code, out, _ = run(capsys, "kernel", "trace", "--preset", "simple", "--z", "0.2",
                       "--points", "64")
    rows = out.strip().splitlines()
    assert rows[0] == "re,im"
    assert len(rows) == 66  # 64 points, closed polyline has m+1 vertices
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


def test_bvp_error_is_structured(capsys):
    code, out, err = run(capsys, "bvp", "--preset", "kreweras", "--z", "0.2",
                         "--target", "q00")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert "error" in payload


def test_unconverged_bvp_error_is_the_only_stderr_line():
    # non-finite contour sums: the simple walk's slit is about 1e-4 wide at
    # z = 0.005 (dK/dx cancels to 0), and a boundary-integral node of the
    # second model lands on the Cauchy pole; no numpy warning may precede
    # the structured error
    for source in (("--preset", "simple", "--z", "0.005"),
                   ("--steps", '{"steps": [[-1,1],[0,-1],[0,1],[1,1]]}', "--z", "0.0625")):
        proc = run_process("-W", "default", "-m", "qwalk.cli", "bvp", *source,
                           "--target", "q11")
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "QuadratureNotConverged"


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


def test_steps_file_source(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"steps": [[-1,0],[0,-1],[1,1]]}')
    code, out, _ = run(capsys, "group", "--steps-file", str(path))
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_bad_values_are_structured_errors(capsys):
    code, out, err = run(capsys, "kernel", "trace", "--preset", "simple",
                         "--z", "0.2", "--points", "4")
    assert code == 1 and json.loads(err)["error"] == "ValueError"
    code, out, err = run(capsys, "kernel", "trace", "--preset", "simple", "--z", "0.26")
    assert code == 1 and json.loads(err)["error"] == "GenusZeroRegime"


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


def test_byte_identical_reruns(capsys):
    a = run(capsys, "singularities", "--preset", "gessel")
    b = run(capsys, "singularities", "--preset", "gessel")
    assert a == b
    c = run(capsys, "group", "--preset", "gessel", "--seed", "7")
    d = run(capsys, "group", "--preset", "gessel", "--seed", "7")
    assert c == d


def test_cli_import_loads_no_scipy():
    # start-up guard: every subcommand pays for what `import qwalk.cli` loads
    code = ("import qwalk.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = run_process("-c", code)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"
