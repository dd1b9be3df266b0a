"""Tests of the benchmark itself (not collected by the library's suite):

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from qwalk import counting, steps  # noqa: E402
from worker import Runner, run_jobs  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=True)
    return proc.stdout.strip().splitlines()


def test_every_end_to_end_metric_is_emitted_on_every_workload():
    lines = _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    for w in run.WORKLOADS:
        for name, unit in names.items():
            got = result["metrics"][f"{w}.{name}"]
            assert got["unit"] == unit
            assert got["value"] > 0, (w, name)
            assert f"{w}.{name} {got['value']!r} {unit}" in lines


def test_every_per_layer_metric_is_emitted():
    lines = _bench("--workload", "analytic", "--seed", "3", "--seconds", "1", "--trace", "1")
    result = json.loads(lines[-1])
    assert set(result["metrics"]) == {m["name"] for m in _spec()["per_layer"]}
    assert result["metrics"]["bvp.contour_nodes"]["value"] > 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (tmp_path / "perfbench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0 and proc.stdout == ""


def test_same_seed_same_inputs():
    for cls, inputs in ((workloads.Enumerate, lambda w: w.cases),
                        (workloads.Census, lambda w: w.fracs),
                        (workloads.Analytic, lambda w: (w.pairs, w.simple_z)),
                        (workloads.Cli, lambda w: [r[:2] for r in w.requests])):
        assert inputs(cls(7)) == inputs(cls(7)), cls.__name__
        assert any(inputs(cls(7)) != inputs(cls(seed)) for seed in range(8, 12)), cls.__name__


def _small_enumerate():
    w = workloads.Enumerate(1)
    w.cases = [("simple", steps.preset("simple"), w.N_PRESET), (None, w.cases[-1][1], 40)]
    w.groups = [("simple", [0]), ("8 steps", [1])]
    return w


def test_enumerate_counts_a_wrong_count_as_a_failure(monkeypatch):
    w = _small_enumerate()
    clean = Runner()
    run_jobs(w, clean, 0)
    assert clean.attempted == 2 and clean.failed == 0, clean.failures

    real = counting.count

    def corrupted(s, n_max, dense_max=None):
        table = real(s, n_max, dense_max)
        table.q00[10] += 1
        return table

    monkeypatch.setattr(counting, "count", corrupted)
    runner = Runner()
    run_jobs(_small_enumerate(), runner, 0)
    assert runner.failed == 2, runner.failures  # closed form and exact count both catch it


def test_analytic_counts_a_wrong_value_as_a_failure(monkeypatch):
    w = workloads.Analytic(1)
    w.pairs, w.simple_z = w.pairs[:2], w.simple_z[:1]
    clean = Runner()
    run_jobs(w, clean, 0)
    assert clean.failed == 0, clean.failures

    real = workloads.bvp.q10_simple
    monkeypatch.setattr(workloads.bvp, "q10_simple",
                        lambda z: dataclasses.replace(real(z), value=real(z).value + 1e-6))
    runner = Runner()
    run_jobs(w, runner, 0)
    assert runner.failed == 1, runner.failures


def test_census_checks_catch_a_wrong_report():
    w = workloads.Census(1)
    s = steps.preset("gessel")
    fe, rep, order, bps = w._run(s)
    assert w._check(s, (fe, rep, order, bps)) is None
    assert w._check(s, (fe, dataclasses.replace(rep, z_X=rep.z_g * 1.01), order, bps))
    assert w._check(s, (fe, dataclasses.replace(rep, method_gap=1e-6), order, bps))
    bad_bp = dataclasses.replace(bps[0], x_roots=(bps[0].x_roots[0] + 1e-3,) + bps[0].x_roots[1:])
    assert w._check(s, (fe, rep, order, [bad_bp]))
    orders = {steps.preset("gessel").sorted_steps(): order}
    assert w._census_problem(orders)  # most of the universe is missing


def test_cli_checks_catch_a_wrong_output():
    w = workloads.Cli(1)
    name, argv, expect = next(r for r in w.requests if r[0] == "group")
    good = w.call(argv)
    assert w._check(name, good, expect) is None
    bad = subprocess.CompletedProcess(good.args, 0, good.stdout.replace(b'"order": 8', b'"order": 6'), b"")
    assert w._check("group-again", bad, expect)
    assert w._check(name, bad, expect)  # also differs from the first identical call


@pytest.mark.parametrize("n, pct, index", [(5, 100.0, 4), (39, 100.0, 38), (40, 75.0, 29),
                                           (100, 90.0, 89)])
def test_tail_latency_keeps_ten_samples_beyond(n, pct, index):
    got_pct, value = run.tail_latency([float(k) for k in range(n)])
    assert got_pct == pytest.approx(pct) and value == float(index)
