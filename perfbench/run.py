"""qwalk benchmark: one workload per call, metrics on stdout.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (the package is imported from ./src).  Each
workload runs in fresh interpreters (worker.py).  With --trace 0 the
end-to-end metrics of BENCHMARK.json are printed, with --trace 1 the
per-layer ones; one "name value unit" line each, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  Uses only the standard
library, so it starts before anything of qwalk is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracer import LAYER_MOVES, median_call

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("enumerate", "census", "analytic", "cli")
SETUP_REPEATS = 3  # set-up-only interpreters, plus the measuring one
RUN_TIMEOUT = 170.0  # seconds for all the interpreters of one workload


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _worker(workload: str, seed: int, seconds: int, trace: int, setup_only: bool,
            deadline: float) -> tuple[float, dict]:
    """Run one worker; (monotonic time it was started, its JSON output)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    started = time.monotonic()
    # own process group, so a timeout also ends the worker's children
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - started, 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    return started, json.loads(out.decode().strip().splitlines()[-1])


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples above it; the maximum when that percentile would be below the
    75th (fewer than 40 samples)."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k + 1 < 0.75 * len(ordered):
        return 100.0, ordered[-1]
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout carries no history
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            started, res = _worker(workload, seed, seconds, trace, True, deadline)
            setups.append(res["ready"] - started)
    started, res = _worker(workload, seed, seconds, trace, False, deadline)
    setups.append(res["ready"] - started)

    attempted, failed = res["attempted"], res["failed"]
    # the tail is taken per job, whose operations are fixed, and its median
    # over jobs reported: pooled, its percentile would move with the job count
    tails = [tail_latency(job) for job in res["latencies"]]
    pct, tail = tails[0][0], statistics.median(t for _, t in tails)
    if trace:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_cal": statistics.median(res["job_cal"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "call_p50_cal": statistics.median(x for job in res["latencies"] for x in job),
            "call_tail_cal": tail,
            "success_rate": 1.0 - failed / attempted,
            "accuracy_err_max": res["accuracy_err_max"],
        }
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "job_cal": res["job_cal"], "job_raw_s": res["job_raw_s"],
        "cal_sample_s": res["cal_sample_s"],
        "samples": sum(len(job) for job in res["latencies"]),
        "tail_percentile": pct, "setup_samples": setups,
        "failures": res["failures"], **res["versions"],
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "git_commit": _git_commit(),
        "python_c_pass_s": median_call([sys.executable, "-c", "pass"]),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "meta": meta}


def _emit(result: dict, units: dict[str, str], prefix: str = "") -> dict:
    out = {}
    for name, unit in units.items():
        if name not in result["metrics"]:
            raise BenchError(f"metric {name} was not measured")
        value = result["metrics"][name]
        moves = LAYER_MOVES.get(name.split(".")[0])
        print(f"{prefix}{name} {value!r} {unit}" + (f"  (moves {moves})" if moves else ""))
        out[prefix + name] = {"value": value, "unit": unit}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="qwalk benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qwalk", "__init__.py")):
        sys.stderr.write("run.py: no qwalk sources under ./src; run from a qwalk checkout\n")
        return 2
    # One core for the benchmark and everything it starts, so that the CLI
    # subprocesses run where the client takes its calibration samples.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
        print("meta " + json.dumps({w: r["meta"] for w, r in results.items()}, sort_keys=True))
        metrics = {}
        for w, r in results.items():
            metrics.update(_emit(r, units, prefix=f"{w}." if len(names) > 1 else ""))
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
