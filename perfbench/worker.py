"""One workload process: import qwalk, build the seeded inputs, run the job
until the time is up, and print one JSON line of raw measurements.

    PYTHONPATH=src python3 perfbench/worker.py --workload census --seed 1 --seconds 25 --trace 0

Run it through run.py, which turns these measurements into metrics.  With
--setup-only the process stops once its inputs exist and reports when that
was (time.monotonic, which all processes on the machine share).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import numpy
import scipy

import qwalk
from tracer import CLI_SUBCOMMANDS, Tracer, median_call
from workloads import ROOT, WORKLOADS

_MAX_FAILURES_KEPT = 20
_CAL_EVERY = 0.25  # seconds of timed work between calibration samples
_MASK = (1 << 80_000) - 1
_ROWS = [_MASK // (k + 3) for k in range(200)]  # 200 rows of 10 kB


def reference_work() -> None:
    """A fixed mix of the kinds of work qwalk spends its time in: interpreter
    bytecode, shifts and adds of 10 kB integers over a 2 MB working set,
    Fraction arithmetic and numpy operations on short complex arrays."""
    x = 0
    for i in range(15000):
        x += i * i % 7
    for k in range(len(_ROWS) - 1):  # a working set the size of a DP layer
        _ROWS[k] = (_ROWS[k] + (_ROWS[k + 1] >> 64)) & _MASK
    q = Fraction(0)
    for i in range(1, 150):
        q += Fraction(i, i + 7) * Fraction(3, i + 1)
    w = numpy.linspace(0.0, 1.0, 512) + 0.5j
    for _ in range(150):
        w = numpy.sqrt(w * w + 1.0) * 0.5


def calibration_sample() -> float:
    """Seconds the reference work takes right now (best of two)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Runner:
    """Times operations, counts attempts and failures.

    Latencies are kept in seconds and in "cal" units: multiples of the time
    the reference work takes at that moment, from the mean of the
    calibration samples taken just before and just after the operation.
    On a VM whose cores are shared with other tenants the speed of the same
    code can swing by up to 1.6x for seconds to minutes at a time; the ratio
    stays put where seconds do not.
    """

    def __init__(self) -> None:
        self.latencies: list[list[float]] = []  # cal, per job
        self.raw_by_name: dict[str, list[float]] = {}  # seconds
        self.job_cal: list[float] = []
        self.job_raw: list[float] = []
        self.cal_samples = [calibration_sample()]
        self._pending: list[tuple[str, float]] = []
        self._since = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < _MAX_FAILURES_KEPT:
            self.failures.append(f"{name}: {why}")

    def start_job(self) -> None:
        self.latencies.append([])
        self.job_cal.append(0.0)
        self.job_raw.append(0.0)

    def flush(self) -> None:
        """Calibrate, and convert the operations timed since the last sample."""
        sample = calibration_sample()
        unit = (self.cal_samples[-1] + sample) / 2
        self.cal_samples.append(sample)
        for name, dt in self._pending:
            self.latencies[-1].append(dt / unit)
            self.job_cal[-1] += dt / unit
            self.raw_by_name.setdefault(name, []).append(dt)
        self._pending.clear()
        self._since = 0.0

    def op(self, name, fn, check=None):
        """Run fn timed, then check(result) untimed; None on failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # any error on an input chosen to succeed is a failure
            result, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        dt = time.perf_counter() - t0
        self.job_raw[-1] += dt
        self._pending.append((name, dt))
        self._since += dt
        if self._since >= _CAL_EVERY:
            self.flush()
        if problem is None and check is not None:
            problem = check(result)
        if problem is not None:
            self._fail(name, problem)
            return None
        return result

    def check(self, name: str, problem: str | None) -> None:
        """A job-level check with no timed work of its own."""
        self.attempted += 1
        if problem is not None:
            self._fail(name, problem)


def run_jobs(workload, runner: Runner, seconds: float) -> int:
    """Whole jobs while the next one is expected to end within `seconds`
    (at least one); returns how many ran."""
    start = time.monotonic()
    jobs = 0
    while True:
        t0 = time.monotonic()
        runner.start_job()
        workload.job(runner)
        runner.flush()
        jobs += 1
        now = time.monotonic()
        # the first job also builds the references its checks use
        expected = min(now - t0, 1.2 * runner.job_raw[-1])
        if now + expected - start > seconds:
            return jobs


def traced_run(workload, runner: Runner, name: str, seconds: float, dump_to: str) -> dict:
    """Half the time untraced, half traced; per-layer metrics per traced job.
    The spans are written to `dump_to` at the end."""
    untraced = run_jobs(workload, runner, seconds / 2)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    mark = {k: len(v) for k, v in runner.raw_by_name.items()}
    try:
        traced = run_jobs(workload, runner, seconds / 2)
    finally:
        tracer.uninstall()
        runner.tracer = None
    tracer.dump(dump_to)
    layers = tracer.layer_metrics(traced)
    layers["trace.overhead_cal"] = (statistics.median(runner.job_cal[untraced:])
                                    - statistics.median(runner.job_cal[:untraced]))
    layers["cli.interp_s"] = median_call([sys.executable, "-c", "pass"])
    layers["cli.import_s"] = median_call([sys.executable, "-c", "import qwalk"])
    for sub in CLI_SUBCOMMANDS:
        calls = runner.raw_by_name.get(sub, [])[mark.get(sub, 0):] if name == "cli" else []
        layers[f"cli.{sub}.s"] = statistics.median(calls) if calls else 0.0
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    runner = Runner()
    layers = None
    if args.trace:
        dump_to = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-seed{args.seed}.json")
        layers = traced_run(workload, runner, args.workload, args.seconds, dump_to)
    else:
        run_jobs(workload, runner, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux

    print(json.dumps({
        "ready": ready,
        "job_cal": runner.job_cal,
        "job_raw_s": runner.job_raw,
        "latencies": runner.latencies,
        "cal_sample_s": statistics.median(runner.cal_samples),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "accuracy_err_max": workload.accuracy,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "qwalk": qwalk.__version__},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
