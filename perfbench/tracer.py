"""In-memory span tracing of qwalk calls, installed from outside the package.

The tracer replaces module attributes of qwalk functions with wrappers that
record one span per call (name, start, end, parent span, operation id) and
layer counters.  Every module attribute bound to the same function object is
replaced, so callers that imported the name directly are traced too.  Spans
stay in memory; per-layer metrics are computed from them when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span.  Private callees are listed only
# where a per-layer count needs them.
TRACED = (
    ("counting", "count"),
    ("counting", "series"),
    ("counting", "check_functional_equation"),
    ("asymptotics", "growth_estimate"),
    ("asymptotics", "verify_prediction"),
    ("singularities", "classify_first_singularities"),
    ("singularities", "critical_point"),
    ("singularities", "z_g_via_resultant"),
    ("singularities", "z_X"),
    ("singularities", "z_Y"),
    ("_ratpoly", "sylvester_resultant"),
    ("_ratpoly", "lagrange_interpolate"),
    ("_ratpoly", "isolate_positive_roots"),
    ("group", "group_order"),
    ("group", "psi"),
    ("group", "phi"),
    ("group", "_orbit_exact_returns_at"),
    ("kernel", "kernel_polys"),
    ("kernel", "branch_points"),
    ("kernel", "trace_curve_M"),
    ("kernel", "contour_nodes"),
    ("bvp", "q00_general"),
    ("bvp", "q10_general"),
    ("bvp", "q01_general"),
    ("bvp", "q11_general"),
    ("bvp", "q00_simple"),
    ("bvp", "q10_simple"),
)

CLI_SUBCOMMANDS = (
    "group", "classify", "singularities", "kernel-branch-points", "kernel-trace",
    "bvp", "series", "asymptotics", "count", "check",
)

# Which end-to-end metric each layer should move, on which workload.
LAYER_MOVES = {
    "counting": "enumerate.wall_cal and enumerate.peak_rss_mb; a little census.wall_cal",
    "asymptotics": "enumerate.wall_cal and enumerate.accuracy_err_max",
    "singularities": "census.wall_cal; cli.call_p50_cal for classify/singularities",
    "ratpoly": "census.wall_cal",
    "group": "census.wall_cal",
    "kernel": "analytic.wall_cal and census.wall_cal",
    "bvp": "analytic.wall_cal",
    "cli": "cli.call_p50_cal, cli.call_tail_cal, and setup_s on every workload",
}


def median_call(argv: list[str], repeats: int = 3) -> float:
    """Median wall time of running a command to completion."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _label(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


def _row_shifts(card: int, n_max: int) -> int:
    # each layer n has n + 1 packed rows, each receiving |S| shifted rows
    return sum((n + 1) * card for n in range(1, n_max + 1))


def _packed_mb(card: int, n_max: int) -> float:
    # computed, not measured: (n + 1)^2 cells per layer at the width of |S|^n_max
    bits = math.ceil(n_max * math.log2(max(card, 2)))
    return sum((n + 1) ** 2 for n in range(n_max + 1)) * bits / 8e6


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [label, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._candidates: set[tuple[int, int]] = set()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qwalk" or name.startswith("qwalk.")]
        for mod_name, func in TRACED:
            mod = sys.modules.get(f"qwalk.{mod_name}")
            orig = getattr(mod, func, None)
            if orig is None:
                self.missing.append(_label(mod_name, func))
                continue
            wrapper = self._wrap(_label(mod_name, func), orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        if self.missing:
            sys.stderr.write(f"tracer: not found, counted as 0: {self.missing}\n")

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def _enclosing(self, label: str) -> int:
        for idx in reversed(self.stack):
            if self.spans[idx][0] == label:
                return idx
        return -1

    def _wrap(self, label: str, orig):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            span = [label, time.perf_counter(), None, parent, self.op]
            self.spans.append(span)
            self.stack.append(idx)
            result, raised = None, True
            try:
                result = orig(*args, **kwargs)
                raised = False
                return result
            finally:
                self.stack.pop()
                span[2] = time.perf_counter()
                self._count(label, args, kwargs, result, raised)

        traced.__wrapped__ = orig
        return traced

    def _count(self, label, args, kwargs, result, raised) -> None:
        c = self.counts
        if label == "counting.count":
            s, n_max = args[0], args[1] if len(args) > 1 else kwargs["n_max"]
            c["row_shifts"] += _row_shifts(len(s), n_max)
            c["packed_mb"] += _packed_mb(len(s), n_max)
        elif label == "asymptotics.growth_estimate" and not raised:
            c["fits"] += 1
            c["fits_converged"] += bool(result.converged)
        elif label == "ratpoly.isolate_positive_roots" and not raised:
            c["resultant_candidates"] += len(result)
        elif label == "singularities.z_g_via_resultant" and not raised:
            c["resultant_accepted"] += 1
        elif label in ("group.psi", "group.phi"):
            c["exact_steps"] += 1
        elif label == "group._orbit_exact_returns_at":
            m = args[2] if len(args) > 2 else kwargs["m"]
            self._candidates.add((self._enclosing("group.group_order"), m))
        elif label == "group.group_order" and not raised and result.finite:
            c["certified"] += 1
        elif label == "kernel.contour_nodes":
            c["contour_nodes"] += args[3] if len(args) > 3 else kwargs["m"]
        elif label.startswith("bvp.q") and not raised:
            c["unconverged"] += not math.isfinite(result.quadrature_error_estimate)

    def dump(self, path: str) -> None:
        """Write every span and counter as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts,
                       "not_found": self.missing}, fh)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-label self time (span minus its direct children) and calls."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for idx, (label, start, end, _parent, _op) in enumerate(self.spans):
            self_s[label] += (end - start) - child[idx]
            calls[label] += 1
        return self_s, calls

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer metrics, each per traced job."""
        self_s, calls = self.self_times()
        c = self.counts
        per = 1.0 / max(jobs, 1)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "counting.count.s": self_s["counting.count"] * per,
            "counting.count.calls": calls["counting.count"] * per,
            "counting.count.row_shifts": c["row_shifts"] * per,
            "counting.count.packed_mb": c["packed_mb"] * per,
            "counting.series.s": self_s["counting.series"] * per,
            "counting.check_functional_equation.s":
                self_s["counting.check_functional_equation"] * per,
            "asymptotics.growth_estimate.s": self_s["asymptotics.growth_estimate"] * per,
            "asymptotics.converged_ratio": ratio(c["fits_converged"], c["fits"]),
            "singularities.critical_point.s": self_s["singularities.critical_point"] * per,
            "singularities.z_g_via_resultant.s":
                self_s["singularities.z_g_via_resultant"] * per,
            "singularities.resultant_accept_ratio":
                ratio(c["resultant_accepted"], c["resultant_candidates"]),
            "singularities.classify_first_singularities.s":
                self_s["singularities.classify_first_singularities"] * per,
            "group.group_order.s": self_s["group.group_order"] * per,
            "group.exact_steps": c["exact_steps"] * per,
            "group.certify_ratio": ratio(c["certified"], len(self._candidates)),
            "kernel.kernel_polys.calls": calls["kernel.kernel_polys"] * per,
            "kernel.branch_points.s": self_s["kernel.branch_points"] * per,
            "kernel.trace_curve_M.s": self_s["kernel.trace_curve_M"] * per,
            "bvp.simple_quad.s": (self_s["bvp.q00_simple"] + self_s["bvp.q10_simple"]) * per,
            "bvp.contour_nodes": c["contour_nodes"] * per,
            "bvp.unconverged": c["unconverged"] * per,
        }
        for func in ("sylvester_resultant", "lagrange_interpolate", "isolate_positive_roots"):
            out[f"ratpoly.{func}.s"] = self_s[f"ratpoly.{func}"] * per
        for target in ("q00", "q10", "q01", "q11"):
            out[f"bvp.{target}_general.s"] = self_s[f"bvp.{target}_general"] * per
        return out
