"""The four benchmark workloads: seeded inputs, timed jobs and their checks.

A workload object is built from the seed alone (that is the set-up), then
runs its fixed job any number of times through a Runner.  Each operation is
timed on its own; its check runs afterwards, outside the timed region, and
compares the result with references from `oracles` only.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

import oracles
from qwalk import asymptotics, bvp, counting, group, kernel, singularities, steps

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def genuine(s) -> bool:
    """Non-singular with the origin strictly inside the hull of the steps."""
    return not steps.is_singular(s) and steps.origin_in_hull_interior(s)


def _first_problem(problems):
    return next((p for p in problems if p), None)


class Enumerate:
    """Exact counts at large n, then asymptotic fits of all four series."""

    N_PRESET = 200
    N_SEEDED = 136  # >= 32 terms per fit even for stride-4 supports
    PER_SIZE = 8  # seeded step sets per size |S| = 3..7 (size 8 is the king walk)
    N_EXACT = 60  # seeded sets are counted exactly here up to this n, in float64 beyond
    RHO_TOL, ALPHA_TOL, CONST_TOL = 1e-6, 1e-3, 1e-3

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        pool: dict[int, list] = {}
        for s in steps.all_step_sets():
            if genuine(s):
                pool.setdefault(len(s), []).append(s)
        self.cases = [(name, steps.preset(name), self.N_PRESET) for name in sorted(steps.PRESETS)]
        # an operation is one preset, or the seeded sets of one size together:
        # their summed cost varies far less from seed to seed than one set's
        self.groups = [(name, [k]) for k, name in enumerate(sorted(steps.PRESETS))]
        for size, sets in sorted(pool.items()):
            # one set per stratum of the cost-ordered pool, so that every
            # seed draws the same spread of DP costs
            sets.sort(key=lambda s: (oracles.dp_cost_proxy(s.sorted_steps()), s.sorted_steps()))
            k = min(self.PER_SIZE, len(sets))
            first = len(self.cases)
            for stratum in range(k):
                lo, hi = len(sets) * stratum // k, len(sets) * (stratum + 1) // k
                self.cases.append((None, sets[rng.randrange(lo, hi)], self.N_SEEDED))
            self.groups.append((f"{size} steps", list(range(first, len(self.cases)))))
        self._refs: dict[int, dict] = {}
        self.accuracy = 0.0

    def job(self, runner) -> None:
        for label, idxs in self.groups:
            runner.op(f"enumerate {label}",
                      lambda idxs=idxs: [self._run(*self.cases[k]) for k in idxs],
                      lambda results, idxs=idxs: _first_problem(
                          self._check(k, res) for k, res in zip(idxs, results)))

    @staticmethod
    def _run(name, s, n):
        table = counting.count(s, n, dense_max=0)
        ser = {lab: counting.series(table, lab).coeffs for lab in oracles.SERIES}
        laws = {lab: asymptotics.verify_prediction(ser[lab], rho, alpha, const)
                for lab, rho, alpha, const in oracles.KNOWN_LAWS.get(name, ())}
        fits = {lab: asymptotics.growth_estimate(ser[lab])
                for lab in oracles.SERIES if lab not in laws}
        return ser, laws, fits

    def _reference(self, idx: int) -> dict:
        if idx not in self._refs:
            name, s, n = self.cases[idx]
            pts = s.sorted_steps()
            ref = {"float": oracles.walk_series(pts, n, exact=False)}
            if name is None:
                ref["exact"] = oracles.walk_series(pts, min(n, self.N_EXACT), exact=True)
            else:
                ref["exact"] = {lab: f(n) for (p, lab), f in oracles.CLOSED_FORMS.items()
                                if p == name}
            self._refs[idx] = ref
        return self._refs[idx]

    def _check(self, idx: int, res):
        name, s, n = self.cases[idx]
        ser, laws, fits = res
        ref = self._reference(idx)
        for lab in oracles.SERIES:
            got = list(ser[lab])
            if len(got) != n + 1:
                return f"{lab}: {len(got)} terms, expected {n + 1}"
            exact = [int(v) for v in ref["exact"].get(lab, ())]
            if got[:len(exact)] != exact:
                bad = next(k for k, (a, b) in enumerate(zip(got, exact)) if a != b)
                return f"{lab}[{bad}] = {got[bad]}, exact value {exact[bad]}"
            if len(exact) == len(got):
                continue
            probs = ref["float"][lab]
            gap = max(oracles.relative_gap(c, float(p), len(s), k)
                      for k, (c, p) in enumerate(zip(got, probs)))
            if gap > 1e-10:
                return f"{lab}: relative gap {gap:.2e} to the float64 count"
        for lab, rho, alpha, const in oracles.KNOWN_LAWS.get(name, ()):
            an = laws[lab].analysis
            d_alpha = abs(an.alpha - alpha)
            self.accuracy = max(self.accuracy, d_alpha)
            if (abs(an.rho - rho) > self.RHO_TOL * rho or d_alpha > self.ALPHA_TOL
                    or abs(an.const_estimate - const) > self.CONST_TOL * const):
                return f"{lab}: fit {(an.rho, an.alpha, an.const_estimate)} vs law {(rho, alpha, const)}"
        for lab, an in fits.items():
            # c_n <= |S|^n bounds rho; a fit that reports convergence must
            # respect it up to its own estimation error
            if not (math.isfinite(an.rho) and math.isfinite(an.alpha) and an.rho > 0):
                return f"{lab}: fit rho {an.rho} alpha {an.alpha}"
            if an.converged and an.rho > len(s) ** an.stride * 1.01:
                return f"{lab}: converged fit rho {an.rho} above |S|^stride"
        return None


class Census:
    """The whole finite universe: 255 step sets, 131 genuine, 74 classes."""

    FE_DEGREE = 20
    FLOOR = 1e-10  # accuracy_err_max resolution: the z_g routes agree to 1e-9

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.sets = list(steps.all_step_sets())
        self.fracs = sorted(round(rng.uniform(0.1, 0.9), 6) for _ in range(3))
        self.accuracy = self.FLOOR

    def job(self, runner) -> None:
        orders = {}
        for s in self.sets:
            if genuine(s):
                res = runner.op(f"census {s}", lambda s=s: self._run(s),
                                lambda res, s=s: self._check(s, res))
                if res is not None:
                    orders[s.sorted_steps()] = res[2]
        # the other 124 sets only get the functional-equation check, as one
        # operation so that per-operation latency describes a full analysis
        others = [s for s in self.sets if not genuine(s)]
        runner.op("census functional equation, other sets",
                  lambda: [counting.check_functional_equation(s, self.FE_DEGREE) for s in others],
                  lambda reps: _first_problem(
                      None if fe.holds else f"{s}: mismatch {fe.first_mismatch}"
                      for s, fe in zip(others, reps)))
        runner.check("census group orders", self._census_problem(orders))

    def _run(self, s):
        fe = counting.check_functional_equation(s, self.FE_DEGREE)
        rep = singularities.classify_first_singularities(s)
        order = group.group_order(s)
        bps = [kernel.branch_points(s, f / len(s)) for f in self.fracs]
        return fe, rep, order, bps

    def _check(self, s, res):
        fe, rep, order, bps = res
        pts = s.sorted_steps()
        inv = 1.0 / len(s)
        self.accuracy = max(self.accuracy, rep.method_gap)
        zero_drift = oracles.drift(pts) == (0, 0)
        return _first_problem((
            None if fe.holds else f"functional equation mismatch {fe.first_mismatch}",
            None if rep.method_gap < 1e-9 else f"z_g routes differ by {rep.method_gap}",
            None if zero_drift == (abs(rep.z_g - inv) < 1e-12) else
            f"z_g {rep.z_g} vs 1/|S| {inv} with drift {oracles.drift(pts)}",
            None if zero_drift or rep.z_g > inv + 1e-12 else f"z_g {rep.z_g} <= 1/|S|",
            None if all(inv - 1e-10 <= v <= rep.z_g + 1e-10 for v in (rep.z_X, rep.z_Y))
            else f"sandwich fails: z_X {rep.z_X}, z_Y {rep.z_Y}, z_g {rep.z_g}",
            None if order.finite is False or order.order in (4, 6, 8) else f"order {order}",
            *(self._branch_problem(pts, bp) for bp in bps),
        ))

    @staticmethod
    def _branch_problem(pts, bp):
        for axis, roots in (("x", bp.x_roots), ("y", bp.y_roots)):
            if len(roots) != 4:
                return f"{len(roots)} {axis}-branch points at z={bp.z}"
            disc = oracles.discriminant(pts, bp.z, axis)
            for r in roots:
                if math.isfinite(r.real) and oracles.root_residual(disc, r) > 1e-9:
                    return f"{axis}-branch point {r} is not a discriminant root at z={bp.z}"
        return None

    def _census_problem(self, orders):
        if len(orders) != sum(1 for s in self.sets if genuine(s)):
            return "group orders missing for some genuine step sets"
        classes: dict[object, int] = {}
        for pts, res in orders.items():
            mirror = tuple(sorted((j, i) for i, j in pts))
            value = res.order if res.finite else "exceeds"
            mirror_res = orders[mirror]
            if (mirror_res.order if mirror_res.finite else "exceeds") != value:
                return f"{pts} and its mirror have different group orders"
            if pts <= mirror:
                classes[value] = classes.get(value, 0) + 1
        if classes != oracles.CLASS_ORDER_CENSUS:
            return f"class census {classes}, expected {oracles.CLASS_ORDER_CENSUS}"
        for name, want in oracles.PRESET_GROUP_ORDERS.items():
            got = orders[steps.preset(name).sorted_steps()]
            if got.order != want:
                return f"{name}: group order {got.order}, expected {want}"
        return None


class Analytic:
    """Generating-function values from the boundary-value integrals."""

    ANCHOR = 0.5  # z = 0.5/|S|: every circle-glued model glues here
    # fractions of 1/|S|, each jittered by the seed.  Below about 0.17/|S|
    # q00_general/q10_general return nan or raise on 5 of these models
    GRID = (0.25, 0.45, 0.65, 0.85)
    JITTER = 0.03
    SIMPLE_POINTS = 24
    TOL = 1e-8
    FLOOR = 1e-9  # accuracy_err_max resolution: bvp converges to 1e-9
    TAIL = 1e-11

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.cgf = bvp.circle_cgf()
        self.pairs = []
        for s in steps.all_step_sets():
            if not genuine(s):
                continue
            # a step set symmetric under x -> -x has the unit circle as its
            # x-plane curve; one also symmetric under y -> -y in the y-plane too
            pts = set(s.steps)
            if any(((1, j) in pts) != ((-1, j) in pts) for j in (-1, 0, 1)):
                continue
            both = all(((i, 1) in pts) == ((i, -1) in pts) for i in (-1, 0, 1))
            fracs = [self.ANCHOR] + [f + rng.uniform(-self.JITTER, self.JITTER) for f in self.GRID]
            for f in fracs:
                self.pairs.append((s, f / len(s), both, f == self.ANCHOR))
        simple = steps.preset("simple")
        self.simple_z = [0.25 * (0.02 + 0.8 * (k + rng.random()) / self.SIMPLE_POINTS)
                         for k in range(self.SIMPLE_POINTS)]
        r_max = max([len(s) * z for s, z, _, _ in self.pairs] + [4 * z for z in self.simple_z])
        self.n_ref = oracles.terms_for_tail(r_max, self.TAIL)
        self.simple = simple
        self._refs: dict[tuple, dict] = {}
        self.accuracy = self.FLOOR

    def job(self, runner) -> None:
        for s, z, both, anchor in self.pairs:
            runner.op(f"trace {s} z={z}", lambda s=s, z=z: kernel.trace_curve_M(s, z),
                      lambda tr, s=s: self._trace_problem(s, tr))
            targets = [("q00", bvp.q00_general), ("q10", bvp.q10_general)]
            if both:
                targets += [("q01", bvp.q01_general), ("q11", bvp.q11_general)]
            for lab, fn in targets:
                runner.op(f"{lab}_general {s} z={z}", lambda s=s, z=z, fn=fn: fn(s, z, self.cgf),
                          lambda gf, s=s, lab=lab, anchor=anchor: self._value_problem(s, lab, gf, anchor))
        for z in self.simple_z:
            for lab, fn in (("q00", bvp.q00_simple), ("q10", bvp.q10_simple)):
                runner.op(f"{lab}_simple z={z}", lambda z=z, fn=fn: fn(z),
                          lambda gf, lab=lab: self._value_problem(self.simple, lab, gf, False))

    def _probs(self, s) -> dict:
        key = s.sorted_steps()
        if key not in self._refs:
            self._refs[key] = oracles.walk_series(key, self.n_ref, exact=False)
        return self._refs[key]

    def _value_problem(self, s, lab, gf, anchor):
        r = len(s) * gf.z
        want = oracles.series_value(self._probs(s)[lab], r, self.n_ref)
        err = abs(gf.value - want)
        if anchor:
            self.accuracy = max(self.accuracy, err)
        tail = r ** (self.n_ref + 1) / (1 - r)
        if not err <= self.TOL + tail:
            return f"{lab} at z={gf.z}: {gf.value} vs series {want} (tail {tail:.1e})"
        return None

    @staticmethod
    def _trace_problem(s, tr):
        pts = s.sorted_steps()
        for y in (tr.y1, tr.y2):
            if oracles.root_residual(oracles.discriminant(pts, tr.z, "y"), y) > 1e-9:
                return f"slit end {y} is not a y-branch point"
        ys = oracles.kernel_y_roots(pts, tr.points, tr.z)
        width = 1e-6 * (1 + abs(tr.y2 - tr.y1))
        off = (abs(ys.imag) + ((tr.y1 - ys.real).clip(0)) + ((ys.real - tr.y2).clip(0)))
        worst = float(off.min(axis=0).max())
        if not worst <= width:
            return f"a traced point is {worst:.1e} off the slit [{tr.y1}, {tr.y2}]"
        return None


class Cli:
    """One client running `python -m qwalk.cli` subcommands back to back."""

    def __init__(self, seed: int) -> None:
        simple_steps = steps.to_json(steps.preset("simple"))
        self.requests = [
            ("group", ["group", "--preset", "gessel"], _expect_group),
            ("classify", ["classify", "--preset", "gessel"], _expect_classify),
            ("singularities", ["singularities", "--steps", simple_steps], _expect_singularities),
            ("kernel-branch-points", ["kernel", "branch-points", "--preset", "simple", "--z", "0.2"],
             _expect_branch_points),
            ("kernel-trace", ["kernel", "trace", "--preset", "simple", "--z", "0.2", "--points", "64"],
             _expect_trace),
            ("bvp", ["bvp", "--preset", "simple", "--z", "0.2", "--target", "q00"], _expect_bvp),
            ("series", ["series", "--preset", "kreweras", "--series", "q00", "--n", "30"],
             _expect_series),
            ("asymptotics", ["asymptotics", "--preset", "simple", "--series", "q11", "--n", "160"],
             self._expect_asymptotics),
            ("count", ["count", "--preset", "simple", "--n", "8"], _expect_count),
            ("check", ["check", "--preset", "simple", "--n", "60"], _expect_check),
        ]
        random.Random(seed).shuffle(self.requests)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self._first: dict[str, bytes] = {}
        self.accuracy = 0.0

    def job(self, runner) -> None:
        for name, argv, expect in self.requests:
            runner.op(name, lambda argv=argv: self.call(argv),
                      lambda proc, name=name, expect=expect: self._check(name, proc, expect))

    def call(self, argv):
        return subprocess.run([sys.executable, "-m", "qwalk.cli", *argv], cwd=ROOT, env=self.env,
                              capture_output=True, timeout=120, check=False)

    def _check(self, name, proc, expect):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
        first = self._first.setdefault(name, proc.stdout)
        if first != proc.stdout:
            return "stdout differs from the previous identical call"
        try:
            return expect(proc.stdout.decode())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def _expect_asymptotics(self, out):
        d = json.loads(out)
        rho, alpha, const = 4.0, -1.0, 4 / math.pi  # simple walk, all walks
        self.accuracy = max(self.accuracy, abs(d["alpha"] - alpha))
        if abs(d["rho"] - rho) > 1e-5 * rho or abs(d["alpha"] - alpha) > 1e-2 \
                or abs(d["const_estimate"] - const) > 1e-2 * const:
            return f"fit {(d['rho'], d['alpha'], d['const_estimate'])} vs law {(rho, alpha, const)}"
        return None


def _expect_group(out):
    return None if json.loads(out)["order"] == oracles.PRESET_GROUP_ORDERS["gessel"] else out


def _expect_classify(out):
    d = json.loads(out)  # Gessel has zero drift: Q(1,1,z) is singular first at 1/|S| = 1/4
    ok = d["drift_sign"] == ["0", "0"] and d["fs_q11"]["label"] == "1/|S|" \
        and abs(d["fs_q11"]["value"] - 0.25) < 1e-15
    return None if ok else out


def _expect_singularities(out):
    d = json.loads(out)  # simple walk: critical point (1, 1), z_g = 1/4
    ok = abs(d["z_g"] - 0.25) < 1e-12 and d["method_gap"] < 1e-9 \
        and abs(d["critical_point"]["alpha"] - 1) < 1e-9
    return None if ok else out


def _expect_branch_points(out):
    # simple walk: d(x) = (1 + x^2 - x/z)^2 - 4x^2, roots of x^2 - (1/z +- 2) x + 1
    z = 0.2
    want = sorted((m - sq) / 2 if k == 0 else (m + sq) / 2
                  for m in (1 / z + 2, 1 / z - 2)
                  for sq in [math.sqrt(m * m - 4)] for k in (0, 1))
    d = json.loads(out)
    got = [r["re"] for r in d["x_roots"]] + [r["re"] for r in d["y_roots"]]
    ok = d["ordering_asserted"] and len(got) == 8 and all(
        abs(g - w) < 1e-10 * w for g, w in zip(got, want + want))
    return None if ok else f"branch points {got}, expected {want} twice"


def _expect_trace(out):
    lines = out.strip().splitlines()
    pts = [complex(float(a), float(b)) for a, b in (ln.split(",") for ln in lines[1:])]
    # the simple walk's curve is the unit circle
    ok = lines[0] == "re,im" and len(pts) == 65 and all(abs(abs(t) - 1) < 1e-8 for t in pts)
    return None if ok else "traced points are not on the unit circle"


def _expect_bvp(out):
    z = 0.2
    want = math.fsum(c * z ** n for n, c in enumerate(oracles.simple_q00(400)))
    got = json.loads(out)["value"]
    return None if abs(got - want) < 1e-8 else f"Q(0,0,{z}) = {got}, series {want}"


def _expect_series(out):
    got = [int(c) for c in json.loads(out)["coefficients"]]
    return None if got == oracles.kreweras_q00(30) else "Kreweras excursion counts differ"


def _expect_count(out):
    layers = json.loads(out)["layers"]
    q00, q11 = oracles.simple_q00(8), oracles.simple_q11(8)
    for n in range(9):
        cells = {k: int(v) for k, v in layers[str(n)].items()}
        if cells.get("0,0", 0) != q00[n] or sum(cells.values()) != q11[n]:
            return f"layer {n} disagrees with the closed forms"
    return None


def _expect_check(out):
    d = json.loads(out)
    return None if d["ok"] and len(d["results"]) >= 5 else out


WORKLOADS = {"enumerate": Enumerate, "census": Census, "analytic": Analytic, "cli": Cli}
