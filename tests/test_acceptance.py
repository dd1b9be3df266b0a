"""Acceptance suite: one test (or parametrized family) per criterion, each
at its stated tolerance, printing a PASS line on success (run with -s).

Criterion 3 includes z = 0.24 with a 120-term series truncation; at that
point the truncation tail of the oracle itself is ~3e-7 (excursions) and
~3e-5 (axis walks), so the stated 1e-8 comparison cannot be met by any
correct implementation.  Those two cases are marked strict-xfail with the
measured gap, and a companion test shows the same quadratures agree with a
400-term truncation to 1e-8, isolating the defect to the truncation budget.
"""

import math
import random

import numpy as np
import pytest

from qwalk import (
    asymptotics,
    bvp,
    counting,
    group,
    kernel,
    singularities as sg,
    steps,
)
from qwalk.errors import NoPositiveSolution
from qwalk.group import RationalPoint
from fractions import Fraction

SIMPLE = steps.preset("simple")


def ok(criterion: str, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: PASS {detail}")


@pytest.fixture(scope="session")
def simple600():
    return counting.count(SIMPLE, 600, dense_max=0)


def genuine_census(min_cardinality=1):
    out = []
    for s in steps.all_step_sets():
        if len(s) < min_cardinality or steps.is_singular(s):
            continue
        if steps.origin_in_hull_interior(s):
            out.append(s)
    return out


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_catalan_identity(simple600):
    for n in range(31):
        assert simple600.q00[2 * n] == counting.catalan(n) * counting.catalan(n + 1)
    ok("criterion 1 (catalan products)", "n <= 30, exact")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_functional_equation():
    models = list(steps.all_step_sets())
    for s in models:
        report = counting.check_functional_equation(s, 20)
        assert report.holds, (s, report.first_mismatch)
    ok("criterion 2 (functional equation)", f"{len(models)} models, degree 20, exact")


# ---------------------------------------------------------------- criterion 3

_TAIL_NOTE = (
    "truncation defect: at z=0.24 the exact 120-term tail is {} "
    "(computed from the DP coefficients), far above the 1e-8 tolerance; "
    "see test_criterion_3_integrals_vs_400_terms for the repaired budget"
)

_C3_CASES = [
    pytest.param("q00", 0.05, id="q00-z0.05"),
    pytest.param("q00", 0.10, id="q00-z0.10"),
    pytest.param("q00", 0.20, id="q00-z0.20"),
    pytest.param(
        "q00", 0.24,
        marks=pytest.mark.xfail(strict=True, reason=_TAIL_NOTE.format("3.095e-7")),
        id="q00-z0.24",
    ),
    pytest.param("q10", 0.05, id="q10-z0.05"),
    pytest.param("q10", 0.10, id="q10-z0.10"),
    pytest.param("q10", 0.20, id="q10-z0.20"),
    pytest.param(
        "q10", 0.24,
        marks=pytest.mark.xfail(strict=True, reason=_TAIL_NOTE.format("2.245e-5")),
        id="q10-z0.24",
    ),
]


@pytest.mark.parametrize("label,z", _C3_CASES)
def test_criterion_3_integral_vs_series(simple600, label, z):
    coeffs = counting.series(simple600, label).coeffs
    truncated = counting.eval_series(coeffs, z, n_terms=120)
    quadrature = (bvp.q00_simple if label == "q00" else bvp.q10_simple)(z)
    assert abs(quadrature.value - truncated) < 1e-8
    ok("criterion 3 (integral vs oracle)", f"{label} at z={z}")


def test_criterion_3_integrals_vs_400_terms(simple600):
    # the quadratures are right: with the tail actually converged the stated
    # tolerance holds at z = 0.24 as well
    for label, fn in (("q00", bvp.q00_simple), ("q10", bvp.q10_simple)):
        coeffs = counting.series(simple600, label).coeffs
        truncated = counting.eval_series(coeffs, 0.24, n_terms=400)
        assert abs(fn(0.24).value - truncated) < 1e-8
    ok("criterion 3 supplement", "z=0.24 vs 400-term truncation")


# ------------------------------------------------------------ criteria 4 to 6

def test_criterion_4_excursion_asymptotics(simple600):
    report = asymptotics.verify_prediction(
        counting.series(simple600, "q00").coeffs, 16.0, -3.0, 4 / math.pi,
        rho_rel_tol=1e-6, alpha_abs_tol=1e-2, const_rel_tol=1e-2,
    )
    assert report.ok, report
    assert report.analysis.stride == 2
    ok("criterion 4 (excursion growth)",
       f"rho dev {report.rho_deviation:.1e}, alpha dev {report.alpha_deviation:.1e}, "
       f"const dev {report.const_deviation:.1e}")


def test_criterion_5_axis_asymptotics(simple600):
    report = asymptotics.verify_prediction(
        counting.series(simple600, "q10").coeffs, 4.0, -2.0, 8 / math.pi,
        rho_rel_tol=1e-6, alpha_abs_tol=1e-2, const_rel_tol=1e-2,
    )
    assert report.ok, report
    ok("criterion 5 (axis growth)",
       f"rho dev {report.rho_deviation:.1e}, const dev {report.const_deviation:.1e}")


def test_criterion_6_total_asymptotics_and_relation(simple600):
    report = asymptotics.verify_prediction(
        counting.series(simple600, "q11").coeffs, 4.0, -1.0, 4 / math.pi,
        rho_rel_tol=1e-6, alpha_abs_tol=1e-2, const_rel_tol=1e-2,
    )
    assert report.ok, report
    # (4 - 1/z) Q(1,1,z) = 2 Q(1,0,z) - 1/z as a truncated series identity:
    # multiply by z and compare coefficients exactly to degree 100
    q11 = counting.series(simple600, "q11").coeffs
    q10 = counting.series(simple600, "q10").coeffs
    for n in range(101):
        lhs = 4 * (q11[n - 1] if n else 0) - q11[n]
        rhs = 2 * (q10[n - 1] if n else 0) - (1 if n == 0 else 0)
        assert lhs == rhs, n
    ok("criterion 6 (total growth + relation)",
       f"rho dev {report.rho_deviation:.1e}; identity exact to degree 100")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_zero_drift_census():
    checked = 0
    for s in steps.all_step_sets():
        if len(s) < 3 or steps.is_singular(s):
            continue
        d = steps.drift(s)
        if not steps.origin_in_hull_interior(s):
            # reducible model: the critical-point system has no solution,
            # which can only happen off the zero-drift locus
            assert (d.m_x, d.m_y) != (0, 0), s
            with pytest.raises(NoPositiveSolution):
                sg.critical_point(s)
            continue
        zg = sg.critical_point(s).z_g
        zr = sg.z_g_via_resultant(s)
        assert abs(zg - zr) < 1e-9, s
        inv = 1.0 / len(s)
        if d.m_x == 0 and d.m_y == 0:
            assert abs(zg - inv) < 1e-12, s
        else:
            assert zg > inv + 1e-12, s
        checked += 1
    assert checked > 100
    ok("criterion 7 (zero-drift census)",
       f"{checked} genuine models, two z_g routes agree to 1e-9")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_sandwich():
    count = 0
    for s in genuine_census():
        zg = sg.critical_point(s).z_g
        inv = 1.0 / len(s)
        for v in (sg.z_Y(s), sg.z_X(s)):
            assert inv - 1e-10 <= v <= zg + 1e-10, s
        count += 1
    ok("criterion 8 (sandwich)", f"1/|S| <= z_Y, z_X <= z_g on {count} models")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_branch_ordering_and_residuals():
    rng = random.Random(99)
    # the all-diagonal model has an even discriminant, so x1 = -x2 exactly
    # and the strict ordering cannot hold; it is the one parity-degenerate
    # genuine model and sits outside this criterion
    pool = [
        s for s in genuine_census()
        if not (kernel.disc_is_even(s, "x") or kernel.disc_is_even(s, "y"))
    ]
    models = rng.sample(pool, 50)
    for s in models:
        kp = kernel.kernel_polys(s)
        inv = 1.0 / len(s)
        for k in range(10):
            z = (0.05 + 0.90 * k / 9) * inv
            bp = kernel.branch_points(s, z)
            assert bp.ordering_asserted, (s, z)
            x1, x2, x3, x4 = bp.x_roots
            assert abs(x1) < x2.real < 1 < x3.real < abs(x4)
            # kernel and Vieta residuals at a random evaluation point
            x = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            y0, y1 = kernel.Y_branches(s, x, z)
            assert abs(kernel.kernel_eval(s, x, y0, z)) < 1e-10 * (1 + abs(x)) ** 2
            if kernel.is_finite_root(y1):
                a = kernel.poly_eval(kp.a, x)
                b = kernel.poly_eval(kp.b, x) - x / z
                c = kernel.poly_eval(kp.c, x)
                assert abs(y0 * y1 - c / a) < 1e-10 * (1 + abs(c / a))
                assert abs(y0 + y1 + b / a) < 1e-10 * (1 + abs(b / a))
    ok("criterion 9 (branch ordering)", "50 models x 10 z, residuals < 1e-10")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_simple_curve():
    for z in (0.1, 0.2):
        tr = kernel.trace_curve_M(SIMPLE, z, m=512)
        assert float(np.max(np.abs(np.abs(tr.points) - 1.0))) < 1e-8
        assert tr.conj_defect < 1e-10
        bp = kernel.branch_points(SIMPLE, z)
        assert kernel.point_in_G_M(SIMPLE, bp.x_roots[0], z, tr) == "inside"
        assert kernel.point_in_G_M(SIMPLE, bp.x_roots[2], z, tr) == "outside"
        assert kernel.winding_number(tr.points, bp.x_roots[0]) in (-1, 1)
        assert kernel.winding_number(tr.points, bp.x_roots[2]) == 0
    ok("criterion 10 (unit-circle trace)", "z in {0.1, 0.2}")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_cauchy_integral(simple600):
    z = 0.2
    cgf = bvp.circle_cgf()
    tr = kernel.trace_curve_M(SIMPLE, z)
    table = counting.count(SIMPLE, 120, dense_max=0)
    for x in (0.3, 0.5j, -0.7):
        got = bvp.qx0_integral(SIMPLE, x, z, cgf, tr)
        want = x * counting.eval_q_x0(table, x, z)  # c(x) = x, c(0) = 0
        assert abs(got - want) < 1e-8, x
    general = bvp.q00_general(SIMPLE, z, cgf)
    assert abs(general.value - bvp.q00_simple(z).value) < 1e-8
    ok("criterion 11 (gluing-function integral)",
       "3 interior points + zero-limit route, 1e-8")


# --------------------------------------------------------------- criterion 12

@pytest.mark.parametrize(
    "name,expected",
    [("simple", 4), ("kreweras", 6), ("gessel", 8), ("gouyou-beauchamps", 8)],
)
def test_criterion_12_group_orders(name, expected):
    s = steps.preset(name)
    res = group.group_order(s, max_half_order=16, seed=12)
    assert res.finite and res.order == expected
    # involutions and the invariant hold exactly on a fresh panel
    rng = random.Random(120 + expected)
    done = 0
    while done < 5:
        p = RationalPoint(
            Fraction(rng.randint(1, 80), rng.randint(1, 80)),
            Fraction(rng.randint(1, 80), rng.randint(1, 80)),
        )
        try:
            assert group.psi(s, group.psi(s, p)) == p
            assert group.phi(s, group.phi(s, p)) == p
            assert group.invariant_check(s, p)
        except group.PoleEncountered:
            continue
        done += 1
    ok(f"criterion 12 (group order, {name})", f"order {res.order}")


# --------------------------------------------------------------- criterion 13

def _row_representatives():
    """Deterministic representatives: for every realizable drift-sign row,
    the census-first genuine model; split rows additionally get one model
    per realizable covariance sign."""
    selected: dict[tuple, steps.StepSet] = {}
    split_rows = {("+", "0"), ("0", "+"), ("0", "-"), ("-", "0")}
    for s in genuine_census(min_cardinality=3):
        d = steps.drift(s)
        sign = lambda v: "+" if v > 0 else ("-" if v < 0 else "0")
        row = (sign(d.m_x), sign(d.m_y))
        keys = [row]
        if row in split_rows:
            keys = [(row, sign(d.covariance))]
        for key in keys:
            if key not in selected:
                selected[key] = s
    return selected


def test_criterion_13_classification_and_growth():
    reps = _row_representatives()
    # every drift row is realizable by some genuine model
    rows = {k if isinstance(k[0], str) else k[0] for k in reps}
    assert len(rows) == 9, rows
    for key, s in sorted(reps.items(), key=str):
        rep = sg.classify_first_singularities(s)
        table = counting.count(s, 400, dense_max=0)
        for label, fs in (("q10", rep.fs_q10), ("q01", rep.fs_q01), ("q11", rep.fs_q11)):
            an = asymptotics.growth_estimate(counting.series(table, label).coeffs)
            per_step = an.rho ** (1.0 / an.stride)
            assert abs(per_step - 1.0 / fs.value) * fs.value < 0.01, (key, s, label, fs)
    ok("criterion 13 (classification table)",
       f"{len(reps)} representatives; growth within 1% of 1/fs for q10/q01/q11")
