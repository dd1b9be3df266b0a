import cmath
import math

import numpy as np
import pytest

from qwalk import bvp, counting, kernel, steps
from qwalk.errors import (
    CGFUnavailable,
    OutOfRange,
    PointOutsideDomain,
    QuadratureNotConverged,
    RemovableSingularity,
)

SIMPLE = steps.preset("simple")
# left-right symmetric model with c(x) = 1 + x^2: unit-circle curve, roots +-i
LRS = steps.parse_step_set([(-1, -1), (1, -1), (0, 1)])


@pytest.fixture(scope="module")
def simple_table():
    return counting.count(SIMPLE, 140, dense_max=0)


@pytest.fixture(scope="module")
def lrs_table():
    return counting.count(LRS, 200, dense_max=0)


def series_value(table, label, z):
    return counting.eval_series(counting.series(table, label).coeffs, z)


# --------------------------------------------------------------- closed forms

def test_q00_simple_limit_at_zero():
    assert bvp.q00_simple(1e-9).value == pytest.approx(1.0, abs=1e-8)
    assert bvp.q00_simple(0.0).value == pytest.approx(1.0, abs=1e-12)


def test_q00_simple_matches_series(simple_table):
    for z in (0.05, 0.1, 0.2):
        oracle = series_value(simple_table, "q00", z)
        got = bvp.q00_simple(z)
        assert got.value == pytest.approx(oracle, abs=1e-9)
        assert got.quadrature_error_estimate < 1e-11


def test_q00_simple_is_even():
    for z in (0.07, 0.13, 0.22):
        assert bvp.q00_simple(z).value == pytest.approx(bvp.q00_simple(-z).value, rel=1e-14)


def test_q10_simple_limit_and_series(simple_table):
    assert bvp.q10_simple(1e-9).value == pytest.approx(1.0, abs=1e-8)
    for z in (0.05, 0.1, 0.2):
        oracle = series_value(simple_table, "q10", z)
        assert bvp.q10_simple(z).value == pytest.approx(oracle, abs=1e-9)


def test_out_of_range():
    for bad in (0.25, 0.3, -0.25):
        with pytest.raises(OutOfRange):
            bvp.q00_simple(bad)
        with pytest.raises(OutOfRange):
            bvp.q10_simple(bad)


def test_q00_simple_exact_at_zero():
    # g(u, 0) = 2 and the second-kind weights sum to pi/2
    assert bvp.q00_simple(0.0).value == 1.0


def test_closed_forms_converge_next_to_the_radius():
    for z in (0.2499, -0.2499):
        for fn in (bvp.q00_simple, bvp.q10_simple):
            gf = fn(z)
            assert math.isfinite(gf.value)
            assert gf.quadrature_error_estimate <= 1e-12


def test_closed_forms_match_gluing_route():
    # independent route: contour integral of t Y0 w'/(w - w(x)) on the curve
    z = 0.245
    cgf = bvp.circle_cgf()
    assert abs(bvp.q00_simple(z).value - bvp.q00_general(SIMPLE, z, cgf).value) < 1e-8
    assert abs(bvp.q10_simple(z).value - bvp.q10_general(SIMPLE, z, cgf).value) < 1e-8


def test_closed_form_non_finite_sum_raises():
    for fn in (bvp.q00_simple, bvp.q10_simple):
        with pytest.raises(QuadratureNotConverged):
            fn(math.nan)


def test_general_route_reports_unconverged_contour():
    # the contour sums are nan this close to z = 0; the node cap is reached
    # and reported as a typed failure instead of a nan value
    with pytest.raises(QuadratureNotConverged):
        bvp.q00_general(SIMPLE, 0.005, bvp.circle_cgf())


def test_q11_from_relation(simple_table):
    z = 0.1
    q10 = series_value(simple_table, "q10", z)
    q00 = series_value(simple_table, "q00", z)
    got = bvp.q11_from_relation(SIMPLE, z, q10, q10, q00)
    oracle = series_value(simple_table, "q11", z)
    assert got.value == pytest.approx(oracle, abs=1e-9)
    # (4 - 1/z) Q(1,1,z) = 2 Q(1,0,z) - 1/z for the simple walk
    assert (4 - 1 / z) * got.value == pytest.approx(2 * q10 - 1 / z, rel=1e-12)


def test_q11_relation_z_to_zero():
    assert bvp.q11_from_relation(SIMPLE, 1e-7, 1.0, 1.0, 1.0).value == pytest.approx(
        1.0, abs=1e-5
    )


def test_q11_removable_singularity_raises():
    with pytest.raises(RemovableSingularity):
        bvp.q11_from_relation(SIMPLE, 0.25, 1.0, 1.0, 1.0)


# ----------------------------------------------------------------- circle CGF

def test_circle_cgf_real_on_circle():
    cgf = bvp.circle_cgf()
    for theta in np.linspace(0, 2 * math.pi, 17):
        t = cmath.exp(1j * theta)
        w = cgf.w(t, 0.2)
        assert w == pytest.approx(2 * math.cos(theta), abs=1e-12)
        assert cgf.w(t, 0.2) == pytest.approx(cgf.w(t.conjugate(), 0.2), abs=1e-12)


def test_circle_cgf_maps_disc_to_cut_plane():
    # images of interior points avoid the real segment [-2, 2]
    cgf = bvp.circle_cgf()
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = complex(*(rng.uniform(-1, 1, 2)))
        if abs(t) >= 0.999 or abs(t) < 1e-3:
            continue
        w = cgf.w(t, 0.2)
        on_segment = abs(w.imag) < 1e-12 and -2 <= w.real <= 2
        assert not on_segment, t


def test_circle_cgf_pole_data():
    cgf = bvp.circle_cgf()
    t = 1e-7
    assert cgf.w(t, 0.2) * t == pytest.approx(cgf.pole_residue, rel=1e-6)
    assert cgf.pole_const == 0.0


def test_gluing_defect_rejects_wrong_domain():
    # the kreweras curve is not the unit circle
    tr = kernel.trace_curve_M(steps.preset("kreweras"), 0.2)
    assert bvp.gluing_defect(bvp.circle_cgf(), tr, 0.2) > 1e-3
    with pytest.raises(CGFUnavailable):
        bvp.qx0_integral(steps.preset("kreweras"), 0.1, 0.2, bvp.circle_cgf(), tr)


# --------------------------------------------------------- boundary condition

def test_boundary_condition_on_circle(simple_table):
    # c(t)Q(t,0,z) - c(conj t)Q(conj t,0,z) = (t Y0(t) - conj t Y0(conj t))/z
    z = 0.2
    for theta in np.linspace(0.05, math.pi - 0.05, 32):
        t = cmath.exp(1j * theta)
        lhs = t * counting.eval_q_x0(simple_table, t, z) - t.conjugate() * counting.eval_q_x0(
            simple_table, t.conjugate(), z
        )
        y_t = kernel.Y_branches(SIMPLE, t, z)[0]
        y_tb = kernel.Y_branches(SIMPLE, t.conjugate(), z)[0]
        rhs = (t * y_t - t.conjugate() * y_tb) / z
        assert abs(lhs - rhs) < 1e-7


# ------------------------------------------------------------ cauchy integral

def test_qx0_integral_matches_series(simple_table):
    z = 0.2
    cgf = bvp.circle_cgf()
    tr = kernel.trace_curve_M(SIMPLE, z)
    for x in (0.3, 0.5j, -0.7):
        got = bvp.qx0_integral(SIMPLE, x, z, cgf, tr)
        want = x * counting.eval_q_x0(simple_table, x, z)  # c(x) = x, c(0) = 0
        assert abs(got - want) < 1e-10


def test_qx0_integral_vanishes_at_origin():
    z = 0.2
    got = bvp.qx0_integral(SIMPLE, 1e-7, z, bvp.circle_cgf())
    assert abs(got) < 1e-5


def test_qx0_outside_raises():
    with pytest.raises(PointOutsideDomain):
        bvp.qx0_integral(SIMPLE, 2.0, 0.2, bvp.circle_cgf())


def test_qx0_matches_direct_circle_formula(simple_table):
    # partial-fraction reduction: the gluing integral equals the direct
    # circle-kernel integral (1/2pi i z) oint [tY0(t) - conj(t)Y0(conj t)]/(t-x) dt
    z = 0.2
    cgf = bvp.circle_cgf()
    tr = kernel.trace_curve_M(SIMPLE, z)
    m = 4096
    theta = (np.arange(m) + 0.5) * (2 * math.pi / m)
    t = np.exp(1j * theta)
    y0 = np.array([kernel.Y_branches(SIMPLE, complex(v), z)[0] for v in t])
    y0b = np.array([kernel.Y_branches(SIMPLE, complex(v), z)[0] for v in np.conj(t)])
    for x in (0.3, -0.45, 0.2 + 0.4j):
        integrand = (t * y0 - np.conj(t) * y0b) / (t - x) * (1j * t)
        direct = np.sum(integrand) * (2 * math.pi / m) / (2j * math.pi * z)
        glued = bvp.qx0_integral(SIMPLE, x, z, cgf, tr)
        assert abs(direct - glued) < 1e-9


def test_cauchy_value_on_other_unit_circle_model(lrs_table):
    z = 0.15
    cgf = bvp.circle_cgf()
    tr = kernel.trace_curve_M(LRS, z)
    kp = kernel.kernel_polys(LRS)
    q00 = series_value(lrs_table, "q00", z)
    for x in (0.3, -0.4, 0.2 + 0.3j):
        got = bvp.qx0_integral(LRS, x, z, cgf, tr)
        cx = kernel.poly_eval(kp.c, x)
        want = cx * counting.eval_q_x0(lrs_table, x, z) - q00  # c(0) = 1
        assert abs(got - want) < 1e-10


# ------------------------------------------------------- Q(0,0,z) and Q(1,0,z)

def test_q00_general_case_a_matches_simple():
    for z in (0.1, 0.2):
        got = bvp.q00_general(SIMPLE, z, bvp.circle_cgf())
        assert got.method == "cgf-integral/limit"
        assert got.value == pytest.approx(bvp.q00_simple(z).value, abs=1e-8)


def test_q00_general_case_b_boundary_root(lrs_table):
    z = 0.15
    got = bvp.q00_general(LRS, z, bvp.circle_cgf())
    assert "boundary-root" in got.flags
    oracle = series_value(lrs_table, "q00", z)
    assert got.value == pytest.approx(oracle, abs=1e-8)


def test_q00_general_case_c_requires_second_cgf():
    # reverse kreweras: c(x) is the constant 1
    s = steps.parse_step_set([(1, 0), (0, 1), (-1, -1)])
    with pytest.raises(CGFUnavailable):
        bvp.q00_general(s, 0.2, bvp.circle_cgf())


def test_q00_via_kernel_point_dp_backed(lrs_table):
    # case-dispatch algebra checked directly against truncated series
    s = LRS
    z = 0.15
    mirror_table = counting.count(s.mirrored(), 200, dense_max=0)

    def qx0(x):
        return counting.eval_q_x0(lrs_table, x, z)

    def q0y(y):
        return counting.eval_q_x0(mirror_table, y, z)

    got = bvp.q00_via_kernel_point(s, z, 0.4, qx0, q0y)
    assert got == pytest.approx(series_value(lrs_table, "q00", z), abs=1e-10)


def test_q10_general_simple_boundary_case(simple_table):
    for z in (0.1, 0.2):
        got = bvp.q10_general(SIMPLE, z, bvp.circle_cgf())
        assert "boundary" in got.flags
        assert got.value == pytest.approx(bvp.q10_simple(z).value, abs=1e-8)


def test_q10_general_lrs_model(lrs_table):
    z = 0.15
    got = bvp.q10_general(LRS, z, bvp.circle_cgf())
    oracle = series_value(lrs_table, "q10", z)
    assert got.value == pytest.approx(oracle, abs=1e-8)


def test_q01_general_simple(simple_table):
    z = 0.2
    got = bvp.q01_general(SIMPLE, z, bvp.circle_cgf())
    assert got.value == pytest.approx(series_value(simple_table, "q01", z), abs=1e-8)


def test_composite_point_identity():
    # X0(Y0(1,z),z) is a kernel root paired with Y0(1,z) and equals 1 or
    # ct(Y0)/at(Y0)
    for s in (steps.preset("kreweras"), steps.preset("gessel"), LRS):
        kp = kernel.kernel_polys(s)
        for z in (0.08, 0.15):
            y1 = kernel.Y_branches(s, 1.0 + 0j, z)[0]
            x_star = kernel.X_branches(s, y1, z)[0]
            assert abs(kernel.kernel_eval(s, x_star, y1, z)) < 1e-10
            other = kernel.poly_eval(kp.c_t, y1) / kernel.poly_eval(kp.a_t, y1)
            # sqrt-of-roundoff noise when the two x-roots nearly coincide
            assert min(abs(x_star - 1.0), abs(x_star - other)) < 1e-6


def test_transport_relation_dp_backed():
    # c(x)Q(x,0,z) = c(x*)Q(x*,0,z) + (Y0(x,z)/z)(x - x*), x* = X0(Y0(x,z),z)
    s = steps.preset("kreweras")
    table = counting.count(s, 160, dense_max=0)
    kp = kernel.kernel_polys(s)
    z = 0.12
    for x in (1.0, 0.95, 1.1):
        y = kernel.Y_branches(s, complex(x), z)[0]
        x_star = kernel.X_branches(s, y, z)[0]
        if abs(x_star - x) < 1e-9:
            continue
        lhs = kernel.poly_eval(kp.c, x) * counting.eval_q_x0(table, x, z)
        rhs = kernel.poly_eval(kp.c, x_star) * counting.eval_q_x0(table, x_star, z) \
            + (y / z) * (x - x_star)
        assert abs(lhs - rhs) < 1e-8


def test_q11_general_removable_point_dp_backed():
    # model whose first singularity (~0.183) sits well above 1/|S| = 1/6:
    # the relation degenerates at z = 1/|S| and the offset limit recovers it
    s = steps.parse_step_set([(1, 0), (-1, 0), (0, -1), (1, -1), (-1, -1), (0, 1)])
    table = counting.count(s, 300, dense_max=0)
    q00c = counting.series(table, "q00").coeffs
    q10c = counting.series(table, "q10").coeffs
    q01c = counting.series(table, "q01").coeffs
    q11c = counting.series(table, "q11").coeffs

    def ev(zv):
        return (
            counting.eval_series(q00c, zv),
            counting.eval_series(q10c, zv),
            counting.eval_series(q01c, zv),
        )

    z = 1.0 / len(s)
    got = bvp.q11_general(s, z, evaluator=ev)
    assert "removable-singularity" in got.flags
    oracle = counting.eval_series(q11c, z)
    assert got.value == pytest.approx(oracle, abs=1e-7)


def test_q11_general_plain_point_via_cgf(lrs_table):
    z = 0.15
    # LRS: q01 needs the y-plane curve, which passes through infinity; the
    # evaluator route with series-backed q01 exercises the assembly instead
    q01 = series_value(lrs_table, "q01", z)

    def ev(zv):
        return (
            bvp.q00_general(LRS, zv, bvp.circle_cgf()).value,
            bvp.q10_general(LRS, zv, bvp.circle_cgf()).value,
            series_value(lrs_table, "q01", zv),
        )

    got = bvp.q11_general(LRS, z, evaluator=ev)
    oracle = series_value(lrs_table, "q11", z)
    assert got.value == pytest.approx(oracle, abs=1e-8)


def test_positivity_and_monotonicity():
    values = [bvp.q00_simple(z).value for z in np.linspace(0.01, 0.24, 12)]
    assert all(v > 0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))
    values = [bvp.q10_simple(z).value for z in np.linspace(0.01, 0.24, 12)]
    assert all(v > 0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_cgf_interface_shift_invariance(simple_table):
    # w -> w + const is another valid gluing map of the same domain; every
    # produced value must be unchanged (the Cauchy kernel sees differences
    # of w only, and the limit formulas use w' and the pole data)
    shifted = bvp.CGF(
        w=lambda t, z: t + 1.0 / t + 5.0,
        dw=lambda t, z: 1.0 - 1.0 / (t * t),
        pole_residue=1.0,
        pole_const=5.0,
        label="shifted-circle",
    )
    z = 0.2
    tr = kernel.trace_curve_M(SIMPLE, z)
    for x in (0.3, 0.5j):
        a = bvp.qx0_integral(SIMPLE, x, z, bvp.circle_cgf(), tr)
        b = bvp.qx0_integral(SIMPLE, x, z, shifted, tr)
        assert abs(a - b) < 1e-10
    a = bvp.q00_general(SIMPLE, z, bvp.circle_cgf()).value
    b = bvp.q00_general(SIMPLE, z, shifted).value
    assert abs(a - b) < 1e-10


def test_every_circle_glueable_model_against_oracle():
    # all genuine non-singular models with at = ct identically have the unit
    # circle as their curve; sweep them end-to-end against the exact counts
    # (z scaled per model so the 160-term oracle tail is negligible)
    cgf = bvp.circle_cgf()
    checked = 0
    for s in steps.all_step_sets():
        if steps.is_singular(s) or not steps.origin_in_hull_interior(s):
            continue
        kp = kernel.kernel_polys(s)
        if kp.a_t != kp.c_t:
            continue
        z = 0.5 / len(s)
        try:
            tr = kernel.trace_curve_M(s, z)
        except Exception:
            continue  # curve through infinity or genus issue: not this sweep
        if bvp.gluing_defect(cgf, tr, z) > 1e-9:
            continue
        table = counting.count(s, 160, dense_max=0)
        got00 = bvp.q00_general(s, z, cgf).value
        want00 = series_value(table, "q00", z)
        assert abs(got00 - want00) < 1e-8, s
        got10 = bvp.q10_general(s, z, cgf).value
        want10 = series_value(table, "q10", z)
        assert abs(got10 - want10) < 1e-8, s
        checked += 1
    assert checked >= 10


def test_oracle_agreement_sweep(simple_table):
    # every value on (0, 0.9*FS) matches the truncated series within the
    # geometric tail bound (|S| z)^(N+1) / (1 - |S| z) plus the base tolerance
    n_terms = simple_table.n_max
    q00c = counting.series(simple_table, "q00").coeffs
    q10c = counting.series(simple_table, "q10").coeffs
    for z in np.linspace(0.01, 0.9 * 0.25, 15):
        z = float(z)
        tail = (4 * z) ** (n_terms + 1) / (1 - 4 * z)
        tol = 1e-10 + tail
        assert abs(bvp.q00_simple(z).value - counting.eval_series(q00c, z)) < tol
        assert abs(bvp.q10_simple(z).value - counting.eval_series(q10c, z)) < tol
    # the gluing route obeys the same bound where its machinery applies
    for z in (0.1, 0.18):
        tail = (4 * z) ** (n_terms + 1) / (1 - 4 * z)
        got = bvp.q00_general(SIMPLE, z, bvp.circle_cgf()).value
        assert abs(got - counting.eval_series(q00c, z)) < 1e-8 + tail


def test_q11_general_zero_drift_at_inverse_cardinality_out_of_range():
    # zero drift puts z_g at 1/|S|: the removable-point limit would probe
    # above the genus transition, so the call is refused up front
    with pytest.raises(OutOfRange):
        bvp.q11_general(SIMPLE, 0.25, bvp.circle_cgf())
    with pytest.raises(OutOfRange):
        bvp.q11_general(SIMPLE, 0.25, evaluator=lambda zv: (1.0, 1.0, 1.0))
