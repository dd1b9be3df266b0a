import cmath
import dataclasses
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
# the circle glues this model's curve but not its mirror's
UNGLUED_MIRROR = steps.parse_step_set([(-1, 1), (0, -1), (0, 1), (1, 1)])
# symmetric in both axes, so the circle glues both planes, but not under
# (i, j) -> (j, i): its two planes are two curves
TWO_CURVES = steps.parse_step_set([(-1, -1), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 1)])


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
    # a nan z is refused by the same range test, before any Chebyshev sum
    for bad in (0.25, 0.3, -0.25, math.nan):
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


def test_general_route_reports_unconverged_contour():
    # the contour sums are nan this close to z = 0; the node cap is reached
    # and reported as a typed failure instead of a nan value
    with pytest.raises(QuadratureNotConverged):
        bvp.q00_general(SIMPLE, 0.005, bvp.circle_cgf())


def test_q10_pole_node_is_unconverged_not_a_warning():
    # at z = 0.0625 and q11_general's tight tolerance a boundary-integral
    # node lands on the Cauchy pole; the non-finite sum must end in the typed
    # error, and a RuntimeWarning on the way would fail the test (the suite
    # raises them).  q11_general itself stops earlier, at the mirror plane
    cgf = bvp.circle_cgf()
    trace = bvp._glued_curve(UNGLUED_MIRROR, 0.0625, cgf)
    with pytest.raises(QuadratureNotConverged):
        bvp._q10(cgf, trace, bvp._q00(cgf, trace, bvp._Q11_TOL).value, bvp._Q11_TOL)


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


def test_q11_at_zero_z_is_out_of_range():
    # both divide by z (the simple-walk closed forms stay valid at z = 0)
    with pytest.raises(OutOfRange, match="z must be positive"):
        bvp.q11_from_relation(SIMPLE, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(OutOfRange, match="z must be positive"):
        bvp.q11_general(SIMPLE, 0.0, bvp.circle_cgf())


def test_non_finite_z_is_out_of_range():
    cgf = bvp.circle_cgf()
    for z in (math.nan, math.inf):
        with pytest.raises(OutOfRange, match=f"undefined at z = {z}"):
            kernel.kernel_eval(SIMPLE, 0.5, 0.5, z)
        for call in (
            lambda: kernel.branch_points(SIMPLE, z),
            lambda: kernel.Y_branches(SIMPLE, 0.5, z),
            lambda: kernel.X_branches(SIMPLE, 0.5, z),
            lambda: kernel.trace_curve_M(SIMPLE, z),
            lambda: bvp.q00_general(SIMPLE, z, cgf),
            lambda: bvp.q10_general(SIMPLE, z, cgf),
            lambda: bvp.q01_general(SIMPLE, z, cgf),
            lambda: bvp.q11_general(SIMPLE, z, cgf),
            lambda: bvp.q11_from_relation(SIMPLE, z, 1.0, 1.0, 1.0),
        ):
            with pytest.raises(OutOfRange, match="z must be positive and finite"):
                call()


def test_q11_removable_singularity_raises():
    with pytest.raises(RemovableSingularity):
        bvp.q11_from_relation(SIMPLE, 0.25, 1.0, 1.0, 1.0)


# ----------------------------------------------------------------- circle CGF

def test_circle_cgf_real_on_circle():
    cgf = bvp.circle_cgf()
    for theta in np.linspace(0, 2 * math.pi, 17):
        t = cmath.exp(1j * theta)
        w = cgf.w(t)
        assert w == pytest.approx(2 * math.cos(theta), abs=1e-12)
        assert cgf.w(t) == pytest.approx(cgf.w(t.conjugate()), abs=1e-12)


def test_circle_cgf_maps_disc_to_cut_plane():
    # images of interior points avoid the real segment [-2, 2]
    cgf = bvp.circle_cgf()
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = complex(*(rng.uniform(-1, 1, 2)))
        if abs(t) >= 0.999 or abs(t) < 1e-3:
            continue
        w = cgf.w(t)
        on_segment = abs(w.imag) < 1e-12 and -2 <= w.real <= 2
        assert not on_segment, t


def test_circle_cgf_pole_data():
    cgf = bvp.circle_cgf()
    t = 1e-7
    assert cgf.w(t) * t == pytest.approx(cgf.pole_residue, rel=1e-6)


def test_gluing_defect_rejects_wrong_domain():
    # the kreweras curve is not the unit circle
    tr = kernel.trace_curve_M(steps.preset("kreweras"), 0.2)
    assert bvp.gluing_defect(bvp.circle_cgf(), tr) > 1e-3
    with pytest.raises(CGFUnavailable):
        bvp.cauchy_value(tr, 0.1, bvp.circle_cgf())[0]


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
        got = bvp.cauchy_value(tr, x, cgf)[0]
        want = x * counting.eval_q_x0(simple_table, x, z)  # c(x) = x, c(0) = 0
        assert abs(got - want) < 1e-10


def test_qx0_integral_vanishes_at_origin():
    z = 0.2
    got = bvp.cauchy_value(kernel.trace_curve_M(SIMPLE, z), 1e-7, bvp.circle_cgf())[0]
    assert abs(got) < 1e-5


def test_qx0_outside_raises():
    with pytest.raises(PointOutsideDomain):
        bvp.cauchy_value(kernel.trace_curve_M(SIMPLE, 0.2), 2.0, bvp.circle_cgf())[0]


def test_boundary_node_on_the_pole_is_skipped_without_a_warning(lrs_table):
    # traced at m = 256, the first contour sum's node points[7] is the pole
    # at x; the non-finite round is passed over, and a RuntimeWarning on the
    # way would fail the test (the suite raises them)
    z = 0.1 / len(LRS)
    tr = kernel.trace_curve_M(LRS, z, m=256)
    x = complex(tr.points[7])
    got, _err, position = bvp.cauchy_value(tr, x, bvp.circle_cgf())
    cx = kernel.poly_eval(kernel.kernel_polys(LRS).c, x)
    want = cx * counting.eval_q_x0(lrs_table, x, z) - series_value(lrs_table, "q00", z)
    assert position == "boundary"
    assert abs(got - want) < 1e-10


def test_pole_pair_on_both_edges_and_at_the_fold():
    # the 17 genuine models symmetric under x -> -x have the unit circle as
    # their x-plane curve.  A boundary point x at tau and its conjugate at
    # 2 pi - tau share the slit ordinate, and their values are conjugate
    # within the two error estimates (up to 2.4e-11 each here); x = 1 is a
    # fold, where the poles at x and at its mirror meet
    cgf = bvp.circle_cgf()
    models = [s for s in steps.all_step_sets()
              if not steps.is_singular(s) and steps.origin_in_hull_interior(s)
              and kernel.kernel_polys(s).a_t == kernel.kernel_polys(s).c_t]
    assert len(models) == 17
    upper = [cmath.exp(1j * math.pi / 3), cmath.exp(2j * math.pi / 3)]
    for s in models:
        z = 0.5 / len(s)
        tr = kernel.trace_curve_M(s, z)
        table = counting.count(s, 60, dense_max=0)
        c = kernel.kernel_polys(s).c
        q00 = series_value(table, "q00", z)
        values = {}
        for x in [*upper, *(x.conjugate() for x in upper), 1 + 0j]:
            got, err, position = bvp.cauchy_value(tr, x, cgf)
            assert position == "boundary", (s, x)
            want = kernel.poly_eval(c, x) * counting.eval_q_x0(table, x, z) - c[0] * q00
            assert abs(got - want) < 1e-9, (s, x)
            values[x] = got, err
        for x in upper:
            (y, tau), (y_bar, tau_bar) = (kernel.curve_preimage(tr, v) for v in (x, x.conjugate()))
            assert y == pytest.approx(y_bar, abs=1e-12), (s, x)
            assert tau + tau_bar == pytest.approx(2 * math.pi, abs=1e-12), (s, x)
            (got, err), (got_bar, err_bar) = values[x], values[x.conjugate()]
            assert abs(got_bar - got.conjugate()) <= err + err_bar, (s, x)
        tau = kernel.curve_preimage(tr, 1 + 0j)[1]
        assert min(tau, abs(tau - math.pi)) < 1e-6, s


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
        glued = bvp.cauchy_value(tr, x, cgf)[0]
        assert abs(direct - glued) < 1e-9


def test_boundary_points_match_the_series():
    # points of the unit circle take the inside limit of the same integral;
    # theta = 0 and pi are the fold points of the curve
    z = 0.2
    table = counting.count(SIMPLE, 300, dense_max=0)
    tr = kernel.trace_curve_M(SIMPLE, z)
    for theta in (0.0, 0.4, 1.1, math.pi / 2, 2.5, math.pi, 4.0):
        x = cmath.exp(1j * theta)
        got, _err, position = bvp.cauchy_value(tr, x, bvp.circle_cgf())
        assert position == "boundary", theta
        assert abs(got - x * counting.eval_q_x0(table, x, z)) < 1e-10, theta


def test_cgf_is_evaluated_on_node_arrays(monkeypatch):
    # the contour sums hand the CGF whole node arrays; the one scalar call
    # per Cauchy integral is w(x)
    calls = {"scalar": 0, "array": 0}

    def counted(fn):
        def wrapped(t):
            calls["array" if isinstance(t, np.ndarray) else "scalar"] += 1
            return fn(t)
        return wrapped

    evaluations = []
    cauchy_value = bvp.cauchy_value

    def counted_cauchy(*args, **kwargs):
        evaluations.append(args[1])
        return cauchy_value(*args, **kwargs)

    monkeypatch.setattr(bvp, "cauchy_value", counted_cauchy)
    base = bvp.circle_cgf()
    cgf = dataclasses.replace(base, w=counted(base.w), dw=counted(base.dw))
    assert "boundary" in bvp.q10_general(SIMPLE, 0.2, cgf).flags
    assert len(evaluations) == 1 and calls["array"] > 0
    assert calls["scalar"] <= len(evaluations)


def test_cauchy_value_on_other_unit_circle_model(lrs_table):
    z = 0.15
    cgf = bvp.circle_cgf()
    tr = kernel.trace_curve_M(LRS, z)
    kp = kernel.kernel_polys(LRS)
    q00 = series_value(lrs_table, "q00", z)
    for x in (0.3, -0.4, 0.2 + 0.3j):
        got = bvp.cauchy_value(tr, x, cgf)[0]
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


def test_q00_general_constant_c_is_unavailable():
    # the 13 genuine models whose only down step is (-1,-1), reverse kreweras
    # among them: c(x) is the constant 1 and the curve passes through infinity
    constant_c = [
        s for s in steps.all_step_sets()
        if not steps.is_singular(s) and steps.origin_in_hull_interior(s)
        and kernel.kernel_polys(s).c == (1, 0, 0)
    ]
    assert len(constant_c) == 13
    for s in constant_c:
        for f in (0.25, 0.5, 0.85):
            for fn, model in ((bvp.q00_general, s), (bvp.q10_general, s),
                              (bvp.q01_general, s.mirrored())):
                with pytest.raises(CGFUnavailable, match="c is constant"):
                    fn(model, f / len(s), bvp.circle_cgf())


def x_squared_c(s):
    # the only down step is (1,-1)
    return kernel.kernel_polys(s).c == (0, 0, 1)


def test_x_squared_c_is_unavailable_before_tracing(monkeypatch):
    # c(x) = x^2 puts the curve through x = 0, the pole of every CGF; the
    # route refuses the plane before it traces anything
    def no_trace(*args, **kwargs):
        raise AssertionError("trace_curve_M was called")

    monkeypatch.setattr(kernel, "trace_curve_M", no_trace)
    monkeypatch.setattr(bvp, "trace_curve_M", no_trace)
    x_planes = [s for s in steps.all_step_sets() if x_squared_c(s)]
    y_planes = [s for s in steps.all_step_sets() if x_squared_c(s.mirrored())]
    assert len(x_planes) == len(y_planes) == 32
    cgf = bvp.circle_cgf()
    for f in (0.25, 0.5, 0.85):
        for fns, models in (((bvp.q00_general, bvp.q10_general), x_planes),
                            ((bvp.q01_general, bvp.q11_general), y_planes)):
            for fn in fns:
                for s in models:
                    with pytest.raises(CGFUnavailable, match="x = 0, the pole of every CGF"):
                        fn(s, f / len(s), cgf)


def test_x_squared_c_curves_pass_through_the_pole():
    # on the 13 genuine sets with c(x) = x^2, y = 0 is the slit end y1 and
    # X0(0) = 0, so the curve passes through 0 at a fold, which no node
    # reaches, and w blows up on it
    genuine = [
        s for s in steps.all_step_sets()
        if x_squared_c(s) and not steps.is_singular(s) and steps.origin_in_hull_interior(s)
    ]
    assert len(genuine) == 13
    for s in genuine:
        for f in (0.25, 0.5, 0.85):
            tr = kernel.trace_curve_M(s, f / len(s))
            assert tr.y1 == 0.0 and kernel.curve_preimage(tr, 0j) == (0.0, 0.0)
            assert np.min(np.abs(tr.points)) > 0.0
            assert bvp.gluing_defect(bvp.circle_cgf(), tr) == math.inf


def test_q00_via_kernel_point_dp_backed(lrs_table):
    # the functional equation at the kernel point (x, Y0(x,z)) inside the
    # unit bidisc, solved for Q(0,0,z) from truncated-series sections
    s, z, x = LRS, 0.15, 0.4
    mirror_table = counting.count(s.mirrored(), 200, dense_max=0)
    y = kernel.Y_branches(s, complex(x), z)[0]
    assert s.delta(-1, -1) and abs(y) <= 1
    kp = kernel.kernel_polys(s)
    got = (kernel.poly_eval(kp.c, x) * counting.eval_q_x0(lrs_table, x, z)
           + kernel.poly_eval(kp.c_t, y) * counting.eval_q_x0(mirror_table, y, z)
           - x * y / z)
    assert abs(got.imag) < 1e-10
    assert got.real == pytest.approx(series_value(lrs_table, "q00", z), abs=1e-10)


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


def _read_parts(monkeypatch, x_plane, parts):
    """Make q11_general take its parts from parts(z) -> (q00, q10, q01)
    instead of tracing the two planes and summing on them."""
    monkeypatch.setattr(bvp, "_require_glueable", lambda plane: None)
    monkeypatch.setattr(bvp, "_glued_curve", lambda plane, zv, cgf: (plane is x_plane, zv))
    monkeypatch.setattr(bvp, "_q00", lambda cgf, trace, tol: bvp.GFValue(
        value=parts(trace[1])[0], z=trace[1], method="parts", quadrature_error_estimate=0.0))
    monkeypatch.setattr(bvp, "_q10", lambda cgf, trace, q00, tol: bvp.GFValue(
        value=parts(trace[1])[1 if trace[0] else 2], z=trace[1], method="parts",
        quadrature_error_estimate=0.0))


def test_q11_general_removable_point_dp_backed(monkeypatch):
    # model whose first singularity (~0.183) sits well above 1/|S| = 1/6:
    # the relation degenerates at z = 1/|S| and the offset limit recovers it
    # from series-backed parts
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
    _read_parts(monkeypatch, s, ev)
    got = bvp.q11_general(s, z, bvp.circle_cgf())
    assert "removable-singularity" in got.flags
    oracle = counting.eval_series(q11c, z)
    assert got.value == pytest.approx(oracle, abs=1e-7)


def test_q11_general_plain_point_via_cgf(lrs_table, monkeypatch):
    z = 0.15
    # LRS: q01 needs the y-plane curve, which passes through infinity; the
    # relation on series-backed q01 exercises the assembly instead
    parts = (
        bvp.q00_general(LRS, z, bvp.circle_cgf()).value,
        bvp.q10_general(LRS, z, bvp.circle_cgf()).value,
        series_value(lrs_table, "q01", z),
    )
    _read_parts(monkeypatch, LRS, lambda zv: parts)
    got = bvp.q11_general(LRS, z, bvp.circle_cgf())
    oracle = series_value(lrs_table, "q11", z)
    assert got.value == pytest.approx(oracle, abs=1e-8)


def test_q11_reports_the_unglued_mirror_plane():
    # Q(0,1,z) is out of reach, and q11_general says so before any
    # tight-tolerance contour sum of Q(1,0,z) runs
    for f in (0.25, 0.5, 0.85):
        with pytest.raises(CGFUnavailable):
            bvp.q11_general(UNGLUED_MIRROR, f / len(UNGLUED_MIRROR), bvp.circle_cgf())


def test_each_plane_is_traced_once_per_call(monkeypatch):
    # q11_general traces both planes, or one when the model is its own
    # mirror (SIMPLE), whose y-plane curve is its x-plane curve
    traced = []

    def counting_trace(s, z, *args, **kwargs):
        traced.append(s)
        return kernel.trace_curve_M(s, z, *args, **kwargs)

    monkeypatch.setattr(bvp, "trace_curve_M", counting_trace)
    cgf = bvp.circle_cgf()
    for fn, s, z, want in ((bvp.q00_general, SIMPLE, 0.2, [SIMPLE]),
                           (bvp.q10_general, SIMPLE, 0.2, [SIMPLE]),
                           (bvp.q01_general, SIMPLE, 0.2, [SIMPLE]),
                           (bvp.q11_general, SIMPLE, 0.2, [SIMPLE]),
                           (bvp.q11_general, TWO_CURVES, 0.08,
                            [TWO_CURVES, TWO_CURVES.mirrored()])):
        traced.clear()
        fn(s, z, cgf)
        assert traced == want, (fn.__name__, s)


def test_each_trace_builds_its_nodes_and_checks_its_gluing_once(monkeypatch):
    # several integrals on one trace share its node arrays and its gluing
    # check.  A default trace builds the 256 and 512 nodes of the first
    # comparison in one _nodes pass, and each first comparison is one
    # integrand call over both; each later level is built once per trace.
    # q11_general traces a self-mirror model (SIMPLE) once, TWO_CURVES twice
    traced, glued, built, sizes = [], [], [], []
    trace_curve_M, gluing_defect = bvp.trace_curve_M, bvp.gluing_defect
    nodes, contour_integral = kernel._nodes, bvp._contour_integral

    def counting_trace(*args, **kwargs):
        traced.append(trace_curve_M(*args, **kwargs))
        return traced[-1]

    def counting_defect(cgf, trace):
        glued.append(trace)
        return gluing_defect(cgf, trace)

    def counting_nodes(s, z, y1, y2, disc, grids):
        built.append(grids)
        return nodes(s, z, y1, y2, disc, grids)

    def counting_integral(trace, integrand, *args):
        calls = []
        sizes.append(calls)

        def counted(*nodes):
            calls.append(len(nodes[0]))
            return integrand(*nodes)

        return contour_integral(trace, counted, *args)

    monkeypatch.setattr(bvp, "trace_curve_M", counting_trace)
    monkeypatch.setattr(bvp, "gluing_defect", counting_defect)
    monkeypatch.setattr(kernel, "_nodes", counting_nodes)
    monkeypatch.setattr(bvp, "_contour_integral", counting_integral)
    cgf = bvp.circle_cgf()
    for fn, s, z, n_traces in ((bvp.q10_general, LRS, 0.15, 1),
                               (bvp.q11_general, SIMPLE, 0.2, 1),
                               (bvp.q11_general, TWO_CURVES, 0.08, 2)):
        for log in (traced, glued, built, sizes):
            log.clear()
        fn(s, z, cgf)
        assert len(traced) == n_traces and len(glued) == n_traces, fn.__name__
        assert built.count(kernel.FIRST_GRIDS) == n_traces, fn.__name__
        kept = [k for tr in traced for k in tr._memo if isinstance(k, tuple)]
        assert sorted(built) == sorted(kept), fn.__name__
        assert len(sizes) > n_traces, fn.__name__
        for calls in sizes:
            assert calls == [768] + [512 * 2**k for k in range(1, len(calls))], fn.__name__
        for tr in traced:
            assert tr.points is kernel.contour_nodes(tr, m=len(tr.points))[2]

    joined = kernel.first_grid_nodes(traced[0])
    for m in kernel.FIRST_GRIDS:
        nodes = kernel.contour_nodes(traced[0], m=m)
        assert kernel.contour_nodes(traced[0], m=m) is nodes
        assert all(arr.base is whole for arr, whole in zip(nodes, joined))
        for arr in nodes:
            with pytest.raises(ValueError):
                arr[0] = 0


def two_build_integral(trace, integrand, tol, plemelj=0j):
    """Reference contour sum: each level's nodes built alone, from m = 256
    doubling, and each summed by its own integrand call."""
    def at_m(m):
        nodes = kernel._nodes(trace.steps, trace.z, trace.y1, trace.y2,
                              kernel._edge_disc(trace.steps, trace.z), (m,))
        with np.errstate(divide="ignore", invalid="ignore"):
            return complex(np.sum(integrand(*nodes))) * (2 * math.pi / m)

    m, prev = 256, at_m(256)
    while True:
        m *= 2
        cur = at_m(m)
        if abs(cur - prev) < tol:
            return ((cur + plemelj) / (2j * math.pi * trace.z),
                    abs(cur - prev) / (2 * math.pi * abs(trace.z)))
        prev = cur


def test_one_pass_first_comparison_matches_two_builds(monkeypatch):
    # the first comparison summed from one integrand call over the joined
    # 256 and 512 nodes gives the value and error of two separate builds,
    # bit for bit: at an inside point, a boundary point and the fold x = 1
    cgf = bvp.circle_cgf()
    points = {0.5 + 0j: "inside", cmath.exp(1j * math.pi / 3): "boundary", 1 + 0j: "boundary"}
    for s, z in ((SIMPLE, 0.2), (LRS, 0.15)):
        tr = kernel.trace_curve_M(s, z)
        one_pass = {x: bvp.cauchy_value(tr, x, cgf) for x in points}
        with monkeypatch.context() as patched:
            patched.setattr(bvp, "_contour_integral", two_build_integral)
            two_builds = {x: bvp.cauchy_value(kernel.trace_curve_M(s, z), x, cgf)
                          for x in points}
        for x, position in points.items():
            value, err, got = one_pass[x]
            assert got == position, (s, x)
            assert (value, err, got) == two_builds[x], (s, x)
            assert math.isfinite(err) and err < 1e-9, (s, x)


def test_q11_general_computes_q00_once(monkeypatch):
    # Q(0,0,z) is the same on both planes: one _q00 per call of the parts
    calls = []
    q00 = bvp._q00

    def counting_q00(*args):
        calls.append(args[1])
        return q00(*args)

    monkeypatch.setattr(bvp, "_q00", counting_q00)
    for z in (0.1, 0.2):
        calls.clear()
        bvp.q11_general(SIMPLE, z, bvp.circle_cgf())
        assert len(calls) == 1 and calls[0].steps == SIMPLE, z


def test_cauchy_value_locates_a_boundary_point_once(monkeypatch):
    # every point goes through curve_preimage once: a point on the curve for
    # both its position and its poles, a point off it before the branch test
    calls = []
    preimage = kernel.curve_preimage

    def counting_preimage(trace, x):
        calls.append(x)
        return preimage(trace, x)

    for module in (bvp, kernel):
        monkeypatch.setattr(module, "curve_preimage", counting_preimage)
    tr = kernel.trace_curve_M(SIMPLE, 0.2)
    for x, position in ((1 + 0j, "boundary"), (0.5 + 0j, "inside")):
        calls.clear()
        assert bvp.cauchy_value(tr, x, bvp.circle_cgf())[2] == position
        assert calls == [x], x


def test_q11_general_equals_the_relation_on_its_parts():
    # the five genuine models symmetric in both axes: the circle glues both
    # planes.  The parts are taken as q11_general takes them, with the
    # x plane's Q(0,0,z) on both planes; the y plane's agrees within 4 ulps
    cgf = bvp.circle_cgf()
    both_axes = []
    for s in steps.all_step_sets():
        kp = kernel.kernel_polys(s)
        if (not steps.is_singular(s) and steps.origin_in_hull_interior(s)
                and kp.a_t == kp.c_t and kp.a == kp.c):
            both_axes.append(s)
    assert len(both_axes) == 5
    for s in both_axes:
        for f in (0.25, 0.5, 0.85):
            z = f / len(s)
            x_plane, y_plane = (bvp._glued_curve(p, z, cgf) for p in (s, s.mirrored()))
            q00 = bvp._q00(cgf, x_plane, bvp._Q11_TOL).value
            q00_y = bvp._q00(cgf, y_plane, bvp._Q11_TOL).value
            assert abs(q00_y - q00) <= 4 * math.ulp(q00), (s, f)
            q10, q01 = (bvp._q10(cgf, p, q00, bvp._Q11_TOL).value for p in (x_plane, y_plane))
            want = bvp.q11_from_relation(s, z, q10, q01, q00).value
            assert bvp.q11_general(s, z, cgf).value == want, (s, f)


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
    # of w only, and the limit formula uses w' and the pole residue)
    shifted = bvp.CGF(
        w=lambda t: t + 1.0 / t + 5.0,
        dw=lambda t: 1.0 - 1.0 / (t * t),
        pole_residue=1.0,
        label="shifted-circle",
    )
    z = 0.2
    tr = kernel.trace_curve_M(SIMPLE, z)
    for x in (0.3, 0.5j):
        a = bvp.cauchy_value(tr, x, bvp.circle_cgf())[0]
        b = bvp.cauchy_value(tr, x, shifted)[0]
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
        if bvp.gluing_defect(cgf, tr) > 1e-9:
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
