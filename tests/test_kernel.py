import cmath
import math
import random

import numpy as np
import pytest

from qwalk import kernel, steps
from qwalk.errors import GenusZeroRegime
from qwalk.kernel import is_finite_root

SIMPLE = steps.preset("simple")
SQ5 = math.sqrt(5.0)


def random_nonsingular_models(rng, count, require_quartic=True):
    pool = []
    for s in steps.all_step_sets():
        if steps.is_singular(s):
            continue
        if require_quartic:
            kp = kernel.kernel_polys(s)
            if (not any(kp.a) or not any(kp.c)
                    or not any(kp.a_t) or not any(kp.c_t)):
                continue
            # half-plane-reducible sets fall outside the two-cut machinery
            if not steps.origin_in_hull_interior(s):
                continue
        pool.append(s)
    return rng.sample(pool, count)


def test_kernel_polys_simple():
    kp = kernel.kernel_polys(SIMPLE)
    assert kp.a == (0, 1, 0)  # a(x) = x
    assert kp.b == (1, 0, 1)  # b(x) = 1 + x^2
    assert kp.c == (0, 1, 0)  # c(x) = x
    assert kp.a_t == kp.a and kp.b_t == kp.b and kp.c_t == kp.c


def test_poly_normalisation_sums_to_cardinality():
    for s in steps.all_step_sets():
        kp = kernel.kernel_polys(s)
        assert sum(kp.a) + sum(kp.b) + sum(kp.c) == len(s)
        assert sum(kp.a_t) + sum(kp.b_t) + sum(kp.c_t) == len(s)
        mirror = kernel.kernel_polys(s.mirrored())
        assert (mirror.a, mirror.b, mirror.c) == (kp.a_t, kp.b_t, kp.c_t)


def test_kernel_eval_critical_point():
    # K(1,1,z) = |S| - 1/z for the simple walk
    assert kernel.kernel_eval(SIMPLE, 1, 1, 0.25) == pytest.approx(0.0, abs=1e-14)
    assert kernel.kernel_eval(SIMPLE, 1, 1, 0.5) == pytest.approx(2.0)


def kernel_eval_y_form(s, x, y, z):
    """K(x, y, z) from the quadratic-in-y form: the reference for kernel_eval."""
    kp = kernel.kernel_polys(s)
    return (
        kernel.poly_eval(kp.a, x) * y * y
        + (kernel.poly_eval(kp.b, x) - x / z) * y
        + kernel.poly_eval(kp.c, x)
    )


def test_kernel_eval_two_quadratic_forms_agree():
    rng = random.Random(43)
    for s in random_nonsingular_models(rng, 10, require_quartic=False):
        for _ in range(5):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            z = rng.uniform(0.05, 0.9)
            a = kernel.kernel_eval(s, x, y, z)
            b = kernel_eval_y_form(s, x, y, z)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_discriminant_simple_walk_value():
    # d(x, z) = (1 + x^2 - x/z)^2 - 4x^2; at x=1, z=0.2: (2-5)^2 - 4 = 5
    coeffs = kernel.discriminant_x(SIMPLE, 0.2)
    assert kernel.poly_eval(coeffs, 1.0) == pytest.approx(5.0)


def test_discriminant_perfect_square_when_ac_vanishes():
    # no North steps: a = 0, so d = (b - x/z)^2
    s = steps.parse_step_set([(1, 0), (-1, 0), (0, -1)])
    z = 0.2
    coeffs = kernel.discriminant_x(s, z)
    kp = kernel.kernel_polys(s)
    for x in (0.3, 1.1, -0.7):
        expected = (kernel.poly_eval(kp.b, x) - x / z) ** 2
        assert kernel.poly_eval(coeffs, x) == pytest.approx(expected)


def test_cleared_discriminant_consistent_with_literal():
    rng = random.Random(47)
    for s in random_nonsingular_models(rng, 8):
        z = rng.uniform(0.05, 0.4)
        lit = kernel.discriminant_x(s, z)
        cleared = kernel._cleared_disc_at(kernel.cleared_disc_int(s, "x"), z)
        for x in (0.3, 0.9, 2.1):
            assert kernel.poly_eval(cleared, x) == pytest.approx(
                z * z * kernel.poly_eval(lit, x), rel=1e-10, abs=1e-12
            )


def test_branch_points_simple_walk_explicit():
    # d factors as (x^2-3x+1)(x^2-7x+1) at z = 0.2: quadratic-formula oracle
    bp = kernel.branch_points(SIMPLE, 0.2)
    expected = [(7 - 3 * SQ5) / 2, (3 - SQ5) / 2, (3 + SQ5) / 2, (7 + 3 * SQ5) / 2]
    assert bp.ordering_asserted
    for got, want in zip(bp.x_roots, expected):
        assert got == pytest.approx(want, rel=1e-12)
    # diagonal symmetry of the simple walk
    for got, want in zip(bp.y_roots, expected):
        assert got == pytest.approx(want, rel=1e-12)


def test_branch_points_reciprocal_pairs_simple():
    for z in np.linspace(0.02, 0.24, 12):
        bp = kernel.branch_points(SIMPLE, float(z))
        x1, x2, x3, x4 = bp.x_roots
        assert (x1 * x4).real == pytest.approx(1.0, rel=1e-9)
        assert (x2 * x3).real == pytest.approx(1.0, rel=1e-9)


def test_branch_points_collide_at_genus_transition():
    # x2 and x3 approach each other as z -> 1/4 for the simple walk
    gaps = []
    for z in (0.2, 0.24, 0.249, 0.2499):
        bp = kernel.branch_points(SIMPLE, z)
        gaps.append(abs(bp.x_roots[2] - bp.x_roots[1]))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1


def test_branch_ordering_random_models():
    rng = random.Random(53)
    models = [
        s for s in random_nonsingular_models(rng, 25)
        if not (kernel.disc_is_even(s, "x") or kernel.disc_is_even(s, "y"))
    ]
    for s in models:
        for _ in range(4):
            z = rng.uniform(0.02, 0.98) / len(s)
            bp = kernel.branch_points(s, z)
            if not bp.ordering_asserted:
                # a genuine degeneracy (e.g. double roots) is allowed only
                # outside the guaranteed range; inside it must order
                pytest.fail(f"ordering failed for {s} at z={z}")
            for roots in (bp.x_roots, bp.y_roots):
                r1, r2, r3, r4 = roots
                assert abs(r1) < r2.real < 1 < r3.real < abs(r4)
                assert r2.imag == 0 and r3.imag == 0


def test_all_diagonal_model_has_tied_branch_points():
    # the one genuine model with an even discriminant: x1 = -x2 exactly, so
    # the strict ordering is honestly not asserted, yet the curve machinery
    # still works on it (the slit straddles 0)
    s = steps.parse_step_set([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert kernel.disc_is_even(s, "x") and kernel.disc_is_even(s, "y")
    z = 0.1
    bp = kernel.branch_points(s, z)
    assert not bp.ordering_asserted
    mags = sorted(abs(r) for r in bp.x_roots)
    assert mags[0] == pytest.approx(mags[1], rel=1e-12)
    tr = kernel.trace_curve_M(s, z)
    assert tr.y1 == pytest.approx(-tr.y2, rel=1e-9)
    assert tr.conj_defect < 1e-10


def test_branch_points_residual_and_degree_drop():
    rng = random.Random(59)
    for s in random_nonsingular_models(rng, 15):
        z = rng.uniform(0.3, 0.9) / len(s)
        coeffs = kernel._cleared_disc_at(kernel.cleared_disc_int(s, "x"), z)
        deg = len([c for c in np.trim_zeros(coeffs, "b")]) - 1
        bp = kernel.branch_points(s, z)
        finite = [r for r in bp.x_roots if is_finite_root(r)]
        assert len(finite) == deg
        scale = max(abs(c) for c in coeffs)
        for r in finite:
            assert abs(kernel.poly_eval(coeffs, r)) <= 1e-9 * scale * max(1.0, abs(r)) ** 4


def test_y_branches_eq_y0_formula_on_circle():
    # Y0(e^{i theta}, z) = (1 - 2 z cos(theta) - sqrt((1-2z cos)^2 - 4z^2))/(2z)
    z = 0.2
    for theta in np.linspace(0.1, math.pi - 0.1, 9):
        x = cmath.exp(1j * theta)
        y0, y1 = kernel.Y_branches(SIMPLE, x, z)
        u = math.cos(theta)
        expected = (1 - 2 * u * z - math.sqrt((1 - 2 * u * z) ** 2 - 4 * z * z)) / (2 * z)
        assert y0 == pytest.approx(expected, rel=1e-12)
        assert abs(y0) <= abs(y1)


def test_y_branches_at_x_eq_i():
    # quadratic oracle: at x = i the kernel reduces to y^2 - y/z + 1 = 0
    z = 0.2
    y0, y1 = kernel.Y_branches(SIMPLE, 1j, z)
    expected = (1 - math.sqrt(1 - 4 * z * z)) / (2 * z)
    assert y0 == pytest.approx(expected, rel=1e-12)
    assert abs(y0) <= abs(y1)
    assert abs(kernel.kernel_eval(SIMPLE, 1j, y0, z)) < 1e-12


def test_branch_vieta_and_kernel_residual():
    rng = random.Random(61)
    for s in random_nonsingular_models(rng, 15):
        kp = kernel.kernel_polys(s)
        for _ in range(4):
            z = rng.uniform(0.3, 0.9) / len(s)
            x = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            y0, y1 = kernel.Y_branches(s, x, z)
            a = kernel.poly_eval(kp.a, x)
            b = kernel.poly_eval(kp.b, x) - x / z
            c = kernel.poly_eval(kp.c, x)
            if not is_finite_root(y1):
                assert abs(a) < 1e-10
                continue
            assert y0 * y1 == pytest.approx(c / a, rel=1e-9, abs=1e-10)
            assert y0 + y1 == pytest.approx(-b / a, rel=1e-9, abs=1e-10)
            assert abs(kernel.kernel_eval(s, x, y0, z)) < 1e-10 * (1 + abs(x)) ** 2
            # mirror property for X branches
            y = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            x0, _ = kernel.X_branches(s, y, z)
            if is_finite_root(x0):
                assert abs(kernel.kernel_eval(s, x0, y, z)) < 1e-10 * (1 + abs(y)) ** 2


def test_trace_simple_walk_is_unit_circle():
    for z in (0.1, 0.2):
        tr = kernel.trace_curve_M(SIMPLE, z, m=256)
        assert np.max(np.abs(np.abs(tr.points) - 1.0)) < 1e-8
        assert tr.conj_defect < 1e-10
        assert tr.closure_defect < 1e-10


def test_trace_winding_classifications():
    tr = kernel.trace_curve_M(SIMPLE, 0.2, m=256)
    w1 = kernel.winding_number(tr.points, tr.x1_ref)
    w3 = kernel.winding_number(tr.points, tr.x3_ref)
    assert w1 in (-1, 1)
    assert w3 == 0


def test_trace_rejects_genus_zero():
    with pytest.raises(GenusZeroRegime):
        kernel.trace_curve_M(SIMPLE, 0.2500001, m=64)


def test_point_classification_simple():
    z = 0.2
    tr = kernel.trace_curve_M(SIMPLE, z, m=256)
    bp = kernel.branch_points(SIMPLE, z)
    assert kernel.point_in_G_M(SIMPLE, bp.x_roots[0], z, tr) == "inside"
    assert kernel.point_in_G_M(SIMPLE, bp.x_roots[2], z, tr) == "outside"
    assert kernel.point_in_G_M(SIMPLE, 1.0 + 0j, z, tr) == "boundary"
    assert kernel.point_in_G_M(SIMPLE, 0.3 + 0.4j, z, tr) == "inside"
    assert kernel.point_in_G_M(SIMPLE, 2.0 + 0j, z, tr) == "outside"


def test_trace_nontrivial_model():
    # left-right symmetric model whose curve is also the unit circle:
    # at = ct = 1 identically
    s = steps.parse_step_set([(-1, -1), (1, -1), (0, 1)])
    tr = kernel.trace_curve_M(s, 0.15, m=256)
    assert np.max(np.abs(np.abs(tr.points) - 1.0)) < 1e-8
    assert tr.conj_defect < 1e-10


def test_trace_kreweras_curve_properties():
    s = steps.preset("kreweras")
    z = 0.2
    tr = kernel.trace_curve_M(s, z, m=512)
    assert tr.conj_defect < 1e-10
    assert tr.closure_defect < 1e-10
    bp = kernel.branch_points(s, z)
    assert kernel.point_in_G_M(s, bp.x_roots[0], z, tr) == "inside"
    assert kernel.point_in_G_M(s, bp.x_roots[2], z, tr) == "outside"
    # kernel vanishes along the trace against its defining slit values
    mid = 0.5 * (tr.y1 + tr.y2)
    vals = [kernel.Y_branches(s, complex(t), z)[0] for t in tr.points[5:20]]
    for t, y in zip(tr.points[5:20], vals):
        assert abs(kernel.kernel_eval(s, t, y, z)) < 1e-9
        assert tr.y1 - 1e-9 <= y.real <= tr.y2 + 1e-9
        assert abs(y.imag) < 1e-9


def test_contour_nodes_derivative_consistency():
    # dt/dtau from implicit differentiation matches finite differences
    z = 0.2
    tr = kernel.trace_curve_M(SIMPLE, z, m=256)
    m = 512
    tau, ys, t, dt = kernel.contour_nodes(SIMPLE, z, tr, m)
    h = tau[1] - tau[0]
    fd = (np.roll(t, -1) - np.roll(t, 1)) / (2 * h)
    # central differences are O(h^2); compare away from nothing special
    assert np.max(np.abs(fd - dt)) < 5e-3
    assert np.max(np.abs(np.abs(t) - 1.0)) < 1e-10
    # the slit ordinates are kernel roots at the curve points
    for tk, yk in zip(t[:32], ys[:32]):
        assert abs(kernel.kernel_eval(SIMPLE, tk, yk, z)) < 1e-10
