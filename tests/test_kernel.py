import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qwalk import _ratpoly as rp
from qwalk import kernel, steps
from qwalk.errors import GenusZeroRegime, OutOfRange, QwalkError, SlitDegenerate

from helpers import disc_is_even, winding

SIMPLE = steps.preset("simple")
SQ5 = math.sqrt(5.0)


def literal_disc(s, x, z):
    """d(x, z) = (b(x) - x/z)^2 - 4 a(x) c(x), pointwise from the kernel polynomials."""
    kp = kernel.kernel_polys(s)
    b = kernel.poly_eval(kp.b, x) - x / z
    return b * b - 4 * kernel.poly_eval(kp.a, x) * kernel.poly_eval(kp.c, x)


def cleared_disc(s, x, z):
    """D(x, z) = z^2 d(x, z), evaluated from the integer triples of cleared_disc_int."""
    return kernel.poly_eval(kernel._cleared_disc_at(kernel.cleared_disc_int(s), z), x)


def accurate_curve(tr, n=4000):
    """The curve traced without the noise clamp of _edge_values: X0 at
    y + 1e-13i from X_branches over n + 1 cosine-spaced slit points, then the
    conjugate lower edge, as an open polygon (winding closes it).  Next to a
    fold on a narrow slit the offset moves it by up to 1e-4, so probes
    compared with it keep 1e-3 away."""
    mid, half = 0.5 * (tr.y1 + tr.y2), 0.5 * (tr.y2 - tr.y1)
    ys = mid - half * np.cos(np.linspace(0.0, math.pi, n + 1))
    up = np.array([kernel.X_branches(tr.steps, complex(y, 1e-13), tr.z)[0] for y in ys])
    return np.concatenate([up, np.conj(up[-2:0:-1])])


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


def test_kernel_polys_built_once_per_step_set():
    for s in steps.all_step_sets():
        assert kernel.kernel_polys(s) is kernel.kernel_polys(steps.StepSet(s.steps))


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
    # d(x, z) = (1 + x^2 - x/z)^2 - 4x^2; at x=1, z=0.2: (2-5)^2 - 4 = 5,
    # and D = (z + z x^2 - x)^2 - 4 z^2 x^2 has these integer triples
    assert kernel.cleared_disc_int(SIMPLE) == (
        (0, 0, 1), (0, -2, 0), (1, 0, -2), (0, -2, 0), (0, 0, 1))
    assert literal_disc(SIMPLE, 1.0, 0.2) == pytest.approx(5.0)
    assert cleared_disc(SIMPLE, 1.0, 0.2) == pytest.approx(0.2 * 0.2 * 5.0)


def test_discriminant_perfect_square_when_ac_vanishes():
    # no North steps: a = 0, so d = (b - x/z)^2
    s = steps.parse_step_set([(1, 0), (-1, 0), (0, -1)])
    z = 0.2
    kp = kernel.kernel_polys(s)
    for x in (0.3, 1.1, -0.7):
        expected = (kernel.poly_eval(kp.b, x) - x / z) ** 2
        assert cleared_disc(s, x, z) == pytest.approx(z * z * expected)


def test_cleared_discriminant_consistent_with_literal():
    rng = random.Random(47)
    for s in random_nonsingular_models(rng, 8):
        z = rng.uniform(0.05, 0.4)
        for x in (0.3, 0.9, 2.1):
            assert cleared_disc(s, x, z) == pytest.approx(
                z * z * literal_disc(s, x, z), rel=1e-10, abs=1e-12
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
        if not (disc_is_even(s) or disc_is_even(s.mirrored()))
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
    assert disc_is_even(s) and disc_is_even(s.mirrored())
    z = 0.1
    bp = kernel.branch_points(s, z)
    assert not bp.ordering_asserted
    mags = sorted(abs(r) for r in bp.x_roots)
    assert mags[0] == pytest.approx(mags[1], rel=1e-12)
    tr = kernel.trace_curve_M(s, z)
    assert tr.y1 == pytest.approx(-tr.y2, rel=1e-9)
    assert np.array_equal(tr.points, np.conj(tr.points[::-1]))


def test_branch_points_residual_and_degree_drop():
    rng = random.Random(59)
    for s in random_nonsingular_models(rng, 15):
        z = rng.uniform(0.3, 0.9) / len(s)
        coeffs = kernel._cleared_disc_at(kernel.cleared_disc_int(s), z)
        deg = len([c for c in np.trim_zeros(coeffs, "b")]) - 1
        bp = kernel.branch_points(s, z)
        finite = [r for r in bp.x_roots if cmath.isfinite(r)]
        assert len(finite) == deg
        scale = max(abs(c) for c in coeffs)
        for r in finite:
            assert abs(kernel.poly_eval(coeffs, r)) <= 1e-9 * scale * max(1.0, abs(r)) ** 4


def test_identically_vanishing_discriminant_is_out_of_range():
    # at z = 1/2, D = (1 - 4 z^2) x^2 vanishes identically on six planes of
    # two-step sets, where every x is a branch point: a typed error, never
    # four roots at infinity.  A plane (s, "y") is the x plane of s.mirrored()
    message = "the discriminant vanishes identically at z=0.5"
    found = []
    for s in steps.all_step_sets():
        for axis, plane in (("x", s), ("y", s.mirrored())):
            try:
                kernel.disc_roots(plane, 0.5)
            except OutOfRange as exc:
                assert str(exc) == message
                found.append((s.sorted_steps(), axis))
    assert sorted(found) == [
        (((-1, -1), (1, 1)), "x"), (((-1, -1), (1, 1)), "y"),
        (((-1, 0), (1, 0)), "y"),
        (((-1, 1), (1, -1)), "x"), (((-1, 1), (1, -1)), "y"),
        (((0, -1), (0, 1)), "x"),
    ]
    for pts in ({(0, -1), (0, 1)}, {(-1, 0), (1, 0)}, {(-1, 1), (1, -1)}, {(-1, -1), (1, 1)}):
        with pytest.raises(OutOfRange, match=message):
            kernel.branch_points(steps.parse_step_set(pts), 0.5)


def test_far_roots_pass_the_exact_residual_test():
    # all 255 step sets, both planes, at z where roots lie up to about 1e200
    # apart: every root disc_roots returns is within 1e-13 relative of p's
    # value bound, |p(r)| <= 1e-13 sum |a_k| |r|^k, in exact arithmetic (|r|
    # taken just below the float modulus).  The residual test never forms a
    # power of r, so a finite root such as 1e99 is returned; only roots the
    # closed forms leave nan or infinite are OutOfRange.  About 0.5 s
    below = 1 - Fraction(1, 2**50)
    out_of_range = Counter()
    checked = 0
    for s in steps.all_step_sets():
        for plane in (s, s.mirrored()):
            for z in (1e-99, 1e-84, 1e100):
                try:
                    trips, roots = kernel.disc_roots(plane, z)
                except OutOfRange as exc:
                    assert str(exc) == f"the discriminant's roots overflow at z={z}"
                    out_of_range[z] += 1
                    continue
                coeffs = [Fraction(c) for c in kernel._cleared_disc_at(trips, z)]
                for r in roots:
                    re, im = Fraction(r.real), Fraction(r.imag)
                    p_re = p_im = Fraction(0)
                    for c in reversed(coeffs):
                        p_re, p_im = p_re * re - p_im * im + c, p_re * im + p_im * re
                    m = Fraction(abs(r)) * below
                    bound = sum(abs(c) * m**k for k, c in enumerate(coeffs)) / 10**13
                    assert p_re**2 + p_im**2 <= bound**2, (s, z, r)
                    checked += 1
    assert out_of_range == {1e-99: 292, 1e-84: 292}, out_of_range
    assert checked == 2940


@pytest.mark.parametrize("z", [
    1e-10,
    pytest.param(1e-11, marks=pytest.mark.xfail(strict=True, reason=(
        "disc_roots accepts wrong roots at tiny z: at 1e-11 the diagonal walk's "
        "x2, x1 = +-2e-11 come out as 0.0 twice, and |D(0)| = 4e-22 passes "
        "the absolute residual bound 1e-6 for |r| <= 1"))),
])
def test_small_branch_points_of_the_diagonal_walk(z):
    # D = -4 z^2 + x^2 - 4 z^2 x^4, whose small roots are +-2z to first order
    s = steps.parse_step_set([(-1, -1), (-1, 1), (1, -1), (1, 1)])
    small = sorted(kernel.branch_points(s, z).x_roots, key=abs)[:2]
    assert sorted(r.real for r in small) == pytest.approx([-2 * z, 2 * z], rel=1e-6)


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
            if not cmath.isfinite(y1):
                assert abs(a) < 1e-10
                continue
            assert y0 * y1 == pytest.approx(c / a, rel=1e-9, abs=1e-10)
            assert y0 + y1 == pytest.approx(-b / a, rel=1e-9, abs=1e-10)
            assert abs(kernel.kernel_eval(s, x, y0, z)) < 1e-10 * (1 + abs(x)) ** 2
            # mirror property for X branches
            y = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            x0, _ = kernel.X_branches(s, y, z)
            if cmath.isfinite(x0):
                assert abs(kernel.kernel_eval(s, x0, y, z)) < 1e-10 * (1 + abs(y)) ** 2


def test_trace_simple_walk_is_unit_circle():
    # the points are the trace's own m contour nodes, mirror-symmetric
    for z in (0.1, 0.2):
        tr = kernel.trace_curve_M(SIMPLE, z, m=256)
        assert tr.points.base is tr.nodes[2] and len(tr.points) == 256
        assert np.max(np.abs(np.abs(tr.points) - 1.0)) < 1e-8
        assert np.array_equal(tr.points, np.conj(tr.points[::-1]))


def test_trace_winding_classifications():
    tr = kernel.trace_curve_M(SIMPLE, 0.2, m=256)
    x1, _, x3, _ = kernel.branch_points(SIMPLE, 0.2).x_roots
    w1 = winding(tr.points, x1)
    w3 = winding(tr.points, x3)
    assert w1 in (-1, 1)
    assert w3 == 0


def genuine_traces(fs=(0.25, 0.5, 0.85)):
    """(s, z, trace) for the genuine sets at z = f/|S|, f in fs, wherever a
    trace exists."""
    for s in steps.all_step_sets():
        if steps.is_singular(s) or not steps.origin_in_hull_interior(s):
            continue
        for f in fs:
            z = f / len(s)
            try:
                yield s, z, kernel.trace_curve_M(s, z)
            except QwalkError:
                continue


def old_upper_edge_sign(s, z, y1, y2):
    """The former probe: the edge sign whose value at the slit midpoint is
    nearer to X0 just above the slit.  The edge with sign _UPPER_SIGN is
    _edge_values' and the other is its conjugate, as at(y) and bt(y) are
    real on the slit."""
    y_mid = 0.5 * (y1 + y2)
    probe = kernel.X_branches(s, complex(y_mid, 1e-7 * max(1.0, abs(y2 - y1))), z)[0]
    upper = kernel._edge_values(s, np.array([y_mid]), z, kernel._edge_disc(s, z))[0][0]
    edge = {kernel._UPPER_SIGN: upper, -kernel._UPPER_SIGN: upper.conjugate()}
    return +1 if abs(edge[1] - probe) <= abs(edge[-1] - probe) else -1


def test_trace_orientation_and_edge_match_the_former_rules():
    # the traversal winds once counter-clockwise around x1, and the first
    # half of the nodes is the edge the midpoint probe picked
    count = 0
    for s, z, tr in genuine_traces():
        count += 1
        w1 = winding(tr.points, kernel.branch_points(s, z).x_roots[0])
        assert w1 == 1, (s, z)
        m = len(tr.points)
        ys_up = 0.5 * (tr.y1 + tr.y2) - 0.5 * (tr.y2 - tr.y1) * np.cos(
            (np.arange(m // 2) + 0.5) * (2 * math.pi / m))
        assert old_upper_edge_sign(s, z, tr.y1, tr.y2) == kernel._UPPER_SIGN, (s, z)
        assert np.array_equal(tr.points[: m // 2],
                              kernel._edge_values(s, ys_up, z, kernel._edge_disc(s, z))[0]), (s, z)
    assert count > 300


def kernel_y_roots(s, t, z):
    """Both kernel roots in y at the points t, as a (2, len(t)) array, by
    the quadratic formula: nan where a(t) = 0 degenerates it, as at a fold
    through x = 0 when a(0) = 0."""
    kp = kernel.kernel_polys(s)
    a, c = kernel.poly_eval(kp.a, t), kernel.poly_eval(kp.c, t)
    b = kernel.poly_eval(kp.b, t) - t / z
    sq = np.sqrt(b * b - 4 * a * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([(-b + sq) / (2 * a), (-b - sq) / (2 * a)])


def test_trace_census_over_every_step_set():
    # every step set at z = f/|S| from below the slit's collapse to past the
    # genus transition: which traces exist, which collapse, and that each
    # node of a traced curve has a real kernel y-root on the slit [y1, y2]
    errors, messages, shapes = Counter(), Counter(), Counter()
    for s in steps.all_step_sets():
        for f in (0.02, 0.1, 0.25, 0.5, 0.85, 0.99, 1.0, 1.3):
            z = f / len(s)
            try:
                tr = kernel.trace_curve_M(s, z)
            except QwalkError as exc:
                errors[type(exc).__name__] += 1
                messages[str(exc)] += isinstance(exc, SlitDegenerate)
                continue
            collapsed = bool(np.all(tr.points.imag == 0))
            shapes[collapsed] += 1
            if collapsed:  # by the noise clamp of _edge_values
                assert f == 0.02, (s, f)
                continue
            ys = kernel_y_roots(s, tr.points, z)
            off = (np.abs(ys.imag) + np.clip(tr.y1 - ys.real, 0, None)
                   + np.clip(ys.real - tr.y2, 0, None))
            assert off.min(axis=0).max() <= 1e-6, (s, f)
    assert errors == {"GenusZeroRegime": 1131, "SlitDegenerate": 90, "OutOfRange": 3}
    assert messages["at(y) vanishes on the slit: the curve passes through infinity"] == 90
    assert shapes == {False: 814, True: 2}


def test_curve_predicates_agree_with_the_float_facts_they_replace(monkeypatch):
    # at every z of the trace census, the curve passes through infinity (c
    # constant) iff at(y) is within 1e-12 (1 + y^2) of 0 at a slit end, and
    # through x = 0 (c(x) = x^2) iff curve_preimage places x = 0 on it; a
    # CurveTrace built by hand has trace_curve_M's points and nodes
    through_infinity = kernel.curve_through_infinity
    monkeypatch.setattr(kernel, "curve_through_infinity", lambda s: False)
    seen = Counter()
    for s in steps.all_step_sets():
        a_t = kernel.kernel_polys(s).a_t
        for f in (0.02, 0.1, 0.25, 0.5, 0.85, 0.99, 1.0, 1.3):
            z = f / len(s)
            try:
                y1, y2 = kernel._slit_endpoints(s, z)
            except QwalkError:
                continue
            at_end = any(abs(kernel.poly_eval(a_t, y)) < 1e-12 * (1.0 + y * y) for y in (y1, y2))
            assert at_end == through_infinity(s), (s, f)
            if at_end:
                seen["infinity"] += 1
                continue
            tr = kernel.CurveTrace(steps=s, z=z, y1=y1, y2=y2)
            on_curve = kernel.curve_preimage(tr, 0j) is not None
            traced = kernel.trace_curve_M(s, z)
            assert tr.points.tobytes() == traced.points.tobytes(), (s, f)
            for a, b in zip(kernel.contour_nodes(tr, m=1024), kernel.contour_nodes(traced, m=1024)):
                assert a.tobytes() == b.tobytes(), (s, f)
            assert on_curve == kernel.curve_through_origin(s), (s, f)
            seen["origin" if on_curve else "neither"] += 1
    assert seen == {"infinity": 90, "origin": 90, "neither": 726}


def test_contour_nodes_mirror_the_upper_edge():
    # the lower half of the nodes is the exact mirror of the upper half, and
    # the k_x of _edge_values is dK/dx = 2 at X0 + bt - y/z on the upper edge
    count = 0
    for s, z, tr in genuine_traces((0.25, 0.85)):
        kp = kernel.kernel_polys(s)
        for m in (256, 1024):
            count += 1
            h = m // 2
            with np.errstate(divide="ignore", invalid="ignore"):
                tau, ys, t, dt_dtau = kernel.contour_nodes(tr, m=m)
            assert np.array_equal(ys[h:], ys[h - 1::-1]), (s, z, m)
            assert np.array_equal(t[h:], np.conj(t[h - 1::-1])), (s, z, m)
            assert np.array_equal(dt_dtau[h:], -np.conj(dt_dtau[h - 1::-1]),
                                  equal_nan=True), (s, z, m)
            x0, k_x = kernel._edge_values(s, ys[:h], z, kernel._edge_disc(s, z))
            assert np.array_equal(x0, t[:h]), (s, z, m)
            shifted = kernel.poly_eval(kp.b_t, ys[:h]) - ys[:h] / z
            resid = 2 * kernel.poly_eval(kp.a_t, ys[:h]) * x0 + shifted - k_x
            assert np.all(np.abs(resid) <= 1e-12 * (1 + np.abs(shifted))), (s, z, m)
    assert count > 400


def per_grid_nodes(tr, m):
    """contour_nodes(tr, m=m) built as before the grid table: the grid's own
    tau, cos and sin, and its upper edge followed by its lower edge reversed."""
    s, z = tr.steps, tr.z
    mid, half = 0.5 * (tr.y1 + tr.y2), 0.5 * (tr.y2 - tr.y1)
    tau = (np.arange(m) + 0.5) * (2 * math.pi / m)
    up = tau[: m // 2]
    ys = mid - half * np.cos(up)
    t, k_x = kernel._edge_values(s, ys, z, kernel._edge_disc(s, z))
    kp = kernel.kernel_polys(s)
    d_at, d_bt, d_ct = (kernel.poly_eval(rp.deriv(p), ys) for p in (kp.a_t, kp.b_t, kp.c_t))
    k_y = d_at * t * t + (d_bt - 1.0 / z) * t + d_ct
    with np.errstate(divide="ignore", invalid="ignore"):
        dt_dtau = -k_y / k_x * (half * np.sin(up))

    def both_edges(upper, lower):
        return np.concatenate([upper, lower[::-1]])

    return (tau, both_edges(ys, ys), both_edges(t, np.conj(t)),
            both_edges(dt_dtau, -np.conj(dt_dtau)))


def circle_glued_models():
    """The 17 genuine step sets symmetric under x -> -x, whose x-plane
    curve the unit circle glues."""
    models = [s for s in steps.all_step_sets()
              if not steps.is_singular(s) and steps.origin_in_hull_interior(s)
              and kernel.kernel_polys(s).a_t == kernel.kernel_polys(s).c_t]
    assert len(models) == 17
    return models


def test_contour_nodes_match_the_per_grid_construction():
    # the grid table changes no bit: at every m, from the FIRST_GRIDS table
    # or built alone, the nodes are the per-grid construction's
    count = 0
    for s in circle_glued_models() + [steps.preset("kreweras")]:
        for f in (0.25, 0.5, 0.85):
            tr = kernel.trace_curve_M(s, f / len(s))
            for m in (16, 64, 256, 512, 1024):
                count += 1
                got, want = kernel.contour_nodes(tr, m=m), per_grid_nodes(tr, m)
                for name, a, b in zip(("tau", "ys", "t", "dt_dtau"), got, want):
                    assert a.tobytes() == b.tobytes(), (s, f, m, name)
    assert count == 18 * 3 * 5


def test_first_grid_table_is_built_once_and_shared():
    # the fixed part of a node build is one read-only table per tuple of
    # grids, made by the first trace that needs it and read by every later
    # one; the FIRST_GRIDS table holds the two grids' angles and layout
    # alone, and no other m replaces it
    grid_table = kernel._grid_table
    grid_table.cache_clear()
    traces = [kernel.trace_curve_M(s, f / len(s))
              for s in (SIMPLE, steps.preset("kreweras"), steps.preset("gouyou-beauchamps"))
              for f in (0.3, 0.7)]
    assert grid_table.cache_info().misses == 1
    table = grid_table(kernel.FIRST_GRIDS)
    for tr in traces:
        assert tr.nodes[0] is table[0]
    for tr in traces[:2]:
        assert kernel.contour_nodes(tr, m=1024)[0] is grid_table((1024,))[0]
    for z in (0.2, 0.15):
        assert kernel.trace_curve_M(SIMPLE, z, m=64).points.shape == (64,)
    assert grid_table.cache_info().misses == 3 and grid_table(kernel.FIRST_GRIDS) is table

    tau, cos_up, sin_up, perm = table
    lo, hi = kernel.FIRST_GRIDS
    assert (len(tau), len(cos_up), len(sin_up), len(perm)) == (lo + hi, (lo + hi) // 2,
                                                              (lo + hi) // 2, lo + hi)
    assert sorted(perm) == list(range(lo + hi))
    for got, want in zip(table, grid_table.__wrapped__(kernel.FIRST_GRIDS)):
        assert got.tobytes() == want.tobytes()
    for arr in table:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_curve_preimage_reads_the_edge_value_at_a_float(monkeypatch):
    # on the 17 circle-glued models (genuine, symmetric under x -> -x), the
    # edge value at a float ordinate is the one-element array's within a few
    # ulps, and curve_preimage, which reads it, places every probe where the
    # one-element array does: the same (y, tau), or None off the curve
    edge_values = kernel._edge_values

    def one_element(s, y, z, disc):
        t, k_x = edge_values(s, np.array([y]), z, disc)
        return complex(t[0]), complex(k_x[0])

    probes = [0.5, 2.0, 1.0, -1.0, 1j, cmath.exp(1j * math.pi / 3), cmath.exp(2j * math.pi / 3)]
    ulp = np.finfo(float).eps
    for s in circle_glued_models():
        for f in (0.25, 0.5, 0.85):
            z = f / len(s)
            tr = kernel.trace_curve_M(s, z)
            disc = kernel._edge_disc(s, z)
            for y in kernel.contour_nodes(tr, m=512)[1][:256:8]:
                for got, want in zip(edge_values(s, float(y), z, disc), one_element(s, y, z, disc)):
                    assert abs(got - want) <= 4 * ulp * abs(want), (s, z, y)
            xs = [complex(x) for x in tr.points[::16]] + [complex(x) for x in probes]
            floats = [kernel.curve_preimage(tr, x) for x in xs]
            with monkeypatch.context() as patched:
                patched.setattr(kernel, "_edge_values", one_element)
                assert [kernel.curve_preimage(tr, x) for x in xs] == floats, (s, z)
            assert sum(p is not None for p in floats) >= 32, (s, z)


def test_trace_finds_roots_once(monkeypatch):
    calls = []
    roots = rp.roots

    def counted(coeffs):
        calls.append(coeffs)
        return roots(coeffs)

    monkeypatch.setattr(rp, "roots", counted)
    for s, z, _ in genuine_traces():
        calls.clear()
        kernel.trace_curve_M(s, z)
        assert len(calls) == 1, (s, z)


def test_trace_rejects_genus_zero():
    with pytest.raises(GenusZeroRegime):
        kernel.trace_curve_M(SIMPLE, 0.2500001, m=64)


def test_zero_drift_sets_at_the_genus_transition():
    # z_g = 1/|S| for zero drift; at |S| = 4 or 8 it is a float, and D's
    # exact signs see the double root y = 1 there: the two negative arcs
    # meet, and no slit is traced.  Just below, the slit ends within 2^-8 of
    # that root, except where the curve passes through infinity (Gessel's)
    zero_drift = [s for s in steps.all_step_sets()
                  if len(s) in (4, 8) and not steps.is_singular(s)
                  and steps.origin_in_hull_interior(s)
                  and steps.drift(s).m_x == steps.drift(s).m_y == 0]
    assert len(zero_drift) == 7
    traced = 0
    for s in zero_drift:
        for plane in (s, s.mirrored()):
            with pytest.raises(GenusZeroRegime, match="^2 negative-discriminant component"):
                kernel.trace_curve_M(plane, 1 / len(s))
            z = (1 - 2**-20) / len(s)
            if kernel.curve_through_infinity(plane):
                with pytest.raises(SlitDegenerate, match="passes through infinity"):
                    kernel.trace_curve_M(plane, z)
                continue
            tr = kernel.trace_curve_M(plane, z)
            assert tr.y1 < tr.y2 and 1 - 2**-8 < tr.y2 < 1, (s, tr.y1, tr.y2)
            traced += 1
    assert traced == 12


def test_tiny_z_slit_is_found_and_refused_by_width():
    # at z = 1e-26 the y-plane roots are 0, 4e-52 and 2.5e51: the slit
    # [0, 4e-52] is real, but narrower than the trace resolves
    for name in ("gessel", "gouyou-beauchamps"):
        with pytest.raises(SlitDegenerate) as exc:
            kernel.trace_curve_M(steps.preset(name), 1e-26)
        assert str(exc.value) == "slit [0.0, 4e-52] is narrower than the trace resolves"


def test_bad_z_and_node_counts_are_out_of_range():
    trace = kernel.trace_curve_M(SIMPLE, 0.2, m=64)
    for call, match in (
        (lambda: kernel.branch_points(SIMPLE, 0.0), "z must be positive"),
        (lambda: kernel.Y_branches(SIMPLE, 0.5, -0.1), "z must be positive"),
        (lambda: kernel.kernel_eval(SIMPLE, 0.5, 0.5, 0.0), "undefined at z = 0"),
        (lambda: kernel.trace_curve_M(SIMPLE, 0.0), "z must be positive"),
        (lambda: kernel.trace_curve_M(SIMPLE, 0.2, m=8), "m must be >= 16"),
        (lambda: kernel.trace_curve_M(SIMPLE, 0.2, m=kernel._MAX_TRACE_POINTS + 1),
         "m must be <= 65536"),
        (lambda: kernel.contour_nodes(trace, m=63), "m must be even"),
        (lambda: kernel.contour_nodes(trace, m=0), "m must be even"),
        (lambda: kernel.contour_nodes(trace, m=-2), "m must be even"),
        (lambda: kernel.contour_nodes(trace, m=kernel._MAX_TRACE_POINTS + 2),
         "m must be <= 65536"),
    ):
        with pytest.raises(OutOfRange, match=match):
            call()


def test_point_classification_simple():
    z = 0.2
    tr = kernel.trace_curve_M(SIMPLE, z, m=256)
    bp = kernel.branch_points(SIMPLE, z)
    assert kernel.point_in_G_M(tr, bp.x_roots[0]) == "inside"
    assert kernel.point_in_G_M(tr, bp.x_roots[2]) == "outside"
    assert kernel.point_in_G_M(tr, 1.0 + 0j) == "boundary"
    assert kernel.point_in_G_M(tr, 0.3 + 0.4j) == "inside"
    assert kernel.point_in_G_M(tr, 2.0 + 0j) == "outside"


def test_membership_agrees_with_the_polyline_winding_away_from_it():
    # off the curve, the test |X0(Y0(x)) - x| <= _BAND classifies every
    # probe as the winding of the closed node polygon does, wherever the
    # probe is too far from the polygon for a chord to pass between it and
    # the curve
    seen = Counter()
    for s, z, tr in genuine_traces():
        pts = tr.points
        margin = 2 * np.abs(np.roll(pts, -1) - pts).max()
        x1, x2, x3, _ = kernel.branch_points(s, z).x_roots
        rng = random.Random(f"{s.sorted_steps()} {z}")
        lo, hi, h = pts.real.min() - 0.5, pts.real.max() + 0.5, np.abs(pts.imag).max() + 0.5
        probes = [0j, x1, x3, 0.5 * (x1 + x2)] + [k * p for p in pts[::32] for k in (0.9, 1.1)]
        probes += [complex(rng.uniform(lo, hi), rng.uniform(-h, h)) for _ in range(40)]
        for x in map(complex, probes):
            got = kernel.point_in_G_M(tr, x)
            if np.abs(pts - x).min() > margin:
                want = "inside" if winding(pts, x) else "outside"
                assert got == want, (s, z, x)
                seen[got] += 1
    assert seen["inside"] > 5000 and seen["outside"] > 15000


def test_origin_with_no_finite_y_root_is_inside():
    # without the steps (-1,0) and (-1,1), a(0) = b(0) = 0: K(0, .) = c(0)
    # has no finite root, Y0(0) = inf, and X0(inf) = 0 is the smaller root
    # of a; x = 0 lies inside, as the accurately traced curve says
    sets, probes = set(), 0
    for s, z, tr in genuine_traces((0.1, 0.5, 0.9)):
        if {(-1, 0), (-1, 1)} & set(s.steps):
            continue
        sets.add(s)
        probes += 1
        assert kernel.curve_preimage(tr, 0j) is None
        assert kernel.point_in_G_M(tr, 0j) == "inside", (s, z)
        assert winding(accurate_curve(tr, n=500), 0j) == 1, (s, z)
    assert (len(sets), probes) == (11, 33)


@pytest.mark.parametrize("pts", [
    [(-1, 1), (0, -1), (1, 1)],
    [(-1, 1), (0, -1), (0, 1), (1, 1)],
    [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, 1)],
    [(-1, 1), (0, -1), (0, 1), (1, 0), (1, 1)],
])
def test_membership_at_small_z_agrees_with_the_accurate_curve(pts):
    # at 0.02/|S| the slit is narrow and the traced nodes leave the curve
    # (the noise clamp of _edge_values), so their polygon misreads points the
    # curve encloses; on the first two sets it collapses onto the real axis
    # and encloses nothing, not even x = 0.  The analytic test agrees with
    # the accurately traced curve on every probe kept clear of it
    s = steps.parse_step_set(pts)
    tr = kernel.trace_curve_M(s, 0.02 / len(s))
    ref = accurate_curve(tr)
    rng = random.Random(str(pts))
    probes = [0j, 1e-9 + 0j, -1e-9 + 0j] + [k * p for p in tr.points[::16] for k in (0.97, 1.03)]
    probes += [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(60)]
    polyline_misses = 0
    for x in map(complex, probes):
        if np.abs(ref - x).min() <= 1e-3:
            continue
        want = "inside" if winding(ref, x) else "outside"
        assert kernel.point_in_G_M(tr, x) == want, x
        polyline_misses += want != ("inside" if winding(tr.points, x) else "outside")
    assert polyline_misses > 0
    if len(pts) <= 4:
        assert kernel.point_in_G_M(tr, 0j) == "inside"
        assert np.all(tr.points.imag == 0)


def test_points_the_polyline_misplaces_are_classified_off_the_curve():
    # these nodes of the trace hug the real axis near x = -1 at small z,
    # 3e-3 away from the true curve: curve_preimage rightly finds them off
    # it, and they lie inside, as the accurately traced curve says
    for pts in ([(-1, 1), (0, -1), (1, 1)], [(-1, 1), (0, -1), (0, 1), (1, 1)]):
        s = steps.parse_step_set(pts)
        tr = kernel.trace_curve_M(s, 0.05 / len(s))
        ref = accurate_curve(tr)
        x = complex(tr.points[7])
        assert np.abs(ref - x).min() > 3e-3
        assert kernel.curve_preimage(tr, x) is None
        assert kernel.point_in_G_M(tr, x) == "inside"
        assert winding(ref, x) == 1


def test_trace_nontrivial_model():
    # left-right symmetric model whose curve is also the unit circle:
    # at = ct = 1 identically
    s = steps.parse_step_set([(-1, -1), (1, -1), (0, 1)])
    tr = kernel.trace_curve_M(s, 0.15, m=256)
    assert np.max(np.abs(np.abs(tr.points) - 1.0)) < 1e-8
    assert np.array_equal(tr.points, np.conj(tr.points[::-1]))


def test_trace_kreweras_curve_properties():
    s = steps.preset("kreweras")
    z = 0.2
    tr = kernel.trace_curve_M(s, z, m=512)
    assert len(tr.points) == 512
    assert np.array_equal(tr.points, np.conj(tr.points[::-1]))
    bp = kernel.branch_points(s, z)
    assert kernel.point_in_G_M(tr, bp.x_roots[0]) == "inside"
    assert kernel.point_in_G_M(tr, bp.x_roots[2]) == "outside"
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
    tau, ys, t, dt = kernel.contour_nodes(tr, m=m)
    h = tau[1] - tau[0]
    fd = (np.roll(t, -1) - np.roll(t, 1)) / (2 * h)
    # central differences are O(h^2); compare away from nothing special
    assert np.max(np.abs(fd - dt)) < 5e-3
    assert np.max(np.abs(np.abs(t) - 1.0)) < 1e-10
    # the slit ordinates are kernel roots at the curve points
    for tk, yk in zip(t[:32], ys[:32]):
        assert abs(kernel.kernel_eval(SIMPLE, tk, yk, z)) < 1e-10
