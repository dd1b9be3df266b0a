import math
import random
from fractions import Fraction

import pytest

from qwalk import _ratpoly as rp
from qwalk import kernel, singularities as sg, steps
from qwalk.errors import (
    InexactDivision,
    NoPositiveSolution,
    OutOfRange,
    RootFindingFailure,
    SingularWalk,
    ValidationMismatch,
)

SIMPLE = steps.preset("simple")
KREWERAS = steps.preset("kreweras")


def genuine_models():
    for s in steps.all_step_sets():
        if steps.is_singular(s):
            continue
        if not steps.origin_in_hull_interior(s):
            continue
        yield s


# ---------------------------------------------------------------- _ratpoly

def test_ratpoly_divmod_and_gcd():
    # (x^2 - 1) = (x - 1)(x + 1)
    p = rp.norm([-1, 0, 1])
    q = rp.norm([1, 1])
    assert rp.exact_div(p, q) == rp.norm([-1, 1])
    # x^2 + 1 leaves the remainder 2 on x + 1; 2x^2 is not an integer multiple of 3x
    for p, q, match in (([1, 0, 1], [1, 1], "nonzero remainder"),
                        ([0, 0, 2], [0, 3], "not divisible by 3")):
        with pytest.raises(InexactDivision, match=match):
            rp.exact_div(p, q)
    g = rp.polygcd(rp.norm([-1, 0, 1]), rp.norm([1, 1]))
    assert rp.degree(g) == 1
    # prem is a positive multiple of the remainder in Q[x], whatever the sign of lead(q)
    p = [5, -3, 0, 7, 2]
    for q in ([1, 2, 3], [1, 2, -3], [-4, 0, 0, -5], [3, 7]):
        rem = [Fraction(c) for c in p]
        while len(rem) >= len(q):
            f, shift = rem[-1] / q[-1], len(rem) - len(q)
            rem = [c - f * q[i - shift] if i >= shift else c for i, c in enumerate(rem)][:-1]
        rem = rp.norm(rem)
        got = rp.prem(p, q)
        assert got[-1] * rem[-1] > 0 and [g * rem[-1] for g in got] == [r * got[-1] for r in rem], q


def test_count_positive_roots_counts_distinct_roots():
    # (x-1)^2 (x-2) (x+3), x (x-1), x^2 (x^2 + 1), (x-1)^3, x^2 + 1, 7
    for p, want in (([-6, 13, -7, -1, 1], 2), ([0, -1, 1], 1), ([0, 0, 1, 0, 1], 0),
                    ([-1, 3, -3, 1], 1), ([1, 0, 1], 0), ([7], 0)):
        assert rp.count_positive_roots(p) == want, p


def test_sturm_root_isolation_known_roots():
    # roots 1/3, 2, 5: p = (3x-1)(x-2)(x-5); the smallest within the bracket
    got = rp.smallest_positive_root(rp.norm([-10, 37, -22, 3]))
    assert abs(got - Fraction(1, 3)) <= Fraction(1, 2**(rp.BRACKET_BITS + 1))
    # a dyadic root that the bisection lands on is returned exactly
    assert rp.smallest_positive_root(rp.norm([3, -7, 2])) == Fraction(1, 2)
    # no positive root: x^2 + 1, (x+1)(x+2), a constant, x
    for p in ([1, 0, 1], [2, 3, 1], [5], [0, 1]):
        assert rp.smallest_positive_root(p) is None, p
    # the square-free resultant 64z - 4096z^5 of {(-1,-1),(0,1),(1,-1)}
    # vanishes at z = 0, outside the Sturm count on (0, hi]: the root
    # returned is 2^(-3/2), not one next to 0
    res = sg._resultant_in_z(steps.parse_step_set([(-1, -1), (0, 1), (1, -1)]))
    assert rp.square_free(res) == [0, 64, 0, 0, 0, -4096]
    got = rp.smallest_positive_root(res)
    half = Fraction(1, 2**(rp.BRACKET_BITS + 1))
    assert (got - half) ** 2 < Fraction(1, 8) < (got + half) ** 2


def _reconstruction_gap(coeffs, roots):
    """max_k |lead * e_k(roots) - coeffs[k]| / (|lead| * e_k(|roots|)): how
    far the roots' product rebuilds the polynomial, against the size of the
    terms that build each coefficient."""
    lead = coeffs[-1]
    prod, mags = [1 + 0j], [1.0]
    for r in roots:
        prod = [a - r * b for a, b in zip([0j] + prod, prod + [0j])]
        mags = [a + abs(r) * b for a, b in zip([0.0] + mags, mags + [0.0])]
    return max(abs(lead * a - c) / (abs(lead) * m or 1.0) for a, c, m in zip(prod, coeffs, mags))


def test_roots_exact_zeros_and_degree_drop():
    # each zero low-order coefficient is an exact 0j root; high-order zeros
    # lower the degree
    got = rp.roots([0, 0, -2, 1, 0, 0])
    assert got.count(0j) == 2 and all(str(r) == "0j" for r in got if r == 0)
    assert sorted(r.real for r in got) == [0.0, 0.0, 2.0]
    assert sorted(r.real for r in rp.roots([6, 5, 1, 0])) == [-3.0, -2.0]
    assert rp.roots([]) == rp.roots([0, 0]) == rp.roots([3]) == []
    assert rp.roots([0, 0, 7]) == [0j, 0j]


def test_roots_simple_walk_branch_points_closed_form():
    # at z = 0.2 the cleared discriminant is (x^2-3x+1)(x^2-7x+1) / 25
    coeffs = kernel._cleared_disc_at(kernel.cleared_disc_int(SIMPLE), 0.2)
    got = sorted(rp.roots(coeffs), key=lambda r: r.real)
    sq5 = 5**0.5
    want = [(7 - 3 * sq5) / 2, (3 - sq5) / 2, (3 + sq5) / 2, (7 + 3 * sq5) / 2]
    for r, w in zip(got, want):
        assert r.imag == 0.0 and r.real == pytest.approx(w, rel=1e-14, abs=0)


def test_roots_of_every_cleared_discriminant():
    # all 255 step sets, both planes, at z down to 0.001 and up to 1/|S|,
    # where x2 and x3 collide into a double root: every root within the
    # residual bound of kernel.disc_roots, before its Newton polish, and
    # the roots rebuild the polynomial (no root found twice, none missed;
    # a double root is found to about the square root of roundoff)
    cases = worst = 0
    for s in steps.all_step_sets():
        for plane in (s, s.mirrored()):
            triples = kernel.cleared_disc_int(plane)
            for z in (0.001, 0.1, 0.99 / len(s), 1 / len(s)):
                coeffs = rp.norm(kernel._cleared_disc_at(triples, z))
                got = rp.roots(coeffs)
                assert len(got) == max(len(coeffs) - 1, 0)
                if not got:  # D vanishes identically at z = 1/2 on 6 planes of two-step sets
                    continue
                scale = max(abs(c) for c in coeffs)
                for r in got:
                    bound = 1e-6 * scale * max(1.0, abs(r)) ** (len(coeffs) - 1)
                    assert abs(kernel.poly_eval(coeffs, r)) <= bound, (s, z, r)
                worst = max(worst, _reconstruction_gap(coeffs, got))
                cases += 1
    assert cases == 2034 and worst < 1e-7, worst


def test_roots_decades_apart_restart_from_the_reversed_polynomial():
    # the cleared x-discriminant of {(-1,0),(0,1),(1,-1)} at z = 1e-23: a
    # double root at 1e-23 and one at 2.5e45.  The forward closed form starts
    # the small pair at +-6e36 i, from where Aberth leaves a wrong pair; the
    # reciprocals of the reversed polynomial's roots start it right
    coeffs = [1e-46, -2e-23, 1.0, -4e-46]
    got = sorted(rp.roots(coeffs), key=abs)
    assert [abs(r) for r in got] == pytest.approx([1e-23, 1e-23, 2.5e45], rel=1e-7)
    for r in got:
        bound = 1e-6 * max(map(abs, coeffs)) * max(1.0, abs(r)) ** 3
        assert abs(kernel.poly_eval(coeffs, r)) <= bound, r


def test_roots_above_degree_four_are_out_of_range():
    # only the closed forms start the iteration: degree 5 is refused
    with pytest.raises(OutOfRange, match="degree at most 4"):
        rp.roots([1, 0, 0, 0, 0, 1])


def test_closed_form_resultant_shared_root(monkeypatch):
    # Res_x(f, f') of a monic f with the given roots, fed to _resultant_in_z
    # as a cleared discriminant constant in z: 0 exactly when f has a double
    # root, else (-1)^(d(d-1)/2) prod (r_i - r_j)^2, as the Fraction oracle
    for roots, want in (((2, 2, -1), []),          # (x-2)^2 (x+1)
                        ((2, 2, -1, 3), []),
                        ((2, -1, 3), [-144]),
                        ((2, -1, 3, 1), [2304]),
                        ((2, -1), [-9])):
        f = [1]
        for r in roots:
            f = rp.mul(f, [-r, 1])
        disc = [(c, 0, 0) for c in f] + [(0, 0, 0)] * (5 - len(f))
        monkeypatch.setattr(sg, "cleared_disc_int", lambda s: disc)
        res = sg._resultant_in_z(SIMPLE)
        assert res == want, roots
        p = [Fraction(c) for c in f]
        assert _fraction_sylvester_det(p, [k * p[k] for k in range(1, len(p))]) == sum(res)


def _fraction_sylvester_det(p, q):
    """Reference: Sylvester determinant of two rational x-polynomials
    (ascending) by Gaussian elimination over Fraction."""
    dp, dq = len(p) - 1, len(q) - 1
    n = dp + dq
    rows = [[Fraction(0)] * k + p[::-1] + [Fraction(0)] * (n - dp - k - 1) for k in range(dq)]
    rows += [[Fraction(0)] * k + q[::-1] + [Fraction(0)] * (n - dq - k - 1) for k in range(dp)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            for c in range(col, n):
                rows[r][c] -= f * rows[col][c]
    return det


def test_resultant_matches_fraction_sylvester_determinant():
    # the closed-form Z[z] resultant against rational Sylvester determinants
    # on all 255 sets (about 1.5 s).  D has x-degree d and z-degree <= 2, so
    # R has z-degree at most 2(2d-1): agreement at 2(2d-1)+1 integer z
    # proves equality.  On the genuine sets R is nonzero and its smallest
    # positive root is bracketed: no Sturm root in (0, lo], and the
    # square-free part changes sign across (lo, hi)
    genuine = set(genuine_models())
    for s in steps.all_step_sets():
        res = sg._resultant_in_z(s)
        disc = list(kernel.cleared_disc_int(s))
        while disc[-1] == (0, 0, 0):
            disc.pop()
        bound = 2 * (2 * (len(disc) - 1) - 1)
        assert len(res) - 1 <= bound, s
        for z in range(1, bound + 2):
            p = [Fraction(c0 + c1 * z + c2 * z * z) for (c0, c1, c2) in disc]
            q = [k * p[k] for k in range(1, len(p))]
            want = _fraction_sylvester_det(p, q)
            assert sum(c * z**k for k, c in enumerate(res)) == want, (s, z)
        if s not in genuine:
            continue
        assert res, s
        root = rp.smallest_positive_root(res)
        assert root is not None, s
        sqf = rp.square_free(res)
        chain = rp.sturm_chain(sqf)
        # the bracket (lo / 2^k, hi / 2^k) centred on the root, 2^-60 wide
        k = rp.BRACKET_BITS + 1
        lo, hi = root * 2**k - 1, root * 2**k + 1
        assert lo.denominator == 1, s
        lo, hi = int(lo), int(hi)
        assert rp._sign_changes(chain, 0, 0) == rp._sign_changes(chain, lo, k), s
        assert rp.sign_at(sqf, lo, k) * rp.sign_at(sqf, hi, k) < 0, s


# ----------------------------------------------------------- critical point

def test_critical_point_simple_walk():
    cp = sg.critical_point(SIMPLE)
    assert (cp.alpha, cp.beta) == (1.0, 1.0)
    assert cp.z_g == pytest.approx(0.25, abs=1e-14)


def test_critical_point_kreweras():
    cp = sg.critical_point(KREWERAS)
    assert cp.z_g == pytest.approx(1 / 3, abs=1e-12)


def test_critical_point_six_step_zero_drift():
    s = steps.parse_step_set([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
    cp = sg.critical_point(s)
    assert cp.z_g == pytest.approx(1 / 6, abs=1e-12)


def test_critical_point_satisfies_system():
    rng = random.Random(71)
    for s in rng.sample(list(genuine_models()), 20):
        cp = sg.critical_point(s)
        g1 = sum(i * cp.alpha**i * cp.beta**j for (i, j) in s.steps)
        g2 = sum(j * cp.alpha**i * cp.beta**j for (i, j) in s.steps)
        assert abs(g1) < 1e-11 and abs(g2) < 1e-11
        assert cp.alpha > 0 and cp.beta > 0


def test_critical_point_full_newton_steps_converge_on_every_genuine_set():
    # critical_point takes every Newton step whole; on all 131 genuine sets
    # that reaches a residual below 1e-13
    residuals = [sg.critical_point(s).residual for s in genuine_models()]
    assert len(residuals) == 131 and max(residuals) < 1e-13


def test_critical_point_rejections():
    with pytest.raises(SingularWalk):
        sg.critical_point(steps.parse_step_set([(1, 0), (0, 1), (1, 1)]))
    # all steps in a half-plane: no positive solution
    with pytest.raises(NoPositiveSolution):
        sg.critical_point(steps.parse_step_set([(1, 1), (1, -1), (1, 0), (0, -1)]))


# ------------------------------------------------------------ z_g resultant

def test_resultant_route_simple_walk():
    assert sg.z_g_via_resultant(SIMPLE) == pytest.approx(0.25, abs=1e-10)


def test_two_routes_agree_on_presets():
    for name in ("simple", "kreweras", "gessel", "gouyou-beauchamps"):
        s = steps.preset(name)
        a = sg.critical_point(s).z_g
        b = sg.z_g_via_resultant(s)
        assert abs(a - b) < 1e-9, name


def test_two_routes_agree_random():
    rng = random.Random(73)
    for s in rng.sample(list(genuine_models()), 25):
        a = sg.critical_point(s).z_g
        b = sg.z_g_via_resultant(s)
        assert abs(a - b) < 1e-9, s


def test_zero_drift_gives_inverse_cardinality():
    count = 0
    for s in genuine_models():
        d = steps.drift(s)
        if d.m_x == 0 and d.m_y == 0:
            assert sg.critical_point(s).z_g == pytest.approx(1 / len(s), abs=1e-12)
            count += 1
    assert count > 5


def test_resultant_route_is_the_smallest_certified_root_on_every_genuine_set():
    # D has no double root on (0, z_g): on all 131 genuine sets the smallest
    # positive root of the resultant is the inner collision
    seen = 0
    for s in genuine_models():
        root = rp.smallest_positive_root(sg._resultant_in_z(s))
        assert sg.z_g_via_resultant(s) == float(root), s
        seen += 1
    assert seen == 131


def test_the_two_routes_meet_within_two_ulps_on_every_genuine_set():
    # the resultant's root is bracketed to 2^-60, so the routes differ by
    # the critical point's own rounding only
    gaps = [sg.classify_first_singularities(s) for s in genuine_models()]
    assert len(gaps) == 131
    for r in gaps:
        assert r.method_gap <= 2 * math.ulp(r.z_g), r


def test_resultant_route_names_why_its_root_was_rejected(monkeypatch):
    # a spurious root 1/8 below the simple walk's z_g = 1/4: D keeps its four
    # positive roots across it
    res = sg._resultant_in_z(SIMPLE)
    monkeypatch.setattr(sg, "_resultant_in_z", lambda s: rp.mul(res, [-1, 8]))
    with pytest.raises(ValidationMismatch,
                       match="z=0.125 .* 4 distinct positive roots below it, 4 above"):
        sg.z_g_via_resultant(SIMPLE)


def test_resultant_route_reports_every_dropped_candidate(monkeypatch):
    # only the smallest positive root is a candidate: a spurious one is
    # reported by its z, never passed over for the true z_g = 1/4 above it,
    # and a resultant without positive roots says so
    res = sg._resultant_in_z(SIMPLE)
    for factor, z in (([-1, 16], "0.0625"), ([-1, 8], "0.125"), ([-3, 16], "0.1875")):
        monkeypatch.setattr(sg, "_resultant_in_z", lambda s, f=factor: rp.mul(res, f))
        with pytest.raises(ValidationMismatch, match=f"smallest resultant root z={z} "):
            sg.z_g_via_resultant(SIMPLE)
    monkeypatch.setattr(sg, "_resultant_in_z", lambda s: rp.mul([1, 1], [1, 0, 1]))
    with pytest.raises(RootFindingFailure, match="no positive real roots"):
        sg.z_g_via_resultant(SIMPLE)


def test_the_validation_points_hold_one_root_of_the_resultant_on_every_genuine_set():
    # z_g_via_resultant counts D's positive roots at (n - 1)/2^k and
    # (n + 2)/2^k, n = floor(root 2^k), k = 30: R has exactly one root
    # between them, and D, evaluated here on Fractions, loses 2 positive roots
    k, seen = rp.BRACKET_BITS // 2, 0
    for s in genuine_models():
        res = sg._resultant_in_z(s)
        n = math.floor(rp.smallest_positive_root(res) * 2**k)
        chain = rp.sturm_chain(rp.square_free(res))
        assert rp._sign_changes(chain, n - 1, k) - rp._sign_changes(chain, n + 2, k) == 1, s
        counts = []
        for m in (n - 1, n + 2):
            z = Fraction(m, 2**k)
            d = [(c0 + c1 * z + c2 * z * z) * 4**k for (c0, c1, c2) in kernel.cleared_disc_int(s)]
            assert all(c.denominator == 1 for c in d), s
            counts.append(rp.count_positive_roots([int(c) for c in d]))
        assert counts[0] - counts[1] == 2, (s, counts)
        seen += 1
    assert seen == 131


def test_branch_collision_at_resultant_z_g():
    # x2 and x3 really collide at the returned z
    for s in (SIMPLE, KREWERAS):
        zg = sg.z_g_via_resultant(s)
        below = kernel.branch_points(s, zg * (1 - 1e-5))
        x2, x3 = below.x_roots[1], below.x_roots[2]
        assert abs(x3 - x2) < 0.05
        assert x2.imag == 0 and x3.imag == 0


# ------------------------------------------------------------------ z_Y/z_X

def test_z_y_closed_forms():
    assert sg.z_Y(SIMPLE) == pytest.approx(0.25)
    assert sg.z_Y(KREWERAS) == pytest.approx(1 / 3)


def test_z_y_is_root_of_discriminant_at_one():
    # d(1, z_Y) = 0 is a symbolic identity; float evaluation leaves only
    # rounding of the square root
    rng = random.Random(79)
    for s in rng.sample(list(genuine_models()), 20):
        zy = sg.z_Y(s)
        kp = kernel.kernel_polys(s)
        d1 = (sum(kp.b) - 1 / zy) ** 2 - 4 * sum(kp.a) * sum(kp.c)
        cleared = kernel._cleared_disc_at(kernel.cleared_disc_int(s), zy)
        assert abs(d1) < 1e-12
        assert abs(kernel.poly_eval(cleared, 1.0)) < 1e-12 * zy * zy


def test_z_y_infinite_case():
    # b(1) = 0 and c = 0: only North-ish steps on the y-side
    s = steps.parse_step_set([(0, 1), (1, 1), (-1, 1)])
    with pytest.raises(OutOfRange, match="no finite z_Y"):
        sg.z_Y(s)
    with pytest.raises(OutOfRange, match="no finite z_Y"):
        sg.z_X(s.mirrored())


def test_diagonal_swap_exchanges_z_x_and_z_y():
    rng = random.Random(83)
    for s in rng.sample(list(genuine_models()), 15):
        sm = s.mirrored()
        assert sg.z_Y(s) == pytest.approx(sg.z_X(sm), rel=1e-14)
        assert sg.z_X(s) == pytest.approx(sg.z_Y(sm), rel=1e-14)


def test_sandwich_property():
    for s in genuine_models():
        zg = sg.critical_point(s).z_g
        inv = 1.0 / len(s)
        for v in (sg.z_Y(s), sg.z_X(s)):
            assert inv - 1e-10 <= v <= zg + 1e-10, s


# ------------------------------------------------------------ classification

def test_classification_simple_walk():
    rep = sg.classify_first_singularities(SIMPLE)
    assert rep.drift_sign == ("0", "0")
    for fs in (rep.fs_q10, rep.fs_q01, rep.fs_q11):
        assert fs.label == "1/|S|"
        assert fs.value == pytest.approx(0.25)
        assert "z_g" in fs.ties


def test_classification_positive_drift():
    s = steps.parse_step_set([(1, 0), (0, 1), (-1, -1), (1, 1)])
    d = steps.drift(s)
    assert (d.m_x > 0, d.m_y > 0) == (True, True)
    rep = sg.classify_first_singularities(s)
    assert rep.fs_q10.label == "z_Y"
    assert rep.fs_q01.label == "z_X"
    assert rep.fs_q11.label == "1/|S|"


def test_classification_negative_drift():
    s = steps.parse_step_set([(-1, 0), (0, -1), (-1, -1), (1, 1)])
    rep = sg.classify_first_singularities(s)
    assert rep.drift_sign == ("-", "-")
    assert rep.fs_q10.label == rep.fs_q01.label == rep.fs_q11.label == "z_g"


def test_classification_tie_at_zero_covariance():
    # drift (0,-), C = 0: the split cells coincide and are reported as ties
    s = steps.parse_step_set([(-1, -1), (1, -1), (0, 1)])
    d = steps.drift(s)
    assert (d.m_x, d.m_y < 0, d.covariance) == (0, True, 0)
    rep = sg.classify_first_singularities(s)
    assert rep.fs_q10.ties  # tie recorded
    assert rep.z_g == pytest.approx(rep.z_Y, abs=1e-12)


def test_classification_mirror_consistency():
    rng = random.Random(89)
    for s in rng.sample(list(genuine_models()), 12):
        rep = sg.classify_first_singularities(s)
        mrep = sg.classify_first_singularities(s.mirrored())
        swap = {"z_X": "z_Y", "z_Y": "z_X"}
        assert mrep.fs_q01.label == swap.get(rep.fs_q10.label, rep.fs_q10.label)
        assert mrep.fs_q10.label == swap.get(rep.fs_q01.label, rep.fs_q01.label)
        assert mrep.fs_q11.value == pytest.approx(rep.fs_q11.value, rel=1e-9)


def test_method_gap_diagnostic_small():
    rep = sg.classify_first_singularities(KREWERAS)
    assert rep.method_gap < 1e-9
