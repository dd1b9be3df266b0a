import math
import random
from fractions import Fraction

import pytest

from qwalk import group, kernel, singularities, steps
from qwalk.errors import DegenerateGenerators, OutOfRange, PoleEncountered, QwalkError
from qwalk.group import RationalPoint

SIMPLE = steps.preset("simple")
F = Fraction


def generator_models():
    """Every step set on which both generators are defined."""
    out = []
    for s in steps.all_step_sets():
        kp = kernel.kernel_polys(s)
        if all(any(p) for p in (kp.a, kp.c, kp.a_t, kp.c_t)):
            out.append(s)
    return out


def genuine_models():
    """The 131 non-singular step sets with the origin inside their hull."""
    return [
        s for s in steps.all_step_sets()
        if not steps.is_singular(s) and steps.origin_in_hull_interior(s)
    ]


def orbit_by_inverses(s, p0, prime, max_m):
    """Reference screen: the psi o phi orbit on affine coordinates mod prime,
    one modular inverse per generator step."""
    def red(fr):
        den = fr.denominator % prime
        if den == 0:
            raise ZeroDivisionError
        return fr.numerator % prime * pow(den, prime - 2, prime) % prime

    kp = kernel.kernel_polys(s)
    try:
        x0, y0 = red(p0.x), red(p0.y)
        x, y = x0, y0
        flags = []
        for _ in range(max_m):
            at, ct = kernel.poly_eval(kp.a_t, y) % prime, kernel.poly_eval(kp.c_t, y) % prime
            if at == 0 or x == 0:
                return None
            x = ct * pow(at * x % prime, prime - 2, prime) % prime
            a, c = kernel.poly_eval(kp.a, x) % prime, kernel.poly_eval(kp.c, x) % prime
            if a == 0 or y == 0:
                return None
            y = c * pow(a * y % prime, prime - 2, prime) % prime
            flags.append(x == x0 and y == y0)
        return flags
    except ZeroDivisionError:
        return None


def test_screen_matches_the_inverse_based_orbit():
    for s in genuine_models():
        for p in group._PANEL:
            for prime in (group._PRIME, 10**18 + 9):
                assert group._orbit_mod_p(s, p, prime, 16) == orbit_by_inverses(s, p, prime, 16)


def test_screen_bad_reduction_and_exact_pole():
    s = steps.preset("kreweras")
    assert group._orbit_mod_p(s, RationalPoint(F(3, 2**61 - 1), F(5, 7)), group._PRIME, 16) is None
    # Gessel: at(y) = y + y^2 vanishes at y = -1, an exact pole of phi
    gessel = steps.preset("gessel")
    pole = RationalPoint(F(2, 3), F(-1))
    with pytest.raises(PoleEncountered):
        group.phi(gessel, pole)
    assert group._orbit_mod_p(gessel, pole, group._PRIME, 16) is None


def test_the_panel_screens_every_step_set():
    # no panel orbit meets a pole or a bad reduction, so group_order raises no
    # TestPointExhaustion on a step set whose generators are defined
    for s in generator_models():
        for p in group._PANEL:
            assert group._orbit_mod_p(s, p, group._PRIME, 64) is not None, (s, p)


def test_a_badly_reducing_panel_point_is_exhaustion(monkeypatch):
    monkeypatch.setattr(group, "_PANEL", (RationalPoint(F(3, 2**61 - 1), F(5, 7)),))
    with pytest.raises(group.TestPointExhaustion, match="reduces badly"):
        group.group_order(steps.preset("kreweras"))


def reference_group_order(s, max_half_order):
    """group_order as an all-points screen: every panel orbit screened to the
    full bound, candidates certified with Fraction arithmetic through psi and
    phi."""
    group._check_defined(kernel.kernel_polys(s))
    if max_half_order < 2:
        raise OutOfRange("max_half_order must be >= 2 (psi and phi are never equal)")
    if max_half_order > group._MAX_HALF_ORDER:
        raise OutOfRange(f"max_half_order must be <= {group._MAX_HALF_ORDER}")
    point_flags = []
    for p in group._PANEL:
        flags = group._orbit_mod_p(s, p, group._PRIME, max_half_order)
        if flags is None:
            raise group.TestPointExhaustion(
                f"the panel orbit of {p} reduces badly modulo {group._PRIME}")
        point_flags.append(flags)

    def returns_at(p0, m):
        p = p0
        for _ in range(m):
            p = group.psi(s, group.phi(s, p))
        return p == p0

    for m in range(2, max_half_order + 1):
        if all(flags[m - 1] for flags in point_flags) and all(
                returns_at(p, m) for p in group._PANEL):
            return group.GroupOrderResult(finite=True, order=2 * m)
    return group.GroupOrderResult(finite=False, half_order_bound=max_half_order)


def outcome(f, *args):
    try:
        return repr(f(*args))
    except QwalkError as e:
        return f"{type(e).__name__}: {e}"


def test_group_order_matches_the_all_points_reference():
    # the lazy screen and the integer certification decide as the full
    # screen with Fraction certification does, errors included
    for s in steps.all_step_sets():
        for bound in (2, 4, 8, 16, 64):
            got = outcome(group.group_order, s, bound)
            assert got == outcome(reference_group_order, s, bound), (s, bound)


def test_exact_certification_matches_fraction_orbits():
    # the integer projective orbit returns exactly when the Fraction orbit
    # does, also where it does not return (certification sees no such m on
    # the 255 sets, since the screen strikes them out); finite m are <= 4
    for s in generator_models():
        kp = kernel.kernel_polys(s)
        for p in group._PANEL:
            q = p
            for m in range(1, 5):
                q = group.psi(s, group.phi(s, q))
                assert group._orbit_exact_returns_at(kp, p, m) == (q == p), (s, p, m)


def test_one_screened_orbit_rules_out_every_order_above_the_bound(monkeypatch):
    # on each genuine set whose group exceeds the bound, the first panel
    # point's orbit already strikes out every m <= 16, so no other point runs
    screened = []
    orbit = group._orbit_mod_p

    def counting_orbit(s, p0, prime, max_m):
        screened.append(max_m)
        return orbit(s, p0, prime, max_m)

    monkeypatch.setattr(group, "_orbit_mod_p", counting_orbit)
    exceeding = 0
    for s in genuine_models():
        screened.clear()
        if not group.group_order(s).finite:
            assert screened == [16], s
            exceeding += 1
    assert exceeding == 92


def test_psi_simple_walk_inverts_y():
    # both generator sums reduce to 1 for the simple walk
    p = group.psi(SIMPLE, RationalPoint(F(2), F(3)))
    assert (p.x, p.y) == (F(2), F(1, 3))


def test_phi_simple_walk_inverts_x():
    p = group.phi(SIMPLE, RationalPoint(F(2), F(3)))
    assert (p.x, p.y) == (F(1, 2), F(3))


def test_generators_are_involutions_on_random_points():
    rng = random.Random(23)
    for s in generator_models():
        done = 0
        while done < 10:
            p = RationalPoint(
                F(rng.randint(-60, 60), rng.randint(1, 60)),
                F(rng.randint(-60, 60), rng.randint(1, 60)),
            )
            try:
                assert group.psi(s, group.psi(s, p)) == p
                assert group.phi(s, group.phi(s, p)) == p
            except PoleEncountered:
                continue
            done += 1


def test_psi_fixed_point_at_one_one_for_kreweras():
    # zero drift in y-direction balance: c(1) = a(1) = 1, so psi fixes (1, 1)
    p = group.psi(steps.preset("kreweras"), RationalPoint(F(1), F(1)))
    assert (p.x, p.y) == (F(1), F(1))


def test_phi_pole_reported():
    # kreweras: at(y) = y^2, vanishing at y = 0 is excluded upstream; use a
    # model where at has a rational root: steps with i=+1 are (1,1) and (1,-1)
    s = steps.parse_step_set([(1, 1), (1, -1), (-1, 0), (0, -1), (0, 1)])
    # at(y) = 1 + y^2 > 0; pick instead x = 0 which is always a pole of phi
    with pytest.raises(PoleEncountered):
        group.phi(s, RationalPoint(F(0), F(2)))


def test_invariant_preserved_simple_point():
    val = group.step_symbol(SIMPLE, RationalPoint(F(2), F(3)))
    assert val == F(2) + F(1, 2) + F(3) + F(1, 3)
    assert group.invariant_check(SIMPLE, RationalPoint(F(2), F(3)))


def test_invariant_preserved_random_points_all_presets():
    rng = random.Random(29)
    for s in generator_models():
        done = 0
        while done < 5:
            p = RationalPoint(
                F(rng.randint(1, 40), rng.randint(1, 40)),
                F(rng.randint(1, 40), rng.randint(1, 40)),
            )
            try:
                assert group.invariant_check(s, p)
            except PoleEncountered:
                continue
            done += 1


@pytest.mark.parametrize(
    "name,expected",
    [("simple", 4), ("kreweras", 6), ("gessel", 8), ("gouyou-beauchamps", 8)],
)
def test_group_orders_of_presets(name, expected):
    res = group.group_order(steps.preset(name), max_half_order=8)
    assert res.finite and res.order == expected


def test_finite_order_word_fixes_fresh_points():
    # applying (psi o phi)^m with 2m the reported order fixes new points exactly
    rng = random.Random(31)
    for name, order in [("simple", 4), ("kreweras", 6), ("gessel", 8)]:
        s = steps.preset(name)
        m = order // 2
        done = 0
        while done < 3:
            p = RationalPoint(
                F(rng.randint(1, 50), rng.randint(1, 50)),
                F(rng.randint(1, 50), rng.randint(1, 50)),
            )
            try:
                q = p
                for _ in range(m):
                    q = group.psi(s, group.phi(s, q))
            except PoleEncountered:
                continue
            assert q == p
            done += 1


def test_reported_orders_are_even_and_at_least_four():
    rng = random.Random(37)
    pool = list(steps.all_step_sets())
    for s in rng.sample(pool, 40):
        try:
            res = group.group_order(s, max_half_order=6)
        except DegenerateGenerators:
            continue
        if res.finite:
            assert res.order % 2 == 0 and res.order >= 4


def test_non_closing_model_exceeds_bound():
    # this composition does not return on any test point up to the bound
    s = steps.parse_step_set([(-1, 1), (0, -1), (1, -1), (1, 1)])
    res = group.group_order(s, max_half_order=16)
    assert not res.finite
    assert res.half_order_bound == 16


def test_king_walk_generators_collapse_to_order_four():
    # with all eight steps both generator ratios are identically 1, so the
    # composition is (x, y) -> (1/x, 1/y) and squares to the identity
    s = steps.parse_step_set(
        [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)]
    )
    res = group.group_order(s)
    assert res.finite and res.order == 4


def test_degenerate_generators_rejected():
    with pytest.raises(DegenerateGenerators):
        group.group_order(steps.parse_step_set([(1, 0), (0, 1)]))


def test_half_order_bound_below_two_is_out_of_range():
    with pytest.raises(OutOfRange, match="max_half_order"):
        group.group_order(steps.preset("kreweras"), max_half_order=1)


def test_half_order_bound_above_the_cap_is_out_of_range(monkeypatch):
    # refused before any orbit is run; the cap itself is accepted
    monkeypatch.setattr(group, "_orbit_mod_p", None)
    with pytest.raises(OutOfRange, match="max_half_order must be <= 1024"):
        group.group_order(steps.preset("gessel"), max_half_order=group._MAX_HALF_ORDER + 1)
    monkeypatch.undo()
    res = group.group_order(steps.preset("simple"), max_half_order=group._MAX_HALF_ORDER)
    assert res.order == 4


def test_group_census_of_nonsingular_classes():
    # Bousquet-Melou & Mishna (2010): the 74 non-singular classes up to the
    # diagonal reflection split 23 finite (16 of order 4, 5 of order 6, 2 of
    # order 8) and 51 infinite
    census: dict[object, int] = {}
    for s in steps.all_step_sets():
        if steps.is_singular(s) or not steps.origin_in_hull_interior(s):
            continue
        if steps.symmetry_class(s)[1] != "identity":
            continue
        res = group.group_order(s)
        key = res.order if res.finite else "exceeds"
        census[key] = census.get(key, 0) + 1
    assert census == {4: 16, 6: 5, 8: 2, "exceeds": 51}


def angle_order(s):
    """Group order from the correlation angle at the critical point, without
    the group itself: theta/pi = arccos(-r)/pi = p/q (q <= 16) gives order 2q;
    None when theta/pi is not within 1e-9 of such a fraction."""
    cp = singularities.critical_point(s)
    w = {(i, j): cp.alpha**i * cp.beta**j for (i, j) in s.steps}
    sij = sum(i * j * v for (i, j), v in w.items())
    sii = sum(i * i * v for (i, j), v in w.items())
    sjj = sum(j * j * v for (i, j), v in w.items())
    t = math.acos(-sij / math.sqrt(sii * sjj)) / math.pi
    f = Fraction(t).limit_denominator(16)
    return 2 * f.denominator if abs(t - f) < 1e-9 else None


def test_group_orders_match_the_correlation_angle():
    # the group is finite exactly when theta/pi is rational, of order 2q for
    # theta/pi = p/q (the criterion of Bostan, Raschel & Salvy 2014)
    split = {"finite": 0, "exceeds": 0}
    for s in genuine_models():
        res = group.group_order(s)
        expected = angle_order(s)
        if expected is None:
            assert not res.finite and res.half_order_bound == 16, s
            split["exceeds"] += 1
        else:
            assert res.finite and res.order == expected, s
            split["finite"] += 1
    assert split == {"finite": 39, "exceeds": 92}
