import random
from fractions import Fraction

import pytest

from qwalk import group, steps
from qwalk.errors import DegenerateGenerators, PoleEncountered
from qwalk.group import RationalPoint

SIMPLE = steps.preset("simple")
F = Fraction


def test_psi_simple_walk_inverts_y():
    # both generator sums reduce to 1 for the simple walk
    p = group.psi(SIMPLE, RationalPoint(F(2), F(3)))
    assert (p.x, p.y) == (F(2), F(1, 3))


def test_phi_simple_walk_inverts_x():
    p = group.phi(SIMPLE, RationalPoint(F(2), F(3)))
    assert (p.x, p.y) == (F(1, 2), F(3))


def test_generators_are_involutions_on_random_points():
    rng = random.Random(23)
    models = [SIMPLE, steps.preset("kreweras"), steps.preset("gessel"),
              steps.preset("gouyou-beauchamps")]
    for s in models:
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
    for name in steps.PRESETS:
        s = steps.preset(name)
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
    res = group.group_order(steps.preset(name), max_half_order=8, seed=1)
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
            res = group.group_order(s, max_half_order=6, seed=2)
        except DegenerateGenerators:
            continue
        if res.finite:
            assert res.order % 2 == 0 and res.order >= 4


def test_non_closing_model_exceeds_bound():
    # this composition does not return on any test point up to the bound
    s = steps.parse_step_set([(-1, 1), (0, -1), (1, -1), (1, 1)])
    res = group.group_order(s, max_half_order=16, seed=3)
    assert not res.finite
    assert res.half_order_bound == 16


def test_king_walk_generators_collapse_to_order_four():
    # with all eight steps both generator ratios are identically 1, so the
    # composition is (x, y) -> (1/x, 1/y) and squares to the identity
    s = steps.parse_step_set(
        [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)]
    )
    res = group.group_order(s, seed=3)
    assert res.finite and res.order == 4


def test_degenerate_generators_rejected():
    with pytest.raises(DegenerateGenerators):
        group.group_order(steps.parse_step_set([(1, 0), (0, 1)]))


def test_group_order_deterministic_in_seed():
    s = steps.preset("kreweras")
    a = group.group_order(s, seed=5)
    b = group.group_order(s, seed=5)
    assert a == b


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
