import math
import random
import time

import pytest

from qwalk import counting, steps
from qwalk.errors import ResourceLimit

SIMPLE = steps.preset("simple")
KREWERAS = steps.preset("kreweras")
KING = steps.parse_step_set([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)])


def naive_count(s, n_max):
    """Reference DP on plain nested lists, independent of the packed-row code."""
    size = n_max + 1
    layer = [[0] * size for _ in range(size)]
    layer[0][0] = 1
    layers = [layer]
    for _ in range(n_max):
        prev = layers[-1]
        cur = [[0] * size for _ in range(size)]
        for j in range(size):
            for i in range(size):
                acc = 0
                for (a, b) in s.steps:
                    si, sj = i - a, j - b
                    if 0 <= si < size and 0 <= sj < size:
                        acc += prev[sj][si]
                cur[j][i] = acc
        layers.append(cur)
    return layers


def test_empty_walk_layer():
    t = counting.count(SIMPLE, 0)
    assert t.q(0, 0, 0) == 1
    assert t.totals[0] == 1


def test_simple_walk_small_excursions():
    t = counting.count(SIMPLE, 4)
    assert t.q(0, 0, 2) == 2  # C_1 * C_2
    assert t.q(0, 0, 4) == 10  # C_2 * C_3


def test_total_count_after_one_step():
    # only E and N keep the walk in the quadrant
    t = counting.count(SIMPLE, 1)
    assert t.totals[1] == 2


def test_series_extraction():
    t = counting.count(SIMPLE, 6)
    q00 = counting.series(t, "q00").coeffs
    assert q00[:6] == (1, 0, 2, 0, 10, 0)
    for label in ("q00", "q10", "q01", "q11"):
        assert counting.series(t, label).coeffs[0] == 1


def test_packed_matches_naive_dp():
    rng = random.Random(3)
    pool = list(steps.all_step_sets())
    for s in rng.sample(pool, 12):
        n = 9
        t = counting.count(s, n, dense_max=n)
        ref = naive_count(s, n)
        for m in range(n + 1):
            grid = t.layer(m)
            for j in range(m + 1):
                for i in range(m + 1):
                    assert grid[j][i] == ref[m][j][i], (s, i, j, m)
            assert t.totals[m] == sum(map(sum, ref[m]))


def test_dp_matches_explicit_path_enumeration():
    rng = random.Random(5)
    pool = [s for s in steps.all_step_sets() if len(s) <= 5]
    for s in rng.sample(pool, 8):
        n = min(8, int(math.log(200_000, max(2, len(s)))))
        t = counting.count(s, n, dense_max=n)
        tally = counting.count_by_paths(s, n)
        grid = t.layer(n)
        for j in range(n + 1):
            for i in range(n + 1):
                assert grid[j][i] == tally.get((i, j), 0)


def test_cell_bounds_and_nonnegativity():
    rng = random.Random(9)
    for s in rng.sample(list(steps.all_step_sets()), 10):
        t = counting.count(s, 12, dense_max=12)
        for n in range(13):
            grid = t.layer(n)
            bound = len(s) ** n
            for row in grid:
                for v in row:
                    assert 0 <= v <= bound


def test_diagonal_reflection_equivariance():
    for s in steps.all_step_sets():
        sm = s.mirrored()
        t = counting.count(s, 8, dense_max=8)
        tm = counting.count(sm, 8, dense_max=8)
        for n in range(9):
            a, b = t.layer(n), tm.layer(n)
            for j in range(n + 1):
                for i in range(n + 1):
                    assert a[j][i] == b[i][j]


def test_totals_match_layer_sums_on_every_step_set():
    # the totals come from the kernel relation, not from the layer itself
    for s in steps.all_step_sets():
        t = counting.count(s, 30, dense_max=30)
        for m in range(31):
            assert t.totals[m] == sum(map(sum, t.layer(m))), (s, m)


@pytest.fixture
def widenings(monkeypatch):
    """Record (layer, old bits, new bits) of every re-packing count() does."""
    calls = []
    widen = counting._widen

    def spy(rows, bits, new_bits):
        calls.append((len(rows) - 1, bits, new_bits))
        widen(rows, bits, new_bits)

    monkeypatch.setattr(counting, "_widen", spy)
    return calls


def test_widening_schedule_does_not_change_counts(widenings):
    for s in (SIMPLE, KREWERAS, steps.preset("gessel"), KING):
        widenings.clear()
        short = counting.count(s, 40, dense_max=0)
        short_schedule = widenings[:]
        widenings.clear()
        long = counting.count(s, 150, dense_max=0)
        # the longer run re-packs more often, at other layers or widths
        assert len(widenings) >= 2 and widenings[: len(short_schedule)] != short_schedule, s
        assert short.q00 == long.q00[:41]
        assert short.row0 == long.row0[:41]
        assert short.col0 == long.col0[:41]
        assert short.totals == long.totals[:41]


def test_widened_layers_match_naive_dp(widenings):
    for s in (KREWERAS, KING):
        widenings.clear()
        t = counting.count(s, 40, dense_max=40)
        assert widenings, s
        ref = naive_count(s, 40)
        for m in range(41):
            assert t.layer(m) == [row[: m + 1] for row in ref[m][: m + 1]], (s, m)
            assert t.totals[m] == sum(map(sum, ref[m]))


def test_simple_excursions_have_zero_odd_coefficients():
    t = counting.count(SIMPLE, 31)
    assert all(t.q00[n] == 0 for n in range(1, 32, 2))


def test_catalan_values():
    assert counting.catalan(0) == 1
    assert counting.catalan(5) == 42
    # independent binomial evaluation
    for n in range(20):
        assert counting.catalan(n) == math.comb(2 * n, n) // (n + 1)


def test_simple_excursions_are_catalan_products():
    t = counting.count(SIMPLE, 60)
    for n in range(31):
        assert t.q(0, 0, 2 * n) == counting.catalan(n) * counting.catalan(n + 1)


def test_functional_equation_simple():
    report = counting.check_functional_equation(SIMPLE, 20)
    assert report.holds, report.first_mismatch
    assert not report.has_q00_term


def test_functional_equation_kreweras_drops_q00_term():
    report = counting.check_functional_equation(KREWERAS, 20)
    assert report.holds, report.first_mismatch
    assert not report.has_q00_term  # Kreweras has no (-1,-1) step


def test_functional_equation_gessel_keeps_q00_term():
    report = counting.check_functional_equation(steps.preset("gessel"), 15)
    assert report.holds, report.first_mismatch
    assert report.has_q00_term


def test_functional_equation_degree_one():
    for s in (SIMPLE, KREWERAS):
        assert counting.check_functional_equation(s, 1).holds


def test_functional_equation_random_sets():
    rng = random.Random(17)
    for s in rng.sample(list(steps.all_step_sets()), 15):
        assert counting.check_functional_equation(s, 10).holds, s


def test_singular_walks_drop_the_q00_term():
    # no lower-left step means the Q(0,0,z) correction is absent
    for s in steps.all_step_sets():
        if steps.is_singular(s):
            report = counting.check_functional_equation(s, 6)
            assert report.holds and not report.has_q00_term


def test_resource_limit(monkeypatch):
    monkeypatch.setenv("QWALK_MAX_N", "100")
    with pytest.raises(ResourceLimit):
        counting.count(SIMPLE, 101)


def test_memory_guard_refuses_before_allocating():
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="GiB"):
        counting.count(SIMPLE, 4096)  # one packed layer alone is several GiB
    assert time.perf_counter() - start < 1.0
    counting.count(SIMPLE, 200, dense_max=0)
    with pytest.raises(ResourceLimit):  # the same walk, kept dense
        counting.count(SIMPLE, 1000, dense_max=1000)


def test_path_enumeration_budget():
    s = steps.parse_step_set(
        [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)]
    )
    with pytest.raises(ResourceLimit):
        counting.count_by_paths(s, 8)  # 8^8 paths exceed the default budget


def test_eval_series_matches_direct_sum():
    t = counting.count(SIMPLE, 30)
    coeffs = counting.series(t, "q11").coeffs
    z = 0.11
    direct = sum(c * z**n for n, c in enumerate(coeffs))
    assert counting.eval_series(coeffs, z) == pytest.approx(direct, rel=1e-14)


def test_eval_q_x0_matches_direct_sum():
    t = counting.count(SIMPLE, 25)
    x, z = 0.4 + 0.2j, 0.15
    direct = sum(
        v * x**i * z**n
        for n in range(26)
        for i, v in enumerate(t.row0[n])
    )
    assert counting.eval_q_x0(t, x, z) == pytest.approx(direct, rel=1e-14)
