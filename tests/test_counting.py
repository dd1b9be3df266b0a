import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from qwalk import counting, steps
from qwalk.errors import OutOfRange, QwalkError, ResourceLimit

SIMPLE = steps.preset("simple")
KREWERAS = steps.preset("kreweras")
KING = steps.parse_step_set([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)])
GESSEL = steps.preset("gessel")


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
    # every step set: rows packing one cell in p = 1, 2, 3 or 4, rows off the
    # coset (q = 2), and lattices of rank 0 and 1
    n = 24
    for s in steps.all_step_sets():
        t = counting.count(s, n, dense_max=n)
        axes = counting.count(s, n, dense_max=0)
        ref = naive_count(s, n)
        for m in range(n + 1):
            grid = [row[: m + 1] for row in ref[m][: m + 1]]
            assert t.layer(m) == grid, (s, m)
            assert t.row0[m] == axes.row0[m] == grid[0], (s, m)
            assert t.col0[m] == axes.col0[m] == [row[0] for row in grid], (s, m)
            assert t.totals[m] == sum(map(sum, ref[m]))


def test_packed_layers_decode_to_the_naive_dp():
    # layer() and q() decode the kept rows on read: a set with q = 2, whose
    # rows off the coset are 0 (and whose residue moves with the row, u = 1),
    # Kreweras (p = 3) and the two sets with p = 4, interior cells included
    sets = [steps.parse_step_set([(-1, -1), (0, 1), (1, -1)]), KREWERAS,
            *(s for s in steps.all_step_sets() if counting._coset(s.sorted_steps())[0] == 4)]
    assert [counting._coset(s.sorted_steps())[:2] for s in sets] == [(2, 2), (3, 1), (4, 1),
                                                                      (4, 1)]
    n = 18
    for s in sets:
        t = counting.count(s, n, dense_max=n)
        ref = naive_count(s, n)
        interior = 0
        for m in range(n + 1):
            grid = [row[: m + 1] for row in ref[m][: m + 1]]
            assert t.layer(m) == grid, (s, m)
            for j in range(m + 1):
                for i in range(m + 1):
                    assert t.q(i, j, m) == grid[j][i], (s, i, j, m)
                    interior += i > 0 and j > 0 and grid[j][i] > 0
        assert interior > 100, s


def lattice_search(s, radius=8):
    """The points of the lattice spanned by the differences of the steps that
    sums of differences reach without leaving the box |x|, |y| <= radius."""
    diffs = {(a - c, b - d) for a, b in s.steps for c, d in s.steps}
    seen = {(0, 0)}
    todo = [(0, 0)]
    while todo:
        x, y = todo.pop()
        for dx, dy in diffs:
            pt = (x + dx, y + dy)
            if max(map(abs, pt)) <= radius and pt not in seen:
                seen.add(pt)
                todo.append(pt)
    return seen


def test_coset_matches_a_lattice_search():
    indices = set()
    for s in steps.all_step_sets():
        p, q, u = counting._coset(s.sorted_steps())
        found = lattice_search(s)
        xs = [x for x, y in found if y == 0 and x > 0]
        ys = [y for _, y in found if y > 0]
        (a0, b0), *rest = s.sorted_steps()
        diffs = [(a - a0, b - b0) for a, b in rest]
        minors = 0
        for k, (x1, y1) in enumerate(diffs):
            for x2, y2 in diffs[k + 1:]:
                minors = math.gcd(minors, x1 * y2 - x2 * y1)
        if xs and ys:
            assert (p, q) == (min(xs), min(ys)) and p * q == minors, s
            assert 0 <= u < p and (u, q) in found, s
        else:  # rank < 2
            assert (p, q, u) == (1, 1, 0) and minors == 0, s
        indices.add((p, q))
    assert indices == {(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 1)}


def paths_tally(s, n):
    """Enumerate every |S|^n path and tally the endpoints of those that never
    leave the quarter plane."""
    tally = {}
    for path in product(s.sorted_steps(), repeat=n):
        x = y = 0
        for (a, b) in path:
            x += a
            y += b
            if x < 0 or y < 0:
                break
        else:
            tally[(x, y)] = tally.get((x, y), 0) + 1
    return tally


def test_dp_matches_explicit_path_enumeration():
    rng = random.Random(5)
    pool = [s for s in steps.all_step_sets() if len(s) <= 5]
    for s in rng.sample(pool, 8):
        n = min(8, int(math.log(200_000, max(2, len(s)))))
        t = counting.count(s, n, dense_max=n)
        tally = paths_tally(s, n)
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
    # simple, Kreweras and Gessel pack one cell in 2, 3 and 2 of a row
    for s in (SIMPLE, KREWERAS, GESSEL, KING):
        widenings.clear()
        short = counting.count(s, 40, dense_max=0)
        short_schedule = widenings[:]
        widenings.clear()
        long = counting.count(s, 150, dense_max=40)
        # the longer run re-packs more often, at other layers or widths
        assert len(widenings) >= 2 and widenings[: len(short_schedule)] != short_schedule, s
        assert short.q00 == long.q00[:41]
        assert short.row0 == long.row0[:41]
        assert short.col0 == long.col0[:41]
        assert short.totals == long.totals[:41]
        # the kept rows are packed at each run's own widths; their cells agree
        dense = counting.count(s, 40, dense_max=40)
        assert [long.layer(m) for m in range(41)] == [dense.layer(m) for m in range(41)], s


def test_widened_layers_match_naive_dp(widenings):
    for s in (KREWERAS, GESSEL, KING):
        widenings.clear()
        t = counting.count(s, 40, dense_max=40)
        assert widenings, s
        ref = naive_count(s, 40)
        for m in range(41):
            assert t.layer(m) == [row[: m + 1] for row in ref[m][: m + 1]], (s, m)
            assert t.totals[m] == sum(map(sum, ref[m]))


def test_dense_max_does_not_change_the_axes():
    # past dense_max the layers are cut to the cells that can still reach an
    # axis; the axes, the totals and the dense layers must not see the cut
    n = 30
    for s in steps.all_step_sets():
        cut, part, whole = (counting.count(s, n, dense_max=d) for d in (0, 9, n))
        for t in (cut, part):
            assert (t.q00, t.row0, t.col0, t.totals) == (
                whole.q00, whole.row0, whole.col0, whole.totals), s
        nine = counting.count(s, 9, dense_max=9)
        assert ([part.layer(m) for m in range(10)] == [whole.layer(m) for m in range(10)]
                == [nine.layer(m) for m in range(10)]), s


@pytest.fixture
def source_layers(monkeypatch):
    """Record (layer, rows, bits, coset, stride, p) of every source layer
    count() steps from."""
    calls = []
    next_layer = counting._next_layer

    def spy(prev, bits, coset, stride, moves):
        calls.append((len(prev) - 1, prev[:], bits, coset, stride, len(moves)))
        return next_layer(prev, bits, coset, stride, moves)

    monkeypatch.setattr(counting, "_next_layer", spy)
    return calls


def test_rows_past_dense_max_keep_only_cells_that_reach_an_axis(source_layers):
    # a row j > K = n_max - n of layer n holds no digit beyond cell K: digit k
    # of a row of residue r is cell r + p*k
    n_max = 24
    cut = 0
    for dense_max in (0, 7):
        for s in steps.all_step_sets():
            source_layers.clear()
            counting.count(s, n_max, dense_max=dense_max)
            for n, rows, bits, coset, stride, p in source_layers:
                if n <= dense_max:
                    continue
                horizon = n_max - n
                for start, res in coset:
                    for j in range(start, len(rows), stride):
                        if j > horizon:
                            keep = len(range(res, horizon + 1, p))  # cells res + p*k <= K
                            assert rows[j].bit_length() <= bits * keep, (s, dense_max, n, j)
                            cut += rows[j] != 0
    assert cut > 0


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


def coset_cells(table, n):
    """The cells (i, j) of dense layer n that its packed rows hold a digit
    for: the rows on the coset, and in each the cells of its residue."""
    p, q, _, _, b0 = table._lattice
    return [(i, j) for j in range(n * b0 % q, n + 1, q)
            for i in range(table._residue(n, j), n + 1, p)]


def digit(table, n, j, i):
    """Cell (i, j) of dense layer n as its packed row holds it."""
    rows, bits = table._dense[n]
    return rows[j] >> bits * ((i - table._residue(n, j)) // table._lattice[0]) & (1 << bits) - 1


def set_digit(table, n, j, i, value):
    """Write cell (i, j) of dense layer n into its packed row, as a digit in
    [0, 2^bits); the axis sections are lists of their own and keep theirs."""
    rows, bits = table._dense[n]
    assert (i, j) in coset_cells(table, n) and 0 <= value < 1 << bits, (n, j, i, value)
    shift = bits * ((i - table._residue(n, j)) // table._lattice[0])
    rows[j] += value - digit(table, n, j, i) << shift


def corrupt(table, part, where, delta):
    """Add delta to a cell: a coset digit of a dense layer, where[n][j][i],
    or an axis cell, a list entry."""
    if part == "_dense":
        set_digit(table, *where, digit(table, *where) + delta)
        return
    *path, last = where
    cells = getattr(table, part)
    for k in path:
        cells = cells[k]
    cells[last] += delta


@pytest.mark.parametrize(
    "name,part,where,delta,mismatch",
    [
        ("simple", "_dense", (5, 2, 3), 1, (5, 4, 3, -1, 0)),
        ("simple", "row0", (4, 2), 1, (5, 3, 0, 9, 10)),
        ("kreweras", "col0", (6, 3), -1, (7, 0, 4, 5, 4)),
        ("kreweras", "_dense", (7, 1, 4), 2, (7, 5, 2, -2, 0)),
        ("gessel", "q00", (4,), 1, (5, 0, 0, 11, 10)),  # the Q(0,0,z) term
        ("gessel", "_dense", (0, 0, 0), 1, (0, 1, 1, -2, -1)),
        ("gessel", "col0", (2, 0), -1, (3, 0, 0, 2, 1)),
        # the last layer's axis section enters no degree up to 10
        ("simple", "row0", (10, 3), 1, None),
    ],
)
def test_functional_equation_detects_a_corrupted_cell(monkeypatch, name, part, where, delta,
                                                      mismatch):
    s = steps.preset(name)
    table = counting.count(s, 10, dense_max=10)
    corrupt(table, part, where, delta)
    monkeypatch.setattr(counting, "count", lambda *args, **kwargs: table)
    report = counting.check_functional_equation(s, 10)
    assert report.holds is (mismatch is None)
    assert report.first_mismatch == mismatch


def grid_check(s, table, n_degree):
    """The functional-equation check on Python grids, one cell at a time: the
    reference the packed check must reproduce, report for report."""
    d11 = s.delta(-1, -1)
    for n in range(n_degree + 1):
        size = n + 2
        lhs = [[0] * size for _ in range(size)]
        rhs = [[0] * size for _ in range(size)]
        if n >= 1:
            for j, row in enumerate(table.layer(n - 1)):
                for i, v in enumerate(row):
                    for p, q in s.steps:
                        lhs[j + q + 1][i + p + 1] += v
            for d in (-1, 0, 1):
                if s.delta(d, -1):
                    for i, v in enumerate(table.row0[n - 1]):
                        rhs[0][i + d + 1] += v
                if s.delta(-1, d):
                    for j, v in enumerate(table.col0[n - 1]):
                        rhs[j + d + 1][0] += v
            rhs[0][0] -= d11 * table.q00[n - 1]
        else:
            rhs[1][1] = -1
        for j, row in enumerate(table.layer(n)):
            for i, v in enumerate(row):
                lhs[j + 1][i + 1] -= v
        if lhs != rhs:
            i, j = min((i, j) for j in range(size) for i in range(size) if lhs[j][i] != rhs[j][i])
            return counting.FunctionalEquationReport(False, n_degree, bool(d11),
                                                     (n, i, j, lhs[j][i], rhs[j][i]))
    return counting.FunctionalEquationReport(True, n_degree, bool(d11), None)


def test_functional_equation_matches_grid_check_on_every_step_set():
    for s in steps.all_step_sets():
        table = counting.count(s, 12, dense_max=12)
        assert counting.check_functional_equation(s, 12) == grid_check(s, table, 12), s


def test_functional_equation_matches_grid_check_on_corrupted_cells(monkeypatch):
    # a dense cell is a digit of the DP's width and stays one; the axis cells
    # are lists, and huge or negative values there push a coefficient far
    # past the layer total, so a packing width taken from the dense digits
    # alone would alias coefficients
    rng = random.Random(29)
    sets = list(steps.all_step_sets())
    real_count = counting.count
    detected = 0
    for _ in range(300):
        s = rng.choice(sets)
        table = real_count(s, 10, dense_max=10)
        part = rng.choice(("_dense", "row0", "col0", "q00"))
        n = rng.randint(0, 10)
        if part == "_dense":
            i, j = rng.choice(coset_cells(table, n))
            top = (1 << table._dense[n][1]) - 1
            old = digit(table, n, j, i)
            set_digit(table, n, j, i, rng.choice((min(old + 1, top), max(old - 1, 0), 0, top,
                                                  rng.randint(0, top))))
            where = (n, j, i)
        else:
            where = {"row0": (n, rng.randint(0, n)), "col0": (n, rng.randint(0, n)),
                     "q00": (n,)}[part]
            corrupt(table, part, where, rng.choice((1, -1, -1000, 2**100, -2**100)))
        monkeypatch.setattr(counting, "count", lambda *args, **kwargs: table)
        report = counting.check_functional_equation(s, 10)
        assert report == grid_check(s, table, 10), (s, part, where)
        detected += not report.holds
    assert 0 < detected < 300
    # a cell at the top of a whole number of bytes: without the headroom for
    # the |S| + 7 cells summed into one coefficient, the width leaves none
    # (only a set with the step (-1, -1), here Gessel's, reads q00)
    for s, part, where in ((SIMPLE, "row0", (5, 3)), (SIMPLE, "col0", (5, 2)),
                           (GESSEL, "q00", (4,))):
        for value in (2**64 - 1, -(2**72 - 1)):
            table = real_count(s, 10, dense_max=10)
            corrupt(table, part, where, value)
            monkeypatch.setattr(counting, "count", lambda *args, **kwargs: table)
            report = counting.check_functional_equation(s, 10)
            assert report == grid_check(s, table, 10) and not report.holds, (part, value)
    # and a dense digit at the top of the DP's width
    table = real_count(SIMPLE, 10, dense_max=10)
    set_digit(table, 5, 2, 3, (1 << table._dense[5][1]) - 1)
    monkeypatch.setattr(counting, "count", lambda *args, **kwargs: table)
    report = counting.check_functional_equation(SIMPLE, 10)
    assert report == grid_check(SIMPLE, table, 10) and not report.holds


def test_functional_equation_matches_grid_check_past_64_bit_digits(monkeypatch):
    # the king walk's digits pass 64 bits from degree 24 on (80-bit digits);
    # _NATIVE_Q off reads digits of at most 8 bytes one by one, as a
    # big-endian machine does, which the 64-bit digits of degree 20 use
    for degree, native in ((24, True), (25, True), (26, True), (24, False), (20, False)):
        monkeypatch.setattr(counting, "_NATIVE_Q", native and counting._NATIVE_Q)
        table = counting.count(KING, degree, dense_max=degree)
        report = counting.check_functional_equation(KING, degree)
        assert report.holds and report == grid_check(KING, table, degree), (degree, native)


def test_unpack_rows_matches_per_cell_reference(monkeypatch):
    rng = random.Random(5)
    # _NATIVE_Q False: the per-digit path a big-endian machine takes
    for native, count in product((True, False), (6, 40)):
        # 6 digits are re-spaced as one struct, 40 narrow ones by byte columns
        monkeypatch.setattr(counting, "_NATIVE_Q", native)
        for nb in range(1, 17):  # both sides of the 8-byte choice
            bits = 8 * nb
            top = (1 << bits) - 1
            digit_rows = [
                [0] * count,
                [rng.randint(0, top), rng.randint(0, top)] + [0] * (count - 2),  # leading zeros
                [rng.randint(0, top) for _ in range(count - 1)] + [top],  # top digit all ones
                [top] * count,
                [rng.randint(0, top) for _ in range(count)],
            ]
            rows = [sum(v << bits * i for i, v in enumerate(r)) for r in digit_rows]
            reference = [
                [int.from_bytes(r.to_bytes(nb * count, "little")[k * nb:(k + 1) * nb], "little")
                 for k in range(count)]
                for r in rows
            ]
            assert reference == digit_rows
            assert counting._unpack_rows(rows, bits, count) == reference, (native, nb)
            for extra in range(1, 10):
                new_bits = bits + 8 * extra
                wide = rows[:]
                counting._widen(wide, bits, new_bits)
                assert wide == [sum(v << new_bits * i for i, v in enumerate(r))
                                for r in digit_rows], (native, nb, extra)
        # rows of different lengths, packed as their per-cell sums
        ragged = [[1, 2, 3], [], [5], [2**64 - 1, 0, 7]]
        for bits in (64, 72):
            packed = [sum(v << bits * i for i, v in enumerate(r)) for r in ragged]
            assert counting._unpack_rows(packed, bits, 3) == [r + [0] * (3 - len(r))
                                                               for r in ragged]
        big = [[2**64, 1], [3, 2**100 - 1]]
        packed = [sum(v << 104 * i for i, v in enumerate(r)) for r in big]
        assert counting._unpack_rows(packed, 104, 2) == big


def test_negative_lengths_are_out_of_range():
    with pytest.raises(OutOfRange, match="n_max"):
        counting.count(SIMPLE, -1)
    with pytest.raises(OutOfRange, match="n_degree"):
        counting.check_functional_equation(SIMPLE, 0)
    with pytest.raises(OutOfRange, match="dense_max must be >= 0, got -3"):
        counting.count(SIMPLE, 5, dense_max=-3)
    assert counting.count(SIMPLE, 5, dense_max=None).dense_max == 5
    assert counting.count(SIMPLE, 70, dense_max=None).dense_max == 64
    assert issubclass(OutOfRange, QwalkError) and issubclass(OutOfRange, ValueError)


def test_bad_layers_indices_and_labels_are_out_of_range():
    table = counting.count(SIMPLE, 5)
    for n in (6, -1, -7):
        with pytest.raises(OutOfRange, match="not computed"):
            table.q(0, 0, n)
        with pytest.raises(OutOfRange, match="not computed"):
            table.layer(n)
    short = counting.count(SIMPLE, 5, dense_max=3)
    for n in (4, 5):
        with pytest.raises(ResourceLimit, match="dense_max=3"):
            short.layer(n)
    with pytest.raises(OutOfRange, match="got -1"):
        counting.catalan(-1)
    with pytest.raises(OutOfRange, match="q22"):
        counting.series(table, "q22")


def test_memory_guard_refuses_before_allocating():
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="GiB"):
        counting.count(SIMPLE, 4096)  # one packed layer alone is several GiB
    with pytest.raises(ResourceLimit, match="GiB"):  # large n: memory, not n, decides
        counting.count(steps.StepSet(frozenset({(1, 0)})), 5000)
    assert time.perf_counter() - start < 1.0
    counting.count(SIMPLE, 200, dense_max=0)
    with pytest.raises(ResourceLimit):  # the same walk, kept dense
        counting.count(SIMPLE, 1000, dense_max=1000)


def test_memory_guard_counts_only_the_coset(monkeypatch):
    # the simple walk packs one cell in 2 of a row; these 4 steps pack all
    full = steps.parse_step_set([(1, 0), (0, 1), (-1, -1), (1, 1)])
    assert counting._coset(SIMPLE.sorted_steps())[:2] == (2, 1)
    assert counting._coset(full.sorted_steps())[:2] == (1, 1)
    n = 120
    half, whole = (counting._peak_bytes(4, n, 0, *counting._coset(s.sorted_steps()))
                   for s in (SIMPLE, full))
    assert half < 0.6 * whole
    monkeypatch.setattr(counting, "_MAX_BYTES", half)
    counting.count(SIMPLE, n, dense_max=0)
    with pytest.raises(ResourceLimit, match="GiB"):
        counting.count(full, n, dense_max=0)


def test_peak_estimate_bounds_the_traced_peak():
    # the guard's estimate is an upper bound on what count() allocates, and
    # a near one: within 4x of the tracemalloc peak on the four presets
    for n in (200, 600):
        for name in sorted(steps.PRESETS):
            s = steps.preset(name)
            estimate = counting._peak_bytes(len(s), n, 0, *counting._coset(s.sorted_steps()))
            tracemalloc.start()
            try:
                counting.count(s, n, dense_max=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= estimate <= 4 * peak, (name, n, estimate, peak)


def test_eval_series_matches_direct_sum():
    t = counting.count(SIMPLE, 30)
    coeffs = counting.series(t, "q11").coeffs
    z = 0.11
    direct = sum(c * z**n for n, c in enumerate(coeffs))
    assert counting.eval_series(coeffs, z) == pytest.approx(direct, rel=1e-14)


def test_eval_series_with_coefficients_beyond_float_range():
    # the simple walk's q(n) = C(n, n//2) C(n+1, (n+1)//2) (Guy, Krattenthaler
    # and Sagan); from n = 503 on they have 1000 bits or more, the terms that
    # eval_series sums through logarithms
    coeffs = [math.comb(n, n // 2) * math.comb(n + 1, (n + 1) // 2) for n in range(541)]
    assert tuple(coeffs[:41]) == counting.series(counting.count(SIMPLE, 40), "q11").coeffs
    assert sum(c.bit_length() >= 1000 for c in coeffs) == 37
    top = len(coeffs) - 1
    for z in (0.05, 0.1, 0.2, -0.2):
        num, den = z.as_integer_ratio()  # the sum exactly, over den**top
        exact = float(Fraction(
            sum(c * num**n * den ** (top - n) for n, c in enumerate(coeffs)), den**top))
        assert counting.eval_series(coeffs, z) == pytest.approx(exact, rel=1e-14), z


def test_eval_series_at_zero_is_the_constant_term():
    # a term of 1000 bits or more is summed through log|z|, undefined at 0
    assert counting.eval_series([1, 7**400], 0.0) == 1.0
    assert counting.eval_series((3, 2**1200, 5), -0.0) == 3.0
    assert counting.eval_series([], 0.0) == 0.0


def test_count_table_q_reads_every_cell():
    n_max, dense_max = 6, 4
    for s in (SIMPLE, KREWERAS, KING):
        t = counting.count(s, n_max, dense_max=dense_max)
        for n in range(dense_max + 1):
            tally = paths_tally(s, n)
            grid = t.layer(n)
            for j in range(-1, n + 3):
                for i in range(-1, n + 3):
                    want = tally.get((i, j), 0)
                    assert t.q(i, j, n) == want, (s, i, j, n)
                    if 0 <= i <= n and 0 <= j <= n:
                        assert grid[j][i] == want
        # beyond dense_max the axes still answer; interior cells and layers refuse
        ref = naive_count(s, n_max)[n_max]
        for k in range(n_max + 1):
            assert t.q(k, 0, n_max) == ref[0][k] and t.q(0, k, n_max) == ref[k][0]
        assert t.q(n_max + 1, 1, n_max) == t.q(1, n_max + 1, n_max) == 0
        with pytest.raises(ResourceLimit, match="dense_max=4"):
            t.q(1, 1, n_max)
        with pytest.raises(ResourceLimit, match="dense_max=4"):
            t.layer(dense_max + 1)
        for n in (n_max + 1, -1):
            with pytest.raises(OutOfRange, match="not computed"):
                t.q(1, 1, n)


def test_eval_q_x0_matches_direct_sum():
    t = counting.count(SIMPLE, 25)
    x, z = 0.4 + 0.2j, 0.15
    direct = sum(
        v * x**i * z**n
        for n in range(26)
        for i, v in enumerate(t.row0[n])
    )
    assert counting.eval_q_x0(t, x, z) == pytest.approx(direct, rel=1e-14)


def test_eval_q_x0_takes_huge_counts_through_logarithms():
    # counts of 1000 bits or more overflow a float, as q(i,0,n) does for the
    # simple walk from n = 560; their terms q z^n do not
    t = counting.CountTable(steps=SIMPLE, n_max=3, dense_max=0, row0=[
        [1], [0, 3], [5, 0, 2**1100], [0, 7 * 2**1200 + 1, 0, 3 * 2**1150]])
    x = 0.5 + 0.25j
    for z in (2.0**-560, -(2.0**-560), 0.0):
        want = sum(float(Fraction(v) * Fraction(z) ** n) * x**i
                   for n, row in enumerate(t.row0) for i, v in enumerate(row))
        got = counting.eval_q_x0(t, x, z)
        assert isinstance(got, complex)
        assert got == pytest.approx(want, rel=1e-12), z
