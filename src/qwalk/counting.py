"""Exact dynamic-programming enumeration of quarter-plane walks.

q(i, j, n) is the number of n-step walks from the origin that stay in
Z_+^2 and end at (i, j).  Layers are computed with arbitrary-precision
integers; a layer's row j is packed into a single Python int, all digits of
one width, which keeps the whole recurrence inside C-speed bigint shifts and
adds.  This module is the brute-force oracle for every analytic formula in
the package: no floating point is used in the counting itself.

A row packs only its coset's cells.  Every n-step walk ends in n*s0 + L,
with s0 = (a0, b0) a step and L the lattice spanned by the differences of
the steps.  L meets Z x {0} in pZ x {0} and its y-parts form qZ, so in layer
n only the rows j in n*b0 + qZ can be nonzero, and in such a row only the
cells i = r + p*k, where r = r(n, j) is the x mod p that all walks ending in
the row share.  Digit k of the row is cell r + p*k.  The simple walk,
Gessel's and Gouyou-Beauchamps' have p = 2, Kreweras' p = 3.

Past dense_max a layer keeps only the cells that can still reach an axis by
n_max.  A step moves each coordinate by at most 1, so a cell (i, j) of layer
n reaches row 0 by layer n_max only if j <= K = n_max - n, and column 0 only
if i <= K.  This L-shaped set holds every predecessor of its cells, and the
table reads nothing outside it: q00, row0 and col0 lie on the axes, the
totals come from the axis sections, and the dense layers come before any
cut.  So each row j > K is cut to its cells i <= K by one AND with a mask
of its low digits, (K - r) // p + 1 of them, and a row of residue r > K
becomes 0.

The digit width grows with the layer.  Each layer total T_n follows from
the previous layer's axis sections by the kernel relation at (1, 1), before
the layer is built; every cell is at most T_n, so when T_n outgrows the
digits the rolling layer is re-packed in place to a width that holds the
next _LOOKAHEAD layers.  Before it allocates anything, count() estimates its
peak memory and raises ResourceLimit above _MAX_BYTES.  A layer n <= dense_max
is kept as the DP left it, its rows and their digit width; as for every other
layer, only row 0 and column 0 are decoded when it is recorded.  layer() and
q() decode the kept rows on read.

check_functional_equation() re-spaces the kept rows' bytes from the DP width to
a width W of its own, spreading a row's coset digits to one digit per i: every
coefficient of either side is a sum of at most |S| + 7 cells it reads, so with
M a bound on every |cell| read, W is the least multiple of 8 with
(|S| + 7) * M < 2^(W-1).  A kept digit lies in [0, 2^B), B the widest DP
width, and M is the larger of 2^B - 1 and the largest |cell| of the axis
sections and q00 read, found by a scan.  The digits of a side are then
balanced (in (-2^(W-1), 2^(W-1))), equal ints mean equal grids, and a side
that differs is decoded digit by digit to find the first mismatch.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import Literal

from .errors import OutOfRange, ResourceLimit
from .steps import StepSet, kernel_polys

SeriesLabel = Literal["q00", "q10", "q01", "q11"]

SERIES_PRETTY = {
    "q00": "Q(0,0,z)",
    "q10": "Q(1,0,z)",
    "q01": "Q(0,1,z)",
    "q11": "Q(1,1,z)",
}


# Layers of growth a widening provides for: the digits are re-packed about
# once every _LOOKAHEAD layers, and they are never much wider than the
# largest cell of the current layer needs.
_LOOKAHEAD = 24

# count() refuses to start when its estimated peak memory is above this.
_MAX_BYTES = 4 << 30

# Digits of at most 8 bytes are read and written as one array("Q"), whose
# items are the digits' bytes only on a little-endian machine.
_NATIVE_Q = sys.byteorder == "little" and array("Q").itemsize == 8


def _digit_bits(bound: int) -> int:
    # Width of a packed digit that holds values up to `bound`.  Multiple of
    # 8 so digits can be sliced out of to_bytes() output.
    return (bound.bit_length() + 7) // 8 * 8


def _peak_bytes(card: int, n_max: int, dense_max: int, p: int, q: int, u: int) -> int:
    """Estimate of count()'s peak memory in bytes for the coset (p, q, u)
    of _coset, in closed forms: every sum over the layers is a sum of powers
    of n, and a cell of layer n, below |S|^n, has at most n*log2|S| bits.

    - Two rolling layers at their largest.  Past dense_max a layer is cut
      to its L-shaped set for the horizon K = n_max - n; the layer built from
      it, before its own cut, lies in the L-shape one wider, of
      (n+1)^2 - (n-K-1)^2 cells at most, whose largest value over n is
      (n_max+3)^2 / 3; a dense layer has (n+1)^2.  One cell in p*q is on
      the coset, and a digit has at most n_max*log2|S| + 8 bits.
    - The axis sections: a list slot for every cell and an int for each on
      the coset, one in p of row 0 and one in q*p/gcd(u, p) of column 0;
      q(0,0,n) and the layer total.
    - The dense layers up to dense_max, kept as the DP left them: per layer
      m a list of m+1 slots and a tuple, and an int for each of the at most
      (m+q)/q rows on the coset, of at most m/p + 1 digits.

    The bits of a digit and of an axis cell are bounded by those of the
    largest cell |S|^n could be, so the estimate is an upper bound."""
    lg = math.log2(max(card, 2))
    n, d = n_max, dense_max
    # an int below |S|^m: 28 bytes and 4 per 30 bits, int_a + int_b * m
    int_a, int_b = 32.0, 4 * lg / 30
    digit = n * lg + 8
    cells = max((d + 1) ** 2, (n + 3) ** 2 / 3) / (p * q)
    layers = 2 * (cells * digit / 8 + (8 + int_a) * (n + 2))
    # per layer m: slots 8 (2m + 3); on-coset ints (m/p + m/col + 4) (int_a + int_b m)
    on_axes = 1 / p + math.gcd(u, p) / (p * q)
    s0, s1, s2 = n + 1, n * (n + 1) / 2, n * (n + 1) * (2 * n + 1) / 6
    axes = ((24 + 4 * int_a) * s0 + (16 + on_axes * int_a + 4 * int_b) * s1
            + on_axes * int_b * s2)
    # per dense layer m: 120 + 8 (m+1) for the list and the tuple, and
    # (m+q)/q * (m/p + 1) = m^2/(pq) + m/q + m/p + 1 digits in (m+q)/q ints
    t0, t1, t2 = d + 1, d * (d + 1) / 2, d * (d + 1) * (2 * d + 1) / 6
    dense = (128 * t0 + 8 * t1 + int_a * (t1 / q + t0)
             + 4 * digit / 30 * (t2 / (p * q) + t1 / q + t1 / p + t0))
    return int(layers + axes + dense)


def _respace(buf: bytes, nb: int, new_nb: int) -> bytes | bytearray:
    """Little-endian digits of nb bytes each, re-spaced to new_nb bytes each:
    zero-extended when new_nb > nb, cut to their low new_nb bytes when less.
    Many narrow digits are moved one byte column at a time by strided slices
    (a Python step per column); few wide ones as one struct of byte strings,
    which pads or truncates each (an object per digit).  Measured, the two
    cost the same at 4 to 20 digits per column, the wider the digits the later."""
    if nb == new_nb:
        return buf
    count = len(buf) // nb
    if count > 16 * min(nb, new_nb):
        out = bytearray(count * new_nb)
        for k in range(min(nb, new_nb)):
            out[k::new_nb] = buf[k::nb]
        return out
    return struct.Struct(f"{new_nb}s" * count).pack(*_split(buf, nb))


def _split(buf: bytes, nb: int) -> tuple[bytes, ...]:
    """buf cut into its digits of nb bytes each.  A Struct of its own: the
    module-level functions would keep up to 100 long formats cached."""
    return struct.Struct(f"{nb}s" * (len(buf) // nb)).unpack(buf)


def _widen(rows: list[int], bits: int, new_bits: int) -> None:
    """Re-pack a layer's rows from `bits` to `new_bits` per digit, in place,
    so that besides the layer only copies of one row are alive at a time.
    Only the occupied digits of a row are re-spaced."""
    nb, new_nb = bits // 8, new_bits // 8
    for k, r in enumerate(rows):
        if r:
            used = (r.bit_length() + bits - 1) // bits
            rows[k] = int.from_bytes(_respace(r.to_bytes(used * nb, "little"), nb, new_nb),
                                     "little")


def _coset(steps: tuple[tuple[int, int], ...]) -> tuple[int, int, int]:
    """(p, q, u) of the lattice L spanned by the differences s - s0 of the
    steps, s0 = steps[0]: L meets Z x {0} in pZ x {0}, its y-parts form qZ,
    and (u, q) lies in L, with 0 <= u < p.  So p*q is the index of L, the gcd
    of the 2x2 minors of the differences.  (1, 1, 0) when L has rank < 2."""
    (a0, b0), *rest = steps
    u = q = p = 0
    for x, y in rest:
        x, y = x - a0, y - b0
        # Euclid on the y-parts, carried out on vectors of L; what is left,
        # (x, 0), lies in L too, and L = span{(u, q), (p, 0)} throughout
        while y:
            k = q // y
            (u, q), (x, y) = (x, y), (u - k * x, q - k * y)
        p = math.gcd(p, x)
    if not (p and q):
        return 1, 1, 0
    if q < 0:
        u, q = -u, -q
    return p, q, u % p


def _moves(steps: tuple[tuple[int, int], ...], p: int) -> list[tuple[bool, bool, tuple]]:
    """Per residue r of a source row: whether it is shifted left, whether
    right, and (b, shift) per step (a, b).  Cell r + p*k moves to
    r + a + p*k, which is digit k + (r + a) // p of residue (r + a) % p; the
    shift is -1 only for r = 0, a = -1, which drops digit 0 (cell i = 0, the
    step out of the quadrant).  For p = 1 the shift is a."""
    moves = []
    for r in range(p):
        targets = tuple((b, (r + a) // p) for a, b in steps)
        shifts = {k for _, k in targets}
        moves.append((1 in shifts, -1 in shifts, targets))
    return moves


def _next_layer(prev: list[int], bits: int, coset: list[tuple[int, int]], stride: int,
                moves: list[tuple[bool, bool, tuple]]) -> list[int]:
    """One step of the packed DP.  The source rows on the coset are
    start + stride*m, of one residue per (start, residue) in `coset`; source
    row j feeds row j + b for every step (a, b), its digits shifted as
    moves[residue] says: left by one digit, right by one, or not at all.
    Each row is shifted at most once per direction, whatever the steps."""
    rows = [0] * (len(prev) + 1)
    for start, res in coset:
        left, right, targets = moves[res]
        for src in range(start, len(prev), stride):
            r = prev[src]
            if r:
                moved = (r, r << bits if left else 0, r >> bits if right else 0)
                for b, k in targets:
                    t = src + b
                    if t >= 0:
                        # moved[-1] is the right shift; a first contribution is
                        # stored as is, since 0 + x would copy x
                        rows[t] = rows[t] + moved[k] if rows[t] else moved[k]
    return rows


def _unpack_rows(rows: list[int], bits: int, count: int) -> list[list[int]]:
    """Digits 0..count-1 of every packed row, in one pass over the joined
    to_bytes() output: digits of at most 8 bytes are re-spaced to 8 and read
    as one array("Q"), wider digits are split off as bytes and read one by
    one."""
    nb = bits // 8
    buf = b"".join([r.to_bytes(nb * count, "little") for r in rows])
    cells = len(rows) * count
    if nb <= 8 and _NATIVE_Q:
        flat = array("Q", _respace(buf, nb, 8)).tolist()
    else:
        flat = list(map(int.from_bytes, _split(buf, nb), repeat("little")))
    return [flat[k : k + count] for k in range(0, cells, count)]


@dataclass
class CountTable:
    """Exact counts for one step set up to length n_max.

    Per layer n the table keeps q(0,0,n), the axis sections q(i,0,n) and
    q(0,j,n), and the layer total (from the kernel relation, not from a sum
    over the layer).  The layers n <= dense_max are kept as the DP left them
    (the DP itself is a two-layer rolling grid of packed rows): the row ints,
    each holding its coset's cells as digits, and the digit width.  layer(n)
    and q(i, j, n) decode them on read.
    """

    steps: StepSet
    n_max: int
    dense_max: int
    q00: list[int] = field(default_factory=list)
    row0: list[list[int]] = field(default_factory=list)  # q(i,0,n), i = 0..n
    col0: list[list[int]] = field(default_factory=list)  # q(0,j,n), j = 0..n
    totals: list[int] = field(default_factory=list)
    _dense: list[tuple[list[int], int]] = field(default_factory=list)  # [n] = (rows, bits)
    _lattice: tuple[int, int, int, int, int] = (1, 1, 0, 0, 0)  # _coset's (p, q, u), steps[0]

    def _residue(self, n: int, j: int) -> int:
        """x mod p of the walks of length n that end in row j, for j on the
        coset: digit k of that packed row is cell _residue(n, j) + p*k."""
        p, q, u, a0, b0 = self._lattice
        return (n * a0 + (j - n * b0) // q * u) % p

    def _spread(self, ns: range, bits: int) -> list[list[int]]:
        """The rows of the dense layers ns re-packed one digit per i, each
        digit `bits` wide (at least the layers' own width).  A row's digits
        are re-spaced to p digits of the new width, then shifted by its
        residue; the rows of all the layers of one width go through one
        to_bytes() join and one _respace, each at the digit count of the last."""
        p, q, _, _, b0 = self._lattice
        out = []
        for own, group in groupby(ns, lambda n: self._dense[n][1]):
            group = list(group)
            nb, wide, count = own // 8, bits // 8 * p, group[-1] // p + 1  # cells r + p*k <= n
            rows = [r for n in group for r in self._dense[n][0]]
            buf = _respace(b"".join([r.to_bytes(nb * count, "little") for r in rows]), nb, wide)
            size = wide * count
            flat = iter([int.from_bytes(buf[a : a + size], "little")
                         for a in range(0, size * len(rows), size)])
            for n in group:
                layer = [next(flat) for _ in range(n + 1)]
                if p > 1:  # the rows on the coset are start + p*q*m, one residue per start
                    for start in range(n * b0 % q, p * q, q):
                        shift = bits * self._residue(n, start)
                        layer[start::p * q] = [r << shift for r in layer[start::p * q]]
                out.append(layer)
        return out

    def q(self, i: int, j: int, n: int) -> int:
        """q(i, j, n); requires n <= dense_max unless (i, j) is on an axis."""
        if n > self.n_max or n < 0:
            raise OutOfRange(f"layer {n} not computed (n_max={self.n_max})")
        if i < 0 or j < 0 or i > n or j > n:
            return 0
        if j == 0:
            return self.row0[n][i]
        if i == 0:
            return self.col0[n][j]
        if n <= self.dense_max:
            rows, bits = self._dense[n]
            k, off = divmod(i - self._residue(n, j), self._lattice[0])
            return 0 if off or k < 0 else rows[j] >> bits * k & (1 << bits) - 1
        raise ResourceLimit(
            f"interior cell ({i},{j},{n}) beyond dense_max={self.dense_max}; "
            "recount with a larger dense_max"
        )

    def layer(self, n: int) -> list[list[int]]:
        """Dense layer n as rows indexed [j][i] (n <= dense_max)."""
        if n > self.n_max or n < 0:
            raise OutOfRange(f"layer {n} not computed (n_max={self.n_max})")
        if n > self.dense_max:
            raise ResourceLimit(f"layer {n} beyond dense_max={self.dense_max}")
        bits = self._dense[n][1]
        return _unpack_rows(self._spread(range(n, n + 1), bits)[0], bits, n + 1)


def count(s: StepSet, n_max: int, dense_max: int | None = None) -> CountTable:
    """Enumerate q(i, j, n) for n <= n_max.

    Steps that would leave the quarter plane are discarded, which in the
    forward recurrence simply means source cells with a negative coordinate
    contribute nothing.  Each layer total comes from the kernel relation at
    (x, y) = (1, 1) before the layer is built,

        T_n = |S| T_{n-1} - c(1) R_{n-1} - ct(1) C_{n-1} + delta_{-1,-1} q(0,0,n-1),

    with c(1) (ct(1)) the number of steps with b = -1 (a = -1) and R (C) the
    sum of the horizontal (vertical) axis section.  No cell of layer n
    exceeds T_n, so the digits are widened, when T_n no longer fits, to hold
    the next _LOOKAHEAD layers.  A row packs only its coset's cells, and past
    dense_max each row j > n_max - n only its cells i <= n_max - n, the ones
    that can still reach column 0 by n_max (see the module docstring).  Each
    layer has its row 0 and column 0 decoded into the axis sections; the
    layers n <= dense_max are kept as their packed rows, which layer() and
    q() decode on read.  Raises OutOfRange for a negative n_max or
    dense_max, and ResourceLimit, before allocating, when the estimated peak
    memory exceeds _MAX_BYTES.
    """
    if n_max < 0:
        raise OutOfRange(f"n_max must be >= 0, got {n_max}")
    if dense_max is None:
        dense_max = min(n_max, 64)
    if dense_max < 0:
        raise OutOfRange(f"dense_max must be >= 0, got {dense_max}")
    dense_max = min(dense_max, n_max)
    card = len(s)
    steps = s.sorted_steps()
    p, q, u = _coset(steps)
    peak = _peak_bytes(card, n_max, dense_max, p, q, u)
    if peak > _MAX_BYTES:
        raise ResourceLimit(
            f"count(n_max={n_max}, dense_max={dense_max}) needs about "
            f"{peak / 2**30:.3g} GiB, over the {_MAX_BYTES / 2**30:.3g} GiB limit"
        )

    kp = kernel_polys(s)
    lost_x, lost_y, corner = sum(kp.c), sum(kp.c_t), kp.c[0]  # c(1), ct(1), c(0)
    a0, b0 = steps[0]
    stride = p * q
    moves = _moves(steps, p)

    table = CountTable(steps=s, n_max=n_max, dense_max=dense_max, _lattice=(p, q, u, a0, b0))
    residue = table._residue

    # The rows of layer n on the coset are start + stride*m, one residue per
    # start; the pattern repeats with period p*q in n.
    cosets = [[(j, residue(n, j)) for j in range(n * b0 % q, stride, q)] for n in range(stride)]

    def record(n: int, rows: list[int], bits: int, total: int) -> None:
        mask = (1 << bits) - 1
        row0 = _unpack_rows(rows[:1], bits, n // p + 1)[0]
        if p > 1:
            # digit k of a row of residue r is cell r + p*k; a row off the
            # coset is 0, whatever residue it is given
            full = [0] * (p * len(row0))
            full[residue(n, 0)::p] = row0
            del full[n + 1:]
            row0 = full
        table.q00.append(row0[0])
        table.row0.append(row0)
        col0 = [r & mask for r in rows]
        for start, res in cosets[n % stride]:
            if res:  # digit 0 of the row is cell res, not cell 0
                col0[start::stride] = [0] * len(col0[start::stride])
        table.col0.append(col0)
        table.totals.append(total)
        if n <= dense_max:
            # a list of its own: _widen re-packs the rolling rows in place
            table._dense.append((rows[:], bits))

    bits = _digit_bits(card ** min(_LOOKAHEAD, n_max))
    rows: list[int] = [1]  # layer 0: q(0,0,0) = 1
    record(0, rows, bits, 1)
    for n in range(1, n_max + 1):
        prev_total = table.totals[-1]
        total = (
            card * prev_total
            - lost_x * sum(table.row0[-1])
            - lost_y * sum(table.col0[-1])
            + corner * table.q00[-1]
        )
        if total.bit_length() > bits:
            wide = _digit_bits(prev_total * card ** (min(_LOOKAHEAD, n_max - n) + 1))
            _widen(rows, bits, wide)
            bits = wide
        rows = _next_layer(rows, bits, cosets[(n - 1) % stride], stride, moves)
        if n > dense_max:
            # rows j > horizon keep their cells i <= horizon (see the module
            # docstring): digits k <= (horizon - r) // p, none when r > horizon
            horizon = n_max - n
            for start, res in cosets[n % stride]:
                mask = (1 << bits * ((horizon - res) // p + 1)) - 1
                for j in range(horizon + 1 + (start - horizon - 1) % stride, len(rows), stride):
                    rows[j] &= mask
        record(n, rows, bits, total)
    return table


@dataclass(frozen=True)
class CoefficientSeries:
    """Integer coefficient sequence of one specialised generating function."""

    label: SeriesLabel
    coeffs: tuple[int, ...]

    @property
    def pretty_label(self) -> str:
        return SERIES_PRETTY[self.label]


def series(table: CountTable, label: SeriesLabel) -> CoefficientSeries:
    """Extract a coefficient sequence: q00 -> q(0,0,n), q10 -> sum_i q(i,0,n),
    q01 -> sum_j q(0,j,n), q11 -> sum_{i,j} q(i,j,n)."""
    if label == "q00":
        coeffs = tuple(table.q00)
    elif label == "q10":
        coeffs = tuple(sum(r) for r in table.row0)
    elif label == "q01":
        coeffs = tuple(sum(c) for c in table.col0)
    elif label == "q11":
        coeffs = tuple(table.totals)
    else:
        raise OutOfRange(f"unknown series label {label!r}")
    return CoefficientSeries(label=label, coeffs=coeffs)


def catalan(n: int) -> int:
    """The n-th Catalan number, binomial(2n, n)/(n+1), exactly."""
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class FunctionalEquationReport:
    holds: bool
    max_degree: int
    has_q00_term: bool  # whether the (-1,-1) step contributes the Q(0,0,z) term
    first_mismatch: tuple[int, int, int, int, int] | None  # (n, i, j, lhs, rhs)


def check_functional_equation(s: StepSet, n_degree: int) -> FunctionalEquationReport:
    """Verify the kernel functional equation as an exact truncated identity.

    Both sides are multiplied by z to clear the 1/z terms; the coefficient of
    z^n is then a polynomial identity in (x, y) with integer coefficients:

        xy*(S . Q_{n-1}) - xy*Q_n
            = c(x)*Q_{n-1}(x,0) + ct(y)*Q_{n-1}(0,y)
              - delta_{-1,-1} q(0,0,n-1) - xy*[n == 0]

    where S is the step polynomial and Q_n the (quadrant-truncated) layer.
    The left product S . Q_{n-1} is unrestricted: the boundary-truncation
    mismatch is exactly what the right-hand side corrects.

    Each side of degree n is a grid of rows indexed [j][i] that holds the
    coefficient of x^i y^j above (the factor xy makes every exponent >= 0).
    Row j is held as one int, the coefficient of x^i at bit W*i: it is built
    by one shift and add per (row, step) from the table's packed rows, each
    re-spaced once from the DP's digit width to W, one digit per i (the row
    section is packed from its lists).  With M a bound on every |value| read
    from the table, every coefficient is below (|S| + 7) * M < 2^(W-1) in
    absolute value, so the two sides agree exactly when their ints do.  M is
    the larger of 2^B - 1, B the widest digit width of the dense layers,
    and the largest |value| of the axis sections and q00 read, found by a
    scan.  When they differ at degree n, the rows of that degree are decoded
    as balanced digits (each in (-2^(W-1), 2^(W-1))) back into grids.
    first_mismatch is (n, i, j, lhs, rhs) at the least n, and within it the
    least (i, j) in lexicographic order, where the two coefficients differ.
    """
    if n_degree < 1:
        raise OutOfRange(f"n_degree must be >= 1, got {n_degree}")
    table = count(s, n_degree, dense_max=n_degree)
    kp = kernel_polys(s)
    row0, col0, q00 = table.row0[:n_degree], table.col0[:n_degree], table.q00[:n_degree]
    axes = [*row0, *col0, q00]
    # dense digits lie in [0, 2^bits) at the widest DP width, the axis cells anywhere
    top = max((1 << table._dense[n_degree][1]) - 1, max(map(max, axes)), -min(map(min, axes)))
    bits = _digit_bits(2 * (len(s) + 7) * top)
    dense = table._spread(range(n_degree + 1), bits)
    row0 = [sum(v << bits * i for i, v in enumerate(r) if v) for r in row0]
    half = 1 << (bits - 1)

    def grid(packed: list[int]) -> list[list[int]]:
        # balanced digits: every coefficient lies in (-half, half)
        bias = sum(half << bits * i for i in range(len(packed)))
        rows = _unpack_rows([r + bias for r in packed], bits, len(packed))
        return [[v - half for v in row] for row in rows]

    first_mismatch = None
    for n in range(0, n_degree + 1):
        size = n + 2  # exponents of degree n lie in 0..n+1
        lhs = [0] * size
        rhs = [0] * size
        if n >= 1:
            for j, r in enumerate(dense[n - 1]):
                moved = (r, r << bits, r << 2 * bits)
                for p, q in s.steps:
                    lhs[j + q + 1] += moved[p + 1]
            for k in range(3):  # the x^k term of c(x) Q(x,0), the y^k one of ct(y) Q(0,y)
                if kp.c[k]:
                    rhs[0] += row0[n - 1] << bits * k
                if kp.c_t[k]:
                    for j, v in enumerate(col0[n - 1], k):
                        rhs[j] += v
            rhs[0] -= kp.c[0] * q00[n - 1]
        else:
            rhs[1] = -1 << bits
        for j, r in enumerate(dense[n], 1):
            lhs[j] -= r << bits

        if lhs != rhs:
            lhs, rhs = grid(lhs), grid(rhs)
            i, j = min(
                (i, j) for j in range(size) for i in range(size) if lhs[j][i] != rhs[j][i]
            )
            first_mismatch = (n, i, j, lhs[j][i], rhs[j][i])
            break

    return FunctionalEquationReport(
        holds=first_mismatch is None,
        max_degree=n_degree,
        has_q00_term=bool(kp.c[0]),
        first_mismatch=first_mismatch,
    )


def _log_term(c: int, n: int, z: complex) -> complex:
    """c z^n through logarithms, for an int c of 1000 bits or more: c
    overflows float64, the term does not (|z| < 1/|S|); 0 at z = 0."""
    if not z:
        return 0.0
    return (z / abs(z)) ** n * math.exp(math.log(c) + n * math.log(abs(z)))


def eval_q_x0(table: CountTable, x: complex, z: complex) -> complex:
    """Truncated bivariate series sum_{n,i} q(i,0,n) x^i z^n."""
    total = 0j
    for n, row in enumerate(table.row0):
        acc = 0j
        xp = 1 + 0j
        for v in row:
            if v.bit_length() >= 1000:
                total += _log_term(v, n, z) * xp
            elif v:
                acc += v * xp
            xp *= x
        total += acc * z**n
    return total


def eval_series(coeffs, z: float) -> float:
    """Truncated univariate series sum c_n z^n (coefficients may be huge ints)."""
    if not z:
        # only the constant term is left, and log(0) is undefined
        return float(next(iter(coeffs), 0))
    total = 0.0
    zp = 1.0
    for n, c in enumerate(coeffs):
        if c:
            total += float(c) * zp if c.bit_length() < 1000 else _log_term(c, n, z)
        zp *= z
    return total
