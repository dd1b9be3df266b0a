"""Exact dynamic-programming enumeration of quarter-plane walks.

q(i, j, n) is the number of n-step walks from the origin that stay in
Z_+^2 and end at (i, j).  Layers are computed with arbitrary-precision
integers; a layer's row j is packed into a single Python int with one
digit per i, all of one width, which keeps the whole recurrence inside
C-speed bigint shifts and adds.  This module is the brute-force oracle for
every analytic formula in the package: no floating point is used in the
counting itself.

The digit width grows with the layer.  Each layer total T_n follows from
the previous layer's axis sections by the kernel relation at (1, 1), before
the layer is built; every cell is at most T_n, so when T_n outgrows the
digits the rolling layer is re-packed in place to a width that holds the
next _LOOKAHEAD layers.  Before it allocates anything, count() estimates its
peak memory and raises ResourceLimit above _MAX_BYTES.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import product
from typing import Literal

import numpy as np

from .errors import ResourceLimit
from .steps import StepSet

_DEFAULT_MAX_N = 4096

SeriesLabel = Literal["q00", "q10", "q01", "q11"]

SERIES_PRETTY = {
    "q00": "Q(0,0,z)",
    "q10": "Q(1,0,z)",
    "q01": "Q(0,1,z)",
    "q11": "Q(1,1,z)",
}


def _n_cap() -> int:
    env = os.environ.get("QWALK_MAX_N")
    return int(env) if env else _DEFAULT_MAX_N


# Layers of growth a widening provides for: the digits are re-packed about
# once every _LOOKAHEAD layers, and they are never much wider than the
# largest cell of the current layer needs.
_LOOKAHEAD = 24

# count() refuses to start when its estimated peak memory is above this.
_MAX_BYTES = 4 << 30


def _digit_bits(bound: int) -> int:
    # Width of a packed digit that holds values up to `bound`.  Multiple of
    # 8 so digits can be sliced out of to_bytes() output.
    return (bound.bit_length() + 7) // 8 * 8


def _peak_bytes(card: int, n_max: int, dense_max: int) -> int:
    """Estimate of count()'s peak memory in bytes: two rolling layers of
    (n_max+1)^2 digits at the final width, plus the Python ints kept in the
    axis sections and in the dense layers up to dense_max."""
    lg = math.log2(max(card, 2))

    def ints(n: int) -> int:
        # n + 1 ints below card**n: 4 bytes per 30 bits, header and list slot
        return (n + 1) * (32 + 4 * math.ceil(n * lg / 30))

    layers = 2 * (n_max + 1) ** 2 * _digit_bits(card**n_max) // 8
    axes = 2 * sum(ints(n) for n in range(n_max + 1))
    dense = sum((n + 1) * ints(n) for n in range(dense_max + 1))
    return layers + axes + dense


def _widen(rows: list[int], bits: int, new_bits: int) -> None:
    """Re-pack a layer's rows from `bits` to `new_bits` per digit, in place,
    so that besides the layer only copies of one row are alive at a time."""
    count, nb = len(rows), bits // 8
    wide = np.zeros((count, new_bits // 8), np.uint8)
    for k, r in enumerate(rows):
        if r:
            digits = np.frombuffer(r.to_bytes(count * nb, "little"), np.uint8)
            wide[:, :nb] = digits.reshape(count, nb)
            rows[k] = int.from_bytes(wide.tobytes(), "little")


def _next_layer(prev: list[int], bits: int, steps: tuple[tuple[int, int], ...]) -> list[int]:
    """One step of the packed DP.  Source row j feeds row j + b for every
    step (a, b), its digits moved by a: a shift left by one digit for a = 1,
    right for a = -1 (which drops digit i = 0, the step out of the quadrant).
    Each row is shifted at most once per direction, whatever the steps."""
    left = any(a == 1 for a, _ in steps)
    right = any(a == -1 for a, _ in steps)
    rows = [0] * (len(prev) + 1)
    for src, r in enumerate(prev):
        if r:
            moved = (r, r << bits if left else 0, r >> bits if right else 0)
            for a, b in steps:
                t = src + b
                if t >= 0:
                    # moved[-1] is the right shift; a first contribution is
                    # stored as is, since 0 + x would copy x
                    rows[t] = rows[t] + moved[a] if rows[t] else moved[a]
    return rows


def _unpack(row: int, bits: int, count: int) -> list[int]:
    nb = bits // 8
    buf = row.to_bytes(max(nb * count, (row.bit_length() + 7) // 8), "little")
    buf = buf.ljust(nb * count, b"\x00")
    return [int.from_bytes(buf[k * nb : (k + 1) * nb], "little") for k in range(count)]


@dataclass
class CountTable:
    """Exact counts for one step set up to length n_max.

    Per layer n the table keeps q(0,0,n), the axis sections q(i,0,n) and
    q(0,j,n), and the layer total (from the kernel relation, not from a sum
    over the layer); full dense layers are retained for n <= dense_max (the
    DP itself is a two-layer rolling grid of packed rows).
    """

    steps: StepSet
    n_max: int
    dense_max: int
    q00: list[int] = field(default_factory=list)
    row0: list[list[int]] = field(default_factory=list)  # q(i,0,n), i = 0..n
    col0: list[list[int]] = field(default_factory=list)  # q(0,j,n), j = 0..n
    totals: list[int] = field(default_factory=list)
    _dense: list[list[list[int]]] = field(default_factory=list)  # [n][j][i]

    def q(self, i: int, j: int, n: int) -> int:
        """q(i, j, n); requires n <= dense_max unless (i, j) is on an axis."""
        if n > self.n_max or n < 0:
            raise IndexError(f"layer {n} not computed (n_max={self.n_max})")
        if i < 0 or j < 0 or i > n or j > n:
            return 0
        if j == 0:
            return self.row0[n][i]
        if i == 0:
            return self.col0[n][j]
        if n <= self.dense_max:
            layer = self._dense[n]
            return layer[j][i] if j < len(layer) and i < len(layer[j]) else 0
        raise ResourceLimit(
            f"interior cell ({i},{j},{n}) beyond dense_max={self.dense_max}; "
            "recount with a larger dense_max"
        )

    def layer(self, n: int) -> list[list[int]]:
        """Dense layer n as rows indexed [j][i] (n <= dense_max)."""
        if n > self.dense_max:
            raise ResourceLimit(f"layer {n} beyond dense_max={self.dense_max}")
        return [row[:] for row in self._dense[n]]


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
    the next _LOOKAHEAD layers.  Raises ResourceLimit beyond the configured
    cap (QWALK_MAX_N, default 4096) or when the estimated peak memory
    exceeds _MAX_BYTES.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    cap = _n_cap()
    if n_max > cap:
        raise ResourceLimit(f"n_max={n_max} exceeds cap {cap} (set QWALK_MAX_N to override)")
    if dense_max is None:
        dense_max = min(n_max, 64)
    dense_max = min(dense_max, n_max)
    card = len(s)
    peak = _peak_bytes(card, n_max, dense_max)
    if peak > _MAX_BYTES:
        raise ResourceLimit(
            f"count(n_max={n_max}, dense_max={dense_max}) needs about "
            f"{peak / 2**30:.3g} GiB, over the {_MAX_BYTES / 2**30:.3g} GiB limit"
        )

    steps = s.sorted_steps()
    lost_x = sum(1 for _, b in steps if b == -1)  # c(1)
    lost_y = sum(1 for a, _ in steps if a == -1)  # ct(1)
    corner = s.delta(-1, -1)

    table = CountTable(steps=s, n_max=n_max, dense_max=dense_max)

    def record(n: int, rows: list[int], bits: int, total: int) -> None:
        mask = (1 << bits) - 1
        table.q00.append(rows[0] & mask)
        table.row0.append(_unpack(rows[0], bits, n + 1))
        table.col0.append([r & mask for r in rows])
        table.totals.append(total)
        if n <= dense_max:
            table._dense.append([_unpack(r, bits, n + 1) for r in rows])

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
        rows = _next_layer(rows, bits, steps)
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
        raise ValueError(f"unknown series label {label!r}")
    return CoefficientSeries(label=label, coeffs=coeffs)


def catalan(n: int) -> int:
    """The n-th Catalan number, binomial(2n, n)/(n+1), exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
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
    """
    if n_degree < 1:
        raise ValueError("n_degree must be >= 1")
    table = count(s, n_degree, dense_max=n_degree)
    d11 = s.delta(-1, -1)

    def layer_poly(n: int) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for j, row in enumerate(table._dense[n]):
            for i, v in enumerate(row):
                if v:
                    out[(i, j)] = v
        return out

    first_mismatch = None
    for n in range(0, n_degree + 1):
        lhs: dict[tuple[int, int], int] = {}
        if n >= 1:
            for (i, j), v in layer_poly(n - 1).items():
                for (p, q) in s.steps:
                    key = (i + p + 1, j + q + 1)
                    lhs[key] = lhs.get(key, 0) + v
        for (i, j), v in layer_poly(n).items():
            key = (i + 1, j + 1)
            lhs[key] = lhs.get(key, 0) - v

        rhs: dict[tuple[int, int], int] = {}
        if n >= 1:
            for i, v in enumerate(table.row0[n - 1]):
                if v:
                    for di in (-1, 0, 1):
                        if s.delta(di, -1):
                            key = (i + di + 1, 0)
                            rhs[key] = rhs.get(key, 0) + v
            for j, v in enumerate(table.col0[n - 1]):
                if v:
                    for dj in (-1, 0, 1):
                        if s.delta(-1, dj):
                            key = (0, j + dj + 1)
                            rhs[key] = rhs.get(key, 0) + v
            if d11:
                q = table.q00[n - 1]
                if q:
                    rhs[(0, 0)] = rhs.get((0, 0), 0) - q
        else:
            rhs[(1, 1)] = -1

        keys = sorted(set(lhs) | set(rhs))
        for key in keys:
            a, b = lhs.get(key, 0), rhs.get(key, 0)
            if a != b:
                first_mismatch = (n, key[0], key[1], a, b)
                break
        if first_mismatch:
            break

    return FunctionalEquationReport(
        holds=first_mismatch is None,
        max_degree=n_degree,
        has_q00_term=bool(d11),
        first_mismatch=first_mismatch,
    )


def count_by_paths(s: StepSet, n: int, budget: int = 300_000) -> dict[tuple[int, int], int]:
    """Independent oracle: enumerate every |S|^n path explicitly and tally the
    endpoints of those that never leave the quarter plane."""
    if len(s) ** n > budget:
        raise ResourceLimit(f"|S|^n = {len(s)**n} exceeds enumeration budget {budget}")
    tally: dict[tuple[int, int], int] = {}
    for path in product(s.sorted_steps(), repeat=n):
        x = y = 0
        ok = True
        for (a, b) in path:
            x += a
            y += b
            if x < 0 or y < 0:
                ok = False
                break
        if ok:
            tally[(x, y)] = tally.get((x, y), 0) + 1
    return tally


def eval_q_x0(table: CountTable, x: complex, z: complex, n_terms: int | None = None) -> complex:
    """Truncated bivariate series sum_{n,i} q(i,0,n) x^i z^n."""
    n_terms = table.n_max if n_terms is None else min(n_terms, table.n_max)
    total = 0j
    for n in range(n_terms + 1):
        row = table.row0[n]
        acc = 0j
        xp = 1 + 0j
        for v in row:
            if v:
                acc += v * xp
            xp *= x
        total += acc * z**n
    return total


def eval_series(coeffs, z: float, n_terms: int | None = None) -> float:
    """Truncated univariate series sum c_n z^n (coefficients may be huge ints)."""
    n_terms = len(coeffs) - 1 if n_terms is None else min(n_terms, len(coeffs) - 1)
    total = 0.0
    zp = 1.0
    for n in range(n_terms + 1):
        c = coeffs[n]
        if c:
            if c.bit_length() < 1000:
                total += float(c) * zp
            else:
                # c overflows float64; the term c*z^n does not (z < 1/|S|).
                sign = 1.0 if z >= 0 or n % 2 == 0 else -1.0
                total += sign * math.exp(math.log(c) + n * math.log(abs(z)))
        zp *= z
    return total
