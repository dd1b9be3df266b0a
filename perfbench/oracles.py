"""Reference values the benchmark checks qwalk against.

Nothing here imports qwalk: the closed forms come from the literature, the
walk tables from an independent numpy dynamic programme, and the census
counts from Bousquet-Melou and Mishna, "Walks with small steps in the
quarter plane" (2010).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SERIES = ("q00", "q10", "q01", "q11")

# (label, rho, alpha, const) for c_n ~ const * rho^k * k^alpha along the
# support stride, derived from the closed forms below with Stirling's formula.
KNOWN_LAWS = {
    "simple": (
        ("q00", 16.0, -3.0, 4 / math.pi),
        ("q10", 4.0, -2.0, 8 / math.pi),
        ("q11", 4.0, -1.0, 4 / math.pi),
    ),
    "kreweras": (("q00", 27.0, -2.5, math.sqrt(3) / (4 * math.sqrt(math.pi))),),
    "gessel": (("q00", 16.0, -7 / 3, math.gamma(5 / 3) / (math.gamma(5 / 6) * math.sqrt(math.pi))),),
    "gouyou-beauchamps": (("q00", 16.0, -5.0, 24 / math.pi),),
}

#: Group orders of the named models.
PRESET_GROUP_ORDERS = {"simple": 4, "kreweras": 6, "gessel": 8, "gouyou-beauchamps": 8}

#: Non-singular classes up to the diagonal reflection with the origin inside
#: the hull: 16 of order 4, 5 of order 6, 2 of order 8, 51 infinite.
CLASS_ORDER_CENSUS = {4: 16, 6: 5, 8: 2, "exceeds": 51}


def _rising(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def _even_support(n_max: int, term) -> list[int]:
    return [term(n // 2) if n % 2 == 0 else 0 for n in range(n_max + 1)]


def simple_q00(n_max: int) -> list[int]:
    """Simple-walk excursions: q00(2k) = C_k * C_(k+1)."""
    def cat(k: int) -> int:
        return math.comb(2 * k, k) // (k + 1)
    return _even_support(n_max, lambda k: cat(k) * cat(k + 1))


def simple_q11(n_max: int) -> list[int]:
    """All simple quadrant walks: binom(n, floor(n/2)) * binom(n+1, ceil(n/2))."""
    return [math.comb(n, n // 2) * math.comb(n + 1, (n + 1) // 2) for n in range(n_max + 1)]


def kreweras_q00(n_max: int) -> list[int]:
    """Kreweras excursions: q00(3k) = 4^k binom(3k, k) / ((k+1)(2k+1))."""
    return [
        4 ** (n // 3) * math.comb(n, n // 3) // ((n // 3 + 1) * (2 * (n // 3) + 1))
        if n % 3 == 0 else 0
        for n in range(n_max + 1)
    ]


def gessel_q00(n_max: int) -> list[int]:
    """Gessel excursions: q00(2k) = 16^k (5/6)_k (1/2)_k / ((5/3)_k (2)_k)."""
    def term(k: int) -> int:
        v = 16 ** k * _rising(Fraction(5, 6), k) * _rising(Fraction(1, 2), k) / (
            _rising(Fraction(5, 3), k) * _rising(Fraction(2), k))
        if v.denominator != 1:
            raise ArithmeticError(f"Gessel term {k} is not an integer")
        return v.numerator
    return _even_support(n_max, term)


def gouyou_beauchamps_q00(n_max: int) -> list[int]:
    """Gouyou-Beauchamps excursions: 6 (2k)! (2k+2)! / (k! (k+1)! (k+2)! (k+3)!)."""
    f = math.factorial
    return _even_support(
        n_max,
        lambda k: 6 * f(2 * k) * f(2 * k + 2) // (f(k) * f(k + 1) * f(k + 2) * f(k + 3)),
    )


#: Exact coefficient sequences known in closed form, by (preset, series).
CLOSED_FORMS = {
    ("simple", "q00"): simple_q00,
    ("simple", "q11"): simple_q11,
    ("kreweras", "q00"): kreweras_q00,
    ("gessel", "q00"): gessel_q00,
    ("gouyou-beauchamps", "q00"): gouyou_beauchamps_q00,
}


def walk_series(steps, n_max: int, exact: bool) -> dict[str, list]:
    """The four series of a step set from a direct layer-by-layer count.

    exact=True keeps Python integers (object arrays) and returns the counts.
    exact=False runs in float64 with each layer divided by |S|, so the
    entries are the probabilities c_n / |S|^n, each with relative error of
    order n * 2^-53 (every term is nonnegative, nothing cancels).
    """
    steps = tuple(steps)
    card = len(steps)
    size = n_max + 1
    layer = np.zeros((size, size), dtype=object if exact else float)  # [j, i]
    layer[0, 0] = 1
    out: dict[str, list] = {k: [] for k in SERIES}

    def record(m: int) -> None:
        box = layer[:m, :m]
        out["q00"].append(box[0, 0])
        out["q10"].append(box[0, :].sum())
        out["q01"].append(box[:, 0].sum())
        out["q11"].append(box.sum())

    record(1)
    for n in range(1, n_max + 1):
        nxt = np.zeros_like(layer)
        for a, b in steps:
            j0, i0 = max(0, -b), max(0, -a)
            nxt[j0 + b:n + b, i0 + a:n + a] += layer[j0:n, i0:n]
        layer = nxt if exact else nxt / card
        record(n + 1)
    return out


def dp_cost_proxy(steps, n_max: int = 40) -> int:
    """Work of a packed-row layer DP up to n_max: over layers and reachable
    rows, the row length (last reachable column + 1) times |S| log2 |S|."""
    steps = tuple(steps)
    size = n_max + 1
    reach = np.zeros((size, size), dtype=bool)  # [j, i]
    reach[0, 0] = True
    total = 0
    for n in range(1, n_max + 1):
        nxt = np.zeros_like(reach)
        for a, b in steps:
            j0, i0 = max(0, -b), max(0, -a)
            nxt[j0 + b:n + b, i0 + a:n + a] |= reach[j0:n, i0:n]
        reach = nxt
        last = size - np.argmax(reach[:, ::-1], axis=1)
        total += int(np.where(reach.any(axis=1), last, 0).sum())
    return round(total * len(steps) * math.log2(len(steps)))


def relative_gap(exact: int, prob: float, card: int, n: int) -> float:
    """|exact / card^n - prob| relative to prob (0 when both vanish)."""
    ratio = exact / card ** n  # correctly rounded for big integers
    if prob == 0:
        return 0.0 if exact == 0 else math.inf
    return abs(ratio - prob) / prob


def terms_for_tail(r: float, eps: float) -> int:
    """Smallest N with r^(N+1) / (1 - r) <= eps, for 0 <= r < 1.

    Every coefficient of a specialised series is at most |S|^n, so with
    r = |S| z this bounds the tail of any truncated series at z.
    """
    n = 0
    while r ** (n + 1) / (1 - r) > eps:
        n += 1
    return n


def series_value(probs: list[float], r: float, n_terms: int) -> float:
    """sum_{n <= n_terms} p_n r^n, with p_n = c_n / |S|^n and r = |S| z."""
    return math.fsum(p * r ** n for n, p in enumerate(probs[: n_terms + 1]))


def drift(steps) -> tuple[int, int]:
    return sum(i for i, _ in steps), sum(j for _, j in steps)


def discriminant(steps, z: float, axis: str) -> list[float]:
    """Ascending coefficients of (b(x) - x/z)^2 - 4 a(x) c(x), where the
    kernel is a(x) y^2 + (b(x) - x/z) y + c(x); axis "y" swaps the roles."""
    if axis == "y":
        steps = [(j, i) for i, j in steps]

    def row(j: int) -> list[float]:
        return [float((i, j) in steps) for i in (-1, 0, 1)]  # x^(i+1)

    a, b, c = row(1), row(0), row(-1)
    b = [b[0], b[1] - 1.0 / z, b[2]]
    sq = np.convolve(b, b) - 4 * np.convolve(a, c)
    return [float(v) for v in sq]


def root_residual(coeffs: list[float], root: complex) -> float:
    """|p(root)| scaled by the size of the terms that cancel in it."""
    scale = sum(abs(c) * abs(root) ** k for k, c in enumerate(coeffs))
    value = sum(c * root ** k for k, c in enumerate(coeffs))
    return abs(value) / scale if scale else abs(value)


def kernel_y_roots(steps, t: np.ndarray, z: float) -> np.ndarray:
    """Both roots in y of a(t) y^2 + (b(t) - t/z) y + c(t), as a (2, m) array."""
    steps = set(steps)

    def poly(j: int) -> np.ndarray:
        return sum(((i, j) in steps) * t ** (i + 1) for i in (-1, 0, 1))

    a, b, c = poly(1), poly(0) - t / z, poly(-1)
    disc = np.sqrt(b * b - 4 * a * c + 0j)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([(-b + disc) / (2 * a), (-b - disc) / (2 * a)])
