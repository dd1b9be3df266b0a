"""Exact univariate polynomial helpers over the integers.

Ascending coefficient lists of Python ints, normalised (no trailing zeros).
Used for the resultant route to the genus-transition point: the resultant
in z is a fraction-free (Bareiss) determinant of a Sylvester matrix whose
entries are integer polynomials in z, and its positive real roots are
float roots certified by exact signs at rational bracket endpoints and an
exact Sturm count.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .errors import InexactDivision, RootFindingFailure

Poly = list[int]

# Certified brackets are this wide (about 5.7e-14).
BRACKET_WIDTH = Fraction(1, 2**44)


def norm(p) -> Poly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def degree(p: Poly) -> int:
    return len(p) - 1


def deriv(p: Poly) -> Poly:
    return norm([k * p[k] for k in range(1, len(p))])


def sub(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return norm([(p[k] if k < len(p) else 0) - (q[k] if k < len(q) else 0) for k in range(n)])


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def primitive(p: Poly) -> Poly:
    """p divided by its content, so the result has coprime coefficients
    (same sign as p: the content is taken positive)."""
    g = 0
    for c in p:
        g = gcd(g, c)
    return [c // g for c in p] if g > 1 else list(p)


def polydivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of p by q in Z[x].

    Raises InexactDivision when a quotient coefficient is not an integer
    (the leading coefficient of q fails to divide a leading remainder term).
    """
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = norm(p)
    dq, lead = degree(q), q[-1]
    quo = [0] * max(0, len(rem) - dq)
    while len(rem) - 1 >= dq:
        k = len(rem) - 1 - dq
        f, r = divmod(rem[-1], lead)
        if r:
            raise InexactDivision(f"leading term {rem[-1]} is not divisible by {lead}")
        quo[k] = f
        for i, c in enumerate(q):
            rem[k + i] -= f * c
        rem = norm(rem)
    return norm(quo), rem


def exact_div(p: Poly, q: Poly) -> Poly:
    """p / q in Z[x]; raises InexactDivision if q does not divide p."""
    quo, rem = polydivmod(p, q)
    if rem:
        raise InexactDivision("polynomial division leaves a nonzero remainder")
    return quo


def prem(p: Poly, q: Poly) -> Poly:
    """A positive integer multiple of the remainder of p by q in Q[x]."""
    scale = abs(q[-1]) ** max(0, len(p) - len(q) + 1)
    return polydivmod([scale * c for c in p], q)[1]


def polygcd(p: Poly, q: Poly) -> Poly:
    """Primitive greatest common divisor with positive leading coefficient."""
    a, b = primitive(norm(p)), primitive(norm(q))
    while b:
        a, b = b, primitive(prem(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


def square_free(p: Poly) -> Poly:
    p = norm(p)
    if degree(p) <= 1:
        return p
    return exact_div(p, polygcd(p, deriv(p)))


def sylvester_resultant(p: list[Poly], q: list[Poly]) -> Poly:
    """Res_x(p, q) at the formal (list) x-degrees, where p and q are lists
    of x-coefficients, each an integer polynomial in z.

    Fraction-free Bareiss elimination of the Sylvester matrix: every division
    is exact in Z[z], and the last pivot is the determinant.
    """
    dp, dq = len(p) - 1, len(q) - 1
    if dp < 0 or dq < 0:
        return []
    n = dp + dq
    if n == 0:
        return [1]
    m = [[[]] * k + p[::-1] + [[]] * (n - dp - k - 1) for k in range(dq)]
    m += [[[]] * k + q[::-1] + [[]] * (n - dq - k - 1) for k in range(dp)]
    m = [[norm(e) for e in row] for row in m]
    sign, prev = 1, [1]
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return []
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(sub(mul(m[k][k], m[i][j]), mul(m[i][k], m[k][j])), prev)
        prev = m[k][k]
    return m[n - 1][n - 1] if sign > 0 else [-c for c in m[n - 1][n - 1]]


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of p with each member scaled to a primitive integer
    polynomial by a positive factor (signs, hence counts, are unchanged)."""
    chain = [primitive(norm(p)), primitive(deriv(p))]
    while chain[-1]:
        r = prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in primitive(r)])
    return [c for c in chain if c]


def sign_at(p: Poly, v: Fraction) -> int:
    """Exact sign of p(v) for rational v, in integer arithmetic."""
    num, den = v.numerator, v.denominator
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    # acc = den^deg(p) * p(v), and den > 0
    return (acc > 0) - (acc < 0)


def _sign_changes(chain: list[Poly], v: Fraction) -> int:
    signs = [s for s in (sign_at(p, v) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi] for a square-free chain."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def cauchy_bound(p: Poly) -> int:
    """An integer strictly above the modulus of every root of p."""
    lead = abs(p[-1])
    return 1 + max((-(-abs(c) // lead) for c in p[:-1]), default=0)


def isolate_positive_roots(p: Poly) -> list[Fraction]:
    """Centres of certified isolating brackets, one for every distinct
    positive real root of p, ascending; each bracket is BRACKET_WIDTH wide.

    The square-free part's Sturm chain counts the positive roots N exactly.
    Float roots from numpy.roots seed the brackets; a bracket is certified
    when the square-free part has opposite exact signs at its two rational
    endpoints.  N disjoint certified brackets in (0, bound] hold one root
    each and miss none; any other outcome raises RootFindingFailure.
    """
    p = square_free(p)
    if degree(p) < 1:
        return []
    chain = sturm_chain(p)
    bound = cauchy_bound(p)
    expected = count_roots(chain, Fraction(0), Fraction(bound))
    big = max(abs(c) for c in p)
    seeds = sorted({
        r.real for r in np.roots([c / big for c in reversed(p)])
        if 0 < r.real < bound and abs(r.imag) <= 1e-7 * max(1.0, abs(r))
    })
    half = BRACKET_WIDTH / 2
    centres: list[Fraction] = []
    for r in seeds:
        c = Fraction(r)
        lo, hi = c - half, c + half
        if lo > 0 and sign_at(p, lo) * sign_at(p, hi) < 0:
            if centres and lo <= centres[-1] + half:
                raise RootFindingFailure(f"certified brackets overlap near {r}")
            centres.append(c)
    if len(centres) != expected:
        raise RootFindingFailure(
            f"certified {len(centres)} of {expected} positive roots (Sturm count)"
        )
    return centres
