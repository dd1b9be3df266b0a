"""Exact univariate polynomial helpers over the integers.

Ascending coefficient lists of Python ints, normalised (no trailing zeros).
Used for the resultant route to the genus-transition point: the resultant
in z is the closed form +-a_d disc(D) over Z[z], built from mul, sub and
exact_div here (singularities._resultant_in_z), and its smallest positive
root is bracketed by exact bisection at dyadic points num / 2^k, on the
Sturm chain's sign changes and then on the sign of the polynomial; D's
positive roots are counted either side.  No float touches that route.

roots() is the package's one float root finder, for degree at most 4 (the
kernel discriminants, c(x) in bvp, a(x) in off_curve_position), in pure
Python so that the subcommands built on it start without numpy.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd

from .errors import InexactDivision, OutOfRange

Poly = list[int]

# smallest_positive_root halves its bracket to 2^-BRACKET_BITS (about
# 8.7e-19): above 1/8 its centre rounds to within one ulp of the root.
BRACKET_BITS = 60


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


def exact_div(p: Poly, q: Poly) -> Poly:
    """p / q in Z[x] for q != 0; raises InexactDivision if q does not divide p."""
    rem = norm(p)
    quo = [0] * max(0, len(rem) - degree(q))
    while len(rem) >= len(q):
        k = len(rem) - len(q)
        f, r = divmod(rem[-1], q[-1])
        if r:
            raise InexactDivision(f"leading term {rem[-1]} is not divisible by {q[-1]}")
        quo[k] = f
        for i, c in enumerate(q):
            rem[k + i] -= f * c
        rem = norm(rem)
    if rem:
        raise InexactDivision("polynomial division leaves a nonzero remainder")
    return quo


def prem(p: Poly, q: Poly) -> Poly:
    """A positive integer multiple of the remainder of p by q in Q[x], by
    steps that scale by lead(q) > 0 (-q leaves the same remainder)."""
    q, rem = (q if q[-1] > 0 else [-c for c in q]), norm(p)
    while len(rem) >= len(q):
        shift, f = len(rem) - len(q), rem.pop()
        rem = [q[-1] * c for c in rem]
        for i, c in enumerate(q[:-1]):
            rem[shift + i] -= f * c
        rem = norm(rem)
    return rem


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


def sign_at(p: Poly, num: int, k: int) -> int:
    """Exact sign of p(num / 2^k), in integer arithmetic."""
    acc = 0
    for i, c in enumerate(reversed(p)):
        acc = acc * num + (c << (k * i))
    # acc = 2^(k deg(p)) * p(num / 2^k)
    return (acc > 0) - (acc < 0)


def _changes(values: list[int]) -> int:
    """Sign changes along the nonzero values."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_changes(chain: list[Poly], num: int, k: int) -> int:
    return _changes([sign_at(p, num, k) for p in chain])


def count_positive_roots(p: Poly) -> int:
    """The number of distinct positive real roots of p != 0, a root at 0
    divided out: its Sturm chain's sign changes at 0 (the constant terms)
    less those at +inf (the leading coefficients)."""
    p = norm(p)
    while not p[0]:
        p = p[1:]
    chain = sturm_chain(p)
    return _changes([q[0] for q in chain]) - _changes([q[-1] for q in chain])


def cauchy_bound(p: Poly) -> int:
    """An integer strictly above the modulus of every root of p."""
    lead = abs(p[-1])
    return 1 + max((-(-abs(c) // lead) for c in p[:-1]), default=0)


# Aberth-Ehrlich leaves a root where it is once |p(x)| is within this many
# units of roundoff per degree of the bound sum |a_k| |x|^k on Horner's
# error there (a Newton step would be noise then, all the more at a clustered
# root).  It also leaves a root alone after a step this small against its
# modulus and its distance to the others: cubic convergence puts it within
# roundoff then.
_RESIDUAL_ULPS = 4
_STEP_SCALE = 2.0**-26
_MAX_SWEEPS = 64
_OMEGA = complex(-0.5, math.sqrt(3.0) / 2)  # primitive cube root of unity


def roots(coeffs) -> list[complex]:
    """All complex roots, with multiplicity, of the polynomial with the
    ascending real coefficients `coeffs`, of degree at most 4 (a higher
    degree raises OutOfRange).

    Trailing zeros (a degree drop) are dropped, and each zero low-order
    coefficient gives an exact 0j root.  The other roots start from the
    closed forms and are refined by Aberth-Ehrlich iteration, which moves
    every root by its Newton step corrected for the pull of the others; one
    or two sweeps suffice.  When a root is left failing the residual test
    (roots decades apart, whose closed form loses the small ones), the
    iteration restarts from _reciprocal_start, and its roots replace the
    first ones only if every one of them passes.  Like the roots, the
    result is real or conjugate in pairs (_conjugate_symmetric).
    """
    p = [float(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    if len(p) > 5:
        raise OutOfRange(f"roots() takes degree at most 4, not {len(p) - 1}")
    zeros = 0
    while zeros < len(p) and p[zeros] == 0:
        zeros += 1
    if len(p) - zeros < 2:
        return [0j] * zeros
    monic = [c / p[-1] for c in p[zeros:]]
    z, settled = _aberth(monic, _closed_form(monic))
    if not settled:
        start = _reciprocal_start(p[zeros:])
        if start:
            back, settled = _aberth(monic, start)
            if settled:
                z = back
    return [0j] * zeros + _conjugate_symmetric(z)


def _reciprocal_start(p: list[float]) -> list[complex] | None:
    """Aberth starts for p (nonzero constant term) whose roots lie decades
    apart, where p's own closed form loses the small ones: the reciprocals
    of the closed-form roots of the reversed polynomial.  None when that
    closed form overflows or has a root at 0."""
    try:
        back = _closed_form([c / p[0] for c in reversed(p)])
    except OverflowError:
        return None
    return [1 / y for y in back] if all(back) else None


def quadratic_roots(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Roots of a x^2 + b x + c for a != 0: the one of larger modulus
    without cancellation (the square root's sign follows b), the other from
    the product c / a."""
    sq = cmath.sqrt(b * b - 4 * a * c)
    if (b.conjugate() * sq).real < 0:
        sq = -sq
    q = -0.5 * (b + sq)
    r1 = q / a
    return r1, (c / q if q != 0 else -b / a - r1)


def _cubic(a: complex, b: complex, c: complex) -> list[complex]:
    """Roots of x^3 + a x^2 + b x + c by Cardano's formula."""
    s = a / 3
    p = b - a * s
    q = c - b * s + 2 * s**3
    d = cmath.sqrt(q * q / 4 + p**3 / 27)
    u3 = max(-q / 2 + d, -q / 2 - d, key=abs)
    if not u3:
        return [complex(-s)] * 3  # p = q = 0: a triple root
    u = u3 ** (1 / 3)
    return [w * u - p / (3 * w * u) - s for w in (1, _OMEGA, _OMEGA.conjugate())]


def _closed_form(a: list[float]) -> list[complex]:
    """Roots of the monic polynomial with ascending coefficients a, of
    degree 1 to 4: the quadratic formula, Cardano, and Ferrari's reduction
    of the quartic to two quadratics through its resolvent cubic."""
    n = len(a) - 1
    if n == 1:
        return [complex(-a[0])]
    if n == 2:
        return list(quadratic_roots(1.0, a[1], a[0]))
    if n == 3:
        return _cubic(a[2], a[1], a[0])
    # x = y - s gives y^4 + p y^2 + q y + r
    s = a[3] / 4
    p = a[2] - 6 * s * s
    q = a[1] - 2 * a[2] * s + 8 * s**3
    r = a[0] - a[1] * s + a[2] * s * s - 3 * s**4
    # y^4 + p y^2 + q y + r = (y^2 + p/2 + m)^2 - (w y - q/(2w))^2, w^2 = 2m,
    # for m a root of the resolvent; the largest one is the best conditioned
    m = max(_cubic(p, p * p / 4 - r, -q * q / 8), key=abs)
    if not m:
        return [complex(-s)] * 4  # p = q = r = 0: a quadruple root
    w = cmath.sqrt(2 * m)
    base, shift = p / 2 + m, q / (2 * w)
    ys = quadratic_roots(1.0, -w, base + shift) + quadratic_roots(1.0, w, base - shift)
    return [y - s for y in ys]


def _settled(desc: list[float], mags: list[float], tol: float, x: complex) -> bool:
    """Aberth's residual test at x for the monic p with the descending
    coefficients 1, *desc of moduli 1, *mags: |p(x)| within tol of the
    bound sum |a_k| |x|^k on Horner's error."""
    ax = abs(x)
    pv, bound = 1.0, 1.0
    for c, mag in zip(desc, mags):
        pv = pv * x + c
        bound = bound * ax + mag
    return abs(pv) <= tol * bound


def _aberth(a: list[float], z: list[complex]) -> tuple[list[complex], bool]:
    """Aberth-Ehrlich sweeps on the monic polynomial a from the start z,
    each root seeing the others' newest values, until every root is left
    alone (see _RESIDUAL_ULPS) or for _MAX_SWEEPS sweeps; and whether every
    root passes the residual test where it is left."""
    n = len(a) - 1
    desc = a[-2::-1]
    mags = [abs(c) for c in desc]
    tol = _RESIDUAL_ULPS * n * 2.0**-52
    z = list(z)
    live = range(n)
    untested = []  # roots left after a small step, not tested where they landed
    for _ in range(_MAX_SWEEPS):
        still = []
        for i in live:
            x = z[i]
            ax = abs(x)
            # Horner inline (a call per evaluation costs roots() a tenth)
            pv, dv, bound = 1.0, 0.0, 1.0
            for c, mag in zip(desc, mags):
                dv = dv * x + pv
                pv = pv * x + c
                bound = bound * ax + mag
            if abs(pv) <= tol * bound:
                continue
            pull, near = 0j, ax
            for j, y in enumerate(z):
                if j != i:
                    d = x - y
                    if d:
                        pull += 1 / d
                    d = abs(d)
                    if d < near:
                        near = d
            den = dv - pv * pull
            if not den:  # a stationary point: move off it and try again
                z[i] = x + tol * (1 + ax) * _OMEGA
                still.append(i)
                continue
            step = pv / den
            z[i] = x - step
            if abs(step) > _STEP_SCALE * near:
                still.append(i)
            else:
                untested.append(i)
        if not still:
            break
        live = still
    else:
        untested += live
    return z, all(_settled(desc, mags, tol, z[i]) for i in untested)


def _conjugate_symmetric(z: list[complex]) -> list[complex]:
    """The roots of a real polynomial, made real or conjugate in pairs as
    its roots are.  A root nearer its own conjugate than any other root is to
    that conjugate is real; each other root above the real axis is paired
    with the one below nearest its conjugate, and the two become the
    conjugates of their mean."""
    out = list(z)
    below = []
    for i, x in enumerate(z):
        gap = 2 * abs(x.imag)
        if gap and any(j != i and abs(y - x.conjugate()) <= gap for j, y in enumerate(z)):
            if x.imag < 0:
                below.append(i)
        else:
            out[i] = complex(x.real, 0.0)
    for i, x in enumerate(z):
        if out[i].imag > 0 and below:
            j = min(below, key=lambda k: abs(z[k] - x.conjugate()))
            below.remove(j)
            mean = 0.5 * (x + z[j].conjugate())
            out[i], out[j] = mean, mean.conjugate()
    return out


def smallest_positive_root(p: Poly) -> Fraction | None:
    """The smallest positive real root of p, or None if p has none: exact
    when bisection lands on it, else the centre of a bracket at most
    2^-BRACKET_BITS wide that holds it.

    On the square-free part, (0, 2^e] with 2^e above cauchy_bound is halved
    on the Sturm chain's sign changes, keeping the lower half whenever it
    holds a root, until one root is left in (lo, hi]; then by the sign of p
    against its sign at hi (p may vanish at lo = 0, which the Sturm count
    excludes).  Every point is a dyadic num / 2^k, evaluated in integers.
    """
    p = square_free(p)
    if degree(p) < 1:
        return None
    chain = sturm_chain(p)
    lo, hi, k = 0, 1 << cauchy_bound(p).bit_length(), 0
    v_lo, v_hi = _sign_changes(chain, lo, k), _sign_changes(chain, hi, k)
    if v_lo == v_hi:
        return None
    while v_lo - v_hi > 1:
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) >> 1
        v_mid = _sign_changes(chain, mid, k)
        if v_mid < v_lo:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid
    s_hi = sign_at(p, hi, k)
    while s_hi and (hi - lo) << BRACKET_BITS > 1 << k:
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) >> 1
        s_mid = sign_at(p, mid, k)
        if s_mid == -s_hi:
            lo = mid
        else:
            hi, s_hi = mid, s_mid
    if not s_hi:
        return Fraction(hi, 1 << k)
    return Fraction(lo + hi, 1 << (k + 1))
