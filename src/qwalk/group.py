"""The group of the walk: the birational involutions pairing kernel roots.

The two generators act on points of C^2 by

    psi(x, y) = (x, c(x) / (a(x) y)),      phi(x, y) = (ct(y) / (at(y) x), y)

where a, c (and the tilde pair) are the boundary polynomials of the kernel;
both leave sum(delta_{ij} x^i y^j) invariant and square to the identity.
The group they generate is dihedral; its order is 2m where m is the order of
psi o phi.  The order depends on the step set alone, so it is certified with
exact arithmetic on one fixed panel of five small-height points: for
distinct bounded-degree birational maps a generic exact panel cannot collide,
so "all panel points fixed" is decisive.

Orbits of infinite-order compositions blow up in height (digit count grows
geometrically), so candidate orders are first screened by running the
panel orbits modulo one prime, one point at a time: non-return modulo a
prime of good reduction already proves non-return over Q, so each point
strikes out candidates, the next point runs only as far as the largest
candidate left, and the screen stops once none is left (for most walks
whose group exceeds the bound, after the first point).  The survivors are
certified over the integers, equality by cross-multiplication.  Screen and
certificate run one recurrence, `_orbit`, reduced modulo the prime or not
at all, so a zero denominator on the exact orbit is zero modulo the prime
too: an orbit that screens proves the exact orbit pole-free for as many
steps as it ran, and every survivor lies within every point's screen.  A
panel point whose screen meets a zero denominator is a bad-reduction point.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import DegenerateGenerators, OutOfRange, PoleEncountered, TestPointExhaustion
from .steps import KernelPolys, StepSet, kernel_polys, poly_eval

_PRIME = 2**61 - 1

#: Cap on max_half_order (one flag per step and panel point); finite m are <= 4.
_MAX_HALF_ORDER = 1024


@dataclass(frozen=True)
class RationalPoint:
    x: Fraction
    y: Fraction


#: The certification panel.  Every orbit of it screens well modulo _PRIME on
#: the 161 step sets whose generators are defined, up to _MAX_HALF_ORDER.
_PANEL = tuple(RationalPoint(Fraction(*x), Fraction(*y)) for x, y in (
    ((25, 49), (9, 1)), ((17, 33), (63, 52)), ((39, 62), (46, 75)),
    ((28, 65), (18, 37)), ((18, 97), (13, 80))))


@dataclass(frozen=True)
class GroupOrderResult:
    finite: bool
    order: int | None = None  # even, >= 4, set when finite
    half_order_bound: int | None = None  # set when the bound was exceeded


def _check_defined(kp: KernelPolys) -> None:
    if not any(kp.a) or not any(kp.c) or not any(kp.a_t) or not any(kp.c_t):
        raise DegenerateGenerators(
            "the walk needs steps with j=+1 and j=-1 and with i=+1 and i=-1 "
            "for both generators to be well-defined involutions"
        )


def psi(s: StepSet, p: RationalPoint) -> RationalPoint:
    """First generator: y -> c(x) / (a(x) y), x unchanged.  Exact."""
    kp = kernel_polys(s)
    _check_defined(kp)
    a = poly_eval(kp.a, p.x)
    c = poly_eval(kp.c, p.x)
    if a == 0 or p.y == 0:
        raise PoleEncountered(f"psi undefined at {p}")
    return RationalPoint(p.x, Fraction(c, 1) / (a * p.y))


def phi(s: StepSet, p: RationalPoint) -> RationalPoint:
    """Second generator: x -> ct(y) / (at(y) x), y unchanged.  Exact."""
    kp = kernel_polys(s)
    _check_defined(kp)
    at = poly_eval(kp.a_t, p.y)
    ct = poly_eval(kp.c_t, p.y)
    if at == 0 or p.x == 0:
        raise PoleEncountered(f"phi undefined at {p}")
    return RationalPoint(Fraction(ct, 1) / (at * p.x), p.y)


def step_symbol(s: StepSet, p: RationalPoint) -> Fraction:
    """The invariant sum(delta_{ij} x^i y^j), evaluated exactly."""
    if p.x == 0 or p.y == 0:
        raise PoleEncountered("the invariant needs nonzero coordinates")
    return sum(
        Fraction(p.x) ** i * Fraction(p.y) ** j for (i, j) in s.steps
    )


def invariant_check(s: StepSet, p: RationalPoint) -> bool:
    """True iff the step symbol agrees exactly at p, psi(p) and phi(p)."""
    v = step_symbol(s, p)
    return v == step_symbol(s, psi(s, p)) == step_symbol(s, phi(s, p))


def _orbit(kp: KernelPolys, p0: RationalPoint,
           reduce: Callable[[int], int]) -> Iterator[tuple[int, int, int, int]]:
    """Yield p0, then each step of its psi o phi orbit, as projective pairs
    (xn, xd, yn, yd) with every entry passed through `reduce`; no inversion.

    With h(P; n, d) = P0 d^2 + P1 n d + P2 n^2, phi maps (xn : xd) to
    (h(ct; yn, yd) xd : h(at; yn, yd) xn), then psi maps (yn : yd) to
    (h(c; xn, xd) yd : h(a; xn, xd) yn).  A new d is the pole factor times
    the old n, so it is zero exactly where psi or phi meets a pole.
    """
    (a0, a1, a2), (c0, c1, c2) = kp.a, kp.c
    (at0, at1, at2), (ct0, ct1, ct2) = kp.a_t, kp.c_t
    xn, xd = reduce(p0.x.numerator), reduce(p0.x.denominator)
    yn, yd = reduce(p0.y.numerator), reduce(p0.y.denominator)
    while True:
        yield xn, xd, yn, yd
        dd, nd, nn = yd * yd, yn * yd, yn * yn
        xn, xd = (reduce((ct0 * dd + ct1 * nd + ct2 * nn) * xd),
                  reduce((at0 * dd + at1 * nd + at2 * nn) * xn))
        dd, nd, nn = xd * xd, xn * xd, xn * xn
        yn, yd = (reduce((c0 * dd + c1 * nd + c2 * nn) * yd),
                  reduce((a0 * dd + a1 * nd + a2 * nn) * yn))


def _orbit_mod_p(s: StepSet, p0: RationalPoint, prime: int, max_m: int) -> list[bool] | None:
    """Return-per-m flags of the psi o phi orbit over F_prime, or None when a
    denominator vanishes mod prime (bad reduction, or an exact pole on the
    orbit)."""
    orbit = _orbit(kernel_polys(s), p0, lambda v: v % prime)
    x0n, x0d, y0n, y0d = next(orbit)
    if x0d == 0 or y0d == 0:
        return None
    flags = []
    for xn, xd, yn, yd in islice(orbit, max_m):
        if xd == 0 or yd == 0:
            return None
        flags.append(
            (xn * x0d - x0n * xd) % prime == 0 and (yn * y0d - y0n * yd) % prime == 0
        )
    return flags


def _orbit_exact_returns_at(kp: KernelPolys, p0: RationalPoint, m: int) -> bool:
    """Whether (psi o phi)^m fixes p0, on `_orbit` over the integers.  Every
    d stays nonzero when the orbit of p0 screened at least m steps modulo
    _PRIME, so equal cross-products mean equal points."""
    orbit = _orbit(kp, p0, int)
    x0n, x0d, y0n, y0d = next(orbit)
    xn, xd, yn, yd = next(islice(orbit, m - 1, None))
    return xn * x0d == x0n * xd and yn * y0d == y0n * yd


def group_order(s: StepSet, max_half_order: int = 16) -> GroupOrderResult:
    """Decide whether (psi o phi) has order m <= max_half_order.

    Returns Finite with group order 2m for the smallest certified m, else an
    ExceedsBound result (honestly "not finite up to the bound", never
    "infinite").  Certification is exact (integer projective pairs, no
    rounding) on the fixed panel _PANEL; screening the panel orbits modulo
    _PRIME, one point at a time and each only up to the largest m still in
    question, only prunes candidate values of m, and stops once none is
    left.  A panel point whose screened orbit reduces badly modulo _PRIME
    raises TestPointExhaustion; the points after the screen has stopped are
    never run.
    """
    kp = kernel_polys(s)
    _check_defined(kp)
    if max_half_order < 2:
        raise OutOfRange("max_half_order must be >= 2 (psi and phi are never equal)")
    if max_half_order > _MAX_HALF_ORDER:
        raise OutOfRange(f"max_half_order must be <= {_MAX_HALF_ORDER}")
    candidates = list(range(2, max_half_order + 1))
    for p in _PANEL:
        if not candidates:
            break
        flags = _orbit_mod_p(s, p, _PRIME, candidates[-1])
        if flags is None:
            raise TestPointExhaustion(f"the panel orbit of {p} reduces badly modulo {_PRIME}")
        candidates = [m for m in candidates if flags[m - 1]]

    # each candidate lies within every point's screen, which proves its exact
    # orbit free of poles up to there: a zero denominator over Z is zero mod _PRIME
    for m in candidates:
        if all(_orbit_exact_returns_at(kp, p, m) for p in _PANEL):
            return GroupOrderResult(finite=True, order=2 * m)
    return GroupOrderResult(finite=False, half_order_bound=max_half_order)
