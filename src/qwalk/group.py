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
whose group exceeds the bound, after the first point).  The orbits run on
projective pairs (n : d), so they need no modular inversion, and the
survivors are certified on the same recurrence over the integers, equality
by cross-multiplication.  A pole on the exact orbit makes a projective
factor vanish modulo the prime too, so an orbit that screens proves the
exact orbit pole-free for as many steps as it ran, and every survivor lies
within every point's screen; a panel point whose screen meets a vanishing
factor is a bad-reduction point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _orbit_mod_p(s: StepSet, p0: RationalPoint, prime: int, max_m: int) -> list[bool] | None:
    """Return-per-m flags of the psi o phi orbit over F_prime, or None when a
    denominator or a pole factor vanishes mod prime (bad reduction, or an
    exact pole on the orbit).

    Each coordinate is a projective pair (n : d) mod prime, so the orbit needs
    no inversion.  With h(P; n, d) = P0 d^2 + P1 n d + P2 n^2, phi maps
    (xn : xd) to (h(ct; yn, yd) xd : h(at; yn, yd) xn), and psi acts on y
    alike with a and c.  Every d is a product of pole-tested nonzero factors.
    """
    def h(poly: tuple[int, int, int], n: int, d: int) -> int:
        return (poly[0] * d * d + poly[1] * n * d + poly[2] * n * n) % prime

    kp = kernel_polys(s)
    x0n, x0d = p0.x.numerator % prime, p0.x.denominator % prime
    y0n, y0d = p0.y.numerator % prime, p0.y.denominator % prime
    if x0d == 0 or y0d == 0:
        return None
    xn, xd, yn, yd = x0n, x0d, y0n, y0d
    flags = []
    for _ in range(max_m):
        at = h(kp.a_t, yn, yd)
        if at == 0 or xn == 0:
            return None
        xn, xd = h(kp.c_t, yn, yd) * xd % prime, at * xn % prime
        a = h(kp.a, xn, xd)
        if a == 0 or yn == 0:
            return None
        yn, yd = h(kp.c, xn, xd) * yd % prime, a * yn % prime
        flags.append(
            (xn * x0d - x0n * xd) % prime == 0 and (yn * y0d - y0n * yd) % prime == 0
        )
    return flags


def _orbit_exact_returns_at(kp: KernelPolys, p0: RationalPoint, m: int) -> bool:
    """Whether (psi o phi)^m fixes p0, on the screen's projective recurrence
    over the integers.  Every d stays nonzero when the orbit of p0 screened
    at least m steps modulo _PRIME, so equal cross-products mean equal
    points."""
    def h(poly: tuple[int, int, int], n: int, d: int) -> int:
        return poly[0] * d * d + poly[1] * n * d + poly[2] * n * n

    x0n, x0d = p0.x.numerator, p0.x.denominator
    y0n, y0d = p0.y.numerator, p0.y.denominator
    xn, xd, yn, yd = x0n, x0d, y0n, y0d
    for _ in range(m):
        xn, xd = h(kp.c_t, yn, yd) * xd, h(kp.a_t, yn, yd) * xn
        yn, yd = h(kp.c, xn, xd) * yd, h(kp.a, xn, xd) * yn
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
    # orbit free of poles up to there: at(y), x, a(x) or y = 0 vanishes mod _PRIME too
    for m in candidates:
        if all(_orbit_exact_returns_at(kp, p, m) for p in _PANEL):
            return GroupOrderResult(finite=True, order=2 * m)
    return GroupOrderResult(finite=False, half_order_bound=max_half_order)
