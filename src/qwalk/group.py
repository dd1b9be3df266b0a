"""The group of the walk: the birational involutions pairing kernel roots.

The two generators act on points of C^2 by

    psi(x, y) = (x, c(x) / (a(x) y)),      phi(x, y) = (ct(y) / (at(y) x), y)

where a, c (and the tilde pair) are the boundary polynomials of the kernel;
both leave sum(delta_{ij} x^i y^j) invariant and square to the identity.
The group they generate is dihedral; its order is 2m where m is the order of
psi o phi.  Order decisions are certified with exact rational arithmetic on a
small panel of random points: for distinct bounded-degree birational maps a
generic exact panel cannot collide, so "all panel points fixed" is decisive.

Orbits of infinite-order compositions blow up in height (digit count grows
geometrically), so candidate orders are first screened by running the orbit
in a few prime fields; non-return modulo a prime of good reduction already
proves non-return over Q, and only screened candidates are re-run exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateGenerators, PoleEncountered, TestPointExhaustion
from .kernel import KernelPolys, kernel_polys, poly_eval
from .steps import StepSet

_SCREEN_PRIMES = (2**61 - 1, 10**18 + 9, 10**18 + 3)


@dataclass(frozen=True)
class RationalPoint:
    x: Fraction
    y: Fraction


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


def _random_point(rng: random.Random) -> RationalPoint:
    def frac() -> Fraction:
        return Fraction(rng.randint(1, 100), rng.randint(1, 100))

    return RationalPoint(frac(), frac())


def _orbit_mod_p(s: StepSet, p0: RationalPoint, prime: int, max_m: int) -> list[bool] | None:
    """Return-per-m flags of the psi o phi orbit over F_prime, or None on bad
    reduction (a denominator vanished mod prime while being nonzero over Q)."""
    def red(fr: Fraction) -> int:
        den = fr.denominator % prime
        if den == 0:
            raise ZeroDivisionError
        return fr.numerator % prime * pow(den, prime - 2, prime) % prime

    kp = kernel_polys(s)
    try:
        x0, y0 = red(p0.x), red(p0.y)
        x, y = x0, y0
        flags = []
        for _ in range(max_m):
            at, ct = poly_eval(kp.a_t, y) % prime, poly_eval(kp.c_t, y) % prime
            if at == 0 or x == 0:
                return None
            x = ct * pow(at * x % prime, prime - 2, prime) % prime
            a, c = poly_eval(kp.a, x) % prime, poly_eval(kp.c, x) % prime
            if a == 0 or y == 0:
                return None
            y = c * pow(a * y % prime, prime - 2, prime) % prime
            flags.append(x == x0 and y == y0)
        return flags
    except ZeroDivisionError:
        return None


def _orbit_exact_returns_at(s: StepSet, p0: RationalPoint, m: int) -> bool:
    p = p0
    for _ in range(m):
        p = psi(s, phi(s, p))
    return p == p0


def group_order(s: StepSet, max_half_order: int = 16, seed: int = 0) -> GroupOrderResult:
    """Decide whether (psi o phi) has order m <= max_half_order.

    Returns Finite with group order 2m for the smallest certified m, else an
    ExceedsBound result (honestly "not finite up to the bound", never
    "infinite").  Certification is exact (Fraction arithmetic, no rounding)
    on a panel of 5 random small-height points; prime-field screening only
    prunes candidate values of m.  A pole along a point's orbit triggers
    resampling of that point, up to 20 retries.
    """
    _check_defined(kernel_polys(s))
    if max_half_order < 2:
        raise ValueError("max_half_order must be >= 2 (psi and phi are never equal)")
    rng = random.Random(seed)

    panel: list[RationalPoint] = []
    point_flags: list[list[bool]] = []  # per point: returns-at-m flags, m=1..bound
    attempts = 0
    while len(panel) < 5:
        attempts += 1
        if attempts > 20 * 5:
            raise TestPointExhaustion("could not sample a panel with pole-free orbits")
        p = _random_point(rng)
        flags: list[bool] | None = None
        usable = 0
        for prime in _SCREEN_PRIMES:
            f = _orbit_mod_p(s, p, prime, max_half_order)
            if f is None:
                continue  # bad reduction (or exact pole) modulo this prime
            usable += 1
            flags = f if flags is None else [a and b for a, b in zip(flags, f)]
        if usable == 0:
            continue  # every prime failed: the exact orbit hits a pole; resample
        panel.append(p)
        point_flags.append(flags)

    for m in range(2, max_half_order + 1):
        if not all(flags[m - 1] for flags in point_flags):
            continue
        try:
            if all(_orbit_exact_returns_at(s, p, m) for p in panel):
                return GroupOrderResult(finite=True, order=2 * m)
        except PoleEncountered:
            continue
    return GroupOrderResult(finite=False, half_order_bound=max_half_order)
