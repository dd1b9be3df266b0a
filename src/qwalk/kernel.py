"""Kernel algebra: discriminants, branch points and the two-valued
algebraic functions X and Y, built on the boundary polynomials of
steps.kernel_polys.

The kernel of a step set is the bivariate quadratic

    K(x, y, z) = xy (sum delta_{ij} x^i y^j - 1/z)
               = at(y) x^2 + (bt(y) - y/z) x + ct(y)
               = a(x) y^2 + (b(x) - x/z) y + c(x),

where a(x) = sum_i delta_{i,1} x^{i+1} and companions.  For z in
(0, 1/|S|) its x-discriminant has four roots (at most one infinite)
ordered |x1| < x2 < 1 < x3 < |x4| <= inf, and likewise in y.  The roots
Y0, Y1 of K(x, ., z) = 0 are separated by modulus, |Y0| <= |Y1|, away from
the slits where they are conjugate; on a slit the branch is fixed by the
limit from the upper edge.

Branch points need no arrays: numpy is imported only inside the functions
that trace the curve (_edge_values, _grid_table, _nodes), so branch_points
and disc_roots start without it, and point_in_G_M reads it only through
curve_preimage's one edge value.

The contour nodes sit at the fixed angles tau_k = 2 pi (k+1/2)/m, which
depend on m alone.  For each tuple of grids built in one pass (FIRST_GRIDS,
or one m) the angles, their cosines and sines and the layout of both slit
edges are one read-only table, _grid_table's, which a cache of eight keeps
for every trace; a trace then computes only what depends on its model and z.
Each CurveTrace builds the FIRST_GRIDS nodes once, as its field nodes; any
other m is built when asked and not kept.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field

from . import _ratpoly as rp
from .errors import (
    DegenerateQuadratic,
    GenusZeroRegime,
    OutOfRange,
    RootFindingFailure,
    SlitDegenerate,
)
from .steps import StepSet, kernel_polys, poly_eval

#: Marker for a branch point at infinity (degree drop of the discriminant).
INF_ROOT = complex(math.inf, 0.0)

#: Width of the band around the traced curve that counts as on the curve.
_BAND = 1e-7

#: Largest node count m that trace_curve_M accepts (arrays of m points);
#: the contour sums stop at 2^14 nodes.
_MAX_TRACE_POINTS = 2**16


def kernel_eval(s: StepSet, x: complex, y: complex, z: float) -> complex:
    """K(x, y, z), computed from the quadratic-in-x form (finite at x=y=0)."""
    if z == 0 or not math.isfinite(z):
        raise OutOfRange(f"the kernel is undefined at z = {z}")
    kp = kernel_polys(s)
    return (
        poly_eval(kp.a_t, y) * x * x
        + (poly_eval(kp.b_t, y) - y / z) * x
        + poly_eval(kp.c_t, y)
    )


@functools.cache  # at most 255 step sets, each called for many z
def cleared_disc_int(s: StepSet) -> tuple[tuple[int, int, int], ...]:
    """Integer form of the z^2-cleared x-discriminant
    D = (z b(x) - x)^2 - 4 z^2 a c = x^2 - 2 z x b(x) + z^2 (b^2 - 4 a c).

    Entry k is (c0, c1, c2) with coefficient of x^k equal to c0 + c1 z + c2 z^2.
    Same roots in x as d(x, z) = (b(x) - x/z)^2 - 4 a(x) c(x) for z != 0;
    used for exact resultant and sign work and for well-scaled numeric
    root-finding.  The y-plane form is cleared_disc_int(s.mirrored()).
    """
    kp = kernel_polys(s)
    per_z = ([0, 0, 1], rp.mul([0, -2], kp.b),
             rp.sub(rp.mul(kp.b, kp.b), rp.mul([4], rp.mul(kp.a, kp.c))))
    return tuple(tuple(p[k] if k < len(p) else 0 for p in per_z) for k in range(5))


def _cleared_disc_at(coeffs_int, z: float) -> list[float]:
    return [c0 + c1 * z + c2 * z * z for (c0, c1, c2) in coeffs_int]


def cleared_disc_dyadic(coeffs_int, num: int, k: int) -> rp.Poly:
    """4^k D(., num / 2^k) in Z[x], from the triples of cleared_disc_int."""
    return rp.norm([(c0 << 2 * k) + (c1 * num << k) + c2 * num * num
                    for (c0, c1, c2) in coeffs_int])


def _dyadic(v: float) -> tuple[int, int]:
    """(num, k) with v = num / 2^k exactly, as for every finite float."""
    num, den = v.as_integer_ratio()
    return num, den.bit_length() - 1


def _newton_polish(coeffs: list[float], dcoeffs: list[float], r: complex) -> complex:
    """One Newton step from r on coeffs, whose derivative is dcoeffs, kept
    only if it is short and does not raise |p|: at a double root found to
    roundoff, p and p' are both noise and their ratio is no step at all."""
    p = poly_eval(coeffs, r)
    dp = poly_eval(dcoeffs, r)
    if dp != 0:
        step = p / dp
        if abs(step) < 0.5 * (1 + abs(r)) and abs(poly_eval(coeffs, r - step)) <= abs(p):
            return r - step
    return r


@dataclass(frozen=True)
class BranchPoints:
    """The four x- and y-plane branch points at a given z.

    Entries use INF_ROOT for a root at infinity (degree drop).  When
    ordering_asserted is set, the tuples satisfy |x1| < x2 < 1 < x3 < |x4|
    (and the mirror statement in y); outside z in (0, 1/|S|) the roots are
    returned sorted by modulus with the flag cleared.
    """

    z: float
    x_roots: tuple[complex, complex, complex, complex]
    y_roots: tuple[complex, complex, complex, complex]
    ordering_asserted: bool


def disc_roots(s: StepSet, z: float) -> tuple[tuple[tuple[int, int, int], ...], list[complex]]:
    """The cleared x-discriminant's triples (cleared_disc_int) and its finite
    roots at z (_ratpoly.roots, one Newton polish), with imaginary parts at
    roundoff level set to exactly 0.  Where the discriminant vanishes
    identically (every x a branch point, as for {(0,-1), (0,1)} at z = 1/2)
    it raises OutOfRange, and likewise where z^2 over- or underflows a normal
    float, or a coefficient or a root is not finite, since such roots are not
    those of D.  Every root r of the degree-d polynomial p satisfies
    |p(r)| <= 1e-6 max|a_k| max(1, |r|)^d, tested for |r| > 1 as
    |r^-d p(r)| = |rev p(1/r)| so that no power of r overflows; a root that
    fails it raises RootFindingFailure."""
    if not sys.float_info.min <= z * z < math.inf:
        raise OutOfRange(f"z^2 is not a normal float at z={z}")
    trips = cleared_disc_int(s)
    coeffs = _cleared_disc_at(trips, z)
    if not all(map(math.isfinite, coeffs)):
        raise OutOfRange(f"the discriminant's coefficients overflow at z={z}")
    if not any(coeffs):
        raise OutOfRange(f"the discriminant vanishes identically at z={z}")
    try:
        dcoeffs = rp.deriv(coeffs)
        roots = [_newton_polish(coeffs, dcoeffs, r) for r in rp.roots(coeffs)]
    except OverflowError:  # a power in the closed forms
        roots = [INF_ROOT]  # refused below, as a root that is not finite
    deg = max(k for k, c in enumerate(coeffs) if c)
    top = max(map(abs, coeffs))
    for r in roots:
        if not cmath.isfinite(r):
            raise OutOfRange(f"the discriminant's roots overflow at z={z}")
        residual = poly_eval(coeffs[deg::-1], 1 / r) if abs(r) > 1 else poly_eval(coeffs, r)
        if not abs(residual) <= 1e-6 * top:  # written so that a nan residual fails too
            raise RootFindingFailure(f"polished root {r} has large residual")
    scale = max((abs(r) for r in roots), default=1.0)
    return trips, [
        complex(r.real, 0.0) if abs(r.imag) <= 1e-9 * max(1.0, abs(r), scale) else r
        for r in roots
    ]


def _order_eq8(roots: list[complex]) -> tuple[list[complex], bool]:
    """Arrange four roots (padded with INF_ROOT) per the branch-point
    ordering |x1| < x2 < 1 < x3 < |x4|; on failure fall back to sorting by
    modulus with the flag cleared."""
    padded = roots + [INF_ROOT] * (4 - len(roots))
    fallback = (sorted(padded, key=abs), False)
    reals = sorted(r.real for r in roots if r.imag == 0.0)
    inside = [v for v in reals if 0 < v < 1]
    outside = [v for v in reals if v > 1]
    if not inside or not outside:
        return fallback
    x2, x3 = inside[-1], outside[0]
    rest = list(padded)
    rest.remove(complex(x2))
    rest.remove(complex(x3))
    rest.sort(key=abs)
    x1, x4 = rest
    if abs(x1) < x2 and x3 < abs(x4):
        return [x1, complex(x2), complex(x3), x4], True
    return fallback


def branch_points(s: StepSet, z: float) -> BranchPoints:
    """Roots of both discriminants at z, ordered per the branch-point pattern
    when z is inside (0, 1/|S|) and the pattern verifies."""
    if not 0 < z < math.inf:
        raise OutOfRange("z must be positive and finite")
    in_range = z < 1.0 / len(s)

    xr, okx = _order_eq8(disc_roots(s, z)[1])
    yr, oky = _order_eq8(disc_roots(s.mirrored(), z)[1])
    return BranchPoints(
        z=z,
        x_roots=tuple(xr),
        y_roots=tuple(yr),
        ordering_asserted=bool(in_range and okx and oky),
    )


def Y_branches(s: StepSet, x: complex, z: float) -> tuple[complex, complex]:
    """Both kernel roots in y at x, with |Y0| <= |Y1|; Y1 = INF_ROOT when
    a(x) = 0.  Branch separation by modulus is valid off the x-plane slits."""
    if not 0 < z < math.inf:
        raise OutOfRange("z must be positive and finite")
    kp = kernel_polys(s)
    A = complex(poly_eval(kp.a, x))
    B = complex(poly_eval(kp.b, x)) - x / z
    C = complex(poly_eval(kp.c, x))
    if abs(A) < 1e-15 * (1.0 + abs(x) ** 2):
        if B == 0:
            raise DegenerateQuadratic("both leading coefficients vanish")
        r1, r2 = -C / B, INF_ROOT
    else:
        r1, r2 = rp.quadratic_roots(A, B, C)  # sign-stable square root
    return (r1, r2) if abs(r1) <= abs(r2) else (r2, r1)


def X_branches(s: StepSet, y: complex, z: float) -> tuple[complex, complex]:
    """Mirror of Y_branches with the roles of x and y exchanged."""
    return Y_branches(s.mirrored(), y, z)


@dataclass(frozen=True)
class CurveTrace:
    """The x-plane curve of the step set `steps` at `z`, the one handle on
    both: X0 traced over the slit [y1, y2] (upper edge out, lower edge back,
    per the contour convention).  X0 is holomorphic off the slit, so the
    traversal is counter-clockwise.

    edge_disc is _edge_disc(steps, z), which every edge value on the curve
    reads; nodes is then _nodes(trace, FIRST_GRIDS), the read-only (tau, ys,
    t, dt_dtau) of the 256 and 512 grids joined, which the gluing check and
    the first comparison of every contour sum read.  Both are built with the
    trace, whatever its m; the tau of nodes is the grid table's array,
    shared by every trace.

    points is t of contour_nodes at the trace's even m, read-only: points[k]
    lies at tau = 2 pi (k+1/2)/m, curve_preimage's parameter, the first half
    on the upper edge (_edge_values), the second its exact mirror; none at a
    fold, tau = 0 or pi, where the edges meet.  For m outside FIRST_GRIDS
    each read builds them afresh.  The points serve the printed trace;
    point_in_G_M does not read them.
    """

    steps: StepSet
    z: float
    y1: float
    y2: float
    m: int = 512
    edge_disc: tuple[list[float], float] = field(init=False, repr=False, compare=False)
    nodes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_disc", _edge_disc(self.steps, self.z))
        object.__setattr__(self, "nodes", _nodes(self, FIRST_GRIDS))

    @property
    def points(self) -> np.ndarray:
        return contour_nodes(self, m=self.m)[2]


def curve_through_infinity(s: StepSet) -> bool:
    """Whether the x-plane curve passes through infinity: c is a nonzero
    constant, so y = 0 ends the slit and at(0) = bt(0) = 0 there."""
    c0, c1, c2 = kernel_polys(s).c
    return c0 != 0 and c1 == c2 == 0


def curve_through_origin(s: StepSet) -> bool:
    """Whether the x-plane curve passes through x = 0: c(x) = x^2, so y = 0
    ends the slit and X0(0) = 0 there."""
    c0, c1, c2 = kernel_polys(s).c
    return c0 == c1 == 0 and c2 != 0


def _slit_endpoints(s: StepSet, z: float) -> tuple[float, float]:
    """Real endpoints [y1, y2] of the inner y-plane slit.

    In the genus-1 regime the y-discriminant D has deg D = 3 or 4 simple
    real roots and is negative on exactly two arcs of the circle R + {inf}:
    the inner slit [y1, y2] and the outer cut, which may pass through
    infinity.  D's signs at +-inf and between consecutive float roots, all
    dyadic points, are exact.  Genus 1 needs deg D float real roots and a
    sign change across each, so D has one simple root beside each of them.
    """
    trips, roots = disc_roots(s.mirrored(), z)
    reals = sorted(r.real for r in roots if r.imag == 0.0)
    if len(reals) < 2:
        raise GenusZeroRegime(f"fewer than two real y-plane branch points at z={z}")
    d = cleared_disc_dyadic(trips, *_dyadic(z))
    lead = 1 if d[-1] > 0 else -1
    mids = [rp.sign_at(d, *_dyadic(0.5 * lo + 0.5 * hi)) for lo, hi in zip(reals, reals[1:])]
    signs = [lead * (-1) ** rp.degree(d), *mids, lead]
    neg = [(lo, hi) for lo, hi, sign in zip(reals, reals[1:], mids) if sign < 0]
    if not 3 <= len(reals) == rp.degree(d) or any(a * b >= 0 for a, b in zip(signs, signs[1:])):
        n_components = len(neg) + (signs[0] < 0 or signs[-1] < 0)
        raise GenusZeroRegime(
            f"{n_components} negative-discriminant component(s) at z={z}; "
            "the genus-1 two-cut structure is absent"
        )
    y1, y2 = min(neg, key=lambda ab: max(abs(ab[0]), abs(ab[1])))
    if y2 - y1 < 1e-10 * max(1.0, abs(y1)):
        raise SlitDegenerate(f"slit [{y1}, {y2}] is narrower than the trace resolves")
    if curve_through_infinity(s):
        raise SlitDegenerate("at(y) vanishes on the slit: the curve passes through infinity")
    return y1, y2


#: Sign sigma of the edge values (-bt + y/z + i*sigma*sqrt(-dt))/(2 at).
#: sigma = -1 gave X0 on the upper edge, X0(y + i0+), on every trace measured.
_UPPER_SIGN = -1


def _edge_disc(s: StepSet, z: float) -> tuple[list[float], float]:
    """The coefficients of dt(y) = (bt(y) - y/z)^2 - 4 at(y) ct(y), from
    its unfactored coefficients, and 1e-12 times the sum of their moduli,
    the scale of _edge_values' noise clamp; built once per trace."""
    kp = kernel_polys(s)
    shifted = [kp.b_t[0], kp.b_t[1] - 1.0 / z, kp.b_t[2]]
    sq, ac = rp.mul(shifted, shifted), rp.mul(kp.a_t, kp.c_t)
    dcoef = [sq[k] - 4.0 * ac[k] for k in range(5)]
    return dcoef, 1e-12 * sum(abs(c) for c in dcoef)


def _edge_values(s: StepSet, ys, z: float, disc: tuple[list[float], float]) -> tuple:
    """X0 on the upper edge of the slit at real ordinates ys, a float or an
    array (the lower edge is its conjugate), with dK/dx = 2 at X0 + bt - y/z
    there, which is the formula's root term i*sigma*sqrt(-dt); disc is
    _edge_disc(s, z).

    On the slit the square root is purely imaginary, so the quadratic
    formula has orthogonal (never cancelling) parts and is stable as long
    as at(y) stays away from 0, as it does off a curve through infinity.
    """
    import numpy as np

    kp = kernel_polys(s)
    at = poly_eval(kp.a_t, ys)
    bt = poly_eval(kp.b_t, ys)
    dcoef, scale = disc
    dt = poly_eval(dcoef, ys)
    # exact zeros at the slit endpoints reach us as roundoff noise; clamp it
    noise = scale * np.maximum(1.0, np.abs(ys)) ** 4
    dt = np.where(np.abs(dt) < noise, 0.0, np.minimum(dt, 0.0))
    k_x = 1j * (_UPPER_SIGN * np.sqrt(-dt))
    return ((-bt + ys / z) + k_x) / (2 * at), k_x


#: Node counts of the contour sums' first comparison (bvp._contour_integral):
#: trace_curve_M's default m and the level below it, built in one pass.
FIRST_GRIDS = (256, 512)


@functools.lru_cache(maxsize=8)  # FIRST_GRIDS, the levels 1024 to 16384 and one m more
def _grid_table(grids: tuple[int, ...]) -> tuple:
    """The read-only part of a node build that depends on its grids alone:
    (tau, cos_up, sin_up, perm).  tau joins each grid's tau_k; cos_up and
    sin_up are taken at the upper-edge angles, each grid's first half, in
    grid order; concatenate([upper, lower])[perm] lays out each grid's
    upper edge, then its lower edge reversed."""
    import numpy as np

    taus = [(np.arange(m) + 0.5) * (2 * math.pi / m) for m in grids]
    up = np.concatenate([tau[: m // 2] for tau, m in zip(taus, grids)])
    pieces, lo = [], 0
    for m in grids:
        hi = lo + m // 2
        pieces += [np.arange(lo, hi), np.arange(len(up) + hi - 1, len(up) + lo - 1, -1)]
        lo = hi
    table = (np.concatenate(taus), np.cos(up), np.sin(up), np.concatenate(pieces))
    for arr in table:
        arr.flags.writeable = False
    return table


def _nodes(trace: CurveTrace, grids: tuple[int, ...]) -> tuple:
    """The read-only (tau, ys, t, dt_dtau) of contour_nodes over the trace's
    slit for each even m of grids, joined in that order: one pass over the
    upper-edge ordinates of all of them, each grid's lower half mirrored;
    tau is the grid table's own array."""
    import numpy as np

    tau, cos_up, sin_up, perm = _grid_table(grids)
    s, z = trace.steps, trace.z
    mid, half = 0.5 * (trace.y1 + trace.y2), 0.5 * (trace.y2 - trace.y1)
    ys = mid - half * cos_up
    t, k_x = _edge_values(s, ys, z, trace.edge_disc)

    kp = kernel_polys(s)
    d_at, d_bt, d_ct = (p[1] + 2 * p[2] * ys for p in (kp.a_t, kp.b_t, kp.c_t))
    k_y = d_at * t * t + (d_bt - 1.0 / z) * t + d_ct
    with np.errstate(divide="ignore", invalid="ignore"):  # k_x = 0 on a collapsed trace
        dt_dtau = -k_y / k_x * (half * sin_up)

    joined = (tau,) + tuple(np.concatenate([upper, lower])[perm] for upper, lower in (
        (ys, ys), (t, np.conj(t)), (dt_dtau, -np.conj(dt_dtau))))
    for arr in joined[1:]:
        arr.flags.writeable = False
    return joined


def trace_curve_M(s: StepSet, z: float, m: int = 512) -> CurveTrace:
    """Trace the curve: X0 over the slit [y1(z), y2(z)] along the upper edge
    and back along the lower edge.  The trace keeps the nodes of both
    FIRST_GRIDS for the integrals, built in one pass, and shows the curve at
    its m points (m rounded up to even).  Requires the genus-1 regime.
    """
    if not 0 < z < math.inf:
        raise OutOfRange("z must be positive and finite")
    if m < 16:
        raise OutOfRange("m must be >= 16")
    if m > _MAX_TRACE_POINTS:
        raise OutOfRange(f"m must be <= {_MAX_TRACE_POINTS}")
    y1, y2 = _slit_endpoints(s, z)
    return CurveTrace(steps=s, z=z, y1=y1, y2=y2, m=m + (m % 2))


def contour_nodes(
    trace: CurveTrace, *, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint-rule nodes for integrals over the traced curve.

    Returns (tau, ys, t, dt_dtau) on the staggered grid tau_k = 2 pi (k+1/2)/m,
    which never touches the fold points tau = 0, pi where dK/dx vanishes.
    t(tau) = X0(y(tau)) on the upper edge for tau < pi, where the nodes are
    evaluated, and their mirror on the lower edge after, so a full period
    traverses the curve in the slit-contour orientation; dt/dtau comes from
    implicit differentiation of K(t, y) = 0 (its mirror is -conj).
    ys are the slit ordinates: K(t, ys, z) = 0 exactly, i.e. ys = Y0 on the
    curve, so integrand densities need no branch selection.  For m in
    FIRST_GRIDS the arrays are read-only views of trace.nodes; any other m
    is a fresh read-only build, which the trace does not keep.
    """
    if m <= 0 or m % 2:
        raise OutOfRange(f"m must be even and positive, got {m}")
    if m > _MAX_TRACE_POINTS:
        raise OutOfRange(f"m must be <= {_MAX_TRACE_POINTS}")
    if m not in FIRST_GRIDS:
        return _nodes(trace, (m,))
    start = sum(FIRST_GRIDS[:FIRST_GRIDS.index(m)])
    return tuple(arr[start:start + m] for arr in trace.nodes)


def curve_preimage(trace: CurveTrace, x: complex) -> tuple[float, float] | None:
    """Where x lies on the curve's traversal: (y, tau), or None off it.

    y is the slit ordinate, clamped onto [y1, y2], at y = mid - half*cos(tau);
    tau in [0, 2 pi) is x's own parameter: acos of that cosine when x is the
    upper-edge value X0(y + i0) within _BAND, 2 pi minus it for the lower
    edge's conjugate value.  The test is analytic: x is on the curve iff a
    kernel y-root at x is real, inside [y1, y2], and the slit edge value at
    that y reproduces x.
    """
    s, z = trace.steps, trace.z
    try:
        y_roots = Y_branches(s, x, z)
    except DegenerateQuadratic:  # K(x, .) has no finite root, so no slit ordinate
        return None
    for yr in y_roots:
        if not (cmath.isfinite(yr) and abs(yr.imag) <= _BAND
                and trace.y1 - _BAND <= yr.real <= trace.y2 + _BAND):
            continue
        yv = min(max(yr.real, trace.y1), trace.y2)
        up = complex(_edge_values(s, yv, z, trace.edge_disc)[0])
        if min(abs(up - x), abs(up.conjugate() - x)) > _BAND:
            continue
        cosv = (0.5 * (trace.y1 + trace.y2) - yv) / (0.5 * (trace.y2 - trace.y1))
        tau = math.acos(min(1.0, max(-1.0, cosv)))
        return yv, (tau if abs(up - x) <= abs(up.conjugate() - x) else 2 * math.pi - tau)
    return None


def point_in_G_M(trace: CurveTrace, x: complex) -> str:
    """Classify x against the domain bounded by the curve: "boundary" when
    curve_preimage places it on the curve, else "inside" iff the kernel's
    branches lead back to it, |X0(Y0(x)) - x| <= _BAND (outside, x is
    X1(Y0(x)) instead); this test reads neither the nodes nor numpy."""
    if curve_preimage(trace, x) is not None:
        return "boundary"
    return off_curve_position(trace, x)


def off_curve_position(trace: CurveTrace, x: complex) -> str:
    """point_in_G_M's branch test, "inside" or "outside", for an x that
    curve_preimage has found off the curve."""
    s, z = trace.steps, trace.z
    try:
        y0 = Y_branches(s, x, z)[0]
    except DegenerateQuadratic:
        # a(x) = b(x) - x/z = 0: Y0(x) = inf, and X0(inf) is the smaller root of a
        back = min(rp.roots(kernel_polys(s).a), key=abs)
    else:
        back = X_branches(s, y0, z)[0]
    return "inside" if abs(back - x) <= _BAND else "outside"
