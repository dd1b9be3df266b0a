"""Kernel algebra: boundary polynomials, discriminants, branch points and
the two-valued algebraic functions X and Y.

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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _ratpoly as rp
from .errors import (
    DegenerateQuadratic,
    GenusZeroRegime,
    RootFindingFailure,
    SlitDegenerate,
)
from .steps import StepSet

#: Marker for a branch point at infinity (degree drop of the discriminant).
INF_ROOT = complex(math.inf, 0.0)

#: Width of the band around the traced curve that counts as on the curve.
_BAND = 1e-7


def is_finite_root(r: complex) -> bool:
    return math.isfinite(r.real) and math.isfinite(r.imag)


@dataclass(frozen=True)
class KernelPolys:
    """The six boundary polynomials, each as (x^0, x^1, x^2) coefficients."""

    a: tuple[int, int, int]
    b: tuple[int, int, int]
    c: tuple[int, int, int]
    a_t: tuple[int, int, int]
    b_t: tuple[int, int, int]
    c_t: tuple[int, int, int]


def kernel_polys(s: StepSet) -> KernelPolys:
    def row(j: int) -> tuple[int, int, int]:
        return (s.delta(-1, j), s.delta(0, j), s.delta(1, j))

    def col(i: int) -> tuple[int, int, int]:
        return (s.delta(i, -1), s.delta(i, 0), s.delta(i, 1))

    return KernelPolys(
        a=row(1), b=row(0), c=row(-1), a_t=col(1), b_t=col(0), c_t=col(-1)
    )


def poly_eval(p, v):
    """Evaluate an ascending coefficient sequence at v (Horner)."""
    acc = 0
    for coeff in reversed(p):
        acc = acc * v + coeff
    return acc


def kernel_eval(s: StepSet, x: complex, y: complex, z: float) -> complex:
    """K(x, y, z), computed from the quadratic-in-x form (finite at x=y=0)."""
    if z == 0:
        raise ZeroDivisionError("the kernel is undefined at z = 0")
    kp = kernel_polys(s)
    return (
        poly_eval(kp.a_t, y) * x * x
        + (poly_eval(kp.b_t, y) - y / z) * x
        + poly_eval(kp.c_t, y)
    )


def discriminant_x(s: StepSet, z: float) -> list[float]:
    """Ascending coefficients of d(x, z) = (b(x) - x/z)^2 - 4 a(x) c(x)."""
    if z <= 0:
        raise ValueError("z must be positive")
    kp = kernel_polys(s)
    shifted = [kp.b[0], kp.b[1] - 1.0 / z, kp.b[2]]
    sq = rp.mul(shifted, shifted)
    ac = rp.mul(kp.a, kp.c)
    return [sq[k] - 4.0 * ac[k] for k in range(5)]


def discriminant_y(s: StepSet, z: float) -> list[float]:
    """Ascending coefficients of dt(y, z) = (bt(y) - y/z)^2 - 4 at(y) ct(y)."""
    return discriminant_x(s.mirrored(), z)


def cleared_disc_int(s: StepSet, axis: str = "x") -> list[tuple[int, int, int]]:
    """Integer form of the z^2-cleared discriminant D = (z b(x) - x)^2 - 4 z^2 a c.

    Entry k is (c0, c1, c2) with coefficient of x^k equal to c0 + c1 z + c2 z^2.
    Same roots in x as d(x, z) for z != 0; used for exact resultant work and
    for well-scaled numeric root-finding.
    """
    kp = kernel_polys(s if axis == "x" else s.mirrored())
    lin = [(-(k == 1), kp.b[k]) for k in range(3)]  # x^k coeff of z*b(x) - x as (z^0, z^1)
    sq = [[0, 0, 0] for _ in range(5)]
    for i in range(3):
        for j in range(3):
            p, q = lin[i], lin[j]
            sq[i + j][0] += p[0] * q[0]
            sq[i + j][1] += p[0] * q[1] + p[1] * q[0]
            sq[i + j][2] += p[1] * q[1]
    ac = rp.mul(kp.a, kp.c)
    return [(sq[k][0], sq[k][1], sq[k][2] - 4 * ac[k]) for k in range(5)]


def _cleared_disc_at(coeffs_int, z: float) -> list[float]:
    return [c0 + c1 * z + c2 * z * z for (c0, c1, c2) in coeffs_int]


def disc_is_even(s: StepSet, axis: str = "x") -> bool:
    """True when the discriminant is an even polynomial in the plane variable.

    Then the branch points come in sign-symmetric pairs and |x1| = x2 holds
    with equality, so the strict branch-point ordering cannot apply (the
    walk's support is bipartite in that coordinate; among genuine models
    this is the all-diagonal step set).
    """
    return all(
        trip == (0, 0, 0) for k, trip in enumerate(cleared_disc_int(s, axis)) if k % 2
    )


def _newton_polish(coeffs: list[float], r: complex) -> complex:
    d = [k * coeffs[k] for k in range(1, len(coeffs))]
    p = poly_eval(coeffs, r)
    dp = poly_eval(d, r)
    if dp != 0:
        step = p / dp
        if abs(step) < 0.5 * (1 + abs(r)):
            return r - step
    return r


def _poly_roots(coeffs: list[float]) -> list[complex]:
    """All finite roots (companion-matrix eigenvalues, one Newton polish)."""
    arr = list(coeffs)
    while arr and arr[-1] == 0:
        arr.pop()
    if len(arr) <= 1:
        return []
    raw = np.roots(arr[::-1])
    out = [_newton_polish(arr, complex(r)) for r in raw]
    scale = max(abs(v) for v in arr)
    for r in out:
        if abs(poly_eval(arr, r)) > 1e-6 * scale * max(1.0, abs(r)) ** (len(arr) - 1):
            raise RootFindingFailure(f"polished root {r} has large residual")
    return out


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


def _disc_roots(s: StepSet, axis: str, z: float) -> tuple[list[float], list[complex]]:
    """The cleared discriminant's coefficients at z and its finite roots,
    with imaginary parts at roundoff level set to exactly 0."""
    coeffs = _cleared_disc_at(cleared_disc_int(s, axis), z)
    roots = _poly_roots(coeffs)
    scale = max((abs(r) for r in roots), default=1.0)
    return coeffs, [
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
    if z <= 0:
        raise ValueError("z must be positive")
    in_range = z < 1.0 / len(s)

    xr, okx = _order_eq8(_disc_roots(s, "x", z)[1])
    yr, oky = _order_eq8(_disc_roots(s, "y", z)[1])
    return BranchPoints(
        z=z,
        x_roots=tuple(xr),
        y_roots=tuple(yr),
        ordering_asserted=bool(in_range and okx and oky),
    )


def _quad_roots_stable(A: complex, B: complex, C: complex) -> tuple[complex, complex]:
    """Roots of A t^2 + B t + C with sign-stable sqrt; second root may be
    INF_ROOT when A = 0."""
    if A == 0:
        if B == 0:
            raise DegenerateQuadratic("both leading coefficients vanish")
        return (-C / B, INF_ROOT)
    disc = B * B - 4 * A * C
    sq = cmath.sqrt(disc)
    if (B.conjugate() * sq).real < 0:
        sq = -sq
    q = -0.5 * (B + sq)
    r1 = q / A
    r2 = C / q if q != 0 else -B / A - r1
    return (r1, r2)


def Y_branches(s: StepSet, x: complex, z: float) -> tuple[complex, complex]:
    """Both kernel roots in y at x, with |Y0| <= |Y1|; Y1 = INF_ROOT when
    a(x) = 0.  Branch separation by modulus is valid off the x-plane slits."""
    if z <= 0:
        raise ValueError("z must be positive")
    kp = kernel_polys(s)
    A = complex(poly_eval(kp.a, x))
    B = complex(poly_eval(kp.b, x)) - x / z
    C = complex(poly_eval(kp.c, x))
    scale = 1.0 + abs(x) ** 2
    if abs(A) < 1e-15 * scale:
        A = 0j
    r1, r2 = _quad_roots_stable(A, B, C)
    return (r1, r2) if abs(r1) <= abs(r2) else (r2, r1)


def X_branches(s: StepSet, y: complex, z: float) -> tuple[complex, complex]:
    """Mirror of Y_branches with the roles of x and y exchanged."""
    return Y_branches(s.mirrored(), y, z)


@dataclass(frozen=True)
class CurveTrace:
    """Polyline approximation of the x-plane curve traced by X0 over the slit
    [y1, y2] (upper edge out, lower edge back, per the contour convention).

    points has m+1 entries; points[0] = points[m] is the image of y1.  tau is
    the parameter grid: y(tau) = mid - half*cos(tau), upper edge for
    tau in (0, pi).  ccw records whether the traversal winds positively
    around x1; x1_ref/x3_ref keep the branch points used for the checks.
    """

    steps: StepSet
    z: float
    m: int
    y1: float
    y2: float
    upper_sign: int
    points: np.ndarray
    tau: np.ndarray
    closure_defect: float
    conj_defect: float
    ccw: bool
    x1_ref: complex
    x3_ref: complex


def _slit_endpoints(s: StepSet, z: float) -> tuple[float, float]:
    """Real endpoints [y1, y2] of the inner y-plane slit.

    In the genus-1 regime the discriminant is negative on exactly two
    disjoint cuts of the circle R + {inf} (the inner slit [y1, y2] and the
    outer cut, which may pass through infinity).  One merged cut signals the
    genus transition.
    """
    coeffs, roots = _disc_roots(s, "y", z)
    reals = sorted(r.real for r in roots if r.imag == 0.0)
    if len(reals) < 2:
        raise GenusZeroRegime(
            f"fewer than two real y-plane branch points at z={z}"
        )

    def dt(v: float) -> float:
        return poly_eval(coeffs, v)

    # negativity components on the circle: bounded gaps plus the infinity arc
    neg: list[tuple[float, float] | None] = []
    for lo, hi in zip(reals, reals[1:]):
        if hi - lo > 1e-11 * max(1.0, abs(lo), abs(hi)) and dt(0.5 * (lo + hi)) < 0:
            neg.append((lo, hi))
    span = max(1.0, abs(reals[0]), abs(reals[-1]))
    tail_neg = dt(reals[-1] + span) < 0 or dt(reals[0] - span) < 0
    n_components = len(neg) + (1 if tail_neg else 0)
    if n_components != 2:
        raise GenusZeroRegime(
            f"{n_components} negative-discriminant component(s) at z={z}; "
            "the genus-1 two-cut structure is absent"
        )
    if not neg:
        raise SlitDegenerate(f"no bounded slit at z={z}")
    neg.sort(key=lambda ab: max(abs(ab[0]), abs(ab[1])))
    y1, y2 = neg[0]
    if y2 - y1 < 1e-10 * max(1.0, abs(y1)):
        raise SlitDegenerate(f"slit [{y1}, {y2}] has zero length")
    return y1, y2


def _upper_edge_sign(s: StepSet, z: float, y1: float, y2: float) -> int:
    """Sign sigma so that X0(y + i0+) = (-bt + y/z + i*sigma*sqrt(-dt))/(2 at)
    on the open slit, fixed by continuity from a probe just above the slit."""
    y_mid = 0.5 * (y1 + y2)
    eps = 1e-7 * max(1.0, abs(y2 - y1))
    probe = X_branches(s, complex(y_mid, eps), z)[0]
    plus = _edge_values(s, np.array([y_mid]), z, +1)[0]
    minus = _edge_values(s, np.array([y_mid]), z, -1)[0]
    return +1 if abs(plus - probe) <= abs(minus - probe) else -1


def _edge_values(s: StepSet, ys: np.ndarray, z: float, sigma) -> np.ndarray:
    """X0 on the sigma edge of the slit for real y nodes.

    On the slit the square root is purely imaginary, so the quadratic
    formula has orthogonal (never cancelling) parts and is stable as long
    as at(y) stays away from 0; at(y) = 0 on the slit would mean the curve
    passes through infinity, which the polyline trace cannot represent.
    """
    kp = kernel_polys(s)
    at = np.polyval(kp.a_t[::-1], ys)
    bt = np.polyval(kp.b_t[::-1], ys)
    scale = 1.0 + np.abs(ys) ** 2
    if np.any(np.abs(at) < 1e-12 * scale):
        raise SlitDegenerate(
            "at(y) vanishes on the slit: the curve passes through infinity"
        )
    dcoef = discriminant_y(s, z)
    dt = np.polyval(dcoef[::-1], ys)
    # exact zeros at the slit endpoints reach us as roundoff noise; clamp it
    noise = 1e-12 * sum(abs(c) for c in dcoef) * np.maximum(1.0, np.abs(ys)) ** 4
    dt = np.where(np.abs(dt) < noise, 0.0, np.minimum(dt, 0.0))
    num = (-bt + ys / z) + 1j * (sigma * np.sqrt(-dt))
    return num / (2 * at)


def winding_number(points: np.ndarray, x: complex) -> int:
    """Winding of a closed polyline around x (sum of turning angles)."""
    rel = points - x
    if np.any(np.abs(rel) == 0):
        raise ValueError("point lies on a polyline vertex")
    ratios = rel[1:] / rel[:-1]
    total = float(np.sum(np.angle(ratios)))
    return round(total / (2 * math.pi))


def trace_curve_M(s: StepSet, z: float, m: int = 512) -> CurveTrace:
    """Trace the curve: X0 over the slit [y1(z), y2(z)] along the upper edge
    and back along the lower edge.  Requires the genus-1 regime."""
    if m < 16:
        raise ValueError("m must be >= 16")
    m = m + (m % 2)
    y1, y2 = _slit_endpoints(s, z)
    sigma = _upper_edge_sign(s, z, y1, y2)
    mid, half = 0.5 * (y1 + y2), 0.5 * (y2 - y1)

    tau = np.linspace(0.0, 2 * math.pi, m + 1)
    ys_up = mid - half * np.cos(tau[: m // 2 + 1])  # y1 -> y2
    upper = _edge_values(s, ys_up, z, sigma)
    lower = _edge_values(s, ys_up[-2::-1], z, -sigma)  # y2 -> y1, lower edge
    points = np.concatenate([upper, lower])

    closure = float(abs(points[0] - points[-1]))
    conj_defect = float(np.max(np.abs(points - np.conj(points[::-1]))))

    bp = branch_points(s, z)
    x1, x3 = bp.x_roots[0], bp.x_roots[2]
    try:
        w1 = winding_number(points, x1)
    except ValueError:
        w1 = 0
    return CurveTrace(
        steps=s,
        z=z,
        m=m,
        y1=y1,
        y2=y2,
        upper_sign=sigma,
        points=points,
        tau=tau,
        closure_defect=closure,
        conj_defect=conj_defect,
        ccw=(w1 == 1),
        x1_ref=x1,
        x3_ref=x3,
    )


def contour_nodes(
    s: StepSet, z: float, trace: CurveTrace, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint-rule nodes for integrals over the traced curve.

    Returns (tau, ys, t, dt_dtau) on the staggered grid tau_k = 2 pi (k+1/2)/m,
    which never touches the fold points tau = 0, pi where dK/dx vanishes.
    t(tau) = X0(y(tau)) on the upper edge for tau < pi and the lower edge
    after, so a full period traverses the curve in the slit-contour
    orientation; dt/dtau comes from implicit differentiation of K(t, y) = 0.
    ys are the slit ordinates: K(t, ys, z) = 0 exactly, i.e. ys = Y0 on the
    curve, so integrand densities need no branch selection.
    """
    if m % 2:
        raise ValueError("m must be even")
    mid, half = 0.5 * (trace.y1 + trace.y2), 0.5 * (trace.y2 - trace.y1)
    tau = (np.arange(m) + 0.5) * (2 * math.pi / m)
    ys = mid - half * np.cos(tau)
    sig = np.where(tau < math.pi, trace.upper_sign, -trace.upper_sign)
    t = _edge_values(s, ys, z, sig)

    kp = kernel_polys(s)
    at = np.polyval(kp.a_t[::-1], ys)
    bt = np.polyval(kp.b_t[::-1], ys)
    d_at = np.polyval([2 * kp.a_t[2], kp.a_t[1]], ys)
    d_bt = np.polyval([2 * kp.b_t[2], kp.b_t[1]], ys)
    d_ct = np.polyval([2 * kp.c_t[2], kp.c_t[1]], ys)
    k_x = 2 * at * t + (bt - ys / z)
    k_y = d_at * t * t + (d_bt - 1.0 / z) * t + d_ct
    # k_x can cancel to 0 on a very narrow slit; the non-finite sums that
    # follow end in QuadratureNotConverged, not in a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        dt_dy = -k_y / k_x
    dt_dtau = dt_dy * (half * np.sin(tau))
    return tau, ys, t, dt_dtau


def _slit_roots(s: StepSet, x: complex, z: float, trace: CurveTrace) -> list[float]:
    """Kernel y-roots at x that lie on the slit [y1, y2] up to _BAND, clamped
    onto it: the ordinates at which x can be a point of the traced curve."""
    return [
        min(max(yr.real, trace.y1), trace.y2)
        for yr in Y_branches(s, x, z)
        if is_finite_root(yr)
        and abs(yr.imag) <= _BAND
        and trace.y1 - _BAND <= yr.real <= trace.y2 + _BAND
    ]


def point_in_G_M(s: StepSet, x: complex, z: float, trace: CurveTrace | None = None) -> str:
    """Classify x against the domain bounded by the curve: "inside",
    "outside" or "boundary" (band of width 1e-7 around the curve).

    The boundary test is analytic rather than polyline-based: x lies on the
    curve iff a kernel y-root at x is real, inside [y1, y2], and the slit
    edge value at that y reproduces x.
    """
    if trace is None:
        trace = trace_curve_M(s, z, m=512)
    for yv in _slit_roots(s, x, z, trace):
        up = _edge_values(s, np.array([yv]), z, trace.upper_sign)[0]
        if min(abs(up - x), abs(up.conjugate() - x)) <= _BAND:
            return "boundary"
    w = winding_number(trace.points, x)
    return "inside" if w != 0 else "outside"
