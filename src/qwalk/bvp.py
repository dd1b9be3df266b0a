"""Integral representations of the counting generating functions.

Two layers:

* explicit closed-form quadratures for the simple walk, where the boundary
  condition lives on the unit circle:

      Q(0,0,z) = (1/pi)  int_{-1}^{1} g(u,z) sqrt(1-u^2) du,
      Q(1,0,z) = (1/2pi) int_{-1}^{1} g(u,z) sqrt((1+u)/(1-u)) du,

  with g(u,z) = (1 - 2uz - sqrt((1-2uz)^2 - 4z^2))/z^2, evaluated in the
  rationalised form 4/(1 - 2uz + sqrt(...)) that is stable down to z = 0.
  Both weights are Gauss-Chebyshev weights (second kind, and first kind
  times 1+u), so g, analytic on [-1, 1] for |z| < 1/4, is integrated by
  those rules with the node count doubled until two sums agree;

* the conformal-gluing route valid for any model whose curve the supplied
  CGF glues: for x inside the curve-bounded domain,

      c(x) Q(x,0,z) - c(0) Q(0,0,z)
          = (1/(2 pi i z)) oint t Y0(t,z) w'(t,z) / (w(t,z) - w(x,z)) dt,

  specialised to Q(0,0,z) by a pole-cancellation limit at x -> 0 (when
  c(0) = 0), by evaluation at a root of c on the unit circle (when c(0) = 1
  and c is not constant), or through both planes' integrals and the kernel
  relation (c constant).  Boundary points are handled as inside-limits:
  principal value plus half-residue (Sokhotski-Plemelj) terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CaseUndetermined,
    CGFUnavailable,
    OutOfRange,
    PointOutsideDomain,
    QuadratureNotConverged,
    RemovableSingularity,
    RootOutsideDomain,
)
from .kernel import (
    CurveTrace,
    X_branches,
    Y_branches,
    _edge_values,
    _slit_roots,
    contour_nodes,
    kernel_polys,
    point_in_G_M,
    poly_eval,
    trace_curve_M,
)
from .steps import StepSet, drift

_MAX_NODES = 2**14
_GLUING_TOL = 1e-9


@dataclass(frozen=True)
class GFValue:
    """One generating-function evaluation with provenance and error data."""

    value: float
    z: float
    method: str
    quadrature_error_estimate: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CGF:
    """A conformal gluing function for a curve-bounded domain.

    w maps the domain conformally onto the plane cut along a segment, takes
    equal values at conjugate boundary points, and has its unique pole at
    t = 0 with residue `pole_residue` and constant term `pole_const` in the
    Laurent expansion w(t) = pole_residue/t + pole_const + O(t).  Both
    evaluators must accept numpy arrays of points elementwise.
    """

    w: Callable[[complex, float], complex]
    dw: Callable[[complex, float], complex]
    pole_residue: float
    pole_const: float
    label: str


def circle_cgf() -> CGF:
    """The gluing map t + 1/t of the unit disc (cut image [-2, 2])."""
    return CGF(
        w=lambda t, z: t + 1.0 / t,
        dw=lambda t, z: 1.0 - 1.0 / (t * t),
        pole_residue=1.0,
        pole_const=0.0,
        label="builtin-circle",
    )


def gluing_defect(cgf: CGF, trace: CurveTrace, z: float) -> float:
    """max |w(t) - w(conj t)| over the traced curve (inf when w blows up on
    it, e.g. a curve through the CGF's pole)."""
    pts = trace.points[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        defect = np.abs(cgf.w(pts, z) - cgf.w(np.conj(pts), z))
    if not np.all(np.isfinite(defect)):
        return math.inf
    return float(np.max(defect))


def _require_gluing(cgf: CGF, trace: CurveTrace, z: float) -> None:
    defect = gluing_defect(cgf, trace, z)
    if defect > _GLUING_TOL:
        raise CGFUnavailable(
            f"CGF {cgf.label!r} does not glue this curve (defect {defect:.2e}); "
            "supply a CGF for the model's own domain"
        )


# --------------------------------------------------------------------------
# simple-walk closed forms
# --------------------------------------------------------------------------

def _stable_density(u: np.ndarray, z: float) -> np.ndarray:
    """(1 - 2uz - sqrt((1-2uz)^2 - 4z^2)) / z^2, rationalised."""
    base = 1.0 - 2.0 * u * z
    return 4.0 / (base + np.sqrt(base * base - 4.0 * z * z))


def _circle_closed_form(z: float, second_kind: bool) -> GFValue:
    """(1/pi) int g(u,z) sqrt(1-u^2) du by the m-point Gauss-Chebyshev rule
    of the second kind, or (1/2pi) int g(u,z) (1+u)/sqrt(1-u^2) du by the
    first kind with 1+u folded into the weights; m doubles from 8 until two
    successive sums differ by at most 1e-13 max(1, |sum|)."""
    if abs(z) >= 0.25:
        raise OutOfRange(f"z={z} outside (-1/4, 1/4)")
    m, prev = 8, math.inf
    while True:
        if second_kind:
            theta = np.arange(1, m + 1) * (math.pi / (m + 1))
            u, w = np.cos(theta), (math.pi / (m + 1)) * np.sin(theta) ** 2
        else:
            u = np.cos((np.arange(1, m + 1) - 0.5) * (math.pi / m))
            w = (math.pi / m) * (1.0 + u)
        cur = float(np.dot(w, _stable_density(u, z)))
        if not math.isfinite(cur):
            raise QuadratureNotConverged(f"non-finite Chebyshev sum {cur} at z={z}")
        diff = abs(cur - prev)
        if diff <= 1e-13 * max(1.0, abs(cur)):
            scale = math.pi if second_kind else 2 * math.pi
            return GFValue(value=cur / scale, z=z, method="circle-closed-form",
                           quadrature_error_estimate=diff / scale)
        if m >= _MAX_NODES:
            raise QuadratureNotConverged(
                f"Chebyshev sums still differ by {diff:.2e} at {m} nodes, z={z}"
            )
        prev, m = cur, 2 * m


def q00_simple(z: float) -> GFValue:
    """Excursion generating function of the simple walk, |z| < 1/4.

    Gauss-Chebyshev rule of the second kind (weight sqrt((1+u)(1-u))) with
    node doubling; the density is even in (u, z) jointly, making the
    function even in z.
    """
    return _circle_closed_form(z, second_kind=True)


def q10_simple(z: float) -> GFValue:
    """Horizontal-axis generating function of the simple walk, |z| < 1/4.

    The weight sqrt((1+u)/(1-u)) = (1+u)/sqrt(1-u^2) has an integrable
    endpoint singularity at u = 1; the Gauss-Chebyshev rule of the first
    kind absorbs it and leaves the smooth factor 1+u, with node doubling.
    """
    return _circle_closed_form(z, second_kind=False)


def q11_from_relation(
    s: StepSet, z: float, q10: float, q01: float, q00: float
) -> GFValue:
    """Solve the kernel relation at (1, 1):

        (|S| - 1/z) Q(1,1,z) = c(1) Q(1,0,z) + ct(1) Q(0,1,z)
                               - delta_{-1,-1} Q(0,0,z) - 1/z.
    """
    card = len(s)
    denom = card - 1.0 / z
    if abs(denom) < 1e-9:
        raise RemovableSingularity(
            f"z = 1/|S| = {1.0/card}: evaluate at a small offset and take the limit"
        )
    kp = kernel_polys(s)
    rhs = sum(kp.c) * q10 + sum(kp.c_t) * q01 - s.delta(-1, -1) * q00 - 1.0 / z
    return GFValue(value=rhs / denom, z=z, method="relation",
                   quadrature_error_estimate=0.0)


# --------------------------------------------------------------------------
# contour machinery
# --------------------------------------------------------------------------

def _converge(eval_at, tol: float, start: int = 256) -> tuple[complex, float]:
    """Double midpoint nodes until successive values differ by < tol; raise
    QuadratureNotConverged at the node cap."""
    m, diff = start, math.inf
    prev = eval_at(m)
    while m < _MAX_NODES:
        m *= 2
        cur = eval_at(m)
        diff = abs(cur - prev)
        if diff < tol:
            return cur, diff
        prev = cur
    raise QuadratureNotConverged(
        f"contour sums still differ by {diff:.2e} at {m} nodes (tolerance {tol:.1e})"
    )


def _interior_integral(
    s: StepSet, z: float, cgf: CGF, trace: CurveTrace, wx: complex, tol: float
) -> tuple[complex, float]:
    """(1/(2 pi i z)) oint t Y0 w' / (w(t) - wx) dt, CCW."""
    orient = 1.0 if trace.ccw else -1.0

    def at_m(m: int) -> complex:
        tau, ys, t, dt = contour_nodes(s, z, trace, m)
        f = t * ys * cgf.dw(t, z) / (cgf.w(t, z) - wx) * dt
        return complex(np.sum(f)) * (2 * math.pi / m)

    total, err = _converge(at_m, tol)
    return orient * total / (2j * math.pi * z), err / (2 * math.pi * abs(z))


def _moment_integral(
    s: StepSet, z: float, cgf: CGF, trace: CurveTrace, power: int, tol: float
) -> tuple[complex, float]:
    """(1/(2 pi i z)) oint t Y0 w'(t) w(t)^power dt, CCW."""
    orient = 1.0 if trace.ccw else -1.0

    def at_m(m: int) -> complex:
        tau, ys, t, dt = contour_nodes(s, z, trace, m)
        f = t * ys * cgf.dw(t, z) * dt
        if power:
            f = f * cgf.w(t, z) ** power
        return complex(np.sum(f)) * (2 * math.pi / m)

    total, err = _converge(at_m, tol)
    return orient * total / (2j * math.pi * z), err / (2 * math.pi * abs(z))


def _boundary_pole_data(
    s: StepSet, z: float, trace: CurveTrace, x: complex
) -> list[tuple[float, complex, int]]:
    """Poles of the Cauchy kernel for x on the curve, as (tau_j, residue_j,
    side) with side +1 for the pole at x itself, -1 for its mirror, and 0
    for a fold point (merged interior/exterior pair, no net half-residue).

    The residue of w'(t)/(w(t) - w(x)) at a simple preimage of w(x) is 1, so
    each tau-pole of the full integrand carries residue t*Y0(t) = x*y; at a
    fold the parameterisation's double zero of w(t(tau)) - w(x) against the
    simple zero of w' leaves a simple pole with twice that density.
    """
    mid, half = 0.5 * (trace.y1 + trace.y2), 0.5 * (trace.y2 - trace.y1)
    on_slit = _slit_roots(s, x, z, trace)
    if not on_slit:
        raise PointOutsideDomain(f"{x} does not lie on the traced curve")
    ys = on_slit[0]
    density = x * ys

    cosv = (mid - ys) / half
    if abs(x.imag) < 1e-9 and abs(cosv) > 1 - 1e-9:
        # curve-and-real-axis crossings are the two fold points tau = 0, pi
        fold_y1 = abs(x - trace.points[0]) <= abs(x - trace.points[trace.m // 2])
        return [(0.0 if fold_y1 else math.pi, 2.0 * density, 0)]
    tau_up = math.acos(min(1.0, max(-1.0, cosv)))
    t_up = complex(_edge_values(s, np.array([ys]), z, trace.upper_sign)[0])
    if abs(t_up - x) <= abs(t_up.conjugate() - x):
        return [(tau_up, density, +1), (2 * math.pi - tau_up, density.conjugate(), -1)]
    return [(2 * math.pi - tau_up, density, +1), (tau_up, density.conjugate(), -1)]


def _boundary_integral(
    s: StepSet, z: float, cgf: CGF, trace: CurveTrace, x: complex, tol: float
) -> tuple[complex, float]:
    """Inside-limit of the Cauchy integral for x ON the curve: principal
    value (cot-kernel subtraction on the staggered grid) plus the
    Sokhotski-Plemelj half-residue terms, all in CCW orientation."""
    orient = 1.0 if trace.ccw else -1.0
    wx = cgf.w(complex(x), z)
    poles = _boundary_pole_data(s, z, trace, x)

    def at_m(m: int) -> complex:
        tau, ys, t, dt = contour_nodes(s, z, trace, m)
        wt = np.array([cgf.w(complex(v), z) for v in t])
        dwt = np.array([cgf.dw(complex(v), z) for v in t])
        with np.errstate(divide="ignore", invalid="ignore"):
            f = t * ys * dwt / (wt - wx) * dt
        for (tau_j, res_j, _side) in poles:
            f = f - res_j * 0.5 / np.tan(0.5 * (tau - tau_j))
        return complex(np.sum(f)) * (2 * math.pi / m)

    pv, err = _converge(at_m, tol)
    plemelj = sum(1j * math.pi * res_j * side for (_tau, res_j, side) in poles)
    total = orient * pv + plemelj
    return total / (2j * math.pi * z), err / (2 * math.pi * abs(z))


def cauchy_value(
    s: StepSet,
    x: complex,
    z: float,
    cgf: CGF,
    trace: CurveTrace | None = None,
    tol: float = 1e-9,
) -> tuple[complex, float, str]:
    """c(x) Q(x,0,z) - c(0) Q(0,0,z) with its error estimate and position tag.

    Interior points use the plain spectrally-convergent midpoint rule;
    boundary points the principal-value inside-limit.  Points outside the
    domain raise PointOutsideDomain.
    """
    if trace is None:
        trace = trace_curve_M(s, z)
    _require_gluing(cgf, trace, z)
    position = point_in_G_M(s, x, z, trace)
    if position == "outside":
        raise PointOutsideDomain(f"{x} lies outside the curve-bounded domain")
    if position == "inside":
        wx = cgf.w(complex(x), z)
        val, err = _interior_integral(s, z, cgf, trace, wx, tol)
        return val, err, position
    val, err = _boundary_integral(s, z, cgf, trace, x, tol)
    return val, err, position


def qx0_integral(
    s: StepSet,
    x: complex,
    z: float,
    cgf: CGF,
    trace: CurveTrace | None = None,
    tol: float = 1e-9,
) -> complex:
    """The contour-integral value of c(x) Q(x,0,z) - c(0) Q(0,0,z)."""
    return cauchy_value(s, x, z, cgf, trace, tol)[0]


# --------------------------------------------------------------------------
# Q(0,0,z), Q(1,0,z), Q(0,1,z), Q(1,1,z) via the gluing route
# --------------------------------------------------------------------------

def _as_real(value: complex, what: str) -> float:
    if abs(value.imag) > 1e-7 * (1 + abs(value.real)) + 1e-10:
        raise CaseUndetermined(f"{what} has a non-real value {value}")
    return value.real


def q00_general(
    s: StepSet,
    z: float,
    cgf: CGF,
    cgf_y: CGF | None = None,
    tol: float = 1e-9,
) -> GFValue:
    """Q(0,0,z) for any model the supplied CGF(s) glue.

    Case dispatch on c: (a) c(0) = 0: pole-cancellation limit at x -> 0;
    (b) c(0) = 1, c non-constant: evaluate at a root of c on the unit
    circle, which must not lie outside the domain; (c) c constant: combine
    both planes' integrals through the kernel relation (needs cgf_y).
    """
    kp = kernel_polys(s)
    c0, c1, c2 = kp.c
    if c0 != 0 and c1 == 0 and c2 == 0 and cgf_y is None:
        raise CGFUnavailable(
            "c is constant: Q(0,0,z) needs a CGF for the y-plane domain too"
        )
    trace = trace_curve_M(s, z)
    _require_gluing(cgf, trace, z)
    r = cgf.pole_residue
    flags: tuple[str, ...] = ()

    if c0 == 0:
        # lim_{x->0} J(x)/c(x) with J = -(A0/w(x) + A1/w(x)^2 + ...)
        a0, e0 = _moment_integral(s, z, cgf, trace, 0, tol)
        if c1 != 0:
            value = -a0 / (r * c1)
            err = e0 / abs(r * c1)
        else:
            a1, e1 = _moment_integral(s, z, cgf, trace, 1, tol)
            if abs(a0) > 1e-6:
                raise CaseUndetermined(
                    f"second-order limit requires a vanishing zeroth moment, got {a0}"
                )
            value = (a0 * cgf.pole_const - a1) / (r * r * c2)
            err = (e0 * abs(cgf.pole_const) + e1) / (r * r * abs(c2))
            flags += ("second-order-limit",)
        return GFValue(value=_as_real(value, "Q(0,0,z)"), z=z,
                       method="cgf-integral/limit", quadrature_error_estimate=err,
                       flags=flags)

    if c1 != 0 or c2 != 0:
        # roots of c(x) = c0 + c1 x + c2 x^2, all on the unit circle
        if c2 == 0:
            roots = [complex(-c0 / c1)]
        else:
            roots = [complex(rt) for rt in np.roots([c2, c1, c0])]
        roots.sort(key=lambda v: (round(v.real, 12), round(v.imag, 12)))
        outside: list[complex] = []
        for x_hat in roots:
            try:
                val, err, position = cauchy_value(s, x_hat, z, cgf, trace, tol)
            except PointOutsideDomain:
                outside.append(x_hat)
                continue
            if position == "boundary":
                flags += ("boundary-root",)
            value = -val / c0
            return GFValue(value=_as_real(value, "Q(0,0,z)"), z=z,
                           method="cgf-integral/c-root",
                           quadrature_error_estimate=err / c0, flags=flags)
        raise RootOutsideDomain(
            f"all roots of c lie outside the domain at z={z}: {outside}"
        )

    # case (c): c is the constant 1; combine both complex planes
    return _q00_constant_c(s, z, cgf, cgf_y, trace, tol)


def _q00_constant_c(s, z, cgf, cgf_y, trace, tol) -> GFValue:
    mirror = s.mirrored()
    trace_y = trace_curve_M(mirror, z)
    _require_gluing(cgf_y, trace_y, z)
    candidates = [0.35, -0.35, 0.2 + 0.2j, 0.5, -0.5, 0.15]
    for x in candidates:
        y = Y_branches(s, complex(x), z)[0]
        if not (math.isfinite(y.real) and math.isfinite(y.imag)):
            continue
        if abs(x) > 1 or abs(y) > 1:
            continue
        try:
            ix, ex, _ = cauchy_value(s, complex(x), z, cgf, trace, tol)
            iy, ey, _ = cauchy_value(mirror, y, z, cgf_y, trace_y, tol)
        except PointOutsideDomain:
            continue
        value = complex(x) * y / z - ix - iy
        return GFValue(value=_as_real(value, "Q(0,0,z)"), z=z,
                       method="cgf-integral/kernel-point",
                       quadrature_error_estimate=ex + ey)
    raise CaseUndetermined("no usable kernel point (|x|<=1, |Y0|<=1) found")


def q10_general(
    s: StepSet,
    z: float,
    cgf: CGF,
    cgf_y: CGF | None = None,
    tol: float = 1e-9,
) -> GFValue:
    """Q(1,0,z) via the gluing route.

    If 1 is inside the domain (or on the curve: inside-limit, flagged), the
    Cauchy integral at x = 1 is solved for Q(1,0,z) given Q(0,0,z).  If 1
    lies outside, the two-evaluation kernel identity transports the problem
    to x* = X0(Y0(1,z),z), which does lie inside.
    """
    trace = trace_curve_M(s, z)
    _require_gluing(cgf, trace, z)
    kp = kernel_polys(s)
    c_at_1 = sum(kp.c)
    c0 = kp.c[0]
    q00 = q00_general(s, z, cgf, cgf_y, tol).value
    try:
        val, err, position = cauchy_value(s, 1.0 + 0j, z, cgf, trace, tol)
    except PointOutsideDomain:
        pass  # x = 1 outside: transport along the kernel
    else:
        value = (val + c0 * q00) / c_at_1
        return GFValue(value=_as_real(value, "Q(1,0,z)"), z=z,
                       method="cgf-integral", quadrature_error_estimate=err / c_at_1,
                       flags=("boundary",) if position == "boundary" else ())

    y_star = Y_branches(s, 1.0 + 0j, z)[0]
    x_star = X_branches(s, y_star, z)[0]
    if abs(x_star - 1.0) < 1e-9:
        raise CaseUndetermined(
            "the composite point returns to 1; the transport identity is trivial here"
        )
    val, err, _pos = cauchy_value(s, x_star, z, cgf, trace, tol)
    c_at_star = poly_eval(kp.c, x_star)
    q_star = (val + c0 * q00) / c_at_star  # Q(x*, 0, z)
    value = (c_at_star * q_star + (y_star / z) * (1.0 - x_star)) / c_at_1
    return GFValue(value=_as_real(value, "Q(1,0,z)"), z=z,
                   method="cgf-integral/transport",
                   quadrature_error_estimate=err / abs(c_at_1),
                   flags=("outside-transport",))


def q01_general(
    s: StepSet,
    z: float,
    cgf_y: CGF,
    cgf_x: CGF | None = None,
    tol: float = 1e-9,
) -> GFValue:
    """Q(0,1,z): the diagonal mirror of q10_general."""
    return q10_general(s.mirrored(), z, cgf_y, cgf_x, tol)


def q00_via_kernel_point(
    s: StepSet,
    z: float,
    x: complex,
    qx0_eval: Callable[[complex], complex],
    q0y_eval: Callable[[complex], complex],
) -> float:
    """Solve the kernel functional equation for Q(0,0,z) at (x, Y0(x,z)).

    Requires a step to the lower-left (the Q(0,0,z) term must be present)
    and a kernel point with |x| <= 1, |Y0| <= 1; the section values
    Q(x,0,z) and Q(0,y,z) are supplied by the caller (integral formulas,
    truncated series, ...).
    """
    if not s.delta(-1, -1):
        raise CaseUndetermined(
            "no lower-left step: the functional equation has no Q(0,0,z) term"
        )
    y = Y_branches(s, complex(x), z)[0]
    if abs(x) > 1 + 1e-12 or abs(y) > 1 + 1e-12:
        raise CaseUndetermined(f"kernel point ({x}, {y}) leaves the unit bidisc")
    kp = kernel_polys(s)
    cx = poly_eval(kp.c, x)
    cty = poly_eval(kp.c_t, y)
    value = cx * qx0_eval(x) + cty * q0y_eval(y) - x * y / z
    return _as_real(value, "Q(0,0,z)")


def q11_general(
    s: StepSet,
    z: float,
    cgf: CGF | None = None,
    cgf_y: CGF | None = None,
    tol: float = 1e-9,
    evaluator: Callable[[float], tuple[float, float, float]] | None = None,
) -> GFValue:
    """Q(1,1,z) from the kernel relation at (1,1).

    evaluator(z) -> (q00, q10, q01) defaults to the gluing route.  At the
    removable point z = 1/|S| the relation degenerates to 0 = 0; the value
    is then recovered by Richardson extrapolation of symmetric offsets.
    Zero-drift models have z_g = 1/|S|, so the offset above it would cross
    the genus transition: there z = 1/|S| raises OutOfRange.
    """
    card = len(s)
    removable = abs(card - 1.0 / z) < 1e-6
    d = drift(s)
    if removable and d.m_x == d.m_y == 0:
        raise OutOfRange(f"z={z} is 1/|S| = z_g of a zero-drift model; "
                         "the offset limit would cross the genus transition")

    if evaluator is None:
        if cgf is None:
            raise CGFUnavailable("q11_general needs a CGF or an explicit evaluator")

        def evaluator(zv: float) -> tuple[float, float, float]:
            inner_tol = min(tol, 1e-12)
            q00 = q00_general(s, zv, cgf, cgf_y, inner_tol).value
            q10 = q10_general(s, zv, cgf, cgf_y, inner_tol).value
            q01 = q01_general(s, zv, cgf_y or cgf, cgf, inner_tol).value
            return q00, q10, q01

    def assemble(zv: float) -> GFValue:
        q00, q10, q01 = evaluator(zv)
        return q11_from_relation(s, zv, q10, q01, q00)

    if removable:
        # symmetric offsets kill the even-order error terms and a second
        # level extrapolates the eps^2 one away; eps stays small because the
        # next true singularity may sit close above 1/|S|
        eps = 1e-5 * z
        avg1 = 0.5 * (assemble(z - eps).value + assemble(z + eps).value)
        avg2 = 0.5 * (assemble(z - eps / 2).value + assemble(z + eps / 2).value)
        value = (4 * avg2 - avg1) / 3
        return GFValue(value=value, z=z, method="relation",
                       quadrature_error_estimate=abs(avg2 - avg1),
                       flags=("removable-singularity",))
    return assemble(z)
