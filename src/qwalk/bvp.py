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
          = (1/(2 pi i z)) oint t Y0(t,z) w'(t) / (w(t) - w(x)) dt,

  specialised to Q(0,0,z) by a pole-cancellation limit at x -> 0 (when
  c(0) = 0) or by evaluation at a root of c on the unit circle (when c(0) = 1
  and c is not constant).  No CGF glues the curve when c is constant (it
  passes through infinity) or c(x) = x^2 (it passes through x = 0, the pole
  of every CGF).  Each plane's curve is traced, checked and its nodes built
  once per call; the trace carries the model and z to every integral on it,
  and keeps its nodes and passed gluing checks.  Every integral starts by
  comparing its 256- and 512-node sums, both from one integrand call on
  the nodes the trace built for them in one pass.
  A point x on the curve takes the inside limit of the same integral: the
  same integrand minus its poles at x and at x's mirror, which meet at a
  fold (principal value), plus their Sokhotski-Plemelj half-residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _ratpoly as rp
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
    FIRST_GRIDS,
    CurveTrace,
    X_branches,
    Y_branches,
    contour_nodes,
    curve_preimage,
    curve_through_infinity,
    curve_through_origin,
    first_grid_nodes,
    off_curve_position,
    trace_curve_M,
)
from .steps import StepSet, drift, kernel_polys, poly_eval

_MAX_NODES = 2**14
_GLUING_TOL = 1e-9
_TOL = 1e-9  # contour sums of q00/q10/q01_general
_Q11_TOL = 1e-12  # the parts of q11_general, whose relation divides by |S| - 1/z


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
    """A conformal gluing function for one curve-bounded domain.

    w maps the domain conformally onto the plane cut along a segment, takes
    equal values at conjugate boundary points, and has its unique pole at
    t = 0 with residue `pole_residue`.  The traced curve fixes the model and
    z, so w and dw take t alone, elementwise on arrays.
    """

    w: Callable[[complex], complex]
    dw: Callable[[complex], complex]
    pole_residue: float
    label: str


def circle_cgf() -> CGF:
    """The gluing map t + 1/t of the unit disc (cut image [-2, 2])."""
    return CGF(
        w=lambda t: t + 1.0 / t,
        dw=lambda t: 1.0 - 1.0 / (t * t),
        pole_residue=1.0,
        label="builtin-circle",
    )


def gluing_defect(cgf: CGF, trace: CurveTrace) -> float:
    """max |w(t) - w(conj t)| over the traced curve's nodes; inf when w
    blows up on them, or when the curve passes through t = 0, the pole of
    every CGF (a fold there, which no node reaches)."""
    if curve_through_origin(trace.steps):
        return math.inf
    pts = trace.points
    with np.errstate(divide="ignore", invalid="ignore"):
        defect = np.abs(cgf.w(pts) - cgf.w(np.conj(pts)))
    if not np.all(np.isfinite(defect)):
        return math.inf
    return float(np.max(defect))


def _require_gluing(cgf: CGF, trace: CurveTrace) -> None:
    """Check once per trace that cgf glues it; a pass is kept on the trace."""
    if cgf in trace._memo:
        return
    defect = gluing_defect(cgf, trace)
    if defect > _GLUING_TOL:
        raise CGFUnavailable(
            f"CGF {cgf.label!r} does not glue this curve (defect {defect:.2e}); "
            "supply a CGF for the model's own domain"
        )
    trace._memo[cgf] = True


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
    if not abs(z) < 0.25:  # nan fails too; for |z| < 1/4 the density is finite
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
    if not 0 < z < math.inf:
        raise OutOfRange("z must be positive and finite")
    card = len(s)
    denom = card - 1.0 / z
    if abs(denom) < 1e-9:
        raise RemovableSingularity(
            f"z = 1/|S| = {1.0/card}: evaluate at a small offset and take the limit"
        )
    kp = kernel_polys(s)
    rhs = sum(kp.c) * q10 + sum(kp.c_t) * q01 - kp.c[0] * q00 - 1.0 / z
    return GFValue(value=rhs / denom, z=z, method="relation",
                   quadrature_error_estimate=0.0)


# --------------------------------------------------------------------------
# contour machinery
# --------------------------------------------------------------------------

def _contour_integral(
    trace: CurveTrace, integrand, tol: float, plemelj: complex = 0j
) -> tuple[complex, float]:
    """(1/(2 pi i z)) (oint integrand dtau + plemelj) over the trace, which
    runs counter-clockwise: integrand(tau, ys, t, dt), elementwise, is
    summed over the midpoint nodes until two successive sums differ by
    < tol.  The first comparison, 256 against 512 nodes, is one call on
    first_grid_nodes, summed slice by slice; past it m doubles, and
    QuadratureNotConverged at the node cap.  A node on a pole makes a
    non-finite round, which the doubling passes over."""

    def total(f: np.ndarray, m: int) -> complex:
        return complex(np.sum(f)) * (2 * math.pi / m)

    lo, m = FIRST_GRIDS
    with np.errstate(divide="ignore", invalid="ignore"):
        f = integrand(*first_grid_nodes(trace))
        prev, cur = total(f[:lo], lo), total(f[lo:], m)
        while not (diff := abs(cur - prev)) < tol:
            if m >= _MAX_NODES:
                raise QuadratureNotConverged(
                    f"contour sums still differ by {diff:.2e} at {m} nodes (tolerance {tol:.1e})"
                )
            prev, m = cur, 2 * m
            cur = total(integrand(*contour_nodes(trace, m=m)), m)
    return (cur + plemelj) / (2j * math.pi * trace.z), diff / (2 * math.pi * abs(trace.z))


def cauchy_value(
    trace: CurveTrace, x: complex, cgf: CGF, tol: float = 1e-9
) -> tuple[complex, float, str]:
    """c(x) Q(x,0,z) - c(0) Q(0,0,z) with its error estimate and position tag
    ("inside" or "boundary").

    One integrand t Y0 w'(t) / (w(t) - w(x)) serves every point, summed by
    the spectrally convergent midpoint rule.  For x on the curve it is the
    inside limit: the integrand's poles are subtracted as cot-kernels on the
    staggered grid (principal value) and their Sokhotski-Plemelj
    half-residues added back.  Points off the curve take their position from
    off_curve_position, and points outside the domain raise
    PointOutsideDomain.
    """
    _require_gluing(cgf, trace)
    preimage = curve_preimage(trace, x)
    position = "boundary" if preimage else off_curve_position(trace, x)
    if position == "outside":
        raise PointOutsideDomain(f"{x} lies outside the curve-bounded domain")
    poles = []
    if preimage:
        # w'/(w - w(x)) has residue 1 at each simple preimage of w(x): x at tau
        # and its mirror at 2 pi - tau, which meet at a fold
        ys, tau = preimage
        poles = [(tau, x * ys, 1), (2 * math.pi - tau, (x * ys).conjugate(), -1)]
    wx = cgf.w(complex(x))

    def cauchy(tau, ys, t, dt):
        f = t * ys * cgf.dw(t) / (cgf.w(t) - wx) * dt
        for (tau_j, res_j, _side) in poles:
            f = f - res_j * 0.5 / np.tan(0.5 * (tau - tau_j))
        return f

    plemelj = sum(1j * math.pi * res_j * side for (_tau, res_j, side) in poles)
    value, err = _contour_integral(trace, cauchy, tol, plemelj)
    return value, err, position


# --------------------------------------------------------------------------
# Q(0,0,z), Q(1,0,z), Q(0,1,z), Q(1,1,z) via the gluing route
# --------------------------------------------------------------------------

def _as_real(value: complex, what: str) -> float:
    if abs(value.imag) > 1e-7 * (1 + abs(value.real)) + 1e-10:
        raise CaseUndetermined(f"{what} has a non-real value {value}")
    return value.real


def _require_glueable(s: StepSet) -> None:
    """Raise CGFUnavailable, before any tracing, for a plane whose curve no
    CGF glues: one through infinity, or through x = 0, the pole of every CGF."""
    if curve_through_infinity(s):
        raise CGFUnavailable(
            "c is constant: the curve passes through infinity and no CGF glues it"
        )
    if curve_through_origin(s):
        raise CGFUnavailable(
            "c(x) = x^2: the curve passes through x = 0, the pole of every CGF, "
            "and no CGF glues it"
        )


def _glued_curve(s: StepSet, z: float, cgf: CGF) -> CurveTrace:
    """The plane's traced curve, checked to be glued by cgf."""
    _require_glueable(s)
    trace = trace_curve_M(s, z)
    _require_gluing(cgf, trace)
    return trace


def q00_general(s: StepSet, z: float, cgf: CGF) -> GFValue:
    """Q(0,0,z) for any model the supplied CGF glues.

    Case dispatch on c: (a) c(0) = 0: pole-cancellation limit at x -> 0;
    (b) c(0) = 1, c non-constant: evaluate at a root of c on the unit
    circle, which must not lie outside the domain.  A constant c and
    c(x) = x^2 raise CGFUnavailable before tracing.
    """
    return _q00(cgf, _glued_curve(s, z, cgf), _TOL)


def _q00(cgf: CGF, trace: CurveTrace, tol: float) -> GFValue:
    z = trace.z
    c0, c1, c2 = kernel_polys(trace.steps).c

    if c0 == 0:
        # lim_{x->0} J(x)/c(x) with J = -(A0/w(x) + A1/w(x)^2 + ...) and
        # w(x) = r/x + O(1); c1 != 0, as _glued_curve refuses c = x^2
        a0, e0 = _contour_integral(
            trace, lambda tau, ys, t, dt: t * ys * cgf.dw(t) * dt, tol)
        r = cgf.pole_residue
        return GFValue(value=_as_real(-a0 / (r * c1), "Q(0,0,z)"), z=z,
                       method="cgf-integral/limit",
                       quadrature_error_estimate=e0 / abs(r * c1))

    # roots of c(x) = c0 + c1 x + c2 x^2, all on the unit circle
    roots = rp.roots([c0, c1, c2])  # one root when c2 = 0
    roots.sort(key=lambda v: (round(v.real, 12), round(v.imag, 12)))
    outside: list[complex] = []
    flags: tuple[str, ...] = ()
    for x_hat in roots:
        try:
            val, err, position = cauchy_value(trace, x_hat, cgf, tol)
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


def q10_general(s: StepSet, z: float, cgf: CGF) -> GFValue:
    """Q(1,0,z) via the gluing route.

    If 1 is inside the domain (or on the curve: inside-limit, flagged), the
    Cauchy integral at x = 1 is solved for Q(1,0,z) given Q(0,0,z).  If 1
    lies outside, the two-evaluation kernel identity transports the problem
    to x* = X0(Y0(1,z),z), which does lie inside.
    """
    trace = _glued_curve(s, z, cgf)
    return _q10(cgf, trace, _q00(cgf, trace, _TOL).value, _TOL)


def _q10(cgf: CGF, trace: CurveTrace, q00: float, tol: float) -> GFValue:
    s, z = trace.steps, trace.z
    kp = kernel_polys(s)
    c_at_1 = sum(kp.c)
    c0 = kp.c[0]
    try:
        val, err, position = cauchy_value(trace, 1.0 + 0j, cgf, tol)
    except PointOutsideDomain:
        pass  # x = 1 outside: transport along the kernel
    else:
        value = (val + c0 * q00) / c_at_1
        return GFValue(value=_as_real(value, "Q(1,0,z)"), z=z,
                       method="cgf-integral", quadrature_error_estimate=err / c_at_1,
                       flags=("boundary",) if position == "boundary" else ())

    y_star = Y_branches(s, 1.0 + 0j, z)[0]
    x_star = X_branches(s, y_star, z)[0]
    val, err, _pos = cauchy_value(trace, x_star, cgf, tol)
    c_at_star = poly_eval(kp.c, x_star)
    q_star = (val + c0 * q00) / c_at_star  # Q(x*, 0, z)
    value = (c_at_star * q_star + (y_star / z) * (1.0 - x_star)) / c_at_1
    return GFValue(value=_as_real(value, "Q(1,0,z)"), z=z,
                   method="cgf-integral/transport",
                   quadrature_error_estimate=err / abs(c_at_1),
                   flags=("outside-transport",))


def q01_general(s: StepSet, z: float, cgf_y: CGF) -> GFValue:
    """Q(0,1,z): the diagonal mirror of q10_general."""
    return q10_general(s.mirrored(), z, cgf_y)


def q11_general(s: StepSet, z: float, cgf: CGF) -> GFValue:
    """Q(1,1,z) via the gluing route: the kernel relation at (1,1) on
    Q(0,0,z), Q(1,0,z) and Q(0,1,z), each summed to tolerance 1e-12.

    Both planes are checked glueable before either is traced; Q(0,0,z), the
    same on both planes, is computed once, on the x plane.  A self-mirror
    model (s.mirrored() == s) has one curve for both planes: it is traced
    once, and Q(0,1,z) is its Q(1,0,z).  At the removable point z = 1/|S|
    the relation degenerates to 0 = 0; the value is then
    recovered by Richardson extrapolation of symmetric offsets.  Zero-drift
    models have z_g = 1/|S|, so the offset above it would cross the genus
    transition: there z = 1/|S| raises OutOfRange.  Both checks come before
    any plane is traced.
    """
    if not 0 < z < math.inf:
        raise OutOfRange("z must be positive and finite")
    card = len(s)
    removable = abs(card - 1.0 / z) < 1e-6
    d = drift(s)
    if removable and d.m_x == d.m_y == 0:
        raise OutOfRange(f"z={z} is 1/|S| = z_g of a zero-drift model; "
                         "the offset limit would cross the genus transition")
    mirror = s.mirrored()
    planes = (s,) if mirror == s else (s, mirror)

    def assemble(zv: float) -> GFValue:
        for plane in planes:
            _require_glueable(plane)  # before tracing either plane
        traces = [_glued_curve(p, zv, cgf) for p in planes]
        q00 = _q00(cgf, traces[0], _Q11_TOL).value
        # Q(1,0,z), then Q(0,1,z) unless the one plane serves both
        parts = [_q10(cgf, tr, q00, _Q11_TOL).value for tr in traces]
        return q11_from_relation(s, zv, parts[0], parts[-1], q00)

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
