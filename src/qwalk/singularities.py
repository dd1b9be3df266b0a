"""First positive singularities of the counting generating functions.

The genus-transition point z_g is computed by two independent routes:

* the critical point of the step polynomial: the unique (alpha, beta) in
  (0, inf)^2 killing both first moments, with z_g the reciprocal of the
  step polynomial there (Newton in log coordinates);
* the smallest positive root of the integer resultant in z of the cleared
  x-discriminant D and its x-derivative, in closed form
  (-1)^(d(d-1)/2) a_d disc(D) for D of x-degree d, bracketed to 2^-60 by
  exact bisection on its Sturm chain, then validated as the inner collision
  by Sturm counts of D's positive roots either side of it.

z_Y and z_X have closed forms; 1/|S| is elementary.  The drift/covariance
table then names the first positive singularity of Q(1,0,z), Q(0,1,z) and
Q(1,1,z).  Cells where two designated values coincide (zero drift
components, or a zero covariance in a split row) are reported as ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _ratpoly as rp
from .errors import (
    NoPositiveSolution,
    OutOfRange,
    RootFindingFailure,
    SingularWalk,
    ValidationMismatch,
)
from .kernel import cleared_disc_dyadic, cleared_disc_int
from .steps import StepSet, drift, is_singular, kernel_polys, origin_in_hull_interior


@dataclass(frozen=True)
class CriticalPoint:
    alpha: float
    beta: float
    z_g: float
    residual: float


def _require_genuine(s: StepSet) -> None:
    if is_singular(s):
        raise SingularWalk("singular walks are outside this machinery")
    if not origin_in_hull_interior(s):
        raise NoPositiveSolution(
            "the steps lie in a closed half-plane; the critical-point system "
            "has no solution in (0, inf)^2"
        )


def critical_point(s: StepSet) -> CriticalPoint:
    """Solve sum(i d_ij a^i b^j) = sum(j d_ij a^i b^j) = 0 in (0, inf)^2.

    Newton on (u, v) = (log a, log b) from (0, 0); the objective
    sum(d_ij e^{iu+jv}) is strictly convex and coercive for genuine
    two-dimensional models, and on each of the 131 genuine step sets every
    full step lowers the residual, which falls below 1e-13 within 5 steps.
    An iteration that stalls (or a non-positive Hessian determinant) raises
    NoPositiveSolution.
    """
    _require_genuine(s)
    pts = s.sorted_steps()

    def grad_hess(u: float, v: float):
        g1 = g2 = h11 = h12 = h22 = 0.0
        for (i, j) in pts:
            w = math.exp(i * u + j * v)
            g1 += i * w
            g2 += j * w
            h11 += i * i * w
            h12 += i * j * w
            h22 += j * j * w
        return (g1, g2), ((h11, h12), (h12, h22))

    u = v = 0.0
    (g, h) = grad_hess(u, v)
    r = math.hypot(g[0], g[1])
    for _ in range(100):
        if r < 1e-13:
            break
        det = h[0][0] * h[1][1] - h[0][1] * h[0][1]
        if det <= 0:
            break
        du = -(h[1][1] * g[0] - h[0][1] * g[1]) / det
        dv = -(-h[0][1] * g[0] + h[0][0] * g[1]) / det
        u, v = u + du, v + dv
        g, h = grad_hess(u, v)
        r = math.hypot(g[0], g[1])

    if not r < 1e-12:  # a nan residual stalls too
        raise NoPositiveSolution(f"critical-point iteration stalled at residual {r}")

    alpha, beta = math.exp(u), math.exp(v)
    total = sum(alpha**i * beta**j for (i, j) in pts)
    return CriticalPoint(alpha=alpha, beta=beta, z_g=1.0 / total, residual=r)


def _sum_of_products(*terms: tuple) -> rp.Poly:
    """The sum of k * p1 * p2 * ... over the terms (k, p1, p2, ...) in Z[z]."""
    total: rp.Poly = []
    for k, *factors in terms:
        prod = [-k]  # negated, so that sub adds k * p1 * p2 * ...
        for f in factors:
            prod = rp.mul(prod, f)
        total = rp.sub(total, prod)
    return total


def _resultant_in_z(s: StepSet) -> rp.Poly:
    """R(z) = Res_x(D, dD/dx) in Z[z], D the cleared discriminant.

    For D of formal x-degree d with x-coefficients a_k in Z[z],
    R = (-1)^(d(d-1)/2) a_d disc(D) in closed form: sign -1 on the
    discriminants of the quadratic and the cubic, +1 on the quartic's
    (4I^3 - J^2)/27 from its invariants I and J, divided exactly.
    """
    a = [rp.norm(trip) for trip in cleared_disc_int(s)]
    while not a[-1]:  # d >= 2: the x^2 coefficient of D is 1 + O(z)
        a.pop()
    d = len(a) - 1
    a0, a1, a2, a3, a4 = a + [[]] * (4 - d)
    if d == 2:
        disc = _sum_of_products((1, a1, a1), (-4, a2, a0))
    elif d == 3:
        disc = _sum_of_products((1, a2, a2, a1, a1), (-4, a3, a1, a1, a1),
                                (-4, a2, a2, a2, a0), (-27, a3, a3, a0, a0),
                                (18, a3, a2, a1, a0))
    else:  # d == 4
        i = _sum_of_products((12, a4, a0), (-3, a3, a1), (1, a2, a2))
        j = _sum_of_products((72, a4, a2, a0), (9, a3, a2, a1), (-27, a4, a1, a1),
                             (-27, a3, a3, a0), (-2, a2, a2, a2))
        disc = rp.exact_div(_sum_of_products((4, i, i, i), (-1, j, j)), [27])
    return _sum_of_products(((-1) ** (d * (d - 1) // 2), a[d], disc))


def z_g_via_resultant(s: StepSet) -> float:
    """z_g as the smallest positive root of the integer z-resultant R of
    (D, D_x), within one ulp (_ratpoly.smallest_positive_root), validated
    without floats as the inner collision, where x2 and x3 meet and leave
    the real axis: D(., z) has exactly 2 fewer distinct positive roots (by
    Sturm counts) at a dyadic z = n / 2^k just above the root than at one
    just below, else ValidationMismatch.  Below the root D's real roots keep
    their pattern, as R has no smaller positive root; on each of the 131
    genuine step sets the point above comes before R's next root.
    """
    _require_genuine(s)
    root = rp.smallest_positive_root(_resultant_in_z(s))
    if root is None:
        raise RootFindingFailure("the resultant has no positive real roots")
    # (n - 1)/2^k and (n + 2)/2^k straddle the true root, within 2^-(BRACKET_BITS+1) of `root`
    k, z = rp.BRACKET_BITS // 2, float(root)  # a coarse grid keeps D's coefficients short
    n, trips = (root.numerator << k) // root.denominator, cleared_disc_int(s)
    below, above = (rp.count_positive_roots(cleared_disc_dyadic(trips, m, k))
                    for m in (n - 1, n + 2))
    if below - above != 2:
        raise ValidationMismatch(f"the smallest resultant root z={z} is not the inner collision: "
                                 f"D has {below} distinct positive roots below it, {above} above")
    return z


def z_Y(s: StepSet) -> float:
    """1/(b(1) + 2 sqrt(a(1) c(1))): first singularity of Y0(1, z)."""
    kp = kernel_polys(s)
    a1, b1, c1 = sum(kp.a), sum(kp.b), sum(kp.c)
    denom = b1 + 2.0 * math.sqrt(a1 * c1)
    if denom == 0:
        raise OutOfRange("no finite z_Y: b(1) = a(1)c(1) = 0")
    return 1.0 / denom


def z_X(s: StepSet) -> float:
    """Mirror of z_Y with the tilde polynomials."""
    return z_Y(s.mirrored())


def _sign(v: int) -> str:
    return "+" if v > 0 else ("-" if v < 0 else "0")


@dataclass(frozen=True)
class FirstSingularity:
    """The table's designation for one generating function: a primary label,
    any tied labels (cells whose designated values coincide), and the value."""

    label: str
    ties: tuple[str, ...]
    value: float


@dataclass(frozen=True)
class SingularityReport:
    z_g: float
    z_g_resultant: float
    method_gap: float
    z_X: float
    z_Y: float
    inv_cardinality: float
    drift_sign: tuple[str, str]
    cov_sign: str
    fs_q10: FirstSingularity
    fs_q01: FirstSingularity
    fs_q11: FirstSingularity
    alpha: float
    beta: float


# Table rules per (sign M_x, sign M_y).  A rule is either a label, a tuple of
# labels marked jointly (their values coincide: a zero drift component forces
# z_Y or z_X onto 1/|S|), or a covariance split ("C<=0 label", "C>=0 label").
# The split rows mirror each other under the diagonal reflection, which swaps
# the x- and y-axis roles (and hence z_X with z_Y).
_SPLIT = "split"

_Q10_RULES = {
    ("+", "+"): "z_Y",
    ("+", "0"): ("z_Y", "1/|S|"),
    ("+", "-"): "z_Y",
    ("0", "+"): (_SPLIT, "z_Y", "z_g"),
    ("0", "0"): ("1/|S|", "z_g", "z_Y"),
    ("0", "-"): (_SPLIT, "z_g", "z_Y"),
    ("-", "+"): "z_g",
    ("-", "0"): "z_g",
    ("-", "-"): "z_g",
}

_Q11_RULES = {
    ("+", "+"): "1/|S|",
    ("+", "0"): "1/|S|",
    ("0", "+"): "1/|S|",
    ("0", "0"): ("1/|S|", "z_g", "z_X", "z_Y"),
    ("+", "-"): "z_Y",
    ("-", "+"): "z_X",
    ("0", "-"): (_SPLIT, "z_g", "z_Y"),
    ("-", "0"): (_SPLIT, "z_g", "z_X"),
    ("-", "-"): "z_g",
}


# the Q(0,1,z) column is the diagonal mirror of the Q(1,0,z) column
_SWAP = {"z_X": "z_Y", "z_Y": "z_X"}
_Q01_RULES = {(my, mx): _SWAP.get(rule, rule) if isinstance(rule, str)
              else tuple(_SWAP.get(r, r) for r in rule) for (mx, my), rule in _Q10_RULES.items()}


def _resolve(rule, cov: int, values: dict[str, float]) -> FirstSingularity:
    if isinstance(rule, str):
        return FirstSingularity(label=rule, ties=(), value=values[rule])
    if rule[0] == _SPLIT:
        neg_label, pos_label = rule[1], rule[2]
        if cov < 0:
            return FirstSingularity(label=neg_label, ties=(), value=values[neg_label])
        if cov > 0:
            return FirstSingularity(label=pos_label, ties=(), value=values[pos_label])
        return FirstSingularity(
            label=neg_label, ties=(pos_label,), value=values[neg_label]
        )
    primary, *rest = rule
    return FirstSingularity(label=primary, ties=tuple(rest), value=values[primary])


def classify_first_singularities(s: StepSet) -> SingularityReport:
    """Fill the drift/covariance classification for a non-singular model."""
    _require_genuine(s)
    d = drift(s)
    cp = critical_point(s)
    zg_res = z_g_via_resultant(s)
    values = {
        "z_g": cp.z_g,
        "z_X": z_X(s),
        "z_Y": z_Y(s),
        "1/|S|": 1.0 / len(s),
    }
    key = (_sign(d.m_x), _sign(d.m_y))
    fs10 = _resolve(_Q10_RULES[key], d.covariance, values)
    fs01 = _resolve(_Q01_RULES[key], d.covariance, values)
    fs11 = _resolve(_Q11_RULES[key], d.covariance, values)
    return SingularityReport(
        z_g=cp.z_g,
        z_g_resultant=zg_res,
        method_gap=abs(cp.z_g - zg_res),
        z_X=values["z_X"],
        z_Y=values["z_Y"],
        inv_cardinality=values["1/|S|"],
        drift_sign=key,
        cov_sign=_sign(d.covariance),
        fs_q10=fs10,
        fs_q01=fs01,
        fs_q11=fs11,
        alpha=cp.alpha,
        beta=cp.beta,
    )
