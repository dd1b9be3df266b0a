"""Growth-rate, polynomial-exponent and constant estimation for integer
coefficient sequences c_n ~ const * rho^n * n^alpha.

rho comes from consecutive ratios, alpha from n*(ratio/rho - 1) and the
constant from c_n * n^(-alpha) * rho^(-n), each extrapolated to 1/k -> 0 by
windowed least-squares fits in 1/k of degree 0-4, one orthonormal basis
shared by the three fits.  Walk sequences carry a subdominant oscillating
correction (-rho)^n * n^(-beta) from the conjugate singularity at -1/rho, so
each working sequence is first smoothed by a few rounds of adjacent-pair
averaging, which demotes the alternating part by one power of n per round
while keeping the smooth 1/n expansion intact (at half-index shifts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import InsufficientData, OutOfRange, ZeroSequence

_SMOOTH_ROUNDS = 3
_FIT_DEGREE = 4


@dataclass(frozen=True)
class SeriesAnalysis:
    rho: float
    alpha: float
    const_estimate: float
    rho_uncertainty: float
    alpha_uncertainty: float
    const_uncertainty: float
    stride: int
    modulation_period: int
    n_used: int
    diagnostics: tuple[float, ...]  # residuals per extrapolation level
    converged: bool


def detect_stride(coeffs) -> tuple[int, int]:
    """(stride, first): the largest clean tail progression of the support.

    The stride comes from the tail of the nonzero indices (the asymptotic
    support; early transient zeros are common and irrelevant), and `first`
    is walked back as far as the progression stays nonzero.
    """
    nz = [n for n, c in enumerate(coeffs) if c != 0]
    if not nz:
        raise ZeroSequence("all coefficients vanish")
    if len(nz) == 1:
        return 1, nz[0]
    tail = nz[-min(len(nz), 16):]
    stride = 0
    for a, b in zip(tail, tail[1:]):
        stride = math.gcd(stride, b - a)
    stride = max(stride, 1)
    nzset = set(nz)
    first = nz[-1]
    while first - stride in nzset:
        first -= stride
    return stride, first


def _boxcar(values: list[float], p: int) -> list[float]:
    if p <= 1:
        return values
    return [sum(values[i : i + p]) / p for i in range(len(values) - p + 1)]


def _smooth(values: list[float], period: int) -> list[float]:
    """A boxcar over the modulation period, then _SMOOTH_ROUNDS pair averages."""
    for p in (period,) + (2,) * _SMOOTH_ROUNDS:
        values = _boxcar(values, p)
    return values


def _wobble(values: list[float]) -> float:
    if len(values) < 3:
        return 0.0
    return sum(
        abs(values[i + 2] - 2 * values[i + 1] + values[i]) for i in range(len(values) - 2)
    ) / (len(values) - 2)


def _detect_period(values: list[float]) -> int:
    """Length of the multiplicative modulation of the coefficient sequence.

    Several dominant singularities of equal modulus (at rotations of the
    positive one) modulate c_n by an order-one periodic factor; a boxcar
    over one full period cancels it exactly.  The period is chosen as the
    smallest candidate whose boxcar leaves the least second-difference
    wobble in the tail.
    """
    tail = values[-min(len(values), 160):]
    base = _wobble(tail)
    scale = 1.0 + abs(sum(tail) / len(tail))
    if base < 3e-4 * scale:
        return 1  # smooth already; boxcars would only blur the 1/k structure
    for p in (2, 3, 4, 6, 8, 12):
        if len(tail) < 3 * p + 8:
            continue
        # genuine period-p modulation cancels exactly, not just partially
        if _wobble(_boxcar(tail, p)) < 0.02 * base:
            return p
    return 1


def _basis(ks: list[float], depth: int) -> list[tuple[list[float], float]]:
    """(q_d, q_d at 1/k = 0) for d = 0..depth, orthonormal on the tail window.

    The window is the last max(4(depth + 1), len/2) nodes: a least-squares
    fit over it keeps the extrapolation stable, where pointwise Neville on
    the clustered tail nodes would amplify roundoff by (k/spacing)^depth.
    Modified Gram-Schmidt, applied twice, turns the columns T_0..T_depth at
    the Chebyshev-normalised 1/k into polynomials orthonormal on the window.
    """
    window = min(len(ks), max(4 * (depth + 1), len(ks) // 2))
    x = [1.0 / k for k in ks[-window:]]
    centre = math.fsum(x) / window
    half = (max(x) - min(x)) / 2 or 1.0
    t = [(xi - centre) / half for xi in x]
    t0 = (0.0 - centre) / half
    # T_0 .. T_depth at the nodes and at t0, by the three-term recurrence
    columns = [([1.0] * window, 1.0), (t, t0)]
    while len(columns) <= depth:
        (a, a0), (b, b0) = columns[-1], columns[-2]
        columns.append(([2 * ti * ai - bi for ti, ai, bi in zip(t, a, b)], 2 * t0 * a0 - b0))
    basis: list[tuple[list[float], float]] = []
    for col, col0 in columns[: depth + 1]:
        for _ in range(2):
            for q, q0 in basis:
                r = sum(map(mul, q, col))
                col = [c - r * qi for c, qi in zip(col, q)]
                col0 -= r * q0
        norm = math.sqrt(sum(map(mul, col, col)))
        basis.append(([c / norm for c in col], col0 / norm))
    return basis


def _extrapolate(values: list[float], basis) -> tuple[float, float, tuple[float, ...], bool]:
    """(estimate, uncertainty, residuals, converged) for a smooth-in-1/k tail.

    The degree-d least-squares fit on the basis window is the projection
    sum_{i<=d} <q_i, v> q_i, so its estimate at 1/k = 0 is a running sum.
    """
    v = values[-len(basis[0][0]):]
    estimates = []
    estimate = 0.0
    for q, q0 in basis:
        r = sum(map(mul, q, v))
        v = [c - r * qi for c, qi in zip(v, q)]
        estimate += r * q0
        estimates.append(estimate)
    residuals = tuple(abs(b - a) for a, b in zip(estimates, estimates[1:]))
    tail = residuals[-3:]
    floor = 1e-9 * (1 + abs(estimates[-1]))  # roundoff floor of the fit
    converged = len(tail) < 2 or all(
        a >= b or b < floor for a, b in zip(tail, tail[1:])
    )
    uncertainty = residuals[-1] if residuals else math.inf
    return estimates[-1], uncertainty, residuals, converged


def _exp(value: float, name: str) -> float:
    """exp of a fitted logarithm, or OutOfRange naming it past the float range."""
    try:
        return math.exp(value)
    except OverflowError:
        raise OutOfRange(f"the fitted {name} {value} is past the float range") from None


def growth_estimate(coeffs) -> SeriesAnalysis:
    """Estimate (rho, alpha, const) for c_n ~ const * rho^n * n^alpha.

    All three are normalised to the strided subsequence index k, with
    sub[k] = coeffs[first + stride*k] ~ const * rho^k * k^alpha: rho is the
    growth per stride step (16 rather than 4 for parity-supported excursion
    counts) and const absorbs rho^first.  Needs at least 32 nonzero terms
    after the stride is applied; a negative, infinite or nan term, or a
    fitted rho or const past the float range, is OutOfRange.
    """
    coeffs = list(coeffs)
    bad = next((n for n, c in enumerate(coeffs) if c != 0 and not 0 < c < math.inf), None)
    if bad is not None:  # compared, not math.isfinite: exact counts pass 1e308
        raise OutOfRange(f"term {bad} is negative, infinite or nan; counts are >= 0 and finite")
    stride, first = detect_stride(coeffs)
    sub = coeffs[first::stride]
    if any(c == 0 for c in sub):
        raise InsufficientData("support does not match the detected stride")
    if len(sub) < 32:
        raise InsufficientData(f"{len(sub)} terms after stride; need >= 32")

    logs = [math.log(c) for c in sub]

    # log-ratios ~ log rho + smooth(1/k) + periodic and alternating parts
    lr = [b - a for a, b in zip(logs, logs[1:])]
    period = _detect_period(lr)
    lr = _smooth(lr, period)  # each boxcar of width p shifts the nodes by (p - 1)/2
    ks = [k + (period - 1) / 2 + _SMOOTH_ROUNDS / 2 for k in range(1, len(lr) + 1)]
    basis = _basis(ks, _FIT_DEGREE)  # the nodes of all three fits
    log_rho, u_logrho, res_rho, ok_rho = _extrapolate(lr, basis)
    rho = _exp(log_rho, "log-rho")

    # alpha from k * (r_k/rho - 1) with the same smoothing
    av = [k * math.expm1(v - log_rho) for v, k in zip(lr, ks)]
    alpha, u_alpha, res_alpha, ok_alpha = _extrapolate(av, basis)

    # constant from n^-alpha rho^-n c_n, in log space (the geometric mean
    # over a modulation period when one is present)
    cv = [logs[k] - k * log_rho - alpha * math.log(k) for k in range(1, len(sub))]
    log_const, u_logc, res_c, ok_c = _extrapolate(_smooth(cv, period), basis)
    const = _exp(log_const, "log-constant")

    return SeriesAnalysis(
        rho=rho,
        alpha=alpha,
        const_estimate=const,
        rho_uncertainty=rho * u_logrho,
        alpha_uncertainty=u_alpha,
        const_uncertainty=const * u_logc,
        stride=stride,
        modulation_period=period,
        n_used=len(sub),
        diagnostics=res_rho + res_alpha + res_c,
        converged=ok_rho and ok_alpha and ok_c,
    )


@dataclass(frozen=True)
class PredictionReport:
    ok: bool
    rho_ok: bool
    alpha_ok: bool
    const_ok: bool
    rho_deviation: float
    alpha_deviation: float
    const_deviation: float
    analysis: SeriesAnalysis


def verify_prediction(
    coeffs,
    rho0: float,
    alpha0: float,
    const0: float,
) -> PredictionReport:
    """Compare extrapolated (rho, alpha, const) against a prediction: rho to
    1e-6 relative, alpha to 1e-2 absolute, const to 1e-2 relative.  A rho0
    or const0 that is not positive and finite, or an alpha0 that is not
    finite, is OutOfRange."""
    for name, value, ok in (("rho0", rho0, 0 < rho0 < math.inf),
                            ("const0", const0, 0 < const0 < math.inf),
                            ("alpha0", alpha0, -math.inf < alpha0 < math.inf)):
        if not ok:
            raise OutOfRange(f"{name} is {value}; rho0 and const0 must be positive "
                             "and finite, alpha0 finite")
    analysis = growth_estimate(coeffs)
    dr = abs(analysis.rho - rho0) / abs(rho0)
    da = abs(analysis.alpha - alpha0)
    dc = abs(analysis.const_estimate - const0) / abs(const0)
    rho_ok = dr < 1e-6
    alpha_ok = da < 1e-2
    const_ok = dc < 1e-2
    return PredictionReport(
        ok=rho_ok and alpha_ok and const_ok,
        rho_ok=rho_ok,
        alpha_ok=alpha_ok,
        const_ok=const_ok,
        rho_deviation=dr,
        alpha_deviation=da,
        const_deviation=dc,
        analysis=analysis,
    )
