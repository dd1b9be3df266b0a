import math

import numpy as np
import pytest

from qwalk import asymptotics, counting, steps
from qwalk.errors import InsufficientData, OutOfRange, ZeroSequence


@pytest.fixture(scope="module")
def simple_table():
    return counting.count(steps.preset("simple"), 260, dense_max=0)


def test_geometric_sequence():
    an = asymptotics.growth_estimate([3 * 2**n for n in range(80)])
    assert an.rho == pytest.approx(2.0, rel=1e-9)
    assert an.alpha == pytest.approx(0.0, abs=1e-8)
    assert an.const_estimate == pytest.approx(3.0, rel=1e-8)
    assert an.converged


def test_polynomial_modulated_sequence():
    # c_n = 5e6 * 3^n / n^2 from n = 1; the strided-index normalisation
    # starts at the first nonzero term, so the constant absorbs one rho
    coeffs = [0] + [5 * 10**6 * 3**n // (n * n) for n in range(1, 220)]
    an = asymptotics.growth_estimate(coeffs)
    assert an.rho == pytest.approx(3.0, rel=1e-7)
    assert an.alpha == pytest.approx(-2.0, abs=1e-3)
    assert an.const_estimate == pytest.approx(15e6, rel=1e-3)


def test_stride_detection():
    assert asymptotics.detect_stride([1, 0, 2, 0, 10, 0, 50]) == (2, 0)
    assert asymptotics.detect_stride([0, 1, 1, 2, 3]) == (1, 1)
    with pytest.raises(ZeroSequence):
        asymptotics.detect_stride([0, 0, 0])


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        asymptotics.growth_estimate([2**n for n in range(10)])


@pytest.mark.parametrize("coeffs, index", [
    ([-(3**n) for n in range(60)], 0),
    ([(-2)**n for n in range(60)], 1),
    ([3**n for n in range(59)] + [math.inf], 59),
    ([0] + [2**n for n in range(58)] + [math.nan], 59),
])
def test_negative_or_nonfinite_terms_are_out_of_range(coeffs, index):
    with pytest.raises(OutOfRange, match=f"^term {index} "):
        asymptotics.growth_estimate(coeffs)


def test_exact_terms_past_the_float_range():
    # c_59 ~ 1e328: math.isfinite would raise OverflowError on it
    an = asymptotics.growth_estimate([10**300 * 3**n for n in range(60)])
    assert an.rho == pytest.approx(3.0, rel=1e-9)
    assert an.const_estimate == pytest.approx(1e300, rel=1e-8)


@pytest.mark.parametrize("coeffs, name", [
    ([10**400 * 3**n for n in range(60)], "log-constant 921.03"),
    ([10**(400 * n) for n in range(60)], "log-rho 921.03"),
])
def test_a_fit_past_the_float_range_is_out_of_range(coeffs, name):
    with pytest.raises(OutOfRange, match=f"^the fitted {name}"):
        asymptotics.growth_estimate(coeffs)


@pytest.mark.parametrize("rho0, const0, name", [(0.0, 4 / math.pi, "rho0"), (16.0, 0, "const0")])
def test_verify_prediction_rejects_a_zero_reference(simple_table, rho0, const0, name):
    coeffs = counting.series(simple_table, "q00").coeffs
    with pytest.raises(OutOfRange, match=f"^{name} is 0"):
        asymptotics.verify_prediction(coeffs, rho0, -3.0, const0)


@pytest.mark.parametrize("rho0, alpha0, const0, name", [
    (math.inf, -3.0, 4 / math.pi, "rho0 is inf"),
    (-16.0, -3.0, 4 / math.pi, "rho0 is -16.0"),
    (16.0, -3.0, math.nan, "const0 is nan"),
    (16.0, -3.0, -1.0, "const0 is -1.0"),
    (16.0, math.nan, 4 / math.pi, "alpha0 is nan"),
])
def test_verify_prediction_rejects_a_bad_reference(simple_table, rho0, alpha0, const0, name):
    coeffs = counting.series(simple_table, "q00").coeffs
    with pytest.raises(OutOfRange, match=f"^{name};"):
        asymptotics.verify_prediction(coeffs, rho0, alpha0, const0)


@pytest.fixture(scope="module")
def preset_series_300():
    out = []
    for name in sorted(steps.PRESETS):
        table = counting.count(steps.preset(name), 300, dense_max=0)
        out += [(name, lab, counting.series(table, lab).coeffs)
                for lab in ("q00", "q10", "q01", "q11")]
    return out


def test_fit_matches_a_monomial_least_squares_oracle(preset_series_300):
    # the smoothed log-ratios and nodes of growth_estimate, rebuilt here
    for name, lab, coeffs in preset_series_300:
        stride, first = asymptotics.detect_stride(coeffs)
        logs = [math.log(c) for c in coeffs[first::stride]]
        lr = [b - a for a, b in zip(logs, logs[1:])]
        period = asymptotics._detect_period(lr)
        lr = asymptotics._smooth(lr, period)
        ks = [k + (period - 1) / 2 + asymptotics._SMOOTH_ROUNDS / 2 for k in range(1, len(lr) + 1)]
        basis = asymptotics._basis(ks, 4)
        q = np.array([qk for qk, _ in basis])
        assert np.abs(q @ q.T - np.eye(5)).max() <= 1e-12, (name, lab)
        estimate = asymptotics._extrapolate(lr, basis)[0]
        assert asymptotics.growth_estimate(coeffs).rho == math.exp(estimate), (name, lab)
        # independent oracle: degree-4 least squares in the monomials of 1/k
        window = q.shape[1]
        vander = np.vander(1.0 / np.array(ks[-window:]), 5, increasing=True)
        coef = np.linalg.lstsq(vander, np.array(lr[-window:]), rcond=None)[0]
        assert estimate == pytest.approx(coef[0], rel=1e-10), (name, lab)


def test_simple_walk_excursions(simple_table):
    coeffs = counting.series(simple_table, "q00").coeffs
    an = asymptotics.growth_estimate(coeffs)
    assert an.stride == 2
    assert an.rho == pytest.approx(16.0, rel=1e-7)
    assert an.alpha == pytest.approx(-3.0, abs=1e-3)
    assert an.const_estimate == pytest.approx(4 / math.pi, rel=1e-3)


def test_simple_walk_axis_and_totals(simple_table):
    axis = counting.series(simple_table, "q10").coeffs
    an = asymptotics.growth_estimate(axis)
    assert an.rho == pytest.approx(4.0, rel=1e-6)
    assert an.alpha == pytest.approx(-2.0, abs=1e-2)
    assert an.const_estimate == pytest.approx(8 / math.pi, rel=1e-2)

    total = counting.series(simple_table, "q11").coeffs
    an = asymptotics.growth_estimate(total)
    assert an.rho == pytest.approx(4.0, rel=1e-7)
    assert an.alpha == pytest.approx(-1.0, abs=1e-2)
    assert an.const_estimate == pytest.approx(4 / math.pi, rel=1e-2)


def test_verify_prediction_pass_and_fail(simple_table):
    coeffs = counting.series(simple_table, "q00").coeffs
    good = asymptotics.verify_prediction(coeffs, 16.0, -3.0, 4 / math.pi)
    assert good.ok
    bad = asymptotics.verify_prediction(coeffs, 16.0, -3.0, 1.5)  # wrong constant
    assert not bad.ok and not bad.const_ok
    assert bad.const_deviation > 0.05
    wrong_rho = asymptotics.verify_prediction(coeffs, 15.9, -3.0, 4 / math.pi)
    assert not wrong_rho.ok and not wrong_rho.rho_ok


def test_uncertainties_reported(simple_table):
    coeffs = counting.series(simple_table, "q00").coeffs
    an = asymptotics.growth_estimate(coeffs)
    assert 0 <= an.rho_uncertainty < 1e-4
    assert an.diagnostics
