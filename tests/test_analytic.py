"""The even/odd functional calculus against brute-force matrix series."""

from fractions import Fraction

import numpy as np
import pytest

from htcarnot import (
    EXP_NEG_PAIR,
    F_PAIR,
    G_PAIR,
    apply_analytic,
    l_of_v,
)
from htcarnot.geodesics import (
    _SINC_SERIES,
    _SMALL_THETA,
    _apply_f_inverse,
    _jacobian_factors,
    _poly,
    _switch,
    _unit_reach_direct,
    _unit_reach_series,
    _unit_reach_slope_direct,
    _unit_reach_slope_series,
    cos_minus_one_over_sq,
    one_minus_sinc,
    sinc,
    theta_minus_sin_over_cube,
    unit_reach,
    unit_reach_slope,
)

from conftest import seeded_covectors


def matrix_series(coeff, A, terms=64):
    """sum_m coeff(m) A^m, summed until float convergence."""
    n = A.shape[0]
    out = coeff(0) * np.eye(n)
    power = np.eye(n)
    for m in range(1, terms):
        power = power @ A
        c = coeff(m)
        if c != 0.0:
            out += c * power
    return out


def oracle_f(A):
    # (1 - e^-z)/z = sum (-1)^m z^m / (m+1)!
    from math import factorial
    return matrix_series(lambda m: (-1.0) ** m / factorial(m + 1), A)


def oracle_g(A):
    # 1 - sinh(z)/z, even series
    from math import factorial
    def coeff(m):
        if m == 0 or m % 2 == 1:
            return 0.0
        return -1.0 / factorial(m + 1)
    return matrix_series(coeff, A)


def oracle_exp_neg(A):
    from math import factorial
    return matrix_series(lambda m: (-1.0) ** m / factorial(m), A)


def oracle_f_inverse(A):
    return np.linalg.inv(oracle_f(A))


def pair_applier(pair):
    return lambda sc, v, w: apply_analytic(sc, v, pair, w)


def apply_f_inverse(sc, v, w):
    return _apply_f_inverse(sc, np.linalg.norm(v), w, l_of_v(sc, v) @ w)


@pytest.mark.parametrize("apply,oracle", [
    (pair_applier(F_PAIR), oracle_f),
    (pair_applier(G_PAIR), oracle_g),
    (pair_applier(EXP_NEG_PAIR), oracle_exp_neg),
    (apply_f_inverse, oracle_f_inverse),
], ids=["f", "g", "exp-neg", "f-inv"])
def test_pairs_match_matrix_series(group, apply, oracle):
    rng = np.random.default_rng(21)
    for u, v in seeded_covectors(group, 10, stream=3):
        mat = oracle(l_of_v(group, v))
        w = rng.standard_normal(group.rank)
        expected = mat @ w
        got = apply(group, v, w)
        assert np.max(np.abs(got - expected)) <= 1e-10


def test_pairs_at_zero_momentum(group):
    w = np.arange(1.0, group.rank + 1.0)
    zero = np.zeros(group.corank)
    assert np.array_equal(apply_analytic(group, zero, F_PAIR, w), w)
    assert np.array_equal(apply_analytic(group, zero, G_PAIR, w), np.zeros_like(w))
    assert np.array_equal(apply_analytic(group, zero, EXP_NEG_PAIR, w), w)


def _factor(index):
    # one factor of _jacobian_factors on a single block, alpha = 1 and
    # m = 1/2: pref = sinc(theta/2), a = h3(theta)/2 and b = tau(theta)
    scale = (1.0, 2.0, 1.0)[index]

    def factor(theta):
        th = np.asarray(theta, dtype=np.float64)
        out = _jacobian_factors(np.ones(1), 0.5, th[..., None])[index]
        out = scale * (out if index == 0 else out[..., 0])
        return float(out) if th.ndim == 0 else out

    return factor


factor_tau = _factor(2)


def test_scalar_helpers_reference_values():
    # spot values against direct evaluation well away from 0
    th = 1.3
    assert sinc(th) == pytest.approx(np.sin(th) / th, rel=1e-15)
    assert one_minus_sinc(th) == pytest.approx(1 - np.sin(th) / th, rel=1e-15)
    assert cos_minus_one_over_sq(th) == pytest.approx((np.cos(th) - 1) / th**2, rel=1e-15)
    assert theta_minus_sin_over_cube(th) == pytest.approx((th - np.sin(th)) / th**3,
                                                          rel=1e-15)
    x = th / 2
    expected = (np.sin(x) - x * np.cos(x)) / (4 * x * x * np.sin(x))
    assert factor_tau(th) == pytest.approx(expected, rel=1e-15)


def test_scalar_helpers_limits_at_zero():
    assert sinc(0.0) == 1.0
    assert one_minus_sinc(0.0) == 0.0
    assert cos_minus_one_over_sq(0.0) == -0.5
    assert theta_minus_sin_over_cube(0.0) == pytest.approx(1.0 / 6.0, abs=1e-18)
    assert factor_tau(0.0) == pytest.approx(1.0 / 12.0, abs=1e-18)
    assert unit_reach(0.0) == 0.0
    assert unit_reach_slope(0.0) == 1.0 / 12.0


def _taylor(theta, coeffs):
    # reference even polynomial; each term is exact to an ulp and the
    # truncation error is far below double precision on [0, 3e-4]
    th2 = theta * theta
    total = 0.0
    for c in reversed(coeffs):
        total = total * th2 + c
    return total


@pytest.mark.parametrize("fn,coeffs", [
    (sinc, [1.0, -1 / 6, 1 / 120, -1 / 5040]),
    (one_minus_sinc, [0.0, 1 / 6, -1 / 120, 1 / 5040]),
    (cos_minus_one_over_sq, [-0.5, 1 / 24, -1 / 720, 1 / 40320]),
    (theta_minus_sin_over_cube, [1 / 6, -1 / 120, 1 / 5040, -1 / 362880]),
    (factor_tau, [1 / 12, 1 / 720, 1 / 30240, 1 / 1209600]),
], ids=["sinc", "one-minus-sinc", "cosm1", "h3", "tau"])
def test_series_branch_accuracy_across_switch(fn, coeffs):
    # values straddling 1e-4, where the direct forms lose up to 7 digits to
    # cancellation
    for th in (1e-6, 5e-5, 9.9e-5, 1.01e-4, 1.5e-4, 3e-4):
        ref = _taylor(th, coeffs)
        assert fn(th) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("fn", [sinc, one_minus_sinc, cos_minus_one_over_sq,
                                theta_minus_sin_over_cube, factor_tau,
                                unit_reach, unit_reach_slope, _factor(0), _factor(1)],
                         ids=["sinc", "one-minus-sinc", "cosm1", "h3", "tau", "phi",
                              "phi-slope", "factor-sinc-half", "factor-h3"])
def test_branch_switch_is_smooth_without_cancellation(fn):
    # crossing the series/direct threshold at 0.5 must leave no visible kink
    probe = np.linspace(0.5 - 2e-5, 0.5 + 2e-5, 41)
    second = np.diff(fn(probe), n=2)
    assert np.max(np.abs(second)) < 1e-11


def _fraction_sin_cos(theta):
    # sin and cos of the float theta as exact 40-term Taylor sums; the
    # truncation is below 1e-45 relative on (0, 2 pi)
    x = Fraction(theta)
    sin, cos, term = Fraction(0), Fraction(0), Fraction(1)
    for n in range(80):
        if n % 2 == 0:
            cos += (-1) ** (n // 2) * term
        else:
            sin += (-1) ** (n // 2) * term
        term = term * x / (n + 1)
    return sin, cos


def _reference(theta):
    # the six helpers and the three factors of J from their defining
    # expressions, in exact arithmetic
    t = Fraction(theta)
    sin, cos = _fraction_sin_cos(theta)
    half_sin, half_cos = _fraction_sin_cos(theta / 2)
    x = t / 2
    h3 = (t - sin) / (t * t * t)
    tau = (half_sin - x * half_cos) / (4 * x * x * half_sin)
    return {
        "sinc": sin / t,
        "cosm1": (cos - 1) / (t * t),
        "one-minus-sinc": 1 - sin / t,
        "h3": h3,
        "phi": (t - sin) / (4 * (1 - cos)),
        "phi-slope": (half_sin - x * half_cos) / (4 * half_sin**3),
        "factor-sinc-half": half_sin / x,
        "factor-h3": h3,
        "factor-tau": tau,
    }


_HELPERS = {"sinc": sinc, "cosm1": cos_minus_one_over_sq, "one-minus-sinc": one_minus_sinc,
            "h3": theta_minus_sin_over_cube, "phi": unit_reach,
            "phi-slope": unit_reach_slope, "factor-sinc-half": _factor(0),
            "factor-h3": _factor(1), "factor-tau": factor_tau}


def test_scalar_helpers_against_exact_reference():
    # dense around 1e-4 and around the switch at 0.5, then out to just below
    # 2 pi, where cos - 1, sin and the tau denominator vanish
    thetas = np.concatenate((
        np.geomspace(1e-7, 6.28, 60),
        np.linspace(0.45, 0.55, 21),
        np.nextafter(0.5, [0.0, 1.0]),
        [9.99e-5, 1.0001e-4, 0.1, 0.1001, 0.13, np.pi, 6.283, 2 * np.pi * (1 - 1e-9)],
    ))
    worst = {name: 0.0 for name in _HELPERS}
    for th in thetas:
        th = float(th)
        for name, exact in _reference(th).items():
            got = _HELPERS[name](th)
            err = abs(Fraction(got) - exact) / abs(exact)
            worst[name] = max(worst[name], float(err))
    assert max(worst.values()) <= 2e-13, worst


@pytest.mark.parametrize("direct, series", [
    (lambda t: np.sin(t) / t, lambda t: _poly(t, *_SINC_SERIES)),
    (_unit_reach_direct, _unit_reach_series),
    (_unit_reach_slope_direct, _unit_reach_slope_series),
], ids=["sinc", "phi", "phi-slope"])
@pytest.mark.parametrize("theta", [
    np.float64(0.3), np.float64(1.3), np.array(0.0),
    np.array([0.0, 0.1, -0.4, 0.49]),
    np.array([0.5, 0.9, 2.0, 6.2]),
    np.array([0.0, 0.0, 0.49, 0.5, 3.0, -0.7]),
], ids=["0d-small", "0d-large", "0d-zero", "all-small", "all-large", "mixed"])
def test_switch_matches_the_two_branch_form_bit_for_bit(direct, series, theta):
    # the count of small angles only skips a branch that no entry needs, so
    # every input gets the bits of the two-branch np.where form
    th = np.asarray(theta, dtype=np.float64)
    small = np.abs(th) < _SMALL_THETA
    expected = np.where(small, series(th), direct(np.where(small, 1.0, th)))
    got = _switch(theta, direct, series)
    assert isinstance(got, float) == (th.ndim == 0)
    assert np.asarray(got).tobytes() == expected.tobytes()


def test_vector_and_scalar_agree():
    thetas = np.array([0.0, 1e-5, 0.3, 2.0])
    vec = sinc(thetas)
    for th, expect in zip(thetas, vec):
        assert sinc(float(th)) == expect
