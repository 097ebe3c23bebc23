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
    _apply_f_inverse,
    cos_minus_one_over_sq,
    half_angle_defect,
    one_minus_sinc,
    sinc,
    theta_minus_sin_over_cube,
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


def test_scalar_helpers_reference_values():
    # spot values against direct evaluation well away from 0
    th = 1.3
    assert sinc(th) == pytest.approx(np.sin(th) / th, rel=1e-15)
    assert one_minus_sinc(th) == pytest.approx(1 - np.sin(th) / th, rel=1e-15)
    assert cos_minus_one_over_sq(th) == pytest.approx((np.cos(th) - 1) / th**2, rel=1e-15)
    assert theta_minus_sin_over_cube(th) == pytest.approx((th - np.sin(th)) / th**3,
                                                          rel=1e-15)
    x = th / 2
    tau = (np.sin(x) - x * np.cos(x)) / (4 * x * x * np.sin(x))
    assert half_angle_defect(th) == pytest.approx(tau, rel=1e-15)


def test_scalar_helpers_limits_at_zero():
    assert sinc(0.0) == 1.0
    assert one_minus_sinc(0.0) == 0.0
    assert cos_minus_one_over_sq(0.0) == -0.5
    assert theta_minus_sin_over_cube(0.0) == pytest.approx(1.0 / 6.0, abs=1e-18)
    assert half_angle_defect(0.0) == pytest.approx(1.0 / 12.0, abs=1e-18)


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
    (half_angle_defect, [1 / 12, 1 / 720, 1 / 30240, 1 / 1209600]),
], ids=["sinc", "one-minus-sinc", "cosm1", "h3", "tau"])
def test_series_branch_accuracy_across_switch(fn, coeffs):
    # values straddling 1e-4, where the direct forms lose up to 7 digits to
    # cancellation
    for th in (1e-6, 5e-5, 9.9e-5, 1.01e-4, 1.5e-4, 3e-4):
        ref = _taylor(th, coeffs)
        assert fn(th) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("fn", [sinc, one_minus_sinc, cos_minus_one_over_sq,
                                theta_minus_sin_over_cube, half_angle_defect],
                         ids=["sinc", "one-minus-sinc", "cosm1", "h3", "tau"])
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
    # the five helpers from their defining expressions, in exact arithmetic
    t = Fraction(theta)
    sin, cos = _fraction_sin_cos(theta)
    half_sin, half_cos = _fraction_sin_cos(theta / 2)
    x = t / 2
    return {
        "sinc": sin / t,
        "cosm1": (cos - 1) / (t * t),
        "one-minus-sinc": 1 - sin / t,
        "h3": (t - sin) / (t * t * t),
        "tau": (half_sin - x * half_cos) / (4 * x * x * half_sin),
    }


_HELPERS = {"sinc": sinc, "cosm1": cos_minus_one_over_sq, "one-minus-sinc": one_minus_sinc,
            "h3": theta_minus_sin_over_cube, "tau": half_angle_defect}


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


def test_vector_and_scalar_agree():
    thetas = np.array([0.0, 1e-5, 0.3, 2.0])
    vec = sinc(thetas)
    for th, expect in zip(thetas, vec):
        assert sinc(float(th)) == expect
