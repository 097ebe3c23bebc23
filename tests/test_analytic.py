"""The even/odd functional calculus against brute-force matrix series."""

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


@pytest.mark.parametrize("fn,coeffs,rel", [
    (sinc, [1.0, -1 / 6, 1 / 120, -1 / 5040], 1e-13),
    (one_minus_sinc, [0.0, 1 / 6, -1 / 120, 1 / 5040], 1e-10),
    (cos_minus_one_over_sq, [-0.5, 1 / 24, -1 / 720, 1 / 40320], 5e-8),
    (theta_minus_sin_over_cube, [1 / 6, -1 / 120, 1 / 5040, -1 / 362880], 5e-8),
    (half_angle_defect, [1 / 12, 1 / 720, 1 / 30240, 1 / 1209600], 2e-7),
], ids=["sinc", "one-minus-sinc", "cosm1", "h3", "tau"])
def test_series_branch_accuracy_across_switch(fn, coeffs, rel):
    # values straddling the 1e-4 branch threshold: the series side is exact
    # to rounding, while the direct side loses digits to cancellation; each
    # function gets the tolerance its cancellation structure allows (about
    # 8 digits for the single-difference forms, 7 for the tau double form)
    for th in (1e-6, 5e-5, 9.9e-5, 1.01e-4, 1.5e-4, 3e-4):
        ref = _taylor(th, coeffs)
        assert fn(th) == pytest.approx(ref, rel=rel)


@pytest.mark.parametrize("fn", [sinc, one_minus_sinc],
                         ids=["sinc", "one-minus-sinc"])
def test_branch_switch_is_smooth_without_cancellation(fn):
    # these two have no subtractive cancellation, so crossing the threshold
    # must leave no visible kink
    probe = np.linspace(8e-5, 1.2e-4, 41)
    second = np.diff(fn(probe), n=2)
    assert np.max(np.abs(second)) < 1e-11


def test_vector_and_scalar_agree():
    thetas = np.array([0.0, 1e-5, 0.3, 2.0])
    vec = sinc(thetas)
    for th, expect in zip(thetas, vec):
        assert sinc(float(th)) == expect
