"""The functions of L_v against brute-force matrix series, and the factors
that the callers derive from the one half-angle kernel against exact values."""

from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import pytest

from htcarnot import Covector, exp_map, l_of_v
from htcarnot.geodesics import (
    _SINC_SERIES,
    _SMALL_THETA,
    _apply_f_inverse,
    _f_parts,
    _half_angle,
    _half_angle_direct,
    _half_angle_series,
    _jacobian_factors,
    _phi,
    _poly,
    _switch,
)

from conftest import matrix_series, oracle_exp_neg, seeded_covectors


def oracle_f(A):
    # (1 - e^-z)/z = sum (-1)^m z^m / (m+1)!
    return matrix_series(lambda m: (-1.0) ** m / factorial(m + 1), A)


def oracle_g(A):
    # 1 - sinh(z)/z, even series
    def coeff(m):
        if m == 0 or m % 2 == 1:
            return 0.0
        return -1.0 / factorial(m + 1)
    return matrix_series(coeff, A)


# each row: the library's value at (v, w) and its matrix-series oracle
def exp_x(sc, v, w):
    # x = f(L_v) w
    return exp_map(sc, Covector(w, v)).x


def exp_z(sc, v, w):
    # z = (g(L_v) w . w) / (2 |v|^2) v
    return exp_map(sc, Covector(w, v)).z


def exp_neg_from_exp(sc, v, w):
    # e^-z = 1 - z f(z), so e^-L_v w = w - L_v x
    return w - l_of_v(sc, v) @ exp_x(sc, v, w)


def apply_f_inverse(sc, v, w):
    # with the factors at the angles s_c |v| off ker S, as log takes them
    factors = _f_parts(np.linalg.norm(v) * sc.s_diag[sc.s_positive])[:2]
    return _apply_f_inverse(sc, w, l_of_v(sc, v) @ w, *factors)


def series_f(sc, v, w):
    return oracle_f(l_of_v(sc, v)) @ w


def series_g(sc, v, w):
    return (oracle_g(l_of_v(sc, v)) @ w @ w) / (2.0 * (v @ v)) * v


def series_exp_neg(sc, v, w):
    return oracle_exp_neg(l_of_v(sc, v)) @ w


def series_f_inverse(sc, v, w):
    return np.linalg.inv(oracle_f(l_of_v(sc, v))) @ w


@pytest.mark.parametrize("apply,oracle", [
    (exp_x, series_f),
    (exp_z, series_g),
    (exp_neg_from_exp, series_exp_neg),
    (apply_f_inverse, series_f_inverse),
], ids=["f", "g", "exp-neg", "f-inv"])
def test_pairs_match_matrix_series(group, apply, oracle):
    rng = np.random.default_rng(21)
    for u, v in seeded_covectors(group, 10, stream=3):
        w = rng.standard_normal(group.rank)
        expected = oracle(group, v, w)
        got = apply(group, v, w)
        assert np.max(np.abs(got - expected)) <= 1e-10


def test_pairs_at_zero_momentum(group):
    # at v = 0, f and f^-1 are the identity, g vanishes and e^-L_v = 1, exactly
    w = np.arange(1.0, group.rank + 1.0)
    zero = np.zeros(group.corank)
    assert np.array_equal(exp_x(group, zero, w), w)
    assert np.array_equal(exp_z(group, zero, w), zero)
    assert np.array_equal(exp_neg_from_exp(group, zero, w), w)
    assert np.array_equal(apply_f_inverse(group, zero, w), w)


def _scalar(fn):
    # fn on an array of angles; a float angle gives a float
    def factor(theta):
        th = np.asarray(theta, dtype=np.float64)
        out = fn(th)
        return float(out) if th.ndim == 0 else out

    return factor


# the factors of exp and f(L_v)^-1, derived from the kernel as those callers
# derive them: sinc(theta) and the odd part (cos theta - 1)/theta^2 of f, the
# even part 1 - sinc(theta) = theta (theta h3(theta)) of g, and h3 itself,
# which the vertical reach and the cut-locus coefficient take
sinc = _scalar(lambda th: _f_parts(th)[0])
cos_minus_one_over_sq = _scalar(lambda th: -0.5 * _f_parts(th)[1] ** 2)
one_minus_sinc = _scalar(lambda th: th * (th * _f_parts(th)[2]))
h3 = _scalar(lambda th: _half_angle(th)[1])
# log's phi and phi', as its vertical reach F and slope F' take them
phi = _scalar(lambda th: _phi(th)[0])
phi_slope = _scalar(lambda th: _phi(th)[1])


def _phi_from(branch, index):
    # phi (index 0) or phi' (index 1) from one branch of the kernel
    def derived(t):
        sinc_half, h3, tau = branch(t)
        sq = sinc_half * sinc_half
        return (0.5 * t * h3, tau)[index] / sq

    return derived


def _factor(index):
    # one factor of _jacobian_factors on a single block, alpha = 1 and
    # m = 1/2: pref = sinc(theta/2), a = h3(theta)/2 and b = tau(theta)
    scale = (1.0, 2.0, 1.0)[index]

    def factor(th):
        out = _jacobian_factors(np.ones(1), 0.5, th[..., None])[index]
        return scale * (out if index == 0 else out[..., 0])

    return _scalar(factor)


factor_tau = _factor(2)


def test_scalar_helpers_reference_values():
    # spot values against direct evaluation well away from 0
    th = 1.3
    assert sinc(th) == pytest.approx(np.sin(th) / th, rel=1e-15)
    assert one_minus_sinc(th) == pytest.approx(1 - np.sin(th) / th, rel=1e-15)
    assert cos_minus_one_over_sq(th) == pytest.approx((np.cos(th) - 1) / th**2, rel=1e-15)
    assert h3(th) == pytest.approx((th - np.sin(th)) / th**3, rel=1e-15)
    x = th / 2
    expected = (np.sin(x) - x * np.cos(x)) / (4 * x * x * np.sin(x))
    assert factor_tau(th) == pytest.approx(expected, rel=1e-15)


def test_scalar_helpers_limits_at_zero():
    assert sinc(0.0) == 1.0
    assert one_minus_sinc(0.0) == 0.0
    assert cos_minus_one_over_sq(0.0) == -0.5
    assert h3(0.0) == pytest.approx(1.0 / 6.0, abs=1e-18)
    assert factor_tau(0.0) == pytest.approx(1.0 / 12.0, abs=1e-18)
    assert phi(0.0) == 0.0
    assert phi_slope(0.0) == 1.0 / 12.0


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
    (h3, [1 / 6, -1 / 120, 1 / 5040, -1 / 362880]),
    (factor_tau, [1 / 12, 1 / 720, 1 / 30240, 1 / 1209600]),
], ids=["sinc", "one-minus-sinc", "cosm1", "h3", "tau"])
def test_series_branch_accuracy_across_switch(fn, coeffs):
    # values straddling 1e-4, where the direct forms lose up to 7 digits to
    # cancellation
    for th in (1e-6, 5e-5, 9.9e-5, 1.01e-4, 1.5e-4, 3e-4):
        ref = _taylor(th, coeffs)
        assert fn(th) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("fn", [sinc, one_minus_sinc, cos_minus_one_over_sq, h3, factor_tau,
                                phi, phi_slope, _factor(0), _factor(1)],
                         ids=["sinc", "one-minus-sinc", "cosm1", "h3", "tau", "phi",
                              "phi-slope", "factor-sinc-half", "factor-h3"])
def test_branch_switch_is_smooth_without_cancellation(fn):
    # crossing the series/direct threshold at 0.5 must leave no visible kink
    probe = np.linspace(0.5 - 2e-5, 0.5 + 2e-5, 41)
    second = np.diff(fn(probe), n=2)
    assert np.max(np.abs(second)) < 1e-11


def _fraction(value):
    # an mpmath float as the exact fraction it represents
    return int(mpmath.sign(value)) * Fraction(int(value.man)) * Fraction(2) ** int(value.exp)


def _fraction_sin_cos(theta):
    # sin and cos of the float theta to 60 digits, as exact fractions
    with mpmath.workdps(60):
        x = mpmath.mpf(theta)
        return _fraction(mpmath.sin(x)), _fraction(mpmath.cos(x))


def _reference(theta):
    # the derived factors, log's phi and phi' and the three factors of J from
    # their defining expressions, in exact arithmetic
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
            "h3": h3, "phi": phi,
            "phi-slope": phi_slope, "factor-sinc-half": _factor(0),
            "factor-h3": _factor(1), "factor-tau": factor_tau}
# exp is total, so its factors are also checked beyond 2 pi, where phi, phi'
# and tau have their first pole
_EXP_SIDE = ("sinc", "cosm1", "one-minus-sinc", "h3")


def test_scalar_helpers_against_exact_reference():
    # dense around 1e-4 and around the switch at 0.5, then out to just below
    # 2 pi, where cos - 1, sin and the tau denominator vanish; the exp-side
    # factors then on to 1e3, through zeros of sin and cos
    thetas = np.concatenate((
        np.geomspace(1e-7, 6.28, 60),
        np.linspace(0.45, 0.55, 21),
        np.nextafter(0.5, [0.0, 1.0]),
        [9.99e-5, 1.0001e-4, 0.1, 0.1001, 0.13, np.pi, 6.283, 2 * np.pi * (1 - 1e-9)],
    ))
    beyond = np.concatenate((np.geomspace(2 * np.pi, 1e3, 40), np.pi * np.array([3.0, 4.0, 101.0])))
    worst = {name: 0.0 for name in _HELPERS}
    for th in thetas.tolist() + beyond.tolist():
        names = _HELPERS if th < 2 * np.pi else _EXP_SIDE
        for name, exact in _reference(th).items():
            if name not in names:
                continue
            got = _HELPERS[name](th)
            err = abs(Fraction(got) - exact) / abs(exact)
            worst[name] = max(worst[name], float(err))
    assert max(worst.values()) <= 2e-13, worst


@pytest.mark.parametrize("direct, series", [
    (lambda t: np.sin(t) / t, lambda t: _poly(t, *_SINC_SERIES)),
    (_phi_from(_half_angle_direct, 0), _phi_from(_half_angle_series, 0)),
    (_phi_from(_half_angle_direct, 1), _phi_from(_half_angle_series, 1)),
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
    # a Python float runs the same formulas on math's sin and cos, and gets
    # the bits of its entry in a mixed array, with and without cos(theta/2):
    # seeded angles in [0, 2 pi) and log-uniform up to the float range, both
    # sides of the switch at 0.5, the last float below 2 pi, 2^64 (exp's
    # switch to 1/theta), the angles near 7e102 where h3's cube overflows,
    # the largest float and subnormals
    rng = np.random.default_rng(2301)
    switch, top = _SMALL_THETA, np.nextafter(2.0 * np.pi, 0.0)
    big = np.finfo(np.float64).max
    thetas = np.concatenate((
        [0.0, 1e-5, 0.3, 2.0, np.nextafter(switch, 0.0), switch,
         np.nextafter(switch, 1.0), top, np.nextafter(top, 0.0)],
        [5e-324, 1e-310, np.nextafter(np.finfo(np.float64).tiny, 0.0)],
        [2.0**64, np.nextafter(2.0**64, 0.0), 7e102, 7.2e102, 1e200, big, np.nextafter(big, 0.0)],
        rng.uniform(0.0, 2.0 * np.pi, 2000),
        rng.uniform(0.45, 0.55, 200),
        10.0 ** rng.uniform(0.0, 308.0, 2000),
    ))
    for with_cos in (False, True):
        with np.errstate(over="ignore"):
            vec = np.asarray(_half_angle(thetas, with_cos))
        assert len(vec) == 3 + with_cos
        for th, expect in zip(thetas.tolist(), vec.T):
            got = _half_angle(th, with_cos)
            assert all(type(g) is float for g in got)
            assert np.array(got).tobytes() == expect.tobytes()


def test_f_parts_takes_the_cosine_of_the_kernel():
    # sinc(theta) = sinc(theta/2) cos(theta/2) with the cosine of the
    # kernel's direct branch, and the series branch's own: the bits of
    # np.cos(0.5 theta) on all-small, all-large and mixed arrays and on floats
    rng = np.random.default_rng(2603)
    mixed = np.concatenate(([0.0, _SMALL_THETA], rng.uniform(0.0, 2.0 * np.pi, 500),
                            rng.uniform(0.45, 0.55, 100)))
    for thetas in (mixed, mixed[mixed < _SMALL_THETA], mixed[mixed >= _SMALL_THETA]):
        sinc, sinc_half, _ = _f_parts(thetas)
        assert sinc.tobytes() == (sinc_half * np.cos(0.5 * thetas)).tobytes()
        for th, want in zip(thetas.tolist(), sinc.tolist()):
            assert np.float64(_f_parts(th)[0]).tobytes() == np.float64(want).tobytes()
