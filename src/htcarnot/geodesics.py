"""Optimal geodesic synthesis: exponential map, Jacobian, log map, distances.

S is diagonal and L_v squares to -|v|^2 S^2, so every analytic function of
L_v acts on horizontal coordinate c as even(theta_c) + odd(theta_c) L_v,
with the per-coordinate angle theta_c = s_c |v| (s = diag S).  On ker S,
theta_c = 0 and L_v vanishes.  Everything here therefore reduces to scalar
functions of these angles, evaluated on all coordinates at once.  Each
scalar helper whose direct form cancels near 0 switches to its Taylor
series below theta = 0.5, so all removable singularities at v = 0 evaluate
to their exact limits and both sides of the switch are accurate to a few
units in the last place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    CutLocusTarget,
    DimensionMismatch,
    IdentityTarget,
    NoCandidateFound,
    OutOfDomain,
    ZeroCovector,
)
from .group import GroupPoint, _check_point, inverse, multiply
from .structure import StructureConstants, l_of_v

_SMALL_THETA = 0.5

# exp and log are dilation-equivariant, exp(eps u, v) = delta_eps exp(u, v)
# and log(delta_eps p) = (eps u, v) with delta_eps (x, z) = (eps x, eps^2 z),
# and in range a power of two scales every rounding exactly.  So exp works on
# u dilated to unit scale, and log on targets dilated to unit scale where
# their coordinates or squares would leave the normal float range: log's
# endpoint tolerance, 1e-10 max(1, |target|), is not dilation-invariant, so
# only targets outside the band are dilated.  The band leaves room for the
# weights that multiply the squares.
_SCALE_BAND = (2.0**-400, 2.0**400)

# Taylor coefficients of sinc, of h3 = (theta - sin theta)/theta^3 (so also
# of (1 - sinc)/theta^2), both in theta^2, and of (1 - x cot x)/x^2 in x^2;
# at |theta| < 0.5 the first omitted term is below 1e-17 relative
_SINC_SERIES = (1.0, -1.0 / 6, 1.0 / 120, -1.0 / 5040, 1.0 / 362880, -1.0 / 39916800,
                1.0 / 6227020800, -1.0 / 1307674368000)
_H3_SERIES = (1.0 / 6, -1.0 / 120, 1.0 / 5040, -1.0 / 362880, 1.0 / 39916800,
              -1.0 / 6227020800, 1.0 / 1307674368000, -1.0 / 355687428096000)
_COT_SERIES = (1.0 / 3, 1.0 / 45, 2.0 / 945, 1.0 / 4725, 2.0 / 93555,
               1382.0 / 638512875, 4.0 / 18243225, 3617.0 / 162820783125)
# Taylor coefficients of unit_reach(theta)/theta and of unit_reach_slope, both
# in theta^2; their pole at 2 pi makes each term about (0.5/(2 pi))^2 times
# the one before it at |theta| < 0.5
_REACH_SERIES = (1.0 / 12, 1.0 / 360, 1.0 / 10080, 1.0 / 302400, 1.0 / 9580032,
                 691.0 / 217945728000, 1.0 / 10674892800, 3617.0 / 1333827855360000,
                 43867.0 / 567677135241216000)
_REACH_SLOPE_SERIES = (1.0 / 12, 1.0 / 120, 1.0 / 2016, 1.0 / 43200, 1.0 / 1064448,
                       691.0 / 19813248000, 1.0 / 821145600, 3617.0 / 88921857024000,
                       43867.0 / 33392772661248000)


def _switch(theta, direct: Callable, series: Callable):
    # Evaluate `direct` away from 0 and `series` below the cancellation
    # threshold; `direct` never sees 0.  One count of the small angles picks
    # the branch, so only a mixed array evaluates both.  For an array theta
    # both may return a tuple of arrays, which comes back stacked on a new
    # first axis.
    th = np.asarray(theta, dtype=np.float64)
    small = np.abs(th) < _SMALL_THETA
    count = np.count_nonzero(small)
    if count == 0:
        out = direct(th)
    elif count == th.size:
        out = series(th)
    else:
        out = np.where(small, series(th), direct(np.where(small, 1.0, th)))
    return float(out) if th.ndim == 0 else out


def sinc(theta):
    """sin(theta)/theta with the limit 1 at 0."""
    return _switch(theta, lambda t: np.sin(t) / t, lambda t: _poly(t, *_SINC_SERIES))


def cos_minus_one_over_sq(theta):
    """(cos(theta) - 1)/theta^2 with the limit -1/2 at 0.

    Evaluated as -sinc(theta/2)^2 / 2, which does not cancel near 0 or near
    2 pi, where cos(theta) - 1 vanishes.
    """
    return -0.5 * sinc(0.5 * np.asarray(theta, dtype=np.float64)) ** 2


def one_minus_sinc(theta):
    """1 - sin(theta)/theta; vanishes to second order at 0."""
    return _switch(
        theta,
        lambda t: 1.0 - np.sin(t) / t,
        lambda t: t * t * _poly(t, *_H3_SERIES),
    )


def theta_minus_sin_over_cube(theta):
    """(theta - sin(theta))/theta^3 with the limit 1/6 at 0."""
    return _switch(
        theta,
        lambda t: (t - np.sin(t)) / (t * t * t),
        lambda t: _poly(t, *_H3_SERIES),
    )


def _unit_reach_direct(t):
    x = 0.5 * t
    sin = np.sin(x)
    return (x - sin * np.cos(x)) / (4.0 * sin * sin)


def _unit_reach_series(t):
    return t * _poly(t, *_REACH_SERIES)


def unit_reach(theta):
    """phi(theta) = (theta - sin theta) / (4 (1 - cos theta)); limit 0 at 0.

    The vertical reach at radius theta of one horizontal coordinate with
    rate s_c = 1 and x_c = 1: log_map's F(r) is sum_c s_c x_c^2 phi(s_c r).
    Evaluated at x = theta/2 as (x - sin x cos x) / (4 sin^2 x), which does
    not cancel near the pole at 2 pi.
    """
    return _switch(theta, _unit_reach_direct, _unit_reach_series)


def _unit_reach_slope_direct(t):
    x = 0.5 * t
    sin = np.sin(x)
    return (sin - x * np.cos(x)) / (4.0 * sin * sin * sin)


def _unit_reach_slope_series(t):
    return _poly(t, *_REACH_SLOPE_SERIES)


def unit_reach_slope(theta):
    """phi'(theta) = (sin x - x cos x) / (4 sin^3 x) at x = theta/2; limit 1/12 at 0."""
    return _switch(theta, _unit_reach_slope_direct, _unit_reach_slope_series)


def _poly(t, *coeffs):
    # even polynomial sum c_i * t^(2i), Horner on t^2
    t2 = t * t
    acc = coeffs[-1] * t2 + coeffs[-2]
    for c in coeffs[-3::-1]:
        acc = acc * t2 + c
    return acc


@dataclass(frozen=True)
class AnalyticPair:
    """Even/odd scalar decomposition of an analytic function of L_v.

    On horizontal coordinate c, with angle theta_c = s_c |v|, the matrix
    function acts as even_part(theta_c) * I + odd_part(theta_c) * L_v.
    """

    name: str
    even_part: Callable
    odd_part: Callable


def _zero(theta):
    th = np.asarray(theta, dtype=np.float64)
    return 0.0 if th.ndim == 0 else np.zeros_like(th)


def _cos(theta):
    th = np.asarray(theta, dtype=np.float64)
    out = np.cos(th)
    return float(out) if out.ndim == 0 else out


def _neg_sinc(theta):
    return -sinc(theta)


# (1 - e^-z)/z: the endpoint map for the horizontal coordinates
F_PAIR = AnalyticPair("f", sinc, cos_minus_one_over_sq)
# 1 - sinh(z)/z: the quadratic form giving the vertical coordinates; even
G_PAIR = AnalyticPair("g", one_minus_sinc, _zero)
# e^-z: the momentum flow h_x(t) = expneg(t L_v) u
EXP_NEG_PAIR = AnalyticPair("exp-neg", _cos, _neg_sinc)


@dataclass(frozen=True, eq=False)
class Covector:
    """Initial covector (u, v): horizontal and vertical momenta at the identity."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=np.float64))
        v = np.atleast_1d(np.asarray(self.v, dtype=np.float64))
        if not all(map(math.isfinite, u.tolist() + v.tolist())):
            raise ValueError(f"covector components must be finite, got u={u}, v={v}")
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def scale(self, t: float) -> "Covector":
        return Covector(t * self.u, t * self.v)

    def as_vector(self) -> np.ndarray:
        return np.concatenate((self.u, self.v))

    @staticmethod
    def from_vector(w, rank: int) -> "Covector":
        w = np.asarray(w, dtype=np.float64)
        return Covector(w[:rank], w[rank:])

    def __repr__(self):
        return f"Covector(u={self.u.tolist()}, v={self.v.tolist()})"


def _dilation_exponent(scale: float) -> int:
    # e with scale 2^-e in [0.5, 1), and 0 for a scale of 0: the exact power
    # of two that brings a scale to unit size
    return math.frexp(scale)[1]


def _check_covector(sc, lam: Covector):
    if lam.u.shape != (sc.rank,) or lam.v.shape != (sc.corank,):
        raise DimensionMismatch(
            f"covector has shapes u{lam.u.shape}, v{lam.v.shape}; expected "
            f"({sc.rank},), ({sc.corank},)"
        )


def apply_analytic(sc: StructureConstants, v, fn: AnalyticPair, w) -> np.ndarray:
    """Evaluate fn(L_v) w as even(theta) w + odd(theta) L_v w, theta = s |v|."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    # a public entry point that takes raw arrays, so it owns their shape check
    if v.shape != (sc.corank,) or w.shape != (sc.rank,):
        raise DimensionMismatch(
            f"shapes v{v.shape}, w{w.shape}; expected ({sc.corank},), ({sc.rank},)"
        )
    theta = sc.s_diag * float(np.linalg.norm(v))
    return fn.even_part(theta) * w + fn.odd_part(theta) * (l_of_v(sc, v) @ w)


def _exp_rows(sc, u, v):
    # exp at the covectors (u_i, v_i), the rows of u (m, k) and v (m, p).
    # Only elementwise products and row sums are used, so the bits of a row
    # do not depend on the other rows: geodesic_sample matches exp_map.
    # z = (1/2) sum_c s_c^2 h3(theta_c) u_c^2 v, the sum of _vertical_reach;
    # + 0.0 turns the -0.0 of t = 0 rows (t u and t v) into 0.0 in x and z.
    # On ker S, f(L_v) is the identity and s_c^2 = 0, so the scalar helpers
    # only see the coordinates with s_c > 0.  u is dilated to unit scale
    # first, so that its squares stay in the normal range (see _SCALE_BAND).
    e = _dilation_exponent(float(np.abs(u).max())) if u.size else 0
    u = np.ldexp(u, -e)
    pos = sc.s_positive
    s = sc.s_diag[pos]
    theta = np.linalg.norm(v, axis=1, keepdims=True) * s
    lv = np.sum(v[:, :, None, None] * sc.L, axis=1)
    lu = np.sum(lv * u[:, None, :], axis=2)
    up = u[:, pos]
    x = u.copy()
    x[:, pos] = F_PAIR.even_part(theta) * up + F_PAIR.odd_part(theta) * lu[:, pos]
    reach = np.sum((s * s * theta_minus_sin_over_cube(theta)) * (up * up), axis=1,
                   keepdims=True)
    # an endpoint beyond the float range becomes inf, which GroupPoint rejects
    with np.errstate(over="ignore"):
        x, z = np.ldexp(x, e), np.ldexp(0.5 * reach * v, 2 * e)
    return x + 0.0, z + 0.0


def exp_map(sc: StructureConstants, lam: Covector) -> GroupPoint:
    """Endpoint at time 1 of the normal geodesic with initial covector lam.

    The horizontal part is f(L_v) u with f(z) = (1 - e^-z)/z; the vertical
    part is the quadratic form (g(L_v) u . u) / (2 |v|^2) times v, with
    g(z) = 1 - sinh(z)/z, evaluated as (1/2) sum_c s_c^2 h3(theta_c) u_c^2
    times v (h3 = theta_minus_sin_over_cube).  Total and smooth on all of
    R^k x R^p.
    """
    _check_covector(sc, lam)
    x, z = _exp_rows(sc, lam.u[None], lam.v[None])
    return GroupPoint(x[0], z[0])


def geodesic_sample(sc: StructureConstants, lam: Covector, ts) -> list[GroupPoint]:
    """Sample the geodesic t -> exp(t u, t v) at the given sorted times in [0, 1]."""
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError("ts must be a one-dimensional sequence")
    if ts.size and (ts.min() < 0.0 or ts.max() > 1.0 or np.any(np.diff(ts) < 0)):
        raise ValueError("ts must be sorted and contained in [0, 1]")
    _check_covector(sc, lam)
    x, z = _exp_rows(sc, np.multiply.outer(ts, lam.u), np.multiply.outer(ts, lam.v))
    return [GroupPoint(xi, zi) for xi, zi in zip(x, z)]


def hamiltonian(lam: Covector) -> float:
    """The sub-Riemannian Hamiltonian |u|^2 / 2; geodesic speed is |u|."""
    return 0.5 * float(lam.u @ lam.u)


def _half_angle_direct(t):
    # sinc(t/2), h3(t) and tau(t) from one sin/cos pair at x = t/2, with
    # t - sin t = 2 (x - sin x cos x)
    x = 0.5 * t
    sin, cos = np.sin(x), np.cos(x)
    return sin / x, (x - sin * cos) / (4.0 * x * x * x), (sin - x * cos) / (4.0 * x * x * sin)


def _half_angle_series(t):
    x = 0.5 * t
    return _poly(x, *_SINC_SERIES), _poly(t, *_H3_SERIES), 0.25 * _poly(x, *_COT_SERIES)


def _jacobian_factors(alphas, pair_mults, theta):
    """The factors of J at block angles theta (..., d), theta_j = alpha_j |v|.

    Returns pref = prod_j sinc(theta_j/2)^(2 m_j) of shape (...,) and the
    per-block weights a_j = (1/2) alpha_j^2 h3(theta_j) and
    b_j = alpha_j^2 tau(theta_j) of shape (..., d), with
    h3 = theta_minus_sin_over_cube and tau(theta) = (sin x - x cos x) /
    (4 x^2 sin x) at x = theta/2, limit 1/12 at 0, finite and positive on
    [0, 2 pi).  The three scalar factors come from one sin/cos pair at
    theta/2, under one branch decision.
    """
    sinc_half, h3, tau = _switch(theta, _half_angle_direct, _half_angle_series)
    pref = np.prod(sinc_half ** (2 * pair_mults), axis=-1)
    return pref, 0.5 * alphas**2 * h3, alphas**2 * tau


def _jacobian_core(alphas, pair_mults, corank, q, vnorm):
    """Vectorized Jacobian determinant of the exponential map.

    alphas, pair_mults and the last axis of q index either eigenblocks (q the
    squared block norms of u, pair_mults the pair counts) or coordinates
    (alphas = diag S, pair_mults = 1/2, q = u^2); vnorm has the shape of
    q[..., 0].  Valid for vnorm strictly below the first conjugate radius;
    the v -> 0 limit is exact by construction:

        J = pref * (sum_j q_j a_j)^(p-1) * (sum_j q_j b_j)

    with pref, a and b from :func:`_jacobian_factors` at theta_j = alpha_j |v|.
    """
    pref, a, b = _jacobian_factors(alphas, pair_mults, np.multiply.outer(vnorm, alphas))
    return pref * np.sum(q * a, axis=-1) ** (corank - 1) * np.sum(q * b, axis=-1)


def jacobian(sc: StructureConstants, lam: Covector) -> float:
    """Jacobian determinant of exp at lam, for |v| within the injectivity radius.

    Strictly positive iff S u != 0; equals (|S u|^2 / 12)^p at v = 0.
    """
    _check_covector(sc, lam)
    vn = float(np.linalg.norm(lam.v))
    if vn >= sc.first_conjugate_radius:
        raise OutOfDomain(
            f"|v| = {vn:.6g} is not below the first conjugate radius "
            f"{sc.first_conjugate_radius:.6g}"
        )
    # kernel coordinates contribute the factor 1 and the weights 0
    pos = sc.s_positive
    return float(_jacobian_core(sc.s_diag[pos], 0.5, sc.corank, lam.u[pos] ** 2,
                                np.float64(vn)))


def cut_time(sc: StructureConstants, lam: Covector) -> float:
    """First time the geodesic t -> exp(t lam) stops minimizing.

    2 pi / (alpha_max |v|) when v != 0 and S u != 0; +inf otherwise
    (straight lines and abnormal directions minimize forever).
    """
    _check_covector(sc, lam)
    if not np.any(lam.u) and not np.any(lam.v):
        raise ZeroCovector("the zero covector has no geodesic")
    su = sc.s_diag * lam.u
    vn = float(np.linalg.norm(lam.v))
    if vn == 0.0 or not np.any(su):
        return float("inf")
    return 2.0 * np.pi / (sc.alpha_max * vn)


def in_injectivity_domain(sc: StructureConstants, lam: Covector) -> bool:
    """Membership in D = { |v| < 2 pi / alpha_max and S u != 0 }, with exact tests."""
    _check_covector(sc, lam)
    su = sc.s_diag * lam.u
    vn = float(np.linalg.norm(lam.v))
    return bool(np.any(su)) and vn < sc.first_conjugate_radius


def is_abnormal(sc: StructureConstants, lam: Covector) -> bool:
    """True iff the covector generates an abnormal geodesic, i.e. S u = 0."""
    _check_covector(sc, lam)
    if not np.any(lam.u) and not np.any(lam.v):
        raise ZeroCovector("the zero covector has no geodesic")
    return not np.any(sc.s_diag * lam.u)


def _apply_f_inverse(sc, vn, x, lx):
    # f(L_v)^{-1} x from |v| and lx = L_v x, by the inverted even/odd pair:
    # f has even part E = sinc, odd part O = cos_minus_one_over_sq =
    # -h/2 with h = sinc(theta/2)^2, and E^2 + theta^2 O^2 = h > 0 for
    # theta < 2 pi.  On ker S theta = 0, where E = h = 1.
    pos = sc.s_positive
    theta = vn * sc.s_diag[pos]
    h = sinc(0.5 * theta) ** 2
    u = x + 0.5 * lx
    u[pos] = (sinc(theta) * x[pos] + 0.5 * h * lx[pos]) / h
    return u


def _vertical_reach(sc, u, r):
    # |z|-component of exp at the covector (u, r vhat), |vhat| = 1:
    # F(r) = (r/2) sum_c s_c^2 h3(s_c r) u_c^2 over the coordinates with s_c > 0.
    pos = sc.s_positive
    s = sc.s_diag[pos]
    up = u[pos]
    return 0.5 * r * float((s * s * theta_minus_sin_over_cube(r * s)) @ (up * up))


def _reach(s, a, b, r, slope=False):
    # The vertical reach F(r) of the target's horizontal part x, in closed
    # form: u = f(L_v)^{-1} x has |u_c|^2 = x_c^2 / sinc(theta_c/2)^2 on each
    # block (E^2 + theta^2 O^2 = sinc(theta/2)^2), so the term
    # (r/2) s_c^2 h3(theta_c) u_c^2 of _vertical_reach is s_c x_c^2
    # phi(theta_c), phi = unit_reach.  With the weights a = s x^2 and
    # b = s^2 x^2 over the coordinates with s_c > 0
    #     F(r) = sum_c a_c phi(theta_c),   F'(r) = sum_c b_c phi'(theta_c).
    # With slope=True returns (F, F'), else F.
    theta = r * s
    reach = float(a @ unit_reach(theta))
    return (reach, float(b @ unit_reach_slope(theta))) if slope else reach


def _momentum_at(sc, x, zn, vhat, r):
    # u of the covector (u, r vhat) for the target (x, zn vhat).  Below the
    # top eigenblock u = f(L_v)^{-1} x.  On the top block u = m d, with d the
    # direction of f(L_v)^{-1} x_top, or its first axis where that vanishes,
    # and the reach is linear in m^2:
    #     F(r) = lower + c m^2,   c = (r/2) alpha_max^2 h3(alpha_max r).
    # m0 = |f(L_v)^{-1} x_top| meets x_top exactly and m1^2 = (|z| - lower)/c
    # meets |z| exactly.  Near R, F grows like 1/(R - r)^2, so one ulp of r
    # moves F past the endpoint tolerance and only m1 meets it; where the
    # top block carries little of |z|, m1 is a difference of nearly equal
    # numbers and m0 is right.  m minimizes both endpoint errors together,
    # linearized at m1:
    #     m = m0 + w (m1 - m0),   w = 1 / (1 + sigma^2 / (4 c (|z| - lower))),
    # with sigma = sinc(theta_top/2) = |d x_top / d m|.  Its sine is taken
    # at the nearer of r and R - r (sin(alpha r/2) = sin(alpha (R - r)/2)),
    # which keeps it accurate at both ends and makes it vanish at R, where
    # f(L_v) annihilates the top block and m = m1, the cut-locus formula of
    # distance_bound.  Inside the domain a vanishing f(L_v)^{-1} x_top has
    # no direction to scale, and u_top = 0.
    top = sc.blocks[-1].indices
    u = _apply_f_inverse(sc, r, x, r * (l_of_v(sc, vhat) @ x))
    u_top = u[top]
    m0 = math.hypot(*u_top)
    u[top] = 0.0
    alpha = sc.alpha_max
    c = 0.5 * r * alpha**2 * theta_minus_sin_over_cube(alpha * r)
    top2 = (zn - _vertical_reach(sc, u, r)) / c
    sigma = float(np.sin(0.5 * alpha * min(r, sc.first_conjugate_radius - r)))
    sigma /= 0.5 * alpha * r
    m = m0
    if top2 > 0.0 and (m0 > 0.0 or sigma == 0.0):
        # 4 c^2 top2 underflows for a root near 0, where w vanishes
        den = 4.0 * c * c * top2
        if den > 0.0:
            m += (math.sqrt(top2) - m0) / (1.0 + sigma * sigma / den)
    if m0 > 0.0:
        u[top] = (m / m0) * u_top
    else:
        u[top[0]] = m
    return u


def _endpoint_residual(sc, lam, target, rel):
    # |exp(lam) - target| and its tolerance rel * max(1, |target|): relative,
    # because the endpoint carries the rounding of coordinates of size |target|.
    # Scaled norms: squares overflow above about 1e154, which made the
    # tolerance inf and passed any covector.
    goal = target.as_vector()
    residual = math.hypot(*(exp_map(sc, lam).as_vector() - goal))
    return residual, rel * max(1.0, math.hypot(*goal))


_SCAN_POINTS = 64
_NEWTON_ITERATIONS = 100
_LOG_RESIDUAL = 1e-12
_LOG_ENDPOINT = 1e-10


def log_map(sc: StructureConstants, target: GroupPoint) -> Covector:
    """Invert the exponential map on the injectivity domain.

    For targets with z = 0 the answer is the straight-line covector (x, 0).
    Otherwise the vertical direction is forced to z/|z| and the problem
    reduces to the scalar equation F(r) = |z| on (0, R), R = 2 pi / alpha_max,
    where F is the vertical reach of the horizontal data at radius r.  F and
    F' are closed forms in the angles theta_c = s_c r:

        F(r)  = sum_c s_c x_c^2 phi(theta_c)
        F'(r) = sum_c s_c^2 x_c^2 phi'(theta_c)

    with phi = unit_reach and phi' = unit_reach_slope; kernel coordinates
    contribute nothing.  A scan of F at 64 radii up to R (1 - 1e-12)
    brackets the root and decides the cut locus: no sign change means no
    covector in the domain reaches the target.  Newton with the exact F'
    then solves in the bracket, shrinking it by the sign of F - |z|, taking
    the secant from F(0) = 0 when a step cancels to 0 or below, and the
    bracket's midpoint whenever a step would leave it, until
    |F - |z|| <= 1e-12 |z|, after which it takes one last step, or until
    the iterate stops moving.  The covector is (u, r z/|z|) at the
    root, with u = f(L_v)^{-1} x below the top eigenblock and the top block
    scaled toward reach |z|, fully so near R.  F is strictly increasing on
    (0, R), which is injectivity of exp on D, so the scan finds at most one
    bracket.

    A target whose coordinates or squares would leave the normal float range
    is solved, and checked, on its dilation by an exact power of two 2^-e,
    and the covector (2^e u, v) is returned (see _SCALE_BAND).

    Raises CutLocusTarget when no root exists (the target is not in the
    diffeomorphic image), NoCandidateFound when the scan finds several
    brackets or the covector misses the target by more than the endpoint
    tolerance, and IdentityTarget for the identity.
    """
    return _at_unit_scale(_log_at_unit_scale, sc, target)


def _at_unit_scale(solve, sc, target: GroupPoint) -> Covector:
    # solve(sc, target), with the target first dilated by 2^-e to unit scale
    # where its coordinates or squares would leave the normal range; the
    # covector found is dilated back to (2^e u, v)
    _check_point(sc, target)
    x, z = target.x.tolist(), target.z.tolist()
    scale = max(max(map(abs, x)), math.sqrt(max(map(abs, z))))
    if _SCALE_BAND[0] <= scale <= _SCALE_BAND[1]:
        return solve(sc, target)
    e = _dilation_exponent(scale)
    lam = solve(sc, GroupPoint(np.ldexp(target.x, -e), np.ldexp(target.z, -2 * e)))
    with np.errstate(over="ignore"):
        u = np.ldexp(lam.u, e)
    # the distance |u| must be a float too, as it is at every target in the band
    if not math.isfinite(math.hypot(*u.tolist())):
        raise ValueError("the covector's length |u| is beyond the float range")
    return Covector(u, lam.v)


def _log_at_unit_scale(sc, target: GroupPoint) -> Covector:
    zn = math.hypot(*target.z)
    if zn == 0.0:
        if not np.any(target.x):
            raise IdentityTarget("log of the identity is not defined")
        return Covector(target.x.copy(), np.zeros(sc.corank))
    vhat = target.z / zn
    rmax = sc.first_conjugate_radius * (1.0 - 1e-12)
    pos = sc.s_positive
    s = sc.s_diag[pos]
    a = s * target.x[pos] ** 2
    b = s * a

    # The scan stays 64 separate evaluations.  The benchmark keeps three
    # floats, about 100 bytes, for every cut-locus pass, so its peak RSS
    # grows with the pass rate: a 20 s run at 1.2 ms per pass holds about
    # 1.6 MB of them, at 0.35 ms (the scan stopped early) about 5.5 MB,
    # past the 10% bound on a peak of about 38.5 MiB.  The root solve below
    # could replace the scan once that memory is bounded.
    rs = np.linspace(0.0, rmax, _SCAN_POINTS + 1)[1:]
    gaps = np.array([_reach(s, a, b, r) for r in rs]) - zn
    zeros = np.flatnonzero(gaps == 0.0)
    if zeros.size:
        root = float(rs[zeros[0]])
    else:
        # sign changes on the grid 0, rs, with the virtual F(0+) - |z| < 0;
        # sign bits, because the product of two gaps below about 1e-154
        # underflows to 0
        grid = np.concatenate(([0.0], rs))
        negative = np.signbit(np.concatenate(([-zn], gaps)))
        changes = np.flatnonzero(negative[:-1] != negative[1:])
        if changes.size > 1:
            brackets = list(zip(grid[changes].tolist(), grid[changes + 1].tolist()))
            raise NoCandidateFound(
                f"multiple root brackets {brackets} for the vertical-reach "
                "equation; exp should be injective here, so this indicates a "
                "Jacobian or synthesis bug"
            )
        if not changes.size:
            raise CutLocusTarget(
                "no radius below the first conjugate radius reaches the "
                "target; the point lies outside the diffeomorphic image"
            )
        lo, hi = float(grid[changes[0]]), float(grid[changes[0] + 1])
        root = 0.5 * (lo + hi)
        tol = _LOG_RESIDUAL * zn
        for _ in range(_NEWTON_ITERATIONS):
            reach, slope = _reach(s, a, b, root, slope=True)
            gap = reach - zn
            if gap < 0.0:
                lo = root
            else:
                hi = root
            # a zero slope counts as a step out of the bracket
            cand = root - (gap / slope if slope > 0.0 else math.inf)
            if abs(gap) <= tol:
                # one last step, which quadratic convergence takes to rounding
                if lo < cand < hi:
                    root = cand
                break
            if lo == 0.0 and not cand > 0.0:
                # F is convex with F(0) = 0, so a step to or below 0 is
                # cancellation: the root lies far below the iterate (|z| far
                # below |x|^2).  The secant from F(0) = 0 lands at or below it.
                cand = root * (zn / reach)
            if not lo < cand < hi:
                cand = 0.5 * (lo + hi)
            if cand == root:
                break
            root = cand

    lam = Covector(_momentum_at(sc, target.x, zn, vhat, root), root * vhat)
    residual, tol = _endpoint_residual(sc, lam, target, _LOG_ENDPOINT)
    if not residual <= tol:
        raise NoCandidateFound(
            f"log residual {residual:.3e} exceeds {tol:.3e} after root polishing; "
            "this indicates a synthesis bug"
        )
    return lam


@dataclass(frozen=True)
class DistanceResult:
    """Distance value, from the log map or the cut-locus closed form."""

    value: float

    def __float__(self):
        return self.value


def distance(sc: StructureConstants, p: GroupPoint, q: GroupPoint) -> DistanceResult:
    """Carnot-Caratheodory distance d(p, q), total on all pairs.

    Left-invariant reduction to d(e, p^{-1} q); |u| of the log on the
    diffeomorphic image and the closed form of :func:`distance_bound` on
    the cut locus, both exact.
    """
    target = multiply(sc, inverse(p), q)
    try:
        lam = log_map(sc, target)
    except IdentityTarget:
        return DistanceResult(0.0)
    except CutLocusTarget:
        return DistanceResult(distance_bound(sc, target))
    return DistanceResult(math.hypot(*lam.u))


_CUT_RESIDUAL = 1e-8


def _cut_locus_covector(sc: StructureConstants, target: GroupPoint) -> Covector:
    # The covector whose |u| distance_bound returns; see its docstring.
    return _at_unit_scale(_cut_locus_at_unit_scale, sc, target)


def _cut_locus_at_unit_scale(sc, target: GroupPoint) -> Covector:
    if not np.any(target.x) and not np.any(target.z):
        raise IdentityTarget("the identity is at distance zero")
    zn = math.hypot(*target.z)
    if zn == 0.0:
        raise ValueError(
            "targets with z = 0 are reached by straight lines and belong to "
            "log_map, not the cut-locus formula"
        )
    radius = sc.first_conjugate_radius
    vhat = target.z / zn
    x = target.x.copy()
    x[sc.blocks[-1].indices] = 0.0
    lam = Covector(_momentum_at(sc, x, zn, vhat, radius), radius * vhat)
    residual, tol = _endpoint_residual(sc, lam, target, _CUT_RESIDUAL)
    if not residual <= tol:
        raise NoCandidateFound(
            f"the cut-locus covector misses the target by {residual:.3e} > "
            f"{tol:.3e}; x must vanish on the top eigenblock, and the lower "
            f"eigenblocks alone must not overshoot |z| = {zn:.6g}"
        )
    return lam


def distance_bound(sc: StructureConstants, target: GroupPoint) -> float:
    """Distance d(e, target) for cut-locus targets, in closed form.

    The minimizing covector has v = R z/|z| with R = 2 pi / alpha_max, so
    its cut time is exactly 1 and |u| is the distance, not only a bound.
    On ker S u_0 = x_0; below the top eigenblock u_j = f(L_v)^{-1} x_j; and

        |u_top|^2 = (|z| - (R/2) sum_lower alpha_j^2 h3(alpha_j R) |u_j|^2)
                    / ((R/2) alpha_max^2 h3(2 pi))

    with h3 = theta_minus_sin_over_cube; u_top lies on the first axis of the
    top block.  On Heisenberg this is sqrt(4 pi |z|).  Raises
    NoCandidateFound when the endpoint misses the target by more than
    1e-8 max(1, |target|): x does not vanish on the top block, or the lower
    blocks alone overshoot |z|, where u_top = 0.  Targets far from unit
    scale are handled as in :func:`log_map`.
    """
    return math.hypot(*_cut_locus_covector(sc, target).u)


def homothety(sc: StructureConstants, x0: GroupPoint, y: GroupPoint, t: float) -> GroupPoint:
    """Point at parameter t on the unique minimizing geodesic from x0 to y.

    Computed as x0 * exp(t * log(x0^{-1} y)); requires the translated target
    to lie in the diffeomorphic image (CutLocusTarget propagates otherwise).
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"homothety parameter must lie in [0, 1], got {t}")
    translated = multiply(sc, inverse(x0), y)
    try:
        lam = log_map(sc, translated)
    except IdentityTarget:
        return GroupPoint(x0.x.copy(), x0.z.copy())
    return multiply(sc, x0, exp_map(sc, lam.scale(t)))
