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
from .group import GroupPoint, inverse, multiply
from .structure import StructureConstants, l_of_v

_SMALL_THETA = 0.5

# Taylor coefficients of sinc, of h3 = (theta - sin theta)/theta^3 (so also
# of (1 - sinc)/theta^2), both in theta^2, and of (1 - x cot x)/x^2 in x^2;
# at |theta| < 0.5 the first omitted term is below 1e-17 relative
_SINC_SERIES = (1.0, -1.0 / 6, 1.0 / 120, -1.0 / 5040, 1.0 / 362880, -1.0 / 39916800,
                1.0 / 6227020800, -1.0 / 1307674368000)
_H3_SERIES = (1.0 / 6, -1.0 / 120, 1.0 / 5040, -1.0 / 362880, 1.0 / 39916800,
              -1.0 / 6227020800, 1.0 / 1307674368000, -1.0 / 355687428096000)
_COT_SERIES = (1.0 / 3, 1.0 / 45, 2.0 / 945, 1.0 / 4725, 2.0 / 93555,
               1382.0 / 638512875, 4.0 / 18243225, 3617.0 / 162820783125)


def _switch(theta, direct: Callable, series: Callable):
    # Evaluate `direct` away from 0 and `series` below the cancellation
    # threshold; `direct` never sees 0, and a branch no entry needs is skipped.
    th = np.asarray(theta, dtype=np.float64)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    small = np.abs(th) < _SMALL_THETA
    if not small.any():
        out = direct(th)
    elif small.all():
        out = series(th)
    else:
        out = np.where(small, series(th), direct(np.where(small, 1.0, th)))
    return float(out[0]) if scalar else out


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


def half_angle_defect(theta):
    """(sin(x) - x cos(x)) / (4 x^2 sin(x)) at x = theta/2; limit 1/12 at 0.

    Equals (1 - x cot x)/(4 x^2).  Finite and positive for theta in [0, 2pi).
    """

    def direct(t):
        x = 0.5 * t
        return (np.sin(x) - x * np.cos(x)) / (4.0 * x * x * np.sin(x))

    return _switch(theta, direct, lambda t: 0.25 * _poly(0.5 * t, *_COT_SERIES))


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
    # + 0.0 turns the -0.0 of t = 0 rows into 0.0
    s = sc.s_diag
    theta = np.linalg.norm(v, axis=1, keepdims=True) * s
    lv = np.sum(v[:, :, None, None] * sc.L, axis=1)
    lu = np.sum(lv * u[:, None, :], axis=2)
    x = F_PAIR.even_part(theta) * u + F_PAIR.odd_part(theta) * lu
    reach = np.sum((s * s * theta_minus_sin_over_cube(theta)) * (u * u), axis=1,
                   keepdims=True)
    return x, 0.5 * reach * v + 0.0


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


def _jacobian_factors(alphas, pair_mults, theta):
    """The factors of J at block angles theta (..., d), theta_j = alpha_j |v|.

    Returns pref = prod_j sinc(theta_j/2)^(2 m_j) of shape (...,) and the
    per-block weights a_j = (1/2) alpha_j^2 h3(theta_j) and
    b_j = alpha_j^2 tau(theta_j) of shape (..., d), with
    h3 = theta_minus_sin_over_cube and tau = half_angle_defect.
    """
    pref = np.prod(sinc(0.5 * theta) ** (2 * pair_mults), axis=-1)
    a = 0.5 * alphas**2 * theta_minus_sin_over_cube(theta)
    b = alphas**2 * half_angle_defect(theta)
    return pref, a, b


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
    return float(_jacobian_core(sc.s_diag, 0.5, sc.corank, lam.u * lam.u, np.float64(vn)))


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
    # theta < 2 pi.
    theta = vn * sc.s_diag
    h = sinc(0.5 * theta) ** 2
    return (sinc(theta) * x + 0.5 * h * lx) / h


def _vertical_reach(sc, u, r):
    # |z|-component of exp at the covector (u, r vhat), |vhat| = 1:
    # F(r) = (r/2) sum_c s_c^2 h3(s_c r) u_c^2.
    s = sc.s_diag
    return 0.5 * r * float((s * s * theta_minus_sin_over_cube(r * s)) @ (u * u))


def _endpoint_residual(sc, lam, target, rel):
    # |exp(lam) - target| and its tolerance rel * max(1, |target|): relative,
    # because the endpoint carries the rounding of coordinates of size |target|
    goal = target.as_vector()
    residual = float(np.linalg.norm(exp_map(sc, lam).as_vector() - goal))
    return residual, rel * max(1.0, float(np.linalg.norm(goal)))


_SCAN_POINTS = 64
_BISECT_WIDTH = 1e-6
_NEWTON_STEP = 1e-7
_LOG_RESIDUAL = 1e-12
_LOG_ENDPOINT = 1e-10


def log_map(sc: StructureConstants, target: GroupPoint) -> Covector:
    """Invert the exponential map on the injectivity domain.

    For targets with z = 0 the answer is the straight-line covector (x, 0).
    Otherwise the vertical direction is forced to z/|z| and the problem
    reduces to the scalar equation F(r) = |z| on (0, 2 pi / alpha_max),
    where F is the vertical reach of the horizontal data at radius r.  The
    root is bracketed by a uniform scan, then polished by bisection and a
    Newton refinement.  Uniqueness follows from injectivity of exp on D, so
    finding two brackets aborts loudly instead of guessing.

    Raises CutLocusTarget when no root exists (the target is not in the
    diffeomorphic image) and IdentityTarget for the identity.
    """
    if target.x.shape != (sc.rank,) or target.z.shape != (sc.corank,):
        raise DimensionMismatch("target dimensions do not match the structure")
    zn = float(np.linalg.norm(target.z))
    if zn == 0.0:
        if not np.any(target.x):
            raise IdentityTarget("log of the identity is not defined")
        return Covector(target.x.copy(), np.zeros(sc.corank))
    vhat = target.z / zn
    radius = sc.first_conjugate_radius
    rmax = radius * (1.0 - 1e-12)
    lx = l_of_v(sc, vhat) @ target.x

    def horizontal(r):
        return _apply_f_inverse(sc, r, target.x, r * lx)

    def gap(r):
        return _vertical_reach(sc, horizontal(r), r) - zn

    rs = np.linspace(0.0, rmax, _SCAN_POINTS + 1)[1:]
    vals = np.array([gap(r) for r in rs])

    # virtual left endpoint: F(0+) = 0 < |z|
    grid_r = np.concatenate(([0.0], rs))
    grid_g = np.concatenate(([-zn], vals))
    brackets = []
    root = None
    for i in range(len(grid_r) - 1):
        a, b = grid_g[i], grid_g[i + 1]
        if b == 0.0:
            root = grid_r[i + 1]
            break
        if a * b < 0.0:
            brackets.append((grid_r[i], grid_r[i + 1]))
    if root is None:
        if len(brackets) > 1:
            raise RuntimeError(
                f"multiple root brackets {brackets} for the vertical-reach "
                "equation; exp should be injective here, so this indicates a "
                "Jacobian or synthesis bug"
            )
        if not brackets:
            raise CutLocusTarget(
                "no radius below the first conjugate radius reaches the "
                "target; the point lies outside the diffeomorphic image"
            )
        lo, hi = brackets[0]
        glo = gap(lo) if lo > 0.0 else -zn
        while hi - lo > _BISECT_WIDTH:
            mid = 0.5 * (lo + hi)
            gm = gap(mid)
            if gm == 0.0:
                lo = hi = mid
                break
            if glo * gm < 0.0:
                hi = mid
            else:
                lo, glo = mid, gm
        root = 0.5 * (lo + hi)
        tol = _LOG_RESIDUAL * max(1.0, zn)
        for _ in range(60):
            g0 = gap(root)
            if abs(g0) <= tol:
                break
            d = (gap(root + _NEWTON_STEP) - gap(root - _NEWTON_STEP)) / (2 * _NEWTON_STEP)
            if d == 0.0:
                break
            step = g0 / d
            cand = root - step
            if not (lo <= cand <= hi):
                # Newton left the bracket; fall back to its midpoint
                cand = 0.5 * (lo + hi)
            root = cand

    lam = Covector(horizontal(root), root * vhat)
    residual, tol = _endpoint_residual(sc, lam, target, _LOG_ENDPOINT)
    if not residual <= tol:
        raise RuntimeError(
            f"log residual {residual:.3e} exceeds {tol:.3e} after root polishing; "
            "this indicates a synthesis bug"
        )
    return lam


@dataclass(frozen=True)
class DistanceResult:
    """Distance value plus whether it is exact (log map or cut-locus formula)."""

    value: float
    exact: bool

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
        return DistanceResult(0.0, True)
    except CutLocusTarget:
        return DistanceResult(distance_bound(sc, target), True)
    return DistanceResult(float(np.linalg.norm(lam.u)), True)


_CUT_RESIDUAL = 1e-8


def _cut_locus_covector(sc: StructureConstants, target: GroupPoint) -> Covector:
    # The covector whose |u| distance_bound returns; see its docstring.
    if target.x.shape != (sc.rank,) or target.z.shape != (sc.corank,):
        raise DimensionMismatch("target dimensions do not match the structure")
    if not np.any(target.x) and not np.any(target.z):
        raise IdentityTarget("the identity is at distance zero")
    zn = float(np.linalg.norm(target.z))
    if zn == 0.0:
        raise ValueError(
            "targets with z = 0 are reached by straight lines and belong to "
            "log_map, not the cut-locus formula"
        )
    radius = sc.first_conjugate_radius
    vhat = target.z / zn
    top = sc.blocks[-1].indices
    x = target.x.copy()
    x[top] = 0.0
    u = _apply_f_inverse(sc, radius, x, radius * (l_of_v(sc, vhat) @ x))
    h3_top = theta_minus_sin_over_cube(sc.alpha_max * radius)
    top2 = (zn - _vertical_reach(sc, u, radius)) / (0.5 * radius * sc.alpha_max**2 * h3_top)
    if not top2 >= 0.0:
        raise NoCandidateFound(f"the lower eigenblocks alone overshoot |z| = {zn:.6g}")
    u[top[0]] = np.sqrt(top2)
    lam = Covector(u, radius * vhat)
    residual, tol = _endpoint_residual(sc, lam, target, _CUT_RESIDUAL)
    if not residual <= tol:
        raise NoCandidateFound(
            f"the cut-locus covector misses the target by {residual:.3e} > "
            f"{tol:.3e}; x must vanish on the top eigenblock"
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
    NoCandidateFound when |u_top|^2 < 0 or the endpoint misses the target by
    more than 1e-8 max(1, |target|) (x does not vanish on the top block).
    """
    return float(np.linalg.norm(_cut_locus_covector(sc, target).u))


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
