"""Optimal geodesic synthesis: exponential map, Jacobian, log map, distances.

S is diagonal and L_v squares to -|v|^2 S^2, so every analytic function of
L_v acts on horizontal coordinate c as even(theta_c) + odd(theta_c) L_v,
with the per-coordinate angle theta_c = s_c |v| (s = diag S).  On ker S,
theta_c = 0 and L_v vanishes.  Everything here therefore reduces to scalar
functions of these angles, evaluated on all coordinates at once.

One kernel, :func:`_half_angle`, evaluates them: sinc(theta/2), h3(theta) =
(theta - sin theta)/theta^3 and the Jacobian's tau(theta), from one sin/cos
pair at theta/2 under one branch decision.  It switches to Taylor series
below theta = 0.5, so all removable singularities at v = 0 evaluate to
their exact limits and both sides of the switch are accurate to a few units
in the last place.  It takes an array or a Python float through the same
formulas; a float is one branch decision on math's sin and cos, and gets
the bits of its entry in an array.  Each caller derives its factors from
the triple: exp and f(L_v)^-1 take sinc(theta) = sinc(theta/2) cos(theta/2),
with the cosine from the kernel too, and the odd part -sinc(theta/2)^2 / 2
of f; exp's vertical part, the vertical reach and the cut-locus coefficient
take h3; log_map's F and F' take sinc(theta/2), h3 and tau, on floats, one
angle per eigenblock; the Jacobian takes all three.

exp runs on arrays of covectors (:func:`_exp_rows`, for geodesic_sample)
or, for one covector of a group of rank below 8, on Python floats
(:func:`_exp_row`, for exp_map and the endpoint check of _invert), with
one kernel evaluation per eigenblock, whose coordinates share its angle.
The float path repeats the array path's operations in its order, so it
gets the bits of the matching row: numpy sums fewer than 8 entries in
order, and from 8 on pairwise, which the array path keeps.

One routine, :func:`_invert`, inverts exp for log_map and for distance,
the one distance function, total on all pairs.  It carries every target,
by one exact map, into the structure's unit frame (alpha_max in [1/2, 1))
at unit scale, solves F(r) = |z| for |v| = r there, or takes the cut locus
|v| = R = 2 pi / alpha_max where no root lies below R, builds u from one
kernel evaluation, checks the endpoint against one tolerance, maps the
covector back, and says which of the two branches ran.
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
from .group import GroupPoint, _as_1d, _check_point, _point_rows, inverse, multiply
from .structure import StructureConstants, l_of_v

_SMALL_THETA = 0.5

# From this angle on, sin(theta)/theta is below 6e-20, so (theta - sin theta)
# / theta^2 rounds to 1/theta; far below the angles near 7e102 where the
# cube in h3 overflows
_LARGE_ANGLE = 2.0**64

# Taylor coefficients of sinc and of h3 = (theta - sin theta)/theta^3, both in
# theta^2, and of (1 - x cot x)/x^2 in x^2; at |theta| < 0.5 the first
# omitted term is below 1e-17 relative
_SINC_SERIES = (1.0, -1.0 / 6, 1.0 / 120, -1.0 / 5040, 1.0 / 362880, -1.0 / 39916800,
                1.0 / 6227020800, -1.0 / 1307674368000)
_H3_SERIES = (1.0 / 6, -1.0 / 120, 1.0 / 5040, -1.0 / 362880, 1.0 / 39916800,
              -1.0 / 6227020800, 1.0 / 1307674368000, -1.0 / 355687428096000)
_COT_SERIES = (1.0 / 3, 1.0 / 45, 2.0 / 945, 1.0 / 4725, 2.0 / 93555,
               1382.0 / 638512875, 4.0 / 18243225, 3617.0 / 162820783125)


def _switch(theta, direct: Callable, series: Callable, *args):
    # Evaluate `direct` away from 0 and `series` below the cancellation
    # threshold, each with the angles first and then `args`.  A Python float
    # is one branch decision.  On an array one count of the small angles
    # picks the branch, so only a mixed array evaluates both, each on its
    # own entries: `direct` never sees 0, and `series` never sees a large
    # angle, where its powers would overflow.  Both may return a tuple of
    # arrays, which a mixed array gets back stacked on a new first axis.
    if type(theta) is float:
        return series(theta, *args) if abs(theta) < _SMALL_THETA else direct(theta, *args)
    th = np.asarray(theta, dtype=np.float64)
    small = np.abs(th) < _SMALL_THETA
    count = np.count_nonzero(small)
    if count == 0:
        out = direct(th, *args)
    elif count == th.size:
        out = series(th, *args)
    else:
        near = np.asarray(series(th[small], *args))
        far = np.asarray(direct(th[~small], *args))
        out = np.empty(near.shape[:-1] + th.shape)
        out[..., small] = near
        out[..., ~small] = far
    return out


def _half_angle_direct(t, with_cos=False):
    # sinc(t/2), h3(t) and tau(t) from one sin/cos pair at x = t/2, with
    # t - sin t = 2 (x - sin x cos x), and with_cos adds that cos(t/2); a
    # Python float takes math's sin and cos, which round as numpy's do
    x = 0.5 * t
    if type(x) is float:
        sin, cos = math.sin(x), math.cos(x)
    else:
        sin, cos = np.sin(x), np.cos(x)
    quad = 4.0 * x * x
    out = sin / x, (x - sin * cos) / (quad * x), (sin - x * cos) / (quad * sin)
    return (*out, cos) if with_cos else out


def _half_angle_series(t, with_cos=False):
    x = 0.5 * t
    out = _poly(x, *_SINC_SERIES), _poly(t, *_H3_SERIES), 0.25 * _poly(x, *_COT_SERIES)
    if not with_cos:
        return out
    return (*out, math.cos(x) if type(x) is float else np.cos(x))


def _half_angle(theta, with_cos=False):
    """The kernel: sinc(theta/2), h3(theta) and tau(theta) at the angles theta,
    an array or a Python float, and with_cos adds cos(theta/2).

    h3(theta) = (theta - sin theta)/theta^3 with the limit 1/6 at 0, and
    tau(theta) = (sin x - x cos x) / (4 x^2 sin x) at x = theta/2, with the
    limit 1/12 at 0, finite and positive on [0, 2 pi).  All three come from
    one sin/cos pair at theta/2, under one branch decision; the direct
    branch returns that cosine, and the series branch takes its own.  Beyond
    theta of about 7e102 the cube in h3 overflows to h3 = 0; only exp goes
    there, and it does not use h3 at those angles.
    """
    return _switch(theta, _half_angle_direct, _half_angle_series, with_cos)


def _f_parts(theta):
    # sinc(theta), the even part of f(L_v) = (1 - e^-L_v)/L_v, with the
    # kernel's sinc(theta/2) and h3(theta); the odd part of f is
    # (cos theta - 1)/theta^2 = -sinc(theta/2)^2 / 2, which does not cancel
    # near 0 or near 2 pi.  An array or a Python float.
    sinc_half, h3, _, cos_half = _half_angle(theta, True)
    return sinc_half * cos_half, sinc_half, h3


def _phi(theta):
    # phi(theta) = (theta - sin theta) / (4 (1 - cos theta)) and phi'(theta),
    # the vertical reach at angle theta of one horizontal coordinate with
    # s_c = 1 and x_c = 1 and its slope, from the kernel:
    #     phi = theta h3 / (2 sinc(theta/2)^2),   phi' = tau / sinc(theta/2)^2,
    # limits 0 and 1/12 at 0 and a pole at 2 pi, where sinc(theta/2) = 0
    sinc_half, h3, tau = _half_angle(theta)
    sq = sinc_half * sinc_half
    return 0.5 * theta * h3 / sq, tau / sq


def _poly(t, *coeffs):
    # even polynomial sum c_i * t^(2i), Horner on t^2
    t2 = t * t
    acc = coeffs[-1] * t2 + coeffs[-2]
    for c in coeffs[-3::-1]:
        acc = acc * t2 + c
    return acc


@dataclass(frozen=True, eq=False)
class Covector:
    """Initial covector (u, v): horizontal and vertical momenta at the identity."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = _as_1d(self.u)
        v = _as_1d(self.v)
        if not all(map(math.isfinite, u.tolist() + v.tolist())):
            raise ValueError(f"covector components must be finite, got u={u}, v={v}")
        u.setflags(write=False)
        v.setflags(write=False)
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


def _exp_rows(sc, u, v):
    # exp at the covectors (u_i, v_i), the rows of u (m, k) and v (m, p).
    # Only elementwise products and row sums are used, so the bits of a row
    # do not depend on the other rows: geodesic_sample matches exp_map.
    # With vhat = v/|v| (0 at v = 0) every factor is bounded at every finite
    # angle:
    #     x = sinc(theta) u - (1/2) sinc(theta/2) (sinc(theta/2) |v|) L_vhat u
    #     z = (1/2) sum_c s_c (theta_c h3(theta_c)) u_c^2 vhat,
    # and |z| is the vertical reach of _momentum_at.  theta h3(theta) =
    # (theta - sin theta)/theta^2 is taken as 1/theta from _LARGE_ANGLE on.
    # + 0.0 turns the -0.0 of t = 0 rows (t u and t v) into 0.0 in x and z.
    # On ker S, f(L_v) is the identity and s_c = 0, so the kernel only sees
    # the coordinates with s_c > 0.  exp is dilation-equivariant,
    # exp(eps u, v) = (eps x, eps^2 z), and a power of two scales every
    # rounding exactly, so u is dilated to unit scale first and its squares
    # stay in the normal range; |v| is a chain of hypot, which squares
    # nothing.
    e = _dilation_exponent(float(np.abs(u).max())) if u.size else 0
    u = np.ldexp(u, -e)
    pos = sc.s_positive
    s = sc.s_diag[pos]
    # |v| beyond the float range is inf, and so is its angle, which raises;
    # h3's cube may overflow (to h3 = 0, unused there), and an endpoint
    # beyond the float range becomes inf, which GroupPoint rejects
    with np.errstate(over="ignore"):
        vn = np.hypot.reduce(np.abs(v), axis=1, keepdims=True)
        vhat = v / np.where(vn > 0.0, vn, 1.0)
        theta = vn * s
        top = float(theta.max(initial=0.0))
        if not math.isfinite(top):
            raise ValueError("the angles s_c |v| of the covector are beyond the float range")
        sinc, sinc_half, h3 = _f_parts(theta)
        rise = theta * h3
        if top >= _LARGE_ANGLE:
            rise = np.divide(1.0, theta, out=rise, where=theta >= _LARGE_ANGLE)
        lu = (_l_rows(sc.L, vhat) * u[:, None, :]).sum(axis=2)
        up = u[:, pos]
        x = u.copy()
        x[:, pos] = sinc * up - 0.5 * sinc_half * (sinc_half * vn) * lu[:, pos]
        reach = (s * rise * (up * up)).sum(axis=1, keepdims=True)
        x, z = np.ldexp(x, e), np.ldexp(0.5 * reach * vhat, 2 * e)
    return x + 0.0, z + 0.0


def _l_rows(L, vhat):
    # L_vhat = sum_a vhat_a L^a for each row of vhat (m, p), as (m, k, k),
    # added to 0.0 one family member at a time in order of a: the bits of
    # numpy's sum over a of the (m, p, k, k) products, without forming them
    lv = 0.0
    for col, la in zip(vhat.T[:, :, None, None], L):
        lv += col * la
    return lv


# Below this rank exp at one covector runs on Python floats (_exp_row) with
# the bits of its row of _exp_rows: numpy sums a row of fewer than 8 entries
# in order, as _exp_row does.  From 8 entries on numpy sums pairwise, so the
# bits would differ, and the float loops over k^2 entries of L_vhat lose
# their lead over the array path.
_FLOAT_ROW_RANK = 8

# Below this bound on every |v_a|, |v| is below 2^1000 sqrt(p), so no hypot
# of its chain overflows
_HYPOT_SAFE = 2.0**1000


def _hypot_chain(v):
    # |v| for a list of floats: numpy's hypot, in order, as the reduce of
    # _exp_rows takes it; inf, with an overflow warning, beyond the float range
    vn = abs(v[0])
    for c in v[1:]:
        vn = float(np.hypot(vn, abs(c)))
    return vn


def _exp_row(sc, u, v):
    # exp at one covector, u and v lists of Python floats, as the lists
    # (x, z): the operations of _exp_rows on its one row, in its order, so
    # the bits are the same.  Every coordinate of eigenblock j has the angle
    # alpha_j |v|, so the kernel runs once per block, on a float.  |v| is
    # numpy's chain of hypot; L_vhat u is summed from 0.0 as _l_rows and
    # numpy's row sum add, over the non-zero entries of sc.row_tables.
    alphas, rows = sc.row_tables
    e = _dilation_exponent(max(map(abs, u)))
    u = [math.ldexp(c, -e) for c in u]
    if max(map(abs, v)) < _HYPOT_SAFE:
        vn = _hypot_chain(v)
    else:
        with np.errstate(over="ignore"):
            vn = _hypot_chain(v)
    unit = vn if vn > 0.0 else 1.0
    vhat = [c / unit for c in v]
    if not math.isfinite(vn * alphas[-1]):
        raise ValueError("the angles s_c |v| of the covector are beyond the float range")
    blocks = []
    for alpha in alphas:
        theta = vn * alpha
        sinc, sinc_half, h3 = _f_parts(theta)
        rise = theta * h3 if theta < _LARGE_ANGLE else 1.0 / theta
        blocks.append((sinc, 0.5 * sinc_half * (sinc_half * vn), alpha * rise))
    x = u[:]
    reach = 0.0
    for c, j, row in rows:
        sinc, odd, rate = blocks[j]
        uc = u[c]
        lu = 0.0
        for col, entries in row:
            lv = 0.0
            for a, la in entries:
                lv += vhat[a] * la
            lu += lv * u[col]
        x[c] = sinc * uc - odd * lu
        reach += rate * (uc * uc)
    z = [0.5 * reach * w for w in vhat]
    try:
        return [math.ldexp(w, e) + 0.0 for w in x], [math.ldexp(w, 2 * e) + 0.0 for w in z]
    except OverflowError:
        # an endpoint beyond the float range: inf, as _exp_rows makes it,
        # which GroupPoint and _invert's endpoint check reject
        with np.errstate(over="ignore"):
            return (np.ldexp(x, e) + 0.0).tolist(), (np.ldexp(z, 2 * e) + 0.0).tolist()


def _exp_point(sc, u, v):
    # exp at one covector, u and v lists of floats, as the lists (x, z): on
    # Python floats below _FLOAT_ROW_RANK, else the one row of _exp_rows
    if sc.rank < _FLOAT_ROW_RANK:
        return _exp_row(sc, u, v)
    x, z = _exp_rows(sc, np.array([u]), np.array([v]))
    return x[0].tolist(), z[0].tolist()


def exp_map(sc: StructureConstants, lam: Covector) -> GroupPoint:
    """Endpoint at time 1 of the normal geodesic with initial covector lam.

    The horizontal part is f(L_v) u with f(z) = (1 - e^-z)/z; the vertical
    part is the quadratic form (g(L_v) u . u) / (2 |v|^2) times v, with
    g(z) = 1 - sinh(z)/z, evaluated as (1/2) sum_c s_c theta_c h3(theta_c)
    u_c^2 times v/|v|, with h3(theta) = (theta - sin theta)/theta^3.  Total
    and smooth on all of R^k x R^p: every factor is bounded at every finite
    angle theta_c = s_c |v|.  Two ValueErrors remain, both at the edge of
    the float range: "the angles s_c |v| of the covector are beyond the
    float range" where |v| or such an angle is, and GroupPoint's "point
    coordinates must be finite" where the endpoint is, as z is at
    u = (1e200, 0), v = 1 on heisenberg3.  Below rank 8 the covector runs on
    Python floats; the point has the bits of its row of geodesic_sample
    either way.
    """
    _check_covector(sc, lam)
    return GroupPoint(*_exp_point(sc, lam.u.tolist(), lam.v.tolist()))


def geodesic_sample(sc: StructureConstants, lam: Covector, ts) -> list[GroupPoint]:
    """Sample the geodesic t -> exp(t u, t v) at the given sorted times in [0, 1]."""
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError("ts must be a one-dimensional sequence")
    if ts.size and (ts.min() < 0.0 or ts.max() > 1.0 or np.any(np.diff(ts) < 0)):
        raise ValueError("ts must be sorted and contained in [0, 1]")
    _check_covector(sc, lam)
    return _point_rows(*_exp_rows(sc, np.multiply.outer(ts, lam.u), np.multiply.outer(ts, lam.v)))


def _jacobian_factors(alphas, pair_mults, theta):
    """The factors of J at block angles theta (..., d), theta_j = alpha_j |v|.

    Returns pref = prod_j sinc(theta_j/2)^(2 m_j) of shape (...,) and the
    per-block weights a_j = (1/2) alpha_j^2 h3(theta_j) and
    b_j = alpha_j^2 tau(theta_j) of shape (..., d), from the kernel
    :func:`_half_angle`.
    """
    sinc_half, h3, tau = _half_angle(theta)
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
    Evaluated in the unit frame at unit scale, J(u, v) = 4^((a+e) p)
    J_frame(2^-e u, 2^a v), with a = sc.unit_exponent and 2^-e max |u_c|
    off ker S in [1/2, 1), so that neither alpha^2 nor u^2 leaves the float
    range; the power of two is applied last, and gives inf or 0 only where
    J itself is beyond the float range.
    """
    _check_covector(sc, lam)
    vn = math.hypot(*lam.v)
    if vn >= sc.first_conjugate_radius:
        raise OutOfDomain(
            f"|v| = {vn:.6g} is not below the first conjugate radius "
            f"{sc.first_conjugate_radius:.6g}"
        )
    # kernel coordinates contribute the factor 1 and the weights 0
    fr, a = sc.unit_frame, sc.unit_exponent
    pos = fr.s_positive
    up = lam.u[pos]
    e = _dilation_exponent(max(map(abs, up.tolist()), default=0.0))
    core = _jacobian_core(fr.s_diag[pos], 0.5, sc.corank, np.ldexp(up, -e) ** 2,
                          np.float64(math.ldexp(vn, a)))
    try:
        return math.ldexp(float(core), 2 * sc.corank * (a + e))
    except OverflowError:
        return math.inf


def cut_time(sc: StructureConstants, lam: Covector) -> float:
    """First time the geodesic t -> exp(t lam) stops minimizing.

    2 pi / (alpha_max |v|) when v != 0 and S u != 0; +inf otherwise
    (straight lines and abnormal directions minimize forever), and +inf
    where 2 pi / (alpha_max |v|) is beyond the float range.
    """
    _check_covector(sc, lam)
    if not np.any(lam.u) and not np.any(lam.v):
        raise ZeroCovector("the zero covector has no geodesic")
    vn = math.hypot(*lam.v)
    if vn == 0.0 or not sc.su_nonzero(lam.u):
        return float("inf")
    # the unit frame's alpha_max and the mantissa of |v| lie in [1/2, 1), so
    # only the exact scaling by 2^-(a+e) can leave the float range
    m, e = math.frexp(vn)
    with np.errstate(over="ignore"):
        return float(np.ldexp(2.0 * np.pi / (sc.unit_frame.alpha_max * m),
                              -sc.unit_exponent - e))


def in_injectivity_domain(sc: StructureConstants, lam: Covector) -> bool:
    """Membership in D = { |v| < 2 pi / alpha_max and S u != 0 }, with exact tests."""
    _check_covector(sc, lam)
    return sc.su_nonzero(lam.u) and math.hypot(*lam.v) < sc.first_conjugate_radius


def is_abnormal(sc: StructureConstants, lam: Covector) -> bool:
    """True iff the covector generates an abnormal geodesic, i.e. S u = 0."""
    _check_covector(sc, lam)
    if not np.any(lam.u) and not np.any(lam.v):
        raise ZeroCovector("the zero covector has no geodesic")
    return not sc.su_nonzero(lam.u)


def _apply_f_inverse(sc, x, lx, sinc, sinc_half):
    # f(L_v)^{-1} x from lx = L_v x and the factors sinc(theta) and
    # sinc(theta/2) of _f_parts on the coordinates with s_c > 0: f has even
    # part E = sinc(theta) and odd part O = -h/2 with h = sinc(theta/2)^2,
    # and E^2 + theta^2 O^2 = h > 0 for theta < 2 pi.  On ker S theta = 0,
    # where E = h = 1.
    pos = sc.s_positive
    h = sinc_half**2
    u = x + 0.5 * lx
    u[pos] = (sinc * x[pos] + 0.5 * h * lx[pos]) / h
    return u


def _block_weights(sc, x):
    # The weights of _reach per eigenblock, in increasing alpha, as Python
    # floats: the angles' rates alpha_j, a_j = alpha_j |x_j|^2 and
    # b_j = alpha_j a_j
    sq = x * x
    alphas = [block.alpha for block in sc.blocks]
    a = [alpha * float(sq[block.indices].sum()) for alpha, block in zip(alphas, sc.blocks)]
    return alphas, a, [alpha * w for alpha, w in zip(alphas, a)]


def _reach(alphas, a, b, r):
    # The vertical reach F(r) of the target's horizontal part x, in closed
    # form: u = f(L_v)^{-1} x has |u_c|^2 = x_c^2 / sinc(theta_c/2)^2 on each
    # block (E^2 + theta^2 O^2 = sinc(theta/2)^2), so the term
    # (r/2) s_c^2 h3(theta_c) u_c^2 of exp's |z| is s_c x_c^2 phi(theta_c)
    # (see _phi).  Every coordinate of eigenblock j has the angle alpha_j r,
    # so with the weights of _block_weights
    #     F(r) = sum_j a_j phi(alpha_j r),   F'(r) = sum_j b_j phi'(alpha_j r),
    # summed in order over the blocks on Python floats, one scalar kernel
    # evaluation per block.  Returns (F, F').
    reach = rise = 0.0
    for alpha, aj, bj in zip(alphas, a, b):
        phi, dphi = _phi(alpha * r)
        reach += aj * phi
        rise += bj * dphi
    return reach, rise


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
    # f(L_v) annihilates the top block and m = m1, the cut-locus closed form
    # of distance.  Inside the domain a vanishing f(L_v)^{-1} x_top has no
    # direction to scale, and u_top = 0.  The kernel runs once, at the
    # angles r s_c off ker S: its factors give f(L_v)^{-1}, the lower reach
    # (r/2) sum_c s_c^2 h3(r s_c) u_c^2 and c, at the top block's angle
    # r alpha_max.  w is not scale-free: it weighs an error of one in x_top
    # against an error of one in |z|.  _invert calls this in the unit frame
    # at unit scale, where alpha_max and max(|x|, sqrt|z|) lie in [1/2, 1),
    # so those are the units of w at every alpha and every target scale.
    pos = sc.s_positive
    s = sc.s_diag[pos]
    sinc, sinc_half, h3 = _f_parts(r * s)
    u = _apply_f_inverse(sc, x, r * (l_of_v(sc, vhat) @ x), sinc, sinc_half)
    top = sc.blocks[-1].indices
    u_top = u[top]
    m0 = math.hypot(*u_top)
    u[top] = 0.0
    alpha = sc.alpha_max
    c = 0.5 * r * alpha**2 * float(h3[np.argmax(s)])
    up = u[pos]
    top2 = (zn - 0.5 * r * float((s * s * h3) @ (up * up))) / c
    sigma = math.sin(0.5 * alpha * min(r, sc.first_conjugate_radius - r))
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


_NEWTON_ITERATIONS = 100
_LOG_RESIDUAL = 1e-12
_LOG_ENDPOINT = 1e-10
_EPS = float(np.finfo(np.float64).eps)


def log_map(sc: StructureConstants, target: GroupPoint) -> Covector:
    """Invert the exponential map on the injectivity domain.

    For targets with z = 0 the answer is the straight-line covector (x, 0).
    Otherwise the vertical direction is forced to z/|z| and the problem
    reduces to the scalar equation F(r) = |z| on (0, R), R = 2 pi / alpha_max,
    where F is the vertical reach of the horizontal data at radius r.  F and
    F' are closed forms in the block angles alpha_j r, summed in order over
    the eigenblocks x_j of x on Python floats:

        F(r)  = sum_j alpha_j |x_j|^2 phi(alpha_j r)
        F'(r) = sum_j alpha_j^2 |x_j|^2 phi'(alpha_j r)

    with phi(theta) = theta h3(theta) / (2 sinc(theta/2)^2) and
    phi'(theta) = tau(theta) / sinc(theta/2)^2 from the kernel; kernel
    coordinates contribute nothing.  F is strictly increasing on (0, R),
    which is injectivity of exp on D, so one evaluation decides the cut
    locus: where F at the last float below R is less than |z|, no covector
    in the domain reaches the target.  That holds whether x is non-zero on
    the top eigenblock, where F has a pole at R, or zero there, where F(R)
    is the finite reach of the lower blocks.  Otherwise Newton with the
    exact F' solves in the bracket (0, R), seeded, where x_top != 0 and |z|
    exceeds the lower blocks' reach F_lower(R), from the pole's leading
    term, R - r = sqrt(pi |x_top|^2 / (alpha_max (|z| - F_lower(R)))), and
    from the midpoint otherwise.  It shrinks the bracket by the sign of
    F - |z|, takes the secant from F(0) = 0 when a step cancels to 0 or
    below, and the bracket's midpoint whenever a step would leave it, until
    |F - |z|| <= 1e-12 |z|, after which it takes one last step, or until the
    iterate stops moving.  The covector is (u, r z/|z|) at the root, with
    u = f(L_v)^{-1} x below the top eigenblock and the top block scaled
    toward reach |z|, fully so near R.

    Every target is solved, and checked, on one exact image: in the
    structure's unit frame (``sc.unit_frame``, alpha_max times 2^-a in
    [1/2, 1)) and dilated to unit scale, (x, z) -> (2^-e x, 2^(-2e-a) z)
    with max(|x|, sqrt(2^-a |z|)) 2^-e in [1/2, 1).  The covector found
    there maps back as (2^e u, 2^-a v).

    Raises CutLocusTarget when no root exists (the target is not in the
    diffeomorphic image; :func:`distance` gives its distance),
    NoCandidateFound when the covector misses the unit-scale target by more
    than the endpoint tolerance 1e-10 max(1, |target|), IdentityTarget for
    the identity, and ValueError where |u| or v leaves the float range on
    the way back to the user's frame.
    """
    lam, cut = _invert(sc, target)
    if cut:
        raise CutLocusTarget(
            "no radius below the first conjugate radius reaches the "
            "target; the point lies outside the diffeomorphic image"
        )
    return lam


def _target_exponent(target: GroupPoint, a: int) -> int:
    # e with max(|x|, sqrt(2^-a |z|)) 2^-e in [1/2, 1), from the exponents
    # of max |x| and max |z|: neither 2^-a |z| nor a square root is formed,
    # so nothing can leave the float range on the way
    xmax, zmax = max(map(abs, target.x.tolist())), max(map(abs, target.z.tolist()))
    exponents = [_dilation_exponent(xmax)] if xmax else []
    if zmax:
        exponents.append((_dilation_exponent(zmax) - a + 1) // 2)
    return max(exponents, default=0)


def _reach_root(sc, x, zn):
    # The root r of F(r) = |z| below R (see log_map), or None where no float
    # radius below R reaches |z|: F is strictly increasing on (0, R), so
    # that is one comparison of F at the last float below R.
    rmax = math.nextafter(sc.first_conjugate_radius, 0.0)
    alphas, a, b = _block_weights(sc, x)
    # F(rmax), summed as _reach sums it, with the blocks below the top one
    # apart: near its pole at R, F is F_lower(R) + pi |x_top|^2 /
    # (alpha_max (R - r)^2) to leading order, with pole = alpha_max
    # |x_top|^2 the top block's weight and F_lower(R) the reach of the
    # blocks below it
    lower, _ = _reach(alphas[:-1], a[:-1], b[:-1], rmax)
    pole = a[-1]
    if lower + pole * _phi(alphas[-1] * rmax)[0] < zn:
        return None
    lo, hi = 0.0, rmax
    root = 0.5 * rmax
    excess = zn - lower
    if pole > 0.0 and excess > 0.0:
        seed = rmax - math.sqrt(math.pi * pole / excess) / sc.alpha_max
        if lo < seed < hi:
            root = seed
    tol = _LOG_RESIDUAL * zn
    for _ in range(_NEWTON_ITERATIONS):
        reach, slope = _reach(alphas, a, b, root)
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
    return root


def _invert(sc, target: GroupPoint, exact_v: bool = True) -> tuple[Covector, bool]:
    # (minimizing covector, on the cut locus), solved on the target's image
    # in the unit frame at unit scale (see log_map).  log is
    # dilation-equivariant, log(delta_eps p) = (eps u, v) with
    # delta_eps (x, z) = (eps x, eps^2 z), and a power of two scales every
    # rounding exactly, so the root and v keep their bits at every scale,
    # and the endpoint check, relative to the unit-scale target, is the same
    # at every scale.  With z = 0 the covector is the straight line (x, 0);
    # on the cut locus x is zeroed on the top eigenblock, which f(L_v)
    # annihilates at |v| = R.  exact_v=False serves distance, which takes
    # only |u|; it stays right where 2^-a v rounds.
    _check_point(sc, target)
    fr, a = sc.unit_frame, sc.unit_exponent
    e = _target_exponent(target, a)
    x, z = np.ldexp(target.x, -e), np.ldexp(target.z, -2 * e - a)
    zn = math.hypot(*z)
    cut = False
    if zn == 0.0:
        if not np.any(x):
            raise IdentityTarget("log of the identity is not defined")
        u, v = x, np.zeros(sc.corank)
    else:
        goal = x.tolist() + z.tolist()
        r = _reach_root(fr, x, zn)
        cut = r is None
        if cut:
            r = fr.first_conjugate_radius
            x[fr.blocks[-1].indices] = 0.0
        vhat = z / zn
        u, v = _momentum_at(fr, x, zn, vhat, r), r * vhat
        # the endpoint from exp_map's own evaluation, as lists of floats
        end_x, end_z = _exp_point(fr, u.tolist(), v.tolist())
        residual = math.hypot(*[w - g for w, g in zip(end_x + end_z, goal)])
        tol = _LOG_ENDPOINT * max(1.0, math.hypot(*goal))
        if not residual <= tol:
            raise NoCandidateFound(
                f"the covector misses the target by {residual:.3e} > {tol:.3e}; "
                + ("on the cut locus x must vanish on the top eigenblock" if cut
                   else "this indicates a synthesis bug"))
    with np.errstate(over="ignore"):
        u_out, v_out = np.ldexp(u, e), np.ldexp(v, -a)
    # the distance |u| must be a float too
    if not math.isfinite(math.hypot(*u_out.tolist())):
        raise ValueError("the covector's length |u| is beyond the float range")
    # 2^-a v must keep v to within one rounding of |v|: below the normal
    # range it loses its digits, down to 0
    if exact_v and not (math.hypot(*(np.ldexp(v_out, a) - v).tolist())
                        <= _EPS * math.hypot(*v.tolist())):
        raise ValueError("the covector's vertical part v is beyond the float range")
    return Covector(u_out, v_out), cut


@dataclass(frozen=True)
class DistanceResult:
    """Distance value, from the log map or the cut-locus closed form."""

    value: float

    def __float__(self):
        return self.value


def distance(sc: StructureConstants, p: GroupPoint, q: GroupPoint) -> DistanceResult:
    """Carnot-Caratheodory distance d(p, q), total on all pairs.

    Left-invariant reduction to d(e, p^{-1} q), which is |u| of the
    minimizing covector, exact on both branches.  On the diffeomorphic
    image that is the covector of :func:`log_map`.  On the cut locus it has
    v = R z/|z| with R = 2 pi / alpha_max, so its cut time is exactly 1:
    u_0 = x_0 on ker S, u_j = f(L_v)^{-1} x_j below the top eigenblock, and
    on the first axis of the top block

        |u_top|^2 = (|z| - (R/2) sum_lower alpha_j^2 h3(alpha_j R) |u_j|^2)
                    / ((R/2) alpha_max^2 h3(2 pi)),

    which is sqrt(4 pi |z|) on Heisenberg.  Raises NoCandidateFound when
    the covector misses the target by more than 1e-10 max(1, |target|) and
    ValueError where |u| is beyond the float range.
    """
    try:
        lam, _ = _invert(sc, multiply(sc, inverse(p), q), exact_v=False)
    except IdentityTarget:
        return DistanceResult(0.0)
    return DistanceResult(math.hypot(*lam.u))


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
