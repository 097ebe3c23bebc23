"""Measure-contraction verification.

Dimension formulas, the scalar growth inequalities behind the main
contraction estimate, the pointwise Jacobian contraction check, quadrature
contraction ratios over covector boxes, sharpness witnesses for exponents
below the geodesic dimension, and the reduction to negative curvature bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BoxOutsideDomain,
    UnsupportedPositiveK,
    WitnessNotFound,
)
from .geodesics import _dilation_exponent, _jacobian_core, _jacobian_factors
from .quadrature import (
    NODE_BUDGET,
    mapped_rule,
    pairwise_sum,
    pairwise_sums,
    require_node_budget,
    tensor_grid,
)
from .randomness import DEFAULT_SEED, generator
from .structure import GroupSpec, StructureConstants

VERDICT_SLACK = 1e-9
SLACK_FLOOR = -1e-14


def geodesic_dimension(spec: GroupSpec) -> int:
    """Contraction exponent of set measures under geodesic homotheties: k + 3p."""
    return spec.rank + 3 * spec.corank


def hausdorff_dimension(spec: GroupSpec) -> int:
    """Metric dimension of the Carnot-Caratheodory space: k + 2p."""
    return spec.rank + 2 * spec.corank


def distortion_coefficient(K: float, N: float, t: float, dist: float) -> float:
    """Model contraction weight t * [s_K(t d c) / s_K(d c)]^(N-1), c = 1/sqrt(N-1).

    s_K is the constant-curvature distance profile; only K <= 0 is supported
    since the groups in question are unbounded.  At dist = 0 the bracket is
    taken to be 1 (the 0/0 convention), giving exactly t.  For K = 0 and
    positive dist the value is exactly t**N.  K, N and dist must be finite.
    """
    _require_curvature(K, N)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if not 0.0 <= dist < math.inf:
        raise ValueError(f"dist must be finite and non-negative, got {dist}")
    if dist == 0.0:
        return t
    if K == 0.0:
        return t**N
    a = math.sqrt(-K) * dist / math.sqrt(N - 1.0)
    return t * _sinh_ratio(t, a) ** (N - 1.0)


def _sinh_ratio(t, a):
    # sinh(t a)/sinh(a), exp-scaled so large a never overflows; its limit t
    # at a = 0
    t = np.asarray(t, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    big = a > 30.0
    zero = a == 0.0
    safe = np.where(big | zero, 1.0, a)
    wide = np.where(big, a, 31.0)
    direct = np.sinh(t * safe) / np.sinh(safe)
    scaled = (np.exp((t - 1.0) * wide) * (1.0 - np.exp(-2.0 * t * wide))
              / (1.0 - np.exp(-2.0 * wide)))
    out = np.where(big, scaled, np.where(zero, t, direct))
    return float(out) if out.ndim == 0 else out


def _g(x):
    return np.sin(x) - x * np.cos(x)


def _f(x):
    return x - np.sin(x)


@dataclass(frozen=True)
class InequalityReport:
    """Grid verification of h(t x) >= t^N h(x) for a scalar profile h."""

    profile: str
    exponent: float
    pairs_checked: int
    min_slack: float
    violations: int
    worst_t: float
    worst_x: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _check_scalar_inequality(profile, fn, t_grid, x_grid, N, x_sup):
    t = np.asarray(t_grid, dtype=np.float64).ravel()
    x = np.asarray(x_grid, dtype=np.float64).ravel()
    if t.size == 0 or x.size == 0:
        raise ValueError("grids must be non-empty")
    if t.min() < 0.0 or t.max() > 1.0:
        raise ValueError("t grid must lie in [0, 1]")
    if x.min() <= 0.0 or x.max() >= x_sup:
        raise ValueError(f"x grid must lie in the open interval (0, {x_sup:g})")
    slack = fn(np.outer(t, x)) - np.outer(t**N, fn(x))
    flat = int(np.argmin(slack))
    it, ix = divmod(flat, x.size)
    return InequalityReport(
        profile=profile,
        exponent=float(N),
        pairs_checked=slack.size,
        min_slack=float(slack.flat[flat]),
        violations=int(np.count_nonzero(slack < SLACK_FLOOR)),
        worst_t=float(t[it]),
        worst_x=float(x[ix]),
    )


def check_g_inequality(t_grid, x_grid, N: float) -> InequalityReport:
    """Verify g(t x) >= t^N g(x) on (0, pi), g(x) = sin(x) - x cos(x).

    The inequality holds for N >= 3; smaller exponents are accepted and the
    violations they produce at small x are counted, not raised.
    """
    return _check_scalar_inequality("g", _g, t_grid, x_grid, N, np.pi)


def check_f_inequality(t_grid, x_grid, N: float) -> InequalityReport:
    """Verify f(t x) >= t^N f(x) on (0, 2 pi), f(x) = x - sin(x)."""
    return _check_scalar_inequality("f", _f, t_grid, x_grid, N, 2.0 * np.pi)


@dataclass(frozen=True)
class JacobianContractionReport:
    """Sampled check of J(t lambda) >= t^(2p) J(lambda) on the injectivity domain."""

    samples: int
    t_grid: tuple[float, ...]
    min_margin: float
    passed: bool


_JACOBIAN_SLACK = 1e-12


def check_jacobian_contraction(sc: StructureConstants, samples: int, t_grid,
                               seed: int = DEFAULT_SEED) -> JacobianContractionReport:
    """Check the homothety contraction of the Jacobian at seeded covectors.

    Draws covectors uniformly in the default box and verifies, for each t in
    t_grid, J(t u, t v) >= t^(2p) J(u, v) up to relative slack 1e-12.  The
    reported margin is the smallest value of J(t lam)/(t^(2p) J(lam)) - 1.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    ts = [float(t) for t in t_grid]
    if any(not 0.0 < t <= 1.0 for t in ts):
        raise ValueError("t grid must lie in (0, 1]")
    box = default_box(sc)
    rng = generator(seed, stream=2)
    draws = rng.uniform(box.lower, box.upper, size=(samples, box.lower.size))
    k, p = sc.rank, sc.corank
    # row i, column j holds the covector s_j (u_i, v_i), s = (1, *ts); the
    # default box lies inside the injectivity domain, so no row leaves it
    scales = np.array([1.0, *ts])[:, None]
    t_pow = np.array([t ** (2 * p) for t in ts])
    # kernel coordinates contribute the factor 1 and the weights 0, and their
    # zero angles would force both branches of the scalar helpers
    pos = sc.s_positive
    min_margin = math.inf
    for rows in _row_batches(samples, scales.size * k):
        u = scales * draws[rows, None, pos]
        v = scales * draws[rows, None, k:]
        jac = _jacobian_core(sc.s_diag[pos], 0.5, p, u * u, np.linalg.norm(v, axis=-1))
        margins = jac[:, 1:] / (t_pow * jac[:, :1]) - 1.0
        if margins.size:
            min_margin = min(min_margin, float(margins.min()))
    return JacobianContractionReport(
        samples=samples,
        t_grid=tuple(ts),
        min_margin=float(min_margin),
        passed=bool(min_margin >= -_JACOBIAN_SLACK),
    )


@dataclass(frozen=True)
class CovectorBox:
    """Axis-aligned box of covectors, corners lower/upper in R^(k+p)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be equal-length vectors")
        if not all(map(math.isfinite, lo.tolist() + hi.tolist())):
            raise ValueError("box corners must be finite")
        if not np.all(lo < hi):
            raise ValueError("box corners must satisfy lower < upper componentwise")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def split(self, rank: int):
        return (self.lower[:rank], self.upper[:rank],
                self.lower[rank:], self.upper[rank:])


def _require_box_in_domain(sc, box: CovectorBox):
    # Corner test in closed form: every corner has |v| < R iff the corner of
    # componentwise-largest |v_i| does, and some corner has S u = 0 iff every
    # coordinate c has an endpoint x with s_c x == 0.
    if box.dim != sc.dim:
        raise BoxOutsideDomain(
            f"box dimension {box.dim} does not match the group dimension {sc.dim}"
        )
    u_lo, u_hi, v_lo, v_hi = box.split(sc.rank)
    far_v = np.where(np.abs(v_hi) >= np.abs(v_lo), v_hi, v_lo)
    if not float(np.linalg.norm(far_v)) < sc.first_conjugate_radius:
        corner = np.concatenate((u_lo, far_v))
        raise BoxOutsideDomain(
            f"box corner {corner.tolist()} leaves the injectivity domain: "
            f"|v| is not below {sc.first_conjugate_radius!r}"
        )
    lo_null = sc.s_diag * u_lo == 0.0
    hi_null = sc.s_diag * u_hi == 0.0
    if np.all(lo_null | hi_null):
        corner = np.concatenate((np.where(lo_null, u_lo, u_hi), v_lo))
        raise BoxOutsideDomain(
            f"box corner {corner.tolist()} leaves the injectivity domain: S u = 0"
        )


def default_box(sc: StructureConstants) -> CovectorBox:
    """Unit-scale box inside the injectivity domain: u in [0.5, 1.5]^k and
    each v coordinate in [h/3, h], h = min(1.5, 0.95 R / sqrt(p))."""
    k, p = sc.rank, sc.corank
    v_hi = min(1.5, 0.95 * sc.first_conjugate_radius / math.sqrt(p))
    v_lo = v_hi / 3.0
    lower = np.concatenate((np.full(k, 0.5), np.full(p, v_lo)))
    upper = np.concatenate((np.full(k, 1.5), np.full(p, v_hi)))
    return CovectorBox(lower, upper)


def _compositions(total: int, parts: int):
    # weak compositions of `total` into `parts` slots, lexicographic
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def _deltas(corank: int, blocks: int) -> tuple[tuple[int, ...], ...]:
    # the exponents delta = gamma + e_i, |gamma| = p - 1, in order of
    # lexicographic gamma, then i, each delta where it first occurs: the one
    # order of the coefficients of _jacobian_expansion and of the u-moments
    return tuple(dict.fromkeys(
        tuple(g + (1 if j == i else 0) for j, g in enumerate(gamma))
        for gamma in _compositions(corank - 1, blocks) for i in range(blocks)))


@lru_cache(maxsize=None)
def _binomial_terms(rows: int, cols: int):
    # The terms of out[d, j] = sum_{e <= d, i <= j} C(d, e) C(j, i) a[e, i]
    # b[d - e, j - i] over rows x cols tables: flat indices into a, b and
    # out, and the coefficients.  The terms of each output run in order of e,
    # then i, so that np.bincount adds them as a left-to-right sum.
    terms = [(e * cols + i, (d - e) * cols + (j - i), d * cols + j,
              math.comb(d, e) * math.comb(j, i))
             for d in range(rows) for e in range(d + 1)
             for j in range(cols) for i in range(j + 1)]
    cols = [np.array(col, dtype=dtype)
            for col, dtype in zip(zip(*terms), (np.intp, np.intp, np.intp, np.float64))]
    for col in cols:
        col.flags.writeable = False
    return cols


def _binomial_product(a, b):
    # out[d, j] = sum_{e, i} C(d, e) C(j, i) a[e, i] b[d - e, j - i], each
    # term multiplied as (C a) b: the moment table of a sum of two
    # independent variables from the tables of each
    a_idx, b_idx, out_idx, coef = _binomial_terms(*a.shape)
    terms = coef * a.ravel()[a_idx] * b.ravel()[b_idx]
    return np.bincount(out_idx, weights=terms, minlength=a.size).reshape(a.shape)


def _u_moment_table(sc, u_lo, u_hi, quad: int, degree: int = 0, interval=None):
    """Tensor Gauss-Legendre u-moments M[delta, j] = sum_u w q^delta y^j.

    delta runs over _deltas (the exponents of _jacobian_expansion), q holds
    the squared block norms of u and, for interval = (m, h), y = sum_c
    (u_c^2 - m_c) / h; degree = 0 needs no interval.  Built per coordinate
    from the power sums sum_x w x^(2e) s^i, s = (x^2 - m_c) / h: a block's
    table of q_b^d y_b^j is the binomial product of its coordinates' tables,
    and M the binomial product of the block rows delta_b and of the kernel
    coordinates' y-moments.  The column j = 0 integrates q^delta exactly
    (quad >= 4 >= p + 1).  Identical sums to the full tensor rule,
    reorganized.
    """
    p = sc.corank
    rules = [mapped_rule(lo, hi, quad) for lo, hi in zip(u_lo, u_hi)]
    x = np.array([r[0] for r in rules])
    w = np.array([r[1] for r in rules])
    terms = np.stack([w * x ** (2 * e) for e in range(p + 1)], axis=1)[:, :, None]
    if degree:
        m, h = interval
        powers = np.repeat(((x * x - m[:, None]) / h)[:, None], degree + 1, axis=1)
        powers[:, 0] = 1.0
        terms = terms * np.cumprod(powers, axis=1)[:, None]
    sums = pairwise_sums(terms)  # [c, e, i]

    def table(indices, rows):
        acc = np.zeros((rows, degree + 1))
        acc[0, 0] = 1.0
        for c in indices:
            acc = _binomial_product(sums[c, :rows], acc)
        return acc

    kernel = table(sc.kernel_indices, 1)
    blocks = [table(b.indices, p + 1) for b in sc.blocks]
    moments = []
    for delta in _deltas(p, len(sc.blocks)):
        row = kernel
        for block, d in zip(blocks, delta):
            row = _binomial_product(row, block[d:d + 1])
        moments.append(row[0])
    return np.array(moments)


def _row_batches(count: int, width: int):
    # slices of at most NODE_BUDGET // width rows (at least one), so that an
    # evaluation over `width` nodes per row never holds more than one grid
    step = max(1, NODE_BUDGET // width)
    return [slice(start, start + step) for start in range(0, count, step)]


def _jacobian_expansion(sc, theta):
    """J(s u, s v) / s^(2p) as a polynomial in q, at angles theta = s alpha_j |v|.

    J = pref * (sum_j a_j q_j)^(p-1) * (sum_i b_i q_i) expands into
    pref * sum_delta c_delta q^delta over |delta| = p, where q holds the
    squared block norms of u.  Returns pref and the list of c_delta in the
    order of _deltas.  c_delta sums multinom(gamma) a^gamma b_i over the i
    with gamma = delta - e_i >= 0, in order of i.
    """
    p = sc.corank
    pref, a, b = _jacobian_factors(sc.block_alphas(), sc.block_pairs(), theta)
    d = a.shape[-1]
    agams = {}
    coeffs = []
    for delta in _deltas(p, d):
        c = None
        for i in [i for i in range(d) if delta[i]]:
            gamma = delta[:i] + (delta[i] - 1,) + delta[i + 1:]
            if gamma not in agams:
                multinom = math.factorial(p - 1) // math.prod(map(math.factorial, gamma))
                agams[gamma] = multinom * np.prod(a**np.array(gamma), axis=-1)
            term = agams[gamma] * b[..., i]
            c = term if c is None else c + term
        coeffs.append(c)
    return pref, coeffs


def _box_jacobian_integral(sc, box: CovectorBox, scales, quad: int, moments,
                          v_side: bool = False):
    """Integrals of J(s u, s v) over the box for each scale s, by factored
    tensor Gauss-Legendre.

    The integrand is polynomial in u (degree 2p), so the u-integral reduces
    to the exact moments sum_u w q^delta, one per delta of _deltas; only the
    v-grid (quad^p nodes) is enumerated, once for all scales.  Identical
    quadrature sum to the full tensor rule, reorganized.  Returns the
    integrals and, with v_side, the v-side V_delta = sum_v w pref c_delta of
    the K < 0 distortion average from the row of scales[0], which must then
    be 1 (else None).
    """
    p = sc.corank
    pts, wts = tensor_grid(box.lower[sc.rank:], box.upper[sc.rank:], quad)
    rays = np.multiply.outer(np.linalg.norm(pts, axis=1), sc.block_alphas())
    scale_col = np.array(scales, dtype=np.float64)
    totals = []
    v_sums = None
    for rows in _row_batches(len(scales), len(wts)):
        pref, coeffs = _jacobian_expansion(sc, np.multiply.outer(scale_col[rows], rays))
        vals = np.zeros_like(pref)
        for c, moment in zip(coeffs, moments):
            vals += c * moment
        totals.extend(pairwise_sums(wts * pref * vals).tolist())
        if v_side and v_sums is None:
            weights = wts * pref[0]
            v_sums = np.array([pairwise_sum(weights * c[0]) for c in coeffs])
    return [s ** (2 * p) * total for s, total in zip(scales, totals)], v_sums


def _require_quadrature(sc, box: CovectorBox, quad: int):
    if quad < 4:
        raise ValueError("need at least 4 quadrature points per dimension")
    require_node_budget(quad, sc.corank)
    _require_box_in_domain(sc, box)


def _ratios(sc, box: CovectorBox, ts, quad: int, moments, v_side: bool = False):
    # t^n * integral J(t u, t v) / integral J(u, v) for every t of ts, with
    # one denominator, and the v-side sums of _box_jacobian_integral
    (den, *nums), v_sums = _box_jacobian_integral(sc, box, [1.0, *ts], quad, moments,
                                                  v_side)
    return [t**sc.dim * num / den for t, num in zip(ts, nums)], v_sums


def _moment_corners(sc, box: CovectorBox):
    # (u_lo, u_hi, e): the u-corners times 2^-e, at unit scale.  The
    # u-moments scale as |u|^(2p) times the box volume, so they would
    # underflow or overflow on boxes far from unit scale; a power of two
    # scales every moment exactly, so the ratios and the distortion averages
    # keep their bits, and D_t is taken at the true |u| (_true_norm).
    u_lo, u_hi = box.lower[:sc.rank], box.upper[:sc.rank]
    e = _dilation_exponent(max(map(abs, u_lo.tolist() + u_hi.tolist())))
    return np.ldexp(u_lo, -e), np.ldexp(u_hi, -e), e


def _true_norm(norm, e):
    # |u| from the norm of the u-corners times 2^-e; inf past the float range
    with np.errstate(over="ignore"):
        return np.ldexp(norm, e)


def _contraction_ratios(sc, box: CovectorBox, ts, quad: int) -> list[float]:
    _require_quadrature(sc, box, quad)
    u_lo, u_hi, _ = _moment_corners(sc, box)
    return _ratios(sc, box, ts, quad, _u_moment_table(sc, u_lo, u_hi, quad)[:, 0])[0]


def contraction_ratio(sc: StructureConstants, box: CovectorBox, t: float,
                      quad_points_per_dim: int) -> float:
    """Measure ratio mu(Omega_t)/mu(Omega) for the homothety image of exp(box).

    Equals t^n * integral(J(t u, t v)) / integral(J(u, v)) over the box,
    evaluated by deterministic tensor Gauss-Legendre quadrature.  Exactly 1
    at t = 1.
    """
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    return _contraction_ratios(sc, box, [t], quad_points_per_dim)[0]


@dataclass(frozen=True)
class SharpnessReport:
    """Witness that the contraction exponent cannot be raised by epsilon."""

    epsilon: float
    exponent: float
    t_grid: tuple[float, ...]
    ratios: tuple[float, ...]
    thresholds: tuple[float, ...]
    attempts: int

    @property
    def margins(self) -> tuple[float, ...]:
        return tuple(th - r for th, r in zip(self.thresholds, self.ratios))

    @property
    def passed(self) -> bool:
        return all(m > 0.0 for m in self.margins)


_SHARPNESS_T_GRID = tuple(i / 33.0 for i in range(1, 33))
_SHARPNESS_QUAD = 8
_SHARPNESS_SHRINKS = 10


def sharpness_box(sc: StructureConstants, shrink: int = 0) -> CovectorBox:
    """Small box near v = 0 around a unit horizontal covector.

    Centered at u = first non-kernel basis direction, v = delta * e1 with
    delta = 1e-3 R; half-widths 1e-3 in every coordinate.  Both delta and the
    half-widths halve with each shrink step.
    """
    factor = 0.5**shrink
    delta = 1e-3 * sc.first_conjugate_radius * factor
    half = 1e-3 * factor
    center = np.zeros(sc.dim)
    first = int(sc.blocks[0].indices[0])
    center[first] = 1.0
    center[sc.rank] = delta
    return CovectorBox(center - half, center + half)


def sharpness_witness(sc: StructureConstants, epsilon: float
                      ) -> tuple[CovectorBox, SharpnessReport]:
    """Exhibit a box whose contraction ratio drops below t^(N - epsilon).

    N = k + 3p is the geodesic dimension; the witness shows the contraction
    exponent is sharp.  Boxes concentrate near v = 0 where the ratio behaves
    like t^(N) and therefore undercuts every smaller exponent; the box is
    shrunk up to 10 times before giving up.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    n_target = geodesic_dimension(sc.spec) - epsilon
    for attempt in range(_SHARPNESS_SHRINKS + 1):
        box = sharpness_box(sc, shrink=attempt)
        ratios = tuple(_contraction_ratios(sc, box, _SHARPNESS_T_GRID, _SHARPNESS_QUAD))
        thresholds = tuple(t**n_target for t in _SHARPNESS_T_GRID)
        report = SharpnessReport(
            epsilon=epsilon,
            exponent=n_target,
            t_grid=_SHARPNESS_T_GRID,
            ratios=ratios,
            thresholds=thresholds,
            attempts=attempt + 1,
        )
        if report.passed:
            return box, report
    raise WitnessNotFound(
        f"no box witnessed failure of the t^{n_target:g} contraction after "
        f"{_SHARPNESS_SHRINKS} shrinks; the Jacobian is likely wrong"
    )


@dataclass(frozen=True)
class ContractionReport:
    """Per-t verdicts of the measure contraction inequality on a box."""

    group: str
    curvature: float
    n_claimed: float
    t_grid: tuple[float, ...]
    ratios: tuple[float, ...]
    bounds: tuple[float, ...]

    @property
    def margins(self) -> tuple[float, ...]:
        # a bound that underflows to 0 is met by any non-negative ratio
        return tuple(r / b - 1.0 if b != 0.0 else (math.inf if r > 0.0 else 0.0)
                     for r, b in zip(self.ratios, self.bounds))

    @property
    def verdicts(self) -> tuple[bool, ...]:
        return tuple(m >= -VERDICT_SLACK for m in self.margins)

    @property
    def passed(self) -> bool:
        return all(self.verdicts)


# The distortion coefficient D_t(sqrt(rho)), rho = |u|^2, is analytic in
# rho; its nearest singularity is the pole or branch point at
# rho = -pi^2 (N-1)/(-K), a zero of sinh(sqrt(-K rho/(N-1))).  Its distance
# from the box's rho-interval [m - h, m + h], relative to h, sets how fast
# the Chebyshev coefficients decay, and so whether the interpolant or the
# u-grid runs.  D_t is interpolated at _CHEB_POINTS Chebyshev points of
# y = (rho - m)/h and truncated at the lowest degree, at most
# _CHEB_MAX_DEGREE, whose error bound, twice the dropped Chebyshev tail over
# the smallest D_t on the interval (at rho = m + h, since D_t decreases in
# rho), is at most _CHEB_TOL.
_CHEB_POINTS = 24
_CHEB_MAX_DEGREE = 20
_CHEB_TOL = 1e-13


@lru_cache(maxsize=None)
def _chebyshev_basis():
    # the nodes y_i = cos(pi (i + 1/2) / n); the rows that map values at the
    # nodes to Chebyshev coefficients; and power[m, j], the coefficient of
    # y^j in T_m, from T_(m+1) = 2 y T_m - T_(m-1)
    n = _CHEB_POINTS
    angles = np.pi * (np.arange(n) + 0.5) / n
    rows = (2.0 / n) * np.cos(np.multiply.outer(np.arange(n), angles))
    rows[0] *= 0.5
    power = np.zeros((n, n))
    power[0, 0] = power[1, 1] = 1.0
    for m in range(2, n):
        power[m, 1:] = 2.0 * power[m - 1, :-1]
        power[m] -= power[m - 2]
    basis = (np.cos(angles), rows, power)
    for arr in basis:
        arr.flags.writeable = False
    return basis


def _distortion_fit(u_lo, u_hi, K, N, ts, e=0):
    """Power coefficients in y of the truncated interpolants of D_t, per t.

    The corners come times 2^-e from _moment_corners, and D_t is taken at
    the true |u|.  Returns (coefficients (len(ts), degree + 1), (m_c, h)),
    with m_c the midpoint of the range of u_c^2 on the box and h half the
    width of the range of rho, both times 4^-e, so that y = sum_c
    (u_c^2 - m_c) / h; or None when some t misses the error bound, and the
    u-grid must be summed instead.
    """
    sq_lo, sq_hi = u_lo * u_lo, u_hi * u_hi
    top = np.maximum(sq_lo, sq_hi)
    bottom = np.where((u_lo <= 0.0) & (u_hi >= 0.0), 0.0, np.minimum(sq_lo, sq_hi))
    centers = 0.5 * (top + bottom)
    h = 0.5 * float(np.sum(top - bottom))
    nodes, rows, power = _chebyshev_basis()
    rho = np.append(float(np.sum(centers)) + h * nodes, float(np.sum(top)))
    if not (h > 0.0 and np.all(np.isfinite(rho))):
        return None
    t_col = np.array(ts)[:, None]
    a = math.sqrt(-K) / math.sqrt(N - 1.0) * _true_norm(np.sqrt(rho), e)
    values = t_col * _sinh_ratio(t_col, a) ** (N - 1.0)
    least = values[:, -1]
    cheb = pairwise_sums(values[:, None, :-1] * rows)
    # tails[:, d] = sum_{j > d} |c_j|, for d up to _CHEB_MAX_DEGREE
    tails = np.cumsum(np.abs(cheb[:, :0:-1]), axis=1)[:, ::-1][:, :_CHEB_MAX_DEGREE + 1]
    good = 2.0 * tails <= _CHEB_TOL * least[:, None]
    if not (np.all(least > 0.0) and np.all(good[:, -1])):
        return None
    degrees = np.argmax(good, axis=1)
    top_degree = int(degrees.max())
    kept = np.where(np.arange(top_degree + 1) <= degrees[:, None], cheb[:, :top_degree + 1], 0.0)
    coefficients = pairwise_sums(kept[:, None, :] * power[:top_degree + 1, :top_degree + 1].T)
    return coefficients, (centers, h)


def _grid_distortion_bounds(sc, u_lo, u_hi, e, K, N, ts, quad, v_side):
    # The distortion average summed over the quad^k u-grid:
    #   U_delta(t) = sum_u w q^delta D_t(|u|)
    # and bound_t = sum V U(t) / sum V U(1), where D_1 = 1; the corners come
    # times 2^-e from _moment_corners.
    u_pts, u_wts = tensor_grid(u_lo, u_hi, quad)
    q = np.stack([np.sum(u_pts[:, b.indices] ** 2, axis=1) for b in sc.blocks], axis=-1)
    monomials = np.stack([u_wts * np.prod(q ** np.array(delta), axis=-1)
                          for delta in _deltas(sc.corank, len(sc.blocks))])
    den = pairwise_sum(v_side * pairwise_sums(monomials))
    a = math.sqrt(-K) / math.sqrt(N - 1.0) * _true_norm(np.linalg.norm(u_pts, axis=1), e)
    t_col = np.array(ts)[:, None]
    bounds = []
    for rows in _row_batches(len(ts), monomials.size):
        weight = t_col[rows] * _sinh_ratio(t_col[rows], a) ** (N - 1.0)
        u_side = pairwise_sums(weight[:, None, :] * monomials)
        bounds.extend((pairwise_sums(u_side * v_side) / den).tolist())
    return bounds


def _curved_report(sc, box, K, N, ts, quad):
    # Ratios and the J-weighted box averages of the distortion coefficient
    # D_t(|u|), per t.  J = pref(|v|) sum_delta c_delta(|v|) q(u)^delta and
    # D_t depends on u only, so the tensor Gauss-Legendre sum factors into
    #   V_delta = sum_v w pref c_delta        over the ratios' quad^p nodes,
    #   U_delta(t) = sum_u w q^delta D_t(|u|)
    # and bound_t = sum V U(t) / sum V U(1).  With D_t = sum_j a_j y^j to
    # within _CHEB_TOL, U_delta(t) = sum_j a_j M[delta, j] from the moment
    # table; elsewhere the u-grid (quad^k nodes) is summed.
    _require_quadrature(sc, box, quad)
    u_lo, u_hi, e = _moment_corners(sc, box)
    fit = _distortion_fit(u_lo, u_hi, K, N, ts, e)
    if fit is None:
        require_node_budget(quad, sc.rank)
        moments = _u_moment_table(sc, u_lo, u_hi, quad)
    else:
        coefficients, interval = fit
        moments = _u_moment_table(sc, u_lo, u_hi, quad, coefficients.shape[1] - 1,
                                  interval)
    ratios, v_side = _ratios(sc, box, ts, quad, moments[:, 0], v_side=True)
    if fit is None:
        return ratios, _grid_distortion_bounds(sc, u_lo, u_hi, e, K, N, ts, quad, v_side)
    den = pairwise_sum(v_side * moments[:, 0])
    u_side = pairwise_sums(coefficients[:, None, :] * moments)
    return ratios, (pairwise_sums(u_side * v_side) / den).tolist()


def _require_curvature(K, N):
    if not (math.isfinite(K) and math.isfinite(N)):
        raise ValueError(f"K and N must be finite, got K = {K}, N = {N}")
    if K > 0.0:
        raise UnsupportedPositiveK(
            f"K = {K} > 0 requires a bounded space; these groups are unbounded"
        )
    if not N > 1.0:
        raise ValueError(f"N must exceed 1, got {N}")


def mcp_report(sc: StructureConstants, K: float, N: float, box: CovectorBox,
               t_grid, quad: int, workers: int = 1) -> ContractionReport:
    """Verify the measure contraction inequality on a box of covectors.

    The left side is the quadrature contraction ratio; the right side is the
    model bound: exactly t^N for K = 0, and for K < 0 the J-weighted box
    average of the distortion coefficient at distance |u|.  A t passes when
    ratio >= bound * (1 - 1e-9).  K and N must be finite.  For K < 0 the
    average is a Chebyshev interpolant of the coefficient in |u|^2, summed
    exactly through per-coordinate moments, wherever its error bound is at
    most 1e-13 relative; elsewhere it is summed over the quad^k u-grid.
    Each grid holds at most NODE_BUDGET nodes: quad^p for the ratios and,
    where it is built, quad^k for the u-grid.  ``workers`` is accepted for
    compatibility and has no effect.
    """
    _require_curvature(K, N)
    ts = [float(t) for t in t_grid]
    if not ts or any(not 0.0 < t < 1.0 for t in ts):
        raise ValueError("t grid must be non-empty and lie in (0, 1)")
    if K == 0.0:
        ratios = _contraction_ratios(sc, box, ts, quad)
        bounds = [t**N for t in ts]
    else:
        ratios, bounds = _curved_report(sc, box, K, N, ts, quad)
    return ContractionReport(
        group=repr(sc.spec),
        curvature=float(K),
        n_claimed=float(N),
        t_grid=tuple(ts),
        ratios=tuple(ratios),
        bounds=tuple(bounds),
    )
