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
    tensor_squares,
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
    return _distortion(K, N, t, dist)


def _distortion(K, N, t, dist):
    # D_t(dist) of distortion_coefficient, elementwise in t and dist
    return t * _sinh_ratio(t, math.sqrt(-K) / math.sqrt(N - 1.0) * dist, N - 1.0)


def _sinh_ratio(t, a, power):
    # (sinh(t a)/sinh(a))^power, with its limit t^power at a = 0.  For
    # a > 30 it is exp(power log_ratio), from the exp-scaled
    #   log_ratio = (t - 1) a + log(-expm1(-2 t a)) - log1p(-exp(-2 a)):
    # large a never overflows, and the power comes before the exponential,
    # so a ratio below the float range does not round to 0 ahead of a power
    # near 0 (N near 1)
    t = np.asarray(t, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    big = a > 30.0
    zero = a == 0.0
    safe = np.where(big | zero, 1.0, a)
    wide = np.where(big, a, 31.0)
    direct = (np.sinh(t * safe) / np.sinh(safe)) ** power
    with np.errstate(divide="ignore"):  # log(0) = -inf at t = 0
        log_ratio = ((t - 1.0) * wide + np.log(-np.expm1(-2.0 * t * wide))
                     - np.log1p(-np.exp(-2.0 * wide)))
    out = np.where(big, np.exp(power * log_ratio), np.where(zero, t ** power, direct))
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
    reported margin is the smallest value of J(t lam)/(t^(2p) J(lam)) - 1;
    a NaN margin is reported as NaN and fails the check.
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
    # J in the unit frame, with v at unit scale as in _v_table:
    # the alphas times 2^-a and |v| times 2^a keep every angle alpha |v| bit
    # for bit, and J scales by 4^(-a p) in both terms of each margin.  Its
    # kernel coordinates contribute the factor 1 and the weights 0, and
    # their zero angles would force both branches of the scalar helpers
    fr = sc.unit_frame
    pos = fr.s_positive
    alphas = fr.s_diag[pos]
    e_v = _unit_corners(box.lower[k:], box.upper[k:])[2]
    minima = [math.inf]
    for rows in _row_batches(samples, scales.size * k):
        u = scales * draws[rows, None, pos]
        v = scales * np.ldexp(draws[rows, None, k:], -e_v)
        vn = np.ldexp(np.linalg.norm(v, axis=-1), e_v + sc.unit_exponent)
        jac = _jacobian_core(alphas, 0.5, p, u * u, vn)
        margins = jac[:, 1:] / (t_pow * jac[:, :1]) - 1.0
        if margins.size:
            minima.append(float(margins.min()))
    min_margin = float(np.min(minima))
    return JacobianContractionReport(
        samples=samples,
        t_grid=tuple(ts),
        min_margin=min_margin,
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
    # componentwise-largest |v_i| does, and some corner has S u = 0 iff the
    # corner that takes an endpoint 0 wherever there is one does (ker S at
    # the lower corner).
    if box.dim != sc.dim:
        raise BoxOutsideDomain(
            f"box dimension {box.dim} does not match the group dimension {sc.dim}"
        )
    u_lo, u_hi, v_lo, v_hi = box.split(sc.rank)
    far_v = np.where(np.abs(v_hi) >= np.abs(v_lo), v_hi, v_lo)
    if not math.hypot(*far_v.tolist()) < sc.first_conjugate_radius:
        corner = np.concatenate((u_lo, far_v))
        raise BoxOutsideDomain(
            f"box corner {corner.tolist()} leaves the injectivity domain: "
            f"|v| is not below {sc.first_conjugate_radius!r}"
        )
    u_null = np.where(u_lo == 0.0, u_lo, u_hi)
    u_null[sc.kernel_indices] = u_lo[sc.kernel_indices]
    if not sc.su_nonzero(u_null):
        corner = np.concatenate((u_null, v_lo))
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
    the squared norms of u on the blocks of the unit frame, whose partition
    _jacobian_expansion takes too, and, for interval = (m, h), y = sum_c
    (u_c^2 - m_c) / h; degree = 0 needs no interval.  Built per coordinate
    from the power sums sum_x w x^(2e) s^i, s = (x^2 - m_c) / h: a block's
    table of q_b^d y_b^j is the binomial product of its coordinates' tables,
    and M the binomial product of the block rows delta_b and of the kernel
    coordinates' y-moments.  The column j = 0 integrates q^delta, a
    polynomial of degree 2p in each coordinate, exactly only for
    quad >= p + 1; quad 4 to p carry a quadrature error (on the rank-8,
    corank-7 default box at t = 0.5, the ratio at quad 6 differs from its
    quad 8 value by 5e-11).  Identical sums to the full tensor rule,
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

    fr = sc.unit_frame
    kernel = table(fr.kernel_indices, 1)
    blocks = [table(b.indices, p + 1) for b in fr.blocks]
    moments = []
    for delta in _deltas(p, len(blocks)):
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
    with gamma = delta - e_i >= 0, in order of i.  The weights a and b take
    the alphas of the unit frame, whose squares stay in range at every
    alpha; that scales every c_delta by the same 4^(-a p), a =
    sc.unit_exponent, exactly, which the ratios and averages of J cancel.
    """
    p = sc.corank
    fr = sc.unit_frame
    pref, a, b = _jacobian_factors(fr.block_alphas(), fr.block_pairs(), theta)
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


def _require_quadrature(sc, box: CovectorBox, quad: int):
    if quad < 4:
        raise ValueError("need at least 4 quadrature points per dimension")
    require_node_budget(quad, sc.corank)
    _require_box_in_domain(sc, box)


def _v_table(sc, box: CovectorBox, scales, quad: int):
    """V[s, delta] = sum_v w pref c_delta over the quad^p v-grid, per scale s.

    J(s u, s v) / s^(2p) = pref sum_delta c_delta q(u)^delta at angles
    s alpha_j |v| (_jacobian_expansion), so its box integral is
    sum_delta V[s, delta] M_delta with the u-moments M of _u_moment_table.
    The v-grid is taken on the v-corners times 2^-e (_unit_corners), with J
    at the unit frame's |v|, the true |v| times 2^a: the table is the
    tensor Gauss-Legendre sum up to a power of two common to every entry.
    """
    v_lo, v_hi, e = _unit_corners(box.lower[sc.rank:], box.upper[sc.rank:])
    wts, (sq,) = tensor_squares(v_lo, v_hi, quad, [range(sc.corank)])
    rays = np.multiply.outer(_true_norm(np.sqrt(sq), e + sc.unit_exponent),
                             sc.unit_frame.block_alphas())
    scales = np.asarray(scales)
    table = []
    for rows in _row_batches(len(scales), len(wts)):
        pref, coeffs = _jacobian_expansion(sc, np.multiply.outer(scales[rows], rays))
        weighted = wts * pref
        table.append(np.stack([pairwise_sums(weighted * c) for c in coeffs], axis=-1))
    return np.concatenate(table)


def _unit_corners(lo, hi):
    # (lo, hi, e): box corners times 2^-e, at unit scale.  The u-moments
    # scale as |u|^(2p) times the box volume and the v-weights as the box
    # volume, so they would underflow or overflow on boxes far from unit
    # scale; a power of two scales every moment and weight exactly, so the
    # ratios and the distortion averages keep their bits, and D_t and J are
    # taken at the true |u| and |v| (_true_norm).
    e = _dilation_exponent(max(map(abs, lo.tolist() + hi.tolist())))
    return np.ldexp(lo, -e), np.ldexp(hi, -e), e


def _true_norm(norm, e):
    # |u| or |v| from the norm of the corners times 2^-e; inf past the float
    # range
    with np.errstate(over="ignore"):
        return np.ldexp(norm, e)


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
    return _contraction(sc, box, [t], quad_points_per_dim)[0][0]


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
    delta = 1e-3 R; half-widths 1e-3 in every u coordinate and
    min(1e-3, delta/2) in every v coordinate, so that |v| stays below R at
    every alpha_max (the two agree wherever R >= 2), and at least
    delta 2^-10, which takes over from R = 1024 on and keeps the v corners
    apart from delta where 1e-3 falls below its rounding.  Both delta and
    the half-widths halve with each shrink step.  Raises ValueError where
    R = 2 pi / alpha_max is beyond the float range (alpha_max below about
    3.5e-308).
    """
    radius = sc.first_conjugate_radius
    if not math.isfinite(radius):
        raise ValueError(f"R = 2 pi / alpha_max is beyond the float range at alpha_max = "
                         f"{sc.alpha_max!r}, so the sharpness box (|v| = 1e-3 R) is not defined")
    factor = 0.5**shrink
    delta = 1e-3 * radius * factor
    half = np.full(sc.dim, 1e-3 * factor)
    half[sc.rank:] = max(min(half[0], 0.5 * delta), delta * 2.0**-10)
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
        ratios = tuple(_contraction(sc, box, _SHARPNESS_T_GRID, _SHARPNESS_QUAD)[0])
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

    The corners come times 2^-e from _unit_corners, and D_t is taken at
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
    values = _distortion(K, N, np.array(ts)[:, None], _true_norm(np.sqrt(rho), e))
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


def _grid_distortion_sums(sc, u_lo, u_hi, e, K, N, ts, quad):
    # U_delta(t) = sum_u w q^delta D_t(|u|) over the quad^k u-grid, per t;
    # the corners come times 2^-e from _unit_corners
    blocks = sc.unit_frame.blocks
    wts, (sq, *q) = tensor_squares(u_lo, u_hi, quad,
                                   [range(sc.rank), *(b.indices for b in blocks)])
    q = np.stack(q, axis=-1)
    monomials = np.stack([wts * np.prod(q ** np.array(delta), axis=-1)
                          for delta in _deltas(sc.corank, len(blocks))])
    dist = _true_norm(np.sqrt(sq), e)
    t_col = np.array(ts)[:, None]
    sums = []
    for rows in _row_batches(len(ts), monomials.size):
        weight = _distortion(K, N, t_col[rows], dist)
        sums.append(pairwise_sums(weight[:, None, :] * monomials))
    return np.concatenate(sums)


def _contraction(sc, box: CovectorBox, ts, quad: int, K=0.0, N=None):
    """(ratios, bounds) per t, bounds None at K = 0.

    J = pref(|v|) sum_delta c_delta(|v|) q(u)^delta, so the box integral of
    J(s u, s v) is sum_delta V[s, delta] M_delta, with V from _v_table and
    the u-moments M = _u_moment_table(...)[:, 0]; each number shares the
    integral at scale 1, den = sum V[1] M:
        ratio_t = t^n t^(2p) sum V[t] M / den,   bound_t = sum V[1] U(t) / den,
    U_delta(t) = sum_u w q^delta D_t(|u|): sum_j a_j M[delta, j] where D_t =
    sum_j a_j y^j to within _CHEB_TOL, else summed over the quad^k u-grid.
    """
    _require_quadrature(sc, box, quad)
    u_lo, u_hi, e = _unit_corners(box.lower[:sc.rank], box.upper[:sc.rank])
    fit = None if K == 0.0 else _distortion_fit(u_lo, u_hi, K, N, ts, e)
    if fit is None:
        u_side = None if K == 0.0 else _grid_distortion_sums(sc, u_lo, u_hi, e, K, N, ts, quad)
        moments = _u_moment_table(sc, u_lo, u_hi, quad)
    else:
        coefficients, interval = fit
        moments = _u_moment_table(sc, u_lo, u_hi, quad, coefficients.shape[1] - 1,
                                  interval)
        u_side = pairwise_sums(coefficients[:, None, :] * moments)
    table = _v_table(sc, box, [1.0, *ts], quad)
    den = pairwise_sum(table[0] * moments[:, 0])
    p = sc.corank
    nums = pairwise_sums(table[1:] * moments[:, 0]).tolist()
    ratios = [t**sc.dim * (t ** (2 * p) * num) / den for t, num in zip(ts, nums)]
    if u_side is None:
        return ratios, None
    return ratios, (pairwise_sums(u_side * table[0]) / den).tolist()


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
    ratio >= bound * (1 - 1e-9).  K and N must be finite.  The box integral
    of J is taken once, as a table of its v-part per scale on the quad^p
    v-grid times exact u-moments, and the ratios and the K < 0 averages
    share it and its one denominator, the integral at scale 1; so the
    ratios do not depend on K.  For K < 0 the average is a Chebyshev
    interpolant of the coefficient in |u|^2, summed exactly through the
    moments, wherever its error bound is at most 1e-13 relative; elsewhere
    its u-part is summed over the quad^k u-grid.  Each grid holds at most
    NODE_BUDGET nodes.  ``workers`` is accepted for compatibility and has
    no effect.
    """
    _require_curvature(K, N)
    ts = [float(t) for t in t_grid]
    if not ts or any(not 0.0 < t < 1.0 for t in ts):
        raise ValueError("t grid must be non-empty and lie in (0, 1)")
    ratios, bounds = _contraction(sc, box, ts, quad, K, N)
    if bounds is None:
        bounds = [t**N for t in ts]
    return ContractionReport(
        group=repr(sc.spec),
        curvature=float(K),
        n_claimed=float(N),
        t_grid=tuple(ts),
        ratios=tuple(ratios),
        bounds=tuple(bounds),
    )
