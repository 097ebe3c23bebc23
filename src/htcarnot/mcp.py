"""Measure-contraction verification.

Dimension formulas, the scalar growth inequalities behind the main
contraction estimate, the pointwise Jacobian contraction check, quadrature
contraction ratios over covector boxes, sharpness witnesses for exponents
below the geodesic dimension, and the reduction to negative curvature bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoxOutsideDomain,
    UnsupportedPositiveK,
    WitnessNotFound,
)
from .geodesics import _jacobian_core, _jacobian_factors
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
    min_margin = math.inf
    for rows in _row_batches(samples, scales.size * k):
        u = scales * draws[rows, None, :k]
        v = scales * draws[rows, None, k:]
        jac = _jacobian_core(sc.s_diag, 0.5, p, u * u, np.linalg.norm(v, axis=-1))
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


def _u_moment_table(sc, u_lo, u_hi, quad: int, max_degree: int):
    """Integrals of products of squared block norms over the u-box.

    Returns (kernel_factor, table) where table[block][d] integrates
    |u_block|^(2d) over that block's coordinates with the tensor
    Gauss-Legendre rule; exact since quad >= 4 >= max_degree + 1.
    """
    power_sums = []
    for c in range(u_lo.size):
        x, w = mapped_rule(u_lo[c], u_hi[c], quad)
        power_sums.append([float(pairwise_sum(w * x ** (2 * e)))
                           for e in range(max_degree + 1)])
    kernel_factor = 1.0
    for c in sc.kernel_indices:
        kernel_factor *= power_sums[c][0]
    table = []
    for b in sc.blocks:
        dp = [1.0] + [0.0] * max_degree
        for c in b.indices:
            nxt = [0.0] * (max_degree + 1)
            for d in range(max_degree + 1):
                nxt[d] = sum(
                    math.comb(d, e) * power_sums[c][e] * dp[d - e]
                    for e in range(d + 1)
                )
            dp = nxt
        table.append(dp)
    return kernel_factor, table


def _row_batches(count: int, width: int):
    # slices of at most NODE_BUDGET // width rows (at least one), so that an
    # evaluation over `width` nodes per row never holds more than one grid
    step = max(1, NODE_BUDGET // width)
    return [slice(start, start + step) for start in range(0, count, step)]


def _jacobian_expansion(sc, theta):
    """J(s u, s v) / s^(2p) as a polynomial in q, at angles theta = s alpha_j |v|.

    J = pref * (sum_j a_j q_j)^(p-1) * (sum_i b_i q_i) expands into
    pref * sum_delta c_delta q^delta over |delta| = p, where q holds the
    squared block norms of u.  Returns pref and {delta: c_delta}, with delta
    = gamma + e_i in order of lexicographic gamma, then i.
    """
    p = sc.corank
    pref, a, b = _jacobian_factors(sc.block_alphas(), sc.block_pairs(), theta)
    d = a.shape[-1]
    coeffs = {}
    for gamma in _compositions(p - 1, d):
        multinom = math.factorial(p - 1) // math.prod(map(math.factorial, gamma))
        agam = multinom * np.prod(a**np.array(gamma), axis=-1)
        for i in range(d):
            delta = tuple(g + (1 if j == i else 0) for j, g in enumerate(gamma))
            term = agam * b[..., i]
            coeffs[delta] = coeffs[delta] + term if delta in coeffs else term
    return pref, coeffs


def _box_jacobian_integral(sc, box: CovectorBox, scales, quad: int) -> list[float]:
    """Integrals of J(s u, s v) over the box for each scale s, by factored
    tensor Gauss-Legendre.

    The integrand is polynomial in u (degree 2p), so the u-integral reduces
    to exact moments of the squared block norms; only the v-grid (quad^p
    nodes) is enumerated, once for all scales.  Identical quadrature sum to
    the full tensor rule, reorganized.
    """
    u_lo, u_hi, v_lo, v_hi = box.split(sc.rank)
    p = sc.corank
    kernel_factor, table = _u_moment_table(sc, u_lo, u_hi, quad, p)
    pts, wts = tensor_grid(v_lo, v_hi, quad)
    rays = np.multiply.outer(np.linalg.norm(pts, axis=1), sc.block_alphas())
    scale_col = np.array(scales, dtype=np.float64)
    totals = []
    for rows in _row_batches(len(scales), len(wts)):
        pref, coeffs = _jacobian_expansion(sc, np.multiply.outer(scale_col[rows], rays))
        vals = np.zeros_like(pref)
        for delta, c in coeffs.items():
            moment = math.prod((table[j][dj] for j, dj in enumerate(delta)),
                               start=kernel_factor)
            vals += c * moment
        totals.extend(pairwise_sums(wts * pref * vals).tolist())
    return [s ** (2 * p) * total for s, total in zip(scales, totals)]


def _contraction_ratios(sc, box: CovectorBox, ts, quad: int) -> list[float]:
    # t^n * integral J(t u, t v) / integral J(u, v) for every t of ts, with
    # one box check and one denominator
    if quad < 4:
        raise ValueError("need at least 4 quadrature points per dimension")
    require_node_budget(quad, sc.corank)
    _require_box_in_domain(sc, box)
    den, *nums = _box_jacobian_integral(sc, box, [1.0, *ts], quad)
    return [t**sc.dim * num / den for t, num in zip(ts, nums)]


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


def _distortion_bounds(sc, box, K, N, ts, quad):
    # J-weighted box average of the distortion coefficient D_t(|u|), per t.
    # J = pref(|v|) sum_delta c_delta(|v|) q(u)^delta and D_t depends on u
    # only, so the tensor Gauss-Legendre sum factors into
    #   V_delta = sum_v w pref c_delta           over quad^p nodes,
    #   U_delta(t) = sum_u w q^delta D_t(|u|)    over quad^k nodes,
    # and bound_t = sum V U(t) / sum V U(1), where D_1 = 1.
    u_lo, u_hi, v_lo, v_hi = box.split(sc.rank)
    v_pts, v_wts = tensor_grid(v_lo, v_hi, quad)
    pref, coeffs = _jacobian_expansion(
        sc, np.multiply.outer(np.linalg.norm(v_pts, axis=1), sc.block_alphas()))
    v_side = np.array([pairwise_sum(v_wts * pref * c) for c in coeffs.values()])
    u_pts, u_wts = tensor_grid(u_lo, u_hi, quad)
    q = np.stack([np.sum(u_pts[:, b.indices] ** 2, axis=1) for b in sc.blocks], axis=-1)
    monomials = [u_wts * np.prod(q ** np.array(delta), axis=-1) for delta in coeffs]
    den = pairwise_sum(v_side * [pairwise_sum(m) for m in monomials])
    a = math.sqrt(-K) / math.sqrt(N - 1.0) * np.linalg.norm(u_pts, axis=1)
    t_col = np.array(ts)[:, None]
    bounds = []
    for rows in _row_batches(len(ts), a.size):
        weight = t_col[rows] * _sinh_ratio(t_col[rows], a) ** (N - 1.0)
        u_side = np.stack([pairwise_sums(weight * m) for m in monomials], axis=-1)
        bounds.extend((pairwise_sums(u_side * v_side) / den).tolist())
    return bounds


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
    ratio >= bound * (1 - 1e-9).  K and N must be finite.  Each grid holds
    at most NODE_BUDGET nodes: quad^p for the ratios and, for K < 0, quad^k
    more.  ``workers`` is accepted for compatibility and has no effect.
    """
    _require_curvature(K, N)
    ts = [float(t) for t in t_grid]
    if not ts or any(not 0.0 < t < 1.0 for t in ts):
        raise ValueError("t grid must be non-empty and lie in (0, 1)")
    if K < 0.0:
        require_node_budget(quad, sc.rank)
    ratios = tuple(_contraction_ratios(sc, box, ts, quad))
    if K == 0.0:
        bounds = tuple(t**N for t in ts)
    else:
        bounds = tuple(_distortion_bounds(sc, box, K, N, ts, quad))
    return ContractionReport(
        group=repr(sc.spec),
        curvature=float(K),
        n_claimed=float(N),
        t_grid=tuple(ts),
        ratios=ratios,
        bounds=bounds,
    )
