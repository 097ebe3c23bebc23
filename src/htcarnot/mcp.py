"""Measure-contraction verification.

Dimension formulas, the scalar growth inequalities behind the main
contraction estimate, the pointwise Jacobian contraction check, quadrature
contraction ratios over covector boxes, sharpness witnesses for exponents
below the geodesic dimension, and the reduction to negative curvature bounds.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoxOutsideDomain,
    UnsupportedPositiveK,
    WitnessNotFound,
)
from .geodesics import (
    Covector,
    _jacobian_core,
    _jacobian_factors,
    in_injectivity_domain,
    jacobian,
)
from .quadrature import CHUNK, grid_chunk, mapped_rule, pairwise_sum
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
    positive dist the value is exactly t**N.
    """
    if K > 0.0:
        raise UnsupportedPositiveK(
            f"K = {K} > 0 requires a bounded space; these groups are unbounded"
        )
    if not N > 1.0:
        raise ValueError(f"N must exceed 1, got {N}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if dist < 0.0:
        raise ValueError(f"dist must be non-negative, got {dist}")
    if dist == 0.0:
        return t
    if K == 0.0:
        return t**N
    a = math.sqrt(-K) * dist / math.sqrt(N - 1.0)
    return t * _sinh_ratio(t, a) ** (N - 1.0)


def _sinh_ratio(t, a):
    # sinh(t a)/sinh(a), exp-scaled so large a never overflows
    t = np.asarray(t, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    big = a > 30.0
    safe = np.where(big, 1.0, a)
    direct = np.sinh(t * safe) / np.sinh(safe)
    scaled = np.exp((t - 1.0) * a) * (1.0 - np.exp(-2.0 * t * a)) / (1.0 - np.exp(-2.0 * a))
    out = np.where(big, scaled, direct)
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
    p = sc.corank
    min_margin = np.inf
    for row in draws:
        lam = Covector(row[: sc.rank], row[sc.rank:])
        base = jacobian(sc, lam)
        for t in ts:
            margin = jacobian(sc, lam.scale(t)) / (t ** (2 * p) * base) - 1.0
            if margin < min_margin:
                min_margin = margin
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
    # Corner test: every corner covector must lie in the injectivity domain;
    # the corner of componentwise-largest |v| dominates the norm bound.
    if box.dim != sc.dim:
        raise BoxOutsideDomain(
            f"box dimension {box.dim} does not match the group dimension {sc.dim}"
        )
    for corner in itertools.product(*zip(box.lower, box.upper)):
        lam = Covector(np.array(corner[: sc.rank]), np.array(corner[sc.rank:]))
        if not in_injectivity_domain(sc, lam):
            raise BoxOutsideDomain(
                f"box corner {corner} leaves the injectivity domain"
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


def _box_jacobian_integral(sc, box: CovectorBox, scale: float, quad: int) -> float:
    """Integral of J(s u, s v) over the box, by factored tensor Gauss-Legendre.

    The integrand is polynomial in u (degree 2p), so the u-integral reduces
    to exact moments of the squared block norms; only the v-grid (quad^p
    nodes) is enumerated.  Identical quadrature sum to the full tensor rule,
    reorganized.
    """
    u_lo, u_hi, v_lo, v_hi = box.split(sc.rank)
    p = sc.corank
    alphas = sc.block_alphas()
    mults = sc.block_pairs()
    d = alphas.size
    kernel_factor, table = _u_moment_table(sc, u_lo, u_hi, quad, p)

    # moments M[delta] for |delta| = p, and the expansion coefficients of
    # (sum_j a_j q_j)^(p-1) * (sum_i b_i q_i) over those moments
    gammas = list(_compositions(p - 1, d))
    moments = {}
    for gamma in gammas:
        for i in range(d):
            delta = tuple(g + (1 if j == i else 0) for j, g in enumerate(gamma))
            if delta not in moments:
                val = kernel_factor
                for j, dj in enumerate(delta):
                    val *= table[j][dj]
                moments[delta] = val
    multinoms = {gamma: math.factorial(p - 1) // math.prod(map(math.factorial, gamma))
                 for gamma in gammas}

    rules = [mapped_rule(v_lo[i], v_hi[i], quad) for i in range(p)]
    nodes = [r[0] for r in rules]
    weights = [r[1] for r in rules]
    pts, wts = grid_chunk(nodes, weights, quad, 0, quad**p)
    vn = np.linalg.norm(pts, axis=1)
    pref, a, b = _jacobian_factors(alphas, mults, scale * np.multiply.outer(vn, alphas))

    vals = np.zeros_like(vn)
    for gamma in gammas:
        agam = multinoms[gamma] * np.prod(a**np.array(gamma), axis=-1)
        for i in range(d):
            delta = tuple(g + (1 if j == i else 0) for j, g in enumerate(gamma))
            vals += agam * b[:, i] * moments[delta]
    total = pairwise_sum(wts * pref * vals)
    return scale ** (2 * p) * total


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
    if quad_points_per_dim < 4:
        raise ValueError("need at least 4 quadrature points per dimension")
    _require_box_in_domain(sc, box)
    num = _box_jacobian_integral(sc, box, t, quad_points_per_dim)
    den = _box_jacobian_integral(sc, box, 1.0, quad_points_per_dim)
    return t**sc.dim * num / den


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
        ratios = tuple(
            contraction_ratio(sc, box, t, _SHARPNESS_QUAD)
            for t in _SHARPNESS_T_GRID
        )
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
        return tuple(r / b - 1.0 for r, b in zip(self.ratios, self.bounds))

    @property
    def verdicts(self) -> tuple[bool, ...]:
        return tuple(m >= -VERDICT_SLACK for m in self.margins)

    @property
    def passed(self) -> bool:
        return all(self.verdicts)


def _distortion_bounds(sc, box, K, N, ts, quad, workers):
    # J-weighted average of the distortion coefficient over the box, per t:
    # walks the full tensor grid in fixed chunks; numerators and denominator
    # reduce pairwise per chunk and across chunks, so the result is
    # bit-identical for any worker count.
    rules = [mapped_rule(box.lower[i], box.upper[i], quad) for i in range(box.dim)]
    nodes = [r[0] for r in rules]
    weights = [r[1] for r in rules]
    total = quad**box.dim
    spans = [(s, min(s + CHUNK, total)) for s in range(0, total, CHUNK)]
    alphas = sc.block_alphas()
    mults = sc.block_pairs()
    blocks = [b.indices for b in sc.blocks]
    k = sc.rank
    c = math.sqrt(-K) / math.sqrt(N - 1.0)

    def chunk_partials(span):
        pts, wts = grid_chunk(nodes, weights, quad, *span)
        u = pts[:, :k]
        v = pts[:, k:]
        q = np.stack([np.sum(u[:, idx] ** 2, axis=1) for idx in blocks], axis=-1)
        vn = np.linalg.norm(v, axis=1)
        wj = wts * _jacobian_core(alphas, mults, sc.corank, q, vn)
        dist = np.linalg.norm(u, axis=1)
        den = pairwise_sum(wj)
        nums = [pairwise_sum(wj * (t * _sinh_ratio(t, c * dist) ** (N - 1.0)))
                for t in ts]
        return den, nums

    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk_partials, spans))
    else:
        parts = [chunk_partials(s) for s in spans]
    den = pairwise_sum([p[0] for p in parts])
    return [pairwise_sum([p[1][i] for p in parts]) / den for i in range(len(ts))]


def mcp_report(sc: StructureConstants, K: float, N: float, box: CovectorBox,
               t_grid, quad: int, workers: int = 1) -> ContractionReport:
    """Verify the measure contraction inequality on a box of covectors.

    The left side is the quadrature contraction ratio; the right side is the
    model bound: exactly t^N for K = 0, and for K < 0 the J-weighted box
    average of the distortion coefficient at distance |u|.  A t passes when
    ratio >= bound * (1 - 1e-9).
    """
    if K > 0.0:
        raise UnsupportedPositiveK(
            f"K = {K} > 0 requires a bounded space; these groups are unbounded"
        )
    if not N > 1.0:
        raise ValueError(f"N must exceed 1, got {N}")
    ts = [float(t) for t in t_grid]
    if not ts or any(not 0.0 < t < 1.0 for t in ts):
        raise ValueError("t grid must be non-empty and lie in (0, 1)")
    ratios = tuple(contraction_ratio(sc, box, t, quad) for t in ts)
    if K == 0.0:
        bounds = tuple(t**N for t in ts)
    else:
        bounds = tuple(_distortion_bounds(sc, box, K, N, ts, quad, workers))
    return ContractionReport(
        group=repr(sc.spec),
        curvature=float(K),
        n_claimed=float(N),
        t_grid=tuple(ts),
        ratios=ratios,
        bounds=bounds,
    )
