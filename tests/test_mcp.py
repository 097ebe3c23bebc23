"""Measure contraction verification: scalar inequalities, quadrature ratios,
distortion coefficients, sharpness witnesses."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htcarnot import (
    BoxOutsideDomain,
    Covector,
    CovectorBox,
    GroupSpec,
    UnsupportedPositiveK,
    WitnessNotFound,
    catalog_names,
    catalog_spec,
    catalog_structure,
    check_f_inequality,
    check_g_inequality,
    check_jacobian_contraction,
    contraction_ratio,
    default_box,
    build_structure,
    distortion_coefficient,
    geodesic_dimension,
    hausdorff_dimension,
    in_injectivity_domain,
    jacobian,
    mcp_report,
    sharpness_box,
    sharpness_witness,
)
from htcarnot import mcp as mcp_module
from htcarnot.geodesics import _jacobian_core
from htcarnot.mcp import _jacobian_expansion, _require_box_in_domain, _sinh_ratio
from htcarnot.quadrature import mapped_rule, pairwise_sum, pairwise_sums
from htcarnot.randomness import DEFAULT_SEED, generator

from conftest import full_grid, one_block


# --- dimension bookkeeping ---------------------------------------------------

def test_dimension_formulas():
    expected = {
        "heisenberg3": (5, 4),
        "htype4x3": (13, 10),
        "contact12": (7, 6),
        "degenerate-corank1": (7, 6),
    }
    for name, (geo, haus) in expected.items():
        spec = catalog_spec(name)
        assert geodesic_dimension(spec) == geo
        assert hausdorff_dimension(spec) == haus
        assert geo == spec.rank + 3 * spec.corank
        assert haus == spec.rank + 2 * spec.corank


# --- distortion coefficient --------------------------------------------------

def test_distortion_flat_case_is_exact_power():
    for t in (0.0, 0.3, 0.7, 1.0):
        assert distortion_coefficient(0.0, 5.0, t, 2.5) == t**5.0


def test_distortion_zero_distance_convention():
    for K in (0.0, -1.0, -10.0):
        assert distortion_coefficient(K, 4.0, 0.25, 0.0) == 0.25


def test_distortion_rejects_positive_curvature():
    with pytest.raises(UnsupportedPositiveK):
        distortion_coefficient(1.0, 5.0, 0.5, 1.0)


def test_distortion_argument_validation():
    with pytest.raises(ValueError):
        distortion_coefficient(0.0, 1.0, 0.5, 1.0)   # N must exceed 1
    with pytest.raises(ValueError):
        distortion_coefficient(0.0, 5.0, 1.5, 1.0)   # t out of range
    with pytest.raises(ValueError):
        distortion_coefficient(0.0, 5.0, 0.5, -1.0)  # negative distance


def test_distortion_dominated_by_flat_power():
    # for K < 0 the coefficient never exceeds t^N
    rng = np.random.default_rng(11)
    for _ in range(1000):
        K = -(10.0 ** rng.uniform(-2, 2))
        N = rng.uniform(1.1, 10.0)
        t = rng.uniform(0.0, 1.0)
        d = 10.0 ** rng.uniform(-3, 2)
        val = distortion_coefficient(K, N, t, d)
        assert 0.0 <= val <= t**N * (1.0 + 1e-12)


def test_distortion_decreases_with_curvature():
    vals = [distortion_coefficient(K, 5.0, 0.5, 2.0) for K in (0.0, -1.0, -4.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_distortion_endpoint_values():
    assert distortion_coefficient(-1.0, 5.0, 0.0, 3.0) == 0.0
    assert distortion_coefficient(-1.0, 5.0, 1.0, 3.0) == pytest.approx(1.0, rel=1e-14)


def test_sinh_ratio_scaled_branch_matches_direct_formula():
    # the exp-scaled form used for a > 30 agrees with plain sinh where both
    # are representable
    for a in (31.0, 50.0, 200.0):
        for t in (0.1, 0.5, 0.9):
            expected = math.sinh(t * a) / math.sinh(a)
            assert _sinh_ratio(t, a, 1.0) == pytest.approx(expected, rel=1e-13)


def test_distortion_underflows_cleanly_at_extreme_distance():
    # true value is ~1e-435, below the smallest subnormal
    assert distortion_coefficient(-1.0, 5.0, 0.5, 1000.0) == 0.0
    assert distortion_coefficient(-1.0, 5.0, 0.5, 100.0) > 0.0


@pytest.mark.parametrize("excess", [1e-7, 1e-9, 2.0**-52])
@pytest.mark.parametrize("t, dist", [(0.5, 1.0), (0.1, 0.01), (0.9, 3.0)])
def test_distortion_near_n_one_matches_mpmath(excess, t, dist):
    # a = dist / sqrt(N - 1) is above 30 in every case, on the exp-scaled
    # branch.  From about a = 745 / (1 - t) on, sinh(t a)/sinh(a) is below
    # the float range: it rounded to 0 before the power N - 1 could bring it
    # back near 1, and D_t read 0.0 instead of about t
    N = 1.0 + excess
    with mpmath.workdps(50):
        a = mpmath.mpf(dist) / mpmath.sqrt(mpmath.mpf(N) - 1)
        want = float(t * (mpmath.sinh(t * a) / mpmath.sinh(a)) ** (mpmath.mpf(N) - 1))
    assert distortion_coefficient(-1.0, N, t, dist) == pytest.approx(want, rel=1e-14)


# --- scalar inequality grids -------------------------------------------------

T_GRID = np.linspace(0.0, 1.0, 101)
XG = np.linspace(0.0, np.pi, 102)[1:-1]
XF = np.linspace(0.0, 2.0 * np.pi, 102)[1:-1]


def test_g_inequality_holds_at_critical_exponent():
    rep = check_g_inequality(T_GRID, XG, 3.0)
    assert rep.pairs_checked == 10100
    assert rep.passed
    assert rep.violations == 0
    assert rep.min_slack >= 0.0


def test_f_inequality_holds_at_critical_exponent():
    rep = check_f_inequality(T_GRID, XF, 3.0)
    assert rep.pairs_checked == 10100
    assert rep.passed
    assert rep.min_slack >= 0.0


def test_g_inequality_flags_subcritical_exponent():
    rep = check_g_inequality(T_GRID, XG, 2.9)
    assert not rep.passed
    assert rep.violations == 3269
    assert rep.worst_t == pytest.approx(0.55, abs=1e-15)
    assert rep.worst_x == pytest.approx(0.71541218844124, rel=1e-12)
    assert rep.min_slack == pytest.approx(-0.000480313743739455, rel=1e-10)


def test_f_inequality_flags_subcritical_exponent():
    rep = check_f_inequality(T_GRID, XF, 2.9)
    assert not rep.passed
    assert rep.violations == 2322


def test_inequality_grid_validation():
    with pytest.raises(ValueError):
        check_g_inequality([0.5], [3.2], 3.0)       # x beyond pi
    with pytest.raises(ValueError):
        check_g_inequality([1.5], [1.0], 3.0)       # t beyond 1
    with pytest.raises(ValueError):
        check_f_inequality([0.5], [], 3.0)          # empty grid
    with pytest.raises(ValueError):
        check_f_inequality([0.5], [6.3], 3.0)       # x beyond 2 pi


# --- sampled jacobian contraction ---------------------------------------------

def test_jacobian_contraction_sampled(group):
    rep = check_jacobian_contraction(group, 100, (0.1, 0.5, 0.9))
    assert rep.passed
    assert rep.samples == 100
    assert rep.min_margin >= -1e-12


def test_jacobian_contraction_matches_per_sample_loop(group):
    # the same stream-2 draws, one jacobian call per sample and t
    ts = (0.1, 0.5, 0.9)
    box = default_box(group)
    draws = generator(DEFAULT_SEED, stream=2).uniform(box.lower, box.upper, size=(40, box.dim))
    p = group.corank
    margins = []
    for row in draws:
        lam = Covector(row[: group.rank], row[group.rank:])
        base = jacobian(group, lam)
        margins += [jacobian(group, lam.scale(t)) / (t ** (2 * p) * base) - 1.0 for t in ts]
    rep = check_jacobian_contraction(group, 40, ts)
    assert rep.min_margin == pytest.approx(min(margins), rel=0.0, abs=1e-14)


def test_jacobian_contraction_without_kernel_coordinates_is_bit_for_bit(group):
    # kernel coordinates contribute the factor 1 and the weights 0, so the
    # check evaluates only the others and keeps the margin of all of them
    ts = (0.1, 0.5, 0.9)
    box = default_box(group)
    draws = generator(DEFAULT_SEED, stream=2).uniform(box.lower, box.upper, size=(60, box.dim))
    k, p = group.rank, group.corank
    scales = np.array([1.0, *ts])[:, None]
    u = scales * draws[:, None, :k]
    jac = _jacobian_core(group.s_diag, 0.5, p, u * u,
                         np.linalg.norm(scales * draws[:, None, k:], axis=-1))
    t_pow = np.array([t ** (2 * p) for t in ts])
    every = float((jac[:, 1:] / (t_pow * jac[:, :1]) - 1.0).min())
    assert check_jacobian_contraction(group, 60, ts).min_margin == every


def test_jacobian_contraction_batches_do_not_change_the_margin(quat, monkeypatch):
    whole = check_jacobian_contraction(quat, 30, (0.2, 0.7))
    monkeypatch.setattr(mcp_module, "NODE_BUDGET", 3 * quat.rank)  # one sample per batch
    assert check_jacobian_contraction(quat, 30, (0.2, 0.7)) == whole


def test_jacobian_contraction_empty_grid(heis):
    rep = check_jacobian_contraction(heis, 5, ())
    assert rep.min_margin == math.inf and rep.passed and rep.t_grid == ()


def test_jacobian_contraction_deterministic(heis):
    a = check_jacobian_contraction(heis, 25, (0.5,), seed=99)
    b = check_jacobian_contraction(heis, 25, (0.5,), seed=99)
    assert a.min_margin == b.min_margin


def test_jacobian_contraction_validation(heis):
    with pytest.raises(ValueError):
        check_jacobian_contraction(heis, 0, (0.5,))
    with pytest.raises(ValueError):
        check_jacobian_contraction(heis, 5, (0.0,))
    with pytest.raises(ValueError):
        check_jacobian_contraction(heis, 5, (1.5,))


# --- covector boxes ----------------------------------------------------------

def test_box_validation():
    with pytest.raises(ValueError):
        CovectorBox([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        CovectorBox([1.0, 0.0], [0.0, 1.0])
    box = CovectorBox([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert box.dim == 3
    u_lo, u_hi, v_lo, v_hi = box.split(2)
    assert list(u_lo) == [0.0, 1.0] and list(v_hi) == [3.0]
    with pytest.raises(ValueError):
        box.lower[0] = 5.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_box_rejects_non_finite_corners(bad):
    with pytest.raises(ValueError, match="finite"):
        CovectorBox([bad, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        CovectorBox([0.0, 0.0], [1.0, bad])


def test_default_box_geometry(group):
    box = default_box(group)
    k, p = group.rank, group.corank
    assert box.dim == k + p
    assert np.all(box.lower[:k] == 0.5) and np.all(box.upper[:k] == 1.5)
    v_hi = min(1.5, 0.95 * group.first_conjugate_radius / math.sqrt(p))
    assert box.upper[k:] == pytest.approx(v_hi, rel=1e-15)
    assert box.lower[k:] == pytest.approx(v_hi / 3.0, rel=1e-15)


def test_box_outside_domain_rejected(heis):
    tall = CovectorBox([0.5, 0.5, 0.5], [1.5, 1.5, 2.0 * np.pi])
    with pytest.raises(BoxOutsideDomain):
        contraction_ratio(heis, tall, 0.5, 8)
    wrong_dim = CovectorBox([0.5, 0.5], [1.5, 1.5])
    with pytest.raises(BoxOutsideDomain):
        contraction_ratio(heis, wrong_dim, 0.5, 8)


# --- quadrature contraction ratios -------------------------------------------

def test_ratio_is_one_at_unit_time(group):
    assert contraction_ratio(group, default_box(group), 1.0, 8) == 1.0


def test_ratio_frozen_values(heis):
    box = default_box(heis)
    frozen = {
        0.1: 1.0740130474118503e-05,
        0.5: 0.032986357265292914,
        0.9: 0.5986281613148123,
    }
    for t, val in frozen.items():
        assert contraction_ratio(heis, box, t, 8) == pytest.approx(val, rel=1e-12)


def test_ratio_increases_with_time(group):
    box = default_box(group)
    vals = [contraction_ratio(group, box, i / 10.0, 8) for i in range(1, 10)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert 0.0 < vals[0] and vals[-1] < 1.0


def test_ratio_quadrature_refinement(group):
    # the u-part is polynomial (exact) and the v-part is analytic, so 8 vs 16
    # nodes agree far below the verdict slack
    box = default_box(group)
    for t in (0.3, 0.7):
        coarse = contraction_ratio(group, box, t, 8)
        fine = contraction_ratio(group, box, t, 16)
        assert coarse == pytest.approx(fine, abs=1e-8)


def test_ratio_argument_validation(heis):
    box = default_box(heis)
    with pytest.raises(ValueError):
        contraction_ratio(heis, box, 0.0, 8)
    with pytest.raises(ValueError):
        contraction_ratio(heis, box, 1.2, 8)
    with pytest.raises(ValueError):
        contraction_ratio(heis, box, 0.5, 3)


def test_ratio_matches_naive_tensor_quadrature(heis):
    # same Gauss-Legendre rule summed over the full grid, node by node,
    # without the factored moment table
    box = default_box(heis)
    t = 0.45
    pts, wts = full_grid(box.lower, box.upper, 8)

    def integral(scale):
        vals = [jacobian(heis, Covector(scale * row[:2], scale * row[2:])) for row in pts]
        return pairwise_sum(wts * np.array(vals))

    naive = t**heis.dim * integral(t) / integral(1.0)
    factored = contraction_ratio(heis, box, t, 8)
    assert factored == pytest.approx(naive, rel=1e-13)


def test_report_ratios_match_single_ratio_calls(group):
    # one call per t-grid gives the bits of one call per t
    box = default_box(group)
    ts = [i / 10.0 for i in range(1, 10)]
    rep = mcp_report(group, 0.0, geodesic_dimension(group.spec), box, ts, 8)
    assert rep.ratios == tuple(contraction_ratio(group, box, t, 8) for t in ts)


def test_rank_twenty_ratio_needs_no_corner_walk():
    # 2^21 corners; the closed-form box check and the u-moment table are O(k)
    sc = build_structure(GroupSpec(rank=20, corank=1, spectrum=((1.0, 5), (2.0, 4)),
                                   kernel_dim=2))
    ratio = contraction_ratio(sc, default_box(sc), 0.5, 4)
    assert 0.0 < ratio < 1.0


def _corners_inside(sc, box):
    return all(
        in_injectivity_domain(sc, Covector(np.array(c[: sc.rank]), np.array(c[sc.rank:])))
        for c in itertools.product(*zip(box.lower, box.upper))
    )


def _seeded_box(rng, sc):
    k, p = sc.rank, sc.corank
    u_lo = rng.uniform(-1.5, 1.0, k)
    u_hi = u_lo + rng.uniform(0.1, 1.0, k)
    # some u-coordinates touch 0 at one end; in some boxes all of them do
    touch = rng.random(k) < (1.0 if rng.random() < 0.3 else 0.5)
    width = rng.uniform(0.1, 1.0, k)
    at_lo = rng.random(k) < 0.5
    u_lo = np.where(touch, np.where(at_lo, 0.0, -width), u_lo)
    u_hi = np.where(touch, np.where(at_lo, width, 0.0), u_hi)
    v_lo = rng.uniform(-1.0, 0.5, p)
    v_hi = v_lo + rng.uniform(0.1, 1.0, p)
    far = np.where(np.abs(v_hi) >= np.abs(v_lo), v_hi, v_lo)
    # put the far v-corner just inside, on, or just outside the radius R
    reach = sc.first_conjugate_radius * rng.choice([0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.5])
    scale = reach / np.linalg.norm(far)
    return CovectorBox(np.concatenate((u_lo, scale * v_lo)),
                       np.concatenate((u_hi, scale * v_hi)))


def test_closed_form_box_check_matches_corner_loop(group):
    rng = np.random.default_rng([17, group.rank, group.corank, group.dim])
    seen = set()
    for _ in range(150):
        box = _seeded_box(rng, group)
        try:
            _require_box_in_domain(group, box)
            outcome = "inside"
        except BoxOutsideDomain as exc:
            outcome = "S u = 0" if "S u = 0" in str(exc) else "|v|"
        assert (outcome == "inside") == _corners_inside(group, box), (box.lower, box.upper)
        seen.add(outcome)
    assert seen == {"inside", "S u = 0", "|v|"}


def test_box_check_names_an_offending_corner(degenerate):
    # coordinates 0, 1 span ker S: the u-corner (0, 0, 0, 0) has S u = 0
    box = CovectorBox([-1.0, -1.0, 0.0, -0.5, 0.5], [1.0, 1.0, 1.0, 0.0, 1.0])
    with pytest.raises(BoxOutsideDomain, match=r"corner \[-1.0, -1.0, 0.0, 0.0, 0.5\]"):
        contraction_ratio(degenerate, box, 0.5, 8)


# --- sharpness witnesses -----------------------------------------------------

def test_sharpness_box_geometry(degenerate):
    box = sharpness_box(degenerate)
    # center sits at the first horizontal direction the structure operator
    # does not annihilate; for this group coordinates 0,1 span the kernel
    center = (box.lower + box.upper) / 2.0
    assert center[2] == pytest.approx(1.0, abs=1e-15)
    assert center[0] == center[1] == center[3] == 0.0
    assert center[4] == pytest.approx(1e-3 * degenerate.first_conjugate_radius)
    shrunk = sharpness_box(degenerate, shrink=2)
    assert (shrunk.upper[2] - shrunk.lower[2]) == pytest.approx(
        (box.upper[2] - box.lower[2]) / 4.0)


def test_sharpness_witness_every_group(group):
    box, rep = sharpness_witness(group, 0.5)
    assert rep.passed
    assert rep.exponent == geodesic_dimension(group.spec) - 0.5
    assert len(rep.t_grid) == 32
    assert all(r < th for r, th in zip(rep.ratios, rep.thresholds))


def test_sharpness_witness_frozen_heisenberg(heis):
    box, rep = sharpness_witness(heis, 0.5)
    assert rep.attempts == 1
    assert min(rep.margins) == pytest.approx(1.2123450433707617e-07, rel=1e-9)
    np.testing.assert_allclose(
        box.lower, [0.999, -0.001, 0.005283185307179587], rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        box.upper, [1.001, 0.001, 0.007283185307179587], rtol=0, atol=1e-15)


def test_sharpness_epsilon_validation(heis):
    with pytest.raises(ValueError):
        sharpness_witness(heis, 0.0)
    with pytest.raises(ValueError):
        sharpness_witness(heis, 1.5)


# --- full verification reports ------------------------------------------------

def test_flat_contraction_passes_for_catalog(group):
    n = geodesic_dimension(group.spec)
    rep = mcp_report(group, 0.0, float(n), default_box(group),
                     [i / 10.0 for i in range(1, 10)], 8)
    assert rep.passed
    assert all(v for v in rep.verdicts)
    assert rep.bounds == tuple((i / 10.0) ** n for i in range(1, 10))
    assert all(m >= -1e-9 for m in rep.margins)


def test_contraction_fails_below_sharp_exponent(heis):
    # on the witness box the ratio behaves like t^5, so claiming 4.5 fails
    box, _ = sharpness_witness(heis, 0.5)
    rep = mcp_report(heis, 0.0, 4.5, box, [0.1, 0.5, 0.9], 8)
    assert not rep.passed
    assert not any(rep.verdicts)


def test_negative_curvature_contraction_passes(group):
    n = geodesic_dimension(group.spec)
    rep = mcp_report(group, -1.0, float(n), default_box(group),
                     [0.25, 0.5, 0.75], 8)
    assert rep.passed
    # the negative-curvature bound is strictly below the flat one
    flat = [t**n for t in rep.t_grid]
    assert all(b < f for b, f in zip(rep.bounds, flat))


def test_negative_curvature_worker_count_is_bit_for_bit(heis):
    kwargs = dict(K=-1.0, N=5.0, box=default_box(heis),
                  t_grid=[0.2, 0.6], quad=8)
    one = mcp_report(heis, workers=1, **kwargs)
    four = mcp_report(heis, workers=4, **kwargs)
    assert one.ratios == four.ratios
    assert one.bounds == four.bounds


def _brute_force_bounds(sc, K, N, box, ts, quad):
    # the J-weighted box average of the distortion coefficient, summed over
    # every node of the quad^(k+p) grid
    pts, wts = full_grid(box.lower, box.upper, quad)
    u, v = pts[:, : sc.rank], pts[:, sc.rank:]
    q = np.stack([np.sum(u[:, b.indices] ** 2, axis=1) for b in sc.blocks], axis=-1)
    wj = wts * _jacobian_core(sc.block_alphas(), sc.block_pairs(), sc.corank, q,
                              np.linalg.norm(v, axis=1))
    a = math.sqrt(-K / (N - 1.0)) * np.linalg.norm(u, axis=1)
    den = pairwise_sum(wj)
    return [pairwise_sum(wj * t * (np.sinh(t * a) / np.sinh(a)) ** (N - 1.0)) / den
            for t in ts]


def _narrowed_box(sc):
    # the default box narrowed by a different amount in each coordinate, so
    # that no two blocks see the same u-range
    steps = np.arange(sc.dim)
    box = default_box(sc)
    return CovectorBox(box.lower + 0.03 * steps, box.upper - 0.04 * steps)


@pytest.mark.parametrize("shift", [(-1.0, 0.0), (-3.0, 0.5)])
def test_factored_negative_curvature_matches_full_grid(group, shift):
    K, deficit = shift
    N = geodesic_dimension(group.spec) - deficit
    box = _narrowed_box(group)
    ts = [0.1, 0.45, 0.8]
    rep = mcp_report(group, K, N, box, ts, 5)
    ref = _brute_force_bounds(group, K, N, box, ts, 5)
    for got, want in zip(rep.bounds, ref):
        assert got == pytest.approx(want, rel=1e-13)


def _loop_moment_table(sc, u_lo, u_hi, quad):
    # the q^delta moments as a Python loop over coordinates and degrees
    p = sc.corank
    sums = [[pairwise_sum(w * x ** (2 * e)) for e in range(p + 1)]
            for x, w in (mapped_rule(lo, hi, quad) for lo, hi in zip(u_lo, u_hi))]
    kernel = 1.0
    for c in sc.kernel_indices:
        kernel *= sums[c][0]
    tables = []
    for b in sc.blocks:
        dp = [1.0] + [0.0] * p
        for c in b.indices:
            dp = [sum(math.comb(d, e) * sums[c][e] * dp[d - e] for e in range(d + 1))
                  for d in range(p + 1)]
        tables.append(dp)
    return [math.prod((tables[j][dj] for j, dj in enumerate(delta)), start=kernel)
            for delta in mcp_module._deltas(p, len(sc.blocks))]


@pytest.mark.parametrize("quad", [4, 5, 8])
def test_moment_table_against_loop_and_full_grid(group, quad):
    # column 0 sums as the loop does, bit for bit, with or without the
    # y-columns; column j is sum_u w q^delta y^j over the full u-grid
    rng = np.random.default_rng([41, group.rank, group.corank, quad])
    k = group.rank
    for _ in range(5):
        u_lo = rng.uniform(-1.5, 1.0, k)
        u_hi = u_lo + rng.uniform(0.1, 1.5, k)
        fit = mcp_module._distortion_fit(u_lo, u_hi, -1.0, 7.0, [0.3])
        degree = fit[0].shape[1] - 1
        (m, h) = fit[1]
        plain = mcp_module._u_moment_table(group, u_lo, u_hi, quad)
        table = mcp_module._u_moment_table(group, u_lo, u_hi, quad, degree, fit[1])
        assert plain[:, 0].tolist() == table[:, 0].tolist() == _loop_moment_table(
            group, u_lo, u_hi, quad)
        pts, wts = full_grid(u_lo, u_hi, quad)
        y = np.sum((pts * pts - m) / h, axis=1)
        q = np.stack([np.sum(pts[:, b.indices] ** 2, axis=1) for b in group.blocks], axis=-1)
        for row, delta in zip(table, mcp_module._deltas(group.corank, len(group.blocks))):
            weight = wts * np.prod(q ** np.array(delta), axis=-1)
            want = [pairwise_sum(weight * y**j) for j in range(degree + 1)]
            np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-13 * row[0])


@pytest.mark.parametrize("quad", [5, 8])
@pytest.mark.parametrize("shift", [(-1.0, 0.0), (-3.0, 0.5)])
def test_chebyshev_average_matches_factored_grid(group, shift, quad, monkeypatch):
    K, deficit = shift
    N = geodesic_dimension(group.spec) - deficit
    ts = [0.1, 0.45, 0.8]
    for box in (default_box(group), _narrowed_box(group)):
        assert mcp_module._distortion_fit(box.lower[:group.rank], box.upper[:group.rank],
                                          K, N, ts) is not None
        rep = mcp_report(group, K, N, box, ts, quad)
        with monkeypatch.context() as m:
            m.setattr(mcp_module, "_distortion_fit", lambda *args: None)
            grid = mcp_report(group, K, N, box, ts, quad)
        assert rep.ratios == grid.ratios
        for got, want in zip(rep.bounds, grid.bounds):
            assert got == pytest.approx(want, rel=1e-13)


def test_flat_and_curved_reports_share_their_ratios(group, heis):
    # one box integral serves every number: the ratios do not depend on K,
    # on the fit path or on the u-grid path
    ts = [0.1, 0.45, 0.8]
    n = float(geodesic_dimension(group.spec))
    wide = CovectorBox([0.1, 0.1, 0.5], [50.0, 50.0, 1.0])
    assert mcp_module._distortion_fit(wide.lower[:2], wide.upper[:2], -1.0, 5.0, ts) is None
    cases = [(group, default_box(group), n), (group, _narrowed_box(group), n),
             (heis, wide, 5.0)]
    for sc, box, N in cases:
        flat = mcp_report(sc, 0.0, N, box, ts, 8)
        assert mcp_report(sc, -1.0, N, box, ts, 8).ratios == flat.ratios
        assert flat.ratios == tuple(contraction_ratio(sc, box, t, 8) for t in ts)


def _parent_grid_bounds(sc, box, K, N, ts, quad):
    # the u-grid sum as it is written without the interpolant: one
    # pairwise_sum per coefficient and per monomial
    u_lo, u_hi, v_lo, v_hi = box.split(sc.rank)
    v_pts, v_wts = full_grid(v_lo, v_hi, quad)
    pref, coeffs = _jacobian_expansion(
        sc, np.multiply.outer(np.linalg.norm(v_pts, axis=1), sc.block_alphas()))
    v_side = np.array([pairwise_sum(v_wts * pref * c) for c in coeffs])
    u_pts, u_wts = full_grid(u_lo, u_hi, quad)
    q = np.stack([np.sum(u_pts[:, b.indices] ** 2, axis=1) for b in sc.blocks], axis=-1)
    monomials = [u_wts * np.prod(q ** np.array(delta), axis=-1)
                 for delta in mcp_module._deltas(sc.corank, len(sc.blocks))]
    den = pairwise_sum(v_side * [pairwise_sum(m) for m in monomials])
    a = math.sqrt(-K) / math.sqrt(N - 1.0) * np.linalg.norm(u_pts, axis=1)
    t_col = np.array(ts)[:, None]
    weight = t_col * _sinh_ratio(t_col, a, 1.0) ** (N - 1.0)
    u_side = np.stack([pairwise_sums(weight * m) for m in monomials], axis=-1)
    return tuple((pairwise_sums(u_side * v_side) / den).tolist())


@pytest.mark.parametrize("lo, hi, K", [(-20.0, 20.0, -25.0), (0.1, 50.0, -1.0)])
def test_wide_boxes_fall_back_to_the_grid(heis, lo, hi, K):
    # D_t spans many orders of magnitude over these u-boxes; a fixed-degree
    # interpolant missed by 1.7e-5 on the second and by a factor 5e13 on
    # the first
    box = CovectorBox([lo, lo, 0.5], [hi, hi, 1.0])
    ts = [0.2, 0.5, 0.8]
    assert mcp_module._distortion_fit(box.lower[:2], box.upper[:2], K, 5.0, ts) is None
    rep = mcp_report(heis, K, 5.0, box, ts, 8)
    assert rep.bounds == _parent_grid_bounds(heis, box, K, 5.0, ts, 8)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(catalog_names()), data=st.data(),
       K=st.floats(-30.0, -1e-3), deficit=st.floats(0.0, 2.0),
       t=st.floats(0.01, 0.99), quad=st.integers(4, 8))
def test_negative_curvature_bound_is_at_most_flat_power(name, data, K, deficit, t, quad):
    # sinh(t a) <= t sinh(a) for a >= 0, so D_t <= t^N pointwise and so is
    # every J-weighted average of it, on either path
    sc = catalog_structure(name)
    box = default_box(sc)
    a = np.array(data.draw(st.lists(st.floats(0.0, 0.5), min_size=sc.dim, max_size=sc.dim)))
    w = np.array(data.draw(st.lists(st.floats(0.25, 0.5), min_size=sc.dim, max_size=sc.dim)))
    span = box.upper - box.lower
    box = CovectorBox(box.lower + a * span, box.lower + (a + w) * span)
    N = geodesic_dimension(sc.spec) - deficit
    rep = mcp_report(sc, K, N, box, [t], quad)
    assert 0.0 <= rep.bounds[0] <= t**N * (1.0 + 1e-13)


def test_rank_eight_negative_curvature_certificate():
    # 6^8 u-nodes at quad 6 and 8^8 at quad 8, where the grid is refused;
    # the interpolant needs only the 6^7-node v-grid
    sc = build_structure(GroupSpec(rank=8, corank=7, spectrum=((1.0, 4),)))
    n = geodesic_dimension(sc.spec)
    rep = mcp_report(sc, -1.0, n, default_box(sc), [0.2, 0.5, 0.8], 6)
    assert rep.passed
    assert all(0.0 < b < t**n for b, t in zip(rep.bounds, rep.t_grid))


def test_negative_curvature_bound_finite_when_a_node_has_u_zero(heis):
    # quad 5 puts a node at u = (0, 0), where the distortion coefficient is
    # 0/0; its limit t keeps the average finite
    box = CovectorBox([-1.0, -1.0, 0.5], [1.0, 1.0, 1.0])
    rep = mcp_report(heis, -1.0, 5.0, box, [0.5], 5)
    assert 0.0 < rep.bounds[0] < 0.5**5
    assert rep.passed
    assert _sinh_ratio(0.3, 0.0, 1.0) == 0.3


@pytest.mark.parametrize("K,N", [(math.nan, 5.0), (-math.inf, 5.0), (math.inf, 5.0),
                                 (-1.0, math.inf), (-1.0, math.nan), (0.0, math.inf)])
def test_non_finite_curvature_rejected(heis, K, N):
    with pytest.raises(ValueError, match="finite"):
        mcp_report(heis, K, N, default_box(heis), [0.5], 8)
    with pytest.raises(ValueError, match="finite"):
        distortion_coefficient(K, N, 0.5, 1.0)


def test_distortion_rejects_non_finite_distance():
    for dist in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="dist"):
            distortion_coefficient(-1.0, 5.0, 0.5, dist)


def test_underflowing_bound_has_infinite_margin(heis):
    rep = mcp_report(heis, -1e308, 5.0, default_box(heis), [0.5], 8)
    assert rep.bounds == (0.0,)
    assert rep.margins == (math.inf,)
    assert rep.passed
    # a ratio that underflows too meets its zero bound exactly
    tiny = mcp_report(heis, 0.0, 5.0, default_box(heis), [1e-300], 8)
    assert tiny.ratios == tiny.bounds == (0.0,)
    assert tiny.margins == (0.0,) and tiny.passed


def test_node_budget_raises_before_any_grid(quat, heis):
    box = default_box(quat)
    with pytest.raises(ValueError, match=str(10**12)):
        mcp_report(quat, 0.0, 13.0, box, [0.5], 10**4)
    # the K < 0 average on this box needs no u-grid, so the v-grid is the cap
    with pytest.raises(ValueError, match=str(10**12)):
        mcp_report(quat, -1.0, 13.0, box, [0.5], 10**4)
    # where the interpolant misses its error bound, the quad^k u-grid is
    # capped before any grid is built
    wide = CovectorBox([-20.0, -20.0, 0.5], [20.0, 20.0, 1.0])
    with pytest.raises(ValueError, match=str(10**8)):
        mcp_report(heis, -25.0, 5.0, wide, [0.5], 10**4)
    with pytest.raises(ValueError, match=str(10**12)):
        contraction_ratio(quat, box, 0.5, 10**4)


def test_verdicts_stable_under_quadrature_refinement(heis):
    box = default_box(heis)
    coarse = mcp_report(heis, 0.0, 5.0, box, [0.3, 0.6, 0.9], 8)
    fine = mcp_report(heis, 0.0, 5.0, box, [0.3, 0.6, 0.9], 16)
    assert coarse.verdicts == fine.verdicts
    for a, b in zip(coarse.margins, fine.margins):
        assert a == pytest.approx(b, abs=1e-8)


def test_report_argument_validation(heis):
    box = default_box(heis)
    with pytest.raises(UnsupportedPositiveK):
        mcp_report(heis, 1.0, 5.0, box, [0.5], 8)
    with pytest.raises(ValueError):
        mcp_report(heis, 0.0, 1.0, box, [0.5], 8)
    with pytest.raises(ValueError):
        mcp_report(heis, 0.0, 5.0, box, [], 8)
    with pytest.raises(ValueError):
        mcp_report(heis, 0.0, 5.0, box, [1.0], 8)


def test_report_records_group_identity(heis):
    rep = mcp_report(heis, 0.0, 5.0, default_box(heis), [0.5], 8)
    assert rep.group == repr(catalog_spec("heisenberg3"))
    assert rep.curvature == 0.0
    assert rep.n_claimed == 5.0


@pytest.mark.parametrize("K", [0.0, -1.0])
def test_tiny_u_box_keeps_its_ratio(heis, K):
    # the u-moments scale as |u|^(2p) times the box volume and underflowed
    # to 0 (a ZeroDivisionError); the ratio is invariant under scaling u, and
    # D_t -> t^N as |u| -> 0
    ts = [0.2, 0.5, 0.8]
    tiny = mcp_report(heis, K, 5.0, CovectorBox([1e-200, 1e-200, 0.5], [2e-200, 2e-200, 0.6]),
                      ts, 8)
    unit = mcp_report(heis, 0.0, 5.0, CovectorBox([1.0, 1.0, 0.5], [2.0, 2.0, 0.6]), ts, 8)
    for got, want in zip(tiny.ratios, unit.ratios):
        assert got == pytest.approx(want, rel=1e-14)
    for got, t in zip(tiny.bounds, ts):
        assert got == pytest.approx(t**5, rel=1e-13)


@pytest.mark.parametrize("j", [-30, 7, 300])
def test_flat_ratios_are_dilation_invariant_in_u(group, j):
    # the u-corners are rescaled to unit scale by a power of two, and the
    # ratio is invariant under scaling u, so dilating the u-corners by 2^j
    # changes no bit of any ratio
    ts = [0.2, 0.5, 0.8]
    k = group.rank
    for box in (default_box(group), sharpness_box(group)):
        dilated = CovectorBox(np.concatenate((np.ldexp(box.lower[:k], j), box.lower[k:])),
                              np.concatenate((np.ldexp(box.upper[:k], j), box.upper[k:])))
        want = mcp_report(group, 0.0, geodesic_dimension(group.spec), box, ts, 5)
        got = mcp_report(group, 0.0, geodesic_dimension(group.spec), dilated, ts, 5)
        assert got.ratios == want.ratios


def test_huge_u_box_has_no_nan(heis):
    # the moments overflowed to inf, and the ratio and the K < 0 bound read nan
    box = CovectorBox([1e200, 1e200, 0.5], [2e200, 2e200, 0.6])
    unit = CovectorBox([1.0, 1.0, 0.5], [2.0, 2.0, 0.6])
    flat = mcp_report(heis, 0.0, 5.0, box, [0.5], 8)
    assert flat.ratios[0] == pytest.approx(mcp_report(heis, 0.0, 5.0, unit, [0.5], 8).ratios[0],
                                           rel=1e-14)
    curved = mcp_report(heis, -1.0, 5.0, box, [0.5], 8)
    assert curved.ratios == flat.ratios and curved.bounds == (0.0,) and curved.passed


@pytest.mark.parametrize("shape", [(2, 1), (4, 3)])
@pytest.mark.parametrize("j", [-600, 600])
def test_ratios_are_invariant_under_scaling_alpha_against_v(shape, j):
    # J depends on v through the angles alpha |v| and on alpha through the
    # squares in its weights, which cancel in every ratio: alpha = 2^j on the
    # v-corners times 2^-j is the alpha = 1 box, bit for bit.  The squares of
    # alpha and the v-weights left the float range (ZeroDivisionError at
    # alpha^2 = 0, nan at inf/inf) before both were scaled by powers of two.
    unit, far = one_block(*shape, 1.0), one_block(*shape, 2.0**j)
    k = unit.rank
    box = default_box(unit)
    scaled = CovectorBox(np.concatenate((box.lower[:k], np.ldexp(box.lower[k:], -j))),
                         np.concatenate((box.upper[:k], np.ldexp(box.upper[k:], -j))))
    ts = [0.1, 0.5, 0.9]
    n = geodesic_dimension(unit.spec)
    for K in (0.0, -1.0):
        want = mcp_report(unit, K, n, box, ts, 5)
        got = mcp_report(far, K, n, scaled, ts, 5)
        assert got.ratios == want.ratios and got.bounds == want.bounds


@pytest.mark.parametrize("alpha", [2.0**-600, 1e-300, 1e60, 1e300])
def test_jacobian_contraction_at_extreme_alpha(alpha):
    # every margin read nan there (inf/inf or 0/0), and min() skipped them
    # to report inf and a pass
    rep = check_jacobian_contraction(one_block(4, 3, alpha), 50, (0.1, 0.5, 0.9))
    assert math.isfinite(rep.min_margin) and rep.passed


def test_jacobian_contraction_fails_on_nan_margins(heis, monkeypatch):
    monkeypatch.setattr(mcp_module, "_jacobian_core",
                        lambda alphas, pairs, corank, q, vnorm: np.full(vnorm.shape, np.nan))
    rep = check_jacobian_contraction(heis, 5, (0.5,))
    assert math.isnan(rep.min_margin) and not rep.passed


def test_tiny_u_box_at_tiny_alpha():
    # s_c u_c = 1e-350 underflowed to 0, and the box check read S u = 0.
    # The angles alpha |v| are near 1e-200 either way, so the ratio is that
    # of the alpha = 1 box with v scaled down, t^5 at v -> 0
    ts = [0.1, 0.5, 0.9]
    u_lo, u_hi = [1e-150, 1e-150], [2e-150, 2e-150]
    tiny = mcp_report(one_block(2, 1, 1e-200), 0.0, 5.0,
                      CovectorBox(u_lo + [0.5], u_hi + [1.0]), ts, 8)
    unit = mcp_report(one_block(2, 1, 1.0), 0.0, 5.0,
                      CovectorBox(u_lo + [0.5e-200], u_hi + [1e-200]), ts, 8)
    assert tiny.ratios == unit.ratios and tiny.ratios[1] == 0.5**5


def test_wide_spectrum_integrates_in_its_unit_frame():
    # beside 1e300 the block of 1e-300 rounds to 0 in the unit frame, whose
    # blocks pair the Jacobian's coefficients with the u-moments: the group
    # integrates as the one with that block in ker S, bit for bit
    wide = build_structure(GroupSpec(rank=4, corank=1, spectrum=((1e-300, 1), (1e300, 1))))
    kernel = build_structure(GroupSpec(rank=4, corank=1, spectrum=((1e300, 1),), kernel_dim=2))
    v_lo, v_hi = default_box(wide).lower[4], default_box(wide).upper[4]
    box = CovectorBox([0.5, 0.6, 0.9, 1.1, v_lo], [1.0, 1.5, 1.7, 2.0, v_hi])
    for K in (0.0, -1.0):
        want = mcp_report(kernel, K, 7.0, box, [0.25, 0.5, 0.75], 5)
        got = mcp_report(wide, K, 7.0, box, [0.25, 0.5, 0.75], 5)
        assert got.ratios == want.ratios and got.bounds == want.bounds


def test_box_beyond_the_radius_is_rejected_at_tiny_v():
    # |v| = 2e-299 squares to 0 in an unscaled norm, which passed the box
    sc = one_block(2, 1, 1e300)
    with pytest.raises(BoxOutsideDomain, match="leaves the injectivity domain"):
        _require_box_in_domain(sc, CovectorBox([0.5, 0.5, 1e-299], [1.5, 1.5, 2e-299]))


@pytest.mark.parametrize("shrink", [0, 3])
def test_sharpness_box_keeps_the_catalog_width(group, shrink):
    # the v half-width is min(1e-3, delta/2), which is 1e-3 wherever R >= 2:
    # the box of a half-width 1e-3 in every coordinate, bit for bit
    factor = 0.5**shrink
    center = np.zeros(group.dim)
    center[int(group.blocks[0].indices[0])] = 1.0
    center[group.rank] = 1e-3 * group.first_conjugate_radius * factor
    box = sharpness_box(group, shrink=shrink)
    assert np.array_equal(box.lower, center - 1e-3 * factor)
    assert np.array_equal(box.upper, center + 1e-3 * factor)


@pytest.mark.parametrize("alpha", [1e-16, 1e-300])
def test_sharpness_box_keeps_its_v_width_at_tiny_alpha(alpha):
    # delta = 1e-3 R is about 6e13 at alpha = 1e-16, where a v half-width of
    # 1e-3 fell below one ulp of delta and both v corners rounded to delta
    sc = one_block(2, 1, alpha)
    delta = 1e-3 * sc.first_conjugate_radius
    box = sharpness_box(sc)
    assert box.lower[2] == delta - delta * 2.0**-10
    assert box.upper[2] == delta + delta * 2.0**-10


@pytest.mark.parametrize("alpha", [1e-308, 5e-324])
def test_sharpness_box_is_refused_where_r_is_beyond_the_float_range(alpha):
    # R = 2 pi / alpha overflows below alpha = 2 pi / DBL_MAX, about 3.5e-308;
    # the box formed inf - inf, with a RuntimeWarning (an error here)
    sc = one_block(2, 1, alpha)
    with pytest.raises(ValueError, match="beyond the float range"):
        sharpness_box(sc)
    with pytest.raises(ValueError, match="beyond the float range"):
        sharpness_witness(sc, 0.5)


@pytest.mark.parametrize("alpha", [6.3e3, 1e4, 1e300])
def test_sharpness_box_stays_in_the_domain_at_large_alpha(alpha):
    # with a v half-width of 1e-3, |v| passed R = 2 pi / alpha from about
    # alpha = 6.3e3 on, and sharpness exited 3
    sc = one_block(4, 3, alpha)
    _require_box_in_domain(sc, sharpness_box(sc))
    box, rep = sharpness_witness(sc, 0.5)
    assert rep.passed
