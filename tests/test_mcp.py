"""Measure contraction verification: scalar inequalities, quadrature ratios,
distortion coefficients, sharpness witnesses."""

import itertools
import math

import numpy as np
import pytest

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
from htcarnot.mcp import _require_box_in_domain, _sinh_ratio
from htcarnot.quadrature import mapped_rule, pairwise_sum
from htcarnot.randomness import DEFAULT_SEED, generator


def full_grid(box, quad):
    """Every node and weight of the tensor Gauss-Legendre rule on the box."""
    rules = [list(zip(*mapped_rule(lo, hi, quad))) for lo, hi in zip(box.lower, box.upper)]
    nodes = list(itertools.product(*rules))
    pts = np.array([[x for x, _ in node] for node in nodes])
    wts = np.array([math.prod(w for _, w in node) for node in nodes])
    return pts, wts


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
            assert _sinh_ratio(t, a) == pytest.approx(expected, rel=1e-13)


def test_distortion_underflows_cleanly_at_extreme_distance():
    # true value is ~1e-435, below the smallest subnormal
    assert distortion_coefficient(-1.0, 5.0, 0.5, 1000.0) == 0.0
    assert distortion_coefficient(-1.0, 5.0, 0.5, 100.0) > 0.0


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
    pts, wts = full_grid(box, 8)

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
    pts, wts = full_grid(box, quad)
    u, v = pts[:, : sc.rank], pts[:, sc.rank:]
    q = np.stack([np.sum(u[:, b.indices] ** 2, axis=1) for b in sc.blocks], axis=-1)
    wj = wts * _jacobian_core(sc.block_alphas(), sc.block_pairs(), sc.corank, q,
                              np.linalg.norm(v, axis=1))
    a = math.sqrt(-K / (N - 1.0)) * np.linalg.norm(u, axis=1)
    den = pairwise_sum(wj)
    return [pairwise_sum(wj * t * (np.sinh(t * a) / np.sinh(a)) ** (N - 1.0)) / den
            for t in ts]


@pytest.mark.parametrize("shift", [(-1.0, 0.0), (-3.0, 0.5)])
def test_factored_negative_curvature_matches_full_grid(group, shift):
    K, deficit = shift
    N = geodesic_dimension(group.spec) - deficit
    # the default box narrowed by a different amount in each coordinate, so
    # that no two blocks see the same u-range
    steps = np.arange(group.dim)
    box = default_box(group)
    box = CovectorBox(box.lower + 0.03 * steps, box.upper - 0.04 * steps)
    ts = [0.1, 0.45, 0.8]
    rep = mcp_report(group, K, N, box, ts, 5)
    ref = _brute_force_bounds(group, K, N, box, ts, 5)
    for got, want in zip(rep.bounds, ref):
        assert got == pytest.approx(want, rel=1e-13)


def test_negative_curvature_bound_finite_when_a_node_has_u_zero(heis):
    # quad 5 puts a node at u = (0, 0), where the distortion coefficient is
    # 0/0; its limit t keeps the average finite
    box = CovectorBox([-1.0, -1.0, 0.5], [1.0, 1.0, 1.0])
    rep = mcp_report(heis, -1.0, 5.0, box, [0.5], 5)
    assert 0.0 < rep.bounds[0] < 0.5**5
    assert rep.passed
    assert _sinh_ratio(0.3, 0.0) == 0.3


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


def test_node_budget_raises_before_any_grid(quat):
    box = default_box(quat)
    with pytest.raises(ValueError, match=str(10**12)):
        mcp_report(quat, 0.0, 13.0, box, [0.5], 10**4)
    with pytest.raises(ValueError, match=str(10**16)):
        mcp_report(quat, -1.0, 13.0, box, [0.5], 10**4)
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
