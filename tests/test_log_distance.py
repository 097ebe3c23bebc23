"""Geodesic inversion: log_map, distance, distance_bound, homothety."""

import numpy as np
import pytest

from htcarnot import (
    Covector,
    CutLocusTarget,
    GroupPoint,
    IdentityTarget,
    NoCandidateFound,
    catalog_structure,
    cut_time,
    distance,
    distance_bound,
    exp_map,
    multiply,
    homothety,
    log_map,
)
from htcarnot.geodesics import _cut_locus_covector

from conftest import seeded_covectors


def test_round_trip_on_injectivity_domain(group):
    for u, v in seeded_covectors(group, 200, stream=5):
        lam = Covector(u, v)
        pt = exp_map(group, lam)
        back = log_map(group, pt)
        err = np.linalg.norm(back.as_vector() - lam.as_vector())
        assert err <= 1e-9


def test_horizontal_targets_are_straight_lines(group):
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.standard_normal(group.rank)
        pt = GroupPoint(x, np.zeros(group.corank))
        lam = log_map(group, pt)
        np.testing.assert_allclose(lam.u, x, rtol=0, atol=1e-15)
        assert np.all(lam.v == 0.0)


def test_identity_target_rejected(group):
    with pytest.raises(IdentityTarget):
        log_map(group, GroupPoint(np.zeros(group.rank), np.zeros(group.corank)))


def test_vertical_axis_is_cut_locus(heis):
    with pytest.raises(CutLocusTarget):
        log_map(heis, GroupPoint([0.0, 0.0], [1.0]))


def test_kernel_only_target_is_cut_locus(degenerate):
    # horizontal part entirely inside ker S, nonzero vertical part:
    # no normal geodesic in the injectivity domain reaches it
    with pytest.raises(CutLocusTarget):
        log_map(degenerate, GroupPoint([0.3, -0.7, 0.0, 0.0], [0.2]))


def test_distance_matches_covector_norm(group):
    for u, v in seeded_covectors(group, 30, stream=8):
        lam = Covector(u, v)
        pt = exp_map(group, lam)
        d = distance(group, GroupPoint(np.zeros(group.rank), np.zeros(group.corank)), pt)
        assert d.exact
        assert float(d) == pytest.approx(np.linalg.norm(u), rel=1e-9)


def test_distance_is_left_invariant(heis):
    lam = Covector([0.8, -0.3], [1.1])
    target = exp_map(heis, lam)
    origin = GroupPoint(np.zeros(2), np.zeros(1))
    base = float(distance(heis, origin, target))
    shift = GroupPoint([2.0, -1.0], [0.5])
    moved = float(distance(heis, multiply(heis, shift, origin),
                           multiply(heis, shift, target)))
    assert moved == pytest.approx(base, rel=1e-12)


def test_distance_symmetry(heis):
    a = GroupPoint([0.4, 0.1], [0.05])
    b = GroupPoint([-0.2, 0.9], [-0.3])
    assert float(distance(heis, a, b)) == pytest.approx(
        float(distance(heis, b, a)), rel=1e-9)


def test_heisenberg_vertical_distance_closed_form(heis):
    # dist(0, (0,0,z)) = sqrt(4 pi z) on the 3d Heisenberg group
    origin = GroupPoint(np.zeros(2), np.zeros(1))
    for z in (1.0, 0.25, 3.0):
        d = distance(heis, origin, GroupPoint([0.0, 0.0], [z]))
        assert d.exact
        assert float(d) == pytest.approx(np.sqrt(4.0 * np.pi * z), abs=1e-12)


def test_distance_bound_frozen_value(heis):
    got = distance_bound(heis, GroupPoint([0.0, 0.0], [1.0]))
    assert got == pytest.approx(3.5449077018110318, abs=1e-12)
    assert got == pytest.approx(np.sqrt(4.0 * np.pi), abs=1e-12)


@pytest.mark.parametrize("name, x, z, expected", [
    ("heisenberg3", [0.0, 0.0], [1.0], 3.5449077018110318),
    ("contact12", [0.0, 0.0, 0.0, 0.0], [1.3], 2.8579959585929195),
    ("contact12", [0.3, -0.2, 0.0, 0.0], [1.5], 3.0699801238394655),
    ("htype4x3", [0.0, 0.0, 0.0, 0.0], [0.3, 0.4, -0.5], 2.9809001788581804),
    ("degenerate-corank1", [0.3, -0.7, 0.0, 0.0], [0.2], 1.7587706282718716),
], ids=["heisenberg3", "contact12", "contact12-lower-x", "htype4x3",
        "degenerate-corank1-kernel-x"])
def test_distance_bound_closed_form_values(name, x, z, expected):
    # cut-locus distances on every catalog group, from the closed form
    sc = catalog_structure(name)
    target = GroupPoint(x, z)
    with pytest.raises(CutLocusTarget):
        log_map(sc, target)
    got = distance_bound(sc, target)
    assert got == pytest.approx(expected, abs=1e-12)
    lam = _cut_locus_covector(sc, target)
    assert float(np.linalg.norm(lam.u)) == got
    assert np.linalg.norm(lam.v) == pytest.approx(sc.first_conjugate_radius, rel=1e-15)
    gap = exp_map(sc, lam).as_vector() - target.as_vector()
    assert np.linalg.norm(gap) <= 1e-12


def test_distance_bound_rejects_targets_off_the_formula(contact):
    # x on the top eigenblock cannot be reached at |v| = R
    with pytest.raises(NoCandidateFound):
        distance_bound(contact, GroupPoint([0.0, 0.0, 0.1, 0.0], [1.0]))
    # the lower blocks alone already overshoot |z|
    with pytest.raises(NoCandidateFound):
        distance_bound(contact, GroupPoint([3.0, 0.0, 0.0, 0.0], [0.01]))


@pytest.mark.parametrize("z", [1e8, 1e9])
def test_cut_locus_endpoint_check_is_relative(contact, z):
    # the endpoint carries rounding of about 1e-16 |target|, which an
    # absolute 1e-8 check took for a miss at these heights
    target = GroupPoint([0.3, -0.2, 0.0, 0.0], [z])
    d = distance(contact, GroupPoint(np.zeros(4), np.zeros(1)), target)
    lam = _cut_locus_covector(contact, target)
    assert d.exact and d.value == float(np.linalg.norm(lam.u))
    gap = exp_map(contact, lam).as_vector() - target.as_vector()
    assert np.linalg.norm(gap) <= 1e-14 * z


def test_log_endpoint_check_is_relative(heis):
    # |target| is about 1e6 here, so the endpoint rounds at about 1e-10
    lam = Covector(1e6 * np.array([1.0, 0.3]), [2e-6])
    back = log_map(heis, exp_map(heis, lam))
    err = np.linalg.norm(back.as_vector() - lam.as_vector())
    assert err <= 1e-12 * np.linalg.norm(lam.as_vector())


def test_round_trip_with_small_angle_and_large_u(heis):
    # theta = 2e-4 with |u| = 1e4: the direct forms of the scalar helpers
    # cancel at such angles, and the digits they lose move the endpoint by
    # 2e-5, far above the log tolerance
    lam = Covector(1e4 * np.array([1.0, 0.3]), [2e-4])
    back = log_map(heis, exp_map(heis, lam))
    err = np.linalg.norm(back.as_vector() - lam.as_vector())
    assert err <= 1e-12 * np.linalg.norm(lam.as_vector())


def test_distance_bound_rejects_reachable_targets(heis):
    with pytest.raises(ValueError):
        distance_bound(heis, GroupPoint([1.0, 0.0], [0.0]))
    with pytest.raises(IdentityTarget):
        distance_bound(heis, GroupPoint([0.0, 0.0], [0.0]))


def test_homothety_endpoints(group):
    rng = np.random.default_rng(29)
    u = rng.uniform(0.5, 1.0, group.rank)
    v = np.zeros(group.corank)
    v[0] = 0.4
    x0 = GroupPoint(rng.standard_normal(group.rank), rng.standard_normal(group.corank))
    y = multiply(group, x0, exp_map(group, Covector(u, v)))
    start = homothety(group, x0, y, 0.0)
    end = homothety(group, x0, y, 1.0)
    np.testing.assert_allclose(start.as_vector(), x0.as_vector(), atol=1e-12)
    np.testing.assert_allclose(end.as_vector(), y.as_vector(), atol=1e-9)


def test_homothety_scales_distance(heis):
    x0 = GroupPoint([0.1, -0.2], [0.03])
    y = multiply(heis, x0, exp_map(heis, Covector([0.7, 0.4], [0.9])))
    full = float(distance(heis, x0, y))
    for t in (0.25, 0.5, 0.75):
        mid = homothety(heis, x0, y, t)
        assert float(distance(heis, x0, mid)) == pytest.approx(t * full, rel=1e-9)


def test_homothety_fixed_point_at_identity_target(heis):
    x0 = GroupPoint([0.3, 0.5], [-0.1])
    got = homothety(heis, x0, GroupPoint([0.3, 0.5], [-0.1]), 0.5)
    np.testing.assert_allclose(got.as_vector(), x0.as_vector(), atol=0)


def test_homothety_rejects_time_outside_unit_interval(heis):
    x0 = GroupPoint([0.0, 0.0], [0.0])
    y = GroupPoint([1.0, 0.0], [0.0])
    with pytest.raises(ValueError):
        homothety(heis, x0, y, -0.1)
    with pytest.raises(ValueError):
        homothety(heis, x0, y, 1.5)


def test_log_respects_cut_time_boundary(heis):
    # target just inside the cut time round-trips, at the cut time it fails
    lam = Covector([1.0, 0.0], [2.0])
    tc = cut_time(heis, lam)
    assert tc == pytest.approx(np.pi, rel=1e-15)
    inside = exp_map(heis, lam.scale(0.999 * tc))
    back = log_map(heis, inside)
    err = np.linalg.norm(back.as_vector() - lam.scale(0.999 * tc).as_vector())
    assert err <= 1e-7
