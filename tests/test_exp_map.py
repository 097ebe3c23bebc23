"""Endpoint formulas against direct integration of the normal Hamiltonian flow."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from htcarnot import (
    Covector,
    GroupPoint,
    ZeroCovector,
    cut_time,
    exp_map,
    geodesic_sample,
    hamiltonian,
    in_injectivity_domain,
    is_abnormal,
    l_of_v,
    multiply,
)
from htcarnot.catalog import catalog_structure
from htcarnot.geodesics import _vertical_reach

from conftest import seeded_covectors


def flow_endpoint(sc, u, v, t_final=1.0):
    """Integrate the normal flow: x' = h, z_a' = -(1/2) h . L^a x, h' = -L_v h."""
    k, p = sc.rank, sc.corank
    lv = l_of_v(sc, v)

    def rhs(_, y):
        x, h = y[:k], y[k + p:]
        dz = -0.5 * (sc.L @ x) @ h
        return np.concatenate((h, dz, -lv @ h))

    y0 = np.concatenate((np.zeros(k), np.zeros(p), u))
    sol = solve_ivp(rhs, (0.0, t_final), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    return sol.y[: k + p, -1]


def test_exp_matches_flow(group):
    for u, v in seeded_covectors(group, 8, stream=4):
        got = exp_map(group, Covector(u, v)).as_vector()
        ref = flow_endpoint(group, u, v)
        assert np.max(np.abs(got - ref)) <= 1e-8


def test_exp_matches_flow_at_interior_times(heis):
    u, v = np.array([0.8, -0.4]), np.array([1.7])
    for t in (0.25, 0.7):
        got = exp_map(heis, Covector(t * u, t * v)).as_vector()
        ref = flow_endpoint(heis, u, v, t_final=t)
        assert np.max(np.abs(got - ref)) <= 1e-8


def test_heisenberg_half_turn(heis):
    pt = exp_map(heis, Covector([1.0, 0.0], [np.pi]))
    assert pt.x == pytest.approx([0.0, 2.0 / np.pi], abs=1e-15)
    assert pt.z == pytest.approx([1.0 / (2.0 * np.pi)], abs=1e-16)


def test_heisenberg_full_turn(heis):
    pt = exp_map(heis, Covector([1.0, 0.0], [2.0 * np.pi]))
    assert np.linalg.norm(pt.x) <= 1e-12
    assert pt.z == pytest.approx([1.0 / (4.0 * np.pi)], abs=1e-16)


def test_zero_vertical_momentum_is_straight_line(group):
    u = np.linspace(1.0, 2.0, group.rank)
    pt = exp_map(group, Covector(u, np.zeros(group.corank)))
    assert np.array_equal(pt.x, u)
    assert np.array_equal(pt.z, np.zeros(group.corank))


def test_geodesic_sample_consistency(group):
    u, v = seeded_covectors(group, 1, stream=5)[0]
    lam = Covector(u, v)
    ts = np.linspace(0.0, 1.0, 33)
    pts = geodesic_sample(group, lam, ts)
    assert np.array_equal(pts[0].as_vector(), np.zeros(group.dim))
    for t, pt in zip(ts, pts):
        direct = exp_map(group, lam.scale(float(t)))
        assert np.array_equal(pt.as_vector(), direct.as_vector())
    with pytest.raises(ValueError):
        geodesic_sample(group, lam, [0.5, 0.2])
    with pytest.raises(ValueError):
        geodesic_sample(group, lam, [0.5, 1.2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_covector_rejects_non_finite_components(bad):
    with pytest.raises(ValueError, match="finite"):
        Covector([bad, 0.0], [1.0])
    with pytest.raises(ValueError, match="finite"):
        Covector([1.0, 0.0], [bad])


def test_hamiltonian_is_half_speed_squared():
    lam = Covector([3.0, 4.0], [9.9])
    assert hamiltonian(lam) == 12.5


def test_cut_time_values(heis):
    assert cut_time(heis, Covector([1.0, 0.0], [2.0])) == np.pi
    assert cut_time(heis, Covector([1.0, 0.0], [0.0])) == np.inf
    with pytest.raises(ZeroCovector):
        cut_time(heis, Covector([0.0, 0.0], [0.0]))


def test_cut_time_uses_largest_eigenvalue(contact):
    lam = Covector([1.0, 0.0, 0.0, 0.0], [1.0])
    assert cut_time(contact, lam) == np.pi  # alpha_max = 2


def test_injectivity_domain_membership(heis, degenerate):
    assert in_injectivity_domain(heis, Covector([1.0, 0.0], [6.0]))
    assert not in_injectivity_domain(heis, Covector([1.0, 0.0], [2.0 * np.pi]))
    assert not in_injectivity_domain(heis, Covector([0.0, 0.0], [1.0]))
    # kernel directions are excluded no matter how small v is
    assert not in_injectivity_domain(degenerate, Covector([1.0, 1.0, 0.0, 0.0], [0.1]))
    assert in_injectivity_domain(degenerate, Covector([1.0, 1.0, 0.5, 0.0], [0.1]))


def test_abnormal_classification(degenerate, heis):
    assert is_abnormal(degenerate, Covector([1.0, 0.0, 0.0, 0.0], [0.7]))
    assert not is_abnormal(degenerate, Covector([1.0, 0.0, 1e-300, 0.0], [0.7]))
    assert not is_abnormal(heis, Covector([1.0, 0.0], [0.0]))
    with pytest.raises(ZeroCovector):
        is_abnormal(heis, Covector([0.0, 0.0], [0.0]))


def test_kernel_directions_ignore_vertical_momentum(degenerate):
    # covectors with u in ker S travel in straight lines whatever v is:
    # identical endpoints (u, 0) for every vertical momentum
    u = np.array([0.7, -1.1, 0.0, 0.0])
    rng = np.random.default_rng(31)
    for _ in range(20):
        v = rng.uniform(-3.0, 3.0, size=degenerate.corank)
        pt = exp_map(degenerate, Covector(u, v))
        assert np.max(np.abs(pt.x - u)) <= 1e-12
        assert np.max(np.abs(pt.z)) <= 1e-12
        assert cut_time(degenerate, Covector(u, v)) == np.inf


def test_degenerate_group_splits_as_product(degenerate, heis):
    # rank-4 group with 2-dim kernel = (abelian R^2) x (rank-2 factor):
    # the exponential map factors coordinatewise through the two pieces
    rng = np.random.default_rng(32)
    for _ in range(10):
        u = rng.standard_normal(4)
        v = rng.uniform(-5.0, 5.0, size=1)
        full = exp_map(degenerate, Covector(u, v))
        reduced = exp_map(heis, Covector(u[2:], v))
        assert np.max(np.abs(full.x[:2] - u[:2])) <= 1e-12
        assert np.max(np.abs(full.x[2:] - reduced.x)) <= 1e-12
        assert np.max(np.abs(full.z - reduced.z)) <= 1e-12


def test_product_of_exponentials_along_one_block(contact):
    # restricted to a single eigenblock the endpoint only sees that block
    lam = Covector([0.9, 0.2, 0.0, 0.0], [1.1])
    pt = exp_map(contact, lam)
    assert np.array_equal(pt.x[2:], np.zeros(2))


def test_vertical_part_is_the_vertical_reach(group):
    # exp's z and log's F(r) share one sum: |z| = F(|v|) along v/|v|
    for u, v in seeded_covectors(group, 20, stream=10):
        z = exp_map(group, Covector(u, v)).z
        reach = _vertical_reach(group, u, float(np.linalg.norm(v)))
        assert float(np.linalg.norm(z)) == pytest.approx(reach, rel=1e-15, abs=0.0)


def test_time_zero_rows_have_positive_zero_z(group):
    # t v = -0.0 on negative v components; z must still print 0.0
    u = np.linspace(-1.0, 1.0, group.rank)
    v = -np.linspace(0.5, 1.0, group.corank)
    start = geodesic_sample(group, Covector(u, v), [0.0, 0.5])[0]
    assert start.z.tolist() == [0.0] * group.corank
    assert not np.any(np.signbit(start.z))


def test_geodesic_concatenation(group):
    # gamma(1) = gamma(s) * exp((1-s)(h(s), v)) with h(s) = expneg(s L_v) u:
    # restarting a geodesic from an interior point with the transported
    # momentum reaches the same endpoint.  This couples the product's
    # z-correction sign to the flow; a flipped sign fails by O(1).
    from htcarnot import EXP_NEG_PAIR, apply_analytic

    rng = np.random.default_rng(33)
    for _ in range(5):
        u = rng.standard_normal(group.rank)
        v = rng.uniform(-1.0, 1.0, group.corank)
        lam = Covector(u, v)
        full = exp_map(group, lam).as_vector()
        for s in (0.3, 0.5, 0.8):
            head = exp_map(group, lam.scale(s))
            h = apply_analytic(group, s * v, EXP_NEG_PAIR, u)
            tail = exp_map(group, Covector((1 - s) * h, (1 - s) * v))
            glued = multiply(group, head, tail).as_vector()
            assert np.max(np.abs(glued - full)) <= 1e-13
