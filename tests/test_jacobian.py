"""Jacobian determinant formula against finite-difference determinants."""

import numpy as np
import pytest

from htcarnot import (
    Covector,
    OutOfDomain,
    catalog_names,
    catalog_structure,
    exp_map,
    jacobian,
    structure_from_matrices,
)
from htcarnot.geodesics import _jacobian_core

from conftest import one_block, seeded_covectors


def block_jacobian(sc, lam):
    """J in eigenblock form: one angle alpha_j |v| and one squared norm per block."""
    q = np.array([lam.u[b.indices] @ lam.u[b.indices] for b in sc.blocks])
    vn = np.float64(np.linalg.norm(lam.v))
    return float(_jacobian_core(sc.block_alphas(), sc.block_pairs(), sc.corank, q, vn))


def _permuted_contact():
    # ker S between block coordinates, blocks split apart
    sc = catalog_structure("contact12")
    perm = np.array([3, 0, 2, 1])
    return structure_from_matrices(sc.S[np.ix_(perm, perm)], sc.L[:, perm][:, :, perm])


@pytest.mark.parametrize("name", [*catalog_names(), "contact12-permuted"])
def test_per_coordinate_matches_block_formula(name):
    sc = _permuted_contact() if name == "contact12-permuted" else catalog_structure(name)
    for u, v in seeded_covectors(sc, 40, stream=11):
        lam = Covector(u, v)
        assert jacobian(sc, lam) == pytest.approx(block_jacobian(sc, lam), rel=1e-14, abs=0.0)


def fd_determinant(sc, lam, h=1e-6):
    """det of the endpoint map differential by central differences."""
    n = sc.dim
    base = lam.as_vector()
    cols = np.empty((n, n))
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        fwd = exp_map(sc, Covector.from_vector(base + step, sc.rank)).as_vector()
        bwd = exp_map(sc, Covector.from_vector(base - step, sc.rank)).as_vector()
        cols[:, i] = (fwd - bwd) / (2.0 * h)
    return float(np.linalg.det(cols))


def test_formula_matches_finite_differences(group):
    for u, v in seeded_covectors(group, 50, stream=6, vmax_frac=0.9):
        lam = Covector(u, v)
        exact = jacobian(group, lam)
        approx = fd_determinant(group, lam)
        assert exact == pytest.approx(approx, rel=1e-6)


def test_heisenberg_half_turn_value(heis):
    got = jacobian(heis, Covector([1.0, 0.0], [np.pi]))
    assert got == pytest.approx(4.0 / np.pi**4, rel=1e-15)


def test_zero_momentum_closed_form(group):
    rng = np.random.default_rng(41)
    for _ in range(10):
        u = rng.standard_normal(group.rank)
        su2 = float(np.sum((group.s_diag * u) ** 2))
        expected = (su2 / 12.0) ** group.corank
        got = jacobian(group, Covector(u, np.zeros(group.corank)))
        assert got == pytest.approx(expected, rel=1e-14)


def test_limit_approaching_zero_momentum(group):
    # J is continuous at v = 0; approach along shrinking v
    u = np.linspace(0.6, 1.4, group.rank)
    su2 = float(np.sum((group.s_diag * u) ** 2))
    expected = (su2 / 12.0) ** group.corank
    direction = np.ones(group.corank) / np.sqrt(group.corank)
    for r in (1e-3, 1e-5, 1e-7):
        got = jacobian(group, Covector(u, r * direction))
        assert got == pytest.approx(expected, rel=1e-5 * r / 1e-3 + 1e-10)
    got = jacobian(group, Covector(u, 1e-9 * direction))
    assert got == pytest.approx(expected, rel=1e-10)


def test_out_of_domain_momentum_rejected(heis, contact):
    with pytest.raises(OutOfDomain):
        jacobian(heis, Covector([1.0, 0.0], [2.0 * np.pi]))
    # smaller radius when the top eigenvalue is larger
    with pytest.raises(OutOfDomain):
        jacobian(contact, Covector([1.0, 0.0, 0.0, 0.0], [1.1 * np.pi]))
    assert jacobian(contact, Covector([1.0, 0.0, 0.0, 0.0], [0.9 * np.pi])) > 0.0


def test_vanishes_exactly_on_abnormal_covectors(degenerate):
    lam = Covector([1.0, -2.0, 0.0, 0.0], [0.5])
    assert jacobian(degenerate, lam) == 0.0


def test_positive_on_injectivity_domain(group):
    for u, v in seeded_covectors(group, 20, stream=7):
        assert jacobian(group, Covector(u, v)) > 0.0


def test_scaling_exponent_at_zero_momentum(group):
    # J(t u, 0) = t^(2p) J(u, 0) exactly
    u = np.linspace(1.0, 2.0, group.rank)
    z = np.zeros(group.corank)
    base = jacobian(group, Covector(u, z))
    for t in (0.5, 0.25):
        got = jacobian(group, Covector(t * u, z))
        assert got == pytest.approx(t ** (2 * group.corank) * base, rel=1e-15)


@pytest.mark.parametrize("shape", [(2, 1), (4, 3)])
@pytest.mark.parametrize("j", [-600, 600])
def test_invariant_under_scaling_alpha_against_u_and_v(shape, j):
    # J scales by 4^(j p) with alpha = 2^j at fixed angles and by 4^(-j p)
    # with u times 2^-j, so the group of alpha = 2^j at (2^-j u, 2^-j v) has
    # the J of alpha = 1 at (u, v), bit for bit; alpha^2 left the float range
    unit, far = one_block(*shape, 1.0), one_block(*shape, 2.0**j)
    for u, v in seeded_covectors(unit, 6, stream=23):
        want = jacobian(unit, Covector(u, v))
        assert jacobian(far, Covector(np.ldexp(u, -j), np.ldexp(v, -j))) == want


@pytest.mark.parametrize("k", [-300, 300])
def test_scales_exactly_with_u(group, k):
    # J(2^k u, v) = 4^(k p) J(u, v) bit for bit, inf or 0 only where that is
    # beyond the float range (at p = 3)
    for u, v in seeded_covectors(group, 6, stream=24):
        with np.errstate(over="ignore"):
            want = np.ldexp(jacobian(group, Covector(u, v)), 2 * k * group.corank)
        assert jacobian(group, Covector(np.ldexp(u, k), v)) == want


@pytest.mark.parametrize("alpha, u, want", [
    # alpha^2 overflowed and u^2 underflowed: nan; the alpha = 1e160 value is
    # the alpha = 1 value at u = 1e-40 up to its rounding
    (1e160, [1e-200, 0.0], 6.537709321558435e-82),
    # alpha^2 underflowed: 0.0
    (1e-200, [1e150, 0.0], 6.5377093215584335e-102),
    # the bits of heisenberg3 before J moved to the unit frame
    (1.0, [1.0, 0.0], 0.06537709321558435),
    (1.0, [1.0, 0.3], 0.07126103160498695),
])
def test_at_extreme_alpha_and_u(alpha, u, want):
    sc = one_block(2, 1, alpha)
    assert jacobian(sc, Covector(u, [0.3 * sc.first_conjugate_radius])) == want
