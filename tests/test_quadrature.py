"""Deterministic tensor-product Gauss-Legendre quadrature."""

import math

import numpy as np
import pytest

from htcarnot.quadrature import (
    NODE_BUDGET,
    gauss_legendre,
    mapped_rule,
    pairwise_sum,
    pairwise_sums,
    require_node_budget,
    tensor_grid,
)


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(3)
    for size in (1, 2, 7, 1000, 4097):
        vals = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-15)


def test_pairwise_sum_empty_is_zero():
    assert pairwise_sum(np.array([])) == 0.0


def test_pairwise_sum_is_order_deterministic():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(10000)
    assert pairwise_sum(vals) == pairwise_sum(vals.copy())


def test_nodes_are_cached_and_read_only():
    a = gauss_legendre(8)
    b = gauss_legendre(8)
    assert a is b
    with pytest.raises(ValueError):
        a[0][0] = 0.0


def test_rule_exact_on_polynomials():
    # n-point Gauss-Legendre integrates degree 2n-1 exactly
    for npts in (2, 4, 8):
        nodes, weights = mapped_rule(-1.0, 3.0, npts)
        for deg in range(2 * npts):
            got = float(np.sum(weights * nodes**deg))
            exact = (3.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_pairwise_sums_rows_match_pairwise_sum():
    rng = np.random.default_rng(5)
    for size in (1, 2, 7, 64, 1000):
        rows = rng.standard_normal((3, size)) * 10.0 ** rng.integers(-8, 8, (3, size))
        got = pairwise_sums(rows)
        assert got.shape == (3,)
        assert got.tolist() == [pairwise_sum(row) for row in rows]
    assert pairwise_sums(np.zeros((2, 0))).tolist() == [0.0, 0.0]


def test_tensor_grid_is_the_full_row_major_grid():
    pts, wts = tensor_grid([0.0, -1.0], [1.0, 3.0], 3)
    x0, w0 = mapped_rule(0.0, 1.0, 3)
    x1, w1 = mapped_rule(-1.0, 3.0, 3)
    np.testing.assert_array_equal(pts, [(a, b) for a in x0 for b in x1])
    np.testing.assert_array_equal(wts, [a * b for a in w0 for b in w1])
    # three axes: each weight is multiplied in from the last axis to the first
    lower, upper = [0.0, -1.0, 2.0], [0.3, 2.5, 7.0]
    pts, wts = tensor_grid(lower, upper, 4)
    rules = [mapped_rule(lo, hi, 4) for lo, hi in zip(lower, upper)]
    (x0, w0), (x1, w1), (x2, w2) = rules
    np.testing.assert_array_equal(pts, [(a, b, c) for a in x0 for b in x1 for c in x2])
    assert wts.tolist() == [(c * b) * a for a in w0 for b in w1 for c in w2]
    pts, wts = tensor_grid([0.0, 0.0], [1.0, 2.0], 12)
    got = pairwise_sum(wts * np.cos(pts[:, 0]) * np.exp(pts[:, 1]))
    assert got == pytest.approx(math.sin(1.0) * (math.e**2 - 1.0), rel=1e-14)


def test_node_budget_rejects_before_allocating():
    require_node_budget(2, 22)
    with pytest.raises(ValueError, match=str(2**23)):
        require_node_budget(2, 23)
    with pytest.raises(ValueError, match=str(10**28)):
        tensor_grid([0.0] * 7, [1.0] * 7, 10**4)
    # the rule's eigenproblem has npts^2 entries
    side = math.isqrt(NODE_BUDGET)
    with pytest.raises(ValueError, match="eigenproblem"):
        gauss_legendre(side + 1)
