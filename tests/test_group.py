import numpy as np
import pytest

from htcarnot import (
    GroupPoint,
    dilate,
    identity,
    inverse,
    multiply,
    translation_differential,
)


def random_point(sc, rng):
    return GroupPoint(rng.standard_normal(sc.rank), rng.standard_normal(sc.corank))


def test_heisenberg_product_sign(heis):
    p = GroupPoint([1.0, 0.0], [0.0])
    q = GroupPoint([0.0, 1.0], [0.0])
    assert multiply(heis, p, q).z[0] == 0.5
    assert multiply(heis, q, p).z[0] == -0.5


def test_identity_and_inverse(group):
    rng = np.random.default_rng(3)
    e = identity(group)
    for _ in range(10):
        p = random_point(group, rng)
        assert np.array_equal(multiply(group, p, e).as_vector(), p.as_vector())
        assert np.array_equal(multiply(group, e, p).as_vector(), p.as_vector())
        pinv = inverse(p)
        left = multiply(group, pinv, p).as_vector()
        right = multiply(group, p, pinv).as_vector()
        # exactly: distance(p, p) is 0 through the identity
        assert not np.any(left) and not np.any(right)


def test_associativity_exact_on_integers(group):
    rng = np.random.default_rng(4)
    for _ in range(10):
        pts = [GroupPoint(rng.integers(-3, 4, group.rank).astype(float),
                          rng.integers(-3, 4, group.corank).astype(float))
               for _ in range(3)]
        a = multiply(group, multiply(group, pts[0], pts[1]), pts[2]).as_vector()
        b = multiply(group, pts[0], multiply(group, pts[1], pts[2])).as_vector()
        assert np.array_equal(a, b)


def test_associativity_float(group):
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, q, r = (random_point(group, rng) for _ in range(3))
        a = multiply(group, multiply(group, p, q), r).as_vector()
        b = multiply(group, p, multiply(group, q, r)).as_vector()
        assert np.max(np.abs(a - b)) <= 1e-12


def test_dilation_is_homomorphism(group):
    rng = np.random.default_rng(6)
    for eps in (0.5, 2.0):
        p, q = random_point(group, rng), random_point(group, rng)
        a = dilate(eps, multiply(group, p, q)).as_vector()
        b = multiply(group, dilate(eps, p), dilate(eps, q)).as_vector()
        assert np.max(np.abs(a - b)) <= 1e-14


def test_dilation_scaling_and_errors(group):
    p = GroupPoint(np.ones(group.rank), np.ones(group.corank))
    d = dilate(3.0, p)
    assert np.all(d.x == 3.0)
    assert np.all(d.z == 9.0)
    with pytest.raises(ValueError):
        dilate(0.0, p)
    with pytest.raises(ValueError):
        dilate(-1.0, p)


def test_frame_fields_match_left_translation(group):
    # X_i(p), column i of the translation differential, must be the velocity
    # of t -> p * (t e_i, 0) at t = 0; the product is affine in t so a
    # central difference is exact to rounding
    rng = np.random.default_rng(8)
    h = 1e-5
    for _ in range(5):
        p = random_point(group, rng)
        frame = translation_differential(group, p)
        for i in range(group.rank):
            step = np.zeros(group.rank)
            step[i] = h
            fwd = multiply(group, p, GroupPoint(step, np.zeros(group.corank)))
            bwd = multiply(group, p, GroupPoint(-step, np.zeros(group.corank)))
            fd = (fwd.as_vector() - bwd.as_vector()) / (2.0 * h)
            assert np.max(np.abs(fd - frame[:, i])) <= 1e-10


def test_frame_brackets_recover_structure_matrices(group):
    # [X_i, X_j] = sum_a (L^a)_{ij} d/dz_a; frame fields are affine so the
    # finite-difference commutator is exact
    rng = np.random.default_rng(9)
    p = random_point(group, rng)
    h = 1e-5
    k = group.rank

    def field(i, at):
        return translation_differential(group, GroupPoint(at[:k], at[k:]))[:, i]

    base = p.as_vector()
    for i in range(k):
        for j in range(i + 1, k):
            xi, xj = field(i, base), field(j, base)
            dxj = (field(j, base + h * xi) - field(j, base - h * xi)) / (2 * h)
            dxi = (field(i, base + h * xj) - field(i, base - h * xj)) / (2 * h)
            bracket = dxj - dxi
            expected = np.zeros_like(bracket)
            expected[k:] = group.L[:, i, j]
            assert np.max(np.abs(bracket - expected)) <= 1e-9


def test_translation_differential_is_product_jacobian(group):
    # rows of d(tau_p) against finite differences of q -> p * q
    rng = np.random.default_rng(10)
    p, q = random_point(group, rng), random_point(group, rng)
    mat = translation_differential(group, p)
    n = group.dim
    h = 1e-6
    fd = np.zeros((n, n))
    for col in range(n):
        delta = np.zeros(n)
        delta[col] = h
        qp = GroupPoint((q.as_vector() + delta)[: group.rank],
                        (q.as_vector() + delta)[group.rank:])
        qm = GroupPoint((q.as_vector() - delta)[: group.rank],
                        (q.as_vector() - delta)[group.rank:])
        fd[:, col] = (multiply(group, p, qp).as_vector()
                      - multiply(group, p, qm).as_vector()) / (2 * h)
    assert np.max(np.abs(fd - mat)) <= 1e-9
    assert abs(np.linalg.det(mat) - 1.0) <= 1e-12  # translations preserve volume


def test_point_vector_round_trip(group):
    rng = np.random.default_rng(12)
    p = random_point(group, rng)
    q = GroupPoint.from_vector(p.as_vector(), group.rank)
    assert np.array_equal(p.as_vector(), q.as_vector())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite"):
        GroupPoint([bad, 0.0], [1.0])
    with pytest.raises(ValueError, match="finite"):
        GroupPoint([1.0, 0.0], [bad])
