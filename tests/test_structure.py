import numpy as np
import pytest

from htcarnot import (
    Covector,
    GroupSpec,
    SpecNotRealizable,
    StructureInvalid,
    anticommuting_family,
    build_structure,
    catalog_structure,
    existence_check,
    exp_map,
    hurwitz_radon,
    jacobian,
    l_of_v,
    log_map,
    max_skew_family_size,
    structure_from_matrices,
    validate_structure,
)

from conftest import seeded_covectors

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


# ---------------------------------------------------------------- counting

def test_hurwitz_radon_values():
    # rho(2^(4a+b) * odd) = 8a + 2^b
    known = {1: 1, 2: 2, 3: 1, 4: 4, 8: 8, 16: 9, 32: 10, 64: 12,
             128: 16, 256: 17, 12: 4, 48: 9, 24: 8, 96: 10}
    for n, rho in known.items():
        assert hurwitz_radon(n) == rho, n


def test_max_family_size_is_rho_minus_one():
    for n in (2, 4, 8, 16, 32, 12, 24):
        assert max_skew_family_size(n) == hurwitz_radon(n) - 1


# ------------------------------------------------------- exact construction

@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64, 12, 24, 48])
def test_family_relations_exact(dim):
    count = max_skew_family_size(dim)
    fam = anticommuting_family(dim, count)
    assert len(fam) == count
    eye = np.eye(dim)
    for a, A in enumerate(fam):
        # integer entries, exactly orthogonal and skew
        assert np.array_equal(A, np.round(A))
        assert np.array_equal(A.T, -A)
        assert np.array_equal(A @ A, -eye)
        for B in fam[a + 1:]:
            assert np.array_equal(A @ B, -(B @ A))


def test_family_over_capacity_rejected():
    with pytest.raises(SpecNotRealizable):
        anticommuting_family(2, 2)
    with pytest.raises(SpecNotRealizable):
        anticommuting_family(16, 9)


def test_existence_check_boundary():
    ok = existence_check(GroupSpec(2, 1, ((1.0, 1),), 0))
    assert ok
    bad = existence_check(GroupSpec(2, 2, ((1.0, 1),), 0))
    assert not bad
    assert "Hurwitz-Radon bound violated" in bad.detail
    # quaternionic: 4-dim block carries 3 structures
    assert existence_check(GroupSpec(4, 3, ((1.0, 2),), 0))
    assert not existence_check(GroupSpec(4, 4, ((1.0, 2),), 0))


# ------------------------------------------------------------ normal forms

def test_heisenberg_normal_form(heis):
    assert np.array_equal(heis.S, np.eye(2))
    assert np.array_equal(heis.L[0], J)


def test_contact_normal_form(contact):
    assert np.array_equal(np.diag(contact.S), [1.0, 1.0, 2.0, 2.0])
    expected = np.zeros((4, 4))
    expected[:2, :2] = J
    expected[2:, 2:] = 2.0 * J
    assert np.array_equal(contact.L[0], expected)


def test_degenerate_normal_form(degenerate):
    assert np.array_equal(np.diag(degenerate.S), [0.0, 0.0, 1.0, 1.0])
    expected = np.zeros((4, 4))
    expected[2:, 2:] = J
    assert np.array_equal(degenerate.L[0], expected)
    assert list(degenerate.kernel_indices) == [0, 1]


def test_quaternionic_structure(quat):
    assert np.array_equal(quat.S, np.eye(4))
    assert quat.L.shape == (3, 4, 4)
    assert quat.first_conjugate_radius == 2.0 * np.pi


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(2, 1, ((1.0, 1), (0.5, 1)), 0)  # decreasing alphas
    with pytest.raises(ValueError):
        GroupSpec(2, 1, ((-1.0, 1),), 0)
    with pytest.raises(ValueError):
        GroupSpec(3, 1, ((1.0, 1),), 0)  # rank != kernel + 2*mult
    with pytest.raises(ValueError):
        GroupSpec(2, 0, ((1.0, 1),), 0)


# ------------------------------------------------- the defining relations

def test_defining_relation_on_random_pairs(group):
    rng = np.random.default_rng(7)
    S2 = group.S @ group.S
    for _ in range(100):
        v = rng.standard_normal(group.corank)
        w = rng.standard_normal(group.corank)
        lv, lw = l_of_v(group, v), l_of_v(group, w)
        resid = lv @ lw + lw @ lv + 2.0 * float(v @ w) * S2
        assert np.max(np.abs(resid)) <= 1e-12


def test_l_of_v_linearity(group):
    rng = np.random.default_rng(11)
    v = rng.standard_normal(group.corank)
    w = rng.standard_normal(group.corank)
    lhs = l_of_v(group, 2.0 * v - 0.5 * w)
    rhs = 2.0 * l_of_v(group, v) - 0.5 * l_of_v(group, w)
    assert np.array_equal(lhs, rhs)


# ------------------------------------------------------------- validation

def test_validate_structure_passes_on_built(group):
    report = validate_structure(group.S, group.L)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_validate_structure_failure_modes():
    # dependent family breaks independence and the defining relation
    report = validate_structure(np.eye(2), np.stack([J, -J]))
    names = [c.name for c in report.failures()]
    assert "linear independence of L" in names
    assert not report.passed

    report = validate_structure(np.diag([1.0, -1.0]), J[None])
    assert "S non-negative" in [c.name for c in report.failures()]

    report = validate_structure(np.zeros((2, 2)), J[None])
    assert "S non-zero" in [c.name for c in report.failures()]

    report = validate_structure(np.eye(2), np.array([[[0.0, 1.0], [1.0, 0.0]]]))
    assert "skew-symmetry of L" in [c.name for c in report.failures()]


def test_validate_structure_seeded_pairs_deterministic():
    a = validate_structure(np.eye(2), J[None], seed=5)
    b = validate_structure(np.eye(2), J[None], seed=5)
    assert a.max_residual == b.max_residual


# ----------------------------------------------------------- re-ingestion

def test_structure_from_matrices_round_trip(group):
    rebuilt = structure_from_matrices(group.S, group.L)
    assert rebuilt.spec == group.spec
    assert np.array_equal(rebuilt.S, group.S)
    assert np.array_equal(rebuilt.L, group.L)


@pytest.mark.parametrize("name", ["contact12", "degenerate-corank1", "htype4x3"])
def test_permuted_coordinates_give_the_same_geodesics(name):
    # permuting the coordinates by [3, 0, 2, 1] puts ker S between block
    # coordinates and splits the blocks of contact12; exp, J and log must
    # not notice
    sc = catalog_structure(name)
    perm = np.array([3, 0, 2, 1])
    moved = structure_from_matrices(sc.S[np.ix_(perm, perm)], sc.L[:, perm][:, :, perm])
    assert not np.array_equal(moved.L, sc.L)
    for u, v in seeded_covectors(sc, 20, stream=9):
        lam, lam_moved = Covector(u, v), Covector(u[perm], v)
        pt, pt_moved = exp_map(sc, lam), exp_map(moved, lam_moved)
        np.testing.assert_allclose(pt_moved.x, pt.x[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(pt_moved.z, pt.z, rtol=0, atol=1e-12)
        assert jacobian(moved, lam_moved) == pytest.approx(jacobian(sc, lam), abs=1e-12)
        back, back_moved = log_map(sc, pt), log_map(moved, pt_moved)
        np.testing.assert_allclose(back_moved.u, back.u[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(back_moved.v, back.v, rtol=0, atol=1e-12)


def test_structure_from_matrices_accepts_diagonal_vector(heis):
    rebuilt = structure_from_matrices(np.ones(2), heis.L)
    assert rebuilt.spec == heis.spec


def test_structure_from_matrices_rejects_invalid():
    with pytest.raises(StructureInvalid):
        structure_from_matrices(np.eye(2), np.stack([J, -J]))
    with pytest.raises(StructureInvalid):
        # odd multiplicity of a non-zero eigenvalue cannot happen for valid L
        structure_from_matrices(np.diag([1.0, 1.0, 2.0]), np.zeros((1, 3, 3)))
    with pytest.raises(StructureInvalid):
        # non-diagonal S is not accepted even if symmetric
        s = np.array([[1.0, 0.1], [0.1, 1.0]])
        structure_from_matrices(s, J[None])
