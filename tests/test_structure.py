import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htcarnot import (
    Covector,
    DimensionMismatch,
    GroupSpec,
    SpecNotRealizable,
    StructureConstants,
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


# ------------------------------------------------------- exact construction

@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64, 12, 24, 48])
def test_family_relations_exact(dim):
    count = hurwitz_radon(dim) - 1
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



@pytest.mark.parametrize("alpha", [float("inf"), float("-inf"), float("nan")])
def test_spec_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="finite positive real"):
        GroupSpec(2, 1, ((alpha, 1),), 0)
    with pytest.raises(ValueError, match="finite positive real"):
        GroupSpec(4, 1, ((1.0, 1), (alpha, 1)), 0)


@pytest.mark.parametrize("seed", [-3, 2**64, 1.5, True])
def test_seed_outside_its_range_is_a_value_error(seed):
    # one check, in the seeded streams, for every caller of a seed
    with pytest.raises(ValueError, match=r">= 0 and < 2\*\*64"):
        validate_structure(np.eye(2), J[None], seed=seed)


def test_seed_range_ends_are_accepted():
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        assert validate_structure(np.eye(2), J[None], seed=seed).passed

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
    # the built families satisfy the Clifford relation exactly
    assert report.checks[-1].name == _CLIFFORD_ROW
    assert report.checks[-1].residual == 0.0


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


# skew matrices on R^4 that square to -I: (A, B) anticommute, and
# AC + CA = diag(-2, -2, 2, 2)
_A = np.kron(np.eye(2), J)
_B = np.kron(J, np.array([[1.0, 0.0], [0.0, -1.0]])) @ _A
_C = np.kron(np.diag([1.0, -1.0]), J)
_CLIFFORD_ROW = "Clifford relations on all unit pairs"


@pytest.mark.parametrize("scale", [1e160, 1.0, 1e-200, 2.0**-1000])
def test_validate_structure_runs_in_the_unit_frame(scale):
    # residuals are relative to the largest entry of S.  At 1e160 the
    # products overflowed to nan residuals that read as "PASS 0.0" after
    # RuntimeWarnings, and at 1e-200 "S non-zero" failed at the absolute
    # tolerance while the Clifford rows underflowed to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        good = validate_structure(scale * np.eye(4), scale * np.stack([_A, _B]))
        bad = validate_structure(scale * np.eye(4), scale * np.stack([_A, _C]))
    assert good.passed and all(math.isfinite(c.residual) for c in good.checks)
    # the worst unit pair of (A, C) is v = w = (1, 1)/sqrt(2), at residual 2
    assert {c.name for c in bad.failures()} == {_CLIFFORD_ROW}
    assert bad.checks[-1].residual == 2.0


def test_validate_structure_fails_a_non_finite_residual():
    # max(0.0, nan) is 0.0: a nan residual read as a pass.  The Clifford
    # row takes no eigenvalues of a non-finite matrix, which could raise
    # LinAlgError; it reports its largest entry (no errstate here).  An
    # infinite entry, and finite entries whose products overflow
    for L in (np.array([[0.0, np.inf], [-1.0, 0.0]]), 1e200 * J):
        row = validate_structure(np.eye(2), L[None]).checks[-1]
        assert row.name == _CLIFFORD_ROW and not row.passed
        assert not math.isfinite(row.residual)


@pytest.mark.parametrize("where", ["S", "L"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_structure_reports_non_finite_entries(where, bad):
    # a NaN in L raised LinAlgError from the SVD, an Infinity warned; now
    # the report fails, with no raise and no RuntimeWarning (no errstate here)
    S, L = np.eye(2), J[None].copy()
    (S if where == "S" else L[0])[0, 1 if where == "L" else 0] = bad
    report = validate_structure(S, L)
    assert not report.passed
    assert {"S symmetric" if where == "S" else "skew-symmetry of L", _CLIFFORD_ROW} <= \
        {c.name for c in report.failures()}
    with pytest.raises(ValueError, match="finite"):
        StructureConstants(S, L)


def _near_clifford(spec, eps, seed):
    # the built family of spec plus eps times a seeded skew family whose
    # largest entry is 1
    sc = build_structure(spec)
    G = np.random.default_rng(seed).standard_normal(sc.L.shape)
    A = G - G.transpose(0, 2, 1)
    return sc.S, sc.L + eps * A / np.max(np.abs(A))


def test_validate_structure_is_the_same_at_every_seed():
    # no check draws from the seed: htype4x3 off the relation by ~1e-12,
    # where 64 seeded pairs passed at some seeds and failed at others
    S, L = _near_clifford(GroupSpec(4, 3, ((1.0, 2),)), 1.97e-13, 7)
    reports = [validate_structure(S, L, seed=seed) for seed in (0, 5, 2**64 - 1)]
    assert all(r.checks == reports[0].checks for r in reports)
    assert reports[0].failures() == [reports[0].checks[-1]]


def _pair_residual(S, L, v, w):
    # max |L_v L_w + L_w L_v + 2 (v.w) S^2| relative to |S|_max^2
    lv, lw = np.tensordot(v, L, 1), np.tensordot(w, L, 1)
    res = lv @ lw + lw @ lv + 2.0 * float(v @ w) * (S @ S)
    return float(np.max(np.abs(res))) / float(np.max(S)) ** 2


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.integers(1, 4), blocks=st.integers(1, 2), kernel=st.integers(0, 1),
       eps=st.sampled_from([0.0, 1e-15, 1e-13, 1e-9, 1e-4, 0.1]),
       seed=st.integers(0, 2**32 - 1))
def test_clifford_row_is_the_worst_unit_pair(p, blocks, kernel, eps, seed):
    # blocks of dimension 8 carry corank 4; of dimension 4, corank 3
    pairs = 4 if p == 4 else 2 if p > 1 else 1
    spec = GroupSpec(kernel + 2 * pairs * blocks, p,
                     tuple((alpha, pairs) for alpha in (1.0, 2.5)[:blocks]), kernel)
    S, L = _near_clifford(spec, eps, seed)
    worst = validate_structure(S, L).checks[-1].residual
    slack = 1e-9 * worst + 1e-14  # rounding of the two computations
    rng = np.random.default_rng(seed)
    pairs_vw = rng.standard_normal((50, 2, p))
    pairs_vw /= np.linalg.norm(pairs_vw, axis=2, keepdims=True)
    assert max(_pair_residual(S, L, v, w) for v, w in pairs_vw) <= worst + slack
    # attained: at v = w, an eigenvector of C_..[r, s] of the largest |eigenvalue|
    C = np.array([[L[a] @ L[b] + L[b] @ L[a] + (2.0 * S @ S if a == b else 0.0)
                   for b in range(p)] for a in range(p)])
    evals, evecs = np.linalg.eigh(C.transpose(2, 3, 0, 1))
    r, s, i = np.unravel_index(np.argmax(np.abs(evals)), evals.shape)
    top = evecs[r, s, :, i]
    assert _pair_residual(S, L, top, top) >= worst - slack
    if p == 1:
        # the one basis pair
        assert worst == float(np.max(np.abs(C[0, 0]))) / float(np.max(S)) ** 2


def test_clifford_row_memory_stays_near_one_p_by_p_matrix_per_entry():
    # rank 128, corank 15: one float64 15 x 15 matrix per entry r <= s is
    # 15 MiB; the whole (p, p, k, k) tensor C_ab and its transposed copy
    # peaked at 74 MiB
    sc = build_structure(GroupSpec(128, 15, ((1.0, 64),)))
    tracemalloc.start()
    try:
        report = validate_structure(sc.S, sc.L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 45 * 2**20, f"{peak / 2**20:.1f} MiB"


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


def test_structure_constants_is_s_and_l(group):
    # the blocks, ker S and the spec derive from diag(S), and stay cached
    assert [f.name for f in dataclasses.fields(StructureConstants)] == ["S", "L"]
    rebuilt = StructureConstants(group.S.copy(), group.L.copy())
    assert rebuilt.spec == group.spec and rebuilt.spec is rebuilt.spec
    assert rebuilt.kernel_indices.tolist() == list(range(group.spec.kernel_dim))
    start = group.spec.kernel_dim
    for block, (alpha, pairs) in zip(rebuilt.blocks, group.spec.spectrum, strict=True):
        assert block.alpha == alpha
        assert block.indices.tolist() == list(range(start, start + 2 * pairs))
        start += 2 * pairs


@pytest.mark.parametrize("S, message", [
    (np.array([[1.0, 0.1], [0.1, 1.0]]), "exactly diagonal"),
    (np.diag([1.0, -1e-300]), "non-negative"),
    (np.zeros((2, 2)), "non-zero"),
    (np.diag([1.0, 1.0 + 2.0**-52]), "odd multiplicity"),
])
def test_structure_constants_makes_the_exact_checks(S, message):
    with pytest.raises(StructureInvalid, match=message):
        StructureConstants(S, J[None])


def test_structure_constants_checks_shapes():
    with pytest.raises(DimensionMismatch):
        StructureConstants(np.eye(2), np.zeros((1, 3, 3)))
    with pytest.raises(DimensionMismatch):
        StructureConstants(np.eye(2), np.zeros((0, 2, 2)))
    with pytest.raises(DimensionMismatch):
        StructureConstants(np.ones(2), J[None])


@pytest.mark.parametrize("spectrum", [((1.0, 1),), ((1.0, 1), (2.0, 1)), ((1e-300, 1), (1e300, 1))])
def test_unit_frame_scales_s_and_l_by_the_exponent_of_alpha_max(spectrum):
    # the frame is the structure (2^-a S, 2^-a L), with its own blocks, ker S
    # and spec: beside 1e300, the alpha 1e-300 times 2^-997 rounds to 0, and
    # its block joins ker S
    sc = build_structure(GroupSpec(rank=4 if len(spectrum) == 2 else 2, corank=1,
                                   spectrum=spectrum))
    a, fr = sc.unit_exponent, sc.unit_frame
    assert 0.5 <= fr.alpha_max < 1.0 and fr.alpha_max == np.ldexp(sc.alpha_max, -a)
    assert np.array_equal(fr.S, np.ldexp(sc.S, -a)) and np.array_equal(fr.L, np.ldexp(sc.L, -a))
    kept = tuple((alpha, m) for alpha, m in ((math.ldexp(alpha, -a), m) for alpha, m in spectrum)
                 if alpha > 0.0)
    kernel_dim = sc.rank - 2 * sum(m for _, m in kept)
    assert fr.spec == GroupSpec(rank=sc.rank, corank=1, spectrum=kept, kernel_dim=kernel_dim)
    assert fr.kernel_indices.tolist() == list(range(kernel_dim))
    assert [b.indices.tolist() for b in fr.blocks] == \
        [b.indices.tolist() for b in sc.blocks[len(spectrum) - len(kept):]]
    assert sc.alpha_max == sc.spec.alpha_max and fr.unit_frame is fr
    assert 2.0 * np.pi < fr.first_conjugate_radius <= 4.0 * np.pi


@pytest.mark.parametrize("spec", [GroupSpec(rank=4, corank=3, spectrum=((1.0, 2),)),
                                  GroupSpec(rank=8, corank=7, spectrum=((1.0, 4),)),
                                  GroupSpec(rank=6, corank=1, spectrum=((0.7, 1), (1.3, 2)))],
                         ids=["htype4x3", "octonionic", "two-block"])
def test_l_of_v_is_the_contraction_over_the_family(spec):
    # L_v as one matrix-vector product on the flattened family keeps the
    # bits of the tensor contraction sum_a v_a L^a
    sc = build_structure(spec)
    rng = np.random.default_rng(2302)
    for _ in range(200):
        v = rng.standard_normal(sc.corank)
        assert l_of_v(sc, v).tobytes() == np.tensordot(v, sc.L, axes=1).tobytes()
    with pytest.raises(DimensionMismatch):
        l_of_v(sc, np.zeros(sc.corank + 1))
