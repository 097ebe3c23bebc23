"""Endpoint formulas against direct integration of the normal Hamiltonian flow."""

import math

import mpmath
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
    in_injectivity_domain,
    is_abnormal,
    l_of_v,
    multiply,
)
from htcarnot import geodesics
from htcarnot.catalog import catalog_names, catalog_structure
from htcarnot.geodesics import _FLOAT_ROW_RANK, _exp_rows, _half_angle, _l_rows
from htcarnot.structure import GroupSpec, StructureConstants, build_structure, hurwitz_radon

from conftest import one_block, oracle_exp_neg, seeded_covectors


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


@pytest.mark.parametrize("k", [2, 4, 8, 16])
@pytest.mark.parametrize("p", [1, 2, 3, 7, 8, 9, 12])
def test_l_rows_match_the_broadcast_sum_bit_for_bit(p, k):
    # L_vhat added one family member at a time has the bits of the sum over
    # a of the (m, p, k, k) products, on either side of numpy's unrolled
    # sums at 8 terms
    rng = np.random.default_rng([67, p, k])
    L = rng.standard_normal((p, k, k)) * 10.0 ** rng.integers(-3, 4, (p, 1, 1))
    vhat = rng.standard_normal((9, p))
    vhat[0] = 0.0
    want = (vhat[:, :, None, None] * L).sum(axis=1)
    assert _l_rows(L, vhat).tobytes() == want.tobytes()


def test_geodesic_sample_checks_its_rows_once(heis):
    # the sample checks its endpoint block once and builds its points
    # without a check per row: a row whose z overflows still raises the
    # ValueError of GroupPoint at the first such row, and every point it
    # returns is finite and read-only
    lam = Covector([1e200, 0.0], [1.0])
    with pytest.raises(ValueError) as sampled:
        geodesic_sample(heis, lam, [0.0, 1e-200, 0.25, 0.5, 1.0])
    with pytest.raises(ValueError) as single:
        exp_map(heis, lam.scale(0.25))
    assert str(sampled.value) == str(single.value)
    assert "point coordinates must be finite" in str(sampled.value)
    pts = geodesic_sample(heis, lam, [0.0, 1e-200, 1e-160])
    assert len(pts) == 3
    for pt in pts:
        assert isinstance(pt, GroupPoint)
        assert np.isfinite(pt.as_vector()).all()
        for part in (pt.x, pt.z):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_covector_rejects_non_finite_components(bad):
    with pytest.raises(ValueError, match="finite"):
        Covector([bad, 0.0], [1.0])
    with pytest.raises(ValueError, match="finite"):
        Covector([1.0, 0.0], [bad])


def test_cut_time_values(heis):
    assert cut_time(heis, Covector([1.0, 0.0], [2.0])) == np.pi
    assert cut_time(heis, Covector([1.0, 0.0], [0.0])) == np.inf
    with pytest.raises(ZeroCovector):
        cut_time(heis, Covector([0.0, 0.0], [0.0]))


def test_cut_time_uses_largest_eigenvalue(contact):
    lam = Covector([1.0, 0.0, 0.0, 0.0], [1.0])
    assert cut_time(contact, lam) == np.pi  # alpha_max = 2


@pytest.mark.parametrize("alpha, vn", [(1e-300, 1e-30), (1e300, 1e-320), (1e300, 1e10)])
def test_cut_time_at_extreme_alpha(alpha, vn):
    # alpha |v| underflowed to 0 (ZeroDivisionError) or to a subnormal; the
    # cut time is 2 pi / (alpha |v|) correctly rounded, inf beyond the range
    sc = one_block(2, 1, alpha)
    with mpmath.workdps(40):
        want = float(2 * mpmath.pi / (mpmath.mpf(alpha) * mpmath.mpf(vn)))
    assert cut_time(sc, Covector([1.0, 0.3], [vn])) == want


def test_cut_time_keeps_its_bits_in_range(group):
    # the mantissa form rounds as 2 pi / (alpha_max |v|) wherever that
    # product and quotient are normal floats
    for u, v in seeded_covectors(group, 20, stream=9):
        lam = Covector(u, v)
        assert cut_time(group, lam) == 2.0 * np.pi / (group.alpha_max * math.hypot(*lam.v))


def test_s_u_test_is_exact_at_tiny_alpha():
    # at alpha = 1e-200 the product s_c u_c = 1e-400 underflowed to 0 and
    # read as S u = 0: the covector was abnormal, outside D, with cut time inf
    sc = one_block(2, 1, 1e-200)
    lam = Covector([1e-200, 0.0], [1.0])
    assert not is_abnormal(sc, lam)
    assert in_injectivity_domain(sc, lam)
    assert cut_time(sc, lam) == 6.283185307179586e+200


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


def vertical_reach(sc, u, r):
    # F(r) = (r/2) sum_c s_c^2 h3(s_c r) u_c^2 off ker S, the sum that log's
    # _momentum_at takes for the reach of the lower blocks
    pos = sc.s_positive
    s, up = sc.s_diag[pos], u[pos]
    return 0.5 * r * float((s * s * _half_angle(r * s)[1]) @ (up * up))


def test_vertical_part_is_the_vertical_reach(group):
    # exp's z and log's F(r) share one sum: |z| = F(|v|) along v/|v|
    for u, v in seeded_covectors(group, 20, stream=10):
        z = exp_map(group, Covector(u, v)).z
        reach = vertical_reach(group, u, float(np.linalg.norm(v)))
        assert float(np.linalg.norm(z)) == pytest.approx(reach, rel=1e-15, abs=0.0)


def test_time_zero_rows_have_positive_zero_z(group):
    # t u and t v are -0.0 on negative components; x and z must still print 0.0
    u = np.linspace(-1.0, 1.0, group.rank)
    v = -np.linspace(0.5, 1.0, group.corank)
    start = geodesic_sample(group, Covector(u, v), [0.0, 0.5])[0]
    assert start.z.tolist() == [0.0] * group.corank
    assert not np.any(np.signbit(start.z))
    assert start.x.tolist() == [0.0] * group.rank
    assert not np.any(np.signbit(start.x))


def test_geodesic_concatenation(group):
    # gamma(1) = gamma(s) * exp((1-s)(h(s), v)) with h(s) = expneg(s L_v) u:
    # restarting a geodesic from an interior point with the transported
    # momentum reaches the same endpoint.  This couples the product's
    # z-correction sign to the flow; a flipped sign fails by O(1).
    rng = np.random.default_rng(33)
    for _ in range(5):
        u = rng.standard_normal(group.rank)
        v = rng.uniform(-1.0, 1.0, group.corank)
        lam = Covector(u, v)
        full = exp_map(group, lam).as_vector()
        for s in (0.3, 0.5, 0.8):
            head = exp_map(group, lam.scale(s))
            h = oracle_exp_neg(l_of_v(group, s * v)) @ u
            tail = exp_map(group, Covector((1 - s) * h, (1 - s) * v))
            glued = multiply(group, head, tail).as_vector()
            assert np.max(np.abs(glued - full)) <= 1e-13


@pytest.mark.parametrize("name", ["heisenberg3", "contact12"])
@pytest.mark.parametrize("vn", [1e120, 1e160, 1e200, 1e300])
def test_exp_at_large_vertical_momentum_matches_the_closed_form(name, vn):
    # every factor of exp is bounded at every finite angle, so nothing
    # overflows to 0, inf or NaN where h3's cube or |v|^2 leave the float
    # range (a RuntimeWarning fails the suite).  The oracle is the same closed
    # form in 50-digit arithmetic; its angles s_c |v| are exact floats here
    # (corank 1, s_c in {1, 2}).
    sc = catalog_structure(name)
    u = np.linspace(1.0, 0.3, sc.rank)
    lam = Covector(u, [vn])
    pt = exp_map(sc, lam)
    # the t = 0 row sends the kernel a mixed array of angles
    assert geodesic_sample(sc, lam, [0.0, 1.0])[1].as_vector().tobytes() == \
        pt.as_vector().tobytes()
    with mpmath.workdps(50):
        v = mpmath.mpf(vn)
        x_ref, reach = [], mpmath.mpf(0)
        for c in range(sc.rank):
            s = mpmath.mpf(float(sc.s_diag[c]))
            th = s * v
            lu = mpmath.fsum(mpmath.mpf(float(sc.L[0, c, d])) * float(u[d])
                             for d in range(sc.rank))
            # f(L_v) u = sinc(theta) u + (cos theta - 1)/theta^2 |v| L_vhat u
            x_ref.append(mpmath.sin(th) / th * float(u[c])
                         + (mpmath.cos(th) - 1) / th**2 * v * lu)
            reach += s**2 * (th - mpmath.sin(th)) / th**3 * float(u[c]) ** 2
        z_ref = float(reach * v / 2)
        x_ref = np.array([float(c) for c in x_ref])
    assert np.linalg.norm(pt.x - x_ref) <= 1e-14 * np.linalg.norm(x_ref)
    assert pt.z[0] == pytest.approx(z_ref, rel=1e-14, abs=0.0)
    assert cut_time(sc, lam) == pytest.approx(2.0 * np.pi / (sc.alpha_max * vn), rel=1e-15)


def _spectral_structures():
    # seeded structures of rank 2 to 16 with 1 to 3 blocks, some with ker S,
    # on both sides of _FLOAT_ROW_RANK, and one of them with its coordinates
    # permuted, so that its blocks and ker S interleave
    rng = np.random.default_rng(2601)
    out = []
    while len(out) < 24:
        pairs = rng.integers(1, 5, rng.integers(1, 4)).tolist()
        kernel = int(rng.integers(0, 3))
        rank = kernel + 2 * sum(pairs)
        if rank > 16:
            continue
        corank = int(rng.integers(1, min(hurwitz_radon(2 * m) for m in pairs)))
        alphas = np.sort(rng.uniform(0.2, 3.0, len(pairs))).tolist()
        out.append(build_structure(GroupSpec(rank, corank, tuple(zip(alphas, pairs)), kernel)))
    sc = next(sc for sc in out if sc.kernel_indices.size and len(sc.blocks) > 1)
    perm = rng.permutation(sc.rank)
    out.append(StructureConstants(sc.S[np.ix_(perm, perm)], sc.L[:, perm][:, :, perm]))
    return out


SPECTRAL = _spectral_structures()


def _edge_covectors(sc, rng):
    # v = 0, S u = 0, |v| at and beyond R, angles at and beyond 2^64 up to
    # the float range, subnormal u and -0.0 entries
    k, p = sc.rank, sc.corank
    u = rng.standard_normal(k)
    vhat = rng.standard_normal(p)
    vhat /= np.linalg.norm(vhat)
    R, amax = sc.first_conjugate_radius, sc.alpha_max
    on_ker = np.zeros(k)
    on_ker[sc.kernel_indices] = 1.5
    out = [(u, np.zeros(p)), (u, np.full(p, -0.0)), (np.zeros(k), vhat), (on_ker, 0.7 * vhat),
           (-np.zeros(k), -np.zeros(p))]
    out += [(u, r * vhat) for r in (R * (1 - 1e-12), np.nextafter(R, 0.0), R, 2.0 * R)]
    out += [(u, r / amax * vhat) for r in (2.0**64, np.nextafter(2.0**64, 0.0),
                                           np.nextafter(2.0**64, np.inf), 1e30, 1e200, 1e307)]
    tiny = np.full(k, 5e-324)
    tiny[::2] = -1e-310
    out += [(tiny, 0.5 * R * vhat), (np.where(np.arange(k) % 2, 1.0, 3e-320), 0.3 * R * vhat)]
    signed = np.where(np.arange(k) % 3, u, -0.0)
    out.append((signed, np.where(np.arange(p) % 2, -0.0, 0.4 * R * vhat)))
    return out


def _assert_row_bits(sc, u, v):
    # exp_map, a row of geodesic_sample and the row of _exp_rows, bit for bit
    lam = Covector(u, v)
    x, z = _exp_rows(sc, lam.u[None], lam.v[None])
    want = np.concatenate((x[0], z[0])).tobytes()
    assert exp_map(sc, lam).as_vector().tobytes() == want
    assert geodesic_sample(sc, lam, [0.0, 1.0])[1].as_vector().tobytes() == want


@pytest.mark.parametrize("sc", [catalog_structure(name) for name in catalog_names()] + SPECTRAL,
                         ids=[*catalog_names(), *(f"spectral{i}" for i in range(len(SPECTRAL)))])
def test_one_covector_has_the_bits_of_its_row(sc):
    # below _FLOAT_ROW_RANK exp_map runs on Python floats, from it on on the
    # array rows; either way a single covector gets the bits of its row
    rng = np.random.default_rng([2602, sc.rank, sc.corank, len(sc.blocks)])
    R = sc.first_conjugate_radius
    for _ in range(100):
        u = rng.standard_normal(sc.rank) * 10.0 ** rng.uniform(-3, 3)
        v = rng.standard_normal(sc.corank)
        v *= rng.uniform(0.0, 3.0) * R / np.linalg.norm(v)
        _assert_row_bits(sc, u, v)
    for u, v in _edge_covectors(sc, rng):
        _assert_row_bits(sc, u, v)


def test_spectral_structures_span_the_float_row_rank():
    ranks = {sc.rank for sc in SPECTRAL}
    assert min(ranks) < _FLOAT_ROW_RANK <= max(ranks) <= 16
    assert {len(sc.blocks) for sc in SPECTRAL} == {1, 2, 3}
    assert any(sc.kernel_indices.size for sc in SPECTRAL)
    assert isinstance(SPECTRAL[-1].s_positive, np.ndarray)


@pytest.mark.parametrize("sc", [one_block(4, 3, 2.0), one_block(8, 7, 2.0)],
                         ids=["floats", "array-rows"])
@pytest.mark.parametrize("u, v, message", [
    ([1.0, 0.5], [1e308, 0.0], "the angles s_c |v| of the covector are beyond the float range"),
    ([1.0, 0.5], [1.5e308, -1.5e308], "the angles s_c |v| of the covector are beyond"),
    ([1e200, 0.5], [1.0], "point coordinates must be finite"),
    ([-1e200, 0.5], [1.0, 0.0], "point coordinates must be finite"),
], ids=["angle", "norm", "endpoint", "negative-endpoint"])
def test_overflow_raises_one_message_on_both_paths(sc, u, v, message):
    # an angle s_c |v| beyond the float range raises in the kernel, also
    # where |v| itself is beyond it, with no RuntimeWarning; an endpoint
    # beyond it is inf, which GroupPoint rejects
    u = np.resize(np.asarray(u, dtype=np.float64), sc.rank)
    v = np.resize(np.asarray(v, dtype=np.float64), sc.corank)
    lam = Covector(u, v)
    with pytest.raises(ValueError) as single:
        exp_map(sc, lam)
    with pytest.raises(ValueError) as sampled:
        geodesic_sample(sc, lam, [0.0, 1.0])
    assert str(single.value) == str(sampled.value)
    assert str(single.value).startswith(message)


def test_exp_map_makes_no_array_kernel_evaluation(group, monkeypatch):
    # one covector runs on Python floats: one kernel evaluation per
    # eigenblock, on a float
    arrays, floats = [], []

    def spy(theta, *args):
        (floats if type(theta) is float else arrays).append(theta)
        return half_angle(theta, *args)

    half_angle = geodesics._half_angle
    monkeypatch.setattr(geodesics, "_half_angle", spy)
    for u, v in seeded_covectors(group, 8, stream=27):
        floats.clear()
        exp_map(group, Covector(u, v))
        assert len(floats) == len(group.blocks)
    assert not arrays
