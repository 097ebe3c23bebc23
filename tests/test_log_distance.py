"""Geodesic inversion: log_map, distance, homothety."""

import math

import mpmath
import numpy as np
import pytest

from htcarnot import (
    Covector,
    CutLocusTarget,
    GroupPoint,
    HTCarnotError,
    IdentityTarget,
    catalog_names,
    catalog_structure,
    cut_time,
    distance,
    exp_map,
    geodesic_sample,
    multiply,
    homothety,
    identity,
    in_injectivity_domain,
    log_map,
)
from htcarnot import geodesics
from htcarnot.geodesics import (
    _LOG_ENDPOINT,
    _apply_f_inverse,
    _f_parts,
    _invert,
    _reach,
)
from htcarnot.structure import GroupSpec, build_structure, l_of_v

from conftest import edge_log_targets, one_block, reach_data, seeded_covectors


@pytest.fixture(scope="module", params=[*catalog_names(), "octonionic"])
def reach_group(request):
    # the four catalog groups and the rank-8, corank-7 H-type group
    if request.param == "octonionic":
        return build_structure(GroupSpec(rank=8, corank=7, spectrum=((1.0, 4),)))
    return catalog_structure(request.param)


RADIUS_FRACTIONS = (1e-3, 0.1, 0.4, 0.7, 0.95, 1 - 1e-6, 1 - 1e-11)


def test_closed_form_reach_matches_exp(reach_group):
    # F(r) is |z| of exp at (f(L_v)^-1 x, r vhat), without forming that covector
    sc = reach_group
    rng = np.random.default_rng(41)
    for _ in range(5):
        x = rng.standard_normal(sc.rank)
        vhat = rng.standard_normal(sc.corank)
        vhat /= np.linalg.norm(vhat)
        data = reach_data(sc, x)
        for frac in RADIUS_FRACTIONS:
            r = frac * sc.first_conjugate_radius
            factors = _f_parts(r * sc.s_diag[sc.s_positive])[:2]
            u = _apply_f_inverse(sc, x, r * (l_of_v(sc, vhat) @ x), *factors)
            z = exp_map(sc, Covector(u, r * vhat)).z
            assert _reach(*data, r)[0] == pytest.approx(np.linalg.norm(z), rel=1e-13)


def test_closed_form_slope_matches_central_difference(reach_group):
    sc = reach_group
    rng = np.random.default_rng(43)
    for _ in range(5):
        data = reach_data(sc, rng.standard_normal(sc.rank))
        for frac in RADIUS_FRACTIONS[:-2] + (0.999,):
            r = frac * sc.first_conjugate_radius
            h = 1e-5 * r * (1.0 - frac)
            slope = _reach(*data, r)[1]
            numeric = (_reach(*data, r + h)[0] - _reach(*data, r - h)[0]) / (2.0 * h)
            assert slope == pytest.approx(numeric, rel=1e-6)


# the absolute endpoint bound of perfbench's round-trip check
ROUNDTRIP_TOL = 1e-10


@pytest.mark.parametrize("s", range(6, 12))
def test_edge_round_trip(group, s, monkeypatch):
    # |v| = R (1 - 10^-s): F grows like 1/(R - r)^2 here, and the root lies
    # within 10^-s R of the pole.  Seeded from the pole's leading term,
    # Newton reaches it in at most 4 steps.
    calls = []

    def counted(*args):
        calls.append(args)
        return reach(*args)

    reach = geodesics._reach
    monkeypatch.setattr(geodesics, "_reach", counted)
    rng = np.random.default_rng(100 + s)
    u = rng.uniform(-1.5, 1.5, group.rank)
    vhat = rng.standard_normal(group.corank)
    lam = Covector(u, group.first_conjugate_radius * (1.0 - 10.0**-s) * vhat
                   / np.linalg.norm(vhat))
    target = exp_map(group, lam)
    goal = target.as_vector()
    back = log_map(group, target)
    # the first evaluation is the cut test, every later one a Newton step
    assert 1 <= len(calls) - 1 <= 4
    residual = np.linalg.norm(exp_map(group, back).as_vector() - goal)
    assert residual <= ROUNDTRIP_TOL


def test_log_map_makes_one_array_kernel_evaluation(group, monkeypatch):
    # the root solve, the cut test and the endpoint check run on Python
    # floats; the kernel sees an array only for the momentum
    targets = [exp_map(group, Covector(u, v)) for u, v in seeded_covectors(group, 8, stream=26)]
    arrays, floats = [], []

    def spy(theta, *args):
        (floats if type(theta) is float else arrays).append(theta)
        return half_angle(theta, *args)

    half_angle = geodesics._half_angle
    monkeypatch.setattr(geodesics, "_half_angle", spy)
    for target in targets:
        arrays.clear()
        log_map(group, target)
        assert len(arrays) <= 1
    assert floats


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
        assert float(d) == pytest.approx(np.sqrt(4.0 * np.pi * z), abs=1e-12)


def test_heisenberg_vertical_axis_distance_frozen_value(heis):
    got = distance(heis, identity(heis), GroupPoint([0.0, 0.0], [1.0])).value
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
    got = distance(sc, identity(sc), target).value
    assert got == pytest.approx(expected, abs=1e-12)
    lam, cut = _invert(sc, target)
    assert cut
    assert math.hypot(*lam.u) == got
    assert np.linalg.norm(lam.v) == pytest.approx(sc.first_conjugate_radius, rel=1e-15)
    gap = exp_map(sc, lam).as_vector() - target.as_vector()
    assert np.linalg.norm(gap) <= 1e-12


@pytest.mark.parametrize("z", [1e8, 1e9])
def test_cut_locus_endpoint_check_is_relative(contact, z):
    # the endpoint carries rounding of about 1e-16 |target|, which an
    # absolute 1e-8 check took for a miss at these heights
    target = GroupPoint([0.3, -0.2, 0.0, 0.0], [z])
    d = distance(contact, GroupPoint(np.zeros(4), np.zeros(1)), target)
    lam, cut = _invert(contact, target)
    assert cut
    assert d.value == math.hypot(*lam.u)
    gap = exp_map(contact, lam).as_vector() - target.as_vector()
    assert np.linalg.norm(gap) <= 1e-14 * z


def test_log_endpoint_check_is_relative(heis):
    # |target| is about 1e6 here, so the endpoint rounds at about 1e-10
    lam = Covector(1e6 * np.array([1.0, 0.3]), [2e-6])
    back = log_map(heis, exp_map(heis, lam))
    err = np.linalg.norm(back.as_vector() - lam.as_vector())
    assert err <= 1e-12 * np.linalg.norm(lam.as_vector())


def test_log_never_returns_a_miss_on_huge_targets(heis):
    # |target| = 1.4e155, whose square overflows: an unscaled norm made the
    # endpoint tolerance inf and let a covector that misses by 1.4e155 pass
    target = GroupPoint([1e155, 0.0], [1e155])
    try:
        with np.errstate(over="ignore"):
            lam = log_map(heis, target)
    except HTCarnotError:
        return
    gap = exp_map(heis, lam).as_vector() - target.as_vector()
    assert math.hypot(*gap) <= _LOG_ENDPOINT * math.hypot(*target.as_vector())


@pytest.mark.parametrize("name", ["heisenberg3", "contact12", "htype4x3"])
@pytest.mark.parametrize("scale", [1e-96, 1e-150])
def test_round_trip_below_unit_scale(name, scale):
    # |z| is about scale^2: a product of two reach gaps underflows to 0 and
    # hid the root bracket, and a Newton tolerance absolute below |z| = 1
    # stopped at the bracket midpoint
    sc = catalog_structure(name)
    rng = np.random.default_rng([29, sc.rank, sc.corank])
    for u in (np.eye(sc.rank)[1] * 1.31, rng.uniform(-1.0, 1.0, sc.rank)):
        u = scale * u
        vhat = rng.standard_normal(sc.corank)
        v = 0.9 * sc.first_conjugate_radius * vhat / np.linalg.norm(vhat)
        back = log_map(sc, exp_map(sc, Covector(u, v)))
        assert np.max(np.abs(back.u - u)) <= 1e-14 * np.max(np.abs(u))
        assert np.max(np.abs(back.v - v)) <= 1e-14 * np.linalg.norm(v)


def test_round_trip_with_small_angle_and_large_u(heis):
    # theta = 2e-4 with |u| = 1e4: the direct forms of the scalar helpers
    # cancel at such angles, and the digits they lose move the endpoint by
    # 2e-5, far above the log tolerance
    lam = Covector(1e4 * np.array([1.0, 0.3]), [2e-4])
    back = log_map(heis, exp_map(heis, lam))
    err = np.linalg.norm(back.as_vector() - lam.as_vector())
    assert err <= 1e-12 * np.linalg.norm(lam.as_vector())


@pytest.mark.parametrize("case", edge_log_targets(), ids=lambda case: case[0])
def test_edge_targets_reach_tolerance_or_raise_library_error(case):
    # a covector that log_map returns must meet the endpoint tolerance; a
    # miss must be a library error (exit 2 on the command line), never a
    # RuntimeError
    _, name, target = case
    sc = catalog_structure(name)
    try:
        lam = log_map(sc, target)
    except HTCarnotError:
        return
    goal = target.as_vector()
    residual = np.linalg.norm(exp_map(sc, lam).as_vector() - goal)
    assert residual <= _LOG_ENDPOINT * max(1.0, np.linalg.norm(goal))


# x_top = eps just off the vertical axis of contact12, from 1e-3 to 1e-16
NEAR_AXIS = tuple(10.0 ** -np.arange(3, 17))


@pytest.mark.parametrize("eps", NEAR_AXIS)
def test_exp_log_near_the_vertical_axis(contact, eps):
    # the root lies within about 0.56 eps of R, where one ulp of r moves F
    # by more than the endpoint tolerance (u = f(L_v)^-1 x misses by 4.7e-6
    # at eps = 1e-9).  Down to eps = 1e-14 the root lies several ulps below
    # R, and log_map must return an in-domain covector; below that it lies
    # within about an ulp of R, the target may count as cut locus, and that
    # covector must meet the tolerance
    target = GroupPoint([0.3, -0.2, eps, 0.0], [5.0])
    if eps >= 1e-14:
        lam = log_map(contact, target)
        assert in_injectivity_domain(contact, lam)
    else:
        try:
            lam = log_map(contact, target)
        except CutLocusTarget:
            lam, _ = _invert(contact, target)
    goal = target.as_vector()
    residual = np.linalg.norm(exp_map(contact, lam).as_vector() - goal)
    assert residual <= _LOG_ENDPOINT * max(1.0, np.linalg.norm(goal))


@pytest.mark.parametrize("spec, x, z", [
    (GroupSpec(rank=4, corank=1, spectrum=((1.0, 1), (2.0, 1))), [0.3, -0.2, 0.0, 0.0], 5.0),
    (GroupSpec(rank=6, corank=1, spectrum=((0.5, 1), (1.0, 1), (2.0, 1))),
     [0.3, -0.2, 0.5, 0.1, 0.0, 0.0], 3.0),
], ids=["contact12", "three-block"])
def test_distance_is_continuous_onto_the_vertical_axis(spec, x, z):
    # d(eps) - d(0) is about -eps (a concave kink at the cut locus) on both
    # sides of the last float below R, where log hands over to the
    # cut-locus formula
    sc = build_structure(spec)
    origin = GroupPoint(np.zeros(sc.rank), np.zeros(1))
    on_axis = distance(sc, origin, GroupPoint(x, [z])).value
    for eps in NEAR_AXIS:
        off = np.array(x)
        off[sc.blocks[-1].indices[0]] = eps
        d = distance(sc, origin, GroupPoint(off, [z])).value
        assert abs(d - on_axis) <= 2.0 * eps


def test_newton_takes_its_last_step(heis):
    # stopping at |F - |z|| <= 1e-12 max(1, |z|) left 1.5e-12 here
    target = GroupPoint([1.3, -0.7], [1.9])
    lam = log_map(heis, target)
    residual = np.linalg.norm(exp_map(heis, lam).as_vector() - target.as_vector())
    assert residual <= 1e-13


# (group, x, z, on the cut locus, u, v, distance) as the two inversion
# routines that _invert replaced computed them: interior targets, mixed
# scales, contact12 near its vertical axis, the cut-locus target of each
# catalog group, z = 0, |z| near 1e-100 and targets far from unit scale
PINNED_INVERSIONS = [
    ("heisenberg3", "0.5,0.1", "0.2", False, [-0.3146898032983036, -1.1243118644143315], [4.08220732213335], 1.1675216660785166),
    ("heisenberg3", "1.3,-0.7", "1.9", False, [-3.1372501720945163, -1.8551201988724606], [4.227276494495743], 3.6446960908382566),
    ("heisenberg3", "0.5,0.1", "1e-180", False, [0.5, 0.1], [4.6153846153846154e-179], 0.5099019513592785),
    ("contact12", "0.3,-0.2,0.5,0.1", "0.4", False, [-0.007725631310171556, -0.42853809236228085, -0.2598545012067076, -1.09282333200709], [2.0016392918572086], 1.202286063614275),
    ("contact12", "1,0,0,0", "0.05", False, [0.9705265100478989, -0.2964810508475168, 0.0, 0.0], [0.5929621016950336], 1.0148018132706516),
    ("contact12", "0,0,0.1,0", "1", False, [0.0, 0.0, -2.3879201338649647, -0.30159572811610297], [3.015957281161025], 2.4068906391723646),
    ("contact12", "3,0,0,0", "0.01", False, [2.999955555950612, -0.01999988148283596, 0.0, 0.0], [0.01333325432189064], 3.0000222220740755),
    ("htype4x3", "0.3,-0.2,0.5,0.1", "0.1,-0.2,0.3", False, [-0.961259546300975, 1.1039912818787347, 0.018931301371672503, -0.7256774850686492], [1.157878960861879, -2.315757921723758, 3.473636882585637], 1.6339470224968107),
    ("degenerate-corank1", "0.3,-0.7,0.5,0.2", "0.2", False, [0.3, -0.7, -0.0259162924536465, -1.1551326501267585], [3.9474694246389657], 1.3838363680737007),
    ("contact12", "0.3,-0.2,1e-3,0", "5", False, [-0.3139702073360223, -0.47124287070569987, -5.575313257402265, -0.003141029271983236], [3.141029271983299], 5.603996334627274),
    ("contact12", "0.3,-0.2,1e-9,0", "5", False, [-0.3141592651698973, -0.4712388980424575, -5.576303827969291, -3.1415911673031262e-09], [3.141592653026411], 5.604991215403047),
    ("contact12", "0.3,-0.2,1e-12,0", "5", False, [-0.3141592653587903, -0.47123889803847296, -5.576303828957987, -3.140728126373955e-12], [3.14159265358923], 5.604991216396935),
    ("contact12", "0.3,-0.2,1e-16,0", "5", True, [-0.31415926535897937, -0.47123889803846897, 5.576303828958975, 0.0], [3.141592653589793], 5.604991216397928),
    ("heisenberg3", "0,0", "1", True, [3.5449077018110318, 0.0], [6.283185307179586], 3.5449077018110318),
    ("contact12", "0,0,0,0", "1.3", True, [0.0, 0.0, 2.8579959585929195, 0.0], [3.141592653589793], 2.8579959585929195),
    ("contact12", "0.3,-0.2,0,0", "1.5", True, [-0.31415926535897937, -0.47123889803846897, 3.017286167690094, 0.0], [3.141592653589793], 3.0699801238394655),
    ("htype4x3", "0,0,0,0", "0.3,0.4,-0.5", True, [2.9809001788581804, 0.0, 0.0, 0.0], [2.6657297628950194, 3.554306350526693, -4.442882938158366], 2.9809001788581804),
    ("degenerate-corank1", "0.3,-0.7,0,0", "0.2", True, [0.3, -0.7, 1.5853309190424043, 0.0], [6.283185307179586], 1.7587706282718716),
    ("heisenberg3", "1,0", "0", False, [1.0, 0.0], [0.0], 1.0),
    ("htype4x3", "0.3,0.1,0,0", "0,0,0", False, [0.3, 0.1, 0.0, 0.0], [0.0, 0.0, 0.0], 0.31622776601683794),
    ("heisenberg3", "0,0", "1e-100", True, [3.544907701811032e-50, 0.0], [6.283185307179586], 3.544907701811032e-50),
    ("heisenberg3", "1e-50,0", "1e-100", False, [-1.552959421187537e-50, -2.188036206506444e-50], [4.376072413012888], 2.6831297778598483e-50),
    ("contact12", "0.3,-0.2,1e-50,0", "1e-100", False, [0.3, -0.2, 1e-50, -9.230769230769232e-149], [9.230769230769232e-99], 0.3605551275463989),
    ("heisenberg3", "0,0", "1e-200", True, [3.544907701811032e-100, 0.0], [6.283185307179586], 3.544907701811032e-100),
    ("heisenberg3", "1e-200,0", "1e-200", True, [3.544907701811032e-100, 0.0], [6.283185307179586], 3.544907701811032e-100),
    ("heisenberg3", "1e160,0", "1e300", False, [1e+160, -6.000000000000001e+140], [1.2e-19], 1e+160),
    ("heisenberg3", "1,0", "1e308", True, [3.5449077018110323e+154, 0.0], [6.283185307179586], 3.5449077018110323e+154),
    ("heisenberg3", "1e155,0", "1e155", False, [1e+155, -6.000000000000002], [1.2000000000000003e-154], 1e+155),
]


def test_root_near_zero_is_correctly_rounded(heis):
    # at |z| = 1e-180 the root r lies so near 0 that F(r) = |x|^2 r / 12 to
    # a relative 1e-357 (alpha = 1), so the root is 12 |z| / |x|^2, and v,
    # which is r here, must be that quotient of the inputs correctly rounded
    target = GroupPoint([0.5, 0.1], [1e-180])
    v = log_map(heis, target).v[0]
    with mpmath.workdps(50):
        x0, x1, zn = (mpmath.mpf(c) for c in (0.5, 0.1, 1e-180))
        root = 12 * zn / (x0 * x0 + x1 * x1)
        assert abs(mpmath.mpf(v) - root) <= 0.5 * math.ulp(v)


@pytest.mark.parametrize("name, x, z, cut, u, v, dist", PINNED_INVERSIONS)
def test_inversion_keeps_its_bits(name, x, z, cut, u, v, dist):
    sc = catalog_structure(name)
    target = GroupPoint([float(c) for c in x.split(",")], [float(c) for c in z.split(",")])
    lam, on_cut_locus = _invert(sc, target)
    assert on_cut_locus == cut
    assert lam.u.tolist() == u and lam.v.tolist() == v
    origin = GroupPoint(np.zeros(sc.rank), np.zeros(sc.corank))
    assert distance(sc, origin, target).value == dist
    if cut:
        with pytest.raises(CutLocusTarget):
            log_map(sc, target)
    else:
        assert np.array_equal(log_map(sc, target).as_vector(), lam.as_vector())


def test_distance_from_a_point_to_itself_is_zero(group):
    for u, v in seeded_covectors(group, 5, stream=25):
        p = exp_map(group, Covector(u, v))
        assert distance(group, p, p).value == 0.0


@pytest.mark.parametrize("shape", [(2, 1), (4, 3)])
@pytest.mark.parametrize("j", [-600, 600])
def test_maps_are_invariant_under_scaling_alpha_against_v(shape, j):
    # (x, z) -> (x, 2^j z) maps the group of alpha = 1 onto the group of
    # alpha = 2^j, and covectors as (u, v) -> (u, 2^-j v): exp, log and the
    # distance there are the alpha = 1 results, bit for bit.  log raised
    # ZeroDivisionError or OverflowError from alpha^2 before it ran in the
    # structure's unit frame.
    unit, far = one_block(*shape, 1.0), one_block(*shape, 2.0**j)

    def image(p):
        return GroupPoint(p.x, np.ldexp(p.z, j))

    origin = GroupPoint(np.zeros(unit.rank), np.zeros(unit.corank))
    base = GroupPoint(np.linspace(-0.4, 0.3, unit.rank), np.linspace(0.2, -0.1, unit.corank))
    cut_target = GroupPoint(np.zeros(unit.rank), np.eye(unit.corank)[0])
    targets = [cut_target]
    for u, v in seeded_covectors(unit, 6, stream=22):
        target = exp_map(unit, Covector(u, v))
        got = exp_map(far, Covector(u, np.ldexp(v, -j)))
        assert got.x.tolist() == target.x.tolist()
        assert got.z.tolist() == np.ldexp(target.z, j).tolist()
        lam, far_lam = log_map(unit, target), log_map(far, image(target))
        assert far_lam.u.tolist() == lam.u.tolist()
        assert far_lam.v.tolist() == np.ldexp(lam.v, -j).tolist()
        targets.append(target)
    for target in targets:
        for p in (origin, base):
            want = distance(unit, p, target).value
            assert distance(far, image(p), image(target)).value == want


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


@pytest.mark.parametrize("z", [1e-20, 1e-100, 1e-180, 1e-300])
def test_log_keeps_vertical_scale_far_below_x_squared(heis, z):
    # the root r ~ 12 |z| / |x|^2 lies far below the bracket, where Newton's
    # step r - (F - |z|)/F' cancels to 0; the secant from F(0) = 0 reaches it
    # (it ended near r = 1e-46 by bisection, with exp's z off by 1e132 |z| at
    # z = 1e-180)
    x = np.array([0.5, 0.1])
    lam = log_map(heis, GroupPoint(x, [z]))
    assert lam.v[0] == pytest.approx(12.0 * z / (x @ x), rel=1e-12)
    back = exp_map(heis, lam)
    assert abs(back.z[0] - z) <= 1e-14 * z
    assert np.array_equal(lam.u, x)


def _dilate(p, e):
    return GroupPoint(np.ldexp(p.x, e), np.ldexp(p.z, 2 * e))


@pytest.mark.parametrize("e", [-450, 450, 511])
def test_exp_and_log_are_dilation_equivariant_out_of_range(group, e):
    # exp(2^e u, v) = delta_{2^e} exp(u, v) and log(delta_{2^e} p) = (2^e u, v),
    # bit for bit, outside the band where nothing is dilated; at e = 511,
    # |2^e u|^2 overflows for |u| > 2 (small v keeps z in range)
    for u, v in seeded_covectors(group, 5, stream=21):
        lam = Covector(u, 1e-3 * v)
        far = Covector(np.ldexp(u, e), lam.v)
        assert np.array_equal(exp_map(group, far).as_vector(),
                              _dilate(exp_map(group, lam), e).as_vector())
        back = log_map(group, _dilate(exp_map(group, lam), e))
        unit = log_map(group, exp_map(group, lam))
        assert np.array_equal(back.u, np.ldexp(unit.u, e))
        assert np.array_equal(back.v, unit.v)
    pts = geodesic_sample(group, far, [0.0, 0.5, 1.0])
    assert np.array_equal(pts[-1].as_vector(), exp_map(group, far).as_vector())


@pytest.mark.parametrize("e", [-505, 505])
def test_cut_locus_distance_at_extreme_scale(contact, e):
    # d(delta_eps p) = eps d(p) on the cut locus too
    target = GroupPoint([0.3, -0.2, 0.0, 0.0], [1.5])
    origin = identity(contact)
    assert distance(contact, origin, _dilate(target, e)).value == math.ldexp(
        distance(contact, origin, target).value, e)


def test_length_beyond_float_range_is_a_value_error(heis):
    # the covector (u, v) is representable but |u| is not; log_map and
    # distance refuse it alike instead of returning inf
    target = GroupPoint([1.7e308, 1e308], [1e300])
    with pytest.raises(ValueError, match="beyond the float range"):
        log_map(heis, target)
    with pytest.raises(ValueError, match="beyond the float range"):
        distance(heis, GroupPoint([0.0, 0.0], [0.0]), target)
