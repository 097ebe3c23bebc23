"""Property tests of log_map's vertical-reach equation and of exp o log.

Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from htcarnot import Covector, catalog_names, catalog_structure, exp_map, log_map
from htcarnot.geodesics import _LOG_ENDPOINT, _phi, _reach, _reach_root
from htcarnot.structure import GroupSpec, build_structure

from conftest import reach_data

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

GROUPS = [catalog_structure(name) for name in catalog_names()] + [
    build_structure(GroupSpec(rank=8, corank=7, spectrum=((1.0, 4),)))]


@st.composite
def spectra(draw):
    # corank-1 structures with up to three eigenblocks of scales 0.1 to 10
    # and up to three kernel directions; corank 1 is always realizable
    alphas = sorted(draw(st.sets(st.floats(0.1, 10.0), min_size=1, max_size=3)))
    pairs = [draw(st.integers(1, 2)) for _ in alphas]
    kernel = draw(st.integers(0, 3))
    spec = GroupSpec(rank=kernel + 2 * sum(pairs), corank=1,
                     spectrum=tuple(zip(alphas, pairs)), kernel_dim=kernel)
    return build_structure(spec)


structures = st.one_of(st.sampled_from(GROUPS), spectra())
exponents = st.floats(-6.0, 6.0)


@st.composite
def horizontal_parts(draw, sc):
    # x with one scale per eigenblock (mixed scales, a tiny top block) and
    # kernel components up to 10^6 (kernel-heavy x)
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=sc.rank,
                               max_size=sc.rank)))
    x[sc.kernel_indices] *= 10.0 ** draw(exponents)
    for block in sc.blocks:
        x[block.indices] *= 10.0 ** draw(exponents)
    top = sc.blocks[-1].indices
    if draw(st.booleans()):
        x[top] *= 1e-9
    x[top[0]] += 10.0 ** draw(exponents)  # keeps F off zero
    return x


# linear in r on (0, R) and geometric in R - r down to 10^-12 R
FRACTIONS = np.union1d(np.linspace(0.0, 1.0, 401)[1:-1],
                       1.0 - np.logspace(-1.0, -12.0, 200))


@PROPERTY
@given(data=st.data())
def test_reach_is_strictly_increasing(data):
    # F is strictly increasing on (0, R): that is injectivity of exp on the
    # domain, and it is why one evaluation of F below R decides the cut locus
    sc = data.draw(structures)
    x = data.draw(horizontal_parts(sc))
    data = reach_data(sc, x)
    reach = np.array([_reach(*data, r)[0] for r in FRACTIONS * sc.first_conjugate_radius])
    assert np.all(np.diff(reach) > 0.0)


@PROPERTY
@given(data=st.data())
def test_cut_decision_agrees_with_a_dense_evaluation(data):
    # the root solve finds a root iff F reaches |z| somewhere on 4096 radii
    # up to the last float below R, whose F it evaluates itself; with x_top
    # zeroed, F(R) is the finite reach of the lower blocks
    sc = data.draw(st.sampled_from(GROUPS)).unit_frame
    x = data.draw(horizontal_parts(sc))
    if data.draw(st.booleans()):
        x[sc.blocks[-1].indices] = 0.0
    alphas, a, b = reach_data(sc, x)
    rmax = np.nextafter(sc.first_conjugate_radius, 0.0)
    rs = np.linspace(0.0, rmax, 4097)[1:-1]
    dense = np.append((_phi(np.multiply.outer(rs, alphas))[0] * a).sum(axis=-1),
                      _reach(alphas, a, b, rmax)[0])
    # |z| anywhere on the grid, and often at its last few radii, next to R
    k = data.draw(st.one_of(st.integers(0, dense.size - 1), st.integers(-4, -1)))
    zn = dense[k] * data.draw(st.floats(0.5, 2.0))
    assume(zn > 0.0)
    assert (_reach_root(sc, x, zn) is None) == (dense.max() < zn)


@PROPERTY
@given(data=st.data())
def test_exp_log_round_trip_on_domain_closure(data):
    # |v| -> R, |S u| -> 0 and large |u|, alone and together
    sc = data.draw(st.sampled_from(GROUPS))
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=sc.rank,
                                    max_size=sc.rank)))
    u[sc.s_diag > 0.0] *= 10.0 ** data.draw(st.floats(-6.0, 0.0))
    u *= 10.0 ** data.draw(st.floats(0.0, 4.0))
    vhat = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=sc.corank,
                                       max_size=sc.corank)))
    if not np.any(sc.s_diag * u) or not np.any(vhat):
        return
    vhat /= np.max(np.abs(vhat))  # no underflow in the norm of a tiny vhat
    gap = 10.0 ** -data.draw(st.floats(0.05, 11.0))
    v = sc.first_conjugate_radius * (1.0 - gap) * vhat / np.linalg.norm(vhat)
    target = exp_map(sc, Covector(u, v))
    goal = target.as_vector()
    back = log_map(sc, target)
    residual = np.linalg.norm(exp_map(sc, back).as_vector() - goal)
    assert residual <= _LOG_ENDPOINT * max(1.0, np.linalg.norm(goal))
