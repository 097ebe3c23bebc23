"""Property tests of log_map's vertical-reach equation and of exp o log.

Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from htcarnot import Covector, catalog_names, catalog_structure, exp_map, log_map
from htcarnot.geodesics import _LOG_ENDPOINT, _reach
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
    # domain, and it is why the scan can find at most one root bracket
    sc = data.draw(structures)
    x = data.draw(horizontal_parts(sc))
    s, q = reach_data(sc, x)
    reach = np.array([_reach(s, q, r) for r in FRACTIONS * sc.first_conjugate_radius])
    assert np.all(np.diff(reach) > 0.0)


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
