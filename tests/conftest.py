import numpy as np
import pytest

from htcarnot import (
    Covector,
    GroupPoint,
    catalog_names,
    catalog_structure,
    exp_map,
    generator,
)


@pytest.fixture(scope="session")
def heis():
    return catalog_structure("heisenberg3")


@pytest.fixture(scope="session")
def quat():
    return catalog_structure("htype4x3")


@pytest.fixture(scope="session")
def contact():
    return catalog_structure("contact12")


@pytest.fixture(scope="session")
def degenerate():
    return catalog_structure("degenerate-corank1")


@pytest.fixture(scope="session", params=catalog_names())
def group(request):
    """Parametrized over the whole catalog."""
    return catalog_structure(request.param)


def seeded_covectors(sc, count, stream, vmax_frac=0.95, su_min=0.1):
    """Deterministic covectors inside the injectivity domain.

    u components uniform in [-1.5, 1.5] resampled until |S u| >= su_min,
    |v| uniform in (0, vmax_frac * 2 pi / alpha_max].
    """
    rng = generator(0xC4A07, stream=stream)
    out = []
    while len(out) < count:
        u = rng.uniform(-1.5, 1.5, size=sc.rank)
        if np.linalg.norm(sc.s_diag * u) < su_min:
            continue
        direction = rng.standard_normal(sc.corank)
        direction /= np.linalg.norm(direction)
        r = rng.uniform(0.05, vmax_frac) * sc.first_conjugate_radius
        out.append((u, r * direction))
    return out


def reach_data(sc, x):
    """The rates s_c and weights s_c^2 x_c^2 off ker S that log_map passes
    to the closed-form vertical reach _reach."""
    pos = sc.s_diag > 0.0
    return sc.s_diag[pos], (sc.s_diag[pos] * x[pos]) ** 2


def edge_log_targets():
    """Targets at the edge of the injectivity domain, as (id, group, point).

    The heisenberg3 endpoints of u = (1, 0.3) at |v| = R (1 - 10^-s) for
    s = 8, 9, 11, which log_map reaches to tolerance, and the contact12
    point (0.3, -0.2, 1e-9, 0; 5) just off the vertical axis, where its root
    solve still misses and must say so with a library error.
    """
    heis = catalog_structure("heisenberg3")
    out = []
    for s in (8, 9, 11):
        v = heis.first_conjugate_radius * (1.0 - 10.0**-s)
        pt = exp_map(heis, Covector(np.array([1.0, 0.3]), np.array([v])))
        out.append((f"heisenberg3-s{s}", "heisenberg3", pt))
    out.append(("contact12-eps1e-9", "contact12",
                GroupPoint(np.array([0.3, -0.2, 1e-9, 0.0]), np.array([5.0]))))
    return out
