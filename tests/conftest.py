import contextlib
import io
import itertools
import math
import os
import subprocess
import warnings

import numpy as np
import pytest

from htcarnot import (
    Covector,
    GroupPoint,
    catalog_names,
    catalog_structure,
    cli,
    exp_map,
    generator,
)
from htcarnot.geodesics import _block_weights
from htcarnot.quadrature import mapped_rule
from htcarnot.structure import GroupSpec, build_structure


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


def run_cli(*argv, cwd=None):
    """`htcarnot *argv` run in process through ``cli.main``, in ``cwd`` if
    given, as a CompletedProcess with its exit code, stdout and stderr.

    A SystemExit (argparse's usage errors and --version) gives its code.
    Every other exception propagates, and every warning is raised as an
    error: where a fresh interpreter would print a traceback or a warning
    on stderr, the test fails instead.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    home = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(home)
    return subprocess.CompletedProcess(list(argv), code, stdout.getvalue(), stderr.getvalue())


def full_grid(lower, upper, quad):
    """Every node and weight of the tensor Gauss-Legendre rule on the box
    [lower, upper], row-major, node by node."""
    rules = [list(zip(*mapped_rule(lo, hi, quad))) for lo, hi in zip(lower, upper)]
    nodes = list(itertools.product(*rules))
    pts = np.array([[x for x, _ in node] for node in nodes])
    wts = np.array([math.prod(w for _, w in node) for node in nodes])
    return pts, wts


def matrix_series(coeff, A, terms=64):
    """sum_m coeff(m) A^m, summed until float convergence."""
    n = A.shape[0]
    out = coeff(0) * np.eye(n)
    power = np.eye(n)
    for m in range(1, terms):
        power = power @ A
        c = coeff(m)
        if c != 0.0:
            out += c * power
    return out


def oracle_exp_neg(A):
    """e^-A as its matrix series."""
    return matrix_series(lambda m: (-1.0) ** m / math.factorial(m), A)


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


def one_block(rank, corank, alpha):
    """The one-block H-type group of the given shape, all eigenvalues alpha."""
    return build_structure(GroupSpec(rank=rank, corank=corank,
                                     spectrum=((alpha, rank // 2),)))


def reach_data(sc, x):
    """The per-block rates alpha_j and weights a_j = alpha_j |x_j|^2 and
    b_j = alpha_j a_j that log_map passes to the closed-form vertical reach
    _reach, in increasing alpha."""
    return _block_weights(sc, x)


def edge_log_targets():
    """Targets at the edge of the injectivity domain, as (id, group, point).

    The heisenberg3 endpoints of u = (1, 0.3) at |v| = R (1 - 10^-s) for
    s = 8, 9, 11, and the contact12 point (0.3, -0.2, 1e-9, 0; 5) just off
    the vertical axis, where one ulp of the root moves |z| by about 4e-6.
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
