"""A seeded property test of the command line over its documented domain.

Every command gets an answer or a documented error: an exit code in
{0, 1, 2, 3}, no exception out of ``cli.main``, no warning and no ``nan``.
Examples are derandomized, so every run draws the same commands.
"""

import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from htcarnot import Covector, GroupPoint, catalog_names, catalog_structure, exp_map, parse_config
from htcarnot.geodesics import _LOG_ENDPOINT, _target_exponent

from conftest import run_cli

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])


@st.composite
def spectral_configs(draw):
    # 1-2 eigenblocks of alphas 5e-324 to 1e300, a kernel of 0-2 directions
    # and corank 1-3; above corank 1 every block holds two pairs, which
    # keeps the spectrum realizable
    corank = draw(st.integers(1, 3))
    alphas = sorted(draw(st.lists(st.floats(5e-324, 1e300), min_size=1, max_size=2)))
    pairs = [draw(st.integers(1, 2)) if corank == 1 else 2 for _ in alphas]
    kernel = draw(st.integers(0, 2))
    return {"rank": 2 * sum(pairs) + kernel, "corank": corank, "kernel_dim": kernel,
            "spectrum": [{"alpha": a, "pair_multiplicity": m} for a, m in zip(alphas, pairs)]}


def coordinates(n):
    # 0, near 1, or 1e-300 to 1e300, of either sign
    magnitude = st.one_of(st.just(0.0), st.floats(0.5, 2.0), st.floats(1e-300, 1e300))
    signed = st.tuples(magnitude, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])
    return st.lists(signed, min_size=n, max_size=n)


def _csv(values):
    return ",".join(map(repr, values))


def _maps_back(sc, x, z, stdout):
    # exp of the printed covector meets the target where log_map checks it:
    # in the unit frame, with the target dilated to unit scale
    lines = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    u, v = ([float(c) for c in lines[key].split(",")] for key in ("u", "v"))
    a = sc.unit_exponent
    e = _target_exponent(GroupPoint(x, z), a)
    end = exp_map(sc.unit_frame, Covector(np.ldexp(u, -e), np.ldexp(v, a)))
    goal = np.concatenate([np.ldexp(x, -e), np.ldexp(z, -2 * e - a)])
    gap = math.hypot(*(end.as_vector() - goal).tolist())
    return gap <= _LOG_ENDPOINT * max(1.0, math.hypot(*goal.tolist()))


@PROPERTY
@given(data=st.data())
def test_every_command_answers_or_exits_with_a_documented_code(tmp_path, data):
    source = data.draw(st.one_of(st.sampled_from(catalog_names()), spectral_configs()))
    if isinstance(source, str):
        group, sc = ["--group", source], catalog_structure(source)
        rank, corank = sc.rank, sc.corank
    else:
        path = tmp_path / "group.json"
        path.write_text(json.dumps(source))
        group, sc = [str(path)], None
        rank, corank = source["rank"], source["corank"]
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    command = data.draw(st.sampled_from(["exp", "log", "mcp", "sharpness"]))
    if command == "exp":
        u, v = data.draw(coordinates(rank)), data.draw(coordinates(corank))
        extra = [f"--u={_csv(u)}", f"--v={_csv(v)}",
                 "--steps", str(data.draw(st.integers(1, 4))), "--out", str(out)]
    elif command == "log":
        x, z = data.draw(coordinates(rank)), data.draw(coordinates(corank))
        extra = [f"--x={_csv(x)}", f"--z={_csv(z)}"]
    elif command == "mcp":
        n0 = rank + 3 * corank
        K = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 100.0).map(lambda k: -k)))
        N = data.draw(st.one_of(st.floats(n0 - 1.0, n0 + 1.0),
                                st.floats(1.0, 1.001, exclude_min=True)))
        t_grid = data.draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
        extra = [f"--K={K!r}", f"--N={N!r}", "--quad", str(data.draw(st.integers(4, 6))),
                 f"--t-grid={_csv(t_grid)}",
                 "--box", data.draw(st.sampled_from(["default", "sharpness"])),
                 "--out", str(out)]
    else:
        extra = [f"--epsilon={data.draw(st.floats(0.01, 1.0))!r}", "--out", str(out)]

    # run_cli raises any exception or warning out of cli.main
    res = run_cli(command, *group, *extra)
    assert res.returncode in (0, 1, 2, 3), res.stderr
    csv = out.read_text() if out.exists() else ""
    assert "nan" not in res.stdout and "nan" not in csv
    if res.returncode != 0:
        return
    if command == "exp":
        assert csv.splitlines()[1] == ",".join(["0.0"] * (1 + rank + corank))
    if command == "log":
        sc = sc or parse_config(group[0]).realize()
        assert _maps_back(sc, x, z, res.stdout), res.stdout
