"""Configuration parsing and the command line front end."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import htcarnot.errors
from htcarnot import (
    ConfigError,
    Covector,
    GroupPoint,
    SpecNotRealizable,
    cli,
    exp_map,
    parse_config,
)
from htcarnot.geodesics import _LOG_ENDPOINT

from conftest import edge_log_targets


def write_config(tmp_path, payload, name="group.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


SPECTRAL = {
    "rank": 4, "corank": 1,
    "spectrum": [{"alpha": 1.0, "pair_multiplicity": 1},
                 {"alpha": 2.0, "pair_multiplicity": 1}],
    "kernel_dim": 0,
}

EXPLICIT = {
    "S_diagonal": [1.0, 1.0],
    "L_matrices": [[[0.0, 1.0], [-1.0, 0.0]]],
}


# --- parsing -----------------------------------------------------------------

def test_spectral_config_round_trip(tmp_path):
    cfg = parse_config(write_config(tmp_path, SPECTRAL))
    assert cfg.is_spectral
    assert cfg.spec.rank == 4 and cfg.spec.corank == 1
    assert cfg.spec.spectrum == ((1.0, 1), (2.0, 1))
    sc = cfg.realize()
    assert sc.dim == 5


def test_explicit_config_round_trip(tmp_path):
    cfg = parse_config(write_config(tmp_path, EXPLICIT))
    assert not cfg.is_spectral
    sc = cfg.realize()
    assert sc.rank == 2 and sc.corank == 1


def test_seed_and_tolerance_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, SPECTRAL))
    assert cfg.seed == 0xC4A07
    assert cfg.tolerance == 1e-12
    cfg2 = parse_config(write_config(
        tmp_path, {**SPECTRAL, "seed": 7, "tolerance": 1e-9}, "b.json"))
    assert cfg2.seed == 7 and cfg2.tolerance == 1e-9


def test_equal_alphas_merge_into_one_block(tmp_path):
    payload = {
        "rank": 4, "corank": 1,
        "spectrum": [{"alpha": 1.0, "pair_multiplicity": 1},
                     {"alpha": 1.0, "pair_multiplicity": 1}],
        "kernel_dim": 0,
    }
    cfg = parse_config(write_config(tmp_path, payload))
    assert cfg.spec.spectrum == ((1.0, 2),)


def test_decreasing_alphas_rejected(tmp_path):
    payload = {
        "rank": 4, "corank": 1,
        "spectrum": [{"alpha": 2.0, "pair_multiplicity": 1},
                     {"alpha": 1.0, "pair_multiplicity": 1}],
        "kernel_dim": 0,
    }
    with pytest.raises(ConfigError, match="increasing"):
        parse_config(write_config(tmp_path, payload))


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("kernel_dim"), "missing"),
    (lambda d: d.update(rank=5), "does not equal"),
    (lambda d: d.update(extra=1), "unknown"),
    (lambda d: d.update(spectrum=[]), "non-empty"),
    (lambda d: d.update(spectrum=[{"alpha": -1.0, "pair_multiplicity": 1}]),
     "positive real"),
    (lambda d: d.update(spectrum=[{"alpha": 1.0, "pair_multiplicity": 0}]),
     "positive integer"),
    (lambda d: d.update(seed=-3), ">= 0"),
    (lambda d: d.update(tolerance=2.0), "tolerance"),
    (lambda d: d.update(S_diagonal=[1.0]), "exactly one"),
])
def test_spectral_schema_errors(tmp_path, mutate, fragment):
    payload = {k: (list(v) if isinstance(v, list) else v)
               for k, v in SPECTRAL.items()}
    payload["spectrum"] = [dict(e) for e in SPECTRAL["spectrum"]]
    mutate(payload)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(write_config(tmp_path, payload))


@pytest.mark.parametrize("payload", [
    {**SPECTRAL, "spectrum": [{"alpha": 10**400, "pair_multiplicity": 2}]},
    {**SPECTRAL, "tolerance": 10**400},
    {**EXPLICIT, "S_diagonal": [10**400, 10**400]},
    {**EXPLICIT, "L_matrices": [[[0, 10**400], [-(10**400), 0]]]},
], ids=["alpha", "tolerance", "S_diagonal", "L_matrices"])
def test_integers_beyond_float_range_are_schema_errors(tmp_path, payload):
    # float() of such a JSON integer raised OverflowError, a traceback
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, payload))


def test_explicit_schema_errors(tmp_path):
    ragged = {"S_diagonal": [1.0, 1.0],
              "L_matrices": [[[0.0, 1.0], [-1.0]]]}
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, ragged))
    wrong_shape = {"S_diagonal": [1.0, 1.0],
                   "L_matrices": [[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]]}
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, wrong_shape, "c.json"))


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(path)
    arr = tmp_path / "array.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        parse_config(arr)


def test_unrealizable_spec_raises_on_realize(tmp_path):
    # corank 2 needs rho(2) - 1 >= 2; a single pair only admits corank 1
    payload = {"rank": 2, "corank": 2,
               "spectrum": [{"alpha": 1.0, "pair_multiplicity": 1}],
               "kernel_dim": 0}
    cfg = parse_config(write_config(tmp_path, payload))
    with pytest.raises(SpecNotRealizable, match="Hurwitz-Radon"):
        cfg.realize()


# --- command line ------------------------------------------------------------

def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "htcarnot.cli", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


def test_validate_catalog_group_exits_zero():
    res = run_cli("validate", "--group", "heisenberg3")
    assert res.returncode == 0
    assert "group valid" in res.stdout


def test_validate_explicit_config_runs_matrix_checks(tmp_path):
    path = write_config(tmp_path, EXPLICIT)
    res = run_cli("validate", str(path))
    assert res.returncode == 0
    assert "PASS" in res.stdout
    assert "structure valid" in res.stdout


def test_validate_unrealizable_spec_exits_one(tmp_path):
    payload = {"rank": 2, "corank": 2,
               "spectrum": [{"alpha": 1.0, "pair_multiplicity": 1}],
               "kernel_dim": 0}
    res = run_cli("validate", str(write_config(tmp_path, payload)))
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_unrealizable_spec_exits_one_outside_validate(tmp_path):
    payload = {"rank": 2, "corank": 2,
               "spectrum": [{"alpha": 1.0, "pair_multiplicity": 1}],
               "kernel_dim": 0}
    res = run_cli("exp", str(write_config(tmp_path, payload)),
                  "--u", "1,0", "--v", "0,0")
    assert res.returncode == 1
    assert res.stderr.startswith("validation failure: Hurwitz-Radon bound violated")


def test_validate_broken_matrices_exits_one(tmp_path):
    bad = {"S_diagonal": [1.0, 1.0],
           "L_matrices": [[[0.0, 1.0], [1.0, 0.0]]]}  # symmetric, not skew
    res = run_cli("validate", str(write_config(tmp_path, bad)))
    assert res.returncode == 1


def test_usage_errors_exit_three(tmp_path):
    assert run_cli("validate").returncode == 3            # no group source
    assert run_cli("nonsense").returncode == 3            # unknown command
    assert run_cli("exp", "--group", "heisenberg3",
                   "--u", "1,0", "--v", "0,0,0").returncode == 3  # bad shape
    assert run_cli("validate", "--group", "heisenberg3",
                   str(write_config(tmp_path, SPECTRAL))).returncode == 3
    missing = run_cli("validate", str(tmp_path / "absent.json"))
    assert missing.returncode == 3


@pytest.mark.parametrize("where", ["under-a-file", "a-directory", "missing"])
def test_unreadable_config_exits_three(tmp_path, where):
    plain = write_config(tmp_path, SPECTRAL, name="cfg.json")
    path = {"under-a-file": plain / "x.json", "a-directory": tmp_path,
            "missing": tmp_path / "absent.json"}[where]
    res = run_cli("validate", str(path))
    assert res.returncode == 3
    assert res.stderr.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in res.stderr


def test_config_permission_error_exits_three(tmp_path, monkeypatch, capsys):
    # a real refusal cannot be set up where tests run as root
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(pathlib.Path, "read_text", refuse)
    path = write_config(tmp_path, SPECTRAL)
    assert cli.main(["validate", str(path)]) == 3
    assert capsys.readouterr().err == f"error: cannot read {path}: Permission denied\n"


def test_closed_stdout_exits_three_without_traceback():
    # the reader takes one line and closes the pipe while the CSV is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "htcarnot.cli", "exp", "--group", "heisenberg3",
         "--u", "1,0", "--v", "1", "--steps", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"t,x1,x2,z1\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 3
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_exp_csv_output(tmp_path):
    out = tmp_path / "arc.csv"
    res = run_cli("exp", "--group", "heisenberg3", "--u", "1,0", "--v", "6.283185307179586",
                  "--steps", "4", "--out", str(out))
    assert res.returncode == 0
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == "t,x1,x2,z1"
    assert len(lines) == 7 and lines[-1] == ""
    assert "\r" not in text
    # full turn of the horizontal circle: endpoint back on the vertical axis
    last = [float(s) for s in lines[5].split(",")]
    assert last[0] == 1.0
    assert abs(last[1]) < 1e-12 and abs(last[2]) < 1e-12
    assert last[3] == pytest.approx(1.0 / (4.0 * np.pi), rel=1e-12)
    assert "cut time: 1.0" in res.stdout


EXP_ARGS = ["exp", "--group", "heisenberg3", "--u=-1,0.5", "--v=-0.3", "--steps", "4"]


def _exp_bytes(tmp_path):
    fresh = tmp_path / "fresh.csv"
    assert cli.main([*EXP_ARGS, "--quiet", "--out", str(fresh)]) == 0
    return fresh.read_bytes()


def test_out_overwrites_longer_file_in_place(tmp_path):
    out = tmp_path / "arc.csv"
    out.write_bytes(b"stale,row\n" * 1000)
    out.chmod(0o640)
    inode = out.stat().st_ino
    assert cli.main([*EXP_ARGS, "--quiet", "--out", str(out)]) == 0
    assert out.read_bytes() == _exp_bytes(tmp_path)
    assert out.stat().st_ino == inode
    assert out.stat().st_mode & 0o777 == 0o640


def test_out_rewrite_gives_identical_bytes(tmp_path):
    out = tmp_path / "arc.csv"
    assert cli.main([*EXP_ARGS, "--quiet", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert cli.main([*EXP_ARGS, "--quiet", "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert first.split(b"\n")[1] == b"0.0,0.0,0.0,0.0"  # t = 0 row, no -0.0


def test_out_through_symlink_updates_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert cli.main([*EXP_ARGS, "--quiet", "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == _exp_bytes(tmp_path)


def test_out_devnull_exits_zero():
    assert run_cli(*EXP_ARGS, "--out", os.devnull).returncode == 0


@pytest.mark.parametrize("where", ["under-a-file", "a-directory", "missing-parent"])
def test_unwritable_out_exits_three(tmp_path, where):
    blocker = tmp_path / "plain.csv"
    blocker.write_bytes(b"keep\n")
    out = {"under-a-file": blocker / "x.csv", "a-directory": tmp_path,
           "missing-parent": tmp_path / "absent" / "x.csv"}[where]
    res = run_cli(*EXP_ARGS, "--out", str(out))
    assert res.returncode == 3
    assert res.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in res.stderr
    assert blocker.read_bytes() == b"keep\n"


def test_out_permission_error_exits_three(tmp_path, monkeypatch, capsys):
    # a real refusal cannot be set up where tests run as root, so os.open refuses
    def refuse(*args):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(cli.os, "open", refuse)
    out = tmp_path / "arc.csv"
    assert cli.main([*EXP_ARGS, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: cannot write {out}: Permission denied\n"


def test_exp_rejects_zero_covector():
    res = run_cli("exp", "--group", "heisenberg3", "--u", "0,0", "--v", "0")
    assert res.returncode == 3


def test_log_round_trip_stdout():
    res = run_cli("log", "--group", "heisenberg3",
                  "--x", "0.5,0.1", "--z", "0.2")
    assert res.returncode == 0
    u_line = next(l for l in res.stdout.splitlines() if l.startswith("u = "))
    v_line = next(l for l in res.stdout.splitlines() if l.startswith("v = "))
    u = [float(s) for s in u_line[4:].split(",")]
    v = [float(s) for s in v_line[4:].split(",")]
    check = run_cli("exp", "--group", "heisenberg3",
                    "--u=" + ",".join(map(repr, u)),
                    "--v=" + ",".join(map(repr, v)),
                    "--steps", "1", "--quiet")
    assert check.returncode == 0


def test_log_cut_locus_exits_two():
    res = run_cli("log", "--group", "heisenberg3", "--x", "0,0", "--z", "1")
    assert res.returncode == 2
    assert res.stdout == (
        "cut locus target: no covector in the injectivity domain reaches this point\n"
        f"distance upper bound: {float(np.sqrt(4.0 * np.pi))!r}\n"
    )


@pytest.mark.parametrize("x", ["0,0", "1e-200,0"], ids=["axis", "off-axis"])
def test_log_tiny_targets_keep_their_scale(x):
    # |z| = 1e-200 squares to 0 in an unscaled norm, which takes the first
    # target for the identity (exit 3) and the second for a straight line at
    # distance 0.0; x_1^2 underflows too, so both lie on the cut locus
    res = run_cli("log", "--group", "heisenberg3", "--x", x, "--z", "1e-200")
    assert res.returncode == 2
    assert res.stdout == (
        "cut locus target: no covector in the injectivity domain reaches this point\n"
        "distance upper bound: 3.544907701811032e-100\n"
    )


@pytest.mark.parametrize("case", edge_log_targets(), ids=lambda case: case[0])
def test_log_edge_targets_exit_zero_or_two(case):
    _, name, target = case
    res = run_cli("log", "--group", name,
                  "--x=" + ",".join(repr(float(c)) for c in target.x),
                  "--z=" + ",".join(repr(float(c)) for c in target.z))
    assert res.returncode in (0, 2)
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command, flag, value", [
    ("exp", "--u", "nan,0"), ("exp", "--u", "inf,0"),
    ("exp", "--v", "nan"), ("exp", "--v", "-inf"),
    ("log", "--x", "nan,0"), ("log", "--x", "0,inf"),
    ("log", "--z", "nan"), ("log", "--z", "inf"),
])
def test_non_finite_inputs_exit_three(tmp_path, command, flag, value):
    args = {"exp": {"--u": "1,0", "--v": "1"}, "log": {"--x": "0.5,0", "--z": "1"}}[command]
    args[flag] = value
    out = tmp_path / "arc.csv"
    argv = [command, "--group", "heisenberg3"]
    argv += [f"{k}={v}" for k, v in args.items()]
    if command == "exp":
        argv += ["--out", str(out)]
    res = run_cli(*argv)
    assert res.returncode == 3
    assert "finite" in res.stderr
    assert not out.exists()


# stderr prefix that main prints for each non-zero exit code (README, "Exit codes")
STDERR_PREFIX = {1: "validation failure: ", 2: "property failure: ", 3: "error: "}
TINY_BOX = "--box=1e-200,1e-200,0.5;2e-200,2e-200,0.6"
# (x, z, exit code): each is a dilation of an ordinary target
EXTREME_LOG_TARGETS = [("1e160,0", "1e300", 0), ("1,0", "1e308", 2), ("1e155,0", "1e155", 0)]


def _alpha_config(tmp_path, alpha):
    # json.dumps writes inf, -inf and nan as Infinity, -Infinity and NaN,
    # which json.loads reads back
    return write_config(tmp_path, {
        "rank": 2, "corank": 1, "kernel_dim": 0,
        "spectrum": [{"alpha": alpha, "pair_multiplicity": 1}],
    })


@pytest.mark.parametrize("argv, code", [
    *[pytest.param([command, f"alpha={alpha}"] + (["--t-grid", "0.5"] if command == "mcp" else []),
                   3, id=f"alpha-{alpha}-{command}")
      for alpha in ("inf", "-inf", "nan") for command in ("validate", "mcp")],
    pytest.param(["validate", "explicit", "--seed", "-3"], 3, id="seed-negative"),
    pytest.param(["validate", "explicit", "--seed", str(2**64)], 3, id="seed-2**64"),
    pytest.param(["exp", "--group", "heisenberg3", "--u", "1,0,0", "--v", "1"], 3,
                 id="exp-u-count"),
    pytest.param(["log", "--group", "heisenberg3", "--x", "1,0,0", "--z", "1"], 3,
                 id="log-x-count"),
    pytest.param(["mcp", "--group", "heisenberg3", "--box=1,1,1,1;2,2,2,2", "--t-grid", "0.5"],
                 3, id="mcp-box-count"),
    pytest.param(["mcp", "--group", "heisenberg3", "--box=a,b;1,2,3", "--t-grid", "0.5"],
                 3, id="mcp-box-syntax"),
    *[pytest.param(["mcp", "--group", "heisenberg3", TINY_BOX, "--t-grid", "0.5", f"--K={K}"],
                   0, id=f"mcp-tiny-u-box-K{K}") for K in ("0", "-1")],
    *[pytest.param(["log", "--group", "heisenberg3", f"--x={x}", f"--z={z}"], code,
                   id=f"log-extreme-{x}-{z}") for x, z, code in EXTREME_LOG_TARGETS],
    # the covector is representable but its length |u| is not
    pytest.param(["log", "--group", "heisenberg3", "--x=1.7e308,1e308", "--z=1e300"], 3,
                 id="log-length-overflow"),
])
def test_bad_and_extreme_inputs_exit_codes(tmp_path, argv, code):
    # each check runs once, in the layer that owns it; no input gives a
    # traceback or a numpy warning
    def resolve(arg):
        if arg == "explicit":
            return str(write_config(tmp_path, EXPLICIT))
        if arg.startswith("alpha="):
            return str(_alpha_config(tmp_path, float(arg[6:])))
        return arg
    res = run_cli(*map(resolve, argv))
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr
    if res.returncode == 0 or res.stdout.startswith("cut locus target"):
        assert res.stderr == ""
    else:
        assert res.stderr.startswith(STDERR_PREFIX[res.returncode]), res.stderr


@pytest.mark.parametrize("x, z, want", EXTREME_LOG_TARGETS)
def test_log_at_extreme_scale_meets_its_target(heis, x, z, want, capsys):
    # each target is a dilation of an ordinary one; exp of the printed
    # covector must meet it at its own scale
    code = cli.main(["log", "--group", "heisenberg3", f"--x={x}", f"--z={z}"])
    out = capsys.readouterr().out
    target = GroupPoint([float(c) for c in x.split(",")], [float(z)])
    lines = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    assert code == want
    if code == 2:
        bound = float(out.split("distance upper bound: ")[1])
        # x lies on the top block, 1e-154 of the scale of z: sqrt(4 pi |z|)
        assert bound == pytest.approx(math.sqrt(4.0 * math.pi) * math.sqrt(float(z)), rel=1e-15)
        return
    lam = Covector([float(c) for c in lines["u"].split(",")],
                   [float(c) for c in lines["v"].split(",")])
    gap = exp_map(heis, lam).as_vector() - target.as_vector()
    assert math.hypot(*gap) <= _LOG_ENDPOINT * math.hypot(*target.as_vector())
    assert float(lines["distance"]) == math.hypot(*lam.u)


# documented exit code of every library error raised inside a subcommand
EXIT_CODES = {
    htcarnot.errors.HTCarnotError: 3,
    htcarnot.errors.DimensionMismatch: 3,
    htcarnot.errors.SpecNotRealizable: 1,
    htcarnot.errors.StructureInvalid: 1,
    htcarnot.errors.OutOfDomain: 3,
    htcarnot.errors.ZeroCovector: 3,
    htcarnot.errors.IdentityTarget: 3,
    htcarnot.errors.CutLocusTarget: 2,
    htcarnot.errors.NoCandidateFound: 2,
    htcarnot.errors.WitnessNotFound: 2,
    htcarnot.errors.BoxOutsideDomain: 3,
    htcarnot.errors.UnsupportedPositiveK: 3,
    htcarnot.errors.ConfigError: 3,
}


def test_every_library_error_maps_to_its_exit_code(monkeypatch, capsys):
    classes = {htcarnot.errors.HTCarnotError,
               *htcarnot.errors.HTCarnotError.__subclasses__()}
    assert classes == set(EXIT_CODES)
    for cls, code in EXIT_CODES.items():
        def raise_it(args, cls=cls):
            raise cls("boom")
        monkeypatch.setitem(cli._COMMANDS, "validate", raise_it)
        assert cli.main(["validate", "--group", "heisenberg3"]) == code, cls.__name__
        assert "boom" in capsys.readouterr().err


def test_import_leaves_scipy_unloaded():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, htcarnot; assert 'scipy' not in sys.modules, sorted(sys.modules)"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr


def test_import_leaves_numpy_random_unloaded():
    # the seeded streams load numpy.random on first use, not at import
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, htcarnot; assert 'numpy.random' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr


def test_import_leaves_numpy_polynomial_unloaded():
    # the Chebyshev basis is built with plain numpy on first use; the
    # Gauss-Legendre rule loads numpy.polynomial on the first quadrature
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, htcarnot; assert 'numpy.polynomial' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr


def test_import_leaves_thread_pools_unloaded():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, htcarnot; assert 'concurrent.futures' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr


def test_mcp_pass_and_csv(tmp_path):
    out = tmp_path / "mcp.csv"
    res = run_cli("mcp", "--group", "heisenberg3", "--t-grid", "0.25,0.5,0.75",
                  "--out", str(out))
    assert res.returncode == 0
    assert "holds at all 3 grid times" in res.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "t,ratio,bound,margin,verdict"
    cells = lines[2].split(",")
    assert float(cells[0]) == 0.5
    assert float(cells[2]) == 0.5**5
    assert cells[4] == "pass"


def test_mcp_failure_exits_two():
    res = run_cli("mcp", "--group", "heisenberg3", "--N", "4.5",
                  "--box", "sharpness", "--t-grid", "0.3,0.6")
    assert res.returncode == 2
    assert "FAILED" in res.stdout


def test_mcp_rejects_positive_curvature():
    res = run_cli("mcp", "--group", "heisenberg3", "--K", "1.0",
                  "--t-grid", "0.5")
    assert res.returncode == 3


def test_mcp_underflowing_bound_passes(tmp_path):
    out = tmp_path / "mcp.csv"
    res = run_cli("mcp", "--group", "heisenberg3", "--K=-1e308", "--t-grid", "0.5",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_text().splitlines()[1].endswith(",0.0,inf,pass")


@pytest.mark.parametrize("flag", ["--N=inf", "--K=-inf", "--K=nan"])
def test_mcp_rejects_non_finite_curvature(flag):
    res = run_cli("mcp", "--group", "heisenberg3", flag, "--t-grid", "0.5")
    assert res.returncode == 3
    assert "finite" in res.stderr


def test_mcp_node_budget_exits_three():
    # the quad^p v-grid on the default box; the K < 0 average there needs no
    # u-grid
    res = run_cli("mcp", "--group", "htype4x3", "--K", "-1", "--quad", "10000",
                  "--t-grid", "0.5")
    assert res.returncode == 3
    assert str(10**12) in res.stderr
    # the quad^k u-grid, on a box where the interpolant misses its error bound
    res = run_cli("mcp", "--group", "heisenberg3", "--K", "-25", "--quad", "10000",
                  "--box=-20,-20,0.5;20,20,1", "--t-grid", "0.5")
    assert res.returncode == 3
    assert str(10**8) in res.stderr


@pytest.mark.parametrize("steps", [10**12, 2**22 // 16])
def test_exp_steps_above_budget_exit_three(steps):
    # rejected before any time list or L_v stack is built; htype4x3 has rank
    # 4, so at most 2^22 / 16 - 1 steps fit the node budget
    res = run_cli("exp", "--group", "htype4x3", "--u", "1,0,0,0", "--v", "0.5,0,0",
                  "--steps", str(steps))
    assert res.returncode == 3
    assert "at most 262143" in res.stderr
    assert res.stdout == ""


def test_mcp_explicit_box_argument():
    res = run_cli("mcp", "--group", "heisenberg3",
                  "--box", "0.5,0.5,0.5;1.5,1.5,1.5", "--t-grid", "0.5", "--quiet")
    assert res.returncode == 0
    bad = run_cli("mcp", "--group", "heisenberg3", "--box", "1;2;3",
                  "--t-grid", "0.5")
    assert bad.returncode == 3


def test_mcp_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("mcp", "--group", "contact12", "--K", "-1", "--t-grid",
            "0.2,0.5,0.8", "--quad", "6")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_mcp_worker_count_does_not_change_bytes(tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
    args = ("mcp", "--group", "heisenberg3", "--K", "-0.5",
            "--t-grid", "0.3,0.7", "--quad", "8")
    assert run_cli(*args, "--workers", "1", "--out", str(a)).returncode == 0
    assert run_cli(*args, "--workers", "4", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_sharpness_csv(tmp_path):
    out = tmp_path / "sharp.csv"
    res = run_cli("sharpness", "--group", "heisenberg3", "--epsilon", "0.5",
                  "--out", str(out))
    assert res.returncode == 0
    assert "witness found after 1 attempt" in res.stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# witness box lower: ")
    assert lines[1].startswith("# witness box upper: ")
    assert lines[2] == "t,ratio,threshold,margin"
    assert len(lines) == 3 + 32
    margins = [float(l.split(",")[3]) for l in lines[3:]]
    assert all(m > 0.0 for m in margins)


def test_sharpness_epsilon_validation():
    res = run_cli("sharpness", "--group", "heisenberg3", "--epsilon", "0")
    assert res.returncode == 3


def test_config_seed_flows_into_log_command(tmp_path):
    # both runs agree; --seed override still deterministic
    cfgpath = write_config(tmp_path, {**EXPLICIT, "seed": 5})
    args = ("log", str(cfgpath), "--x", "0,0", "--z", "0.4")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 2
    assert a.stdout == b.stdout
    c = run_cli(*args, "--seed", "11")
    assert c.returncode == 2


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert res.stdout.startswith("htcarnot ")
