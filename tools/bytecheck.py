"""Byte check of a fixed list of catalog commands.

Runs every command of :func:`commands` in process through ``cli.main``,
against whatever ``htcarnot`` is importable, and prints one line per
command: the exit code, then the SHA-256 of its stdout, its stderr and the
CSV it wrote to ``--out`` ("-" where it wrote none), each cut to 16 hex
digits, then the command itself, after a first line that names the numpy
and Python versions.  An exception that escapes ``cli.main`` counts as
exit 1, with its type and message as stderr.  Run it on two checkouts and
diff the outputs to see which commands changed which bytes:

    PYTHONPATH=src python tools/bytecheck.py > after.txt

``tests/bytecheck.golden`` holds its output at the current commit, and
``tests/test_bytecheck.py`` compares every command's line with it.  A
change that moves bytes regenerates the file with the command above.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from htcarnot import catalog_names, catalog_structure, cli

# near the vertical axis of contact12: x_top = eps, from inside the domain
# to the cut locus
NEAR_AXIS = ("1e-3", "1e-9", "1e-12", "1e-16")

# (group, x, z) for log: interior targets, mixed scales, z = 0, the identity,
# the cut-locus target of each catalog group, |z| near 1e-100 and targets
# far from unit scale
LOG_TARGETS = [
    ("heisenberg3", "0.5,0.1", "0.2"),
    ("heisenberg3", "1.3,-0.7", "1.9"),
    ("heisenberg3", "0.5,0.1", "1e-180"),
    ("contact12", "0.3,-0.2,0.5,0.1", "0.4"),
    ("contact12", "1,0,0,0", "0.05"),
    ("contact12", "0,0,0.1,0", "1"),
    ("contact12", "3,0,0,0", "0.01"),
    ("htype4x3", "0.3,-0.2,0.5,0.1", "0.1,-0.2,0.3"),
    ("degenerate-corank1", "0.3,-0.7,0.5,0.2", "0.2"),
    *[("contact12", f"0.3,-0.2,{eps},0", "5") for eps in NEAR_AXIS],
    ("heisenberg3", "0,0", "1"),
    ("contact12", "0,0,0,0", "1.3"),
    ("contact12", "0.3,-0.2,0,0", "1.5"),
    ("htype4x3", "0,0,0,0", "0.3,0.4,-0.5"),
    ("degenerate-corank1", "0.3,-0.7,0,0", "0.2"),
    ("heisenberg3", "1,0", "0"),
    ("htype4x3", "0.3,0.1,0,0", "0,0,0"),
    ("heisenberg3", "0,0", "0"),
    ("heisenberg3", "0,0", "1e-100"),
    ("heisenberg3", "1e-50,0", "1e-100"),
    ("contact12", "0.3,-0.2,1e-50,0", "1e-100"),
    ("heisenberg3", "0,0", "1e-200"),
    ("heisenberg3", "1e-200,0", "1e-200"),
    ("heisenberg3", "1e160,0", "1e300"),
    ("heisenberg3", "1,0", "1e308"),
    ("heisenberg3", "1e155,0", "1e155"),
    ("heisenberg3", "1.7e308,1e308", "1e300"),
]

# (rank, corank, alpha) of the one-block spectral configs far from unit scale
EXTREME_ALPHAS = ("1e-300", "1e-200", "1e-100", "1e-60", "1e60", "1e100", "1e200", "1e300")
SHAPES = ((2, 1), (4, 3))


def _config(workdir: Path, rank: int, corank: int, alpha: str) -> str:
    path = workdir / f"alpha-{alpha}-{rank}x{corank}.json"
    path.write_text(json.dumps({
        "rank": rank, "corank": corank, "kernel_dim": 0,
        "spectrum": [{"alpha": float(alpha), "pair_multiplicity": rank // 2}],
    }))
    return str(path)


def _wide_config(workdir: Path) -> str:
    # rank 4, corank 1, alphas 1e-300 and 1e300: in the unit frame of
    # alpha_max the smaller alpha rounds to 0
    path = workdir / "wide-spectrum.json"
    path.write_text(json.dumps({
        "rank": 4, "corank": 1, "kernel_dim": 0,
        "spectrum": [{"alpha": 1e-300, "pair_multiplicity": 1},
                     {"alpha": 1e300, "pair_multiplicity": 1}],
    }))
    return str(path)


# (name, S_diagonal, the pair of coordinates of L = scale J, scale): an odd
# multiplicity, a negative entry within the tolerance, the group of
# alpha = 1e160 and of 1e-200 in explicit form, and non-finite entries
# (json writes NaN and Infinity, which its reader accepts)
EXPLICIT_CONFIGS = [
    ("odd", [1.0, 1.000000000000001], (0, 1), 1.0),
    ("negative", [0.0, 0.0, 1.0, 1.0, -1e-13], (2, 3), 1.0),
    ("1e160", [1e160, 1e160], (0, 1), 1e160),
    ("1e-200", [1e-200, 1e-200], (0, 1), 1e-200),
    ("nan-L", [1.0, 1.0], (0, 1), math.nan),
    ("inf-L", [1.0, 1.0], (0, 1), math.inf),
    ("inf-S", [1.0, math.inf], (0, 1), 1.0),
]


def _explicit_config(workdir: Path, name: str, s_diag, pair, scale) -> str:
    k = len(s_diag)
    mat = [[0.0] * k for _ in range(k)]
    mat[pair[0]][pair[1]], mat[pair[1]][pair[0]] = scale, -scale
    path = workdir / f"explicit-{name}.json"
    path.write_text(json.dumps({"S_diagonal": s_diag, "L_matrices": [mat]}))
    return str(path)


# htype4x3 with L + eps A, A a skew family seeded at 7 whose largest entry
# is 1.  The worst unit pair misses the Clifford relation by 1.10e-12 and
# 1.25e-12 relative, above the tolerance 1e-12; 64 pairs drawn from --seed
# passed that check at some seeds
PERTURBED_EPS = ("1.97e-13", "2.24e-13")


def perturbed_config(workdir: Path, eps: str) -> str:
    sc = catalog_structure("htype4x3")
    G = np.random.default_rng(7).standard_normal(sc.L.shape)
    A = G - G.transpose(0, 2, 1)
    A /= np.max(np.abs(A))
    path = workdir / f"perturbed-{eps}.json"
    path.write_text(json.dumps({"S_diagonal": sc.s_diag.tolist(),
                                "L_matrices": (sc.L + float(eps) * A).tolist()}))
    return str(path)


def commands(workdir: Path) -> list[list[str]]:
    """Every argv of the check; config files and --out paths lie in workdir."""
    csv = ["--out", str(workdir / "out.csv")]
    argvs = []
    for name in catalog_names():
        sc = catalog_structure(name)
        group = ["--group", name]
        u = ",".join(["1", "0.3", "-0.5", "0.8"][:sc.rank])
        v = ",".join(["1.1", "0.4", "-0.5"][:sc.corank])
        vfar = ",".join(["4.1", "1.4", "-2.5"][:sc.corank])
        n = repr(sc.rank + 3 * sc.corank - 0.5)
        argvs.append(["validate", *group])
        argvs += [["exp", *group, f"--u={u}", f"--v={vv}", "--steps", "20", *csv]
                  for vv in (v, vfar)]
        argvs += [["mcp", *group, f"--K={K}", f"--N={n}", "--quad", quad, "--box", box, *csv]
                  for K in ("0", "-1", "-3") for quad in ("5", "8")
                  for box in ("default", "sharpness")]
        argvs.append(["sharpness", *group, *csv])
    argvs += [["log", "--group", name, f"--x={x}", f"--z={z}"] for name, x, z in LOG_TARGETS]
    for alpha in EXTREME_ALPHAS:
        for rank, corank in SHAPES:
            config = _config(workdir, rank, corank, alpha)
            argvs.append(["validate", config])
            argvs.append(["exp", config, "--u=" + ",".join(["1", "0.3", "-0.5", "0.8"][:rank]),
                          "--v=" + ",".join(["1", "0", "0"][:corank]), "--steps", "4", *csv])
            argvs += [["mcp", config, f"--K={K}", "--quad", "5", *csv] for K in ("0", "-1")]
    argvs += [["mcp", _config(workdir, *shape, alpha), *csv]
              for shape, alpha in (((2, 1), "1e-200"), ((4, 3), "1e-60"), ((4, 3), "1e60"))]
    argvs.append(["mcp", _config(workdir, 2, 1, "1e300"),
                  "--box=0.5,0.5,1e-299;1.5,1.5,2e-299", *csv])
    for rank, corank in SHAPES:
        config = _config(workdir, rank, corank, "1e4")
        argvs += [["sharpness", config, *csv], ["mcp", config, "--box", "sharpness", *csv]]
    argvs += [["log", _config(workdir, 2, 1, alpha), f"--x={x}", "--z=1"]
              for x in ("0,0", "1,0") for alpha in ("1e-200", "1e160")]
    argvs += [["sharpness", _config(workdir, 2, 1, alpha), *csv] for alpha in ("1e-16", "1e-300")]
    # |v| beyond the float range, where numpy warned before the error, and
    # an endpoint beyond it
    argvs += [["exp", "--group", "htype4x3", "--u=1,0,0,0", "--v=1.5e308,1.5e308,1.5e308",
               "--steps", "1", *csv],
              ["exp", "--group", "heisenberg3", "--u=1e200,0", "--v=1", "--steps", "1", *csv]]
    # a cut time 2 pi / (alpha |v|) beyond the float range
    argvs.append(["exp", _config(workdir, 2, 1, "1e-300"), "--u=1,0.3", "--v=1e-30",
                  "--steps", "1", *csv])
    wide = _wide_config(workdir)
    argvs += [["validate", wide],
              ["exp", wide, "--u=1,0.3,-0.5,0.8", "--v=1e-301", "--steps", "4", *csv],
              ["mcp", wide, "--quad", "5", *csv],
              *[["log", wide, f"--x={x}", "--z=1"] for x in ("1,0,0.5,0", "0,0,0,0")]]
    explicit = {name: _explicit_config(workdir, name, *rest) for name, *rest in EXPLICIT_CONFIGS}
    argvs += [["validate", path] for path in explicit.values()]
    argvs += [["validate", perturbed_config(workdir, eps), "--seed", seed]
              for eps in PERTURBED_EPS for seed in ("0", "1")]
    argvs += [["exp", explicit[name], "--u=1,0.3", "--v=1", "--steps", "4", *csv]
              for name in ("1e-200", "nan-L", "inf-L", "inf-S")]
    # s_c u_c underflowed to 0 at alpha = 1e-200 and read as S u = 0
    tiny_alpha = _config(workdir, 2, 1, "1e-200")
    argvs += [["exp", tiny_alpha, "--u=1e-200,0", "--v=1", "--steps", "1", *csv],
              ["mcp", tiny_alpha, "--box=1e-150,1e-150,0.5;2e-150,2e-150,1", *csv]]
    # R = 2 pi / alpha_max beyond the float range, where the sharpness box
    # formed inf - inf
    tiniest = _config(workdir, 2, 1, "5e-324")
    argvs += [["sharpness", tiniest, *csv], ["mcp", tiniest, "--box", "sharpness", *csv]]
    # N - 1 = 1e-7, where the distortion bound underflowed to 0
    argvs.append(["mcp", "--group", "heisenberg3", "--K=-1", "--N=1.0000001",
                  "--t-grid", "0.5", *csv])
    # wide u-boxes, where the Chebyshev fit of the distortion coefficient
    # misses its error bound and the K < 0 average is summed over the u-grid
    argvs += [["mcp", "--group", "heisenberg3", "--K=-25", "--N=5",
               "--box=-20,-20,0.5;20,20,1", *csv],
              ["mcp", "--group", "heisenberg3", "--K=-1", "--N=5",
               "--box=0.1,0.1,0.5;50,50,1", *csv],
              ["mcp", "--group", "contact12", "--K=-1",
               "--box=0.1,0.1,0.1,0.1,0.5;20,20,20,20,1", *csv]]
    return argvs


def _digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()[:16]


def run(argv: list[str], out: Path) -> tuple[int, bytes, bytes, bytes | None]:
    """Exit code, stdout, stderr and CSV bytes of one command, in process."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback on the command line
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    csv = out.read_bytes() if out.exists() else None
    return code, stdout.getvalue().encode(), stderr.getvalue().encode(), csv


def report(workdir: Path) -> list[str]:
    """The lines of the check, commands run in workdir: the versions, then
    one line per command."""
    lines = [f"# numpy {np.__version__}, Python {platform.python_version()}"]
    for argv in commands(workdir):
        code, stdout, stderr, csv = run(argv, workdir / "out.csv")
        shown = " ".join(argv).replace(str(workdir), "$WORKDIR")
        lines.append(f"{code} {_digest(stdout)} {_digest(stderr)} {_digest(csv)} {shown}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(report(Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
