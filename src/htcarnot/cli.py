"""Command-line driver.

Subcommands: validate, exp, log, mcp, sharpness.  Groups come either from a
JSON config file (positional argument) or from the built-in catalog via
--group; exactly one of the two.

Exit codes: 0 success, 1 validation failure, 2 mathematical-property
failure, 3 malformed or unsupported input.

All file output is deterministic: floats are printed with repr (shortest
round-trip), lines end with LF, and identical inputs give byte-identical
files regardless of worker count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import catalog_names, catalog_structure
from .config import parse_config
from .errors import (
    ConfigError,
    CutLocusTarget,
    DimensionMismatch,
    HTCarnotError,
    IdentityTarget,
    NoCandidateFound,
    SpecNotRealizable,
    StructureInvalid,
    UnsupportedPositiveK,
    WitnessNotFound,
    ZeroCovector,
)
from .geodesics import (
    Covector,
    cut_time,
    distance_bound,
    geodesic_sample,
    in_injectivity_domain,
    log_map,
)
from .group import GroupPoint
from .mcp import (
    CovectorBox,
    default_box,
    geodesic_dimension,
    mcp_report,
    sharpness_box,
    sharpness_witness,
)
from .quadrature import NODE_BUDGET
from .randomness import DEFAULT_SEED
from .structure import existence_check, validate_structure

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPERTY = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the
    # mathematical-failure code; route everything malformed to 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="htcarnot", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"htcarnot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("config", nargs="?", default=None,
                       help="JSON group configuration file")
        p.add_argument("--group", choices=catalog_names(),
                       help="built-in catalog group (instead of a config file)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--quiet", action="store_true",
                       help="suppress report prose on stdout")

    p = sub.add_parser("validate", help="check a group configuration")
    add_common(p)

    p = sub.add_parser("exp", help="sample a normal geodesic to CSV")
    add_common(p)
    p.add_argument("--u", type=_float_list, required=True, metavar="LIST",
                   help="horizontal covector, comma-separated")
    p.add_argument("--v", type=_float_list, required=True, metavar="LIST",
                   help="vertical covector, comma-separated")
    p.add_argument("--steps", type=int, default=100,
                   help="number of time steps (writes steps+1 rows)")
    p.add_argument("--out", type=Path, default=None, help="output CSV path")

    p = sub.add_parser("log", help="invert the exponential map at a point")
    add_common(p)
    p.add_argument("--x", type=_float_list, required=True, metavar="LIST")
    p.add_argument("--z", type=_float_list, required=True, metavar="LIST")

    p = sub.add_parser("mcp", help="verify the measure contraction inequality")
    add_common(p)
    p.add_argument("--K", type=float, default=0.0, help="curvature bound (<= 0)")
    p.add_argument("--N", type=float, default=None,
                   help="claimed exponent (default: geodesic dimension k+3p)")
    p.add_argument("--box", default="default", metavar="SPEC",
                   help='"default", "sharpness", or "lo1,..;hi1,.." corners')
    p.add_argument("--t-grid", type=_float_list, dest="t_grid", metavar="LIST",
                   default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    p.add_argument("--quad", type=int, default=8,
                   help="quadrature points per dimension")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--out", type=Path, default=None, help="output CSV path")

    p = sub.add_parser("sharpness", help="witness sharpness of the exponent k+3p")
    add_common(p)
    p.add_argument("--epsilon", type=float, default=0.5,
                   help="exponent deficit to witness, in (0, 1]")
    p.add_argument("--out", type=Path, default=None, help="output CSV path")

    return parser


def _resolve_group(args):
    """Return (structure constants or None, parsed config or None, seed)."""
    if (args.config is None) == (args.group is None):
        raise ConfigError("exactly one of a config file or --group is required")
    if args.group is not None:
        sc = catalog_structure(args.group)
        seed = DEFAULT_SEED if args.seed is None else args.seed
        return sc, None, seed
    cfg = parse_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    return None, cfg, seed


def _structure(args):
    sc, cfg, seed = _resolve_group(args)
    if sc is None:
        sc = cfg.realize()
    return sc, seed


def _emit(lines, out: Path | None, quiet: bool):
    text = "\n".join(lines) + "\n"
    if out is not None:
        out.write_bytes(text.encode("ascii"))
    elif not quiet:
        sys.stdout.write(text)


def _say(args, message: str):
    if not args.quiet:
        print(message)


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_validate(args) -> int:
    sc, cfg, seed = _resolve_group(args)
    if cfg is not None and not cfg.is_spectral:
        report = validate_structure(np.diag(cfg.s_diagonal), cfg.l_matrices,
                                    tol=cfg.tolerance, seed=seed)
        for check in report.checks:
            _say(args, f"{'PASS' if check.passed else 'FAIL'}  {check.name}"
                       f"  (residual {check.residual:.3e})")
        if not report.passed:
            _say(args, "structure validation failed")
            return EXIT_VALIDATION
        _say(args, "structure valid")
        return EXIT_OK
    spec = cfg.spec if cfg is not None else sc.spec
    result = existence_check(spec)
    _say(args, f"{'PASS' if result.ok else 'FAIL'}  realizability: {result.detail}")
    if not result.ok:
        return EXIT_VALIDATION
    _say(args, f"group valid: rank {spec.rank}, corank {spec.corank}, "
               f"geodesic dimension {geodesic_dimension(spec)}")
    return EXIT_OK


def cmd_exp(args) -> int:
    sc, _ = _structure(args)
    if args.steps <= 0:
        raise ConfigError(f"--steps must be positive, got {args.steps}")
    # the geodesic is evaluated on (steps + 1) rows of a rank x rank L_v
    max_steps = NODE_BUDGET // sc.rank**2 - 1
    if args.steps > max_steps:
        raise ConfigError(
            f"--steps must be at most {max_steps} for rank {sc.rank} "
            f"(at most {NODE_BUDGET} values per evaluation), got {args.steps}"
        )
    u = np.asarray(args.u)
    v = np.asarray(args.v)
    if u.shape != (sc.rank,) or v.shape != (sc.corank,):
        raise DimensionMismatch(
            f"need {sc.rank} u-components and {sc.corank} v-components, "
            f"got {u.size} and {v.size}"
        )
    lam = Covector(u, v)
    tc = cut_time(sc, lam)  # rejects the zero covector before any output
    ts = [i / args.steps for i in range(args.steps + 1)]
    points = geodesic_sample(sc, lam, ts)
    header = "t," + ",".join(
        [f"x{i+1}" for i in range(sc.rank)] + [f"z{a+1}" for a in range(sc.corank)]
    )
    rows = [header]
    for t, pt in zip(ts, points):
        rows.append(",".join([_fmt(t)] + [_fmt(c) for c in pt.as_vector()]))
    _emit(rows, args.out, args.quiet)
    status = "the whole arc is minimizing" if tc >= 1.0 else \
        f"the arc stops minimizing at t = {_fmt(tc)}"
    _say(args, f"cut time: {_fmt(tc) if np.isfinite(tc) else 'inf'}; {status}")
    return EXIT_OK


def cmd_log(args) -> int:
    sc, _ = _structure(args)
    x = np.asarray(args.x)
    z = np.asarray(args.z)
    if x.shape != (sc.rank,) or z.shape != (sc.corank,):
        raise DimensionMismatch(
            f"need {sc.rank} x-components and {sc.corank} z-components, "
            f"got {x.size} and {z.size}"
        )
    target = GroupPoint(x, z)
    try:
        lam = log_map(sc, target)
    except CutLocusTarget:
        bound = distance_bound(sc, target)
        print("cut locus target: no covector in the injectivity domain "
              "reaches this point")
        print(f"distance upper bound: {_fmt(bound)}")
        return EXIT_PROPERTY
    dist = float(np.linalg.norm(lam.u))
    _say(args, "u = " + ",".join(_fmt(c) for c in lam.u))
    _say(args, "v = " + ",".join(_fmt(c) for c in lam.v))
    _say(args, f"distance = {_fmt(dist)}")
    inside = in_injectivity_domain(sc, lam)
    _say(args, "covector is in the injectivity domain" if inside
         else "covector is on the domain boundary (straight line or abnormal)")
    return EXIT_OK


def _parse_box(sc, text: str) -> CovectorBox:
    if text == "default":
        return default_box(sc)
    if text == "sharpness":
        return sharpness_box(sc)
    parts = text.split(";")
    if len(parts) != 2:
        raise ConfigError(
            '--box must be "default", "sharpness", or "lo1,..;hi1,.."'
        )
    lo = _float_list(parts[0])
    hi = _float_list(parts[1])
    if len(lo) != sc.dim or len(hi) != sc.dim:
        raise ConfigError(
            f"box corners need {sc.dim} components each, got {len(lo)} and {len(hi)}"
        )
    try:
        return CovectorBox(np.array(lo), np.array(hi))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_mcp(args) -> int:
    sc, _ = _structure(args)
    n_claimed = geodesic_dimension(sc.spec) if args.N is None else args.N
    box = _parse_box(sc, args.box)
    report = mcp_report(sc, args.K, n_claimed, box, args.t_grid, args.quad,
                        workers=max(1, args.workers))
    rows = ["t,ratio,bound,margin,verdict"]
    for t, ratio, bound, margin, ok in zip(
        report.t_grid, report.ratios, report.bounds, report.margins, report.verdicts
    ):
        rows.append(",".join(
            [_fmt(t), _fmt(ratio), _fmt(bound), _fmt(margin),
             "pass" if ok else "fail"]
        ))
    _emit(rows, args.out, args.quiet)
    failures = [t for t, ok in zip(report.t_grid, report.verdicts) if not ok]
    if failures:
        _say(args, f"MCP(K={args.K:g}, N={n_claimed:g}) FAILED at t = "
                   + ", ".join(f"{t:g}" for t in failures))
        return EXIT_PROPERTY
    _say(args, f"MCP(K={args.K:g}, N={n_claimed:g}) holds at all "
               f"{len(report.t_grid)} grid times")
    return EXIT_OK


def cmd_sharpness(args) -> int:
    sc, _ = _structure(args)
    try:
        box, report = sharpness_witness(sc, args.epsilon)
    except WitnessNotFound as exc:
        print(f"sharpness witness not found: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    rows = [
        "# witness box lower: " + ",".join(_fmt(c) for c in box.lower),
        "# witness box upper: " + ",".join(_fmt(c) for c in box.upper),
        "t,ratio,threshold,margin",
    ]
    for t, ratio, th, margin in zip(
        report.t_grid, report.ratios, report.thresholds, report.margins
    ):
        rows.append(",".join([_fmt(t), _fmt(ratio), _fmt(th), _fmt(margin)]))
    _emit(rows, args.out, args.quiet)
    _say(args, f"witness found after {report.attempts} attempt(s): the "
               f"contraction ratio stays below t^{report.exponent:g} on the grid")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "exp": cmd_exp,
    "log": cmd_log,
    "mcp": cmd_mcp,
    "sharpness": cmd_sharpness,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DimensionMismatch, IdentityTarget, ZeroCovector,
            UnsupportedPositiveK, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SpecNotRealizable, StructureInvalid) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (WitnessNotFound, NoCandidateFound, CutLocusTarget) as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except HTCarnotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
