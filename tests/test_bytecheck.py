"""The command list of tools/bytecheck.py stays valid command-line input,
and its output stays the one committed in tests/bytecheck.golden."""

import contextlib
import importlib.util
import io
import pathlib

from htcarnot import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
BYTECHECK = ROOT / "tools" / "bytecheck.py"
GOLDEN = ROOT / "tests" / "bytecheck.golden"


def _bytecheck():
    spec = importlib.util.spec_from_file_location("bytecheck", BYTECHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bytecheck_command_parses(tmp_path):
    argvs = _bytecheck().commands(tmp_path)
    assert len(argvs) == len({tuple(argv) for argv in argvs})
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)


def test_bytecheck_output_matches_the_golden_file(tmp_path):
    # every command's exit code and the digests of its stdout, stderr and
    # CSV, in process; the first lines name the numpy and Python versions
    want = GOLDEN.read_text().splitlines()
    got = _bytecheck().report(tmp_path)
    moved = [f"  golden: {w}\n  now:    {g}" for w, g in zip(want[1:], got[1:]) if w != g]
    assert len(got) == len(want) and not moved, (
        f"{len(moved)} of {len(got) - 1} byte-check rows moved ({len(want) - 1} in the "
        f"golden file).  The golden file was written under {want[0][2:]}, this run "
        f"has {got[0][2:]}; CSV digits can depend on the numpy build.  A change that "
        "moves bytes regenerates tests/bytecheck.golden with "
        "`PYTHONPATH=src python tools/bytecheck.py > tests/bytecheck.golden` and lists "
        "the moved rows in CHANGES.md.\n" + "\n".join(moved[:20]))


def test_perturbed_configs_fail_validation_at_every_seed(tmp_path):
    # the worst unit pair misses the relation by 1.10e-12 and 1.25e-12; 64
    # pairs drawn from --seed passed 33 and 10 of these 40 seeds
    bytecheck = _bytecheck()
    for eps in bytecheck.PERTURBED_EPS:
        path = bytecheck.perturbed_config(tmp_path, eps)
        runs = set()
        for seed in range(40):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["validate", path, "--seed", str(seed)])
            runs.add((code, out.getvalue()))
        assert len(runs) == 1, f"{len(runs)} different runs at eps = {eps}"
        (code, out), = runs
        assert code == 1 and "FAIL  Clifford relations on all unit pairs" in out
