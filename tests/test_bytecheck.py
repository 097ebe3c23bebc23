"""The command list of tools/bytecheck.py stays valid command-line input,
and its output stays the one committed in tests/bytecheck.golden."""

import importlib.util
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
