"""The command list of tools/bytecheck.py stays valid command-line input."""

import importlib.util
import pathlib

from htcarnot import cli

BYTECHECK = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bytecheck.py"


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
