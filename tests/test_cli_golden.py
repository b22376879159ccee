"""Byte-identical CLI output.

``tests/data/cli_golden.json`` holds, for each invocation below, the exit
code, stdout and stderr that ``knotconc.cli.main`` gave when the file was
recorded (the commit is named in CHANGES.md).  A refactor of the CLI or of
the layers under it must leave every one unchanged; a change of output that
is meant goes into the file by hand, one entry at a time, with its reason.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from knotconc.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# the fixed commands of the cli-cold benchmark script, in its order
_CLI_FIXED = [
    ["sig", "--knot", "T(2,3)", "--q", "2", "--json"],
    ["sig", "--knot", "T(2,13)", "--q", "3", "--json"],
    ["sig", "--knot", "T(2,31)", "--q", "5", "--json"],
    ["theta", "--expr", "T(2,3) + T(2,7) + T(2,11)", "--q", "2"],
    ["theta", "--expr", "-9_42 + Wh(T(2,3))", "--q", "2"],
    ["theta", "--expr", "T(2,11) + -T(3,5)", "--q", "3", "--quiet"],
    ["theta-m", "--expr", "T(3,7)", "--m", "4", "--q", "2"],
    ["theta-m", "--expr", "T(2,11)", "--m", "2", "--q", "3"],
    ["infer", "--expr", "T(2,5) + -Wh(T(2,3))", "--q", "2"],
    ["infer", "--expr", "T(2,7) + -T(2,5)", "--q", "3"],
    ["genus-bound", "--expr", "T(3,7)", "--rank", "3", "--class", "2,0,0", "--compare"],
    ["genus-bound", "--expr", "T(2,7)", "--rank", "1", "--class", "3", "--q", "3"],
    ["branch-cover", "--q", "3", "--b2x", "0", "--sigmax", "0", "--genus", "1",
     "--sigq-out", "-8", "--sigq-in", "-8"],
    ["branch-cover", "--q", "5", "--b2x", "2", "--sigmax", "0", "--genus", "2",
     "--self-int", "5", "--sigq-out", "-16", "--sigq-in", "-8"],
    ["reproduce", "--section", "5"],
    ["reproduce", "--section", "5"],
    ["reproduce"],
]
_HAS_JSON_FORM = {"theta", "theta-m", "infer", "genus-bound", "reproduce"}

INVOCATIONS = [
    *_CLI_FIXED,
    *([*argv, "--json"] for argv in _CLI_FIXED if argv[0] in _HAS_JSON_FORM),
    ["reproduce", "--list"],
    ["reproduce", "--list", "--json"],
    ["theta-m", "--expr", "T(3,7)", "--m", "-1"],
    ["theta-m", "--expr", "T(3,7)", "--m", "0"],
    ["theta", "--expr", "T(2,3) + -T(2,3)"],
    ["genus-bound", "--expr", "-T(2,25) + T(3,31)", "--rank", "1", "--class", "4"],
    ["theta", "--help"],
    ["theta-m", "--help"],
    ["reproduce", "--section", "9"],
]


def run_main(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:  # --help
            code = e.code
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_invocation():
    assert [entry["argv"] for entry in RECORDED] == INVOCATIONS


@pytest.mark.parametrize("index", range(len(INVOCATIONS)),
                         ids=[" ".join(argv) for argv in INVOCATIONS])
def test_cli_output_is_byte_identical(index, monkeypatch):
    # argparse wraps --help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert run_main(INVOCATIONS[index]) == RECORDED[index]
