"""Golden outputs: the exact stdout bytes and exit code of every subcommand
in every format, at fixed arguments.

The files under tests/golden/ are the reference that refactors are held to:
a change that alters one byte of them alters the CLI's output contract.
Rewrite them with ``PYTHONPATH=src python tests/test_golden.py`` only from
a commit whose output is known to be right, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from sulvageom.cli import cli_main

GOLDEN = Path(__file__).parent / "golden"
EXTENSIONS = {"text": "txt", "markdown": "md", "json": "json"}

# (file stem, argv without --format, expected exit code)
COMMANDS = [
    ("sqrt2", ["sqrt2"], 0),
    ("sqrt2-precision-4", ["sqrt2", "--precision", "4"], 0),
    ("derive-i59", ["derive", "i59"], 0),
    ("verify-identities", ["verify", "identities"], 0),
    ("pi-i58", ["pi", "i58"], 0),
    ("pi-i59", ["pi", "i59"], 0),
    ("pi-i59-precision-30", ["pi", "i59", "--precision", "30"], 0),
    ("pi-i60", ["pi", "i60"], 0),
    ("area-square", ["area", "25", "25", "25", "25"], 0),
    ("area-irrational", ["area", "1", "2", "3", "4"], 0),
    ("area-degenerate", ["area", "3", "4", "5", "0"], 0),
    ("area-not-realizable", ["area", "10", "1", "1", "1"], 1),
    ("crude", ["crude", "1", "7", "1", "7"], 0),
    ("crude-fractional", ["crude", "1/2", "7/3", "3/4", "5"], 0),
    ("quad-demo-seed-1", ["quad", "demo", "--seed", "1", "--count", "6"], 0),
    ("quad-demo-seed-9", ["quad", "demo", "--seed", "9", "--count", "6"], 0),
    ("quad-demo-defaults", ["quad", "demo"], 0),
    ("xii24", ["xii24", "3/4", "7"], 0),
    ("xii24-fractional", ["xii24", "5/12", "2/3"], 0),
]

CASES = [
    (f"{stem}.{ext}", argv + ["--format", fmt], code)
    for stem, argv, code in COMMANDS
    for fmt, ext in EXTENSIONS.items()
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[name for name, _, _ in CASES])
def test_golden_output(capsysbinary, name, argv, code):
    assert cli_main(argv) == code
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = cli_main(argv)
        if got != code:
            raise SystemExit(f"{name}: exit code {got}, expected {code}")
        (GOLDEN / name).write_bytes(out.getvalue().encode("utf-8"))


if __name__ == "__main__":
    _write_golden()
