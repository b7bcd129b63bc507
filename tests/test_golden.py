"""Golden outputs: the exact stdout bytes and exit code of every subcommand
in every format, at fixed arguments.

The files under tests/golden/ are the reference that refactors are held to:
a change that alters one byte of them alters the CLI's output contract.
Compare every case with its file, on any Python and with the standard
library alone, by

    PYTHONPATH=src python tests/test_golden.py --check

which names each case that differs on stderr and exits 1 if any does.
Without ``--check`` the script rewrites the files: do that only from a
commit whose output is known to be right, and review the diff.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

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


def pytest_generate_tests(metafunc):
    # A hook rather than pytest.mark, so that the script below runs without pytest.
    if metafunc.function is test_golden_output:
        metafunc.parametrize("name, argv, code", CASES, ids=[name for name, _, _ in CASES])


def test_golden_output(capsysbinary, name, argv, code):
    assert cli_main(argv) == code
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue().encode("utf-8")


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden files, or compare the output with them.")
    parser.add_argument("--check", action="store_true", help="compare only; exit 1 if any case differs")
    check = parser.parse_args(args).check
    if not check:
        GOLDEN.mkdir(exist_ok=True)
    differ = 0
    for name, argv, code in CASES:
        got, out = _run(argv)
        path = GOLDEN / name
        if got != code:
            differ += 1
            print(f"{name}: exit code {got}, expected {code}", file=sys.stderr)
        elif not check:
            path.write_bytes(out)
        elif not path.exists() or path.read_bytes() != out:
            differ += 1
            print(f"{name}: output differs from {path}", file=sys.stderr)
    if check:
        print(f"{len(CASES) - differ} of {len(CASES)} golden cases match, Python {sys.version.split()[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
