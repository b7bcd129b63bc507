"""Whole ``python -m sulvageom`` processes under ``-W error -X dev``: each
subcommand, the largest demo, values past Python's 4300-digit limit, a
refusal on each exit path, and a stdout that cannot be written."""

import contextlib
import errno
import os

import pytest

from test_cli import run_python

FLAGS = ("-W", "error", "-X", "dev", "-m", "sulvageom")
LONG_SIDE = str(10**2199 + 1)

# (argv, exit code, text that stderr must hold)
CASES = [
    (["verify", "identities"], 0, ""),
    (["xii24", "-3/5", "7"], 0, ""),
    (["xii24", "0", "7"], 0, ""),
    (["derive", "i59", "--format", "json"], 0, ""),
    (["sqrt2"], 0, ""),
    (["pi", "i58"], 0, ""),
    (["pi", "i59"], 0, ""),
    (["pi", "i60"], 0, ""),
    (["area", "25", "25", "25", "25"], 0, ""),
    (["crude", "1/2", "7/3", "3/4", "5"], 0, ""),
    # The demo's point grid at another radius phase and format than seed 1's.
    (["quad", "demo", "--seed", "12345", "--count", "1860", "--format", "markdown"], 0, ""),
    # The radicand is longer than Python's 4300-digit int-to-str limit.
    (["area", LONG_SIDE, LONG_SIDE, LONG_SIDE, LONG_SIDE], 0, ""),
    (["sqrt2", "--precision", "1001"], 2, "argument --precision"),
    (["quad", "demo", "--count", "1861"], 2, "argument --count"),
    (["xii24", "2", "-1/2"], 2, "apex coincides with a base endpoint"),
    (["area", "1", "1", "1", "3"], 1, "not realizable"),
    (["area", "7" * 4301, "1", "1", "1"], 2, "more than 4300 digits"),
]


def _id(argv):
    return " ".join(arg if len(arg) < 20 else f"<{len(arg)} digits>" for arg in argv)


@pytest.mark.parametrize("argv, code, needle", CASES, ids=[_id(argv) for argv, _, _ in CASES])
def test_process(argv, code, needle):
    proc = run_python(*FLAGS, *argv)
    err = proc.stderr.decode()
    assert proc.returncode == code, err
    assert needle in err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert proc.stdout == b""
    if code == 2:
        assert err.count("error:") == 1


@contextlib.contextmanager
def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end
    finally:
        os.close(write_end)


SINKS = [
    pytest.param(_closed_pipe, errno.EPIPE, id="closed pipe"),
    pytest.param(
        lambda: open("/dev/full", "wb"),
        errno.ENOSPC,
        id="/dev/full",
        marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here"),
    ),
]


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["PYTHONUNBUFFERED=1", "PYTHONUNBUFFERED unset"])
@pytest.mark.parametrize("argv", [["sqrt2"], ["quad", "demo", "--count", "1860"]], ids=_id)
@pytest.mark.parametrize("sink, code", SINKS)
def test_unwritable_stdout_exits_2(sink, code, argv, unbuffered):
    with sink() as stdout:
        proc = run_python(*FLAGS, *argv, stdout=stdout, PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == 2
    [line] = proc.stderr.decode().splitlines()
    assert line.startswith(f"sulvageom {argv[0]}: error: cannot write output: [Errno {code}] ")


def test_closed_stdout_exits_2():
    # A shell's `sqrt2 >&-` starts the process with fd 1 closed: sys.stdout is
    # then None, and print would write nowhere. The launcher closes fd 1 and
    # execs the real process in its place.
    launcher = "import os, sys; os.close(1); os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"
    proc = run_python("-c", launcher, *FLAGS, "sqrt2")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == ["sulvageom sqrt2: error: cannot write output: stdout is closed"]
