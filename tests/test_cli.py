import argparse
import ast
import contextlib
import errno
import functools
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sulvageom
from sulvageom import cli, cyclic_geometry as geom
from sulvageom.cli import (
    MAX_PRECISION,
    Report,
    _nonnegative_rational,
    _positive_int,
    _rational,
    build_parser,
    cli_main,
    render_report,
)
from sulvageom.exact_numbers import rat, to_decimal, to_fraction_text


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


class TestRenderReport:
    def test_empty_report(self):
        report = Report("Nothing to see", [])
        assert render_report(report, "text", 12) == "Nothing to see"

    def test_json_round_trips_rationals(self):
        report = Report("t", [("s", [("v", rat(1224, 1393)), ("w", rat(-41, 15512448))])])
        doc = json.loads(render_report(report, "json", 12))
        assert doc["sections"][0]["rows"] == [["v", "1224/1393"], ["w", "-41/15512448"]]

    def test_data_replaces_sections_in_json_only(self):
        report = Report("t", [("s", [("w", rat(3, 4))])], {"v": rat(1, 2), "ok": True})
        assert json.loads(render_report(report, "json", 12)) == {"v": "1/2", "ok": True}
        assert render_report(report, "text", precision=2) == "t\n\ns\n  w: 3/4 (~ 0.75)"

    def test_markdown_headings(self):
        report = Report("Title", [("Section", [("k", rat(1, 2))])])
        text = render_report(report, "markdown", precision=3)
        assert text.startswith("# Title")
        assert "## Section" in text
        assert "1/2 (~ 0.500)" in text


class TestSubcommands:
    def test_sqrt2_text(self, capsys):
        code, out = run_cli(capsys, "sqrt2")
        assert code == 0
        assert "577/408" in out

    def test_pi_i60(self, capsys):
        code, out = run_cli(capsys, "pi", "i60")
        assert code == 0
        assert "676/225" in out
        assert "3.0044" in out

    def test_pi_i59(self, capsys):
        code, out = run_cli(capsys, "pi", "i59", "--precision", "4")
        assert code == 0
        assert "3.0883" in out

    def test_pi_i58(self, capsys):
        code, out = run_cli(capsys, "pi", "i58")
        assert code == 0
        assert "1224/1393" in out

    def test_verify_identities(self, capsys):
        code, out = run_cli(capsys, "verify", "identities")
        assert code == 0
        assert "exact-equal" in out
        assert "-41/15512448" in out

    def test_verify_identities_json(self, capsys):
        code, out = run_cli(capsys, "verify", "identities", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 3
        assert docs[1]["verdict"] == "exact-equal"

    def test_derive_i59_json(self, capsys):
        code, out = run_cli(capsys, "derive", "i59", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["steps"]) == 7
        assert doc["final"] == [232, 204]
        assert doc["removal"] == [232, 28]

    def test_derive_i59_text(self, capsys):
        code, out = run_cli(capsys, "derive", "i59")
        assert code == 0
        assert "(232, 204)" in out
        assert "remove 28" in out

    def test_area(self, capsys):
        code, out = run_cli(capsys, "area", "25", "25", "25", "25")
        assert code == 0
        assert "625" in out

    def test_area_degenerate_note(self, capsys):
        code, out = run_cli(capsys, "area", "3", "4", "5", "0")
        assert code == 0
        assert "no textual warrant" in out

    def test_area_not_realizable(self, capsys):
        code = cli_main(["area", "10", "1", "1", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "not realizable" in captured.err

    def test_crude(self, capsys):
        code, out = run_cli(capsys, "crude", "1", "7", "1", "7")
        assert code == 0
        assert "7/1" in out

    def test_quad_demo(self, capsys):
        code, out = run_cli(capsys, "quad", "demo", "--seed", "1", "--count", "20")
        assert code == 0
        assert out.count("bisection theorem: true") == 20

    def test_quad_demo_json(self, capsys):
        code, out = run_cli(capsys, "quad", "demo", "--seed", "1", "--count", "3", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 3
        assert docs[0]["vertices"][1] == ["7/25", "24/25"]
        assert all(d["segments_equal_portions"] and d["bisection_theorem"] for d in docs)

    def test_xii24(self, capsys):
        code, out = run_cli(capsys, "xii24", "3/4", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == "1/2"
        assert all(doc["verdicts"].values())

    @pytest.mark.parametrize(
        "argv, dashed",
        [
            (["xii24", "-3/5", "7"], ["xii24", "--", "-3/5", "7"]),
            (["xii24", "3/4", "-7/2"], ["xii24", "3/4", "--", "-7/2"]),
            (["xii24", "-3/-5", "7"], ["xii24", "--", "-3/-5", "7"]),
            (["xii24", "-1_000/3", "7"], ["xii24", "--", "-1_000/3", "7"]),
            (["xii24", "-3/+5", "7"], ["xii24", "--", "-3/+5", "7"]),
            (["xii24", "3/4", "-1_000"], ["xii24", "3/4", "--", "-1_000"]),
        ],
    )
    def test_xii24_negative_fractions(self, capsys, argv, dashed):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *dashed) == (0, out)

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["area", "-1/2", "2", "3", "4"], "argument a: expected a rational >= 0, got '-1/2'"),
            (["crude", "1", "2", "3", "-3/4"], "argument d: expected a rational >= 0, got '-3/4'"),
            (["area", "-1_000", "2", "3", "4"], "argument a: expected a rational >= 0, got '-1_000'"),
            (["area", "-1", "2", "3", "4"], "argument a: expected a rational >= 0, got '-1'"),
            (["area", "-.5", "2", "3", "4"], "argument a: expected a rational num/den, got '-.5'"),
            (["quad", "demo", "--seed", "-1/2"], "argument --seed: expected an integer >= 1, got '-1/2'"),
        ],
    )
    def test_negative_literal_reaches_its_type(self, capsys, argv, error):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"sulvageom {argv[0]}: error: {error}"


class TestExitCodes:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["nonsense"])
        assert excinfo.value.code == 2

    def test_bad_rational_literal_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["area", "x", "1", "1", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("literal", ["1/0", "x", "-1/0", "-1/x"])
    def test_bad_rational_names_no_internal_function(self, capsys, literal):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["xii24", literal, "1"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert f"expected a rational num/den, got {literal!r}" in error
        assert "parse_rational" not in error

    @pytest.mark.parametrize(
        "argv",
        [
            ["area", "1/0", "1", "1", "1"],
            ["sqrt2", "--precision", "0"],
            ["quad", "demo", "--count", "0"],
            ["quad", "demo", "--seed", "0"],
            ["xii24", "2", "-1/2"],
            ["xii24", "1", "1"],
            ["crude", "-1", "1", "1", "1"],
            ["area", "-1", "1", "1", "1"],
            ["quad", "demo", "--count", "1861"],
            ["xii24", "-x", "7"],
            ["quad", "demo", "--count", "abc"],
            ["sqrt2", "--precision", "1.5"],
            ["sqrt2", "--precision", "1001"],
            ["pi", "i59", "--precision", "5000"],
        ],
    )
    def test_bad_input_exits_2(self, capsys, argv):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err

    def test_unwritable_stdout_closes_the_devnull_descriptor(self, capsys, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        class BrokenStdout:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return write_end

        real_open = os.open
        read_end, write_end = os.pipe()
        try:
            monkeypatch.setattr(os, "open", recording_open)
            monkeypatch.setattr(sys, "stdout", BrokenStdout())
            code = cli_main(["sqrt2"])
            monkeypatch.undo()
            assert code == 2
            error = f"sulvageom sqrt2: error: cannot write output: [Errno {errno.EPIPE}] Broken pipe\n"
            assert capsys.readouterr().err == error
            [fd] = opened
            with pytest.raises(OSError):
                os.fstat(fd)
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_count_bound_is_the_demo_limit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["quad", "demo", "--count", "1861"])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["sulvageom quad: error: argument --count: expected an integer <= 1860, got '1861'"]
        code, out = run_cli(capsys, "quad", "demo", "--count", "1860")
        assert code == 0
        assert out.count("bisection theorem: true") == 1860

    def test_precision_bound_is_1000(self, capsys):
        code, out = run_cli(capsys, "sqrt2", "--precision", "1000")
        assert code == 0
        assert f"decimal: {to_decimal(rat(577, 408), 1000)}\n" in out

    @pytest.mark.parametrize("fmt", ["text", "markdown", "json"])
    @pytest.mark.parametrize(
        "target, fake, argv, falses",
        [
            ("orthodiagonal_verdicts", lambda real: lambda quad: (True, False), ["quad", "demo", "--count", "2"], 2),
            (
                "xii24_verify",
                lambda real: lambda *a: real(*a)._replace(height_is_mean=False),
                ["xii24", "3/4", "7"],
                1,
            ),
        ],
    )
    def test_false_verdict_exits_1(self, capsys, monkeypatch, target, fake, argv, falses, fmt):
        monkeypatch.setattr(geom, target, fake(getattr(geom, target)))
        code, out = run_cli(capsys, *argv, "--format", fmt)
        assert code == 1
        assert out.count(": false") == falses

    def test_every_exception_class_is_caught_by_cli_main(self):
        # A refusal gets its own class only when cli_main tells it apart;
        # any other refusal is a plain ValueError.
        modules = [importlib.import_module(f"sulvageom.{m.name}") for m in pkgutil.iter_modules(sulvageom.__path__)]
        defined = {
            name
            for module in modules
            for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        }
        tree = ast.parse(inspect.getsource(cli_main))
        handlers = [node.type for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
        caught = {node.attr for handler in handlers for node in ast.walk(handler) if isinstance(node, ast.Attribute)}
        assert defined
        assert defined <= caught


def _literal(sign, num, den, pad):
    return pad + (f"{sign}{num}" if den is None else f"{sign}{num}/{den}") + pad


# Command-line literals: small and few-thousand-digit integers, with or
# without a denominator (zero included), signs, spaces, and some junk.
_numbers = st.integers(0, 50) | st.builds(lambda k, m: m * 10**k + 1, st.integers(0, 2500), st.integers(1, 9))
_literals = st.builds(
    _literal, st.sampled_from(["", "-", "+"]), _numbers, st.none() | _numbers, st.sampled_from(["", " "])
) | st.sampled_from(["x", "1/2/3", "", "-x", "0/0"])
_precisions = st.integers(MAX_PRECISION - 2, MAX_PRECISION + 2).map(str) | st.integers(-1, 20).map(str) | _literals
_options = st.lists(
    st.tuples(st.just("--format"), st.sampled_from(["text", "markdown", "json"]))
    | st.tuples(st.just("--precision"), _precisions),
    max_size=2,
).map(lambda pairs: [word for pair in pairs for word in pair])

_COMMANDS = [
    ["sqrt2"], ["pi", "i58"], ["pi", "i59"], ["pi", "i60"], ["verify", "identities"], ["derive", "i59"],
    ["area"], ["crude"], ["quad", "demo"], ["xii24"],
]
_ARITY = {"area": 4, "crude": 4, "xii24": 2}


@st.composite
def _argvs(draw):
    argv = list(draw(st.sampled_from(_COMMANDS)))
    if argv[0] in _ARITY:
        argv += draw(st.lists(_literals, min_size=_ARITY[argv[0]], max_size=_ARITY[argv[0]]))
    elif argv[0] == "quad":
        argv += ["--seed", draw(_literals), "--count", draw(st.integers(-1, 4).map(str) | st.just("1861") | _literals)]
    return argv + draw(_options)


@settings(max_examples=150, deadline=None)
@given(argv=_argvs())
def test_cli_boundary_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.count("error:") == 1
    elif code == 1:
        assert ": false" in out or err.startswith("not realizable: ")


def run_cli_code(argv):
    """cli_main's exit status and stdout, with argparse's SystemExit read as the status."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# The unsigned, unpadded _literals, built directly: filtering _literals for a
# leading digit kept too few draws (8 of 58 in one failing run) and tripped
# hypothesis's filter_too_much health check. The two digit-first junk literals,
# 1/2/3 and 0/0, are left out: _rational refuses both, so the test discarded them.
@settings(max_examples=100, deadline=None)
@given(literal=st.builds(_literal, st.just(""), _numbers, st.none() | _numbers, st.just("")))
@example(literal="1_000/3")
@example(literal="3/+5")
def test_negative_literal_reads_as_after_a_double_dash(literal):
    try:
        _rational(literal)
    except argparse.ArgumentTypeError:
        assume(False)
    assert run_cli_code(["xii24", f"-{literal}", "7"]) == run_cli_code(["xii24", "--", f"-{literal}", "7"])


def oracle_parse_rational(text):
    """The literal parser that cli._rational replaced, kept as its oracle."""
    parts = text.strip().split("/")
    if len(parts) == 1:
        return rat(int(parts[0]))
    if len(parts) == 2:
        return rat(int(parts[0]), int(parts[1]))
    raise ValueError(f"not a rational literal: {text!r}")


def test_rational_literal():
    assert _rational("1224/1393") == rat(1224, 1393)
    assert _rational("-5") == rat(-5)
    with pytest.raises(argparse.ArgumentTypeError):
        _rational("1/2/3")


@settings(max_examples=300, deadline=None)
@given(text=_literals | st.text() | st.text(alphabet="10-+/x_\u0663 \t", max_size=6))
@example(text="0\x1f")
@example(text="\x1c1/2\x1d")
@example(text="1\x1f/2")
def test_rational_accepts_what_the_old_parser_did(text):
    try:
        expected = oracle_parse_rational(text)
    except ValueError:
        with pytest.raises(argparse.ArgumentTypeError):
            _rational(text)
    else:
        value = _rational(text)
        assert type(value) is Fraction
        assert value == expected


class TestLargeValues:
    # 2200-digit sides: the radicand has about 8800 digits, more than the
    # 4300 that Python's str() prints by default.
    SIDES = [Fraction(10**2199 + k, 3) for k in (1, 2, 4, 5)]

    @pytest.mark.parametrize("fmt", ["text", "markdown", "json"])
    def test_area_prints_the_radicand_in_full(self, capsys, fmt):
        code, out = run_cli(capsys, "area", *(f"{s.numerator}/{s.denominator}" for s in self.SIDES), "--format", fmt)
        assert code == 0
        half_sum = sum(self.SIDES) / 2
        radicand = math.prod(half_sum - side for side in self.SIDES)
        assert radicand.denominator != 1
        whole, rest = divmod(radicand.numerator, radicand.denominator)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = f"{radicand.numerator}/{radicand.denominator}"
            decimal = f"{whole}.{rest * 10**12 // radicand.denominator:012d}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(text) > limit
        assert out.count(text) == 2
        assert (f"(~ {decimal})" in out) == (fmt != "json")

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["area", "7" * 4301, "1", "1", "1"], "a"),
            (["xii24", "7" * 4301, "7"], "t"),
            (["quad", "demo", "--seed", "7" * 4301], "--seed"),
            (["quad", "demo", "--count", "7" * 4301], "--count"),
            (["sqrt2", "--precision", "7" * 4301], "--precision"),
        ],
    )
    def test_literal_past_the_str_limit_exits_2(self, capsys, argv, name):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert captured.err.endswith(
            f"sulvageom {argv[0]}: error: argument {name}: an integer in this literal has more than 4300 digits\n"
        )
        assert "7" * 10 not in captured.err

    def test_refused_long_side_is_named_by_letter(self, capsys):
        code = cli_main(["area", "7" * 4300, "1", "1", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "not realizable: half-sum minus side a is not positive\n"

    def test_side_at_the_str_limit_exits_0(self, capsys):
        side = "7" * 4300
        code, out = run_cli(capsys, "area", side, side, side, side)
        assert code == 0
        area = next(line for line in out.splitlines() if line.startswith("  area: "))
        assert Decimal(area.removeprefix("  area: ").removesuffix("/1")) == int(side) ** 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "identities", "--format", "json"],
            ["derive", "i59", "--format", "markdown"],
            ["quad", "demo", "--seed", "4", "--count", "5", "--format", "json"],
        ],
    )
    def test_byte_identical_across_runs(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


def oracle_cmd_quad(args):
    """The quad demo as it ran when it built every format's rows and items,
    whichever format was asked for, kept as its oracle."""
    items, sections = [], []
    for i, quad in enumerate(geom.orthodiagonal_generator(args.seed, args.count), start=1):
        ortho, bisect = geom.orthodiagonal_verdicts(quad)
        items.append(
            {
                "r": quad.r,
                "vertices": quad.vertices,
                "segments_equal_portions": ortho,
                "bisection_theorem": bisect,
            }
        )
        d1, d2 = geom.diagonal_lengths_sq(quad)
        rows = [
            ("vertices", "; ".join(f"({v.x}, {v.y})" for v in quad.vertices)),
            ("area", geom.shoelace_area(quad)),
            ("diagonals squared", f"{d1}, {d2}"),
            ("segments equal portions", ortho),
            ("bisection theorem", bisect),
        ]
        sections.append((f"quad {i}", rows))
    return Report(f"Orthodiagonal demo (seed {args.seed}, count {args.count})", sections, items)


def exit_status(report):
    """The status cli_main gives a report it printed: 1 when a boolean row is false."""
    return 1 if any(value is False for _, rows in report.sections for _, value in rows) else 0


@pytest.mark.parametrize("count", [1, 37, 1860])
@pytest.mark.parametrize("seed", [1, 2, 9, 12345, 999983])
def test_quad_demo_matches_the_oracle(seed, count):
    # The report does not depend on --precision, so each one is built once
    # per format and rendered at every precision.
    expected = oracle_cmd_quad(argparse.Namespace(seed=seed, count=count))
    for fmt in ("text", "markdown", "json"):
        args = build_parser().parse_args(["quad", "demo", "--seed", str(seed), "--count", str(count), "--format", fmt])
        report = args.func(args)
        assert exit_status(report) == exit_status(expected) == 0
        for precision in (4, 12, 30):
            assert render_report(report, fmt, precision) == render_report(expected, fmt, precision)
    # Each rational in JSON is its reduced num/den: "0/2" reads as the same Fraction as "0/1".
    texts = [t for quad in json.loads(render_report(report, "json", 4)) for t in (quad["r"], *sum(quad["vertices"], []))]
    assert all(t == to_fraction_text(Fraction(t)) for t in texts)


class TestCachedParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_no_state_carried_between_calls(self, capsys):
        golden = Path(__file__).parent / "golden" / "quad-demo-seed-9.md"
        argv = ["quad", "demo", "--seed", "9", "--count", "6", "--format", "markdown"]
        first = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["xii24", "-x", "7"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["quad", "demo", "--count", "1861"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *argv) == first == (0, golden.read_text())


def _surface(parser):
    """Each of parser's actions, in order, as (option strings or dest, default, choices, type, help)."""
    rows = []
    for action in parser._actions:
        kind = action.type
        if isinstance(kind, functools.partial):
            kind = (kind.func, kind.args, kind.keywords)
        choices = None if action.choices is None else tuple(action.choices)
        rows.append((tuple(action.option_strings) or action.dest, action.default, choices, kind, action.help))
    return rows


SIDES = [(name, None, None, _nonnegative_rational, None) for name in "abcd"]
PRECISION_TYPE = (_positive_int, (), {"limit": MAX_PRECISION})

# Each subcommand: its handler, its summary in the top-level help, and its own arguments.
SUBCOMMANDS = {
    "derive": (cli._cmd_derive, "replay a scripted rule derivation", [("rule", None, ("i59",), None, None)]),
    "verify": (cli._cmd_verify, "run the exact identity checks", [("what", None, ("identities",), None, None)]),
    "sqrt2": (cli._cmd_sqrt2, "evaluate the diagonal rule I.61-62", []),
    "pi": (
        cli._cmd_pi,
        "circle constant implied by a quadrature rule",
        [("rule", None, ("i58", "i59", "i60"), None, None)],
    ),
    "area": (cli._cmd_area, "exact cyclic quadrilateral area from four sides", SIDES),
    "crude": (cli._cmd_crude, "order-sensitive crude area estimate", SIDES),
    "quad": (
        cli._cmd_quad,
        "orthodiagonal quad demo with theorem checks",
        [
            ("mode", None, ("demo",), None, None),
            (("--seed",), 1, None, _positive_int, None),
            (("--count",), 10, None, (_positive_int, (), {"limit": geom.DEMO_QUAD_LIMIT}), None),
        ],
    ),
    "xii24": (
        cli._cmd_xii24,
        "half-oblong derivation check on the unit circle",
        [("t", None, None, _rational, None), ("u", None, None, _rational, None)],
    ),
}


class TestParserSurface:
    """The parser's arguments, defaults, types and help texts, which its help and usage print."""

    def _subparsers(self):
        [sub] = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
        return sub

    def test_top_level(self):
        parser = build_parser()
        assert parser.prog == "sulvageom"
        assert parser.description.startswith("Exact rational evaluation of the circle-square rules")
        sub = self._subparsers()
        assert (sub.dest, sub.required) == ("command", True)
        assert [(a.dest, a.help) for a in sub._choices_actions] == [(n, s) for n, (_, s, _) in SUBCOMMANDS.items()]

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand(self, name):
        func, _, own = SUBCOMMANDS[name]
        parser = self._subparsers().choices[name]
        assert parser.prog == f"sulvageom {name}"
        assert _surface(parser) == [
            (("-h", "--help"), argparse.SUPPRESS, None, None, "show this help message and exit"),
            (("--format",), "text", ("text", "markdown", "json"), None, None),
            (("--precision",), 12, None, PRECISION_TYPE, "decimal digits in annotations"),
            *own,
        ]
        assert parser.get_default("func") is func
        assert parser._negative_number_matcher.pattern == r"^-\.?\d"

    @pytest.mark.parametrize("name", ["", *SUBCOMMANDS])
    def test_help_exits_0(self, capsys, name):
        argv = [name, "-h"] if name else ["-h"]
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: sulvageom {name} [-h] [--format" if name else "usage: sulvageom [-h] {derive,")


ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv, stdout=subprocess.PIPE, **variables):
    """A fresh interpreter that imports the package from this checkout. Each
    keyword sets an environment variable, or unsets it when None."""
    env = {name: value for name, value in {**os.environ, **variables}.items() if value is not None}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)


def test_python_dash_m_entry_point():
    proc = run_python("-m", "sulvageom", "sqrt2")
    assert proc.returncode == 0
    assert proc.stdout == (ROOT / "tests" / "golden" / "sqrt2.txt").read_bytes()


def test_import_builds_neither_cache():
    # The parser and the demo's point grid are built on first use, so an
    # import costs neither; nor does it load dataclasses, inspect or the
    # symbolic oracle sympy. The package is its four modules, one per
    # source text plus exact_numbers and cli, and no alias of a former one.
    proc = run_python(
        "-c",
        "import sys; from sulvageom import cli, cyclic_geometry as g; "
        "print(cli.build_parser.cache_info().currsize, g._demo_point.cache_info().currsize, "
        "*sorted({'dataclasses', 'inspect', 'sympy'} & set(sys.modules))); "
        "print(*sorted(name for name in sys.modules if name.startswith('sulvageom')))",
    )
    assert proc.returncode == 0, proc.stderr
    counts, modules = proc.stdout.splitlines()
    assert counts.split() == [b"0", b"0"]
    assert modules.split() == [
        b"sulvageom",
        b"sulvageom.cli",
        b"sulvageom.cyclic_geometry",
        b"sulvageom.exact_numbers",
        b"sulvageom.sulva_rules",
    ]
