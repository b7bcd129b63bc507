"""Command-line front end: renders the rule evaluations, identity checks,
derivation trace, and geometric demos as text, markdown, or JSON.

Exit codes: 0 success, 1 a verdict shown is false or the sides are not
realizable, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

from . import cyclic_geometry as geom
from . import sulva_rules as rules
from .exact_numbers import rat, sqrt_exact, to_decimal, to_fraction_text

Row = tuple[str, object]


# A title and a list of (heading, rows) sections; data, if given, replaces both in the JSON format.
Report = namedtuple("Report", "title sections data", defaults=(None,))


# Title, heading and row prefixes of the two human-readable formats.
_PREFIXES = {"text": ("", "", "  "), "markdown": ("# ", "## ", "- ")}


def _fmt_value(value: object, precision: int) -> str:
    if isinstance(value, Fraction):
        text = to_fraction_text(value)
        if value.denominator != 1:
            text += f" (~ {to_decimal(value, precision)})"
        return text
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_report(report: Report, fmt: str, precision: int) -> str:
    """Deterministic rendering; rationals appear as num/den, with a
    truncated decimal annotation in the human-readable formats."""
    if fmt == "json":
        doc = report.data
        if doc is None:
            doc = {
                "title": report.title,
                "sections": [{"heading": heading, "rows": rows} for heading, rows in report.sections],
            }
        return json.dumps(doc, indent=2, default=to_fraction_text)
    title, heading_prefix, row_prefix = _PREFIXES[fmt]
    lines = [title + report.title]
    for heading, rows in report.sections:
        lines += ["", heading_prefix + heading]
        lines += [f"{row_prefix}{key}: {_fmt_value(value, precision)}" for key, value in rows]
    return "\n".join(lines)


def _cmd_sqrt2(args: argparse.Namespace) -> Report:
    terms = rules.sqrt2_i61()
    value = sum(terms)
    rows: list[Row] = [
        ("terms", " + ".join(to_fraction_text(t) for t in terms)),
        ("value", value),
        ("decimal", to_decimal(value, args.precision)),
        ("square minus 2", value * value - 2),
    ]
    return Report("Diagonal rule I.61-62", [("value", rows)])


# The quadrature rules that `pi` evaluates, by command-line name.
_PI_RULES = {
    "i58": rules.quadrature_ratio_i58,
    "i59": rules.quadrature_ratio_i59,
    "i60": rules.quadrature_ratio_i60,
}


def _cmd_pi(args: argparse.Namespace) -> Report:
    ratio = _PI_RULES[args.rule]()
    value = rules.implied_pi(ratio)
    rows: list[Row] = [("side over diameter", ratio), ("implied circle constant", value)]
    rows.append(("decimal", to_decimal(value, args.precision)))
    rows.append(("error vs 50-digit pi literal", to_decimal(rules.PI_REFERENCE - value, args.precision)))
    return Report(f"Circle constant implied by rule {args.rule}", [("result", rows)])


def _cmd_verify(args: argparse.Namespace) -> Report:
    reports = rules.verify_decompositions()
    sections = [(r.name, [(key, getattr(r, key)) for key in ("left", "right", "residual", "verdict")]) for r in reports]
    return Report("Exact identity checks", sections, [r._asdict() for r in reports])


def _cmd_derive(args: argparse.Namespace) -> Report:
    trace = rules.derive_i59_trace()
    removal = rules.removal_form(trace[-1].after)
    final = (trace[-1].after.p, trace[-1].after.q)
    steps, sections = [], []
    for i, step in enumerate(trace, start=1):
        entry = {
            "description": step.description,
            "before": steps[-1]["after"] if steps else None,
            "after": (step.after.p, step.after.q),
            "anchor": step.anchor,
        }
        steps.append(entry)
        rows: list[Row] = [(key, value) for key, value in entry.items() if value is not None]
        rows.insert(-1, ("ratio", Fraction(step.after.q, step.after.p)))
        sections.append((f"step {i}", rows))
    result = [("final", final), ("removal form", f"divide into {removal[0]} parts, remove {removal[1]}")]
    data = {"steps": steps, "final": final, "removal": removal}
    return Report("Reconstruction of quadrature rule I.59", [*sections, ("result", result)], data)


def _cmd_area(args: argparse.Namespace) -> Report:
    radicand = geom.brahmagupta_radicand(args.a, args.b, args.c, args.d)
    root = sqrt_exact(radicand)
    rows: list[Row] = [("radicand", radicand)]
    if root is not None:
        rows.append(("area", root))
    else:
        rows.append(("area", f"irrational; squared area is {to_fraction_text(radicand)}"))
    if any(side == 0 for side in (args.a, args.b, args.c, args.d)):
        rows.append(("note", "degenerate vanishing side: a triangle read, with no textual warrant"))
    return Report("Cyclic quadrilateral area", [("result", rows)])


def _cmd_crude(args: argparse.Namespace) -> Report:
    rows: list[Row] = [("value", geom.crude_area(args.a, args.b, args.c, args.d))]
    return Report("Crude area (order-sensitive)", [("result", rows)])


def _cmd_quad(args: argparse.Namespace) -> Report:
    items, sections = [], []
    as_json = args.format == "json"
    for i, quad in enumerate(geom.orthodiagonal_generator(args.seed, args.count), start=1):
        ortho, bisect = geom.orthodiagonal_verdicts(quad)
        rows: list[Row] = [("segments equal portions", ortho), ("bisection theorem", bisect)]
        if as_json:
            # JSON prints only the items; cli_main still reads the exit status off these verdict rows.
            # Strings made here, not by json.dumps' default hook: same bytes, but the hook is slower per value.
            items.append(
                {
                    "r": to_fraction_text(quad.r),
                    "vertices": [[to_fraction_text(v.x), to_fraction_text(v.y)] for v in quad.vertices],
                    "segments_equal_portions": ortho,
                    "bisection_theorem": bisect,
                }
            )
        else:
            d1, d2 = geom.diagonal_lengths_sq(quad)
            rows = [
                ("vertices", "; ".join(f"({v.x}, {v.y})" for v in quad.vertices)),
                ("area", geom.shoelace_area(quad)),
                ("diagonals squared", f"{d1}, {d2}"),
                *rows,
            ]
        sections.append((f"quad {i}", rows))
    return Report(f"Orthodiagonal demo (seed {args.seed}, count {args.count})", sections, items)


# Text labels of the half-oblong verdicts, keyed by their JSON names.
_XII24_VERDICTS = {
    "segment_from_side": "alpha^2 = a^2 - h^2",
    "segment_from_upright": "beta^2 = b^2 - h^2",
    "height_is_mean": "h^4 = alpha^2 beta^2",
    "base_from_sum": "gamma^2 = a^2 + b^2",
}


def _cmd_xii24(args: argparse.Namespace) -> Report:
    result = geom.xii24_verify(args.t, args.u, 1)
    squares = ("a_sq", "b_sq", "gamma_sq", "alpha_sq", "beta_sq", "h_sq")
    quantities = {"lambda": result.lam} | {name: getattr(result, name) for name in squares}
    verdicts = {name: getattr(result, name) for name in _XII24_VERDICTS}
    sections = [
        ("quantities", [(name.replace("_sq", "^2"), value) for name, value in quantities.items()]),
        ("verdicts", [(_XII24_VERDICTS[name], value) for name, value in verdicts.items()]),
    ]
    return Report(f"Half-oblong check at t = {args.t}, u = {args.u}", sections, {**quantities, "verdicts": verdicts})


def _int(text: str) -> int:
    """int(text), with a digit string past Python's str-conversion limit refused by name."""
    try:
        return int(text)
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # int()'s refusal of a too-long digit string
            message = f"an integer in this literal has more than {sys.get_int_max_str_digits()} digits"
            raise argparse.ArgumentTypeError(message) from None
        raise


def _positive_int(text: str, limit: int | None = None) -> int:
    """argparse type for digit counts, seeds and quad counts, capped at limit if given."""
    try:
        value = _int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    if limit is not None and value > limit:
        raise argparse.ArgumentTypeError(f"expected an integer <= {limit}, got {text!r}")
    return value


# Largest --precision: each decimal annotation scales its value by 10**precision.
MAX_PRECISION = 1000


def _rational(text: str) -> Fraction:
    """argparse type for a num/den or integer literal."""
    # Strip first: str.strip() drops the separators U+001C..U+001F, int() does not.
    num, slash, den = text.strip().partition("/")
    try:
        return rat(_int(num), _int(den) if slash else 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a rational num/den, got {text!r}") from None


def _nonnegative_rational(text: str) -> Fraction:
    """argparse type for side lengths."""
    value = _rational(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a rational >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sulvageom",
        description="Exact rational evaluation of the circle-square rules and cyclic quadrilateral propositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    precision = functools.partial(_positive_int, limit=MAX_PRECISION)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=("text", "markdown", "json"), default="text")
        p.add_argument("--precision", type=precision, default=12, help="decimal digits in annotations")
        # No option starts with "-" and a digit, so a word such as -3/5, -1_000/3 or -.5 is a value, which its
        # argument's type reads or refuses by name; argparse's own matcher would take -3/5 for an option.
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.set_defaults(func=func)
        return p

    command("derive", _cmd_derive, "replay a scripted rule derivation").add_argument("rule", choices=("i59",))
    command("verify", _cmd_verify, "run the exact identity checks").add_argument("what", choices=("identities",))
    command("sqrt2", _cmd_sqrt2, "evaluate the diagonal rule I.61-62")
    command("pi", _cmd_pi, "circle constant implied by a quadrature rule").add_argument("rule", choices=_PI_RULES)
    for name, func, summary in [
        ("area", _cmd_area, "exact cyclic quadrilateral area from four sides"),
        ("crude", _cmd_crude, "order-sensitive crude area estimate"),
    ]:
        p = command(name, func, summary)
        for side in "abcd":
            p.add_argument(side, type=_nonnegative_rational)
    p = command("quad", _cmd_quad, "orthodiagonal quad demo with theorem checks")
    p.add_argument("mode", choices=("demo",))
    p.add_argument("--seed", type=_positive_int, default=1)
    p.add_argument("--count", type=functools.partial(_positive_int, limit=geom.DEMO_QUAD_LIMIT), default=10)
    p = command("xii24", _cmd_xii24, "half-oblong derivation check on the unit circle")
    p.add_argument("t", type=_rational)
    p.add_argument("u", type=_rational)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except geom.NotRealizable as exc:
        print(f"not realizable: {exc}", file=sys.stderr)
        return 1
    except geom.DegenerateBase as exc:  # bad input that no single argument shows
        print(f"sulvageom {args.command}: error: {exc}", file=sys.stderr)
        return 2
    text = render_report(report, args.format, args.precision)
    try:
        if sys.stdout is None:  # started with stdout closed, where print writes nowhere
            raise OSError("stdout is closed")
        print(text, flush=True)
    except OSError as exc:
        if sys.stdout is not None:
            # Point stdout at devnull, so that the flush at exit does not fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"sulvageom {args.command}: error: cannot write output: {exc}", file=sys.stderr)
        return 2
    # A verdict is a boolean row; exit 1 when any of them fails.
    return 1 if any(value is False for _, rows in report.sections for _, value in rows) else 0


def run() -> None:
    raise SystemExit(cli_main())
