"""Command-line front end: renders the rule evaluations, identity checks,
derivation trace, and geometric demos as text, markdown, or JSON.

Exit codes: 0 success, 1 a verdict shown is false or the sides are not
realizable, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import cyclic_geometry as geom
from . import scale_calculus as scale
from . import sulva_rules as rules
from .exact_numbers import parse_rational, rat, sqrt_exact, to_decimal, to_fraction_text

Row = tuple[str, object]


@dataclass
class Report:
    title: str
    sections: list[tuple[str, list[Row]]] = field(default_factory=list)
    # A command's own JSON document, rendered in place of title and sections.
    data: object = None

    def add(self, heading: str, rows: list[Row]) -> None:
        self.sections.append((heading, rows))


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


def render_report(report: Report, fmt: str = "text", precision: int = 12) -> str:
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


def _pi_error_rows(value: Fraction, precision: int) -> list[Row]:
    error = rules.pi_reference() - value
    return [
        ("implied circle constant", value),
        ("decimal", to_decimal(value, precision)),
        ("error vs 50-digit pi literal", to_decimal(error, precision)),
    ]


def _cmd_sqrt2(args: argparse.Namespace) -> Report:
    rule = rules.sqrt2_i61()
    residual = rule.value * rule.value - rat(2)
    report = Report("Diagonal rule I.61-62")
    report.add(
        "value",
        [
            ("terms", " + ".join(to_fraction_text(t) for t in rule.term_list)),
            ("value", rule.value),
            ("decimal", to_decimal(rule.value, args.precision)),
            ("square minus 2", residual),
        ],
    )
    return report


def _cmd_pi(args: argparse.Namespace) -> Report:
    if args.rule == "i59":
        ratio = rules.quadrature_ratio_i59()
    elif args.rule == "i60":
        ratio = rules.quadrature_ratio_i60()
    else:  # i58, via the inverted circulature at the I.61-62 diagonal value
        ratio = rat(1) / rules.diameter_over_side_i58(rules.sqrt2_i61().value)
    report = Report(f"Circle constant implied by rule {args.rule}")
    report.add("result", [("side over diameter", ratio)] + _pi_error_rows(rules.implied_pi(ratio), args.precision))
    return report


def _cmd_verify(args: argparse.Namespace) -> Report:
    reports = rules.verify_decompositions()
    out = Report("Exact identity checks", data=[vars(r) for r in reports])
    for r in reports:
        out.add(r.name, [("left", r.left), ("right", r.right), ("residual", r.residual), ("verdict", r.verdict)])
    return out


def _cmd_derive(args: argparse.Namespace) -> Report:
    trace = scale.derive_i59_trace()
    removal = scale.removal_form(trace.final)
    final = (trace.final.p, trace.final.q)
    steps = []
    out = Report("Reconstruction of quadrature rule I.59", data={"steps": steps, "final": final, "removal": removal})
    for i, step in enumerate(trace.steps, start=1):
        entry = {
            "description": step.description,
            "before": (step.before.p, step.before.q) if step.before else None,
            "after": (step.after.p, step.after.q),
            "anchor": step.anchor,
        }
        steps.append(entry)
        rows: list[Row] = [(key, value) for key, value in entry.items() if value is not None]
        rows.insert(-1, ("ratio", scale.as_ratio(step.after)))
        out.add(f"step {i}", rows)
    out.add(
        "result",
        [
            ("final", final),
            ("removal form", f"divide into {removal[0]} parts, remove {removal[1]}"),
        ],
    )
    return out


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
    report = Report("Cyclic quadrilateral area")
    report.add("result", rows)
    return report


def _cmd_crude(args: argparse.Namespace) -> Report:
    report = Report("Crude area (order-sensitive)")
    report.add("result", [("value", geom.crude_area(args.a, args.b, args.c, args.d))])
    return report


def _cmd_quad(args: argparse.Namespace) -> Report:
    items = []
    out = Report(f"Orthodiagonal demo (seed {args.seed}, count {args.count})", data=items)
    for i, quad in enumerate(geom.orthodiagonal_generator(args.seed, args.count), start=1):
        ortho = geom.segments_equal_portions(quad)
        bisect = ortho and geom.brahmagupta_theorem_check(quad)
        items.append(
            {
                "r": quad.r,
                "vertices": [(v.x, v.y) for v in quad.vertices],
                "segments_equal_portions": ortho,
                "bisection_theorem": bisect,
            }
        )
        d1, d2 = geom.diagonal_lengths_sq(quad)
        out.add(
            f"quad {i}",
            [
                ("vertices", "; ".join(f"({v.x}, {v.y})" for v in quad.vertices)),
                ("area", geom.shoelace_area(quad)),
                ("diagonals squared", f"{d1}, {d2}"),
                ("segments equal portions", ortho),
                ("bisection theorem", bisect),
            ],
        )
    return out


# Text labels of the half-oblong verdicts, keyed by their JSON names.
_XII24_VERDICTS = {
    "segment_from_side": "alpha^2 = a^2 - h^2",
    "segment_from_upright": "beta^2 = b^2 - h^2",
    "height_is_mean": "h^4 = alpha^2 beta^2",
    "base_from_sum": "gamma^2 = a^2 + b^2",
}


def _cmd_xii24(args: argparse.Namespace) -> Report:
    result = geom.xii24_verify(args.t, args.u, rat(1))
    squares = ("a_sq", "b_sq", "gamma_sq", "alpha_sq", "beta_sq", "h_sq")
    quantities = {"lambda": result.lam} | {name: getattr(result, name) for name in squares}
    verdicts = {name: getattr(result, name) for name in _XII24_VERDICTS}
    out = Report(f"Half-oblong check at t = {args.t}, u = {args.u}", data={**quantities, "verdicts": verdicts})
    out.add("quantities", [(name.replace("_sq", "^2"), value) for name, value in quantities.items()])
    out.add("verdicts", [(_XII24_VERDICTS[name], value) for name, value in verdicts.items()])
    return out


def _positive_int(text: str) -> int:
    """argparse type for digit counts, seeds and quad counts."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _nonnegative_rational(text: str) -> Fraction:
    """argparse type for side lengths."""
    try:
        value = parse_rational(text)
    except ValueError:
        value = rat(-1)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a rational >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sulvageom",
        description="Exact rational evaluation of the circle-square rules and cyclic quadrilateral propositions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "markdown", "json"), default="text")
    common.add_argument("--precision", type=_positive_int, default=12, help="decimal digits in annotations")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", parents=[common], help="replay a scripted rule derivation")
    p.add_argument("rule", choices=("i59",))
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("verify", parents=[common], help="run the exact identity checks")
    p.add_argument("what", choices=("identities",))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sqrt2", parents=[common], help="evaluate the diagonal rule I.61-62")
    p.set_defaults(func=_cmd_sqrt2)

    p = sub.add_parser("pi", parents=[common], help="circle constant implied by a quadrature rule")
    p.add_argument("rule", choices=("i58", "i59", "i60"))
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("area", parents=[common], help="exact cyclic quadrilateral area from four sides")
    for name in "abcd":
        p.add_argument(name, type=_nonnegative_rational)
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("crude", parents=[common], help="order-sensitive crude area estimate")
    for name in "abcd":
        p.add_argument(name, type=_nonnegative_rational)
    p.set_defaults(func=_cmd_crude)

    p = sub.add_parser("quad", parents=[common], help="orthodiagonal quad demo with theorem checks")
    p.add_argument("mode", choices=("demo",))
    p.add_argument("--seed", type=_positive_int, default=1)
    p.add_argument("--count", type=_positive_int, default=10)
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("xii24", parents=[common], help="half-oblong derivation check on the unit circle")
    # Read -3/5 as a negative parameter, as argparse already reads -3.
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    p.add_argument("t", type=parse_rational)
    p.add_argument("u", type=parse_rational)
    p.set_defaults(func=_cmd_xii24)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except geom.NotRealizable as exc:
        print(f"not realizable: {exc}", file=sys.stderr)
        return 1
    except (geom.DegenerateBase, geom.CountTooLarge) as exc:  # bad input, not a failed verdict
        print(f"sulvageom {args.command}: error: {exc}", file=sys.stderr)
        return 2
    print(render_report(report, args.format, args.precision))
    # A verdict is a boolean row; exit 1 when any of them fails.
    return 1 if any(value is False for _, rows in report.sections for _, value in rows) else 0


def run() -> None:
    raise SystemExit(cli_main())
