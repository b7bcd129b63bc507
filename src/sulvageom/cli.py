"""Command-line front end: renders the rule evaluations, identity checks,
derivation trace, and geometric demos as text, markdown, or JSON.

Exit codes: 0 success, 1 at least one failed verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
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

    def add(self, heading: str, rows: list[Row]) -> None:
        self.sections.append((heading, rows))


def _fmt_value(value: object, precision: int, annotate: bool) -> str:
    if isinstance(value, Fraction):
        text = to_fraction_text(value)
        if annotate and value.denominator != 1:
            text += f" (~ {to_decimal(value, precision)})"
        return text
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_value(value: object) -> object:
    if isinstance(value, Fraction):
        return to_fraction_text(value)
    return value


def render_report(report: Report, fmt: str = "text", precision: int = 12) -> str:
    """Deterministic rendering; rationals appear as num/den, with a
    truncated decimal annotation in the human-readable formats."""
    if fmt == "json":
        payload = {
            "title": report.title,
            "sections": [
                {"heading": heading, "rows": [[key, _json_value(v)] for key, v in rows]}
                for heading, rows in report.sections
            ],
        }
        return json.dumps(payload, indent=2)
    lines: list[str] = []
    if fmt == "markdown":
        lines.append(f"# {report.title}")
        for heading, rows in report.sections:
            lines.append("")
            lines.append(f"## {heading}")
            for key, value in rows:
                lines.append(f"- {key}: {_fmt_value(value, precision, True)}")
    else:
        lines.append(report.title)
        for heading, rows in report.sections:
            lines.append("")
            lines.append(heading)
            for key, value in rows:
                lines.append(f"  {key}: {_fmt_value(value, precision, True)}")
    return "\n".join(lines)


def _pi_error_rows(value: Fraction, precision: int) -> list[Row]:
    error = rules.pi_reference() - value
    return [
        ("implied circle constant", value),
        ("decimal", to_decimal(value, precision)),
        ("error vs 50-digit pi literal", to_decimal(error, precision)),
    ]


def _cmd_sqrt2(args: argparse.Namespace) -> int:
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
    print(render_report(report, args.format, args.precision))
    return 0


def _cmd_pi(args: argparse.Namespace) -> int:
    if args.rule == "i59":
        ratio = rules.quadrature_ratio_i59()
    elif args.rule == "i60":
        ratio = rules.quadrature_ratio_i60()
    else:  # i58, via the inverted circulature at the I.61-62 diagonal value
        ratio = rat(1) / rules.diameter_over_side_i58(rules.sqrt2_i61().value)
    report = Report(f"Circle constant implied by rule {args.rule}")
    report.add("result", [("side over diameter", ratio)] + _pi_error_rows(rules.implied_pi(ratio), args.precision))
    print(render_report(report, args.format, args.precision))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = rules.verify_decompositions()
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
        return 0
    out = Report("Exact identity checks")
    for r in reports:
        out.add(r.name, [("left", r.left), ("right", r.right), ("residual", r.residual), ("verdict", r.verdict)])
    print(render_report(out, args.format, args.precision))
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    trace = scale.derive_i59_trace()
    removal = scale.removal_form(trace.final)
    if args.format == "json":
        payload = scale.trace_to_dict(trace)
        payload["removal"] = list(removal)
        print(json.dumps(payload, indent=2))
        return 0
    out = Report("Reconstruction of quadrature rule I.59")
    for i, step in enumerate(trace.steps, start=1):
        rows: list[Row] = [("description", step.description)]
        if step.before is not None:
            rows.append(("before", f"({step.before.p}, {step.before.q})"))
        rows.append(("after", f"({step.after.p}, {step.after.q})"))
        rows.append(("ratio", scale.as_ratio(step.after)))
        rows.append(("anchor", step.anchor))
        out.add(f"step {i}", rows)
    out.add(
        "result",
        [
            ("final", f"({trace.final.p}, {trace.final.q})"),
            ("removal form", f"divide into {removal[0]} parts, remove {removal[1]}"),
        ],
    )
    print(render_report(out, args.format, args.precision))
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    try:
        radicand = geom.brahmagupta_radicand(args.a, args.b, args.c, args.d)
    except geom.NotRealizable as exc:
        print(f"not realizable: {exc}", file=sys.stderr)
        return 1
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
    print(render_report(report, args.format, args.precision))
    return 0


def _cmd_crude(args: argparse.Namespace) -> int:
    report = Report("Crude area (order-sensitive)")
    report.add("result", [("value", geom.crude_area(args.a, args.b, args.c, args.d))])
    print(render_report(report, args.format, args.precision))
    return 0


def _cmd_quad(args: argparse.Namespace) -> int:
    quads = geom.orthodiagonal_generator(args.seed, args.count)
    failures = 0
    if args.format == "json":
        items = []
        for quad in quads:
            ortho = geom.segments_equal_portions(quad)
            bisect = ortho and geom.brahmagupta_theorem_check(quad)
            if not (ortho and bisect):
                failures += 1
            entry = quad.to_dict()
            entry["segments_equal_portions"] = ortho
            entry["bisection_theorem"] = bisect
            items.append(entry)
        print(json.dumps(items, indent=2))
    else:
        out = Report(f"Orthodiagonal demo (seed {args.seed}, count {args.count})")
        for i, quad in enumerate(quads, start=1):
            ortho = geom.segments_equal_portions(quad)
            bisect = ortho and geom.brahmagupta_theorem_check(quad)
            if not (ortho and bisect):
                failures += 1
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
        print(render_report(out, args.format, args.precision))
    return 1 if failures else 0


def _cmd_xii24(args: argparse.Namespace) -> int:
    try:
        result = geom.xii24_verify(args.t, args.u, rat(1))
    except geom.DegenerateBase as exc:  # no triangle: bad input, not a failed verdict
        print(f"sulvageom xii24: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        out = Report(f"Half-oblong check at t = {args.t}, u = {args.u}")
        out.add(
            "quantities",
            [
                ("lambda", result.lam),
                ("a^2", result.a_sq),
                ("b^2", result.b_sq),
                ("gamma^2", result.gamma_sq),
                ("alpha^2", result.alpha_sq),
                ("beta^2", result.beta_sq),
                ("h^2", result.h_sq),
            ],
        )
        out.add(
            "verdicts",
            [
                ("alpha^2 = a^2 - h^2", result.segment_from_side),
                ("beta^2 = b^2 - h^2", result.segment_from_upright),
                ("h^4 = alpha^2 beta^2", result.height_is_mean),
                ("gamma^2 = a^2 + b^2", result.base_from_sum),
            ],
        )
        print(render_report(out, args.format, args.precision))
    return 0 if result.all_ok else 1


def _positive_int(text: str) -> int:
    """argparse type for digit counts, seeds and quad counts."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
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
        p.add_argument(name, type=parse_rational)
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("crude", parents=[common], help="order-sensitive crude area estimate")
    for name in "abcd":
        p.add_argument(name, type=parse_rational)
    p.set_defaults(func=_cmd_crude)

    p = sub.add_parser("quad", parents=[common], help="orthodiagonal quad demo with theorem checks")
    p.add_argument("mode", choices=("demo",))
    p.add_argument("--seed", type=_positive_int, default=1)
    p.add_argument("--count", type=_positive_int, default=10)
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("xii24", parents=[common], help="half-oblong derivation check on the unit circle")
    p.add_argument("t", type=parse_rational)
    p.add_argument("u", type=parse_rational)
    p.set_defaults(func=_cmd_xii24)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def run() -> None:
    raise SystemExit(cli_main())
