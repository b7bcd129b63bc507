"""Independent checks of sulvageom output, written with fractions.Fraction.

Nothing here imports sulvageom: every expected value is recomputed from the
op's inputs, and program values are read back either from the text the CLI
printed or through ``str()`` of the returned numbers.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as F

# pi to 50 decimals, truncated.
PI_50 = F("3.14159265358979323846264338327950288419716939937510")
DEFAULT_PRECISION = 12


def frac(value: object) -> F:
    """A rational returned by the library, as a Fraction."""
    return F(str(value))


def trunc_decimal(q: F, digits: int) -> str:
    """q truncated toward zero to exactly `digits` fractional digits."""
    scaled = str(abs(math.trunc(q * 10**digits))).rjust(digits + 1, "0")
    return f"{'-' if q < 0 else ''}{scaled[:-digits]}.{scaled[-digits:]}"


def shown(q: F, fmt: str, digits: int = DEFAULT_PRECISION) -> str:
    """How the CLI prints a rational: num/den, with a truncated decimal
    annotation in text and markdown when it is not an integer."""
    text = f"{q.numerator}/{q.denominator}"
    if fmt != "json" and q.denominator != 1:
        text += f" (~ {trunc_decimal(q, digits)})"
    return text


def circle_point(t: F, r: F) -> tuple[F, F]:
    """The tan-half-angle point (r(1 - t^2)/(1 + t^2), 2rt/(1 + t^2))."""
    return (r * (1 - t * t) / (1 + t * t), 2 * r * t / (1 + t * t))


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def shoelace(vs) -> F:
    return abs(sum(_cross(vs[i], vs[(i + 1) % 4]) for i in range(4))) / 2


def parse_report(text: str, fmt: str) -> tuple[str, list[tuple[str, dict[str, str]]]]:
    """Title and (heading, {key: value}) sections of a rendered report."""
    if fmt == "json":
        doc = json.loads(text)
        sections = []
        for section in doc["sections"]:
            rows = {}
            for key, value in section["rows"]:
                rows[key] = ("true" if value else "false") if isinstance(value, bool) else str(value)
            sections.append((section["heading"], rows))
        return doc["title"], sections
    lines = [line for line in text.split("\n") if line]
    if fmt == "markdown":
        title, heading_mark, row_mark = lines[0][2:], "## ", "- "
    else:
        title, heading_mark, row_mark = lines[0], "", "  "
    sections = []
    for line in lines[1:]:
        if line.startswith(row_mark):
            key, value = line[len(row_mark):].split(": ", 1)
            sections[-1][1][key] = value
        elif line.startswith(heading_mark):
            sections.append((line[len(heading_mark):], {}))
        else:
            raise ValueError(f"unexpected line {line!r}")
    return title, sections


def _orthodiagonal_ok(vs, r_sq: F | None) -> bool:
    """Four distinct points on one origin-centred circle, in convex
    counterclockwise order, with perpendicular diagonals, and the bisection
    theorem holding on every side."""
    a, b, c, d = vs
    rs = {_dot(v, v) for v in vs}
    if len(rs) != 1 or (r_sq is not None and rs != {r_sq}) or len(set(vs)) != 4:
        return False
    if any(_cross(_sub(vs[(i + 1) % 4], vs[i]), _sub(vs[(i + 2) % 4], vs[(i + 1) % 4])) <= 0 for i in range(4)):
        return False
    u, v = _sub(c, a), _sub(d, b)
    if _dot(u, v) != 0:
        return False
    mu = _cross(_sub(b, a), v) / _cross(u, v)
    j = (a[0] + mu * u[0], a[1] + mu * u[1])
    for p, q, s, t in ((a, b, c, d), (b, c, d, a), (c, d, a, b), (d, a, b, c)):
        mid = ((s[0] + t[0]) / 2, (s[1] + t[1]) / 2)
        if _dot(_sub(mid, j), _sub(q, p)) != 0:
            return False
    return True


def _vertices(text: str):
    return tuple(tuple(F(c) for c in p.strip("()").split(", ")) for p in text.split("; "))


def check_quad_demo(code: int, out: str, seed: int, count: int, fmt: str) -> bool:
    """Output of ``quad demo --seed seed --count count --format fmt``."""
    if code != 0:
        return False
    if fmt == "json":
        items = json.loads(out)
        return len(items) == count and all(
            item["segments_equal_portions"] is True
            and item["bisection_theorem"] is True
            and _orthodiagonal_ok(tuple((F(x), F(y)) for x, y in item["vertices"]), F(item["r"]) ** 2)
            for item in items
        )
    title, sections = parse_report(out, fmt)
    if title != f"Orthodiagonal demo (seed {seed}, count {count})" or len(sections) != count:
        return False
    for i, (heading, rows) in enumerate(sections, start=1):
        vs = _vertices(rows["vertices"])
        (a, b, c, d), area = vs, shoelace(vs)
        if not (
            heading == f"quad {i}"
            and rows["area"] == shown(area, fmt)
            and rows["diagonals squared"] == f"{_dot(_sub(c, a), _sub(c, a))}, {_dot(_sub(d, b), _sub(d, b))}"
            and rows["segments equal portions"] == "true"
            and rows["bisection theorem"] == "true"
            and _orthodiagonal_ok(vs, None)
        ):
            return False
    return True


def half_oblong(t: F, u: F, r: F) -> dict[str, F]:
    """XII.24 quantities for the triangle on the diameter through the
    parameter-t point, with apex at parameter u."""
    a = circle_point(t, r)
    c = (-a[0], -a[1])
    b = circle_point(u, r)
    base = _sub(c, a)
    gamma_sq = _dot(base, base)
    lam = _dot(_sub(b, a), base) / gamma_sq
    foot = (a[0] + lam * base[0], a[1] + lam * base[1])
    return {
        "lambda": lam,
        "a_sq": _dot(_sub(a, b), _sub(a, b)),
        "b_sq": _dot(_sub(b, c), _sub(b, c)),
        "gamma_sq": gamma_sq,
        "alpha_sq": lam * lam * gamma_sq,
        "beta_sq": (1 - lam) * (1 - lam) * gamma_sq,
        "h_sq": _dot(_sub(b, foot), _sub(b, foot)),
    }


def half_oblong_ok(q: dict[str, F]) -> bool:
    """The four sub-identities the half-oblong derivation asserts."""
    return (
        q["alpha_sq"] == q["a_sq"] - q["h_sq"]
        and q["beta_sq"] == q["b_sq"] - q["h_sq"]
        and q["h_sq"] ** 2 == q["alpha_sq"] * q["beta_sq"]
        and q["gamma_sq"] == q["a_sq"] + q["b_sq"]
    )


def check_general_quad(spec, result) -> bool:
    """One general-quads op: ``spec`` holds the integer inputs, ``result``
    the tuple (quad, ortho, area, sides, root, half) the library returned."""
    _, t_pairs, r_pair, xt_pair, xu_pair = spec
    quad, ortho, area, sides, root, half = result
    r = F(*r_pair)
    vs = tuple(circle_point(F(*p), r) for p in t_pairs)
    got = tuple((frac(v.x), frac(v.y)) for v in quad.vertices)
    expected_area = shoelace(vs)
    a, b, c, d = vs
    chords = [_dot(_sub(vs[i], vs[(i + 1) % 4]), _sub(vs[i], vs[(i + 1) % 4])) for i in range(4)]
    if not (
        got == vs
        and frac(area) == expected_area
        and root is not None
        and frac(root) == expected_area
        and len(sides) == 4
        and all(frac(s) > 0 and frac(s) ** 2 == ch for s, ch in zip(sides, chords))
        and ortho == (_dot(_sub(c, a), _sub(d, b)) == 0)
        and half.all_ok
    ):
        return False
    expected = half_oblong(F(*xt_pair), F(*xu_pair), r)
    return half_oblong_ok(expected) and {
        "lambda": frac(half.lam),
        "a_sq": frac(half.a_sq),
        "b_sq": frac(half.b_sq),
        "gamma_sq": frac(half.gamma_sq),
        "alpha_sq": frac(half.alpha_sq),
        "beta_sq": frac(half.beta_sq),
        "h_sq": frac(half.h_sq),
    } == expected


# -- whole-CLI checks --------------------------------------------------------

SQRT2_TERMS = (F(1), F(1, 3), F(1, 12), F(-1, 408))
I59_RATIO = 1 - (F(28) + F(1, 6) - F(1, 8) * F(1, 6)) / (8 * 29)
I58_RATIO = 1 / ((2 + sum(SQRT2_TERMS)) / 3)
PI_RATIOS = {"i58": I58_RATIO, "i59": I59_RATIO, "i60": 1 - F(2, 15)}
DECOMPOSITIONS = (
    (F(1224, 1393), I59_RATIO),
    (F(1224, 1393), (1 - F(33, 8 * 34)) + F(1, 8 * 34 * 1393)),
    (I59_RATIO, 1 - F(1, 8) + F(1, 8 * 34)),
)
XII24_LABELS = {"lambda": "lambda", "a_sq": "a^2", "b_sq": "b^2", "gamma_sq": "gamma^2",
                "alpha_sq": "alpha^2", "beta_sq": "beta^2", "h_sq": "h^2"}
XII24_VERDICTS = {"segment_from_side": "alpha^2 = a^2 - h^2", "segment_from_upright": "beta^2 = b^2 - h^2",
                  "height_is_mean": "h^4 = alpha^2 beta^2", "base_from_sum": "gamma^2 = a^2 + b^2"}
# After-correspondences (p, q) of the seven I.59 derivation steps.
I59_STEPS = ((12, 8), (24, 17), (24, 7), (51, 7), (58, 51), (58, 51), (232, 204))


def _option(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _check_sqrt2(out, fmt, digits):
    _, [(heading, rows)] = parse_report(out, fmt)
    value = sum(SQRT2_TERMS)
    return (
        value == F(577, 408)
        and heading == "value"
        and rows["terms"] == " + ".join(shown(t, "json") for t in SQRT2_TERMS)
        and rows["value"] == shown(value, fmt, digits)
        and rows["decimal"] == trunc_decimal(value, digits)
        and rows["square minus 2"] == shown(value * value - 2, fmt, digits)
    )


def _check_pi(out, fmt, digits, rule):
    title, [(_, rows)] = parse_report(out, fmt)
    ratio = PI_RATIOS[rule]
    value = 4 * ratio * ratio
    return (
        title == f"Circle constant implied by rule {rule}"
        and rows["side over diameter"] == shown(ratio, fmt, digits)
        and rows["implied circle constant"] == shown(value, fmt, digits)
        and rows["decimal"] == trunc_decimal(value, digits)
        and rows["error vs 50-digit pi literal"] == trunc_decimal(PI_50 - value, digits)
    )


def _check_verify(out, fmt, digits):
    expected = [
        (left, right, left - right, "exact-equal" if left == right else "differs-by-residual")
        for left, right in DECOMPOSITIONS
    ]
    if expected[0][2] != F(-41, 15512448):
        return False
    if fmt == "json":
        found = [(d["left"], d["right"], d["residual"], d["verdict"]) for d in json.loads(out)]
    else:
        found = [tuple(rows[k] for k in ("left", "right", "residual", "verdict")) for _, rows in parse_report(out, fmt)[1]]
    return found == [tuple(shown(q, fmt, digits) for q in e[:3]) + e[3:] for e in expected]


def _check_derive(out, fmt, digits):
    if fmt == "json":
        doc = json.loads(out)
        return (
            [tuple(step["after"]) for step in doc["steps"]] == list(I59_STEPS)
            and doc["final"] == [232, 204]
            and doc["removal"] == [232, 28]
        )
    _, sections = parse_report(out, fmt)
    steps = sections[:-1]
    heading, result = sections[-1]
    return (
        len(steps) == len(I59_STEPS)
        and all(
            rows["after"] == f"({p}, {q})" and rows["ratio"] == shown(F(q, p), fmt, digits)
            for (_, rows), (p, q) in zip(steps, I59_STEPS)
        )
        and heading == "result"
        and result["final"] == "(232, 204)"
        and result["removal form"] == "divide into 232 parts, remove 28"
    )


def _check_area(out, fmt, digits, sides):
    a, b, c, d = (F(x) for x in sides)
    s = (a + b + c + d) / 2
    radicand = (s - a) * (s - b) * (s - c) * (s - d)
    num, den = math.isqrt(radicand.numerator), math.isqrt(radicand.denominator)
    if num * num == radicand.numerator and den * den == radicand.denominator:
        area = shown(F(num, den), fmt, digits)
    else:
        area = f"irrational; squared area is {shown(radicand, 'json')}"
    _, [(_, rows)] = parse_report(out, fmt)
    return rows == {"radicand": shown(radicand, fmt, digits), "area": area}


def _check_crude(out, fmt, digits, sides):
    a, b, c, d = (F(x) for x in sides)
    _, [(_, rows)] = parse_report(out, fmt)
    return rows == {"value": shown((a + c) / 2 * ((b + d) / 2), fmt, digits)}


def _check_xii24(out, fmt, digits, t, u):
    expected = half_oblong(F(t), F(u), F(1))
    if not half_oblong_ok(expected):
        return False
    if fmt == "json":
        doc = json.loads(out)
        return doc == {**{k: shown(q, fmt) for k, q in expected.items()},
                       "verdicts": dict.fromkeys(XII24_VERDICTS, True)}
    _, [(_, quantities), (_, verdicts)] = parse_report(out, fmt)
    return (
        quantities == {XII24_LABELS[k]: shown(q, fmt, digits) for k, q in expected.items()}
        and verdicts == dict.fromkeys(XII24_VERDICTS.values(), "true")
    )


def check_cli(argv: list[str], code: int, out: str) -> bool:
    """Exit code and stdout of one ``sulvageom *argv`` run."""
    fmt = _option(argv, "--format", "text")
    digits = int(_option(argv, "--precision", str(DEFAULT_PRECISION)))
    command = argv[0]
    if command == "quad":
        return check_quad_demo(code, out, int(_option(argv, "--seed", "1")),
                               int(_option(argv, "--count", "10")), fmt)
    if code != 0:
        return False
    if command == "sqrt2":
        return _check_sqrt2(out, fmt, digits)
    if command == "pi":
        return _check_pi(out, fmt, digits, argv[1])
    if command == "verify":
        return _check_verify(out, fmt, digits)
    if command == "derive":
        return _check_derive(out, fmt, digits)
    if command == "area":
        return _check_area(out, fmt, digits, argv[1:5])
    if command == "crude":
        return _check_crude(out, fmt, digits, argv[1:5])
    if command == "xii24":
        return _check_xii24(out, fmt, digits, argv[1], argv[2])
    raise ValueError(f"no oracle for {command!r}")
