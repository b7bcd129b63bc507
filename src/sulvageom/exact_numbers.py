"""Exact rational arithmetic on fractions.Fraction: the int-or-Fraction check,
checked construction, exact square roots, num/den and truncated decimal renderings.

Everything here is integer arithmetic; no floats enter or leave.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction


def require_exact(*values: object) -> None:
    """Refuse with TypeError, in argument order, a value that is neither an int nor a Fraction."""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"{v!r} is neither an int nor a Fraction")


def rat(n: int, d: int = 1) -> Fraction:
    """The command-line literal n/d as a normalized Fraction. Raises
    ValueError for d = 0, which the CLI reports as a malformed literal;
    the library builds its rationals with Fraction directly.

    Always takes the two-argument Fraction form, which refuses floats.
    """
    if d == 0:
        raise ValueError(f"denominator of {n}/0")
    return Fraction(n, d)


def sqrt_exact(q: Fraction) -> Fraction | None:
    """Exact square root of q, or None when q is not a rational square.

    Works on numerator and denominator separately; valid because q is reduced.
    Never approximates. For q < 0, math.isqrt raises ValueError.
    """
    num, den = q.numerator, q.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def to_fraction_text(q: Fraction) -> str:
    """The reduced 'num/den' form, with the slash even for integers."""
    # str() refuses an int past sys.get_int_max_str_digits() digits, and
    # Decimal prints any length; the f-string is kept as the cheaper common case.
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def to_decimal(q: Fraction, digits: int) -> str:
    """Truncated decimal expansion of q with exactly `digits` fractional digits.

    Truncation is toward zero, so the rendering never overstates a magnitude.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    num, den = q.numerator, q.denominator
    scaled = (abs(num) * 10 ** digits) // den
    body = str(Decimal(scaled)).rjust(digits + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{body[:-digits]}.{body[-digits:]}"

