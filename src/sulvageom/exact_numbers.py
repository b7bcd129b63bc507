"""Exact rational arithmetic on fractions.Fraction: checked construction and
parsing, exact square roots, and the fixed num/den and truncated decimal
renderings.

Everything here is integer arithmetic; no floats enter or leave.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ZeroDenominator(ZeroDivisionError, ValueError):
    """Denominator of zero in a rational constructor. Also a ValueError,
    since it always comes from a malformed literal or argument."""


class NegativeInput(ValueError):
    """Square root of a negative rational."""


def rat(n: int, d: int = 1) -> Fraction:
    """Build the normalized rational n/d. Raises ZeroDenominator for d = 0.

    Always takes the two-argument Fraction form, which refuses floats.
    """
    if d == 0:
        raise ZeroDenominator(f"denominator of {n}/0")
    return Fraction(n, d)


def sqrt_exact(q: Fraction) -> Fraction | None:
    """Exact square root of q, or None when q is not a rational square.

    Works on numerator and denominator separately; valid because q is reduced.
    Never approximates. Raises NegativeInput for q < 0.
    """
    num, den = q.numerator, q.denominator
    if num < 0:
        raise NegativeInput(f"sqrt of negative value {q}")
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def to_fraction_text(q: Fraction) -> str:
    """The reduced 'num/den' form, with the slash even for integers."""
    return f"{q.numerator}/{q.denominator}"


def to_decimal(q: Fraction, digits: int) -> str:
    """Truncated decimal expansion of q with exactly `digits` fractional digits.

    Truncation is toward zero, so the rendering never overstates a magnitude.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    num, den = q.numerator, q.denominator
    scaled = (abs(num) * 10 ** digits) // den
    body = str(scaled).rjust(digits + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or a plain integer literal."""
    parts = text.strip().split("/")
    if len(parts) == 1:
        return rat(int(parts[0]))
    if len(parts) == 2:
        return rat(int(parts[0]), int(parts[1]))
    raise ValueError(f"not a rational literal: {text!r}")
