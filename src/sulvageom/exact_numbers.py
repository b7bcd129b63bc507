"""Exact rational arithmetic on fractions.Fraction: checked construction and
parsing, exact square roots, and the fixed num/den and truncated decimal
renderings.

Everything here is integer arithmetic; no floats enter or leave.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rat(n: int, d: int = 1) -> Fraction:
    """Build the normalized rational n/d. Raises ValueError for d = 0, since
    a zero denominator always comes from a malformed literal or argument.

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


def _int_text(n: int) -> str:
    """str(n) for an integer of any length. Python's str() refuses more than
    sys.get_int_max_str_digits() digits; past that, n is split at a power of
    ten and printed in halves, which leaves that process-wide limit alone."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _int_text(-n)
        k = n.bit_length() * 3 // 20  # about half of n's decimal digits
        high, low = divmod(n, 10**k)
        return _int_text(high) + _int_text(low).rjust(k, "0")


def to_fraction_text(q: Fraction) -> str:
    """The reduced 'num/den' form, with the slash even for integers."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # beyond the int-to-str digit limit
        return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


def to_decimal(q: Fraction, digits: int) -> str:
    """Truncated decimal expansion of q with exactly `digits` fractional digits.

    Truncation is toward zero, so the rendering never overstates a magnitude.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    num, den = q.numerator, q.denominator
    scaled = (abs(num) * 10 ** digits) // den
    body = _int_text(scaled).rjust(digits + 1, "0")
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
