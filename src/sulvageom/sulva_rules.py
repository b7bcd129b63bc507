"""Executable forms of Baudhayana's rules I.58-I.62 and the exact identity
checks that relate them.

The circle-area comparisons anachronistically use pi (the source rules never
mention it); pi enters only through a fixed 50-digit decimal literal used
for error reporting, keeping the computational core float-free.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact_numbers import require_exact

# First 50 decimals of pi, truncated. Used only for reporting how far the
# rules land from the circle constant; no rational equals pi.
PI_REFERENCE = Fraction("3.14159265358979323846264338327950288419716939937510")

VERDICT_EQUAL = "exact-equal"
VERDICT_RESIDUAL = "differs-by-residual"


# Bit-exact comparison of two rationals; residual = left - right.
IdentityReport = namedtuple("IdentityReport", "name left right residual verdict")


def sqrt2_i61() -> tuple[Fraction, ...]:
    """Rule I.61-62: the four terms of the square diagonal's approximation,
    1 + 1/3 + 1/12 - 1/408, which sum to 577/408."""
    return (Fraction(1), Fraction(1, 3), Fraction(1, 12), Fraction(-1, 408))


def circulature_i58(s: Fraction, sqrt2: Fraction) -> Fraction:
    """Rule I.58: square of side s into a circle of radius
    r = s/2 + E/3, with E = (sqrt2 - 1) * s/2 the excess of the
    half-diagonal over the half-side."""
    require_exact(s, sqrt2)
    if s <= 0:
        raise ValueError(f"side {s} must be positive")
    half = Fraction(s, 2)
    excess = (sqrt2 - 1) * half
    return half + excess / 3


def quadrature_ratio_i59() -> Fraction:
    """Rule I.59 as a side-over-diameter ratio:
    1 - (1/(8*29)) * (28 + 1/6 - (1/8)(1/6))."""
    bracket = Fraction(28) + Fraction(1, 6) - Fraction(1, 8) * Fraction(1, 6)
    return Fraction(1) - bracket / Fraction(8 * 29)


def quadrature_ratio_i60() -> Fraction:
    """Rule I.60, the cruder reading: remove 2 of 15 diameter parts."""
    return Fraction(1) - Fraction(2, 15)


def quadrature_ratio_i58() -> Fraction:
    """Rule I.58 inverted as a side-over-diameter ratio, at the I.61-62
    diagonal value: 1224/1393. The diameter at unit side is 2r, (2 + sqrt2)/3."""
    return 1 / (2 * circulature_i58(1, sum(sqrt2_i61())))


def verify_decompositions() -> list[IdentityReport]:
    """The three exact decomposition checks around s/d = 1224/1393.

    (a) 1224/1393 against the I.59 ratio: off by exactly
        -41/(8*29*6*8*1393) = -41/15512448.
    (b) 1224/1393 against the 34-based split (1 - 33/(8*34)) + 1/(8*34*1393):
        exactly equal.
    (c) the I.59 ratio against the seemingly simpler 1 - 1/8 + 1/(8*34):
        a nonzero exact residual, which is why the simpler rule is a
        different rule.
    """
    inverse_ratio = quadrature_ratio_i58()
    v59 = quadrature_ratio_i59()
    alt34 = (Fraction(1) - Fraction(33, 8 * 34)) + Fraction(1, 8 * 34 * 1393)
    simpler = Fraction(1) - Fraction(1, 8) + Fraction(1, 8 * 34)
    return [
        IdentityReport(name, left, right, left - right, VERDICT_EQUAL if left == right else VERDICT_RESIDUAL)
        for name, left, right in (
            ("s/d from I.58 with sqrt2 of I.61-62 vs quadrature I.59", inverse_ratio, v59),
            ("s/d from I.58 vs the 34-based decomposition", inverse_ratio, alt34),
            ("quadrature I.59 vs the simpler 8-and-34 rule", v59, simpler),
        )
    ]


def implied_pi(side_over_diameter: Fraction) -> Fraction:
    """Circle constant implied by equating square and circle areas:
    s^2 = pi d^2 / 4 gives pi = 4 (s/d)^2.

    An anachronism kept as the standard accuracy metric; the source rules
    never speak of pi.
    """
    require_exact(side_over_diameter)
    if not 0 < side_over_diameter < 1:
        raise ValueError(f"ratio {side_over_diameter} must be in (0, 1)")
    return side_over_diameter * side_over_diameter * 4
