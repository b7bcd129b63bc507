"""Baudhayana's rules I.58-I.62 as exact values, the identity checks that
relate them, and the part-division correspondences through which the
reconstruction of rule I.59 reaches its divide-into-8-then-29, remove-28 form.

A correspondence (p, q) says: divide the first length into p equal parts;
q of those parts make up the second length. Unlike a fraction it is never
auto-reduced: (232, 28) and (58, 7) are different objects with the same ratio.
The rules never mention pi; it enters only to report how far they land from it.
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
    if sqrt2 < 1:
        raise ValueError(f"diagonal value {sqrt2} must be >= 1")
    half = Fraction(s, 2)
    excess = (sqrt2 - 1) * half
    return half + excess / 3


class Correspondence(namedtuple("Correspondence", "p q")):
    __slots__ = ()

    def __new__(cls, p: int, q: int) -> Correspondence:
        for n in (p, q):
            if not isinstance(n, int):
                raise TypeError(f"part count {n!r} is not an int")
        if p < 1 or q < 1:
            raise ValueError(f"({p}, {q}): parts must be >= 1")
        return super().__new__(cls, p, q)

    # namedtuple's _make, which _replace calls, would skip the check in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))


def refine(c: Correspondence, k: int) -> Correspondence:
    """Split every part into k subparts: (p, q) -> (k*p, k*q). Ratio unchanged."""
    if not isinstance(k, int):
        raise TypeError(f"refinement factor {k!r} is not an int")
    if k < 1:
        raise ValueError(f"refinement factor {k} must be >= 1")
    return Correspondence(k * c.p, k * c.q)


def removal_form(c: Correspondence) -> tuple[int, int]:
    """Read (p, q) as 'divide into p parts and remove p - q of them'."""
    if c.q > c.p:
        raise ValueError(f"({c.p}, {c.q}): related length exceeds the whole")
    return (c.p, c.p - c.q)


DerivationStep = namedtuple("DerivationStep", "description after anchor")


def derive_i59_trace() -> tuple[DerivationStep, ...]:
    """The scripted reconstruction of quadrature rule I.59.

    Fixed seven-step script, not a search: crude diagonal bounds, the
    improved 17-in-24 half-side, the circulature rule's one-third excess,
    two refinements and one change of reading, ending at the
    divide-into-8-then-29, remove-28 form. Only the first two steps are
    givens; each later one is computed from the step before it. The excess
    counts E and e are carried as part counts on the current scale, never
    as lengths of their own.
    """
    s1 = Correspondence(12, 8)
    s2 = Correspondence(24, 17)
    s3 = Correspondence(s2.p, s2.p - s2.q)
    s4 = Correspondence(3 * (s3.p - s3.q), s3.q)
    s5 = Correspondence(s4.p + s4.q, s4.p)
    s6 = s5  # the same correspondence, read as a removal
    s7 = refine(s6, 4)
    return (
        DerivationStep(
            "crude lower and upper bounds 4/3 and 3/2 for the diagonal-to-side ratio put the half-side at 9 or 8 "
            "of the half-diagonal's 12 parts; start from 8",
            s1,
            "I.61-62",
        ),
        DerivationStep(
            "improve to a half-side of 8 1/2 parts: with the half-diagonal in 24 parts, the half-side takes 17",
            s2,
            "I.61-62",
        ),
        DerivationStep(
            "the circulature rule sets e = E/3, with the excess E = 24 - 17 = 7 parts of the half-diagonal",
            s3,
            "I.58",
        ),
        DerivationStep(
            "split each part into three: the half-side takes 51 = 3 x 17 parts and the circle's excess e takes "
            "7 of them",
            s4,
            "I.58",
        ),
        DerivationStep(
            "radius = half-side + e = 51 + 7 = 58 parts, so the diameter takes 58 parts on the scale where the "
            "side takes 51; state it with the diameter as the divided length",
            s5,
            "I.59",
        ),
        DerivationStep("read as a removal: of the diameter's 58 parts, remove 7 to obtain the side", s6, "I.59"),
        DerivationStep(
            "split each part into four: (4 x 58, 4 x 51) = (8 x 29, 204); remove 28 of the 232 parts", s7, "I.59"
        ),
    )


def quadrature_ratio_i59() -> Fraction:
    """Rule I.59 as a side-over-diameter ratio: divide the diameter and
    remove parts as the removal form at which derive_i59_trace ends says,
    then remove a further sixth of a part less an eighth of that sixth."""
    parts, removed = removal_form(derive_i59_trace()[-1].after)
    sixth = Fraction(1, 6)
    return 1 - (removed + sixth - sixth / 8) / parts


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
