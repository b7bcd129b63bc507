"""Part-division correspondences between lengths and the scripted
reconstruction of the quadrature rule I.59.

A correspondence (p, q) says: divide the first length into p equal parts;
q of those parts make up the second length. Unlike a fraction it is never
auto-reduced -- (232, 28) and (58, 7) are different objects with the same
ratio, and that distinction is the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class NonPositiveParts(ValueError):
    """A correspondence needs at least one part on each side."""


class NonPositiveFactor(ValueError):
    """Refinement factor must be a positive integer."""


class LabelMismatch(ValueError):
    """Composition requires the inner length labels to match exactly."""


class RelatedExceedsWhole(ValueError):
    """Removal form only exists when the related length fits in the whole."""


@dataclass(frozen=True)
class Correspondence:
    p: int
    q: int
    labels: tuple[str, str] = ("first", "second")

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise NonPositiveParts(f"({self.p}, {self.q}): parts must be >= 1")


def refine(c: Correspondence, k: int) -> Correspondence:
    """Split every part into k subparts: (p, q) -> (k*p, k*q). Ratio unchanged."""
    if k < 1:
        raise NonPositiveFactor(f"refinement factor {k} must be >= 1")
    return Correspondence(k * c.p, k * c.q, c.labels)


def invert(c: Correspondence) -> Correspondence:
    """Swap the roles of the two lengths: divide the second into q parts,
    p of which give the first."""
    return Correspondence(c.q, c.p, (c.labels[1], c.labels[0]))


def compose(c1: Correspondence, c2: Correspondence) -> Correspondence:
    """Chain A->B with B->C into A->C, unreduced.

    The middle labels must match exactly; a mismatch usually means a
    half-length was confused with a full one.
    """
    if c1.labels[1] != c2.labels[0]:
        raise LabelMismatch(f"cannot chain {c1.labels} with {c2.labels}")
    return Correspondence(c1.p * c2.p, c1.q * c2.q, (c1.labels[0], c2.labels[1]))


def as_ratio(c: Correspondence) -> Fraction:
    """Export the correspondence as the reduced fraction q/p."""
    return Fraction(c.q, c.p)


def removal_form(c: Correspondence) -> tuple[int, int]:
    """Read (p, q) as 'divide into p parts and remove p - q of them'."""
    if c.q > c.p:
        raise RelatedExceedsWhole(f"({c.p}, {c.q}): related length exceeds the whole")
    return (c.p, c.p - c.q)


@dataclass(frozen=True)
class DerivationStep:
    description: str
    before: Correspondence | None
    after: Correspondence
    anchor: str


@dataclass(frozen=True)
class DerivationTrace:
    steps: tuple[DerivationStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a trace needs at least one step")

    @property
    def final(self) -> Correspondence:
        return self.steps[-1].after


def derive_i59_trace() -> DerivationTrace:
    """The scripted reconstruction of quadrature rule I.59.

    Fixed seven-step script, not a search: crude diagonal bounds, the
    improved 17-in-24 half-side, the circulature rule's one-third excess,
    two refinements and one change of reading, ending at the
    divide-into-8-then-29, remove-28 form. The excess counts E and e are
    carried as part counts on the current scale, never as lengths of
    their own.
    """
    hd_hs = ("half-diagonal", "half-side")
    s1 = DerivationStep(
        "crude lower and upper bounds 4/3 and 3/2 for the diagonal-to-side "
        "ratio put the half-side at 9 or 8 of the half-diagonal's 12 parts; "
        "start from 8",
        None,
        Correspondence(12, 8, hd_hs),
        "I.61-62",
    )
    s2 = DerivationStep(
        "improve to a half-side of 8 1/2 parts: with the half-diagonal in "
        "24 parts, the half-side takes 17",
        s1.after,
        Correspondence(24, 17, hd_hs),
        "I.61-62",
    )
    s3 = DerivationStep(
        "the circulature rule sets e = E/3, with the excess "
        "E = 24 - 17 = 7 parts of the half-diagonal",
        s2.after,
        Correspondence(24, 7, ("half-diagonal", "excess E")),
        "I.58",
    )
    s4 = DerivationStep(
        "split each part into three: the half-side takes 51 = 3 x 17 parts "
        "and the circle's excess e takes 7 of them",
        s3.after,
        Correspondence(51, 7, ("half-side", "excess e")),
        "I.58",
    )
    s5 = DerivationStep(
        "radius = half-side + e = 51 + 7 = 58 parts, so the diameter takes "
        "58 parts on the scale where the side takes 51; state it with the "
        "diameter as the divided length",
        s4.after,
        Correspondence(58, 51, ("diameter", "side")),
        "I.59",
    )
    s6 = DerivationStep(
        "read as a removal: of the diameter's 58 parts, remove 7 to obtain "
        "the side",
        s5.after,
        Correspondence(58, 51, ("diameter", "side")),
        "I.59",
    )
    s7 = DerivationStep(
        "split each part into four: (4 x 58, 4 x 51) = (8 x 29, 204); "
        "remove 28 of the 232 parts",
        s6.after,
        Correspondence(232, 204, ("diameter", "side")),
        "I.59",
    )
    return DerivationTrace((s1, s2, s3, s4, s5, s6, s7))

