"""Part-division correspondences between lengths and the scripted
reconstruction of the quadrature rule I.59.

A correspondence (p, q) says: divide the first length into p equal parts;
q of those parts make up the second length. Unlike a fraction it is never
auto-reduced -- (232, 28) and (58, 7) are different objects with the same
ratio, and that distinction is the whole point.
"""

from __future__ import annotations

from collections import namedtuple


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
