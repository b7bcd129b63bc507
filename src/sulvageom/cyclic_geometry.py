"""Exact rational-coordinate geometry of cyclic figures: quadrilateral
areas, the heart-cord, segments versus portions, orthodiagonality,
the bisection theorem, and the half-oblong derivation.

Lengths are carried squared wherever exactness demands it. Operations
that need plain lengths are fed points whose tan-half-angle parameter t
has 1 + t^2 a rational square, which makes every chord rational.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_numbers import rat, sqrt_exact


class DegenerateQuad(ValueError):
    """Coincident, collinear, or out-of-order vertices."""


class DegenerateBase(ValueError):
    """A projection base with coincident endpoints, or a vertex on it."""


class NotRealizable(ValueError):
    """Side lengths that no cyclic quadrilateral attains."""


class ZeroPerpendicular(ValueError):
    """The heart-cord needs a nonzero perpendicular."""


class PreconditionViolated(ValueError):
    """The bisection theorem requires perpendicular diagonals."""


class CountTooLarge(ValueError):
    """More quads asked of the demo generator than it has distinct ones."""


@dataclass(frozen=True)
class RationalPoint:
    x: Fraction
    y: Fraction


def _as_rat(v: Fraction | int) -> Fraction:
    return v if isinstance(v, Fraction) else rat(v)


def _sub(p: RationalPoint, q: RationalPoint) -> tuple[Fraction, Fraction]:
    return (p.x - q.x, p.y - q.y)


def _dot(u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction]) -> Fraction:
    return u[0] * v[0] + u[1] * v[1]


def _cross(u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction]) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _along(p: RationalPoint, q: RationalPoint, lam: Fraction) -> RationalPoint:
    """The point p + lam * (q - p)."""
    return RationalPoint(p.x + lam * (q.x - p.x), p.y + lam * (q.y - p.y))


@dataclass(frozen=True)
class CyclicQuad:
    """Four distinct points on the circle x^2 + y^2 = r^2, in one convex
    counterclockwise sweep. Collinear triples are rejected as degenerate."""

    r: Fraction
    vertices: tuple[RationalPoint, RationalPoint, RationalPoint, RationalPoint]

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise DegenerateQuad(f"radius {self.r} must be positive")
        rsq = self.r * self.r
        for v in self.vertices:
            if v.x * v.x + v.y * v.y != rsq:
                raise DegenerateQuad(f"vertex ({v.x}, {v.y}) is off the circle of radius {self.r}")
        if len(set(self.vertices)) != 4:
            raise DegenerateQuad("vertices must be pairwise distinct")
        for i in range(4):
            a, b, c = (self.vertices[i], self.vertices[(i + 1) % 4], self.vertices[(i + 2) % 4])
            turn = _cross(_sub(b, a), _sub(c, b))
            if turn == 0:
                raise DegenerateQuad("three consecutive vertices are collinear")
            if turn < 0:
                raise DegenerateQuad("vertices are not in counterclockwise circular order")


def point_from_param(t: Fraction | int, r: Fraction | int) -> RationalPoint:
    """Rational point on the circle of radius r via the tan-half-angle map:
    (r(1 - t^2)/(1 + t^2), 2rt/(1 + t^2)). The point (-r, 0) is unreachable
    and must be built directly."""
    t = _as_rat(t)
    r = _as_rat(r)
    if r <= 0:
        raise ValueError(f"radius {r} must be positive")
    denom = rat(1) + t * t
    return RationalPoint(r * (rat(1) - t * t) / denom, r * 2 * t / denom)


def chord_sq(p: RationalPoint, q: RationalPoint) -> Fraction:
    """Exact squared distance between two points."""
    dx, dy = _sub(p, q)
    return dx * dx + dy * dy


def shoelace_area(quad: CyclicQuad) -> Fraction:
    """Exact positive area by the surveyor's formula over the vertex order."""
    total = rat(0)
    vs = quad.vertices
    for i in range(4):
        a, b = vs[i], vs[(i + 1) % 4]
        total = total + (a.x * b.y - b.x * a.y)
    area = abs(total) / 2
    if area == 0:
        raise DegenerateQuad("zero area")
    return area


def brahmagupta_radicand(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Fraction:
    """The exact product (s-a)(s-b)(s-c)(s-d) with s the half-sum of the
    sides; its exact root, when it exists, is the cyclic quadrilateral area.

    A single zero side is allowed as a mathematical degenerate (the Heron
    case); there is no textual warrant for it in the source, and callers
    should flag it as such.
    """
    sides = (a, b, c, d)
    if any(side < 0 for side in sides):
        raise NotRealizable("sides must be nonnegative")
    if sum(1 for side in sides if side == 0) > 1:
        raise NotRealizable("at most one side may vanish")
    s = (a + b + c + d) / 2
    product = rat(1)
    for side in sides:
        factor = s - side
        if factor <= 0:
            raise NotRealizable(f"half-sum minus side {side} is not positive")
        product = product * factor
    return product


def crude_area(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Fraction:
    """The gross estimate ((a+c)/2)((b+d)/2); deliberately order-sensitive,
    unlike the true area of four consecutive chords."""
    if any(side < 0 for side in (a, b, c, d)):
        raise NotRealizable("sides must be nonnegative")
    return ((a + c) / 2) * ((b + d) / 2)


def heart_cord(a: Fraction, b: Fraction, h: Fraction) -> Fraction:
    """Circumradius of a triangle from two sides and the perpendicular
    dropped from their common vertex: R = a*b/(2h). Doubled, it is the
    diameter of the circle touching the corners of the completed figure."""
    if h == 0:
        raise ZeroPerpendicular("perpendicular must be nonzero")
    if a <= 0 or b <= 0 or h < 0:
        raise ValueError("sides and perpendicular must be positive")
    return a * b / (h * 2)


def triquadrilateral(
    t1: Fraction | int,
    t2: Fraction | int,
    t3: Fraction | int,
    t4: Fraction | int,
    r: Fraction | int,
) -> CyclicQuad:
    """Complete the triangle at parameters t1, t2, t3 with a fourth vertex
    t4 on the same circle. The parameters must already trace one convex
    counterclockwise sweep."""
    params = tuple(_as_rat(t) for t in (t1, t2, t3, t4))
    if len(set(params)) != 4:
        raise DegenerateQuad("parameters must be pairwise distinct")
    r = _as_rat(r)
    points = tuple(point_from_param(t, r) for t in params)
    return CyclicQuad(r, points)


def foot_param(a: RationalPoint, c: RationalPoint, b: RationalPoint) -> Fraction:
    """Position of the perpendicular foot of b on base a-c, as the exact
    fraction lambda with H = a + lambda * (c - a)."""
    base = _sub(c, a)
    base_sq = _dot(base, base)
    if base_sq == 0:
        raise DegenerateBase("base endpoints coincide")
    return _dot(_sub(b, a), base) / base_sq


def diagonals_cut_params(quad: CyclicQuad) -> tuple[Fraction, Fraction, RationalPoint]:
    """Where the diagonals meet: J = A + mu_ac (C - A) = B + mu_bd (D - B)."""
    a, b, c, d = quad.vertices
    u = _sub(c, a)
    v = _sub(d, b)
    w = _sub(b, a)
    det = _cross(u, v)
    if det == 0:
        raise DegenerateQuad("diagonals are parallel")
    mu_ac = _cross(w, v) / det
    mu_bd = _cross(w, u) / det
    return mu_ac, mu_bd, _along(a, c, mu_ac)


def segments_equal_portions(quad: CyclicQuad) -> bool:
    """Whether, on each diagonal taken as base of its two triangles, the
    perpendicular feet coincide with the diagonal intersection.

    This holds exactly when the diagonals are perpendicular: it is the
    source text's angle-free way of saying so.
    """
    a, b, c, d = quad.vertices
    mu_ac, mu_bd, _ = diagonals_cut_params(quad)
    return (
        foot_param(a, c, b) == mu_ac
        and foot_param(a, c, d) == mu_ac
        and foot_param(b, d, a) == mu_bd
        and foot_param(b, d, c) == mu_bd
    )


def brahmagupta_theorem_check(quad: CyclicQuad) -> bool:
    """For a quad with perpendicular diagonals: does the perpendicular to
    each side through the diagonal intersection meet the opposite side at
    its exact midpoint? True only if all four sides pass with zero residual."""
    if not segments_equal_portions(quad):
        raise PreconditionViolated("diagonals are not perpendicular")
    a, b, c, d = quad.vertices
    _, _, j = diagonals_cut_params(quad)
    for p, q, r_, s in ((a, b, c, d), (b, c, d, a), (c, d, a, b), (d, a, b, c)):
        side_dir = _sub(q, p)
        denom = _dot(_sub(s, r_), side_dir)
        if denom == 0:
            raise DegenerateQuad("perpendicular line is parallel to the opposite side")
        # The perpendicular meets line r_-s at r_ + nu (s - r_); the midpoint is nu = 1/2.
        nu = _dot(_sub(j, r_), side_dir) / denom
        if nu != Fraction(1, 2):
            return False
    return True


@dataclass(frozen=True)
class HalfOblongReport:
    """Exact verification that a triangle on a diameter is a half-oblong.

    All quantities are squared, so no root extraction is needed:
    the base splits as alpha + beta at the perpendicular foot, and the
    four sub-identities recover the diagonal rule from the other two.
    """

    lam: Fraction
    a_sq: Fraction
    b_sq: Fraction
    gamma_sq: Fraction
    alpha_sq: Fraction
    beta_sq: Fraction
    h_sq: Fraction
    segment_from_side: bool       # alpha^2 = a^2 - h^2
    segment_from_upright: bool    # beta^2 = b^2 - h^2
    height_is_mean: bool          # h^4 = alpha^2 * beta^2
    base_from_sum: bool           # gamma^2 = a^2 + b^2

    @property
    def all_ok(self) -> bool:
        return (
            self.segment_from_side
            and self.segment_from_upright
            and self.height_is_mean
            and self.base_from_sum
        )


def xii24_verify(t: Fraction | int, u: Fraction | int, r: Fraction | int) -> HalfOblongReport:
    """Check the half-oblong derivation on the triangle with base the
    diameter through the parameter-t point and apex at parameter u."""
    t = _as_rat(t)
    u = _as_rat(u)
    r = _as_rat(r)
    if t == 0:
        raise DegenerateBase("base parameter must be nonzero")
    a_pt = point_from_param(t, r)
    c_pt = RationalPoint(-a_pt.x, -a_pt.y)
    b_pt = point_from_param(u, r)
    if b_pt == a_pt or b_pt == c_pt:
        raise DegenerateBase("apex coincides with a base endpoint")
    gamma_sq = chord_sq(a_pt, c_pt)
    lam = foot_param(a_pt, c_pt, b_pt)
    alpha_sq = lam * lam * gamma_sq
    beta_sq = (rat(1) - lam) * (rat(1) - lam) * gamma_sq
    h_sq = chord_sq(b_pt, _along(a_pt, c_pt, lam))
    a_sq = chord_sq(a_pt, b_pt)
    b_sq = chord_sq(b_pt, c_pt)
    return HalfOblongReport(
        lam=lam,
        a_sq=a_sq,
        b_sq=b_sq,
        gamma_sq=gamma_sq,
        alpha_sq=alpha_sq,
        beta_sq=beta_sq,
        h_sq=h_sq,
        segment_from_side=(alpha_sq == a_sq - h_sq),
        segment_from_upright=(beta_sq == b_sq - h_sq),
        height_is_mean=(h_sq * h_sq == alpha_sq * beta_sq),
        base_from_sum=(gamma_sq == a_sq + b_sq),
    )


def diagonal_lengths_sq(quad: CyclicQuad) -> tuple[Fraction, Fraction]:
    """Squared diagonal lengths from coordinates (a coordinate oracle,
    not a side-length formula)."""
    a, b, c, d = quad.vertices
    return chord_sq(a, c), chord_sq(b, d)


# Parameters t with 1 + t^2 a rational square, so that chords between any
# two such points (and the point (-r, 0)) come out rational. First two
# entries are pinned: seed 1 must reproduce the reference kite.
PYTHAGOREAN_PARAMS: tuple[Fraction, ...] = tuple(
    rat(n, d)
    for n, d in (
        (0, 1), (3, 4), (4, 3), (5, 12), (12, 5), (15, 8), (8, 15),
        (7, 24), (24, 7), (20, 21), (21, 20), (9, 40), (40, 9),
        (11, 60), (60, 11), (28, 45), (45, 28), (33, 56), (56, 33),
        (16, 63), (63, 16), (13, 84), (84, 13), (36, 77), (77, 36),
        (39, 80), (80, 39), (65, 72), (72, 65), (48, 55), (55, 48),
    )
)

_DEMO_RADII: tuple[Fraction, ...] = (rat(1), rat(2), rat(5, 2), rat(3))

# The generator walks every ordered pair of distinct table entries once
# before it repeats one, while cycling through the radii, so it yields this
# many distinct quads and then starts over.
DEMO_QUAD_LIMIT = math.lcm(len(PYTHAGOREAN_PARAMS) * (len(PYTHAGOREAN_PARAMS) - 1), len(_DEMO_RADII))


def _reflect_across_diameter(p: RationalPoint, d: RationalPoint) -> RationalPoint:
    """Mirror p across the line through the origin and d."""
    scale = (p.x * d.x + p.y * d.y) * 2 / (d.x * d.x + d.y * d.y)
    return RationalPoint(scale * d.x - p.x, scale * d.y - p.y)


def orthodiagonal_generator(seed: int, count: int) -> list[CyclicQuad]:
    """Deterministic-per-seed cyclic quads with perpendicular diagonals.

    One diagonal is a diameter through a parameter point; the opposite
    vertex pair is a point and its mirror image across that diameter, so
    perpendicularity holds by construction and every coordinate stays
    rational. Seed 1 starts at the reference kite on the unit circle.
    Counts above DEMO_QUAD_LIMIT raise CountTooLarge, since the walk would
    repeat quads.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > DEMO_QUAD_LIMIT:
        raise CountTooLarge(f"count {count} exceeds the {DEMO_QUAD_LIMIT} distinct quads the demo yields")
    if seed < 1:
        raise ValueError("seed must be >= 1")
    n = len(PYTHAGOREAN_PARAMS)
    quads: list[CyclicQuad] = []
    k = seed - 1
    while len(quads) < count:
        ti = k % n
        ui = (k + 1 + k // n) % n
        k += 1
        if ti == ui:
            continue
        t = PYTHAGOREAN_PARAMS[ti]
        u = PYTHAGOREAN_PARAMS[ui]
        r = _DEMO_RADII[len(quads) % len(_DEMO_RADII)]
        a = point_from_param(t, r)
        c = RationalPoint(-a.x, -a.y)
        b = point_from_param(u, r)
        if b in (a, c):
            continue
        d = _reflect_across_diameter(b, a)
        orient = _cross(_sub(b, a), _sub(c, a))
        if orient == 0:
            continue
        order = (a, b, c, d) if orient > 0 else (a, d, c, b)
        quads.append(CyclicQuad(r, order))
    return quads


def rational_side_quads(count: int, radius: Fraction | int = 1) -> list[CyclicQuad]:
    """Cyclic quads whose four chords are all exactly rational, built from
    ascending 4-subsets of the Pythagorean parameter table (extended with
    the negated values, which keeps 1 + t^2 square)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    r = _as_rat(radius)
    pool = sorted(set(PYTHAGOREAN_PARAMS) | {-t for t in PYTHAGOREAN_PARAMS})
    quads: list[CyclicQuad] = []
    for combo in itertools.combinations(pool, 4):
        quads.append(CyclicQuad(r, tuple(point_from_param(t, r) for t in combo)))
        if len(quads) == count:
            break
    return quads


def rational_sides(quad: CyclicQuad) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four side lengths, which must all be exactly rational."""
    vs = quad.vertices
    sides = []
    for i in range(4):
        root = sqrt_exact(chord_sq(vs[i], vs[(i + 1) % 4]))
        if root is None:
            raise NotRealizable("a chord of this quad is irrational")
        sides.append(root)
    return tuple(sides)
