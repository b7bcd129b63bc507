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
from dataclasses import dataclass, field
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


def _integer_form(values) -> tuple[int, list[int]]:
    """The least common denominator w of some rationals, and each value times w."""
    w = math.lcm(*(v.denominator for v in values))
    return w, [v.numerator * (w // v.denominator) for v in values]


def _dist_sq(p: tuple[int, int], q: tuple[int, int]) -> int:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


@dataclass(frozen=True)
class CyclicQuad:
    """Four distinct points on the circle x^2 + y^2 = r^2, in one convex
    counterclockwise sweep. Collinear triples are rejected as degenerate.

    ``homogeneous`` is the same quad over one integer denominator:
    ``(w, points)``, with w the least common denominator of r and the eight
    coordinates, and points the four integer pairs (x w, y w). It is
    computed once, at construction; the validation and the predicates below
    decide on these integers by cross-multiplication.
    """

    r: Fraction
    vertices: tuple[RationalPoint, RationalPoint, RationalPoint, RationalPoint]
    homogeneous: tuple[int, tuple[tuple[int, int], ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w, (big_r, *coords) = _integer_form((self.r, *(c for v in self.vertices for c in (v.x, v.y))))
        points = tuple(zip(coords[::2], coords[1::2]))
        if big_r <= 0:
            raise DegenerateQuad(f"radius {self.r} must be positive")
        rsq = big_r * big_r
        for v, (x, y) in zip(self.vertices, points):
            if x * x + y * y != rsq:
                raise DegenerateQuad(f"vertex ({v.x}, {v.y}) is off the circle of radius {self.r}")
        if len(set(points)) != 4:
            raise DegenerateQuad("vertices must be pairwise distinct")
        for i in range(4):
            (ax, ay), (bx, by), (cx, cy) = points[i], points[(i + 1) % 4], points[(i + 2) % 4]
            turn = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            if turn == 0:
                raise DegenerateQuad("three consecutive vertices are collinear")
            if turn < 0:
                raise DegenerateQuad("vertices are not in counterclockwise circular order")
        object.__setattr__(self, "homogeneous", (w, points))


def point_from_param(t: Fraction | int, r: Fraction | int) -> RationalPoint:
    """Rational point on the circle of radius r via the tan-half-angle map:
    (r(1 - t^2)/(1 + t^2), 2rt/(1 + t^2)). The point (-r, 0) is unreachable
    and must be built directly."""
    t = _as_rat(t)
    r = _as_rat(r)
    if r <= 0:
        raise ValueError(f"radius {r} must be positive")
    n, d = t.numerator, t.denominator
    denom = r.denominator * (d * d + n * n)
    return RationalPoint(Fraction(r.numerator * (d * d - n * n), denom), Fraction(2 * r.numerator * n * d, denom))


def shoelace_area(quad: CyclicQuad) -> Fraction:
    """Exact positive area by the surveyor's formula over the vertex order."""
    w, vs = quad.homogeneous
    total = sum(vs[i][0] * vs[(i + 1) % 4][1] - vs[(i + 1) % 4][0] * vs[i][1] for i in range(4))
    if total == 0:
        raise DegenerateQuad("zero area")
    return Fraction(abs(total), 2 * w * w)


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


def diagonals_cut_params(quad: CyclicQuad) -> tuple[Fraction, Fraction, RationalPoint]:
    """Where the diagonals meet: J = A + mu_ac (C - A) = B + mu_bd (D - B)."""
    w, ((ax, ay), (bx, by), (cx, cy), (dx, dy)) = quad.homogeneous
    ux, uy = cx - ax, cy - ay
    vx, vy = dx - bx, dy - by
    ex, ey = bx - ax, by - ay
    det = ux * vy - uy * vx
    if det == 0:
        raise DegenerateQuad("diagonals are parallel")
    n_ac = ex * vy - ey * vx
    n_bd = ex * uy - ey * ux
    return (
        Fraction(n_ac, det),
        Fraction(n_bd, det),
        RationalPoint(Fraction(ax * det + n_ac * ux, w * det), Fraction(ay * det + n_ac * uy, w * det)),
    )


def _feet_at(o: tuple[int, int], e: tuple[int, int], apexes: tuple[tuple[int, int], ...], mu: Fraction) -> bool:
    """Whether the perpendicular foot of each apex p on base o-e sits at
    o + mu (e - o). The foot is at lam = ((p - o).base) / (base.base), so
    with mu = n/m the test is ((p - o).base) m == n (base.base)."""
    bx, by = e[0] - o[0], e[1] - o[1]
    rhs = mu.numerator * (bx * bx + by * by)
    return all(((p[0] - o[0]) * bx + (p[1] - o[1]) * by) * mu.denominator == rhs for p in apexes)


def segments_equal_portions(quad: CyclicQuad) -> bool:
    """Whether, on each diagonal taken as base of its two triangles, the
    perpendicular feet coincide with the diagonal intersection.

    This holds exactly when the diagonals are perpendicular: it is the
    source text's angle-free way of saying so.
    """
    _, (a, b, c, d) = quad.homogeneous
    mu_ac, mu_bd, _ = diagonals_cut_params(quad)
    return _feet_at(a, c, (b, d), mu_ac) and _feet_at(b, d, (a, c), mu_bd)


def brahmagupta_theorem_check(quad: CyclicQuad) -> bool:
    """For a quad with perpendicular diagonals: does the perpendicular to
    each side through the diagonal intersection meet the opposite side at
    its exact midpoint? True only if all four sides pass with zero residual."""
    if not segments_equal_portions(quad):
        raise PreconditionViolated("diagonals are not perpendicular")
    _, (a, b, c, d) = quad.homogeneous
    mu_ac, _, _ = diagonals_cut_params(quad)
    n, m = mu_ac.numerator, mu_ac.denominator
    # m J = m A + n (C - A), an integer point.
    jx, jy = m * a[0] + n * (c[0] - a[0]), m * a[1] + n * (c[1] - a[1])
    for p, q, r_, s in ((a, b, c, d), (b, c, d, a), (c, d, a, b), (d, a, b, c)):
        sx, sy = q[0] - p[0], q[1] - p[1]
        denom = (s[0] - r_[0]) * sx + (s[1] - r_[1]) * sy
        if denom == 0:
            raise DegenerateQuad("perpendicular line is parallel to the opposite side")
        # The perpendicular meets line r_-s at r_ + nu (s - r_), where
        # nu = ((J - r_).side) / denom; the midpoint is nu = 1/2.
        if 2 * ((jx - m * r_[0]) * sx + (jy - m * r_[1]) * sy) != m * denom:
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
    diameter through the parameter-t point and apex at parameter u.

    Over one integer denominator w the base ends are a = P/w and c = -a and
    the apex is b = Q/w. With pp = P.P and qp = Q.P the foot of b sits at
    lambda = (pp - qp)/(2 pp), the segments are alpha^2 = (pp - qp)^2/(pp w^2)
    and beta^2 = (pp + qp)^2/(pp w^2), and the height is b minus the foot,
    (Q pp - qp P)/(w pp). The identities are decided on the numerators over
    the common denominator (w pp)^2.
    """
    t = _as_rat(t)
    u = _as_rat(u)
    r = _as_rat(r)
    if t == 0:
        raise DegenerateBase("base parameter must be nonzero")
    a_pt = point_from_param(t, r)
    b_pt = point_from_param(u, r)
    w, (px, py, qx, qy) = _integer_form((a_pt.x, a_pt.y, b_pt.x, b_pt.y))
    if (qx, qy) in ((px, py), (-px, -py)):
        raise DegenerateBase("apex coincides with a base endpoint")
    pp, qp = px * px + py * py, qx * px + qy * py
    hx, hy = qx * pp - qp * px, qy * pp - qp * py
    a_num = (qx - px) ** 2 + (qy - py) ** 2
    b_num = (qx + px) ** 2 + (qy + py) ** 2
    alpha_num, beta_num = (pp - qp) ** 2, (pp + qp) ** 2
    h_num = hx * hx + hy * hy
    wsq = w * w
    return HalfOblongReport(
        lam=Fraction(pp - qp, 2 * pp),
        a_sq=Fraction(a_num, wsq),
        b_sq=Fraction(b_num, wsq),
        gamma_sq=Fraction(4 * pp, wsq),
        alpha_sq=Fraction(alpha_num, pp * wsq),
        beta_sq=Fraction(beta_num, pp * wsq),
        h_sq=Fraction(h_num, wsq * pp * pp),
        segment_from_side=(alpha_num * pp == a_num * pp * pp - h_num),
        segment_from_upright=(beta_num * pp == b_num * pp * pp - h_num),
        height_is_mean=(h_num * h_num == alpha_num * beta_num * pp * pp),
        base_from_sum=(4 * pp == a_num + b_num),
    )


def diagonal_lengths_sq(quad: CyclicQuad) -> tuple[Fraction, Fraction]:
    """Squared diagonal lengths from coordinates (a coordinate oracle,
    not a side-length formula)."""
    w, (a, b, c, d) = quad.homogeneous
    return Fraction(_dist_sq(a, c), w * w), Fraction(_dist_sq(b, d), w * w)


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
    """Mirror p across the line through the origin and d:
    2 (p.d) d / (d.d) - p, on integers over one common denominator g."""
    g, (px, py, dx, dy) = _integer_form((p.x, p.y, d.x, d.y))
    dot, dd = px * dx + py * dy, dx * dx + dy * dy
    return RationalPoint(Fraction(2 * dot * dx - dd * px, g * dd), Fraction(2 * dot * dy - dd * py, g * dd))


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
        # (b - a) x (c - a) with c = -a is 2 (a x b).
        orient = a.x * b.y - a.y * b.x
        if orient == 0:
            continue
        order = (a, b, c, d) if orient > 0 else (a, d, c, b)
        quads.append(CyclicQuad(r, order))
    return quads


def rational_side_quads(count: int, radius: Fraction | int = 1) -> list[CyclicQuad]:
    """Cyclic quads whose four chords are all exactly rational, built from
    ascending 4-subsets of the Pythagorean parameter table (extended with
    the negated values, which keeps 1 + t^2 square). Counts above the
    number of such subsets raise CountTooLarge."""
    if count < 1:
        raise ValueError("count must be >= 1")
    r = _as_rat(radius)
    pool = sorted(set(PYTHAGOREAN_PARAMS) | {-t for t in PYTHAGOREAN_PARAMS})
    limit = math.comb(len(pool), 4)
    if count > limit:
        raise CountTooLarge(f"count {count} exceeds the {limit} quads the parameter pool yields")
    quads: list[CyclicQuad] = []
    for combo in itertools.combinations(pool, 4):
        quads.append(CyclicQuad(r, tuple(point_from_param(t, r) for t in combo)))
        if len(quads) == count:
            break
    return quads


def rational_sides(quad: CyclicQuad) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four side lengths, which must all be exactly rational."""
    w, vs = quad.homogeneous
    sides = []
    for i in range(4):
        root = sqrt_exact(Fraction(_dist_sq(vs[i], vs[(i + 1) % 4]), w * w))
        if root is None:
            raise NotRealizable("a chord of this quad is irrational")
        sides.append(root)
    return tuple(sides)
