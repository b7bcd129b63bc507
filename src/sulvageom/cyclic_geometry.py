"""Exact rational-coordinate geometry of cyclic figures: quadrilateral
areas, the heart-cord, segments versus portions, orthodiagonality,
the bisection theorem, and the half-oblong derivation.

Lengths are carried squared wherever exactness demands it. Operations
that need plain lengths are fed points whose tan-half-angle parameter t
has 1 + t^2 a rational square, which makes every chord rational.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .exact_numbers import require_exact


class DegenerateBase(ValueError):
    """A half-oblong apex on an end of its base diameter."""


class NotRealizable(ValueError):
    """Side lengths that no cyclic quadrilateral attains."""


RationalPoint = namedtuple("RationalPoint", "x y")


def _dist_sq(p: tuple[int, int], q: tuple[int, int]) -> int:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


class CyclicQuad(namedtuple("CyclicQuad", "r vertices")):
    """Four pairwise distinct points on the circle x^2 + y^2 = r^2, r > 0, in
    one strictly counterclockwise sweep. Only this constructor checks that;
    the predicates below rely on the convex quad it makes: no three vertices
    collinear, a positive area and diagonals that cross.

    ``homogeneous`` is the same quad over one integer denominator:
    ``(w, points)``, with w the least common denominator of r and the eight
    coordinates, and points the four integer pairs (x w, y w), computed once
    at construction, outside eq, hash and repr. The validation and the
    predicates decide on these integers by cross-multiplication. The checks
    live in ``_from_forms``, which builders holding each vertex's least form
    (X, Y, D) call directly; this constructor derives those forms, refuses
    with ValueError a vertex that is not a pair and with TypeError a radius or
    coordinate that is neither an int nor a Fraction. The radius keeps its
    type; the vertices are stored as a tuple.
    """

    def __new__(cls, r: Fraction | int, vertices: tuple[RationalPoint, ...]) -> CyclicQuad:
        vertices = tuple(vertices)
        require_exact(r)
        forms = []
        for v in vertices:
            try:
                x, y = v
            except (TypeError, ValueError):
                raise ValueError(f"vertex {v!r} is not a pair of coordinates") from None
            require_exact(x, y)
            big_d = math.lcm(x.denominator, y.denominator)
            forms.append((x.numerator * (big_d // x.denominator), y.numerator * (big_d // y.denominator), big_d))
        return cls._from_forms(r, vertices, forms)

    @classmethod
    def _from_forms(cls, r: Fraction | int, vertices: tuple[RationalPoint, ...],
                    forms: list[tuple[int, int, int]]) -> CyclicQuad:
        """The checks and the integer form of every quad. Each of ``forms`` is
        its vertex as (X, Y, D) with D > 0 and gcd(X, Y, D) = 1, so that D is
        the lcm of the vertex's two denominators; the caller vouches for that."""
        if len(forms) != 4:
            raise ValueError(f"a quad has exactly 4 vertices, not {len(forms)}")
        w = math.lcm(r.denominator, *[big_d for _, _, big_d in forms])
        big_r = r.numerator * (w // r.denominator)
        if big_r <= 0:
            raise ValueError(f"radius {r} must be positive")
        points = tuple([(x * (k := w // big_d), y * k) for x, y, big_d in forms])
        rsq = big_r * big_r
        for v, (x, y) in zip(vertices, points):
            if x * x + y * y != rsq:
                raise ValueError(f"vertex ({v[0]}, {v[1]}) is off the circle of radius {r}")
        if len(set(points)) != 4:
            raise ValueError("vertices must be pairwise distinct")
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = points
        # Distinct points on a circle never turn by 0, and a, b, c, d run counterclockwise
        # exactly when the triangles a, b, c and a, c, d both do.
        if (bx - ax) * (cy - ay) < (by - ay) * (cx - ax) or (cx - ax) * (dy - ay) < (cy - ay) * (dx - ax):
            raise ValueError("vertices are not in counterclockwise circular order")
        quad = super().__new__(cls, r, vertices)
        quad.__dict__["homogeneous"] = (w, points)
        return quad

    # namedtuple's _make, which _replace calls, would skip the checks in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot set or delete {name!r}: a CyclicQuad is immutable")

    __delattr__ = __setattr__


def _param_form(t: Fraction | int, r: Fraction | int) -> tuple[int, int, int]:
    """The point at parameter t on the circle of radius r by the tan-half-angle map,
    (r(1 - t^2)/(1 + t^2), 2rt/(1 + t^2)), as its least integer form (X, Y, D):
    D > 0 and gcd(X, Y, D) = 1. The point (-r, 0) is unreachable. Before the
    division, gcd(X, Y) divides 2 r.numerator, so that small number leads the
    gcd and it stays cheap.
    An int has a numerator and a denominator too; any other type is refused."""
    require_exact(t, r)
    if r.numerator <= 0:
        raise ValueError(f"radius {r} must be positive")
    n, d = t.numerator, t.denominator
    x, y, big_d = r.numerator * (d * d - n * n), 2 * r.numerator * n * d, r.denominator * (d * d + n * n)
    g = math.gcd(2 * r.numerator, big_d, x, y)
    return x // g, y // g, big_d // g


def _point(form: tuple[int, int, int]) -> RationalPoint:
    x, y, big_d = form
    return RationalPoint(Fraction(x, big_d), Fraction(y, big_d))


def shoelace_area(quad: CyclicQuad) -> Fraction:
    """Exact positive area, half the diagonals' cross product (C - A) x (D - B): the surveyor's sum, factored."""
    w, ((ax, ay), (bx, by), (cx, cy), (dx, dy)) = quad.homogeneous
    return Fraction((cx - ax) * (dy - by) - (cy - ay) * (dx - bx), 2 * w * w)


def brahmagupta_radicand(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Fraction:
    """The exact product (s-a)(s-b)(s-c)(s-d) with s the half-sum of the
    sides; its exact root, when it exists, is the cyclic quadrilateral area.

    A single zero side is allowed as a mathematical degenerate (the Heron
    case); there is no textual warrant for it in the source, and callers
    should flag it as such.
    """
    require_exact(a, b, c, d)
    # With the sides X/D over their lcm D > 0 and S = sum X, s - side = (S - 2X)/(2D).
    big_d = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    xs = [side.numerator * (big_d // side.denominator) for side in (a, b, c, d)]
    if any(x < 0 for x in xs):
        raise NotRealizable("sides must be nonnegative")
    if xs.count(0) > 1:
        raise NotRealizable("at most one side may vanish")
    total = sum(xs)
    product = 1
    for name, x in zip("abcd", xs):
        factor = total - 2 * x
        if factor <= 0:
            raise NotRealizable(f"half-sum minus side {name} is not positive")
        product *= factor
    return Fraction(product, 16 * big_d**4)


def crude_area(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Fraction:
    """The gross estimate ((a+c)/2)((b+d)/2); deliberately order-sensitive,
    unlike the true area of four consecutive chords."""
    require_exact(a, b, c, d)
    if any(side < 0 for side in (a, b, c, d)):
        raise NotRealizable("sides must be nonnegative")
    return Fraction((a + c) * (b + d), 4)


def heart_cord(a: Fraction, b: Fraction, h: Fraction) -> Fraction:
    """Circumradius of a triangle from two sides and the perpendicular
    dropped from their common vertex: R = a*b/(2h). Doubled, it is the
    diameter of the circle touching the corners of the completed figure."""
    require_exact(a, b, h)
    if a <= 0 or b <= 0 or h <= 0:
        raise ValueError("sides and perpendicular must be positive")
    if h > min(a, b):
        raise ValueError(f"perpendicular {h} exceeds the shorter side {min(a, b)}")
    return Fraction(a * b, h * 2)


def triquadrilateral(t1: Fraction | int, t2: Fraction | int, t3: Fraction | int, t4: Fraction | int,
                     r: Fraction | int) -> CyclicQuad:
    """Complete the triangle at parameters t1, t2, t3 with a fourth vertex
    t4 on the same circle. The parameters must already trace one convex
    counterclockwise sweep."""
    forms = [_param_form(t, r) for t in (t1, t2, t3, t4)]
    return CyclicQuad._from_forms(r, tuple(map(_point, forms)), forms)


def orthodiagonal_verdicts(quad: CyclicQuad) -> tuple[bool, bool]:
    """(segments equal portions, bisection theorem), decided on the integer
    form; (False, False) when the diagonals are not perpendicular.

    With u = C - A, v = D - B, e = B - A and det = u x v, the diagonals cross at
    J = A + (n_ac/det) u, n_ac = e x v. Each test is homogeneous in this unreduced cut,
    so det's sign does not matter. The foot of the apex B on A-C sits at the cut when
    ((B - A).u) det == n_ac (u.u), the source text's angle-free test of perpendicular
    diagonals. One foot decides: each apex's feet test is +-(u.v) times twice the area
    of its triangle with its diagonal, never 0 on a circle (lemma: tests/test_proofs.py).
    The perpendicular to each side through J meets the opposite side r-s at its midpoint:
    with det J an integer point, 2 ((det J - det r).side) == det ((s - r).side).
    """
    _, (a, b, c, d) = quad.homogeneous
    (ax, ay), (bx, by) = a, b
    ux, uy, vx, vy, ex, ey = c[0] - ax, c[1] - ay, d[0] - bx, d[1] - by, bx - ax, by - ay
    det, n_ac = ux * vy - uy * vx, ex * vy - ey * vx
    if (ex * ux + ey * uy) * det != n_ac * (ux * ux + uy * uy):
        return False, False
    jx, jy = det * ax + n_ac * ux, det * ay + n_ac * uy
    for p, q, r_, s in ((a, b, c, d), (b, c, d, a), (c, d, a, b), (d, a, b, c)):
        sx, sy = q[0] - p[0], q[1] - p[1]
        denom = (s[0] - r_[0]) * sx + (s[1] - r_[1]) * sy
        if 2 * ((jx - det * r_[0]) * sx + (jy - det * r_[1]) * sy) != det * denom:
            return True, False
    return True, True


def segments_equal_portions(quad: CyclicQuad) -> bool:
    """Whether, on each diagonal taken as base of its two triangles, the
    perpendicular feet coincide with the diagonal intersection."""
    return orthodiagonal_verdicts(quad)[0]


class HalfOblongReport(
    namedtuple(
        "HalfOblongReport",
        "lam a_sq b_sq gamma_sq alpha_sq beta_sq h_sq"
        " segment_from_side segment_from_upright height_is_mean base_from_sum",
    )
):
    """Exact verification that a triangle on a diameter is a half-oblong.

    All quantities are squared, so no root extraction is needed:
    the base splits as alpha + beta at the perpendicular foot, and the
    four sub-identities recover the diagonal rule from the other two.
    They are segment_from_side, alpha^2 = a^2 - h^2; segment_from_upright,
    beta^2 = b^2 - h^2; height_is_mean, h^4 = alpha^2 * beta^2; and
    base_from_sum, gamma^2 = a^2 + b^2.
    """

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return self.segment_from_side and self.segment_from_upright and self.height_is_mean and self.base_from_sum


def xii24_verify(t: Fraction | int, u: Fraction | int, r: Fraction | int) -> HalfOblongReport:
    """Check the half-oblong derivation on the triangle with base the
    diameter through the parameter-t point and apex at parameter u.

    Over w = D_t D_u, with D the points' denominators (no lcm: every ratio below is
    homogeneous of degree 0), the base ends are a = P/w and c = -a and the apex is
    b = Q/w. With pp = P.P and qp = Q.P the foot of b sits at lambda = (pp - qp)/(2 pp),
    the segments are alpha^2 = (pp - qp)^2/(pp w^2) and beta^2 = (pp + qp)^2/(pp w^2),
    and the height is b minus the foot, (Q pp - qp P)/(w pp). The identities are
    decided on the numerators over the common denominator (w pp)^2.
    """
    (xt, yt, dt), (xu, yu, du) = _param_form(t, r), _param_form(u, r)
    px, py, qx, qy, wsq = xt * du, yt * du, xu * dt, yu * dt, (dt * du) ** 2
    if (qx, qy) in ((px, py), (-px, -py)):
        raise DegenerateBase("apex coincides with a base endpoint")
    pp, qp = px * px + py * py, qx * px + qy * py
    hx, hy = qx * pp - qp * px, qy * pp - qp * py
    a_num = (qx - px) ** 2 + (qy - py) ** 2
    b_num = (qx + px) ** 2 + (qy + py) ** 2
    alpha_num, beta_num = (pp - qp) ** 2, (pp + qp) ** 2
    h_num = hx * hx + hy * hy
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
    """Squared diagonal lengths from coordinates, the CLI's ``diagonals squared``
    row (not a side-length formula)."""
    w, (a, b, c, d) = quad.homogeneous
    return Fraction(_dist_sq(a, c), w * w), Fraction(_dist_sq(b, d), w * w)


# Parameters t with 1 + t^2 a rational square, so that chords between any
# two such points (and the point (-r, 0)) come out rational. First two
# entries are pinned: seed 1 must reproduce the reference kite.
PYTHAGOREAN_PARAMS: tuple[Fraction, ...] = tuple(
    Fraction(n, d)
    for n, d in (
        (0, 1), (3, 4), (4, 3), (5, 12), (12, 5), (15, 8), (8, 15),
        (7, 24), (24, 7), (20, 21), (21, 20), (9, 40), (40, 9),
        (11, 60), (60, 11), (28, 45), (45, 28), (33, 56), (56, 33),
        (16, 63), (63, 16), (13, 84), (84, 13), (36, 77), (77, 36),
        (39, 80), (80, 39), (65, 72), (72, 65), (48, 55), (55, 48),
    )
)

_DEMO_RADII: tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(3))

# The generator walks every ordered pair of distinct table entries once
# before it repeats one, while cycling through the radii, so it yields this
# many distinct quads and then starts over.
DEMO_QUAD_LIMIT = math.lcm(len(PYTHAGOREAN_PARAMS) * (len(PYTHAGOREAN_PARAMS) - 1), len(_DEMO_RADII))


@functools.cache
def _demo_point(ti: int, ri: int) -> tuple[RationalPoint, RationalPoint, tuple[int, int, int]]:
    """Table entry ti on demo radius ri, its antipode, and its least integer
    form (X, Y, D). Filled on first use; it never holds more than the
    31 x 4 grid."""
    form = _param_form(PYTHAGOREAN_PARAMS[ti], _DEMO_RADII[ri])
    a = _point(form)
    return a, RationalPoint(-a.x, -a.y), form


def _reflect_across_diameter(b: tuple[int, int, int], a: tuple[int, int, int]) -> tuple[int, int, int]:
    """Mirror b across the line through the origin and a, both in integer
    form (X, Y, D): (2 (B.A) A - (A.A) B) / (D_b A.A), with no lcm, returned
    as its least form."""
    (bx, by, bd), (ax, ay, _) = b, a
    dot, aa = bx * ax + by * ay, ax * ax + ay * ay
    x, y, big_d = 2 * dot * ax - aa * bx, 2 * dot * ay - aa * by, bd * aa
    g = math.gcd(x, y, big_d)
    return x // g, y // g, big_d // g


def orthodiagonal_generator(seed: int, count: int) -> list[CyclicQuad]:
    """Deterministic-per-seed cyclic quads with perpendicular diagonals.

    One diagonal is a diameter through a parameter point; the opposite
    vertex pair is a point and its mirror image across that diameter, so
    perpendicularity holds by construction and every coordinate stays
    rational. Seed 1 starts at the reference kite on the unit circle.
    Counts above DEMO_QUAD_LIMIT raise ValueError, since the walk would
    repeat quads.
    """
    for name, value in (("seed", seed), ("count", count)):
        if not isinstance(value, int):
            raise TypeError(f"{name} {value!r} is not an int")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > DEMO_QUAD_LIMIT:
        raise ValueError(f"count {count} exceeds the {DEMO_QUAD_LIMIT} distinct quads the demo yields")
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
        ri = len(quads) % len(_DEMO_RADII)
        a, c, big_a = _demo_point(ti, ri)
        b, _, big_b = _demo_point(ui, ri)
        # b is neither a nor c = -a: the table's parameters are distinct and >= 0, and -a sits at -1/t.
        big_d = _reflect_across_diameter(big_b, big_a)
        big_c = (-big_a[0], -big_a[1], big_a[2])
        d = _point(big_d)
        # (b - a) x (c - a) with c = -a is 2 (a x b), of the sign of A x B as D > 0.
        if big_a[0] * big_b[1] - big_a[1] * big_b[0] > 0:
            order, forms = (a, b, c, d), [big_a, big_b, big_c, big_d]
        else:
            order, forms = (a, d, c, b), [big_a, big_d, big_c, big_b]
        quads.append(CyclicQuad._from_forms(_DEMO_RADII[ri], order, forms))
    return quads


def rational_sides(quad: CyclicQuad) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four side lengths, which must all be exactly rational."""
    w, vs = quad.homogeneous
    sides = []
    for i in range(4):
        # A chord is sqrt(dist) / w, rational exactly when the integer dist is a square.
        dist = _dist_sq(vs[i], vs[(i + 1) % 4])
        root = math.isqrt(dist)
        if root * root != dist:
            raise NotRealizable("a chord of this quad is irrational")
        sides.append(Fraction(root, w))
    return tuple(sides)
