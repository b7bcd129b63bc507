import copy
import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sulvageom.cyclic_geometry import (
    DEMO_QUAD_LIMIT,
    CyclicQuad,
    DegenerateBase,
    HalfOblongReport,
    NotRealizable,
    PYTHAGOREAN_PARAMS,
    RationalPoint,
    brahmagupta_radicand,
    crude_area,
    diagonal_lengths_sq,
    heart_cord,
    orthodiagonal_generator,
    orthodiagonal_verdicts,
    rational_sides,
    segments_equal_portions,
    shoelace_area,
    triquadrilateral,
    xii24_verify,
    _DEMO_RADII,
    _demo_point,
    _param_form,
    _reflect_across_diameter,
)
from sulvageom.exact_numbers import rat, sqrt_exact


def pt(x, y):
    return RationalPoint(rat(*x) if isinstance(x, tuple) else rat(x), rat(*y) if isinstance(y, tuple) else rat(y))


UNIT_SQUARE = CyclicQuad(rat(1), (pt(1, 0), pt(0, 1), pt(-1, 0), pt(0, -1)))
KITE = CyclicQuad(rat(1), (pt(1, 0), pt((7, 25), (24, 25)), pt(-1, 0), pt((7, 25), (-24, 25))))


def diagonals_perpendicular(quad):
    """Independent dot-product orthogonality oracle."""
    a, b, c, d = quad.vertices
    return (c.x - a.x) * (d.x - b.x) + (c.y - a.y) * (d.y - b.y) == rat(0)


# -- Oracle: the Fraction formulas the integer kernel replaced -------------


def _sub(p, q):
    return (p.x - q.x, p.y - q.y)


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def oracle_chord_sq(p, q):
    dx, dy = _sub(p, q)
    return dx * dx + dy * dy


def oracle_point(t, r):
    """The tan-half-angle point at t on the circle of radius r; t and r must be
    Fractions, since the divisions below turn ints into floats."""
    denom = 1 + t * t
    return RationalPoint(r * (1 - t * t) / denom, r * 2 * t / denom)


def oracle_reflect(p, d):
    scale = (p.x * d.x + p.y * d.y) * 2 / (d.x * d.x + d.y * d.y)
    return RationalPoint(scale * d.x - p.x, scale * d.y - p.y)


def oracle_foot(a, c, b):
    base = _sub(c, a)
    return _dot(_sub(b, a), base) / _dot(base, base)


def oracle_cut_params(quad):
    a, b, c, d = quad.vertices
    u, v, w = _sub(c, a), _sub(d, b), _sub(b, a)
    det = _cross(u, v)
    mu_ac, mu_bd = _cross(w, v) / det, _cross(w, u) / det
    return mu_ac, mu_bd, RationalPoint(a.x + mu_ac * u[0], a.y + mu_ac * u[1])


def oracle_segments_equal_portions(quad):
    a, b, c, d = quad.vertices
    mu_ac, mu_bd, _ = oracle_cut_params(quad)
    return (
        oracle_foot(a, c, b) == mu_ac
        and oracle_foot(a, c, d) == mu_ac
        and oracle_foot(b, d, a) == mu_bd
        and oracle_foot(b, d, c) == mu_bd
    )


def oracle_bisection_nus(quad):
    """Where the perpendicular to each side through the diagonal cut meets
    the opposite side r-s, as nu in r + nu (s - r)."""
    a, b, c, d = quad.vertices
    _, _, j = oracle_cut_params(quad)
    nus = []
    for p, q, r_, s in ((a, b, c, d), (b, c, d, a), (c, d, a, b), (d, a, b, c)):
        side = _sub(q, p)
        nus.append(_dot(_sub(j, r_), side) / _dot(_sub(s, r_), side))
    return nus


def oracle_verdicts(quad):
    """The quad demo's two verdicts, (segments equal portions, bisection theorem), from the formulas above."""
    ortho = oracle_segments_equal_portions(quad)
    return ortho, ortho and all(nu == Fraction(1, 2) for nu in oracle_bisection_nus(quad))


def oracle_shoelace(quad):
    vs = quad.vertices
    return abs(sum(vs[i].x * vs[(i + 1) % 4].y - vs[(i + 1) % 4].x * vs[i].y for i in range(4))) / 2


def oracle_diagonals(quad):
    a, b, c, d = quad.vertices
    return oracle_chord_sq(c, a), oracle_chord_sq(d, b)


def oracle_sides(quad):
    """rational_sides as it was on Fractions: the exact root of each squared chord."""
    vs = quad.vertices
    sides = tuple(sqrt_exact(oracle_chord_sq(vs[(i + 1) % 4], vs[i])) for i in range(4))
    if None in sides:
        raise NotRealizable("a chord of this quad is irrational")
    return sides


def oracle_radicand(a, b, c, d):
    """brahmagupta_radicand as it was on Fractions: the half-sum s, then the
    product of the four s - side."""
    sides = (a, b, c, d)
    if any(side < 0 for side in sides):
        raise NotRealizable("sides must be nonnegative")
    if sum(1 for side in sides if side == 0) > 1:
        raise NotRealizable("at most one side may vanish")
    s = (a + b + c + d) / 2
    product = rat(1)
    for name, side in zip("abcd", sides):
        factor = s - side
        if factor <= 0:
            raise NotRealizable(f"half-sum minus side {name} is not positive")
        product = product * factor
    return product


def oracle_xii24(t, u, r):
    """The half-oblong check as Fraction vector algebra: the foot of the apex
    b at a + lam (c - a) on the diameter a-c, and every length squared."""
    a_pt = oracle_point(t, r)
    c_pt = RationalPoint(-a_pt.x, -a_pt.y)
    b_pt = oracle_point(u, r)
    if b_pt in (a_pt, c_pt):
        raise DegenerateBase("apex coincides with a base endpoint")
    gamma_sq = oracle_chord_sq(a_pt, c_pt)
    lam = oracle_foot(a_pt, c_pt, b_pt)
    foot = RationalPoint(a_pt.x + lam * (c_pt.x - a_pt.x), a_pt.y + lam * (c_pt.y - a_pt.y))
    alpha_sq = lam * lam * gamma_sq
    beta_sq = (1 - lam) * (1 - lam) * gamma_sq
    h_sq = oracle_chord_sq(b_pt, foot)
    a_sq = oracle_chord_sq(a_pt, b_pt)
    b_sq = oracle_chord_sq(b_pt, c_pt)
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


def oracle_orthodiagonal_generator(seed, count):
    """The demo walk as it ran before the point grid: two tan-half-angle
    points per quad and a Fraction reflection."""
    n = len(PYTHAGOREAN_PARAMS)
    quads = []
    k = seed - 1
    while len(quads) < count:
        ti = k % n
        ui = (k + 1 + k // n) % n
        k += 1
        if ti == ui:
            continue
        r = _DEMO_RADII[len(quads) % len(_DEMO_RADII)]
        a = oracle_point(PYTHAGOREAN_PARAMS[ti], r)
        c = RationalPoint(-a.x, -a.y)
        b = oracle_point(PYTHAGOREAN_PARAMS[ui], r)
        if b in (a, c):
            continue
        d = oracle_reflect(b, a)
        orient = a.x * b.y - a.y * b.x
        if orient == 0:
            continue
        quads.append(CyclicQuad(r, (a, b, c, d) if orient > 0 else (a, d, c, b)))
    return quads


def integer_form(p):
    """(X, Y, D) with p = (X/D, Y/D), over the product of the denominators
    rather than their lcm."""
    big_d = p.x.denominator * p.y.denominator
    return p.x.numerator * p.y.denominator, p.y.numerator * p.x.denominator, big_d


def assert_least_form_of(form, point):
    """form is (X, Y, D) with D > 0, gcd(X, Y, D) = 1 and point = (X/D, Y/D)."""
    x, y, big_d = form
    assert big_d > 0 and math.gcd(x, y, big_d) == 1
    assert point == (Fraction(x, big_d), Fraction(y, big_d))


def assert_kernel_matches_oracle(quad):
    assert orthodiagonal_verdicts(quad) == oracle_verdicts(quad)
    assert segments_equal_portions(quad) == oracle_verdicts(quad)[0]
    assert shoelace_area(quad) == oracle_shoelace(quad)
    assert diagonal_lengths_sq(quad) == oracle_diagonals(quad)
    assert_same_outcome(rational_sides, oracle_sides, quad)


def assert_same_outcome(call, oracle, *args):
    """Equal values, or a refusal of the same type with the same message."""
    try:
        expected = oracle(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            call(*args)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    else:
        assert call(*args) == expected


def assert_xii24_matches_oracle(t, u, r):
    assert_same_outcome(xii24_verify, oracle_xii24, t, u, r)


@st.composite
def euclid_param(draw, bits):
    """t = +-2mn/(m^2 - n^2), so 1 + t^2 is a rational square, with m of the given bit length."""
    m = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    n = draw(st.integers(1, m - 1))
    return Fraction(draw(st.sampled_from((1, -1))) * 2 * m * n, m * m - n * n)


@st.composite
def large_bit_inputs(draw):
    """Four ascending Euclid parameters and a radius, all of one bit size."""
    bits = draw(st.integers(12, 42))
    ts = draw(st.lists(euclid_param(bits), min_size=4, max_size=4, unique=True))
    r = Fraction(draw(st.integers(1, 2**bits)), draw(st.integers(1, 2**bits)))
    return sorted(ts), r


@st.composite
def xii24_inputs(draw):
    """A base parameter t, an apex parameter u and a radius: Euclid
    parameters of 12 to 42 bits or plain rationals of either sign, with u
    now and then on a base endpoint (t itself or the opposite point -1/t)."""
    bits = draw(st.integers(12, 42))
    param = st.one_of(euclid_param(bits), st.fractions(min_value=-30, max_value=30))
    t, u = draw(param), draw(param)
    pick = draw(st.integers(0, 9))
    if pick == 0:
        u = t
    elif pick == 1 and t != 0:
        u = -1 / t
    r = Fraction(draw(st.integers(1, 2**bits)), draw(st.integers(1, 2**bits)))
    return t, u, r


@st.composite
def mixed_param_inputs(draw):
    """Four ascending parameters and a radius: Euclid parameters of 12 to 42
    bits and from none to four plain rationals, so that some quads have only
    rational chords and others an irrational one."""
    bits = draw(st.integers(12, 42))
    plain = draw(st.integers(0, 4))
    ts = draw(st.lists(euclid_param(bits), min_size=4 - plain, max_size=4 - plain, unique=True))
    ts += draw(st.lists(st.fractions(min_value=-30, max_value=30), min_size=plain, max_size=plain, unique=True))
    assume(len(set(ts)) == 4)
    r = Fraction(draw(st.integers(1, 2**bits)), draw(st.integers(1, 2**bits)))
    return sorted(ts), r


def orthodiagonal_fourth(ta, tb, tc):
    """The parameter of the point D that makes chord B-D perpendicular to
    chord A-C, or None for the unreachable point (-r, 0). In half-angles,
    phi_d = phi_a + phi_c - phi_b - pi/2 (mod pi), so tan phi_d = -1/T with
    T = tan(phi_a + phi_c - phi_b), carried as n/d with d = 0 for infinity."""
    n, d = ta + tc, 1 - ta * tc
    n, d = n - tb * d, d + tb * n
    return None if n == 0 else Fraction(-d, n)


@st.composite
def triquadrilateral_inputs(draw):
    """Four ascending parameters and a radius, plain rationals or Euclid
    parameters of 12 to 42 bits; when ``ortho`` is drawn, the fourth is
    orthodiagonal_fourth of the first three and must land on the arc from C
    back to A, so that A-C and B-D are the diagonals."""
    bits = draw(st.integers(12, 42))
    param = st.one_of(euclid_param(bits), st.fractions(min_value=-30, max_value=30, max_denominator=10**6))
    ts = sorted(draw(st.lists(param, min_size=3, max_size=3, unique=True)))
    ortho = draw(st.booleans())
    fourth = orthodiagonal_fourth(*ts) if ortho else draw(param)
    assume(fourth is not None and fourth not in ts)
    if ortho:
        assume(fourth < ts[0] or fourth > ts[2])
    r = Fraction(draw(st.integers(1, 2**bits)), draw(st.integers(1, 2**bits)))
    return sorted(ts + [fourth]), r, ortho


def unchecked_quad(points):
    """A CyclicQuad over the integer points (w = 1) that skips every check of
    the constructor, to reach what no quad on a circle can."""
    quad = tuple.__new__(CyclicQuad, (1, tuple(RationalPoint(Fraction(x), Fraction(y)) for x, y in points)))
    quad.__dict__["homogeneous"] = (1, tuple(points))
    return quad


# Sides of either sign, zero among them, as the CLI's area command parses them.
radicand_side = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=10**6))


@st.composite
def huge_radicand_sides(draw):
    """Sides k N + p/q with N past 4300 digits, k in 1..2 but on one side in
    1..8, so that the half-sum factors are huge and now and then one of them
    is not positive."""
    big = draw(st.integers(10**4300, 10**4400))
    ks = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
    ks.insert(draw(st.integers(0, 3)), draw(st.integers(1, 8)))
    small = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**40)
    return [k * big + draw(small) for k in ks]


def generic_quads(count, rng_seed=0):
    """Cyclic quads from random ascending parameter 4-tuples (no
    orthogonality arranged); ascending parameters give ccw order."""
    rng = random.Random(rng_seed)
    quads = []
    while len(quads) < count:
        ts = set()
        while len(ts) < 4:
            ts.add(Fraction(rng.randint(-60, 60), rng.randint(1, 40)))
        params = sorted(rat(t.numerator, t.denominator) for t in ts)
        quads.append(triquadrilateral(*params, rat(1)))
    return quads


class TestPointsAndChords:
    def test_param_zero(self):
        assert _param_form(rat(0), rat(1)) == (1, 0, 1)

    def test_param_three_quarters(self):
        assert _param_form(rat(3, 4), rat(1)) == (7, 24, 25)

    def test_param_one(self):
        assert _param_form(rat(1), rat(1)) == (0, 1, 1)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            _param_form(rat(1, 2), rat(0))

    @given(t=st.fractions(), r=st.fractions(min_value="1/10", max_value=10))
    @example(t=Fraction(1), r=Fraction(2))  # the form (0, 4, 2) before its gcd 2 comes out
    def test_always_on_circle(self, t, r):
        t = rat(t.numerator, t.denominator)
        r = rat(r.numerator, r.denominator)
        x, y, big_d = form = _param_form(t, r)
        assert Fraction(x * x + y * y, big_d * big_d) == r * r
        assert_least_form_of(form, oracle_point(t, r))


class TestCyclicQuadValidation:
    def test_off_circle_rejected(self):
        with pytest.raises(ValueError, match="is off the circle of radius 1"):
            CyclicQuad(rat(1), (pt(1, 0), pt(0, 1), pt(-1, 0), pt(1, 1)))

    def test_plain_tuple_vertices(self):
        assert CyclicQuad(1, [(1, 0), (0, 1), (-1, 0), (0, -1)]) == UNIT_SQUARE
        with pytest.raises(ValueError, match=r"^vertex \(0, 2\) is off the circle of radius 1$"):
            CyclicQuad(1, [(1, 0), (0, 1), (-1, 0), (0, 2)])

    @pytest.mark.parametrize("bad", [(0, 1, 0), (1,), 1, None], ids=["triple", "single", "int", "none"])
    def test_vertex_not_a_pair_refused_by_name(self, bad):
        with pytest.raises(ValueError, match=f"^vertex {re.escape(repr(bad))} is not a pair of coordinates$"):
            CyclicQuad(1, [(1, 0), bad, (-1, 0), (0, -1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="vertices must be pairwise distinct"):
            CyclicQuad(rat(1), (pt(1, 0), pt(0, 1), pt(-1, 0), pt(0, 1)))

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError, match="vertices are not in counterclockwise circular order"):
            CyclicQuad(rat(1), (pt(1, 0), pt(-1, 0), pt(0, 1), pt(0, -1)))

    @pytest.mark.parametrize("quad", [KITE, *generic_quads(3)])
    def test_only_the_rotations_of_the_sweep_accepted(self, quad):
        rotations = {quad.vertices[i:] + quad.vertices[:i] for i in range(4)}
        for order in itertools.permutations(quad.vertices):
            if order in rotations:
                assert CyclicQuad(quad.r, order) == (quad.r, order)
            else:
                with pytest.raises(ValueError, match="not in counterclockwise circular order"):
                    CyclicQuad(quad.r, order)

    @pytest.mark.parametrize(
        "vertices",
        [(), KITE.vertices[:3], KITE.vertices + (KITE.vertices[0],), KITE.vertices + (pt(0, 1),)],
        ids=["none", "three", "five-one-repeated", "five-distinct"],
    )
    def test_vertex_count_other_than_four_rejected(self, vertices):
        with pytest.raises(ValueError, match=f"a quad has exactly 4 vertices, not {len(vertices)}"):
            CyclicQuad(rat(1), vertices)

    def test_replace_with_five_vertices_rejected(self):
        with pytest.raises(ValueError, match="a quad has exactly 4 vertices, not 5"):
            KITE._replace(vertices=KITE.vertices + (KITE.vertices[0],))

    @pytest.mark.parametrize("r", [0, -1])
    def test_nonpositive_radius_rejected(self, r):
        with pytest.raises(ValueError, match="must be positive"):
            CyclicQuad(rat(r), KITE.vertices)

    def test_integer_form(self):
        assert KITE.homogeneous == (25, ((25, 0), (7, 24), (-25, 0), (7, -24)))

    def test_integer_form_left_out_of_eq_hash_repr(self):
        twin = CyclicQuad(KITE.r, KITE.vertices)
        object.__setattr__(twin, "homogeneous", None)
        assert twin == KITE and hash(twin) == hash(KITE)
        assert "homogeneous" not in repr(KITE)

    def test_int_radius_equals_rational_radius(self):
        plain, rational = CyclicQuad(1, KITE.vertices), CyclicQuad(rat(1), KITE.vertices)
        assert plain == rational and hash(plain) == hash(rational)

    def test_replace_validates_again(self):
        with pytest.raises(ValueError, match="is off the circle of radius 2"):
            KITE._replace(r=rat(2))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda quad: pickle.loads(pickle.dumps(quad))])
    def test_copy_and_pickle_keep_the_integer_form(self, clone):
        twin = clone(KITE)
        assert twin == KITE and twin.homogeneous == KITE.homogeneous

    def test_copy_and_pickle_validate_again(self):
        # Both rebuild a quad from this reduction, which calls the constructor.
        rebuild, (cls, _, vertices), *_ = KITE.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        with pytest.raises(ValueError, match="is off the circle of radius 2"):
            rebuild(cls, rat(2), vertices)

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            KITE.r = rat(2)

    def test_integer_form_is_read_only(self):
        # The predicates trust homogeneous, so it can be neither assigned nor deleted.
        with pytest.raises(AttributeError, match="'homogeneous'"):
            KITE.homogeneous = None
        with pytest.raises(AttributeError, match="'homogeneous'"):
            del KITE.homogeneous
        assert KITE.homogeneous == (25, ((25, 0), (7, 24), (-25, 0), (7, -24)))

    def test_list_vertices_equal_tuple_vertices(self):
        kite = orthodiagonal_generator(1, 1)[0]
        for twin in (CyclicQuad(kite.r, list(kite.vertices)), kite._replace(vertices=list(kite.vertices))):
            assert type(twin.vertices) is tuple
            assert twin == kite and hash(twin) == hash(kite)
            assert twin.homogeneous == kite.homogeneous


class TestExactTypes:
    """The kernel takes an int or a Fraction wherever it takes a rational."""

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: CyclicQuad(1.0, KITE.vertices), 1.0),
            (lambda: CyclicQuad(1, (RationalPoint(1.0, 0),) + KITE.vertices[1:]), 1.0),
            (lambda: _param_form(0.5, 1), 0.5),
            (lambda: _param_form(rat(1, 2), 2.5), 2.5),
            (lambda: triquadrilateral(-2, 0.5, 1, 3, 1), 0.5),
            (lambda: xii24_verify(0.5, 7, 1), 0.5),
            (lambda: crude_area(1, 2, 3.0, 4), 3.0),
            (lambda: heart_cord(3, 4, 2.4), 2.4),
            (lambda: brahmagupta_radicand(1.0, 1, 1, 1), 1.0),
        ],
        ids=["quad-radius", "quad-coordinate", "param", "param-radius", "triquadrilateral", "xii24", "crude",
             "heart-cord", "radicand"],
    )
    def test_float_refused_by_name(self, build, bad):
        with pytest.raises(TypeError, match=f"^{re.escape(repr(bad))} is neither an int nor a Fraction$"):
            build()

    @pytest.mark.parametrize("r", [1, Fraction(1)], ids=["int-r", "fraction-r"])
    @pytest.mark.parametrize("kind", [int, Fraction], ids=["int-t", "fraction-t"])
    def test_int_and_fraction_agree(self, r, kind):
        ts = (-2, 0, 1, 3)
        quad, reference = triquadrilateral(*map(kind, ts), r), triquadrilateral(*map(Fraction, ts), Fraction(1))
        assert quad == reference and hash(quad) == hash(reference)
        assert quad.homogeneous == reference.homogeneous
        assert all(type(c) is Fraction for point in quad.vertices for c in point)
        report = xii24_verify(kind(2), kind(7), r)
        assert report == xii24_verify(Fraction(2), Fraction(7), Fraction(1))
        assert all(type(getattr(report, name)) is Fraction
                   for name in ("lam", "a_sq", "b_sq", "gamma_sq", "alpha_sq", "beta_sq", "h_sq"))

    @pytest.mark.parametrize("kind", [int, Fraction], ids=["int", "fraction"])
    def test_crude_area_and_heart_cord_give_fractions(self, kind):
        for value, expected in ((crude_area(*map(kind, (1, 2, 3, 4))), Fraction(6)),
                                (heart_cord(*map(kind, (5, 5, 3))), Fraction(25, 6))):
            assert type(value) is Fraction and value == expected

    def test_quad_keeps_the_radius_type(self):
        assert type(triquadrilateral(-2, 0, 1, 3, 1).r) is int
        assert type(triquadrilateral(-2, 0, 1, 3, Fraction(1)).r) is Fraction


class TestAreas:
    def test_square(self):
        assert shoelace_area(UNIT_SQUARE) == rat(2)

    def test_kite(self):
        assert shoelace_area(KITE) == rat(48, 25)

    def test_reflection_symmetry(self):
        mirrored = CyclicQuad(
            KITE.r, tuple(RationalPoint(v.x, -v.y) for v in reversed(KITE.vertices))
        )
        assert shoelace_area(mirrored) == shoelace_area(KITE)


class TestBrahmaguptaRadicand:
    def test_square_side_25(self):
        radicand = brahmagupta_radicand(rat(25), rat(25), rat(25), rat(25))
        assert radicand == rat(390625)
        assert sqrt_exact(radicand) == rat(625)

    def test_heron_degenerate(self):
        radicand = brahmagupta_radicand(rat(3), rat(4), rat(5), rat(0))
        assert radicand == rat(36)
        assert sqrt_exact(radicand) == rat(6)

    def test_kite_sides_match_shoelace(self):
        sides = rational_sides(KITE)
        assert sides == (rat(6, 5), rat(8, 5), rat(8, 5), rat(6, 5))
        assert sqrt_exact(brahmagupta_radicand(*sides)) == shoelace_area(KITE)

    def test_half_hexagon(self):
        # Sides 1, 1, 1, 2 over the common denominator 1: S - 2X for the long side is 1, the
        # smallest factor that is still positive. The area is 3 sqrt(3)/4.
        assert brahmagupta_radicand(1, 1, 1, 2) == Fraction(27, 16)

    def test_not_realizable(self):
        with pytest.raises(NotRealizable):
            brahmagupta_radicand(rat(10), rat(1), rat(1), rat(1))

    def test_two_zero_sides_rejected(self):
        with pytest.raises(NotRealizable):
            brahmagupta_radicand(rat(1), rat(1), rat(0), rat(0))

    def test_negative_side_rejected(self):
        # Every half-sum factor (31/2, 9/2, 9/2, 9/2) is positive, so only the sign check refuses it.
        with pytest.raises(NotRealizable, match="nonnegative"):
            brahmagupta_radicand(rat(-1), rat(10), rat(10), rat(10))

    @pytest.mark.parametrize("position", range(4))
    def test_refused_side_named_by_letter(self, position):
        # A side past the 4300-digit int-to-str limit: its message must not print it.
        sides = [rat(1)] * 4
        sides[position] = rat(10**5000)
        with pytest.raises(NotRealizable, match=f"^half-sum minus side {'abcd'[position]} is not positive$"):
            brahmagupta_radicand(*sides)

    def test_permutation_invariance(self):
        sides = (rat(6, 5), rat(8, 5), rat(7, 5), rat(9, 5))
        reference = brahmagupta_radicand(*sides)
        for perm in itertools.permutations(sides):
            assert brahmagupta_radicand(*perm) == reference

    @settings(max_examples=300)
    @given(st.lists(radicand_side, min_size=4, max_size=4))
    def test_matches_the_fraction_oracle(self, sides):
        assert_same_outcome(brahmagupta_radicand, oracle_radicand, *sides)

    @settings(deadline=None, max_examples=30)
    @given(huge_radicand_sides())
    def test_huge_sides_match_the_fraction_oracle(self, sides):
        assert_same_outcome(brahmagupta_radicand, oracle_radicand, *sides)


class TestCrudeArea:
    def test_square(self):
        assert crude_area(rat(25), rat(25), rat(25), rat(25)) == rat(625)

    def test_order_sensitivity_witness(self):
        assert crude_area(rat(1), rat(1), rat(7), rat(7)) == rat(16)
        assert crude_area(rat(1), rat(7), rat(1), rat(7)) == rat(7)

    def test_heron_degenerate(self):
        assert crude_area(rat(3), rat(4), rat(5), rat(0)) == rat(8)

    def test_negative_side_rejected(self):
        with pytest.raises(NotRealizable):
            crude_area(rat(1), rat(1), rat(-1), rat(1))


class TestHeartCord:
    def test_3_4_5(self):
        assert heart_cord(rat(3), rat(4), rat(12, 5)) == rat(5, 2)

    def test_unit(self):
        assert heart_cord(rat(1), rat(1), rat(1)) == rat(1, 2)

    def test_doubled_is_hypotenuse(self):
        assert heart_cord(rat(3), rat(4), rat(12, 5)) * 2 == rat(5)

    def test_zero_perpendicular(self):
        with pytest.raises(ValueError, match="sides and perpendicular must be positive"):
            heart_cord(rat(3), rat(4), rat(0))

    def test_negative_side_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            heart_cord(rat(-3), rat(4), rat(1))

    @pytest.mark.parametrize("a, b", [(0, 4), (3, 0)])
    def test_zero_side_rejected(self, a, b):
        with pytest.raises(ValueError, match="must be positive"):
            heart_cord(rat(a), rat(b), rat(1))

    @pytest.mark.parametrize("a, b", [(3, 4), (4, 3)])
    def test_perpendicular_as_long_as_the_shorter_side(self, a, b):
        # The shorter side is the perpendicular: a right angle at its foot, the longer side the diameter.
        assert heart_cord(a, b, 3) == 2

    @pytest.mark.parametrize("a, b, h", [(3, 4, rat(3001, 1000)), (4, 3, rat(3001, 1000)), (3, 4, 5), (1, 1, 2)])
    def test_perpendicular_longer_than_a_side_rejected(self, a, b, h):
        with pytest.raises(ValueError, match=f"^perpendicular {h} exceeds the shorter side {min(a, b)}$"):
            heart_cord(a, b, h)


class TestTriquadrilateral:
    def test_rotated_square(self):
        # parameters a quarter-turn apart trace a square
        quad = triquadrilateral(rat(1, 2), rat(3), rat(-2), rat(-1, 3), rat(1))
        sides = [oracle_chord_sq(quad.vertices[i], quad.vertices[(i + 1) % 4]) for i in range(4)]
        assert len(set(sides)) == 1
        assert diagonal_lengths_sq(quad) == (rat(4), rat(4))

    def test_circumdiameter_matches_heart_cord(self):
        r = rat(5, 2)
        quad = triquadrilateral(rat(3, 4), rat(24, 7), rat(-4, 3), rat(-1, 4), r)
        a_pt, b_pt, c_pt = quad.vertices[:3]
        gamma = sqrt_exact(oracle_chord_sq(a_pt, c_pt))
        a = sqrt_exact(oracle_chord_sq(a_pt, b_pt))
        b = sqrt_exact(oracle_chord_sq(b_pt, c_pt))
        cross = (c_pt.x - a_pt.x) * (b_pt.y - a_pt.y) - (c_pt.y - a_pt.y) * (b_pt.x - a_pt.x)
        h = abs(cross) / gamma
        assert heart_cord(a, b, h) == r

    def test_coincident_params_rejected(self):
        with pytest.raises(ValueError, match="vertices must be pairwise distinct"):
            triquadrilateral(rat(1), rat(2), rat(3), rat(1), rat(1))


class TestSegmentsAndPortions:
    def test_square_and_kite_orthodiagonal(self):
        assert segments_equal_portions(UNIT_SQUARE)
        assert segments_equal_portions(KITE)

    def test_generic_quad_not_orthodiagonal(self):
        quad = triquadrilateral(rat(0), rat(1, 3), rat(5, 2), rat(-2), rat(1))
        assert not segments_equal_portions(quad)
        assert not diagonals_perpendicular(quad)

    def test_matches_dot_product_oracle(self):
        for quad in generic_quads(30) + orthodiagonal_generator(3, 30):
            assert segments_equal_portions(quad) == diagonals_perpendicular(quad)


class TestBisectionTheorem:
    def test_square(self):
        assert orthodiagonal_verdicts(UNIT_SQUARE) == (True, True)

    def test_kite_midpoint_witness(self):
        # perpendicular from (7/25, 0) to side AB meets CD at its midpoint
        c, d = KITE.vertices[2], KITE.vertices[3]
        midpoint = pt((-9, 25), (-12, 25))
        assert RationalPoint((c.x + d.x) / 2, (c.y + d.y) / 2) == midpoint
        assert orthodiagonal_verdicts(KITE) == (True, True)

    def test_precondition(self):
        quad = triquadrilateral(rat(0), rat(1, 3), rat(5, 2), rat(-2), rat(1))
        assert orthodiagonal_verdicts(quad) == (False, False)

    def test_generated_instances(self):
        for quad in orthodiagonal_generator(2, 25):
            assert orthodiagonal_verdicts(quad) == (True, True)


class TestOrthodiagonalVerdicts:
    """One integer pass against the Fraction formulas of the two verdicts."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_whole_demo_space(self, seed):
        for quad in orthodiagonal_generator(seed, DEMO_QUAD_LIMIT):
            assert orthodiagonal_verdicts(quad) == oracle_verdicts(quad) == (True, True)

    def test_rational_chord_quads(self):
        verdicts = []
        pool = sorted({*PYTHAGOREAN_PARAMS, *(-t for t in PYTHAGOREAN_PARAMS)})
        for quad in (triquadrilateral(*ts, 1) for ts in itertools.islice(itertools.combinations(pool, 4), 3000)):
            verdicts.append(orthodiagonal_verdicts(quad))
            assert verdicts[-1] == oracle_verdicts(quad)
        assert set(verdicts) == {(False, False), (True, True)}

    @settings(deadline=None)
    @given(triquadrilateral_inputs())
    def test_random_triquadrilaterals(self, inputs):
        ts, r, ortho = inputs
        quad = triquadrilateral(*ts, r)
        assert orthodiagonal_verdicts(quad) == oracle_verdicts(quad)
        assert orthodiagonal_verdicts(quad)[0] == diagonals_perpendicular(quad)
        if ortho:
            assert orthodiagonal_verdicts(quad) == (True, True)

    def test_bisection_needs_the_circle(self):
        # A convex kite with perpendicular diagonals on the axes and no
        # circumcircle: its feet sit at the cut, but no perpendicular to a
        # side through the cut halves the opposite side.
        quad = unchecked_quad(((2, 0), (0, 3), (-2, 0), (0, -1)))
        assert diagonals_perpendicular(quad)
        assert orthodiagonal_verdicts(quad) == oracle_verdicts(quad) == (True, False)
        assert segments_equal_portions(quad) is True


class TestHalfOblong:
    def test_3_4_5(self):
        report = xii24_verify(rat(3, 4), rat(24, 7), rat(5, 2))
        assert report.a_sq == rat(9)
        assert report.b_sq == rat(16)
        assert report.gamma_sq == rat(25)
        assert report.alpha_sq == rat(81, 25)   # alpha = 9/5
        assert report.beta_sq == rat(256, 25)   # beta = 16/5
        assert report.h_sq == rat(144, 25)
        assert report.h_sq * report.h_sq == report.alpha_sq * report.beta_sq
        assert report.all_ok

    def test_all_ok_needs_every_identity(self):
        report = xii24_verify(rat(3, 4), rat(24, 7), rat(5, 2))
        for name in ("segment_from_side", "segment_from_upright", "height_is_mean", "base_from_sum"):
            assert not report._replace(**{name: False}).all_ok

    def test_isoceles_apex(self):
        # apex on the perpendicular bisector of the base diameter
        report = xii24_verify(rat(3, 4), rat(7), rat(1))
        assert report.a_sq == report.b_sq
        assert report.lam == rat(1, 2)
        assert report.all_ok

    def test_zero_base_param(self):
        # t = 0 puts the base on the diameter from (r, 0) to (-r, 0).
        report = xii24_verify(rat(0), rat(1, 2), rat(1))
        assert report == oracle_xii24(rat(0), rat(1, 2), rat(1))
        assert report.all_ok

    def test_apex_on_base_rejected(self):
        with pytest.raises(DegenerateBase):
            xii24_verify(rat(2), rat(2), rat(1))
        with pytest.raises(DegenerateBase):
            xii24_verify(rat(2), rat(-1, 2), rat(1))

    @settings(max_examples=150)
    @given(
        t=st.fractions(min_value=-30, max_value=30),
        u=st.fractions(min_value=-30, max_value=30),
        r=st.fractions(min_value="1/5", max_value=5),
    )
    def test_all_identities_hold(self, t, u, r):
        t = rat(t.numerator, t.denominator)
        u = rat(u.numerator, u.denominator)
        r = rat(r.numerator, r.denominator)
        if u == t or u * t == rat(-1):
            return
        report = xii24_verify(t, u, r)
        assert report.all_ok
        assert report.gamma_sq == rat(4) * r * r


class TestDiagonals:
    def test_square(self):
        assert diagonal_lengths_sq(UNIT_SQUARE) == (rat(4), rat(4))

    def test_kite(self):
        assert diagonal_lengths_sq(KITE) == (rat(4), rat(2304, 625))

    def test_orthodiagonal_area_from_diagonals(self):
        for quad in orthodiagonal_generator(1, 10):
            d1_sq, d2_sq = diagonal_lengths_sq(quad)
            d1, d2 = sqrt_exact(d1_sq), sqrt_exact(d2_sq)
            if d1 is not None and d2 is not None:
                assert shoelace_area(quad) == d1 * d2 / 2


class TestOrthodiagonalGenerator:
    def test_seed_one_is_reference_kite(self):
        quad = orthodiagonal_generator(1, 1)[0]
        assert quad.vertices == KITE.vertices
        assert quad.r == rat(1)

    def test_deterministic(self):
        assert orthodiagonal_generator(5, 8) == orthodiagonal_generator(5, 8)

    def test_all_orthodiagonal(self):
        for quad in orthodiagonal_generator(1, 40):
            assert segments_equal_portions(quad)
            assert diagonals_perpendicular(quad)

    def test_vertices_on_circle(self):
        for quad in orthodiagonal_generator(7, 20):
            rsq = quad.r * quad.r
            for v in quad.vertices:
                assert v.x * v.x + v.y * v.y == rsq

    def test_count_validated(self):
        with pytest.raises(ValueError):
            orthodiagonal_generator(1, 0)

    def test_seed_validated(self):
        with pytest.raises(ValueError, match="seed"):
            orthodiagonal_generator(0, 1)

    @pytest.mark.parametrize(
        "seed, count, bad",
        [(1.5, 1, "seed 1.5"), (Fraction(3), 1, "seed Fraction(3, 1)"), (1, 2.5, "count 2.5"), (1, 3.0, "count 3.0")],
        ids=["seed-float", "seed-fraction", "count-float", "count-whole-float"],
    )
    def test_non_int_refused_by_name(self, seed, count, bad):
        with pytest.raises(TypeError, match=rf"^{re.escape(bad)} is not an int$"):
            orthodiagonal_generator(seed, count)

    def test_limit_is_every_pair_at_every_radius(self):
        assert DEMO_QUAD_LIMIT == 1860

    @pytest.mark.parametrize("seed", [1, 12345])
    def test_distinct_up_to_the_limit(self, seed):
        quads = orthodiagonal_generator(seed, DEMO_QUAD_LIMIT)
        assert len(set(quads)) == DEMO_QUAD_LIMIT

    def test_count_beyond_the_limit_refused(self):
        with pytest.raises(ValueError, match="count 1861 exceeds the 1860 distinct quads"):
            orthodiagonal_generator(1, DEMO_QUAD_LIMIT + 1)

    def test_matches_the_pointwise_oracle(self):
        # The seeds shift the radius phase; together they reach all 930 x 4
        # (pair, radius) combinations of the walk.
        for seed in (1, 2, 3, 4, 12345):
            assert orthodiagonal_generator(seed, DEMO_QUAD_LIMIT) == oracle_orthodiagonal_generator(seed, DEMO_QUAD_LIMIT)

    def test_integer_form_is_the_constructors(self):
        # Eq and hash ignore homogeneous, so a w that is not the least would pass the oracle test above.
        for seed in (1, 2, 3, 4):
            for quad in orthodiagonal_generator(seed, DEMO_QUAD_LIMIT):
                assert quad.homogeneous == CyclicQuad(quad.r, quad.vertices).homogeneous

    def test_point_grid_holds_each_point_and_its_antipode(self):
        for ti, t in enumerate(PYTHAGOREAN_PARAMS):
            for ri, r in enumerate(_DEMO_RADII):
                a, c, form = _demo_point(ti, ri)
                assert a == oracle_point(t, r)
                assert c == RationalPoint(-a.x, -a.y)
                assert_least_form_of(form, a)

    def test_point_grid_holds_no_more_than_the_grid(self):
        for seed in (1, 2):
            orthodiagonal_generator(seed, DEMO_QUAD_LIMIT)
        assert _demo_point.cache_info().currsize <= len(PYTHAGOREAN_PARAMS) * len(_DEMO_RADII)


class TestRationalSideQuads:
    def test_all_chords_rational(self):
        pool = sorted({*PYTHAGOREAN_PARAMS, *(-t for t in PYTHAGOREAN_PARAMS)})
        for quad in (triquadrilateral(*ts, 1) for ts in itertools.islice(itertools.combinations(pool, 4), 25)):
            sides = rational_sides(quad)
            assert all(s > 0 for s in sides)

    def test_first_quad(self):
        # The four least parameters of the table and its negations.
        assert triquadrilateral(rat(-84, 13), rat(-60, 11), rat(-40, 9), rat(-63, 16), 1).vertices == (
            RationalPoint(rat(-6887, 7225), rat(-2184, 7225)),
            RationalPoint(rat(-3479, 3721), rat(-1320, 3721)),
            RationalPoint(rat(-1519, 1681), rat(-720, 1681)),
            RationalPoint(rat(-3713, 4225), rat(-2016, 4225)),
        )

    def test_irrational_chord_refused(self):
        with pytest.raises(NotRealizable):
            rational_sides(triquadrilateral(rat(0), rat(1, 3), rat(5, 2), rat(-2), rat(1)))

    def test_pythagorean_params_really_are(self):
        for t in PYTHAGOREAN_PARAMS:
            assert sqrt_exact(rat(1) + t * t) is not None


class TestKernelMatchesOracle:
    def test_whole_demo_space(self):
        quads = orthodiagonal_generator(1, DEMO_QUAD_LIMIT)
        radii = {quad.r for quad in quads}
        for t in PYTHAGOREAN_PARAMS:
            for r in radii:
                assert_least_form_of(_param_form(t, r), oracle_point(t, r))
        for quad in quads:
            a, b, _, d = quad.vertices
            assert d == oracle_reflect(b, a)
            assert_kernel_matches_oracle(quad)

    @settings(deadline=None)
    @given(large_bit_inputs())
    def test_large_bit_quads(self, inputs):
        ts, r = inputs
        points = tuple(oracle_point(t, r) for t in ts)
        quad = triquadrilateral(*ts, r)
        assert quad == CyclicQuad(r, points)
        assert quad.homogeneous == CyclicQuad(r, points).homogeneous
        assert_kernel_matches_oracle(quad)
        # An orthodiagonal quad on the first two: a diameter and a mirrored pair.
        a, b = points[:2]
        if b == RationalPoint(-a.x, -a.y):
            return
        for form_b, form_a in ((integer_form(b), integer_form(a)), (_param_form(ts[1], r), _param_form(ts[0], r))):
            assert_least_form_of(_reflect_across_diameter(form_b, form_a), oracle_reflect(b, a))
        d = oracle_reflect(b, a)
        c = RationalPoint(-a.x, -a.y)
        quad = CyclicQuad(r, (a, b, c, d) if a.x * b.y - a.y * b.x > 0 else (a, d, c, b))
        assert_kernel_matches_oracle(quad)

    @pytest.mark.parametrize(
        "t, u, r",
        [
            # the golden and README xii24 argvs, at the CLI's unit radius
            ("3/4", "7", "1"),
            ("5/12", "2/3", "1"),
            ("-3/5", "7", "1"),
            # the TestHalfOblong inputs
            ("3/4", "24/7", "5/2"),
            ("0", "1/2", "1"),
            ("2", "2", "1"),
            ("2", "-1/2", "1"),
        ],
    )
    def test_xii24_fixed_cases(self, t, u, r):
        assert_xii24_matches_oracle(Fraction(t), Fraction(u), Fraction(r))

    @settings(deadline=None)
    @given(xii24_inputs())
    def test_xii24_large_bit(self, inputs):
        assert_xii24_matches_oracle(*inputs)

    @settings(deadline=None)
    @given(mixed_param_inputs())
    def test_sides_and_xii24_on_mixed_params(self, inputs):
        ts, r = inputs
        quad = triquadrilateral(*ts, r)
        assert_same_outcome(rational_sides, oracle_sides, quad)
        for t, u in itertools.combinations(ts, 2):
            assert_xii24_matches_oracle(t, u, r)
