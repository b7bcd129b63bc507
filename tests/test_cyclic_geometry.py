import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sulvageom.cyclic_geometry import (
    DEMO_QUAD_LIMIT,
    CountTooLarge,
    CyclicQuad,
    DegenerateBase,
    DegenerateQuad,
    HalfOblongReport,
    NotRealizable,
    PreconditionViolated,
    PYTHAGOREAN_PARAMS,
    RationalPoint,
    ZeroPerpendicular,
    brahmagupta_radicand,
    brahmagupta_theorem_check,
    crude_area,
    diagonal_lengths_sq,
    diagonals_cut_params,
    heart_cord,
    orthodiagonal_generator,
    point_from_param,
    rational_side_quads,
    rational_sides,
    segments_equal_portions,
    shoelace_area,
    triquadrilateral,
    xii24_verify,
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


def oracle_shoelace(quad):
    vs = quad.vertices
    return abs(sum(vs[i].x * vs[(i + 1) % 4].y - vs[(i + 1) % 4].x * vs[i].y for i in range(4))) / 2


def oracle_diagonals(quad):
    a, b, c, d = quad.vertices
    return oracle_chord_sq(c, a), oracle_chord_sq(d, b)


def oracle_sides(quad):
    vs = quad.vertices
    return tuple(sqrt_exact(oracle_chord_sq(vs[(i + 1) % 4], vs[i])) for i in range(4))


def oracle_xii24(t, u, r):
    """The half-oblong check as Fraction vector algebra: the foot of the apex
    b at a + lam (c - a) on the diameter a-c, and every length squared."""
    if t == 0:
        raise DegenerateBase("base parameter must be nonzero")
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


def assert_kernel_matches_oracle(quad):
    assert diagonals_cut_params(quad) == oracle_cut_params(quad)
    ortho = oracle_segments_equal_portions(quad)
    assert segments_equal_portions(quad) == ortho
    if ortho:
        assert brahmagupta_theorem_check(quad) == all(nu == Fraction(1, 2) for nu in oracle_bisection_nus(quad))
    else:
        with pytest.raises(PreconditionViolated):
            brahmagupta_theorem_check(quad)
    assert shoelace_area(quad) == oracle_shoelace(quad)
    assert diagonal_lengths_sq(quad) == oracle_diagonals(quad)
    assert rational_sides(quad) == oracle_sides(quad)


def assert_xii24_matches_oracle(t, u, r):
    try:
        expected = oracle_xii24(t, u, r)
    except DegenerateBase as exc:
        with pytest.raises(DegenerateBase) as raised:
            xii24_verify(t, u, r)
        assert str(raised.value) == str(exc)
    else:
        assert xii24_verify(t, u, r) == expected


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
        quads.append(CyclicQuad(rat(1), tuple(point_from_param(t, rat(1)) for t in params)))
    return quads


class TestPointsAndChords:
    def test_param_zero(self):
        assert point_from_param(rat(0), rat(1)) == pt(1, 0)

    def test_param_three_quarters(self):
        assert point_from_param(rat(3, 4), rat(1)) == pt((7, 25), (24, 25))

    def test_param_one(self):
        assert point_from_param(rat(1), rat(1)) == pt(0, 1)

    @given(t=st.fractions(), r=st.fractions(min_value="1/10", max_value=10))
    def test_always_on_circle(self, t, r):
        t = rat(t.numerator, t.denominator)
        r = rat(r.numerator, r.denominator)
        p = point_from_param(t, r)
        assert p.x * p.x + p.y * p.y == r * r


class TestCyclicQuadValidation:
    def test_off_circle_rejected(self):
        with pytest.raises(DegenerateQuad):
            CyclicQuad(rat(1), (pt(1, 0), pt(0, 1), pt(-1, 0), pt(1, 1)))

    def test_duplicate_rejected(self):
        with pytest.raises(DegenerateQuad):
            CyclicQuad(rat(1), (pt(1, 0), pt(0, 1), pt(-1, 0), pt(0, 1)))

    def test_wrong_order_rejected(self):
        with pytest.raises(DegenerateQuad):
            CyclicQuad(rat(1), (pt(1, 0), pt(-1, 0), pt(0, 1), pt(0, -1)))

    @pytest.mark.parametrize("r", [0, -1])
    def test_nonpositive_radius_rejected(self, r):
        with pytest.raises(DegenerateQuad, match="must be positive"):
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
        with pytest.raises(DegenerateQuad):
            dataclasses.replace(KITE, r=rat(2))


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

    def test_not_realizable(self):
        with pytest.raises(NotRealizable):
            brahmagupta_radicand(rat(10), rat(1), rat(1), rat(1))

    def test_two_zero_sides_rejected(self):
        with pytest.raises(NotRealizable):
            brahmagupta_radicand(rat(1), rat(1), rat(0), rat(0))

    def test_permutation_invariance(self):
        sides = (rat(6, 5), rat(8, 5), rat(7, 5), rat(9, 5))
        reference = brahmagupta_radicand(*sides)
        for perm in itertools.permutations(sides):
            assert brahmagupta_radicand(*perm) == reference


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
        with pytest.raises(ZeroPerpendicular):
            heart_cord(rat(3), rat(4), rat(0))


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
        with pytest.raises(DegenerateQuad):
            triquadrilateral(rat(1), rat(2), rat(3), rat(1), rat(1))


class TestSegmentsAndPortions:
    def test_cut_params_square(self):
        mu_ac, mu_bd, j = diagonals_cut_params(UNIT_SQUARE)
        assert (mu_ac, mu_bd) == (rat(1, 2), rat(1, 2))
        assert j == pt(0, 0)

    def test_cut_params_kite(self):
        mu_ac, mu_bd, j = diagonals_cut_params(KITE)
        assert mu_ac == rat(9, 25)
        assert mu_bd == rat(1, 2)
        assert j == pt((7, 25), 0)

    def test_intersection_on_both_diagonals(self):
        for quad in generic_quads(10):
            mu_ac, mu_bd, j = diagonals_cut_params(quad)
            a, b, c, d = quad.vertices
            assert j.x == a.x + mu_ac * (c.x - a.x) and j.y == a.y + mu_ac * (c.y - a.y)
            assert j.x == b.x + mu_bd * (d.x - b.x) and j.y == b.y + mu_bd * (d.y - b.y)
            assert rat(0) < mu_ac < rat(1) and rat(0) < mu_bd < rat(1)

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
        assert brahmagupta_theorem_check(UNIT_SQUARE)

    def test_kite_midpoint_witness(self):
        # perpendicular from (7/25, 0) to side AB meets CD at its midpoint
        c, d = KITE.vertices[2], KITE.vertices[3]
        midpoint = pt((-9, 25), (-12, 25))
        assert RationalPoint((c.x + d.x) / 2, (c.y + d.y) / 2) == midpoint
        assert brahmagupta_theorem_check(KITE)

    def test_precondition(self):
        quad = triquadrilateral(rat(0), rat(1, 3), rat(5, 2), rat(-2), rat(1))
        with pytest.raises(PreconditionViolated):
            brahmagupta_theorem_check(quad)

    def test_generated_instances(self):
        for quad in orthodiagonal_generator(2, 25):
            assert brahmagupta_theorem_check(quad)


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

    def test_isoceles_apex(self):
        # apex on the perpendicular bisector of the base diameter
        report = xii24_verify(rat(3, 4), rat(7), rat(1))
        assert report.a_sq == report.b_sq
        assert report.lam == rat(1, 2)
        assert report.all_ok

    def test_zero_base_param_rejected(self):
        with pytest.raises(DegenerateBase):
            xii24_verify(rat(0), rat(1, 2), rat(1))

    def test_apex_on_base_rejected(self):
        with pytest.raises(DegenerateBase):
            xii24_verify(rat(2), rat(2), rat(1))
        with pytest.raises(DegenerateBase):
            xii24_verify(rat(2), rat(-1, 2), rat(1))

    @settings(max_examples=150)
    @given(
        t=st.fractions(min_value=-30, max_value=30).filter(lambda q: q != 0),
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

    def test_limit_is_every_pair_at_every_radius(self):
        assert DEMO_QUAD_LIMIT == 1860

    @pytest.mark.parametrize("seed", [1, 12345])
    def test_distinct_up_to_the_limit(self, seed):
        quads = orthodiagonal_generator(seed, DEMO_QUAD_LIMIT)
        assert len(set(quads)) == DEMO_QUAD_LIMIT

    def test_count_beyond_the_limit_refused(self):
        with pytest.raises(CountTooLarge):
            orthodiagonal_generator(1, DEMO_QUAD_LIMIT + 1)


class TestRationalSideQuads:
    def test_all_chords_rational(self):
        for quad in rational_side_quads(25):
            sides = rational_sides(quad)
            assert all(s > 0 for s in sides)

    def test_count_beyond_the_pool_refused(self):
        # 61 parameters: the table and its negations, with 0 once.
        with pytest.raises(CountTooLarge):
            rational_side_quads(math.comb(61, 4) + 1)

    def test_pythagorean_params_really_are(self):
        for t in PYTHAGOREAN_PARAMS:
            assert sqrt_exact(rat(1) + t * t) is not None


class TestKernelMatchesOracle:
    def test_whole_demo_space(self):
        quads = orthodiagonal_generator(1, DEMO_QUAD_LIMIT)
        radii = {quad.r for quad in quads}
        for t in PYTHAGOREAN_PARAMS:
            for r in radii:
                assert point_from_param(t, r) == oracle_point(t, r)
        for quad in quads:
            a, b, _, d = quad.vertices
            assert d == oracle_reflect(b, a)
            assert_kernel_matches_oracle(quad)

    @settings(deadline=None)
    @given(large_bit_inputs())
    def test_large_bit_quads(self, inputs):
        ts, r = inputs
        points = tuple(point_from_param(t, r) for t in ts)
        assert points == tuple(oracle_point(t, r) for t in ts)
        assert_kernel_matches_oracle(CyclicQuad(r, points))
        # An orthodiagonal quad on the first two: a diameter and a mirrored pair.
        a, b = points[:2]
        if b == RationalPoint(-a.x, -a.y):
            return
        d = _reflect_across_diameter(b, a)
        assert d == oracle_reflect(b, a)
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
