"""Acceptance suite: every criterion runs exact, with zero tolerance unless
a truncated-decimal comparison is explicitly the check. Each test prints one
pass line; a failed assertion is the fail line."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction

import mpmath

from sulvageom.cyclic_geometry import (
    CyclicQuad,
    PYTHAGOREAN_PARAMS,
    RationalPoint,
    brahmagupta_radicand,
    brahmagupta_theorem_check,
    crude_area,
    heart_cord,
    orthodiagonal_generator,
    point_from_param,
    rational_side_quads,
    rational_sides,
    segments_equal_portions,
    shoelace_area,
    xii24_verify,
)
from sulvageom.exact_numbers import rat, sqrt_exact, to_decimal
from sulvageom.scale_calculus import as_ratio, derive_i59_trace, removal_form
from sulvageom.sulva_rules import (
    VERDICT_EQUAL,
    diameter_over_side_i58,
    implied_pi,
    quadrature_ratio_i59,
    quadrature_ratio_i60,
    sqrt2_i61,
    verify_decompositions,
)


def chord_sq(p, q):
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def passed(n, label):
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_01_sqrt2_rule():
    rule = sqrt2_i61()
    assert rule.term_list == (rat(1), rat(1, 3), rat(1, 12), rat(-1, 408))
    assert rule.value == rat(577, 408)
    passed(1, "sqrt2 rule I.61-62 equals 577/408 from its four terms")


def test_criterion_02_substitution():
    d_over_s = diameter_over_side_i58(rat(577, 408))
    assert d_over_s == rat(1393, 1224)
    assert rat(1) / d_over_s == rat(1224, 1393)
    passed(2, "I.58 substitution gives d/s = 1393/1224 and s/d = 1224/1393")


def test_criterion_03_residual_identity():
    residual = rat(1224, 1393) - quadrature_ratio_i59()
    assert residual == rat(-41, 8 * 29 * 6 * 8 * 1393)
    assert residual == rat(-41, 15512448)
    report = verify_decompositions()[0]
    assert report.residual == residual
    passed(3, "1224/1393 differs from the I.59 ratio by exactly -41/15512448")


def test_criterion_04_alternative_decomposition():
    alt = (rat(1) - rat(33, 8 * 34)) + rat(1, 8 * 34 * 1393)
    assert alt == rat(1224, 1393)
    assert verify_decompositions()[1].verdict == VERDICT_EQUAL
    passed(4, "34-based decomposition of 1224/1393 is exact-equal")


def test_criterion_05_derivation_chain():
    trace = derive_i59_trace()
    assert len(trace.steps) == 7
    afters = [(s.after.p, s.after.q) for s in trace.steps]
    assert afters[1] == (24, 17)
    assert afters[3] == (51, 7)
    assert afters[4] == (58, 51)          # the diameter's 58 parts
    assert removal_form(trace.steps[5].after) == (58, 7)
    assert (trace.final.p, trace.final.q) == (232, 204)
    assert trace.final.p == 8 * 29
    assert removal_form(trace.final) == (232, 28)
    # ratio is settled from step index 4 onward
    assert {as_ratio(s.after) for s in trace.steps[4:]} == {rat(51, 58)}
    passed(5, "I.59 derivation: 7 scripted steps ending at (8*29, remove 28)")


def test_criterion_06_crude_rule_and_implied_pi():
    assert quadrature_ratio_i60() == rat(13, 15)
    pi60 = implied_pi(quadrature_ratio_i60())
    assert pi60 == rat(676, 225)
    assert to_decimal(pi60, 6) == "3.004444"
    pi59 = implied_pi(quadrature_ratio_i59())
    assert to_decimal(pi59, 4) == "3.0883"
    # reported error against the stored 50-digit pi literal must agree with
    # an independent high-precision computation to 10 decimal digits
    from sulvageom.sulva_rules import pi_reference

    error = pi_reference() - pi59
    mpmath.mp.dps = 60
    independent = mpmath.pi - mpmath.mpf(pi59.numerator) / mpmath.mpf(pi59.denominator)
    assert (error.numerator * 10**10) // error.denominator == int(mpmath.floor(independent * 10**10))
    passed(6, "crude rule 13/15, implied pi values and 10-digit error agreement")


def test_criterion_07_area_oracle_equivalence():
    quads = rational_side_quads(100)
    assert len(quads) == 100
    for quad in quads:
        sides = rational_sides(quad)
        area = sqrt_exact(brahmagupta_radicand(*sides))
        assert area is not None
        assert area == shoelace_area(quad)
    passed(7, "exact area formula equals shoelace on 100 rational-chord quads")


def test_criterion_08_permutation_properties():
    instances = [
        (rat(25), rat(25), rat(25), rat(25)),
        (rat(6, 5), rat(8, 5), rat(8, 5), rat(6, 5)),
        (rat(6, 5), rat(8, 5), rat(7, 5), rat(9, 5)),
        (rat(3), rat(4), rat(5), rat(0)),
        (rat(2), rat(3), rat(4), rat(5)),
    ]
    for sides in instances:
        reference = brahmagupta_radicand(*sides)
        for perm in itertools.permutations(sides):
            assert brahmagupta_radicand(*perm) == reference
    assert crude_area(rat(1), rat(1), rat(7), rat(7)) == rat(16)
    assert crude_area(rat(1), rat(7), rat(1), rat(7)) == rat(7)
    passed(8, "radicand invariant under all 24 permutations; crude area is not")


def _pythagorean_rotations():
    """Exact (cos, sin) pairs with positive sine."""
    rotations = []
    for m in range(1, 8):
        for n in range(m + 1, 9):
            c = rat(n * n - m * m, n * n + m * m)
            s = rat(2 * m * n, n * n + m * m)
            rotations.append((c, s))
    return rotations


def _rotate(point, rotation):
    c, s = rotation
    return RationalPoint(c * point.x - s * point.y, s * point.x + c * point.y)


def _compose(r1, r2):
    c1, s1 = r1
    c2, s2 = r2
    return (c1 * c2 - s1 * s2, s1 * c2 + c1 * s2)


def test_criterion_09_area_order_independence():
    pool = _pythagorean_rotations()
    start = RationalPoint(rat(1), rat(0))
    multisets = []
    for triple in itertools.combinations(pool, 3):
        product = (rat(1), rat(0))
        for r in triple:
            product = _compose(product, r)
        closing = (product[0], -product[1])  # inverse rotation
        if closing[1] > 0:  # keep every arc strictly counterclockwise
            multisets.append((*triple, closing))
        if len(multisets) == 20:
            break
    assert len(multisets) == 20
    for multiset in multisets:
        areas = set()
        for order in itertools.permutations(multiset):
            vertices = [start]
            for rotation in order[:3]:
                vertices.append(_rotate(vertices[-1], rotation))
            quad = CyclicQuad(rat(1), tuple(vertices))
            areas.add(shoelace_area(quad))
        assert len(areas) == 1
    passed(9, "area independent of side order for 20 rotation multisets x 24 orders")


def _perpendicular_oracle(quad):
    a, b, c, d = quad.vertices
    return (c.x - a.x) * (d.x - b.x) + (c.y - a.y) * (d.y - b.y) == rat(0)


def _generic_quads(count, seed):
    rng = random.Random(seed)
    quads = []
    while len(quads) < count:
        ts = set()
        while len(ts) < 4:
            ts.add(Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
        params = sorted(rat(t.numerator, t.denominator) for t in ts)
        quads.append(CyclicQuad(rat(1), tuple(point_from_param(t, rat(1)) for t in params)))
    return quads


def test_criterion_10_orthogonality_criterion():
    quads = orthodiagonal_generator(1, 50) + _generic_quads(50, seed=11)
    assert len(quads) == 100
    for quad in quads:
        assert segments_equal_portions(quad) == _perpendicular_oracle(quad)
    passed(10, "segments-equal-portions agrees with the dot-product test on 100 quads")


def test_criterion_11_bisection_theorem():
    quads = orthodiagonal_generator(1, 100)
    for quad in quads:
        assert brahmagupta_theorem_check(quad)
    passed(11, "perpendicular through the diagonal crossing bisects all 4 opposite sides, 100 quads")


def test_criterion_12_half_oblong_chain():
    report = xii24_verify(rat(3, 4), rat(24, 7), rat(5, 2))
    assert report.alpha_sq == rat(81, 25) and report.beta_sq == rat(256, 25)
    assert report.h_sq == rat(144, 25) and report.gamma_sq == rat(25)
    assert report.all_ok
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        t = rat(rng.randint(-40, 40), rng.randint(1, 25))
        u = rat(rng.randint(-40, 40), rng.randint(1, 25))
        if t.numerator == 0 or u == t or u * t == rat(-1):
            continue
        assert xii24_verify(t, u, rat(1)).all_ok
        checked += 1
    passed(12, "half-oblong identities exact on 3-4-5 and 100 random instances")


def test_criterion_13_heart_cord():
    assert heart_cord(rat(3), rat(4), rat(12, 5)) == rat(5, 2)
    radii = [rat(1), rat(2), rat(5, 2), rat(3), rat(7, 3)]
    triangle_params = list(itertools.combinations(PYTHAGOREAN_PARAMS[:8], 3))
    checked = 0
    for params in triangle_params:
        r = radii[checked % len(radii)]
        a_pt, b_pt, c_pt = (point_from_param(t, r) for t in sorted(params))
        gamma = sqrt_exact(chord_sq(a_pt, c_pt))
        a = sqrt_exact(chord_sq(a_pt, b_pt))
        b = sqrt_exact(chord_sq(b_pt, c_pt))
        assert None not in (gamma, a, b)
        cross = (c_pt.x - a_pt.x) * (b_pt.y - a_pt.y) - (c_pt.y - a_pt.y) * (b_pt.x - a_pt.x)
        h = abs(cross) / gamma
        assert heart_cord(a, b, h) == r
        checked += 1
        if checked == 20:
            break
    assert checked == 20
    passed(13, "heart-cord 5/2 for 3-4-5 and equals the circle radius on 20 triangles")


def test_criterion_14_cli_determinism():
    cmd = [sys.executable, "-c", "from sulvageom.cli import run; run()", "verify", "identities", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty
    passed(14, "verify identities --format json is byte-identical and exits 0")
