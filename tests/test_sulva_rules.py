import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sulvageom.exact_numbers import rat, to_decimal
from sulvageom.sulva_rules import (
    PI_REFERENCE,
    VERDICT_EQUAL,
    VERDICT_RESIDUAL,
    circulature_i58,
    implied_pi,
    quadrature_ratio_i58,
    quadrature_ratio_i59,
    quadrature_ratio_i60,
    sqrt2_i61,
    verify_decompositions,
)


def as_fraction(q):
    return Fraction(q.numerator, q.denominator)


class TestSqrt2Rule:
    def test_value(self):
        assert sum(sqrt2_i61()) == rat(577, 408)

    def test_square_overshoots_two_by_pell_residual(self):
        v = sum(sqrt2_i61())
        assert v * v - rat(2) == rat(1, 166464)

    def test_four_terms(self):
        terms = sqrt2_i61()
        assert len(terms) == 4
        assert terms == (rat(1), rat(1, 3), rat(1, 12), rat(-1, 408))

    def test_decimal_brackets(self):
        v = sum(sqrt2_i61())
        assert rat(1414213, 10**6) < v < rat(1414216, 10**6)
        assert to_decimal(v, 6) == "1.414215"


class TestCirculature:
    def test_reference_radius(self):
        assert circulature_i58(rat(2), rat(577, 408)) == rat(1393, 1224)

    def test_degenerate_diagonal_value_one(self):
        assert circulature_i58(rat(5), rat(1)) == rat(5, 2)

    @pytest.mark.parametrize("sqrt2", [rat(99, 100), rat(0), rat(-2)])
    def test_diagonal_value_below_one_refused(self, sqrt2):
        with pytest.raises(ValueError, match=rf"^diagonal value {re.escape(str(sqrt2))} must be >= 1$"):
            circulature_i58(rat(1), sqrt2)

    def test_three_halves(self):
        assert circulature_i58(rat(2), rat(3, 2)) == rat(7, 6)

    def test_nonpositive_side(self):
        with pytest.raises(ValueError, match="side 0 must be positive"):
            circulature_i58(rat(0), rat(3, 2))

    @given(k=st.integers(min_value=1, max_value=1000), s=st.integers(min_value=1, max_value=500))
    def test_linear_in_side(self, k, s):
        x = rat(577, 408)
        assert circulature_i58(rat(k * s), x) == rat(k) * circulature_i58(rat(s), x)


class TestQuadratureRatios:
    def test_i58_value(self):
        assert quadrature_ratio_i58() == Fraction(1224, 1393)

    def test_i59_value(self):
        # oracle: stdlib Fraction arithmetic on the bracketed expression
        oracle = 1 - Fraction(1, 8 * 29) * (28 + Fraction(1, 6) - Fraction(1, 8) * Fraction(1, 6))
        assert as_fraction(quadrature_ratio_i59()) == oracle
        assert quadrature_ratio_i59() == rat(9785, 11136)

    def test_i59_integrality_witness(self):
        assert quadrature_ratio_i59() * 11136 == rat(9785)

    def test_i59_proper(self):
        assert rat(0) < quadrature_ratio_i59() < rat(1)

    def test_i60_value(self):
        assert quadrature_ratio_i60() == rat(13, 15)

    def test_i60_cruder_than_i59(self):
        assert quadrature_ratio_i60() < quadrature_ratio_i59()

    def test_i60_removal_reading(self):
        assert rat(1) - quadrature_ratio_i60() == rat(2, 15)


class TestDiameterOverSide:
    """Rule I.58's diameter at unit side, 2r with r = circulature_i58(1, sqrt2)."""

    def test_reference(self):
        assert 2 * circulature_i58(1, rat(577, 408)) == rat(1393, 1224)

    def test_three_halves(self):
        assert 2 * circulature_i58(1, rat(3, 2)) == rat(7, 6)

    def test_inverse(self):
        d_over_s = 2 * circulature_i58(1, rat(577, 408))
        assert rat(1) / d_over_s == rat(1224, 1393)
        assert d_over_s * (rat(1) / d_over_s) == rat(1)


class TestDecompositions:
    def test_three_reports(self):
        assert len(verify_decompositions()) == 3

    def test_report_a_residual(self):
        a = verify_decompositions()[0]
        assert a.left == rat(1224, 1393)
        assert a.right == quadrature_ratio_i59()
        assert a.residual == rat(-41, 15512448)
        assert a.residual == rat(-41, 8 * 29 * 6 * 8 * 1393)
        assert a.verdict == VERDICT_RESIDUAL

    def test_report_b_exact_equal(self):
        b = verify_decompositions()[1]
        assert b.verdict == VERDICT_EQUAL
        assert b.residual == rat(0)
        # oracle: the 34-based split recomputed with stdlib Fraction
        assert as_fraction(b.right) == (1 - Fraction(33, 8 * 34)) + Fraction(1, 8 * 34 * 1393)

    def test_report_c_residual(self):
        c = verify_decompositions()[2]
        oracle = as_fraction(quadrature_ratio_i59()) - (1 - Fraction(1, 8) + Fraction(1, 8 * 34))
        assert as_fraction(c.residual) == oracle
        assert c.residual == rat(1, 189312)
        assert c.right == rat(239, 272)
        assert c.verdict == VERDICT_RESIDUAL

    def test_residual_consistency(self):
        for report in verify_decompositions():
            assert report.left - report.right == report.residual
            assert (report.verdict == VERDICT_EQUAL) == (report.residual == rat(0))


class TestImpliedPi:
    def test_i60(self):
        assert implied_pi(rat(13, 15)) == rat(676, 225)

    def test_i59(self):
        got = implied_pi(quadrature_ratio_i59())
        assert got == rat(4 * 9785**2, 11136**2)
        assert got == rat(95746225, 31002624)

    def test_half(self):
        assert implied_pi(rat(1, 2)) == rat(1)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"ratio 1 must be in \(0, 1\)"):
            implied_pi(rat(1))
        with pytest.raises(ValueError, match=r"ratio 0 must be in \(0, 1\)"):
            implied_pi(rat(0))

    def test_float_refused_by_name(self):
        with pytest.raises(TypeError, match=r"^0\.5 is neither an int nor a Fraction$"):
            implied_pi(0.5)


def test_pi_reference_digits():
    ref = PI_REFERENCE
    assert ref.denominator * 314159265358979323846264338327950288419716939937510 == ref.numerator * 10**50
    assert to_decimal(ref, 10) == "3.1415926535"


def test_public_values_are_fractions():
    # The golden files render only some of these; circulature_i58 is
    # reached from the library alone.
    sqrt2 = sum(sqrt2_i61())
    values = [
        *sqrt2_i61(),
        circulature_i58(Fraction(1), sqrt2),
        2 * circulature_i58(1, sqrt2),
        quadrature_ratio_i58(),
        quadrature_ratio_i59(),
        quadrature_ratio_i60(),
        implied_pi(quadrature_ratio_i59()),
        PI_REFERENCE,
    ]
    for report in verify_decompositions():
        values += [report.left, report.right, report.residual]
    assert [type(v) for v in values] == [Fraction] * len(values)


@pytest.mark.parametrize("kind", [int, Fraction], ids=["int", "fraction"])
def test_circulature_of_an_int_side_is_a_fraction(kind):
    value = circulature_i58(kind(1), Fraction(577, 408))
    assert type(value) is Fraction and value == Fraction(1393, 2448)


@pytest.mark.parametrize("s, sqrt2, bad", [(1.0, Fraction(577, 408), 1.0), (1, 1.5, 1.5), (1.0, 1.5, 1.0)],
                         ids=["side", "sqrt2", "side-first"])
def test_circulature_refuses_a_float_by_name(s, sqrt2, bad):
    with pytest.raises(TypeError, match=f"^{re.escape(repr(bad))} is neither an int nor a Fraction$"):
        circulature_i58(s, sqrt2)
