import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sulvageom.cyclic_geometry import triquadrilateral
from sulvageom.exact_numbers import (
    rat,
    sqrt_exact,
    to_decimal,
    to_fraction_text,
)

nonzero = st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0)
rationals = st.builds(rat, st.integers(min_value=-10**6, max_value=10**6), nonzero)


def long_division_digits(num: int, den: int, digits: int) -> str:
    """Independent truncated-decimal oracle by schoolbook long division."""
    sign = "-" if num < 0 else ""
    num = abs(num)
    whole, rem = divmod(num, den)
    out = []
    for _ in range(digits):
        rem *= 10
        d, rem = divmod(rem, den)
        out.append(str(d))
    return f"{sign}{whole}." + "".join(out)


class TestRat:
    def test_already_reduced(self):
        q = rat(1224, 1393)
        assert (q.numerator, q.denominator) == (1224, 1393)

    def test_sign_and_gcd_normalization(self):
        assert rat(4, -8) == rat(-1, 2)

    def test_large_reduction(self):
        # 332928 = 272 * 1224 and 378896 = 272 * 1393
        assert rat(332928, 378896) == rat(1224, 1393)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="denominator of 1/0"):
            rat(1, 0)

    def test_zero_is_zero_over_one(self):
        q = rat(0, -7)
        assert (q.numerator, q.denominator) == (0, 1)

    def test_hash_agrees_with_equality(self):
        assert len({rat(1), 1}) == 1
        assert hash(rat(1, 2)) == hash(Fraction(1, 2))

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            rat(0.5)
        with pytest.raises(TypeError):
            triquadrilateral(-2, 0.5, 1, 3, 1)


class TestSqrtExact:
    def test_square_of_25_side(self):
        assert sqrt_exact(rat(390625)) == rat(625)

    def test_heron_radicand(self):
        assert sqrt_exact(rat(36)) == rat(6)

    def test_two_is_not_a_square(self):
        assert sqrt_exact(rat(2)) is None

    def test_fractional_square(self):
        assert sqrt_exact(rat(4, 9)) == rat(2, 3)

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sqrt_exact(rat(-1, 4))


class TestLongIntegers:
    # Python's str() refuses an integer of more than 4300 digits by default,
    # and the renderings then print it through decimal.Decimal. 5001 digits,
    # mostly zeros, so a dropped or doubled digit shows.
    def test_fraction_text(self):
        assert to_fraction_text(rat(-(10**5000 + 7), 3)) == "-1" + "0" * 4999 + "7/3"

    def test_decimal(self):
        assert to_decimal(rat(-(10**5000 + 7), 3), 2) == "-" + "3" * 4999 + "5.66"

    def test_long_denominator(self):
        assert to_fraction_text(rat(1, 10**5000 + 3)) == "1/1" + "0" * 4999 + "3"

    @pytest.mark.parametrize("digits", [4300, 4301])
    def test_at_the_str_limit(self, digits):
        q = rat(-(10 ** (digits - 1) + 7), 3)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{q.numerator}/{q.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expected) == len("-") + digits + len("/3")
        assert to_fraction_text(q) == expected


class TestToDecimal:
    def test_sqrt2_six_digits(self):
        assert to_decimal(rat(577, 408), 6) == "1.414215"

    def test_half(self):
        assert to_decimal(rat(1, 2), 3) == "0.500"

    def test_zero_has_no_sign(self):
        assert to_decimal(Fraction(0), 3) == "0.000"

    def test_i59_ratio_eight_digits(self):
        # frozen from the long-division oracle below
        assert to_decimal(rat(9785, 11136), 8) == "0.87868175"

    def test_matches_long_division(self):
        for num, den, digits in [(9785, 11136, 8), (577, 408, 6), (-41, 15512448, 12), (22, 7, 10)]:
            assert to_decimal(rat(num, den), digits) == long_division_digits(num, den, digits)

    def test_digit_count_validated(self):
        with pytest.raises(ValueError):
            to_decimal(rat(1, 2), 0)


@given(a=rationals, b=rationals)
def test_add_sub_round_trip(a, b):
    assert (a + b) - b == a


@given(a=rationals.filter(lambda q: q != 0), b=rationals)
def test_mul_div_round_trip(a, b):
    assert (a * b) / a == b


@given(q=rationals)
def test_normalization_idempotent(q):
    again = rat(q.numerator, q.denominator)
    assert (again.numerator, again.denominator) == (q.numerator, q.denominator)
    assert again.denominator > 0
    assert math.gcd(abs(again.numerator), again.denominator) == 1


@given(q=rationals)
def test_sqrt_of_square(q):
    assert sqrt_exact(q * q) == abs(q)


@given(n=st.integers(min_value=0, max_value=50), d=st.integers(min_value=1, max_value=50))
def test_not_a_square_is_honest(n, d):
    q = rat(n, d)
    root = sqrt_exact(q)
    if root is not None:
        assert root * root == q
    else:
        # brute force: no p/q with small parts squares to it
        for p in range(0, 51):
            for r in range(1, 51):
                assert rat(p * p, r * r) != q


@given(q=rationals, digits=st.integers(min_value=1, max_value=20))
def test_decimal_truncation_error_bound(q, digits):
    rendered = to_decimal(q, digits)
    assert len(rendered.split(".")[1]) == digits
    reparsed = Fraction(rendered)
    assert abs(q - reparsed) < Fraction(1, 10**digits)


@given(q=rationals, digits=st.integers(min_value=1, max_value=12))
def test_decimal_matches_long_division(q, digits):
    assert to_decimal(q, digits) == long_division_digits(q.numerator, q.denominator, digits)
