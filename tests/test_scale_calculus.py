import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sulvageom.exact_numbers import rat
from sulvageom.sulva_rules import (
    Correspondence,
    derive_i59_trace,
    refine,
    removal_form,
)

parts = st.integers(min_value=1, max_value=10**4)
correspondences = st.builds(Correspondence, parts, parts)


class TestConstruction:
    def test_stored_verbatim(self):
        c = Correspondence(24, 17)
        assert (c.p, c.q) == (24, 17)

    def test_identity(self):
        c = Correspondence(1, 1)
        assert (c.p, c.q) == (1, 1)

    def test_remove_two_of_fifteen(self):
        c = Correspondence(15, 13)
        assert removal_form(c) == (15, 2)

    def test_never_reduced(self):
        assert Correspondence(232, 28) != Correspondence(58, 7)

    def test_nonpositive_parts(self):
        with pytest.raises(ValueError, match=r"\(0, 3\): parts must be >= 1"):
            Correspondence(0, 3)
        with pytest.raises(ValueError, match=r"\(0, 2\): parts must be >= 1"):
            Correspondence(3, 2)._replace(p=0)

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: Correspondence(1.5, 1), 1.5),
            (lambda: Correspondence(2, 1.0), 1.0),
            (lambda: Correspondence(rat(3), 1), rat(3)),
            (lambda: Correspondence(3, 2)._replace(q=0.5), 0.5),
        ],
        ids=["p-float", "q-float", "p-fraction", "replace"],
    )
    def test_non_int_parts_refused_by_name(self, build, bad):
        with pytest.raises(TypeError, match=rf"^part count {re.escape(repr(bad))} is not an int$"):
            build()


class TestOperations:
    def test_refine(self):
        assert refine(Correspondence(58, 7), 4) == Correspondence(232, 28)
        assert refine(Correspondence(24, 17), 1) == Correspondence(24, 17)
        assert refine(Correspondence(3, 2), 5) == Correspondence(15, 10)

    def test_refine_bad_factor(self):
        with pytest.raises(ValueError, match="refinement factor 0 must be >= 1"):
            refine(Correspondence(3, 2), 0)

    @pytest.mark.parametrize("k", [1.5, 2.0, rat(2)], ids=["float", "whole-float", "fraction"])
    def test_refine_non_int_factor_refused_by_name(self, k):
        with pytest.raises(TypeError, match=rf"^refinement factor {re.escape(repr(k))} is not an int$"):
            refine(Correspondence(2, 1), k)

    def test_removal_form(self):
        assert removal_form(Correspondence(232, 204)) == (232, 28)
        assert removal_form(Correspondence(58, 51)) == (58, 7)
        assert removal_form(Correspondence(5, 5)) == (5, 0)

    def test_removal_form_overfull(self):
        with pytest.raises(ValueError, match=r"\(5, 6\): related length exceeds the whole"):
            removal_form(Correspondence(5, 6))


@given(c=correspondences, k=st.integers(min_value=1, max_value=100))
def test_refine_preserves_ratio(c, k):
    r = refine(c, k)
    assert Fraction(r.q, r.p) == Fraction(c.q, c.p)


@given(c=correspondences.filter(lambda c: c.q <= c.p))
def test_removal_round_trip(c):
    whole, removed = removal_form(c)
    assert Correspondence(whole, whole - removed) == c


class TestI59Trace:
    def test_step_count(self):
        assert len(derive_i59_trace()) == 7

    def test_scripted_correspondences(self):
        trace = derive_i59_trace()
        afters = [(s.after.p, s.after.q) for s in trace]
        assert afters == [
            (12, 8),
            (24, 17),
            (24, 7),
            (51, 7),
            (58, 51),
            (58, 51),
            (232, 204),
        ]

    def test_final_and_removal(self):
        trace = derive_i59_trace()
        assert (trace[-1].after.p, trace[-1].after.q) == (232, 204)
        assert removal_form(trace[-1].after) == (232, 28)
        assert trace[-1].after.p == 8 * 29

    def test_final_ratio(self):
        trace = derive_i59_trace()
        for c in (trace[-1].after, trace[5].after):
            assert Fraction(c.q, c.p) == Fraction(51, 58)

    def test_intermediate_removal_reading(self):
        trace = derive_i59_trace()
        assert removal_form(trace[5].after) == (58, 7)

    def test_ratio_constant_over_last_steps(self):
        trace = derive_i59_trace()
        ratios = {Fraction(s.after.q, s.after.p) for s in trace[4:]}
        assert ratios == {Fraction(51, 58)}

    def test_anchors_nonempty(self):
        assert all(s.anchor for s in derive_i59_trace())
