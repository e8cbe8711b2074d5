import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gesselwalks import walks
from gesselwalks.exact import (
    ClosedFormFamily,
    _prefactor,
    _rising,
    binom_general,
    conjectured_ratio,
    conjectured_value,
    family_at,
    family_cell,
    gessel_closed_form,
    printed_row,
)
from oracles import GESSEL_NUMBERS, catalan, pochhammer, prefactor


def rising(q, n):
    """``_rising`` at q, as a Fraction."""
    return Fraction(*_rising(*Fraction(q).as_integer_ratio(), n))


class TestBinomGeneral:
    def test_plain_binomial(self):
        assert binom_general(5, 2) == 10

    def test_negative_upper(self):
        assert binom_general(-1, 1) == -1

    def test_zero_factor(self):
        assert binom_general(0, 1) == 0

    def test_negative_lower_vanishes(self):
        assert binom_general(3, -1) == 0
        assert binom_general(-3, -2) == 0

    @given(st.integers(min_value=-12, max_value=-1), st.integers(min_value=0, max_value=12))
    def test_reflection(self, a, t):
        assert binom_general(a, t) == (-1) ** t * binom_general(-a + t - 1, t)

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20))
    def test_matches_math_comb(self, a, t):
        assert binom_general(a, t) == math.comb(a, t)


class TestPochhammer:
    """``_rising``, the integer pair of (q)_n, against the oracle."""

    def test_empty_product(self):
        assert _rising(5, 6, 0) == (1, 1)
        assert rising(Fraction(5, 6), 0) == pochhammer(Fraction(5, 6), 0) == 1

    def test_single_factor(self):
        assert rising(Fraction(1, 2), 1) == pochhammer(Fraction(1, 2), 1) == Fraction(1, 2)

    def test_two_factors(self):
        assert _rising(5, 6, 2) == (55, 36)
        assert pochhammer(Fraction(5, 6), 2) == Fraction(55, 36)

    @pytest.mark.parametrize(
        "q",
        [-3, Fraction(-7, 2), Fraction(-5, 6), 0, 1, 4, Fraction(1, 2),
         Fraction(5, 6), Fraction(7, 6), Fraction(5, 3), Fraction(8, 3)],
    )
    def test_matches_definitional_product(self, q):
        for n in range(41):
            expected = Fraction(1)
            for s in range(n):
                expected *= Fraction(q) + s
            num, den = _rising(*Fraction(q).as_integer_ratio(), n)
            assert type(num) is int and type(den) is int
            assert Fraction(num, den) == expected == pochhammer(q, n), (q, n)

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(5, 6), Fraction(5, 3)])
    @given(m=st.integers(min_value=0, max_value=10), n=st.integers(min_value=0, max_value=10))
    def test_multiplicative(self, q, m, n):
        assert rising(q, m + n) == rising(q, m) * rising(q + m, n)


class TestCatalan:
    def test_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(7) == 429

    def test_binomial_difference(self):
        for n in range(31):
            assert catalan(n) == binom_general(2 * n, n) - binom_general(2 * n, n + 1)


class TestGesselClosedForm:
    def test_first_values(self):
        assert gessel_closed_form(0) == 1
        assert gessel_closed_form(1) == 2
        assert gessel_closed_form(2) == 11

    def test_full_frozen_list(self):
        for n, expected in enumerate(GESSEL_NUMBERS):
            value = gessel_closed_form(n)
            assert value.denominator == 1
            assert value == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gessel_closed_form(-1)

    def test_integer_against_the_rational_form(self):
        # 16^n (1/2)_n (5/6)_n / ((2)_n (5/3)_n), evaluated over Fraction
        for n in range(120):
            value = gessel_closed_form(n)
            assert type(value) is int
            assert value == (16**n * pochhammer(Fraction(1, 2), n)
                             * pochhammer(Fraction(5, 6), n)
                             / (pochhammer(2, n) * pochhammer(Fraction(5, 3), n))), n


class TestFamilyCells:
    def test_cells_as_printed(self):
        assert family_cell(ClosedFormFamily.F201, None, 5) == (10, 0, 1)
        assert family_cell(ClosedFormFamily.VERT, 2, 5) == (14, 0, 5)
        assert family_cell(ClosedFormFamily.HOR, 2, 5) == (9, 5, 0)

    def test_family_at_inverts_family_cell(self):
        # every reachable axis cell off the origin, m <= 30, names one shape
        for m in range(1, 31):
            for n1, n2 in [(n, 0) for n in range(1, m + 1)] + [(0, n) for n in range(1, m + 1)]:
                if walks.reachable(m, n1, n2):
                    family, k, n = shape = family_at(m, n1, n2)
                    assert family_cell(*shape) == (m, n1, n2), shape
                    assert (k is None) == (family is ClosedFormFamily.F201)
                    assert k is None or k >= 0

    def test_family_at_refuses_off_the_axes(self):
        with pytest.raises(ValueError):
            family_at(10, 2, 2)


class TestPrefactor:
    def test_against_the_definition(self):
        for c, q, k, n in ((16, Fraction(1, 2), 1, 7), (4, Fraction(3, 2), 3, 9), (4, 1, 0, 0)):
            pair = _prefactor(c, *Fraction(q).as_integer_ratio(), k, n)
            assert Fraction(*pair) == prefactor(c, q, k, n), (c, q, k, n)


class TestPrintedRow:
    def test_rows_are_n_plus_1_times_p_over_c(self):
        # (n+1)(4 + n) / 2 and (n+1) 2 / 1, expanded
        assert printed_row(ClosedFormFamily.HOR, 1) == ((4, 5, 1), 2)
        assert printed_row(ClosedFormFamily.VERT, 1) == ((2, 2), 1)

    def test_no_row_outside_the_printed_range(self):
        for family, k in ((ClosedFormFamily.HOR, 0), (ClosedFormFamily.VERT, 4),
                          (ClosedFormFamily.F201, None)):
            assert printed_row(family, k) is None


class TestConjecturedValue:
    def test_f201_at_one(self):
        assert conjectured_value(ClosedFormFamily.F201, None, 1) == 1

    def test_hor_k1_at_zero(self):
        assert conjectured_value(ClosedFormFamily.HOR, 1, 0) == 2

    def test_vert_k0_at_two(self):
        assert conjectured_value(ClosedFormFamily.VERT, 0, 2) == 2

    def test_undisplayed_k_rejected(self):
        with pytest.raises(ValueError):
            conjectured_value(ClosedFormFamily.VERT, 4, 1)
        with pytest.raises(ValueError):
            conjectured_value(ClosedFormFamily.HOR, -1, 1)
        with pytest.raises(ValueError):
            conjectured_value(ClosedFormFamily.F201, 0, 1)

    @pytest.mark.parametrize("family, k", [(ClosedFormFamily.F201, None),
                                           (ClosedFormFamily.VERT, 0),
                                           (ClosedFormFamily.HOR, 2)])
    def test_negative_n_rejected_by_name(self, family, k):
        with pytest.raises(ValueError, match=r"^conjectured_ratio needs n >= 0$"):
            conjectured_ratio(family, k, -1)

    def test_vert_k0_is_catalan(self):
        for n in range(12):
            assert conjectured_value(ClosedFormFamily.VERT, 0, n) == catalan(n)

    def test_hor_k0_is_one(self):
        for n in range(12):
            assert conjectured_value(ClosedFormFamily.HOR, 0, n) == 1
