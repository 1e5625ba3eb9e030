"""Exact arithmetic primitives."""
import contextlib
import decimal
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normality_lab import exact
from normality_lab.exact import (
    MAX_DECIMAL_EXPONENT,
    MAX_LITERAL_DIGITS,
    binomial_row,
    brief_rational,
    brief_text,
    decimal_approx,
    format_rational,
    parse_rational,
)


@contextlib.contextmanager
def no_int_str_limit():
    """The interpreter's int-to-str digit limit lifted, where it has one."""
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is None:
        yield
        return
    limit = sys.get_int_max_str_digits()
    lift(0)
    try:
        yield
    finally:
        lift(limit)


class TestBinomial:
    def test_small_values(self):
        assert binomial_row(0) == [1]
        assert binomial_row(4) == [1, 4, 6, 4, 1]
        assert binomial_row(50)[25] == 126410606437752

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial_row(-1)

    def test_row_matches_comb(self):
        # every n, so both the odd and the even middle of the mirrored
        # fill are hit many times over
        for n in range(301):
            assert binomial_row(n) == [math.comb(n, p) for p in range(n + 1)]

    @given(st.integers(1, 200), st.integers(2, 12))
    def test_row_sums_against_weighted_total(self, n, r):
        # sum of C(n,p) (r-1)^(n-p) over p is r^n: the digit strings of
        # length n partition by the count of one fixed digit
        row = binomial_row(n)
        assert sum(row[p] * (r - 1) ** (n - p) for p in range(n + 1)) == r**n


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/3", Fraction(1, 3)),
            ("3/16", Fraction(3, 16)),
            ("0.25", Fraction(1, 4)),
            ("25", Fraction(25)),
            ("1e-3", Fraction(1, 1000)),
            (" 2/4 ", Fraction(1, 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("bad", ["", "one third", "1/0", "0x3", "1/2/3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exponent_at_the_cap_is_read(self, sign):
        assert MAX_DECIMAL_EXPONENT == 10**6
        power = Fraction(10) ** (sign * MAX_DECIMAL_EXPONENT)
        assert parse_rational(f"1e{sign * MAX_DECIMAL_EXPONENT}") == power
        assert parse_rational(f" 3E{sign * MAX_DECIMAL_EXPONENT:+} ") == 3 * power

    @pytest.mark.parametrize("text", [
        "1e1000001", "1e-1000001", " 1E+1000001 ", "1e-1_000_001", "2/3e99999999",
        "1e-99_999_999", "1e-" + "9" * 5000,  # too long for int()
    ])
    def test_exponent_past_the_cap_is_refused(self, text):
        with pytest.raises(ValueError) as exc:
            parse_rational(text)
        message = str(exc.value)
        assert message.endswith("its absolute value may be at most 1000000")
        assert len(message) < 120

    @pytest.mark.parametrize("text", ["1e1_0", "1E-0_3", "2.5e+1_2 "])
    def test_underscored_exponent_reads_as_fraction_does(self, text):
        # Fraction reads underscores from Python 3.11 on
        try:
            expected = Fraction(text)
        except ValueError:
            with pytest.raises(ValueError, match="not a rational number"):
                parse_rational(text)
        else:
            assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", [
        "0." + "3" * 5000, "-1_2" + "3" * 5000 + "e-5", "7" * 5000 + "/" + "9" * 4999 + "8",
        " +.5" + "0" * 5000 + "E+3 ", "1" * 5000 + ".", "\u0663" * 5000, "2" * 4301,
    ], ids=["point", "underscore-exponent", "slash", "sign-exponent", "trailing-point",
            "arabic-indic", "integer"])
    def test_literal_past_the_int_str_digit_limit(self, text):
        # read as Fraction reads it with the limit lifted
        try:
            with no_int_str_limit():
                expected = Fraction(text)
        except ValueError:  # underscores before Python 3.11
            expected = None
        if expected is None:
            with pytest.raises(ValueError, match="not a rational number"):
                parse_rational(text)
        else:
            assert parse_rational(text) == expected

    def test_long_literal_outside_the_grammar_is_refused(self):
        # Python 3.11's grammar lets "d" stand for fraction digits, and the
        # long numerator fails first on the int-to-str limit
        text = "1" * 5000 + ".d"
        with pytest.raises(ValueError) as exc:
            parse_rational(text)
        assert str(exc.value).startswith(f"not a rational number: {brief_text(text)}")

    @pytest.mark.parametrize("text", ["1/" + "3" * MAX_LITERAL_DIGITS, "0." + "3" * 10**6],
                             ids=["slash", "point"])
    def test_literal_past_its_digit_cap_is_refused(self, text):
        with pytest.raises(ValueError) as exc:
            parse_rational(text)
        assert str(exc.value) == (
            f"not a rational number: {brief_text(text)} has 1000001 digits, more than 1000000")

    def test_format_lowest_terms(self):
        assert format_rational(Fraction(2, 4)) == "1/2"
        assert format_rational(Fraction(-3, 9)) == "-1/3"

    def test_format_integers_without_slash(self):
        assert format_rational(Fraction(8, 4)) == "2"
        assert format_rational(Fraction(0)) == "0"

    def test_beyond_int_str_digit_limit(self):
        # 7**6000 has 5071 digits, past the 4300-digit int-to-str default
        q = Fraction(7**6000, 3)
        num, den = format_rational(q).split("/")
        assert len(num) == 5071
        assert int(decimal.Decimal(num)) == 7**6000
        assert den == "3"
        assert format_rational(-q).startswith("-" + num[:50])

    @given(st.fractions(max_denominator=10**6))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(st.one_of(
        st.integers(-(10**40), 10**40),
        # around the str() cutoff of 8192 bits and past the 4300-digit limit
        st.builds(lambda bits, low, sign: sign * ((1 << bits) - low),
                  st.integers(8180, 20000), st.integers(0, 2**64), st.sampled_from([1, -1])),
        st.builds(lambda e, k: e**k, st.integers(2, 99), st.integers(1000, 6000)),
    ))
    @settings(max_examples=60)
    def test_format_matches_str_and_decimal(self, v):
        # the int text of an int is str(int) with the digit limit lifted,
        # and the Decimal conversion every value printed through before
        with no_int_str_limit():
            plain = str(v)
        assert format_rational(v) == plain == str(decimal.Decimal(v))
        if v % 7:
            assert format_rational(Fraction(v, 7)) == f"{plain}/7"

    def test_a_million_digits_print(self):
        v = 10**999999 + 7
        assert format_rational(Fraction(v, 3)) == "1" + "0" * 999998 + "7/3"
        assert format_rational(-v * 10**5 - 1) == "-1" + "0" * 999998 + "700001"

    @pytest.mark.parametrize("q", [
        Fraction(3, 2), Fraction(-1, 3), Fraction(0), Fraction(2**256 - 1, 2**255 + 1),
    ])
    def test_brief_shows_a_short_value(self, q):
        assert brief_rational(q) == format_rational(q)

    def test_brief_names_a_long_value_by_its_size(self):
        assert brief_rational(Fraction(2**256, 3)) == (
            "a rational too long to show (257-bit numerator, 2-bit denominator)"
        )
        # 10**10**6 is far past the int-to-str digit limit
        assert brief_rational(Fraction(-1, 10**10**6)) == (
            "a negative rational too long to show (1-bit numerator, 3321929-bit denominator)"
        )


class TestBriefText:
    def test_short_text_is_shown_whole(self):
        assert brief_text("a" * 32) == repr("a" * 32)
        assert brief_text("1/3x\n") == "'1/3x\\n'"
        assert brief_text("[107", quoted=False) == "[107"

    def test_long_text_is_cut_at_32_characters(self):
        assert brief_text("a" * 33) == repr("a" * 32) + "..."
        assert brief_text("7" * 10**6, quoted=False) == "7" * 32 + "..."

    @pytest.mark.parametrize("text", ["1/" + "9" * 10**5 + "x", "z" * 10**5 + "/3"])
    def test_refused_rational_is_quoted_once(self, text):
        with pytest.raises(ValueError) as exc:
            parse_rational(text)
        assert str(exc.value) == f"not a rational number: {brief_text(text)}"

    def test_other_causes_are_kept(self):
        with pytest.raises(ValueError) as exc:
            parse_rational("1/0")
        assert str(exc.value) == "not a rational number: '1/0' (Fraction(1, 0))"


class TestDecimalApprox:
    def test_twelve_significant_digits(self):
        assert decimal_approx(Fraction(1, 3)) == "0.333333333333"
        assert decimal_approx(Fraction(2, 3)) == "0.666666666667"

    def test_exact_values_stay_short(self):
        assert decimal_approx(Fraction(3, 4)) == "0.75"
        assert decimal_approx(Fraction(0)) == "0"

    @pytest.mark.parametrize("num,den,label", [
        (3, 4, "0.75"), (10, 2, "5"), (100, 1, "100"), (-1, 3, "-0.333333333333"),
        (1, 10**20, "1E-20"), (10**20, 1, "1.00000000000E+20"), (1, 8 * 10**6, "1.25E-7"),
        (10**12 - 1, 1, "999999999999"), (2 * 10**12 - 1, 2, "1.00000000000E+12"),
        (25, 2 * 10**12, "1.25E-11"), (-(10**13 + 5), 1, "-1.00000000000E+13"),
    ])
    def test_matches_decimal_division(self, num, den, label):
        assert decimal_approx(Fraction(num, den)) == label
        with decimal.localcontext() as ctx:
            ctx.prec = 12
            assert str(decimal.Decimal(num) / decimal.Decimal(den)) == label

    @given(
        st.integers(-(10**60), 10**60).filter(bool), st.integers(1, 10**60),
        st.one_of(st.integers(-40, 40), st.integers(-2000, 2000)),
        st.sampled_from([0, 7, 50, 10500]),
    )
    @settings(max_examples=80)
    def test_matches_decimal_division_of_any_pair(self, num, den, e, k):
        # num/den scaled by 10**e, both ints widened by a common factor 3**k
        # (5010 digits at k = 10500, past the int-to-str limit), against
        # Decimal's own division of the same pair
        self.check_against_decimal(num, den, e, 3**k)

    @pytest.mark.parametrize("e", [-999990, -500001, 500001, 999990])
    @pytest.mark.parametrize("num,den", [(1, 1), (-2, 3), (10**40 + 1, 7 * 10**30)])
    def test_matches_decimal_division_at_huge_magnitudes(self, num, den, e):
        self.check_against_decimal(num, den, e, 1)

    @staticmethod
    def check_against_decimal(num, den, e, common):
        a, b = num * common, den * common
        # Decimal reads the digits of a * 10**e in linear time from text
        a_text, b_text = (str(decimal.Decimal(v)) for v in (a, b))
        if e >= 0:
            a, a_text = a * 10**e, a_text + "0" * e
        else:
            b, b_text = b * 10**-e, b_text + "0" * -e
        with decimal.localcontext() as ctx:
            ctx.prec = 12
            ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
            expected = str(decimal.Decimal(a_text) / decimal.Decimal(b_text))
        # the label depends on the value alone, not on the pair
        assert exact._approx_text(a, b) == decimal_approx(Fraction(a, b)) == expected

    def test_past_the_default_exponent_limit(self):
        # the default context's Emax is 999999: Decimal's own division overflows
        assert decimal_approx(Fraction(10**1000005)) == "1.00000000000E+1000005"
        assert decimal_approx(Fraction(-2, 3 * 10**1000005)) == "-6.66666666667E-1000006"
        with pytest.raises(decimal.Overflow):
            decimal.Decimal("1E1000005") / decimal.Decimal(1)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**9))
    @settings(max_examples=60)
    def test_approx_is_close(self, q):
        # label-only output, but it should still be within one part in
        # 10^10 of the true value
        approx = Fraction(decimal_approx(q))
        assert abs(approx - q) <= Fraction(1, 10**10)
