"""Fourth-moment machinery: operator algebra, constants, bound sweeps."""
import decimal
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normality_lab
from normality_lab import moments
from normality_lab.measure import digit_count_measure
from normality_lab.moments import (
    MOMENT_SWEEP_CSV_HEADER,
    MomentPolynomial,
    apply_euler_operator,
    binomial_power_polynomial,
    check_moment_bound,
    derive_constants,
    fourth_moment_closed_form,
    fourth_moment_via_operator,
    frequency_fourth_moment,
    operator_moment_sweep,
    scaled_moment_via_operator,
    verify_operator_closed_form,
)

bases = st.integers(2, 12)


def sparse_operator_moment(n, r, k):
    """E[(r*X - n)**k] by the sparse-dict operator route the dense row
    replaced: keys (p, q) with q = n - p, terms whose factor s*p - q
    vanishes dropped, one Fraction per term at the specialization."""
    s = r - 1
    coeffs = {(p, n - p): comb(n, p) for p in range(n + 1)}
    for _ in range(k):
        coeffs = {
            (p, q): c * (s * p - q) for (p, q), c in coeffs.items() if s * p - q
        }
    u, y = Fraction(1, r), Fraction(r - 1, r)
    return sum((c * u**p * y**q for (p, q), c in coeffs.items()), Fraction(0))


def horner_fourth_moment(n, r):
    """E[(X/n - 1/r)**4] from its own O(n) sum: the numerator
    sum_p C(n,p) (r-1)**(n-p) (r*p - n)**4 by Horner's rule in (r-1)."""
    total = 0
    binom = 1
    for p in range(n + 1):
        total = total * (r - 1) + binom * (r * p - n) ** 4
        binom = binom * (n - p) // (p + 1)
    return Fraction(total, r**n * (r * n) ** 4)


def string_count_sums(r):
    """(Q_0(n), Q_4(n)) for n = 1, 2, ..., Q_j(n) = sum_p C(n,p) (r-1)**(n-p)
    (r*p - n)**j: the centered sums over the digit strings themselves,
    by the recurrence Q_j(n+1) = sum_(i<=j) C(j,i) a_(j-i) Q_i(n) with
    a_m = (r-1)**m + (r-1)(-1)**m, undivided by the string count r**n."""
    q0, q2, q4 = 1, 0, 0
    a2, a4 = r * (r - 1), (r - 1) ** 4 + r - 1
    while True:
        q4 = r * q4 + 6 * a2 * q2 + a4 * q0
        q2 = r * q2 + a2 * q0
        q0 = r * q0
        yield q0, q4


class TestPolynomial:
    def test_square(self):
        poly = binomial_power_polynomial(2, 1)
        assert poly.coeffs == (1, 2, 1)

    def test_coefficient_lookup(self):
        poly = binomial_power_polynomial(3, 2)
        assert poly.coefficient(1, 2) == 3
        assert poly.coefficient(5, 5) == 0
        assert poly.coefficient(1, 1) == 0
        assert poly.coefficient(-1, 4) == 0

    def test_evaluate_is_power_of_sum(self):
        poly = binomial_power_polynomial(5, 3)
        u, y = Fraction(2, 7), Fraction(3, 5)
        assert poly.evaluate(u, y) == (u + y) ** 5

    def test_zero_polynomial_evaluates_to_zero(self):
        assert MomentPolynomial(3, 1, (0,) * 4).evaluate(Fraction(1), Fraction(1)) == 0

    @pytest.mark.parametrize("n,coeffs", [(3, (1, 2, 3)), (3, (1,) * 5), (0, ())])
    def test_row_length_must_be_n_plus_one(self, n, coeffs):
        with pytest.raises(ValueError):
            MomentPolynomial(n, 1, coeffs)

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_power_polynomial(-1, 1)
        with pytest.raises(ValueError):
            binomial_power_polynomial(3, 0)

    @pytest.mark.parametrize("n, s, coeffs, message", [
        (-1, 1, (), "n must be >= 0, got -1"),
        (2, 0, (1, 2, 1), "s must be >= 1, got 0"),
        (0, -3, (1,), "s must be >= 1, got -3"),
    ])
    def test_constructor_holds_n_and_s(self, n, s, coeffs, message):
        with pytest.raises(ValueError, match=message):
            MomentPolynomial(n, s, coeffs)

    @given(st.integers(0, 40), st.integers(1, 9))
    @settings(max_examples=40)
    def test_coefficients_are_binomials(self, n, s):
        poly = binomial_power_polynomial(n, s)
        assert all(poly.coefficient(p, n - p) == comb(n, p) for p in range(n + 1))


def evaluate_term_by_term(poly, u, y):
    """The Fraction-per-term sum that MomentPolynomial.evaluate replaces."""
    n = poly.n
    return sum(
        (c * u**p * y ** (n - p) for p, c in enumerate(poly.coeffs)), Fraction(0)
    )


# homogeneous rows of degree 0..12, zeros included
rows = st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(-10**12, 10**12), min_size=n + 1, max_size=n + 1)
)
points = st.fractions(min_value=-7, max_value=7, max_denominator=60)


class TestIntegerEvaluation:
    @given(rows, st.integers(1, 9), points, points)
    @settings(max_examples=150)
    def test_matches_term_by_term_sum(self, row, s, u, y):
        poly = MomentPolynomial(len(row) - 1, s, tuple(row))
        assert poly.evaluate(u, y) == evaluate_term_by_term(poly, u, y)

    def test_accepts_ints(self):
        poly = binomial_power_polynomial(4, 1)
        assert poly.evaluate(2, -1) == 1

    @given(st.integers(1, 30), bases, st.integers(0, 4))
    @settings(max_examples=40)
    def test_specialized_operator_sum(self, n, r, k):
        poly = binomial_power_polynomial(n, r - 1)
        for _ in range(k):
            poly = apply_euler_operator(poly)
        u, y = Fraction(1, r), Fraction(r - 1, r)
        value = poly.evaluate(u, y)
        assert value == evaluate_term_by_term(poly, u, y)
        assert value == sparse_operator_moment(n, r, k)


class TestEulerOperator:
    def test_by_hand_on_square(self):
        # (x + y)^2: term y^2 gets -2, xy gets 0 and stays as a zero,
        # x^2 gets 2
        poly = apply_euler_operator(binomial_power_polynomial(2, 1))
        assert poly.coeffs == (-2, 0, 2)

    def test_zero_maps_to_zero(self):
        zero = MomentPolynomial(2, 1, (0, 0, 0))
        assert apply_euler_operator(zero).coeffs == (0, 0, 0)

    def test_closed_form_k0_is_expansion(self):
        poly = binomial_power_polynomial(4, 2)
        assert apply_euler_operator(poly, 0) == poly
        assert verify_operator_closed_form(4, 2, 0)

    def test_closed_form_matches_iteration(self):
        for n in (1, 2, 5, 13):
            for s in (1, 2, 9):
                for k in range(5):
                    assert verify_operator_closed_form(n, s, k)

    @given(st.integers(0, 25), st.integers(1, 9), st.integers(0, 4))
    @settings(max_examples=60)
    def test_closed_form_property(self, n, s, k):
        assert verify_operator_closed_form(n, s, k)

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            apply_euler_operator(binomial_power_polynomial(3, 1), -1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            verify_operator_closed_form(3, 1, -1)

    @given(rows, st.integers(1, 9), st.integers(0, 5))
    @settings(max_examples=60)
    def test_fused_passes_equal_chained_steps(self, row, s, k):
        poly = MomentPolynomial(len(row) - 1, s, tuple(row))
        chained = poly
        for _ in range(k):
            chained = apply_euler_operator(chained)
        assert apply_euler_operator(poly, k) == chained

    def test_closed_form_check_catches_a_wrong_operator(self, monkeypatch):
        operator = moments.apply_euler_operator

        def off_at_entry_0(poly, k=1):
            coeffs = operator(poly, k).coeffs
            return MomentPolynomial(poly.n, poly.s, (coeffs[0] + 1, *coeffs[1:]))

        monkeypatch.setattr(moments, "apply_euler_operator", off_at_entry_0)
        for n, s, k in ((0, 1, 0), (3, 1, 2), (7, 3, 2)):
            assert not verify_operator_closed_form(n, s, k)

    def test_a_large_k_runs_in_a_child(self):
        # k lazy passes would nest k C-level iterators, which crashes the
        # interpreter near k = 10**5; a child process keeps such a crash
        # to this test
        env = dict(os.environ, PYTHONPATH=str(Path(normality_lab.__file__).parents[1]))
        code = (
            "from normality_lab.moments import operator_moment_sweep as sweep,"
            " scaled_moment_via_operator as moment\n"
            "k = 10**5\n"
            "assert moment(1, 2, k) == 1 and moment(1, 2, k + 1) == 0\n"
            "assert list(sweep((2, 3), k, 1)) == [(1, (1, moment(1, 3, k)))]\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr


def per_cell_sweep(bases, k, n_max):
    return [
        (n, tuple(scaled_moment_via_operator(n, r, k) for r in bases))
        for n in range(1, n_max + 1)
    ]


class TestOperatorSweep:
    """The one-pass operator route against the per-n route, n by n."""

    @pytest.mark.parametrize("r", [*range(2, 13), 37, 256])
    def test_matches_per_n_route(self, r):
        for k in range(5):
            per_n = [(n, (scaled_moment_via_operator(n, r, k),)) for n in range(1, 61)]
            assert list(operator_moment_sweep((r,), k, 60)) == per_n

    @pytest.mark.parametrize("k", range(7))
    @given(st.lists(st.integers(2, 300), min_size=1, max_size=4).map(tuple), st.integers(1, 25))
    @example(tuple(range(2, 13)), 20)  # the bases of verify-paper's sweeps
    @settings(max_examples=20, deadline=None)
    def test_one_walk_serves_every_base(self, k, bases, n_max):
        assert list(operator_moment_sweep(bases, k, n_max)) == per_cell_sweep(bases, k, n_max)

    def test_rejects_bad_arguments(self):
        for bases, k, n_max, message in [
            ((1,), 4, 5, "base must be >= 2"),
            ((2,), 4, 0, "n_max must be >= 1"),
            ((2, 3, 1), 4, 5, "base must be >= 2"),
            ((2, 3), -1, 5, "k must be >= 0"),
            # a table built before the check would need 2*10**12 ints or more
            ((2, 1), 4, 10**12, "base must be >= 2"),
            ((2, 3), -1, 10**12, "k must be >= 0"),
        ]:
            with pytest.raises(ValueError, match=message):
                next(operator_moment_sweep(bases, k, n_max))

    def test_rejects_a_table_over_the_cap(self, monkeypatch):
        # 3*10**7 + 1 ints: built, the table alone would take over 1 GB
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"30000001 ints, over the cap of 1000000"):
            next(operator_moment_sweep((10**7,), 1, 3))
        with pytest.raises(ValueError, match=r"hold a 16612-bit count of ints, over the cap"):
            next(operator_moment_sweep((10**5000,), 1, 3))
        assert time.perf_counter() - start < 1
        # the bases 2 and 3 at n_max = 5 need 11 + 16 ints
        monkeypatch.setattr(moments, "MAX_SWEEP_TABLE", 27)
        assert list(operator_moment_sweep((2, 3), 4, 5)) == per_cell_sweep((2, 3), 4, 5)
        monkeypatch.setattr(moments, "MAX_SWEEP_TABLE", 26)
        with pytest.raises(ValueError, match="27 ints, over the cap of 26"):
            next(operator_moment_sweep((2, 3), 4, 5))


class TestSpecializedMoments:
    @given(st.integers(1, 60), st.integers(2, 16), st.integers(0, 6))
    @settings(max_examples=80)
    def test_matches_sparse_operator_route(self, n, r, k):
        assert scaled_moment_via_operator(n, r, k) == sparse_operator_moment(n, r, k)

    @given(st.integers(1, 30), bases)
    @settings(max_examples=40)
    def test_first_moment_vanishes(self, n, r):
        assert scaled_moment_via_operator(n, r, 1) == 0

    @given(st.integers(1, 30), bases)
    @settings(max_examples=40)
    def test_second_moment(self, n, r):
        assert scaled_moment_via_operator(n, r, 2) == n * (r - 1)

    @given(st.integers(1, 20), bases)
    @settings(max_examples=30)
    def test_third_moment(self, n, r):
        assert scaled_moment_via_operator(n, r, 3) == n * (r - 1) * (r - 2)

    @given(st.integers(1, 40), bases)
    @settings(max_examples=40)
    def test_fourth_moment_routes_agree(self, n, r):
        assert fourth_moment_via_operator(n, r) == fourth_moment_closed_form(n, r)

    def test_fourth_moment_spot_values(self):
        assert fourth_moment_closed_form(1, 2) == 1
        assert fourth_moment_closed_form(2, 2) == 8
        assert fourth_moment_closed_form(1, 10) == 657

    @given(st.integers(1, 40), bases)
    @settings(max_examples=40)
    def test_matches_textbook_central_moment(self, n, r):
        # E[(rX-n)^4] = r^4 E[(X-np)^4] with p=1/r; the standard fourth
        # central moment of Binomial(n,p) is npq(1 + 3(n-2)pq)
        p = Fraction(1, r)
        q = 1 - p
        central = n * p * q * (1 + 3 * (n - 2) * p * q)
        assert fourth_moment_closed_form(n, r) == r**4 * central

    def test_validation(self):
        with pytest.raises(ValueError):
            fourth_moment_closed_form(0, 2)
        with pytest.raises(ValueError):
            fourth_moment_closed_form(5, 1)


FROZEN_C = {
    2: 3, 3: 12, 4: 27, 5: 52, 6: 105, 7: 186,
    8: 301, 9: 456, 10: 657, 11: 910, 12: 1221,
}


class TestConstants:
    @pytest.mark.parametrize("r,c", sorted(FROZEN_C.items()))
    def test_frozen_table(self, r, c):
        consts = derive_constants(r)
        assert consts.c == c
        assert consts.d == Fraction(c, r**4)

    def test_named_fractions(self):
        assert derive_constants(2).d == Fraction(3, 16)
        assert derive_constants(3).d == Fraction(4, 27)
        assert derive_constants(10).d == Fraction(657, 10000)

    @given(bases, st.integers(1, 60))
    @settings(max_examples=60)
    def test_c_dominates_fourth_moment(self, r, n):
        assert fourth_moment_closed_form(n, r) <= derive_constants(r).c * n * n


class TestFrequencyFourthMoment:
    def test_spot_values(self):
        assert frequency_fourth_moment(1, 2) == Fraction(1, 16)
        assert frequency_fourth_moment(2, 2) == Fraction(1, 32)
        assert frequency_fourth_moment(1, 10) == Fraction(657, 10000)

    @given(st.integers(1, 60), bases)
    @settings(max_examples=40)
    def test_agrees_with_operator_route(self, n, r):
        # E[(X/n - 1/r)^4] = E[(rX - n)^4] / (rn)^4
        expected = fourth_moment_closed_form(n, r) / (r * n) ** 4
        assert frequency_fourth_moment(n, r) == expected

    @given(st.integers(1, 60), bases)
    @settings(max_examples=60)
    def test_matches_fraction_weighted_sum(self, n, r):
        target = Fraction(1, r)
        expected = sum(
            digit_count_measure(r, n, p) * (Fraction(p, n) - target) ** 4
            for p in range(n + 1)
        )
        assert frequency_fourth_moment(n, r) == expected

    @given(st.integers(1, 60), bases)
    @settings(max_examples=40)
    def test_probability_weights_normalize(self, n, r):
        total = sum(
            Fraction(comb(n, p) * (r - 1) ** (n - p), r**n) for p in range(n + 1)
        )
        assert total == 1


class TestBoundSweep:
    def test_rows_hold_for_base_two(self):
        rows = check_moment_bound(2, 50)
        assert len(rows) == 50
        assert all(row.holds for row in rows)
        assert rows[0].n == 1

    def test_bound_and_ratio_fields(self):
        row = check_moment_bound(10, 3)[2]
        assert row.bound == Fraction(657, 10000) / 9
        assert row.ratio == row.moment_sum / row.bound
        assert row.ratio <= 1

    def test_csv_row_shape(self):
        assert MOMENT_SWEEP_CSV_HEADER == "n,sum,bound,ratio_decimal,holds"
        cells = check_moment_bound(2, 1)[0].to_csv_row().split(",")
        assert cells[0] == "1"
        assert cells[1] == "1/16"
        assert cells[2] == "3/16"
        assert cells[4] == "true"

    @given(bases, st.integers(1, 40))
    @settings(max_examples=30)
    def test_bound_holds_everywhere(self, r, n):
        d = derive_constants(r).d
        assert frequency_fourth_moment(n, r) <= d / n**2

    def test_validation(self):
        with pytest.raises(ValueError):
            check_moment_bound(2, 0)


class TestOnePassSweep:
    """The one-pass sweep against the per-n Horner sum, row by row."""

    @given(st.integers(2, 40), st.integers(1, 300))
    @settings(max_examples=40)
    def test_rows_match_horner(self, r, n_max):
        d = derive_constants(r).d
        rows = check_moment_bound(r, n_max)
        assert [row.n for row in rows] == list(range(1, n_max + 1))
        for row in rows:
            expected = horner_fourth_moment(row.n, r)
            bound = d / row.n**2
            assert row.moment_sum == expected
            assert row.bound == bound
            assert row.ratio == expected / bound
            assert row.holds == (expected <= bound)

    @given(st.integers(2, 40), st.integers(1, 300))
    @settings(max_examples=40)
    def test_single_moment_matches_horner(self, r, n):
        assert frequency_fourth_moment(n, r) == horner_fourth_moment(n, r)

    @pytest.mark.parametrize("r", [41, 257, 65537, 2**64 + 1])
    def test_large_bases_match_horner(self, r):
        d = derive_constants(r).d
        for row in check_moment_bound(r, 80):
            expected = horner_fourth_moment(row.n, r)
            assert row.numerator == fourth_moment_closed_form(row.n, r)
            assert row.moment_sum == expected
            assert row.holds == (expected <= d / row.n**2)
            assert frequency_fourth_moment(row.n, r) == expected

    @given(st.integers(2, 2**64 + 1), st.integers(1, 200))
    @example(2, 200)
    @example(2**64 + 1, 200)
    @settings(max_examples=40)
    def test_rows_are_the_string_count_sums_over_r_to_the_n(self, r, n_max):
        rows = check_moment_bound(r, n_max)
        for row, (q0, q4) in zip(rows, islice(string_count_sums(r), n_max), strict=True):
            assert q0 == r**row.n
            assert row.numerator * q0 == q4

    def test_rows_hold_small_ints(self):
        # E_4(n) = 3(r-1)**2 n**2 + (r**3 - 7r**2 + 12r - 6)n, not Q_4(n),
        # which has about n*log2(r) bits
        assert all(row.numerator < 2**64 for row in check_moment_bound(11, 20000))

    @pytest.mark.parametrize("r", range(2, 13))
    def test_integer_decision_matches_the_fractions(self, r):
        for row in check_moment_bound(r, 300):
            assert row.holds == (row.moment_sum <= row.bound)
            assert row.ratio == row.moment_sum / row.bound

    @pytest.mark.parametrize("r", [2, 3, 10])
    def test_integer_decision_matches_a_failing_bound(self, monkeypatch, r):
        # C/2 is below the fourth moment for some n but not for all
        derive = moments.derive_constants

        def half_c(base):
            c = derive(base).c / 2
            return moments.MomentBoundConstants(base=base, c=c, d=c / base**4)

        monkeypatch.setattr(moments, "derive_constants", half_c)
        rows = check_moment_bound(r, 300)
        assert {row.holds for row in rows} == {True, False}
        for row in rows:
            assert row.c == derive(r).c / 2
            assert row.holds == (row.moment_sum <= row.bound)
            assert row.ratio == row.moment_sum / row.bound

    @pytest.mark.parametrize("r", [2, 3, 7, 12, 257])
    @pytest.mark.parametrize("halve", [False, True])
    def test_csv_row_matches_the_fraction_route(self, monkeypatch, r, halve):
        # to_csv_row prints from the row's integers; here the cells come
        # from the Fraction properties, str(Fraction) and a Decimal division.
        # A halved C has a denominator and fails the bound at some n.
        if halve:
            derive = moments.derive_constants
            monkeypatch.setattr(moments, "derive_constants", lambda base: (
                moments.MomentBoundConstants(base=base, c=derive(base).c / 2,
                                             d=derive(base).c / 2 / base**4)))
        for row in check_moment_bound(r, 300):
            with decimal.localcontext() as ctx:
                ctx.prec = 12
                ratio = decimal.Decimal(row.ratio.numerator) / decimal.Decimal(row.ratio.denominator)
            cells = (row.n, row.moment_sum, row.bound, ratio, str(row.holds).lower())
            assert row.to_csv_row() == ",".join(map(str, cells))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            frequency_fourth_moment(0, 2)
        with pytest.raises(ValueError):
            frequency_fourth_moment(3, 1)
