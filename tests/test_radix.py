"""Digit streams, rational expansions, regrouping, shifting, rendering."""
import builtins
import math
import random
import re
import time
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normality_lab import radix
from normality_lab.errors import FactorizationBudgetError, InsufficientDigitsError
from normality_lab.radix import (
    ALPHABET,
    FACTORIZATION_BUDGET,
    DigitExpansion,
    DigitStream,
    _WorkBudget,
    _digit_table,
    _factorize,
    _is_prime,
    _pollard_rho,
    digit_token,
    digits_to_int,
    expand_rational,
    format_bracket,
    int_to_digits,
    parse_digit_text,
    rational_period,
    regroup_to_power_base,
    validate_base,
)
from normality_lab.sources import champernowne_stream, parse_source_spec, random_stream

def parse_by_token(text, base):
    """Digit text read one character at a time up to base 36 and one
    bracket token at a time above it, the reading `parse_digit_text`
    must agree with."""
    digits = []
    if base <= 36:
        if not text:
            raise ValueError("empty")
        for ch in text:
            if ALPHABET.find(ch) not in range(base):
                raise ValueError(ch)
            digits.append(ALPHABET.index(ch))
        return digits
    if not text:
        raise ValueError("empty")
    col = 0
    while col < len(text):
        end = text.find("]", col)
        token = text[col + 1 : end]
        if text[col] != "[" or end == -1 or not re.fullmatch("[0-9]+", token):
            raise ValueError(text[col:])
        if int(token) >= base:
            raise ValueError(token)
        digits.append(int(token))
        col = end + 1
    return digits


def outcome_of(parse, text, base):
    """The digits `parse` gives, or the class of what it raises."""
    try:
        return list(parse(text, base))
    except Exception as exc:  # the class is compared, whatever it is
        return type(exc)


# a value q in [0, 1) with a modest denominator
unit_fractions = st.integers(2, 5000).flatmap(
    lambda den: st.integers(0, den - 1).map(lambda num: Fraction(num, den))
)
bases = st.integers(2, 16)


def remainder_cycle_period(q, base):
    """(preperiod, period) found by running long division until a
    remainder repeats: the eager algorithm rational_period replaced."""
    rem = q.numerator % q.denominator
    seen = {}
    steps = 0
    while rem not in seen:
        seen[rem] = steps
        rem = rem * base % q.denominator
        steps += 1
    return seen[rem], steps - seen[rem]


class TestIntDigits:
    def test_examples(self):
        assert int_to_digits(0, 10) == []
        assert int_to_digits(7, 2) == [1, 1, 1]
        assert int_to_digits(1233450, 1000) == [1, 233, 450]

    def test_digits_to_int_validates(self):
        with pytest.raises(ValueError):
            digits_to_int([2], 2)

    def test_validate_base(self):
        with pytest.raises(ValueError):
            validate_base(1)
        with pytest.raises(TypeError):
            validate_base(2.0)

    @given(st.integers(0, 10**12), bases)
    def test_round_trip(self, value, base):
        digits = int_to_digits(value, base)
        assert digits_to_int(digits, base) == value
        if digits:
            assert digits[0] != 0  # no leading zeros

    @pytest.mark.parametrize("base", [2, 3, 10, 37, 256, 257, 10**6, 2**20])
    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 127, 128, 129, 1000, 3001])
    def test_digits_to_int_matches_the_loop(self, base, length):
        rng = random.Random(base * 10007 + length)
        digits = [rng.randrange(base) for _ in range(length)]
        pack = bytes if base <= 256 else list
        assert digits_to_int(pack(digits), base) == digits_by_loop(digits, base)
        assert digits_to_int(tuple(digits), base) == digits_by_loop(digits, base)

    @pytest.mark.parametrize("spot", [0, 64, 65, 1500, 2999])
    def test_digits_to_int_checks_every_digit(self, spot):
        digits = [1] * 3000
        digits[spot] = 10
        with pytest.raises(ValueError, match="digit 10 out of range for base 10"):
            digits_to_int(digits, 10)

    def test_digits_to_int_is_subquadratic(self):
        rng = random.Random(5)
        digits = bytes(rng.randrange(10) for _ in range(3 * 10**5))
        start = time.perf_counter()
        value = digits_to_int(digits, 10)
        assert time.perf_counter() - start < 2
        assert value % 10**50 == digits_by_loop(digits[-50:], 10)
        assert value // 10 ** (len(digits) - 50) == digits_by_loop(digits[:50], 10)


def digits_by_loop(digits, base):
    """The one-step-per-digit conversion `digits_to_int` replaced, kept as
    its reference."""
    value = 0
    for d in digits:
        assert 0 <= d < base
        value = value * base + d
    return value


class TestDigitStream:
    def test_take_and_position(self):
        s = DigitStream(10, [bytes([1, 2, 3, 4, 5])])
        assert list(s.take(3)) == [1, 2, 3]
        assert s.position == 3

    def test_exhaustion_reports_positions(self):
        s = DigitStream(10, [bytes([7] * 50)], description="fifty sevens")
        s.take(10)
        with pytest.raises(InsufficientDigitsError) as exc:
            s.take(41)
        assert exc.value.available == 50
        assert exc.value.requested == 51
        assert "fifty sevens" in str(exc.value)

    def test_fork_sees_same_digits(self):
        s = DigitStream(10, [bytes(range(10))])
        s.take(2)
        twin = s.fork()
        assert list(s.take(3)) == [2, 3, 4]
        assert list(twin.take(3)) == [2, 3, 4]
        assert twin.position == s.position == 5

    def test_interleaved_forks(self):
        s = DigitStream(2, [bytes([1, 0, 1, 1, 0, 0, 1])])
        a = s.fork()
        b = a.fork()
        assert list(s.take(1)) == [1]
        assert list(a.take(2)) == [1, 0]
        assert list(b.take(3)) == [1, 0, 1]
        assert list(s.take(2)) == [0, 1]

    def test_forked_exhaustion_counts_from_origin(self):
        s = DigitStream(10, [bytes([1, 2, 3])])
        twin = s.fork()
        twin.take(3)
        with pytest.raises(InsufficientDigitsError) as exc:
            twin.take(1)
        assert exc.value.available == 3
        s.take(3)  # the original still sees every digit

    def test_fork_frees_digits_both_copies_read(self):
        # the two copies never drift more than 1000 digits apart, so a
        # fork that kept every digit read (half a million here) would show
        s = champernowne_stream(10)
        twin = s.fork()
        tracemalloc.start()
        try:
            for _ in range(500):
                s.take(1000)
                twin.take(1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.position == twin.position == 500_000
        assert peak < 2**20


@st.composite
def chunked_digits(draw):
    """(base, digits, chunks): a flat digit list and the same digits cut
    into chunks, empty ones included, of the type a source of that base
    yields."""
    base = draw(st.sampled_from([2, 10, 256, 257, 2**40]))
    digits = draw(st.lists(st.integers(0, base - 1), max_size=60))
    cuts = sorted(draw(st.lists(st.integers(0, len(digits)), max_size=10)))
    pack = bytes if base <= 256 else draw(st.sampled_from([list, tuple]))
    bounds = [0, *cuts, len(digits)]
    return base, digits, [pack(digits[a:b]) for a, b in zip(bounds, bounds[1:])]


class TestChunkedReads:
    """Reads of a chunked stream against the flat list of its digits."""

    @given(chunked_digits(), st.lists(st.integers(0, 70), max_size=12))
    @settings(max_examples=300)
    def test_takes_match_the_flat_list(self, case, sizes):
        base, digits, chunks = case
        s = DigitStream(base, chunks)
        at = 0
        for size in sizes:
            if at + size > len(digits):
                with pytest.raises(InsufficientDigitsError) as exc:
                    s.take(size)
                assert (exc.value.available, exc.value.requested) == (len(digits), at + size)
                at = len(digits)
            else:
                got = s.take(size)
                assert type(got) is (bytes if base <= 256 else list)
                assert list(got) == digits[at : at + size]
                at += size
            assert s.position == at

    @given(
        chunked_digits(),
        st.integers(0, 60),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 25)), max_size=16),
    )
    @settings(max_examples=300)
    def test_forks_read_interleaved(self, case, head, reads):
        # copy k > 0 is forked from copy k-1 when first read, wherever
        # that copy stands, often inside a chunk
        base, digits, chunks = case
        head = min(head, len(digits))
        s = DigitStream(base, chunks)
        s.take(head)
        copies, at = [s], [head]
        for which, size in reads:
            if which >= len(copies):
                copies.append(copies[-1].fork())
                at.append(at[-1])
                which = len(copies) - 1
            size = min(size, len(digits) - at[which])
            assert list(copies[which].take(size)) == digits[at[which] : at[which] + size]
            at[which] += size
            assert copies[which].position == at[which]
        for copy, position in zip(copies, at):
            with pytest.raises(InsufficientDigitsError) as exc:
                copy.take(len(digits) - position + 1)
            assert exc.value.available == len(digits)


class TestDigitTable:
    @pytest.mark.parametrize("base", [2, 10, 256, 257, 4096, 4097])
    def test_kept_per_base(self, base):
        t, table = _digit_table(base)
        assert _digit_table(base) is _digit_table(base)
        assert isinstance(table, tuple)
        assert len(table) == base**t

    def test_streams_share_the_table(self):
        _digit_table.cache_clear()
        expand_rational(Fraction(1, 7), 10)
        champernowne_stream(10)
        expand_rational(Fraction(2, 7), 10)
        info = _digit_table.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestExpandRational:
    def test_half_base_two_round_down_form(self):
        e = expand_rational(Fraction(1, 2), 2)
        assert list(e.fractional.take(8)) == [1, 0, 0, 0, 0, 0, 0, 0]
        assert e.leading_index == -1
        assert rational_period(Fraction(1, 2), 2) == (1, 1)

    def test_third_base_two_alternates(self):
        e = expand_rational(Fraction(1, 3), 2)
        assert list(e.fractional.take(6)) == [0, 1, 0, 1, 0, 1]
        assert rational_period(Fraction(1, 3), 2) == (0, 2)
        assert e.leading_index == -2

    def test_third_base_four_constant(self):
        e = expand_rational(Fraction(1, 3), 4)
        assert list(e.fractional.take(6)) == [1] * 6

    def test_zero(self):
        e = expand_rational(Fraction(0), 7)
        assert list(e.fractional.take(3)) == [0, 0, 0]
        assert e.leading_index == -1
        assert e.integer_digits == []

    def test_value_above_one(self):
        e = expand_rational(Fraction(7, 2), 10)
        assert e.integer_digits == [3]
        assert list(e.fractional.take(3)) == [5, 0, 0]
        assert e.leading_index == 0

    def test_integer_value(self):
        e = expand_rational(Fraction(42), 10)
        assert e.integer_digits == [4, 2]
        assert e.leading_index == 1
        assert list(e.fractional.take(2)) == [0, 0]

    def test_sixth_base_ten_preperiod(self):
        e = expand_rational(Fraction(1, 6), 10)
        assert list(e.fractional.take(4)) == [1, 6, 6, 6]
        assert rational_period(Fraction(1, 6), 10) == (1, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expand_rational(Fraction(-1, 2), 2)

    def test_stream_is_lazy(self):
        # a prime with a full period of 998650 digits: building that period
        # up front took about 100 MiB
        tracemalloc.start()
        try:
            digits = expand_rational(Fraction(1, 998651), 10).fractional.take(1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(digits[:6]) == [0, 0, 0, 0, 0, 1]
        assert peak < 2**20
        assert rational_period(Fraction(1, 998651), 10) == (0, 998650)

    @given(unit_fractions, bases)
    @settings(max_examples=150)
    def test_partial_sums_round_down(self, q, base):
        # truncations never overshoot: 0 <= q - sum_{j<=k} d_j r^-j < r^-k,
        # which also rules out an infinite (r-1) tail
        e = expand_rational(q, base)
        digits = e.fractional.take(40)
        partial = Fraction(0)
        for k, d in enumerate(digits, start=1):
            partial += Fraction(d, base**k)
            assert 0 <= q - partial < Fraction(1, base**k)

    @given(unit_fractions, bases)
    @settings(max_examples=100)
    def test_period_metadata_cycles(self, q, base):
        e = expand_rational(q, base)
        pre, per = rational_period(q, base)
        digits = e.fractional.take(pre + 3 * per)
        assert digits[pre : pre + per] == digits[pre + per : pre + 2 * per]

    @given(
        unit_fractions,
        st.integers(0, 10**6),
        st.integers(2, 40),
    )
    @settings(max_examples=200)
    def test_period_matches_remainder_cycle(self, q, int_part, base):
        for value in (q, q + int_part):
            assert rational_period(value, base) == remainder_cycle_period(value, base)

    @given(
        st.sampled_from([
            (41, [41]), (2021, [43, 47]), (2018, [2, 1009]),
            (41**2, [41]), (4 * 1009, [2, 1009]),
        ]),
        st.lists(st.integers(0, 4), min_size=2, max_size=2),
        st.integers(1, 1000),
        st.integers(0, 10**6),
    )
    @settings(max_examples=100)
    def test_period_matches_remainder_cycle_past_the_witnesses(
        self, case, exponents, m, num
    ):
        # the gcd of den and base has a prime above 37, so the preperiod
        # reaches Pollard's rho, a base with a square makes the preperiod
        # a ceiling, and m mixes in primes the base lacks; the walk takes
        # at most the preperiod plus m steps
        base, primes = case
        den = m * math.prod(p**k for p, k in zip(primes, exponents))
        q = Fraction(num % den, den)
        assert rational_period(q, base) == remainder_cycle_period(q, base)

    def test_period_with_prime_factors_past_trial_division(self):
        # both primes lie above 10**6, so only Pollard's rho can split
        # their product; the oracle walks the powers of 10 modulo each
        p, q = 1000003, 1000033

        def order_by_walk(a, n):
            k, power = 1, a % n
            while power != 1:
                k, power = k + 1, power * a % n
            return k

        period = math.lcm(order_by_walk(10, p), order_by_walk(10, q))
        assert rational_period(Fraction(7, 40 * p * q), 10) == (3, period)
        assert _factorize(12 * p**2 * q) == {2: 2, 3: 1, p: 2, q: 1}

    @given(unit_fractions, bases)
    @settings(max_examples=100)
    def test_leading_index_marks_first_nonzero(self, q, base):
        e = expand_rational(q, base)
        if q == 0:
            assert e.leading_index == -1
            return
        k = -e.leading_index
        digits = e.fractional.take(k)
        assert digits[k - 1] != 0
        assert all(d == 0 for d in digits[: k - 1])


def leading_index_by_scan(q, base):
    """The leading index of q in (0, 1), one multiplication per leading
    zero: the reference for expand_rational's estimate."""
    leading, scaled = -1, q.numerator * base
    while scaled < q.denominator:
        leading, scaled = leading - 1, scaled * base
    return leading


class TestLongDenominators:
    @given(
        st.integers(1, 10**20),
        st.integers(1, 10**20),
        st.integers(-1, 1),
        st.integers(0, 300),
        st.one_of(st.integers(2, 300), st.integers(2, 2**70)),
    )
    @settings(max_examples=400)
    def test_leading_index_matches_the_scan(self, a, b, c, e, base):
        # b = 1 puts q at or next to a power of the base, where the
        # estimate from bit lengths needs its corrections
        q = Fraction(a, a + b * base**e + c)
        if q < 1:
            assert expand_rational(q, base).leading_index == leading_index_by_scan(q, base)

    def test_long_preperiod_costs_few_gcds(self, monkeypatch):
        # gcds are counted, not timed: the preperiod comes from the
        # valuations of 2 and 5 in den, found by divisions after one gcd
        # of den and 10, where dividing gcd(den, 10) out once per
        # preperiod step would take 40001 gcds
        calls = []
        gcd = math.gcd

        def counting_gcd(*args):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counting_gcd)
        assert rational_period(Fraction(1, 7 * 10**40000), 10) == (40000, 6)
        assert len(calls) <= 100

    @pytest.mark.parametrize("exponent, base, bits", [
        (6000, 3, 19932),  # the order needs 20000-bit pows mod 10**6000
        (1000000, 10, 3321929),  # dividing out 2 and 5 is booked past the budget
    ])
    def test_long_smooth_denominator_is_refused_before_its_pows(
        self, monkeypatch, exponent, base, bits
    ):
        # pows are counted, not timed: each is booked by operand size
        # before it runs, so none of the long ones runs
        den, long_pows = 10**exponent, []

        def counting_pow(a, e, m):
            if m.bit_length() > 10000 and e.bit_length() > 1000:
                long_pows.append(e)
            return builtins.pow(a, e, m)

        monkeypatch.setattr(radix, "pow", counting_pow, raising=False)
        with pytest.raises(FactorizationBudgetError) as exc:
            rational_period(Fraction(1, den), base)
        assert long_pows == []
        assert exc.value.n == den
        assert f"a denominator of {bits} bits" in str(exc.value)

    def test_long_power_of_the_base_fits_the_budget(self):
        # the valuations of 2 and 5 book about 2.7 * 10**6 units
        assert rational_period(Fraction(1, 10**200000), 10) == (200000, 1)

    def test_period_of_a_long_prime_power_is_minimal(self):
        n = 1009**100
        pre, period = rational_period(Fraction(1, n), 10)
        assert pre == 0 and pow(10, period, n) == 1
        for p in _factorize(period):
            assert pow(10, period // p, n) != 1


# the least composite that passes Miller-Rabin on the primes up to 37
STRONG_PSEUDOPRIME = 399165290221 * 798330580441


class TestPrimality:
    def test_strong_pseudoprime_is_composite(self):
        assert STRONG_PSEUDOPRIME == 318665857834031151167461
        assert not _is_prime(STRONG_PSEUDOPRIME)

    def test_strong_pseudoprime_factors(self):
        assert _factorize(STRONG_PSEUDOPRIME) == {399165290221: 1, 798330580441: 1}

    def test_strong_pseudoprime_period(self):
        # the order of 41 is lcm(399165290220, 798330580440), not n - 1
        assert rational_period(Fraction(1, STRONG_PSEUDOPRIME), 41) == (0, 798330580440)

    def test_mersenne_primes_stay_prime(self):
        assert _is_prime(2**89 - 1) and _is_prime(2**127 - 1)


def trial_division_factors(n):
    factors, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


small_primes = [p for p in range(2, 2 * 10**4) if _is_prime(p)]


class TestFactorize:
    @given(
        st.dictionaries(
            st.sampled_from(small_primes), st.integers(1, 3), min_size=1, max_size=4
        )
    )
    @settings(max_examples=300)
    def test_matches_trial_division(self, powers):
        # prime powers above 37 reach Pollard's rho whole
        n = math.prod(p**k for p, k in powers.items())
        assert _factorize(n) == trial_division_factors(n) == powers

    def test_three_large_primes(self):
        # rho's modular multiplications are counted, not timed: about
        # 2.7 * 10**6 of them split this number
        n = (2**61 - 1) * (2**31 - 1) * (10**12 + 39)
        work = _WorkBudget(n)
        factors = _factorize(n, work)
        assert math.prod(p**k for p, k in factors.items()) == n
        assert all(_is_prime(p) for p in factors)
        assert 0 < work.spent <= FACTORIZATION_BUDGET

    def test_witness_powers_cost_log_steps(self):
        # booked work is counted, not timed: one division per power of 2
        # and of 5 took 572108 units on this number
        work = _WorkBudget(10**6000)
        assert _factorize(10**6000, work) == {2: 6000, 5: 6000}
        assert work.spent == 4471

    def test_prime_power_past_the_witnesses_leaves_whole(self):
        # booked work is counted, not timed: splitting 1009**100 one
        # prime at a time by rho took 98193 units
        work = _WorkBudget(1009**100)
        assert _factorize(1009**100, work) == {1009: 100}
        assert work.spent < 10**4

    def test_shared_large_primes_end_after_one_digit(self):
        # 1/n in base n is 0.1: the gcd of den and base is n itself,
        # which rho splits before its primes are divided out
        n = (2**31 - 1) * (2**61 - 1)
        assert rational_period(Fraction(1, n), n) == (1, 1)

    @given(
        st.sampled_from(radix._WITNESSES), st.integers(0, 300), st.integers(1, 10**6)
    )
    def test_divide_out_finds_the_valuation(self, p, k, m):
        while m % p == 0:
            m //= p
        assert radix._divide_out(m * p**k, p, _WorkBudget(1)) == (m, k)

    def test_work_is_weighed_by_operand_size(self):
        work = _WorkBudget(1)
        work.spend(3, 2**511)  # operands up to 512 bits book one unit each
        assert work.spent == 3
        work.spend(1, 2**1024)  # 1025 bits: three words squared
        assert work.spent == 3 + 9
        work.spend(2, 2**5000, 7)  # ten words by one
        assert work.spent == 3 + 9 + 20

    def test_past_the_budget_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(radix, "FACTORIZATION_BUDGET", 1000)
        n = (2**31 - 1) * (10**12 + 39)
        with pytest.raises(FactorizationBudgetError) as exc:
            rational_period(Fraction(1, 10 * n), 10)
        assert (exc.value.n, exc.value.budget) == (10 * n, 1000)
        assert str(10 * n) in str(exc.value) and "1000 " in str(exc.value)

    def test_long_denominator_past_the_budget_is_named_by_its_bits(self, monkeypatch):
        # 3**240 prints in 115 digits, past the 256 bits a message shows
        monkeypatch.setattr(radix, "FACTORIZATION_BUDGET", 5)
        with pytest.raises(FactorizationBudgetError) as exc:
            rational_period(Fraction(1, 3**240), 10)
        assert exc.value.n == 3**240
        assert "factoring a denominator of 381 bits for its period" in str(exc.value)
        assert str(3**240)[:20] not in str(exc.value)

    def test_rho_splits_a_large_semiprime_one_gcd_per_batch(self, monkeypatch):
        # the cycle modulo 2**31 - 1 spans many batches and doublings;
        # gcds are counted, not timed: a search with one gcd per step
        # (Floyd) takes 42448 of them on this number
        calls = []
        gcd = math.gcd

        def counting_gcd(*args):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counting_gcd)
        p, q = 2**31 - 1, 10**12 + 39
        assert _pollard_rho(p * q) in (p, q)
        assert len(calls) < 1000

    def test_trial_division_stops_at_a_prime_cofactor(self):
        # the `%` taken of the cofactor are counted, not timed: odd trial
        # divisors up to 10**6 behind 2**127 - 1 would take about 500000
        class CountingInt(int):
            mods = 0

            def __mod__(self, other):
                CountingInt.mods += 1
                return int(self) % other

            def __floordiv__(self, other):
                return CountingInt(int(self) // other)

        m127 = 2**127 - 1
        assert _factorize(CountingInt(3 * m127)) == {3: 1, m127: 1}
        assert CountingInt.mods < 100

    def test_rho_splits_small_semiprimes(self):
        # cycles this short close inside one batch, where the batch gcd is
        # often n itself and the step-by-step replay must find the factor
        primes = [p for p in range(41, 400) if _is_prime(p)]
        for i, p in enumerate(primes):
            for q in primes[i:]:
                d = _pollard_rho(p * q)
                assert 1 < d < p * q and p * q % d == 0


class TestRegroup:
    def test_identity_returns_same_stream(self):
        s = DigitStream(2, [bytes([1, 0, 1])])
        assert regroup_to_power_base(s, 1) is s

    def test_pairs_of_bits(self):
        s = DigitStream(2, [bytes([0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1])])
        g = regroup_to_power_base(s, 2)
        assert g.base == 4
        assert list(g.take(6)) == [0, 2, 1, 0, 0, 3]

    def test_lazy_consumption(self):
        s = DigitStream(2, [bytes([1, 1, 0, 0, 1, 1, 0, 0])])
        g = regroup_to_power_base(s, 2)
        g.take(2)
        assert s.position == 4  # exactly k*n inputs for k outputs

    def test_exhaustion_mid_group_propagates(self):
        s = DigitStream(2, [bytes([1, 0, 1])])
        g = regroup_to_power_base(s, 2)
        assert list(g.take(1)) == [2]
        with pytest.raises(InsufficientDigitsError) as exc:
            g.take(1)
        assert exc.value.available == 1  # grouped coordinates
        assert exc.value.requested == 2
        assert s.position == 3  # the short group was read to the end

    def test_take_exhaustion_counts_grouped_digits(self):
        g = regroup_to_power_base(DigitStream(2, [bytes([1, 0, 1])]), 2)
        with pytest.raises(InsufficientDigitsError) as exc:
            g.take(2)
        assert exc.value.available == 1
        assert exc.value.requested == 2

    def test_group_size_validated(self):
        with pytest.raises(ValueError):
            regroup_to_power_base(DigitStream(2, [b""]), 0)

    def test_take_is_one_bulk_read_of_the_input(self, monkeypatch):
        reads = []
        plain_read = DigitStream._read

        def counting_read(self, count):
            reads.append(count)
            return plain_read(self, count)

        monkeypatch.setattr(DigitStream, "_read", counting_read)
        inner = parse_source_spec("file:pi_base10.digits").stream()
        grouped = regroup_to_power_base(inner, 2)
        assert len(grouped.take(400)) == 400
        assert len(reads) <= 2  # a read per group would be 400
        assert inner.position == 800

    def test_large_take_reads_bounded_slices(self, monkeypatch):
        reads = []
        plain_read = DigitStream._read

        def counting_read(self, count):
            reads.append(count)
            return plain_read(self, count)

        monkeypatch.setattr(DigitStream, "_read", counting_read)
        k = 3 * radix._GROUP_SLICE + 7
        digits = [(7 * i) % 10 for i in range(3 * k)]
        inner = DigitStream(10, [bytes(digits)])
        grouped = regroup_to_power_base(inner, 3)
        got = grouped.take(k)
        assert got == [int("".join(map(str, digits[i : i + 3]))) for i in range(0, 3 * k, 3)]
        assert inner.position == 3 * k
        assert max(reads) <= 3 * radix._GROUP_SLICE
        assert len(reads) == 4

    def test_short_final_group_past_a_slice_ends_the_view(self):
        k = radix._GROUP_SLICE + 5
        inner = DigitStream(2, [bytes([1] * (2 * k + 1))])
        grouped = regroup_to_power_base(inner, 2)
        with pytest.raises(InsufficientDigitsError) as exc:
            grouped.take(k + 1)
        assert exc.value.available == k
        assert inner.position == 2 * k + 1

    @given(unit_fractions, st.integers(2, 4), st.lists(st.integers(0, 9), max_size=5))
    def test_nested_regroup_equals_one_regroup(self, q, base, sizes):
        inner = expand_rational(q, base).fractional
        nested = regroup_to_power_base(regroup_to_power_base(inner, 2), 2)
        direct = regroup_to_power_base(expand_rational(q, base).fractional, 4)
        assert nested.base == direct.base == base**4
        for size in sizes:
            assert nested.take(size) == direct.take(size)
            assert inner.position == 4 * nested.position
        assert nested.position == direct.position == sum(sizes)

    def test_fork_reads_a_fork_of_the_input(self):
        inner = DigitStream(2, [bytes([1, 1, 0, 1, 0, 0, 1, 0])])
        grouped = regroup_to_power_base(inner, 2)
        assert list(grouped.take(1)) == [3]
        twin = grouped.fork()
        assert list(twin.take(3)) == [1, 0, 2]
        assert inner.position == 2  # the twin read a fork of the input
        assert list(grouped.take(3)) == [1, 0, 2]
        assert inner.position == 8

    @given(unit_fractions, st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=100)
    def test_regroup_equals_power_base_expansion(self, q, base, n):
        grouped = regroup_to_power_base(expand_rational(q, base).fractional, n)
        direct = expand_rational(q, base**n).fractional
        assert grouped.take(12) == direct.take(12)

    @given(st.lists(st.integers(0, 1), min_size=12, max_size=12), st.integers(1, 4))
    def test_value_preserved(self, bits, n):
        k = 12 // n
        grouped = regroup_to_power_base(DigitStream(2, [bytes(bits)]), n)
        assert digits_to_int(grouped.take(k), 2**n) == digits_to_int(
            bits[: k * n], 2
        )


# the tiers of `_windows`: bytes up to 256, 2-byte values up to 2**16
window_bases = st.one_of(st.integers(2, 300), st.sampled_from([2, 4, 16, 256, 257, 65537]))


@st.composite
def digits_and_windows(draw):
    base = draw(window_bases)
    n = draw(st.integers(1, 17))
    step = draw(st.sampled_from([1, n]))
    digits = draw(st.lists(st.integers(0, base - 1), max_size=3 * n + 40))
    return base, (bytes(digits) if base <= 256 else digits), n, step


class TestWindows:
    @given(digits_and_windows())
    @settings(max_examples=200)
    def test_entries_read_their_windows(self, case):
        base, digits, n, step = case
        tiers = list(radix._windows(digits, base, n, step))
        assert len(tiers) == n
        for k, values in enumerate(tiers, 1):
            starts = range(0, len(digits) - k + 1, step)
            assert list(values) == [digits_to_int(digits[s : s + k], base) for s in starts]

    @pytest.mark.parametrize("base, power, kind", [
        (2, 8, bytes),  # 256
        (256, 1, bytes),
        (257, 1, list),
        (2, 9, array),  # 512
        (2, 16, array),  # 65536
        (256, 2, array),
        (2, 17, list),  # 131072
        (65537, 1, list),
    ])
    def test_tiers(self, base, power, kind):
        digits = random_stream(base, 3).take(power + 20)
        *_, values = radix._windows(digits, base, power)
        assert type(values) is kind
        assert list(values) == [
            digits_to_int(digits[s : s + power], base) for s in range(21)
        ]

    # r**n = 256, 512, 1000, 65536 and 131072: the byte, 2-byte and list tiers
    @pytest.mark.parametrize("base, n", [(2, 8), (2, 9), (10, 3), (2, 16), (2, 17)])
    def test_grouped_take_is_bytes_or_list(self, monkeypatch, base, n):
        monkeypatch.setattr(radix, "_GROUP_SLICE", 16)  # a take of 50 joins four slices
        digits = random_stream(base, 3).take(50 * n + n - 1)  # a short final group
        grouped = regroup_to_power_base(DigitStream(base, [digits]), n)
        values = grouped.take(50)
        assert type(values) is (bytes if base**n <= 256 else list)
        assert list(values) == [
            digits_to_int(digits[s * n : s * n + n], base) for s in range(50)
        ]
        with pytest.raises(InsufficientDigitsError):
            grouped.take(1)


class TestShift:
    """A fractional shift by m is take(m) on the stream."""

    def test_splits_integer_digits(self):
        s = expand_rational(Fraction(1, 3), 10).fractional
        assert list(s.take(3)) == [3, 3, 3]
        assert list(s.take(2)) == [3, 3]

    def test_zero_shift(self):
        s = DigitStream(10, [bytes([9, 8])])
        assert list(s.take(0)) == []
        assert list(s.take(2)) == [9, 8]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DigitStream(10, [b""]).take(-1)

    @given(unit_fractions, bases, st.integers(0, 8))
    @settings(max_examples=100)
    def test_head_is_integer_part_of_scaled_value(self, q, base, m):
        s = expand_rational(q, base).fractional
        head = s.take(m)
        scaled = q * base**m
        assert digits_to_int(head, base) == scaled.numerator // scaled.denominator
        # remaining digits expand the fractional part of the scaled value
        frac = scaled - (scaled.numerator // scaled.denominator)
        assert s.take(10) == expand_rational(frac, base).fractional.take(10)


class TestFormatBracket:
    def test_plain_digits_small_base(self):
        e = expand_rational(Fraction(1, 2), 2)
        assert format_bracket(e, 4) == "0.1000"

    def test_zero_renders_zeros(self):
        e = expand_rational(Fraction(0), 10)
        assert format_bracket(e, 3) == "0.000"

    def test_integer_digits_count_toward_total(self):
        e = expand_rational(Fraction(7, 2), 10)
        assert format_bracket(e, 4) == "3.500"

    def test_count_equal_to_integer_digits(self):
        e = expand_rational(Fraction(42), 10)
        assert format_bracket(e, 2) == "42."

    def test_letters_above_nine(self):
        e = expand_rational(Fraction(11, 16), 16)
        assert format_bracket(e, 2) == "0.b0"

    def test_brackets_above_base_36(self):
        e = expand_rational(Fraction(14, 100) + Fraction(15, 10000), 100)
        assert format_bracket(e, 2) == "0.[14][15]"

    def test_big_base_integer_part(self):
        e = expand_rational(Fraction(1233450) + Fraction(423, 1000), 1000)
        assert format_bracket(e, 4) == "[1][233][450].[423]"

    def test_count_validated(self):
        e = expand_rational(Fraction(1, 2), 2)
        with pytest.raises(ValueError):
            format_bracket(e, 0)

    def test_digit_text_round_trips_through_tokens(self):
        digits = parse_digit_text("09az", 36)
        assert digits == [0, 9, 10, 35]
        assert "".join(digit_token(d, 36) for d in digits) == "09az"

    @pytest.mark.parametrize(
        "text,base", [("", 10), ("12", 37), ("102", 2), ("A", 16), (" 1", 10)]
    )
    def test_digit_text_rejects(self, text, base):
        with pytest.raises(ValueError):
            parse_digit_text(text, base)

    @given(st.data())
    def test_digit_text_round_trips_in_every_base(self, data):
        base = data.draw(st.one_of(st.integers(2, 36), st.integers(37, 2**20)))
        digits = data.draw(st.lists(st.integers(0, base - 1), min_size=1, max_size=30))
        text = "".join(digit_token(d, base) for d in digits)
        assert parse_digit_text(text, base) == digits

    # the ids keep the names these cases had under the earlier wording
    @pytest.mark.parametrize("text, base, message", [
        ("", 10, "empty digit text"),
        pytest.param("", 37, "empty digit text", id="-37-bracketed decimal digits"),
        pytest.param("12", 37, "expected '[', got '1'", id="12-37-bracketed decimal digits"),
        pytest.param("[1][2", 37, "unterminated '[' token", id="[1][2-37-bracketed decimal digits"),
        pytest.param("[100]", 100, "digit [100] out of range for base 100",
                     id="[100]-100-digit 100 out of range for base 100"),
        pytest.param("z", 10, "digit 'z' (= 35) out of range for base 10",
                     id="z-10-invalid digit 'z' for base 10"),
    ])
    def test_digit_text_errors(self, text, base, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_digit_text(text, base)

    @given(st.data())
    @settings(max_examples=300)
    def test_digit_text_matches_a_per_token_reading(self, data):
        base = data.draw(st.integers(2, 300))
        piece = st.one_of(
            st.sampled_from([*ALPHABET, "[", "]", " ", "00", "\u00e9"]),
            st.builds(lambda v, w: f"[{v:0{w}d}]", st.integers(0, base + 50), st.integers(1, 5)),
        )
        text = "".join(data.draw(st.lists(piece, max_size=12)))
        assert outcome_of(parse_digit_text, text, base) == outcome_of(
            parse_by_token, text, base
        ), text

    @pytest.mark.parametrize("base", [100, 300, 10**6])
    def test_over_long_token_is_out_of_range(self, base):
        text = "[1][2][" + "1" * 5000 + "]"
        with pytest.raises(ValueError) as exc:
            parse_digit_text(text, base)
        assert str(exc.value) == f"digit [{'1' * 32}...] out of range for base {base}"
        assert parse_digit_text("[1][" + "0" * 5000 + "7]", base) == [1, 7]

    def test_quoted_digit_text_is_cut(self):
        with pytest.raises(ValueError) as exc:
            parse_digit_text("[" + "1" * 10**5, 100)
        assert str(exc.value) == "unterminated '[' token"

    def test_digit_token_range_checked(self):
        with pytest.raises(ValueError):
            digit_token(5, 4)

    def test_expansion_for_opaque_stream(self):
        e = DigitExpansion(
            base=10, integer_digits=[], fractional=DigitStream(10, [bytes([1, 2, 3])])
        )
        assert e.leading_index is None
        assert format_bracket(e, 3) == "0.123"
