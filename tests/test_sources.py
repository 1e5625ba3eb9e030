"""Digit sources: rationals, champernowne, files, seeded randomness."""
import math
import os
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain, islice
from operator import xor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normality_lab import radix, sources
from normality_lab.errors import (
    InsufficientDigitsError,
    InvalidDigitError,
    MalformedHeaderError,
)
from normality_lab.radix import (
    ALPHABET,
    CHAR_VALUE,
    _LANE_DENOMINATORS,
    _RATIONAL_BATCH,
    _RATIONAL_LANES,
    _RATIONAL_STEPS,
    DigitStream,
    _digit_reader,
    _digit_table,
    digits_to_int,
    expand_rational,
    int_to_digits,
    regroup_to_power_base,
)
from normality_lab.sources import (
    ASSETS_ENV,
    _BLOCK_BITS,
    _LANES,
    _SEED_SUBSTITUTE,
    _STEPS,
    _TAPS,
    SourceSpec,
    _ahead,
    champernowne_stream,
    champernowne_tally,
    load_digit_file,
    parse_prefix_digits,
    parse_source_spec,
    power_exponent,
    random_stream,
    rational_stream,
    resolve_digit_path,
    xorshift64_step,
)


class TestRationalStream:
    def test_half(self):
        assert list(rational_stream(Fraction(1, 2), 2).take(4)) == [1, 0, 0, 0]

    def test_zero(self):
        assert list(rational_stream(Fraction(0), 5).take(3)) == [0, 0, 0]

    def test_domain_is_unit_interval(self):
        with pytest.raises(ValueError):
            rational_stream(Fraction(3, 2), 2)
        with pytest.raises(ValueError):
            rational_stream(Fraction(-1, 2), 2)
        with pytest.raises(ValueError):
            rational_stream(Fraction(1), 2)


class TestChampernowne:
    def test_base_ten_prefix(self):
        s = champernowne_stream(10)
        assert list(s.take(13)) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 0, 1, 1]

    def test_base_two_prefix(self):
        # 1, 10, 11, 100, 101 concatenated
        assert list(champernowne_stream(2).take(11)) == [1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]

    def test_first_digits_enumerate_single_digit_numbers(self):
        s = champernowne_stream(7)
        assert list(s.take(6)) == [1, 2, 3, 4, 5, 6]

    @given(st.integers(2, 16))
    def test_all_digits_in_range(self, base):
        assert all(d < base for d in champernowne_stream(base).take(500))

    def test_first_chunk_comes_from_the_digit_table(self, monkeypatch):
        calls = []

        def counting(value, base):
            calls.append(value)
            return int_to_digits(value, base)

        monkeypatch.setattr(sources, "int_to_digits", counting)
        assert list(champernowne_stream(2).take(1)) == [1]
        assert len(calls) <= 1


def block_end(base, k):
    """Digits in the integers 1 .. base**k - 1: the end of block k."""
    return sum(j * (base - 1) * base ** (j - 1) for j in range(1, k + 1))


tally_bases = st.one_of(
    st.integers(2, 40), st.sampled_from([255, 256, 257, 4096, 4097, 2**40]))


@st.composite
def tally_prefixes(draw):
    """(base, n) with n up to 30000, half the time next to a block end."""
    base = draw(tally_bases)
    ends = [e for e in (block_end(base, k) for k in range(1, 8)) if e < 30000]
    if ends and draw(st.booleans()):
        return base, max(1, draw(st.sampled_from(ends)) + draw(st.integers(-1, 1)))
    return base, draw(st.integers(1, 30000))


class TestChampernowneTally:
    @given(tally_prefixes())
    @settings(max_examples=200)
    def test_matches_a_count_of_the_stream(self, prefix):
        base, n = prefix
        tally = champernowne_tally(base, n)
        assert tally == Counter(champernowne_stream(base).take(n))
        assert list(tally) == sorted(tally)
        assert 0 not in tally.values()

    @pytest.mark.parametrize("base, n, counts", [
        (10, 9, dict.fromkeys(range(1, 10), 1)),
        (10, 11, {**dict.fromkeys(range(1, 10), 1), 1: 2, 0: 1}),
        (2, 11, {0: 4, 1: 7}),
        # the end of block 5: every nonzero digit alike
        (10, 488889, {0: 38889, **dict.fromkeys(range(1, 10), 50000)}),
        (2**40, 5, {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}),
    ])
    def test_pinned_counts(self, base, n, counts):
        assert champernowne_tally(base, n) == counts

    def test_a_far_prefix_costs_a_few_steps(self):
        start = time.perf_counter()
        tally = champernowne_tally(10, 10**30)
        assert time.perf_counter() - start < 1
        assert sum(tally.values()) == 10**30
        assert len(tally) == 10

    @pytest.mark.parametrize("base, n, message", [
        (10, 0, "prefix length must be >= 1"),
        (1, 5, "base"),
    ])
    def test_validation(self, base, n, message):
        with pytest.raises(ValueError, match=message):
            champernowne_tally(base, n)


class TestRandomStream:
    def test_frozen_seed_42_base_10(self):
        assert list(random_stream(10, 42).take(20)) == [
            4, 1, 4, 6, 2, 7, 5, 4, 6, 7, 7, 8, 3, 3, 5, 1, 2, 7, 1, 2,
        ]

    def test_frozen_seed_42_base_2(self):
        assert list(random_stream(2, 42).take(20)) == [
            0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0,
        ]

    def test_frozen_seed_7_base_100(self):
        assert list(random_stream(100, 7).take(8)) == [27, 52, 43, 7, 50, 25, 65, 48]

    def test_same_seed_same_stream(self):
        assert random_stream(10, 123).take(100) == random_stream(10, 123).take(100)

    def test_different_seeds_differ(self):
        assert random_stream(10, 1).take(50) != random_stream(10, 2).take(50)

    def test_zero_seed_uses_documented_substitute(self):
        substitute = 0x9E3779B97F4A7C15
        assert random_stream(10, 0).take(30) == random_stream(10, substitute).take(30)

    def test_seed_masked_to_64_bits(self):
        assert random_stream(10, 5 + 2**64).take(20) == random_stream(10, 5).take(20)

    def test_step_is_64_bit(self):
        state = 42
        for _ in range(100):
            state = xorshift64_step(state)
            assert 0 < state < 2**64

    @given(st.integers(2, 37), st.integers(1, 2**64 - 1))
    @settings(max_examples=50)
    def test_digits_in_range(self, base, seed):
        assert all(d < base for d in random_stream(base, seed).take(200))


def write_digit_file(path, text):
    path.write_text(text, encoding="ascii")
    return path


class TestDigitFiles:
    def test_round_trip(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=10\n14 15\n92\n")
        s = load_digit_file(p).stream()
        assert s.base == 10
        assert list(s.take(6)) == [1, 4, 1, 5, 9, 2]

    def test_letters_for_larger_bases(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=16\n0f a\n")
        assert list(load_digit_file(p).stream().take(3)) == [0, 15, 10]

    def test_bracketed_digits_above_36(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=100\n[14] [15]\n[92][0]\n")
        s = load_digit_file(p).stream()
        assert s.base == 100
        assert list(s.take(4)) == [14, 15, 92, 0]

    def test_int_header(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=10\nint=3\n1415\n")
        meta = load_digit_file(p)
        assert meta.base == 10
        assert meta.integer_value == 3
        assert list(meta.stream().take(4)) == [1, 4, 1, 5]

    def test_int_header_optional(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=10\n1415\n")
        assert load_digit_file(p).integer_value == 0

    def test_each_stream_is_fresh(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=10\n123\n")
        meta = load_digit_file(p)
        assert meta.stream().take(3) == meta.stream().take(3)

    def test_exhaustion_reports_file_size(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=2\n" + "01" * 25 + "\n")
        s = load_digit_file(p).stream()
        with pytest.raises(InsufficientDigitsError) as exc:
            s.take(51)
        assert exc.value.available == 50
        assert exc.value.requested == 51

    def test_missing_base_header(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "1415\n")
        with pytest.raises(MalformedHeaderError) as exc:
            load_digit_file(p)
        assert exc.value.line == 1

    def test_empty_file(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "")
        with pytest.raises(MalformedHeaderError):
            load_digit_file(p)

    def test_base_below_two(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=1\n000\n")
        with pytest.raises(MalformedHeaderError):
            load_digit_file(p)

    def test_malformed_int_header(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=10\nint=3.5\n14\n")
        with pytest.raises(MalformedHeaderError) as exc:
            load_digit_file(p)
        assert exc.value.line == 2

    def test_digit_out_of_range_with_position(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=2\n0101\n0121\n")
        with pytest.raises(InvalidDigitError) as exc:
            load_digit_file(p).stream().take(8)
        assert exc.value.line == 3
        assert exc.value.column == 3

    def test_invalid_character(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=10\n12x4\n")
        with pytest.raises(InvalidDigitError):
            load_digit_file(p).stream().take(4)

    def test_uppercase_rejected(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=16\n0F\n")
        with pytest.raises(InvalidDigitError):
            load_digit_file(p).stream().take(2)

    def test_unterminated_bracket(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=100\n[14] [15\n")
        with pytest.raises(InvalidDigitError):
            load_digit_file(p).stream().take(3)

    def test_bracket_value_out_of_range(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=40\n[39][40]\n")
        with pytest.raises(InvalidDigitError):
            load_digit_file(p).stream().take(2)

    def test_empty_bracket(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=100\n[]\n")
        with pytest.raises(InvalidDigitError):
            load_digit_file(p).stream().take(1)

    def test_stray_character_in_bracket_mode(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "base=100\n[14] 15\n")
        with pytest.raises(InvalidDigitError):
            load_digit_file(p).stream().take(2)

    def test_non_ascii_byte_is_invalid_digit(self, tmp_path):
        # past the decoder's first 8 KiB chunk, so the header reads cleanly
        p = tmp_path / "t.digits"
        p.write_bytes(b"base=10\n" + (b"1" * 99 + b"\n") * 100 + "12\u00e9\n".encode())
        with pytest.raises(InvalidDigitError) as exc:
            load_digit_file(p).stream().take(10**4)
        assert (exc.value.line, exc.value.column) == (102, 3)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_digit_file(tmp_path / "nope.digits")

    @pytest.mark.parametrize("base", [100, 300])
    def test_over_long_token_is_out_of_range(self, tmp_path, base):
        p = write_digit_file(
            tmp_path / "t.digits", f"base={base}\n[1][2][" + "1" * 5000 + "][3]\n"
        )
        s = load_digit_file(p).stream()
        assert list(s.take(2)) == [1, 2]
        with pytest.raises(InvalidDigitError) as exc:
            s.take(1)
        assert (exc.value.line, exc.value.column) == (2, 8)
        assert exc.value.detail == f"digit [{'1' * 32}...] out of range for base {base}"

    @pytest.mark.parametrize("base", [100, 300])
    def test_zero_padded_token_reads_at_any_length(self, tmp_path, base):
        p = write_digit_file(tmp_path / "t.digits", f"base={base}\n[1][" + "0" * 5000 + "7]\n")
        assert list(load_digit_file(p).stream().take(2)) == [1, 7]

    @pytest.mark.parametrize("header, line", [
        ("base=" + "1" * 5000 + "\n", 1),
        ("base=10\nint=" + "1" * 5000 + "\n", 2),
    ], ids=["base", "int"])
    def test_header_number_past_the_int_limit(self, tmp_path, header, line):
        p = write_digit_file(tmp_path / "t.digits", header + "1415\n")
        with pytest.raises(MalformedHeaderError) as exc:
            load_digit_file(p)
        assert exc.value.line == line
        assert exc.value.detail == "a value of 5000 digits is too long to read"

    def test_quoted_header_is_cut(self, tmp_path):
        p = write_digit_file(tmp_path / "t.digits", "x" * 10**5 + "\n1415\n")
        with pytest.raises(MalformedHeaderError) as exc:
            load_digit_file(p)
        assert exc.value.detail == f"expected base=<r>, got '{'x' * 32}'..."


class TestAssetResolution:
    def test_env_var_takes_over(self, tmp_path, monkeypatch):
        write_digit_file(tmp_path / "x.digits", "base=10\n7\n")
        monkeypatch.setenv(ASSETS_ENV, str(tmp_path))
        assert resolve_digit_path("x.digits") == tmp_path / "x.digits"

    def test_env_var_is_exclusive(self, tmp_path, monkeypatch):
        # packaged pi file exists, but a set env var is the only place searched
        monkeypatch.setenv(ASSETS_ENV, str(tmp_path))
        resolved = resolve_digit_path("pi_base10.digits")
        assert resolved == tmp_path / "pi_base10.digits"
        assert not resolved.exists()

    def test_packaged_asset_found_without_env(self, monkeypatch):
        monkeypatch.delenv(ASSETS_ENV, raising=False)
        resolved = resolve_digit_path("pi_base10.digits")
        assert resolved.exists()
        assert load_digit_file(resolved).base == 10

    def test_explicit_paths_used_as_given(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ASSETS_ENV, str(tmp_path / "elsewhere"))
        p = write_digit_file(tmp_path / "y.digits", "base=10\n7\n")
        assert resolve_digit_path(str(p)) == p


class TestSourceSpecs:
    def test_rational_spelling(self):
        spec = parse_source_spec("rational:1/3", 2)
        assert spec.kind == "rational"
        assert spec.value == Fraction(1, 3)
        assert list(spec.stream().take(4)) == [0, 1, 0, 1]

    def test_decimal_spelling_is_exact(self):
        assert parse_source_spec("rational:0.25", 10).value == Fraction(1, 4)

    def test_prefix_spelling(self):
        spec = parse_source_spec("rational:11010111011-prefix", 2)
        assert spec.value == Fraction(0b11010111011, 2**11)
        assert list(spec.stream().take(11)) == [1, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1]
        assert list(spec.stream().take(13)[-2:]) == [0, 0]  # zero-extended

    def test_prefix_digits_validated(self):
        with pytest.raises(ValueError):
            parse_prefix_digits("0121", 2)
        with pytest.raises(ValueError):
            parse_prefix_digits("", 2)

    def test_bracketed_prefix_above_base_36(self):
        assert parse_source_spec("rational:[12][7]-prefix", 100).value == Fraction(1207, 10000)

    def test_champernowne_spelling(self):
        spec = parse_source_spec("champernowne", 10)
        assert list(spec.stream().take(3)) == [1, 2, 3]

    def test_random_spelling(self):
        spec = parse_source_spec("random:42", 10)
        assert spec.seed == 42
        assert list(spec.stream().take(5)) == [4, 1, 4, 6, 2]

    def test_file_spelling_reads_header_base(self, tmp_path):
        p = write_digit_file(tmp_path / "f.digits", "base=7\n123\n")
        spec = parse_source_spec(f"file:{p}")
        assert spec.base == 7
        assert list(spec.stream().take(3)) == [1, 2, 3]

    def test_rational_needs_unit_interval(self):
        with pytest.raises(ValueError):
            parse_source_spec("rational:5/3", 10)

    def test_base_required_for_non_file(self):
        with pytest.raises(ValueError):
            parse_source_spec("rational:1/3")
        with pytest.raises(ValueError):
            parse_source_spec("champernowne")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_source_spec("pi", 10)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            parse_source_spec("random:abc", 10)

    @pytest.mark.parametrize("seed", ["1" * 5000, "0x" + "f" * 5000, "-" + "1_" * 2500 + "1"],
                             ids=["decimal", "hex", "negative"])
    def test_long_seed_is_masked_to_64_bits(self, seed):
        text, sign = seed.lstrip("-"), -1 if seed.startswith("-") else 1
        radix = 16 if text.startswith("0x") else 10
        masked = 0
        for ch in text.removeprefix("0x").replace("_", ""):
            masked = (masked * radix + int(ch, 16)) % 2**64
        masked = sign * masked % 2**64
        spec = parse_source_spec(f"random:{seed}", 10)
        assert spec.seed == masked
        assert spec.stream().take(300) == parse_source_spec(f"random:{masked}", 10).stream().take(300)

    def test_streams_restart(self):
        spec = parse_source_spec("random:9", 10)
        assert spec.stream().take(10) == spec.stream().take(10)


class TestStreamInBase:
    def test_power_exponent(self):
        assert power_exponent(2, 8) == 3
        assert power_exponent(10, 10) == 1
        assert power_exponent(10, 1000) == 3
        assert power_exponent(2, 6) is None
        assert power_exponent(10, 5) is None

    def test_same_base_passthrough(self, tmp_path):
        p = write_digit_file(tmp_path / "f.digits", "base=10\n141592\n")
        s = parse_source_spec(f"file:{p}", 10).stream()
        assert s.base == 10
        assert list(s.take(6)) == [1, 4, 1, 5, 9, 2]

    def test_regroups_file_to_power_base(self, tmp_path):
        p = write_digit_file(tmp_path / "f.digits", "base=10\n141592\n")
        spec = parse_source_spec(f"file:{p}", 100)
        assert spec.base == 100
        s = spec.stream()
        assert s.base == 100
        assert list(s.take(3)) == [14, 15, 92]

    def test_expansion_carries_the_integer_part(self, tmp_path):
        p = write_digit_file(tmp_path / "f.digits", "base=10\nint=3\n141592\n")
        e = parse_source_spec(f"file:{p}", 100).expansion()
        assert (e.base, e.integer_digits) == (100, [3])
        assert list(e.fractional.take(3)) == [14, 15, 92]

    def test_expansion_of_a_rational_has_no_integer_digits(self):
        e = parse_source_spec("rational:1/3", 4).expansion()
        assert (e.base, e.integer_digits) == (4, [])
        assert list(e.fractional.take(3)) == [1, 1, 1]

    def test_rejects_non_power(self, tmp_path):
        p = write_digit_file(tmp_path / "f.digits", "base=10\n141592\n")
        with pytest.raises(ValueError, match="neither equal to it nor a power of it"):
            parse_source_spec(f"file:{p}", 7)

    def test_file_streams_in_the_base_it_was_parsed_for(self, tmp_path):
        p = write_digit_file(tmp_path / "f.digits", "base=10\n141592\n")
        assert list(parse_source_spec(f"file:{p}", 100).stream().take(3)) == [14, 15, 92]
        assert parse_source_spec(f"file:{p}", 1000).stream().take(2) == [141, 592]
        with pytest.raises(ValueError):
            parse_source_spec(f"file:{p}", 7)

    @pytest.mark.parametrize(
        "text, base",
        [
            ("rational:1/3", 2),
            ("rational:101-prefix", 2),
            ("champernowne", 12),
            ("random:5", 7),
            ("file:pi_base10.digits", 10),
            ("file:pi_base10.digits", 100),
            ("file:pi_base10.digits", 10**4),
        ],
    )
    def test_every_kind_streams_in_its_parsed_base(self, text, base):
        spec = parse_source_spec(text, base)
        assert spec.base == base
        s = spec.stream()
        assert s.base == base
        assert all(0 <= d < base for d in s.take(20))


# one source of each kind, and the packaged pi file also grouped by 2 and
# by 3; it holds 1000 digits, more than any read below in base 10
split_sources = st.one_of(
    st.builds(
        lambda num, den, base: parse_source_spec(f"rational:{num % den}/{den}", base),
        st.integers(0, 10**6), st.integers(1, 5000), st.integers(2, 16),
    ),
    st.integers(2, 16).map(lambda base: parse_source_spec("champernowne", base)),
    st.builds(
        lambda seed, base: parse_source_spec(f"random:{seed}", base),
        st.integers(0, 2**64), st.integers(2, 16),
    ),
    st.just("file:pi_base10.digits").map(parse_source_spec),
    st.just(parse_source_spec("file:pi_base10.digits", 100)),
    st.just(parse_source_spec("file:pi_base10.digits", 1000)),
)


def available(spec):
    """Digits a fresh stream of spec holds: whole groups of the pi file's
    1000 for a file, no bound for the other kinds."""
    return 1000 // power_exponent(10, spec.base) if spec.kind == "file" else math.inf


def one_by_one(spec, count):
    """The oracle: the first `count` digits of a fresh stream, pulled from
    its flattened chunks one next() at a time.  A file read in a power of
    its header base has no chunks of its own: its header-base digits are
    pulled one at a time and grouped by hand."""
    if spec.kind == "file" and spec.base != spec.file.base:
        n = power_exponent(spec.file.base, spec.base)
        it = chain.from_iterable(spec.file.stream()._chunks)
        return [
            digits_to_int([next(it) for _ in range(n)], spec.file.base)
            for _ in range(count)
        ]
    it = chain.from_iterable(spec.stream()._chunks)
    return [next(it) for _ in range(count)]


class TestStreamSplitting:
    @given(split_sources, st.lists(st.integers(0, 120), max_size=8))
    @settings(max_examples=150)
    def test_split_takes_equal_one_take(self, spec, sizes):
        assume(sum(sizes) <= available(spec))
        stream = spec.stream()
        pieces = []
        for size in sizes:
            pieces += stream.take(size)
            assert stream.position == len(pieces)
        total = sum(sizes)
        assert pieces == list(spec.stream().take(total)) == one_by_one(spec, total)

    @given(
        split_sources,
        st.integers(0, 100),
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 60)), max_size=12),
    )
    @settings(max_examples=150)
    def test_interleaved_forks_see_identical_digits(self, spec, head, reads):
        longest = max(sum(size for which, size in reads if which == w) for w in (0, 1))
        assume(head + longest <= available(spec))
        stream = spec.stream()
        stream.take(head)
        copies = [stream, stream.fork()]
        seen = [[], []]
        for which, size in reads:
            seen[which] += copies[which].take(size)
            assert copies[which].position == head + len(seen[which])
        expected = one_by_one(spec, head + max(map(len, seen)))[head:]
        for digits in seen:
            assert digits == expected[: len(digits)]

    @given(st.integers(2, 7))
    def test_short_final_group_reads_the_file_to_the_end(self, n):
        inner = parse_source_spec("file:pi_base10.digits").stream()
        grouped = regroup_to_power_base(inner, n)
        whole = 1000 // n
        with pytest.raises(InsufficientDigitsError) as exc:
            grouped.take(whole + 1)
        assert (exc.value.available, exc.value.requested) == (whole, whole + 1)
        assert inner.position == 1000


# --- per-digit references: the generators the chunked sources replaced ---


def champernowne_by_digit(base):
    k = 1
    while True:
        yield from int_to_digits(k, base)
        k += 1


def long_division_by_digit(q, base):
    r = q.numerator
    while True:
        d, r = divmod(r * base, q.denominator)
        yield d


def scan_by_character(path, base, header_lines):
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno <= header_lines:
                continue
            if base <= 36:
                for col, ch in enumerate(line, start=1):
                    if ch.isspace():
                        continue
                    value = CHAR_VALUE.get(ch)
                    if value is None:
                        raise InvalidDigitError(
                            path, lineno, col, f"invalid digit character {ch!r}"
                        )
                    if value >= base:
                        raise InvalidDigitError(
                            path, lineno, col,
                            f"digit {ch!r} (= {value}) out of range for base {base}",
                        )
                    yield value
            else:
                yield from scan_bracketed_line(path, base, lineno, line)


def scan_bracketed_line(path, base, lineno, line):
    col = 0
    while col < len(line):
        ch = line[col]
        col += 1
        if ch.isspace():
            continue
        if ch != "[":
            raise InvalidDigitError(path, lineno, col, f"expected '[', got {ch!r}")
        start = col
        end = line.find("]", col)
        if end == -1:
            raise InvalidDigitError(path, lineno, start, "unterminated '[' token")
        token = line[col:end]
        col = end + 1
        if not token.isdigit():
            raise InvalidDigitError(
                path, lineno, start + 1,
                f"expected decimal digits inside [], got {token!r}",
            )
        value = int(token)
        if value >= base:
            raise InvalidDigitError(
                path, lineno, start + 1, f"digit [{value}] out of range for base {base}"
            )
        yield value


# bytes chunks up to base 256, lists above, and a digit table of up to
# 4096 entries only in the bytes bases
chunk_bases = st.one_of(st.integers(2, 300), st.integers(4090, 4100))


def champernowne_chunk_edge(base, j):
    """Where chunk j + 1 of the chunked champernowne stream starts: the
    integers below base**t, then base**t integers per high part, t the
    largest with base**t <= 4096.  A stream above base 256 has no table
    and makes runs of up to 4096 integers that share their high part
    i // base; up to base 4096 (t = 1) they are the same integers, and
    past it t = 0 counts the runs."""
    t = 0
    while base ** (t + 1) <= 4096:
        t += 1
    if not t:
        runs = ((hi * base + low, hi * base + min(low + 4096, base))
                for hi in range(j + 1) for low in range(0 if hi else 1, base, 4096))
        return sum(len(int_to_digits(k, base))
                   for start, stop in islice(runs, j + 1) for k in range(start, stop))
    edge = sum(len(int_to_digits(k, base)) for k in range(1, base**t))
    for hi in range(1, j + 1):
        edge += base**t * (t + len(int_to_digits(hi, base)))
    return edge


def read_in_pieces(stream, head, sizes):
    digits = list(stream.take(head))
    for size in sizes:
        digits += stream.take(size)
        assert stream.position == len(digits)
    return digits


class TestChunkedSources:
    @given(
        chunk_bases,
        st.integers(0, 1),
        st.integers(-40, 40),
        st.lists(st.integers(0, 30), max_size=6),
    )
    @settings(max_examples=80)
    def test_champernowne_matches_per_digit(self, base, edge, lead, sizes):
        head = max(0, champernowne_chunk_edge(base, edge) + lead)
        got = read_in_pieces(champernowne_stream(base), head, sizes)
        assert got == list(islice(champernowne_by_digit(base), len(got)))

    @pytest.mark.parametrize("base", [2, 10, 256, 257, 300, 4096, 4097, 2**40])
    def test_champernowne_chunks_keep_the_contract(self, base):
        """A chunk is a `bytes` up to base 256 and a list above, and chunk
        j ends where `champernowne_chunk_edge(base, j)` says."""
        chunks = list(islice(champernowne_stream(base)._chunks, 3))
        assert [type(c) for c in chunks] == [bytes if base <= 256 else list] * 3
        ends = [sum(map(len, chunks[: j + 1])) for j in range(3)]
        assert ends == [champernowne_chunk_edge(base, j) for j in range(3)]
        digits = list(chain.from_iterable(chunks))
        assert digits == list(islice(champernowne_by_digit(base), len(digits)))

    @pytest.mark.parametrize("base", [257, 1000, 4096, 4097])
    def test_list_bases_take_one_digit_per_group(self, base):
        """Above base 256 there is no digit table: champernowne and long
        division yield lists of plain digits, and 20k digits read in
        uneven pieces equal the per-digit references."""
        assert _digit_table(base)[0] == 0
        q, n = Fraction(123457, 987659), 20000
        makers = [(lambda: champernowne_stream(base), champernowne_by_digit(base)),
                  (lambda: expand_rational(q, base).fractional, long_division_by_digit(q, base))]
        for make, reference in makers:
            chunks, total = make()._chunks, 0
            while total < n:
                chunk = next(chunks)
                assert type(chunk) is list
                total += len(chunk)
            got = read_in_pieces(make(), 1, [7, 4096, 3, 640, 1, 9999, 17, 5236])
            assert len(got) == n
            assert got == list(islice(reference, n))

    @given(
        chunk_bases,
        st.integers(0, 10**9),
        st.integers(1, 10**9),
        st.integers(0, 30),
        st.lists(st.integers(0, 30), max_size=8),
    )
    @settings(max_examples=150)
    def test_rational_matches_per_digit(self, base, num, den, head, sizes):
        q = Fraction(num % den, den)
        got = read_in_pieces(rational_stream(q, base), head, sizes)
        assert got == list(islice(long_division_by_digit(q, base), len(got)))

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: champernowne_stream(2**40).take(10), list(range(1, 11))),
            (
                lambda: expand_rational(Fraction(1, 3), 2**40).fractional.take(10),
                [2**40 // 3] * 10,
            ),
        ],
        ids=["champernowne", "rational"],
    )
    def test_huge_base_builds_no_base_sized_table(self, make, expected):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            digits = make()
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digits == expected
        assert elapsed < 1
        assert peak < 2**20


def xorshift_by_digit(base, seed):
    """The per-digit random source: one xorshift64_step per state, states
    at or above the largest multiple of base rejected."""
    state = seed & (2**64 - 1) or 0x9E3779B97F4A7C15
    threshold = 2**64 - 2**64 % base
    while True:
        state = xorshift64_step(state)
        if state < threshold:
            yield state % base


def xorshift64_back(state):
    """The state one `xorshift64_step` before `state`: each step
    x ^= x << a (or >> a) is undone by XOR-ing in the shifts by a, 2a, ...
    of its output, the steps taken in reverse order."""
    for a, left in ((17, True), (7, False), (13, True)):
        out = state
        for k in range(a, 64, a):
            out ^= (state << k) & (2**64 - 1) if left else state >> k
        state = out
    return state


def random_block_edge(j):
    """Where block j + 1 of the random source starts, counted in states:
    _STEPS states per lane, one lane in the first block, twice as many in
    each next one up to _LANES."""
    return _STEPS * sum(min(2**b, _LANES) for b in range(j + 1))


# small bases, and bases that reject about half and a quarter of all
# states
random_bases = st.one_of(st.integers(2, 300), st.sampled_from([2**63 + 1, 3 * 2**62]))
random_seeds = st.one_of(
    st.sampled_from([0, 5 + 2**64, (0xDEADBEEF << 64) | 12345]),
    st.integers(1, 2**64 - 1),
)


class TestRandomLanes:
    @given(
        random_bases,
        random_seeds,
        st.integers(0, 9),
        st.integers(-300, 300),
        st.lists(st.integers(0, 300), max_size=6),
    )
    @settings(max_examples=60)
    def test_matches_per_digit(self, base, seed, edge, lead, sizes):
        head = max(0, random_block_edge(edge) + lead)
        got = read_in_pieces(random_stream(base, seed), head, sizes)
        assert got == list(islice(xorshift_by_digit(base, seed), len(got)))

    @pytest.mark.parametrize("base", [10, 256, 257, 2**9, 2**63 + 1, 3 * 2**62, 2**64])
    def test_full_blocks_match_per_digit(self, base):
        # past the lane doubling, into blocks reached by the jump polynomial
        n = random_block_edge(10)
        assert list(random_stream(base, 99).take(n)) == list(
            islice(xorshift_by_digit(base, 99), n)
        )

    # the rejected state in the one-lane first block, in lane 0 of the
    # four-lane third block, in lane 89 of the first jumped-to block (at
    # its steps 3, 15, 16 and 17, so on each side of a 16-step row) and
    # at the last step of the four-lane block and of a 256-lane block
    @pytest.mark.parametrize("position", [
        0, _STEPS * 3 + 7, _STEPS * 600 + 3, _STEPS * 600 + 15, _STEPS * 600 + 16,
        _STEPS * 600 + 17, random_block_edge(2) - 1, random_block_edge(9) - 1,
    ])
    @pytest.mark.parametrize("base", [3, 10, 255, 257, 2**63 + 1])
    def test_rejected_state_is_dropped(self, base, position):
        # 2**64 - 1 is at or above the largest multiple of every base that
        # is not a power of two, so each of these bases rejects it
        seed = 2**64 - 1
        for _ in range(position + 1):
            seed = xorshift64_back(seed)
        state = seed
        for _ in range(position + 1):
            state = xorshift64_step(state)
        assert state == 2**64 - 1
        n = position + 500
        assert list(random_stream(base, seed).take(n)) == list(
            islice(xorshift_by_digit(base, seed), n)
        )

    def test_ahead_steps_the_states(self):
        # every jump a block makes: _STEPS times its 1, 2, ..., _LANES
        # lanes and, while the lanes double, twice that
        marks = {_STEPS * 2**i for i in range(9)}
        assert max(marks) == _LANES * _STEPS
        for start in (1, 0x9E3779B97F4A7C15, 2**64 - 1):
            states = [start]
            for steps in range(1, max(marks) + 1):
                states.append(xorshift64_step(states[-1]))
                if steps in marks:
                    assert all(i < 64 for i in _ahead(steps))
                    assert reduce(xor, [states[i] for i in _ahead(steps)]) == states[-1]

    @given(
        random_bases,
        random_seeds,
        st.integers(0, 2000),
        st.lists(st.tuples(st.booleans(), st.integers(0, 400)), max_size=10),
    )
    @settings(max_examples=40)
    def test_forks_read_interleaved(self, base, seed, head, reads):
        stream = random_stream(base, seed)
        stream.take(head)
        twin = stream.fork()
        got = {True: [], False: []}
        for first, size in reads:
            got[first] += (stream if first else twin).take(size)
        longest = max(len(got[True]), len(got[False]))
        expected = list(islice(xorshift_by_digit(base, seed), head + longest))[head:]
        assert got[True] == expected[: len(got[True])]
        assert got[False] == expected[: len(got[False])]

    def test_short_read_is_short(self):
        random_stream(10, 1).take(random_block_edge(9))  # fills the jump cache
        elapsed = []
        for seed in range(5):
            start = time.perf_counter()
            random_stream(10, seed).take(10)
            elapsed.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            random_stream(10, 7).take(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert min(elapsed) < 1e-3
        assert peak < 2**20

    def test_base_above_two_to_the_64_rejected(self):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            random_stream(2**64 + 1, 1)
        with pytest.raises(ValueError, match=r"2\*\*64"):
            parse_source_spec("random:1", 2**64 + 1)
        assert parse_source_spec("random:1", 2**64).stream().take(3) == list(
            islice(xorshift_by_digit(2**64, 1), 3)
        )


def berlekamp_massey(bits):
    """The taps j of the shortest recurrence x_t = XOR of x_(t-j) that the
    bit sequence obeys (Massey 1969)."""
    c, b, length, gap = [1], [1], 0, 1
    for n, bit in enumerate(bits):
        for i in range(1, length + 1):
            bit ^= c[i] & bits[n - i]
        if not bit:
            gap += 1
            continue
        previous = c
        c = c + [0] * max(0, len(b) + gap - len(c))
        c[gap : gap + len(b)] = [x ^ y for x, y in zip(c[gap:], b)]
        if 2 * length <= n:
            length, b, gap = n + 1 - length, previous, 1
        else:
            gap += 1
    return tuple(j for j in range(1, length + 1) if j < len(c) and c[j])


def xorshift_states(seed, count):
    states = [seed]
    for _ in range(count):
        states.append(xorshift64_step(states[-1]))
    return states[1:]


def block_cap(base):
    """The most digits a block of the bit-plane source holds: a digit of
    base 2**k takes 1, 2, 4, 8, 16, 32 or 64 bits, the power of two at or
    above k."""
    k = base.bit_length() - 1
    return _BLOCK_BITS // min(w for w in (1, 2, 4, 8, 16, 32, 64) if w >= k)


def bit_plane_edge(base, j):
    """Where chunk j + 1 of the bit-plane random source in `base` starts:
    64 digits, then 64 blocks of 1, 2, 4, ... digits a chunk, up to
    `block_cap`."""
    edge, digits = 64, 1
    for _ in range(j):
        edge += 64 * digits
        digits = min(2 * digits, block_cap(base))
    return edge


power_bases = st.sampled_from(
    [2, 4, 8, 16, 32, 64, 128, 256, 2**9, 2**16, 2**17, 2**33, 2**40, 2**64])


class TestBitPlanes:
    def test_taps_are_those_berlekamp_massey_finds(self):
        states = xorshift_states(_SEED_SUBSTITUTE, 256)
        assert berlekamp_massey([s & 1 for s in states]) == _TAPS

    @pytest.mark.parametrize("seed", [1, _SEED_SUBSTITUTE, 2**64 - 1])
    def test_bit_planes_obey_the_taps(self, seed):
        # an XOR of states is one per bit plane; blocks of D bits, D a
        # power of two, obey the taps spread D apart
        states = xorshift_states(seed, 4096)
        for spread in (1, 2, 4, 8, 16, 32, 64):
            for t in range(64 * spread, 4096):
                parts = [states[t - j * spread] for j in _TAPS]
                assert states[t] == reduce(xor, parts), (spread, t)

    @given(
        power_bases,
        random_seeds,
        st.integers(0, 9),
        st.integers(-200, 200),
        st.lists(st.integers(0, 3000), max_size=6),
    )
    @settings(max_examples=60)
    def test_matches_per_digit(self, base, seed, edge, lead, sizes):
        head = max(0, bit_plane_edge(base, edge) + lead)
        got = read_in_pieces(random_stream(base, seed), head, sizes)
        assert got == list(islice(xorshift_by_digit(base, seed), len(got)))

    @pytest.mark.parametrize("base", [2, 4, 8, 16, 256, 2**9, 2**64])
    def test_full_blocks_match_per_digit(self, base):
        # up to the end of the second chunk past the blocks' doubling, in
        # three pieces
        n = bit_plane_edge(base, block_cap(base).bit_length() + 2)
        stream = random_stream(base, 5006714841306934763)
        got = read_in_pieces(stream, 1000, [n // 2, n - n // 2 - 1000])
        assert got == list(islice(xorshift_by_digit(base, 5006714841306934763), n))

    @given(
        power_bases,
        random_seeds,
        st.integers(0, 8),
        st.integers(-100, 100),
        st.lists(st.tuples(st.booleans(), st.integers(0, 2000)), max_size=10),
    )
    @settings(max_examples=40)
    def test_forks_read_interleaved(self, base, seed, edge, lead, reads):
        head = max(0, bit_plane_edge(base, edge) + lead)
        stream = random_stream(base, seed)
        stream.take(head)
        twin = stream.fork()
        got = {True: [], False: []}
        for first, size in reads:
            got[first] += (stream if first else twin).take(size)
        longest = max(len(got[True]), len(got[False]))
        expected = list(islice(xorshift_by_digit(base, seed), head + longest))[head:]
        assert got[True] == expected[: len(got[True])]
        assert got[False] == expected[: len(got[False])]

    @pytest.mark.parametrize("base", [2, 16, 256])
    def test_short_read_is_short(self, base):
        random_stream(base, 1).take(10**5)  # fills any cache a read uses
        elapsed = []
        for seed in range(5):
            start = time.perf_counter()
            random_stream(base, seed).take(10)
            elapsed.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            random_stream(base, 7).take(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert min(elapsed) < 1e-3
        assert peak < 2**20


def rational_chunk_edge(base, j):
    """Where chunk j + 1 of a rational stream in `base` starts: chunks of
    1, 2, 4, ... groups of t digits (t from the digit table, 1 past base
    256) up to _RATIONAL_BATCH; past that chunk, for a base up to 256 and
    a denominator below _LANE_DENOMINATORS, lane blocks of 16, 32, ... up
    to _RATIONAL_LANES lanes of _RATIONAL_STEPS groups of k digits, the
    largest k with base**k <= 256."""
    t = _digit_table(base)[0] or 1
    k = max(i for i in range(1, 9) if base**i <= 256) if base <= 256 else None
    edge, size = 0, 1
    for _ in range(j + 1):
        if k and size > _RATIONAL_BATCH:
            edge += size * k
            size = min(2 * size, _RATIONAL_LANES * _RATIONAL_STEPS)
        else:
            edge += size * t
            size = 2 * size if size < _RATIONAL_BATCH or k else size
    return edge


def count_lane_calls(monkeypatch):
    """A list that `radix._rational_lanes` appends to on each call."""
    calls, lanes = [], radix._rational_lanes
    monkeypatch.setattr(radix, "_rational_lanes", lambda *args: calls.append(args) or lanes(*args))
    return calls


# small and large lane bases, one past them on the loop, and one with no
# digit table; denominators around the lanes' cutoff
rational_bases = st.one_of(st.integers(2, 256), st.sampled_from([257, 2**40]))
rational_denominators = st.one_of(
    st.integers(1, 10**9),
    st.sampled_from([1, _LANE_DENOMINATORS - 1, _LANE_DENOMINATORS, _LANE_DENOMINATORS + 1]),
    st.integers(2**40, _LANE_DENOMINATORS + 2**40),
)


class TestRationalLanes:
    @given(
        rational_bases,
        st.integers(0, 2**70),
        rational_denominators,
        st.integers(0, 13),
        st.integers(-300, 300),
        st.lists(st.integers(0, 300), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_digit(self, base, num, den, edge, lead, sizes):
        q = Fraction(num % den, den)
        head = max(0, rational_chunk_edge(base, edge) + lead)
        got = read_in_pieces(rational_stream(q, base), head, sizes)
        assert got == list(islice(long_division_by_digit(q, base), len(got)))

    @pytest.mark.parametrize("den", [
        1, 3, 999983, 2**32 - 5, _LANE_DENOMINATORS - 1, _LANE_DENOMINATORS,
        _LANE_DENOMINATORS + 1,
    ])
    @pytest.mark.parametrize("base", [2, 3, 10, 100, 255, 256, 257, 2**40])
    def test_full_blocks_match_per_digit(self, monkeypatch, base, den):
        # two chunks past the lane doubling, into full 256-lane blocks
        calls = count_lane_calls(monkeypatch)
        q = Fraction(den // 3 + 1, den) if den > 1 else Fraction(0)
        n = rational_chunk_edge(base, 17) if base <= 256 else rational_chunk_edge(base, 14)
        assert list(rational_stream(q, base).take(n)) == list(
            islice(long_division_by_digit(q, base), n)
        )
        assert len(calls) == (base <= 256 and den < _LANE_DENOMINATORS)

    @given(
        rational_bases,
        st.integers(0, 2**70),
        rational_denominators,
        st.integers(0, 40000),
        st.lists(st.tuples(st.booleans(), st.integers(0, 20000)), max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_forks_read_interleaved(self, base, num, den, head, reads):
        q = Fraction(num % den, den)
        stream = rational_stream(q, base)
        stream.take(head)
        twin = stream.fork()
        got = {True: [], False: []}
        for first, size in reads:
            got[first] += (stream if first else twin).take(size)
        longest = max(len(got[True]), len(got[False]))
        expected = list(islice(long_division_by_digit(q, base), head + longest))[head:]
        assert got[True] == expected[: len(got[True])]
        assert got[False] == expected[: len(got[False])]

    @pytest.mark.parametrize("base", [2, 4, 10, 256])
    def test_short_read_never_enters_the_lanes(self, monkeypatch, base):
        calls = count_lane_calls(monkeypatch)
        tracemalloc.start()
        try:
            digits = rational_stream(Fraction(1, 3), base).take(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digits == bytes(islice(long_division_by_digit(Fraction(1, 3), base), 10))
        assert calls == []
        assert peak < 2**20
        # the read that passes the first _RATIONAL_BATCH-group chunk does
        rational_stream(Fraction(1, 3), base).take(rational_chunk_edge(base, 10) + 1)
        assert len(calls) == 1


# whitespace str.isspace() accepts, line ends included
SPACES = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\r\n", "\n", "\r")


def bad_pieces(base):
    """Text that no digit of `base` may contain."""
    if base <= 36:
        return ["!", "Z", "\u00e9", "[", *ALPHABET[base : base + 1]]
    return ["[]", "[5x]", f"[{base}]", f"[{base + 7:04d}]", "[5", "5", "[ 5]", "]",
            "\u00e9"]


@st.composite
def digit_files(draw):
    """A base, a header, the pieces of a valid digit section and a spot
    among them for a bad piece."""
    base = draw(st.one_of(st.integers(2, 36), st.integers(37, 300), st.just(100)))
    pieces = []
    for value in draw(st.lists(st.integers(0, base - 1), max_size=60)):
        pieces.append(draw(st.sampled_from(("",) + SPACES)))
        if base <= 36:
            pieces.append(ALPHABET[value])
        else:
            pieces.append(f"[{value:0{draw(st.integers(1, 4))}d}]")
    header = f"base={base}\n" + draw(st.sampled_from(("", "int=3\n")))
    return base, header, pieces, draw(st.integers(0, len(pieces)))


def outcome(stream, size):
    """What one take does: its digits or its error, and the position after."""
    try:
        result = stream.take(size)
    except (InvalidDigitError, InsufficientDigitsError) as exc:
        result = (type(exc).__name__, str(exc), getattr(exc, "line", None),
                  getattr(exc, "column", None))
    return result, stream.position


class TestChunkedFiles:
    @given(digit_files(), st.lists(st.integers(0, 25), max_size=5))
    @settings(max_examples=100)
    def test_lines_match_per_character_scan(self, tmp_path_factory, spec, sizes):
        base, header, pieces, spot = spec
        folder = tmp_path_factory.mktemp("chunked")
        for bad in ["", *bad_pieces(base)]:
            path = folder / "f.digits"
            body = "".join(pieces[:spot] + [bad] + pieces[spot:])
            path.write_bytes((header + body).encode("utf-8"))
            meta = load_digit_file(path)
            pack = bytes if base <= 256 else list
            digits = scan_by_character(path, base, meta.header_lines)
            reference = DigitStream(base, (pack([d]) for d in digits), path.name)
            stream = meta.stream()
            # then digit by digit, so the digits before a bad one must come out
            for size in [*sizes, *[1] * 62, 10**4]:
                assert outcome(stream, size) == outcome(reference, size), body


def outcomes(path, sizes):
    """Each take's outcome over a fresh stream of the file, then one take
    past its end."""
    stream = load_digit_file(path).stream()
    return [outcome(stream, size) for size in [*sizes, 10**6]]


def token_outcomes(path, sizes):
    """The same over the file read one token at a time, whitespace
    skipped, up to the first bad token's line and column."""
    meta = load_digit_file(path)
    pack = bytes if meta.base <= 256 else list
    digits = scan_by_character(path, meta.base, meta.header_lines)
    stream = DigitStream(meta.base, (pack([d]) for d in digits), path.name)
    return [outcome(stream, size) for size in [*sizes, 10**6]]


@st.composite
def bracket_sections(draw):
    """A base from 37 to 256 and digit lines of canonical tokens, some with
    whitespace at their ends, between tokens or making up the whole line,
    repeated so that the section may run past one read of the file."""
    base = draw(st.integers(37, 256))
    lines = []
    for values in draw(st.lists(st.lists(st.integers(0, base - 1), max_size=12), max_size=8)):
        gap = draw(st.sampled_from(["", "", " ", "\t"]))
        body = gap.join(f"[{v}]" for v in values)
        lines.append(draw(st.sampled_from(["", " ", "\x0c"])) + body + draw(
            st.sampled_from(["\n", " \n", "\r\n", "\r"])))
    return base, lines * draw(st.sampled_from([1, 2, 40, 300]))


class TestBracketFastPath:
    """Canonical bracket tokens are read by lookup and everything else by
    the reader's regex; a file read in blocks of lines gives each take the
    digits, position, error, line and column of a token-by-token reading."""

    @given(bracket_sections(), st.lists(st.integers(0, 40), max_size=6))
    @settings(max_examples=150)
    def test_matches_the_regex_scan_on_valid_files(self, tmp_path_factory, section, sizes):
        base, lines = section
        path = tmp_path_factory.mktemp("brackets") / "f.digits"
        path.write_text(f"base={base}\n" + "".join(lines), encoding="ascii")
        sizes = [*sizes, 5000]
        assert outcomes(path, sizes) == token_outcomes(path, sizes)

    @pytest.mark.parametrize(
        "line",
        ["[1][2][007][3]", "[1][2][300][3]", "[1][2]\u00e9[3]", "[1][2]x[3]", "[1][2][3",
         "[1][2][3 4]", "[1] [2]\t[3]", "[1][2][][3]", "[1][2]][3]"],
    )
    def test_lines_it_cannot_read_give_the_regex_result(self, tmp_path, line):
        path = tmp_path / "f.digits"
        path.write_bytes(f"base=100\n[5][6]\n{line}\n[7]\n".encode("utf-8"))
        sizes = [1] * 12
        assert outcomes(path, sizes) == token_outcomes(path, sizes)

    # digits None marks a line that is more or less than canonical tokens
    # (padding, whitespace between or inside tokens, a bad token); how far
    # the reader gets into it is in `stops`
    @pytest.mark.parametrize(
        "line, digits",
        [("[14][15][92]\n", b"\x0e\x0f\x5c"), ("  [0][99] \r\n", b"\x00\x63"), ("\n", b""),
         (" \t\n", b""), ("[007]\n", None), ("[100]\n", None), ("[1] [2]\n", None),
         ("[1 2]\n", None), ("[]\n", None), ("[1][\n", None), ("\u00e9\n", None),
         ("[1][23\n", None), ("x5][6]\n", None), ("[1]\u00a0[2]\n", None)],
    )
    def test_line_reader(self, line, digits):
        stops = {"[007]\n": (b"\x07", 6), "[100]\n": (b"", 0), "[1] [2]\n": (b"\x01\x02", 8),
                 "[1 2]\n": (b"", 0), "[]\n": (b"", 0), "[1][\n": (b"\x01", 3),
                 "\u00e9\n": (b"", 0), "[1][23\n": (b"\x01", 3), "x5][6]\n": (b"", 0),
                 "[1]\u00a0[2]\n": (b"\x01", 3)}
        expected = stops[line] if digits is None else (digits, len(line))
        assert _digit_reader(100, spaced=True)(line) == expected

    def test_an_invalid_line_reports_its_line_and_column(self, tmp_path):
        path = tmp_path / "f.digits"
        path.write_text("base=100\n[5][6]\n[1][2][300][3]\n", encoding="ascii")
        stream = load_digit_file(path).stream()
        assert list(stream.take(4)) == [5, 6, 1, 2]
        with pytest.raises(InvalidDigitError) as exc:
            stream.take(1)
        assert (exc.value.line, exc.value.column) == (3, 8)

    @pytest.mark.parametrize("base, body, where", [
        (10, "1415926535" * 4 + "\n", ":2002:41:"),
        (100, "[5]" + "[12]" * 9 + "\n", ":1501:29:"),
    ], ids=["base10", "base100"])
    def test_a_bad_digit_past_the_first_read(self, tmp_path, base, body, where):
        rows = 2000 if base == 10 else 1499
        bad = body[:40] + "x\n" if base == 10 else body[:27] + "[100]\n"
        path = tmp_path / "f.digits"
        path.write_text(f"base={base}\n" + body * rows + bad, encoding="ascii")
        sizes = [7, 10**4, 3]
        assert outcomes(path, sizes) == token_outcomes(path, sizes)
        with pytest.raises(InvalidDigitError, match=where):
            load_digit_file(path).stream().take(10**6)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("base, line, bad", [
        (10, "14159265", "12z"), (100, "[14][15][92] [65]", "[1][300]"),
    ], ids=["base10", "base100"])
    def test_line_ends(self, tmp_path, end, base, line, bad):
        path = tmp_path / "f.digits"
        path.write_bytes(end.join([f"base={base}", *[line] * 3000, bad, ""]).encode("ascii"))
        sizes = [5, 10**4, 1, 1]
        assert outcomes(path, sizes) == token_outcomes(path, sizes)
        with pytest.raises(InvalidDigitError, match=":3002:"):
            load_digit_file(path).stream().take(10**6)

    @pytest.mark.parametrize("base, digit", [(10, "7"), (100, "[7]")])
    def test_a_long_line(self, tmp_path, base, digit):
        path = tmp_path / "f.digits"
        path.write_text(f"base={base}\n" + digit * 20000 + "\n12\n", encoding="ascii")
        sizes = [9000, 11000, 1]
        assert outcomes(path, sizes) == token_outcomes(path, sizes)
        assert load_digit_file(path).stream().take(20000) == bytes([7]) * 20000
