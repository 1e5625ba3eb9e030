"""Digit statistics: tallies, block counts, the shift/power battery."""
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normality_lab import stats
from normality_lab.radix import DigitStream, _windows, regroup_to_power_base
from normality_lab.sources import (
    SourceSpec,
    champernowne_stream,
    champernowne_tally,
    parse_source_spec,
    random_stream,
)
from normality_lab.stats import (
    _PLANE_BLOCK,
    Word,
    _report,
    _tally_report,
    count_block,
    count_digit,
    normality_battery,
    power_base_shift_counts,
    simple_normality_report,
)


def prefix_spec(text, base):
    return parse_source_spec(f"rational:{text}-prefix", base)


# Reference: the rebuild-per-view path, a fresh stream for every view
# with dense per-digit deviations over the whole power base.


def reference_battery(source, max_power, prefix_len):
    base = source.base
    cells = []
    for n in range(1, max_power + 1):
        for m in range(n):
            stream = source.stream()
            stream.take(m)
            digits = regroup_to_power_base(stream, n).take(prefix_len)
            view_base = base**n
            counts = {d: digits.count(d) for d in range(view_base)}
            deviations = {
                d: abs(Fraction(c, prefix_len) - Fraction(1, view_base))
                for d, c in counts.items()
            }
            cells.append((m, n, view_base, counts, max(deviations.values())))
    return cells


def reference_shift_counts(source, word, k):
    counts = []
    for c in range(len(word)):
        stream = source.stream()
        stream.take(c)
        grouped = regroup_to_power_base(stream, len(word))
        counts.append(grouped.take(k).count(word.value()))
    return counts


def source_text(kind, seed):
    if kind == "random":
        return f"random:{seed}"
    if kind == "rational":
        den = seed % 89 + 2
        return f"rational:{seed % den}/{den}"
    return "champernowne"


sources = st.tuples(
    st.sampled_from(["random", "champernowne", "rational"]),
    st.integers(1, 2**32),
    st.integers(2, 6),
)


class TestWord:
    def test_parse_and_value(self):
        w = Word.parse("011", 2)
        assert w.digits == (0, 1, 1)
        assert w.value() == 3
        assert len(w) == 3
        assert str(w) == "011"

    def test_letters(self):
        assert Word.parse("a0", 16).digits == (10, 0)

    def test_big_base_str(self):
        assert str(Word(100, (14, 15))) == "[14][15]"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Word.parse("102", 2)
        with pytest.raises(ValueError):
            Word(2, (0, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Word(2, ())

    @pytest.mark.parametrize("base, error, message", [
        (2.5, TypeError, "base must be an int, got float"),
        (True, TypeError, "base must be an int, got bool"),
        (1, ValueError, "base must be >= 2, got 1"),
    ])
    def test_checks_its_base_like_validate_base(self, base, error, message):
        with pytest.raises(error, match=message):
            Word(base, (0,))

    def test_parse_big_base_unsupported(self):
        with pytest.raises(ValueError):
            Word.parse("14", 100)

    @pytest.mark.parametrize("base, text, digits", [
        (37, "[36][0]", (36, 0)),
        (100, "[12][7]", (12, 7)),
        (256, "[0][255][0]", (0, 255, 0)),
        (1000, "[999]", (999,)),
    ])
    def test_parse_bracketed(self, base, text, digits):
        word = Word.parse(text, base)
        assert word.digits == digits
        assert str(word) == text

    @pytest.mark.parametrize("text", ["", "[]", "[12", "[1a]", "[12] [7]", "[-1]"])
    def test_parse_bracketed_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="bracketed"):
            Word.parse(text, 100)

    def test_parse_bracketed_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Word.parse("[3][100]", 100)

    def test_parse_over_long_token_is_out_of_range(self):
        with pytest.raises(ValueError, match="out of range for base 100") as exc:
            Word.parse("[3][" + "1" * 5000 + "]", 100)
        assert len(str(exc.value)) < 100


class TestTally:
    def test_counts_sum_to_n(self):
        report = simple_normality_report(champernowne_stream(10), 100)
        assert sum(report.counts.values()) == 100

    def test_frequency_and_deviation(self):
        report = simple_normality_report(prefix_spec("0110", 2).stream(), 4)
        assert report.counts == {0: 2, 1: 2}
        assert report.deviation(1) == 0
        assert report.deviation(0) == 0

    def test_missing_digit_has_zero_count(self):
        report = simple_normality_report(prefix_spec("1111", 2).stream(), 4)
        assert report.counts.get(0, 0) == 0
        assert report.deviation(0) == Fraction(1, 2)
        assert report.max_deviation == Fraction(1, 2)

    def test_count_digit(self):
        assert count_digit(prefix_spec("0110", 2).stream(), 1, 4) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            count_digit(champernowne_stream(10), 10, 5)
        with pytest.raises(ValueError):
            simple_normality_report(champernowne_stream(10), 0)


class TestChampernowneReport:
    """Reports from the closed-form tally, the route `stats` takes."""

    @pytest.mark.parametrize("n, deviation", [
        # the ends of the 5- and 6-digit blocks, where criterion 12a's
        # threshold of 1/50 is missed and then met
        (488889, Fraction(11111, 543210)),
        (5888889, Fraction(37037, 2181070)),
    ])
    def test_pinned_max_deviations(self, n, deviation):
        assert _tally_report(10, n, champernowne_tally(10, n)).max_deviation == deviation

    @given(st.sampled_from([2, 3, 10, 16, 257, 4097]), st.integers(1, 20000))
    @settings(max_examples=40)
    def test_equals_the_streamed_report(self, base, n):
        streamed = simple_normality_report(champernowne_stream(base), n)
        counted = _tally_report(base, n, champernowne_tally(base, n))
        assert counted.counts == streamed.counts
        assert counted.max_deviation == streamed.max_deviation
        if base <= 2**16:
            assert counted.to_json_dict() == streamed.to_json_dict()


def assert_report_matches_counter(report, base, digits):
    """The report against a Counter tally and exact Fractions, over every
    digit of the base."""
    n = len(digits)
    counts = Counter(digits)
    deviations = {d: abs(Fraction(counts[d], n) - Fraction(1, base)) for d in range(base)}
    assert report.n == n
    assert list(report.counts.items()) == sorted(counts.items())
    assert list(report.deviations.items()) == [(d, deviations[d]) for d in sorted(counts)]
    assert {d: report.deviation(d) for d in range(base)} == deviations
    assert report.max_deviation == max(deviations.values())


# both tally paths: a `bytes` of at least 64*base digits by bit planes,
# a shorter one and a list by a Counter
tally_bases = st.one_of(st.integers(2, 300), st.sampled_from([2, 3, 256, 257, 1000]))

# a length as (multiples of 64*base, of the plane block, offset): the
# ends of the first slabs, either side of the plane rule, of a block
plane_lengths = st.one_of(
    st.tuples(st.just(0), st.just(0), st.integers(1, 17)),
    st.tuples(st.just(1), st.just(0), st.integers(-1, 1)),
    st.sampled_from([(0, 1, -1), (0, 1, 0), (0, 1, 1), (0, 2, 1)]),
)


def plane_length(length, base):
    rule, blocks, offset = length
    return rule * 64 * base + blocks * _PLANE_BLOCK + offset


def fill_digits(fill, base, n, seed):
    """n digits of the base: all 0, all base-1, uniform, or from 3 values."""
    if fill == "zeros":
        return bytes(n)
    if fill == "top":
        return bytes([base - 1]) * n
    rng = random.Random(seed)
    values = range(base) if fill == "random" else rng.sample(range(base), min(3, base))
    return rng.randbytes(n).translate(bytes(values[i % len(values)] for i in range(256)))


class TestTallyPaths:
    @given(tally_bases, st.data())
    @settings(max_examples=150)
    def test_matches_counter(self, base, data):
        # digits from a few values only, so most digits never occur
        seen = data.draw(st.lists(st.integers(0, base - 1), min_size=1, max_size=5))
        digits = data.draw(st.lists(st.sampled_from(seen), min_size=1, max_size=400))
        if base <= 256:
            digits = bytes(digits)  # long enough for the planes in bases up to 6
        assert_report_matches_counter(_report(base, digits), base, digits)

    @given(
        st.integers(2, 256),
        plane_lengths,
        st.sampled_from(["random", "few", "zeros", "top"]),
        st.integers(0, 2**32),
    )
    @example(256, (0, 2, 1), "top", 7)
    @example(255, (0, 1, 1), "zeros", 7)
    @example(2, (0, 1, -1), "top", 7)
    @example(3, (1, 0, 0), "zeros", 7)
    @example(200, (1, 0, -1), "random", 7)
    @example(129, (0, 1, 0), "few", 7)
    @settings(max_examples=120)
    def test_bytes_match_counter_at_the_plane_edges(self, base, length, fill, seed):
        n = plane_length(length, base)
        digits = fill_digits(fill, base, n, seed)
        report = _report(base, digits)
        assert type(report.tally) is (dict if n >= 64 * base else Counter)
        assert_report_matches_counter(report, base, digits)
        listed = _report(base, list(digits))
        assert type(listed.tally) is Counter
        assert listed.tally == report.tally
        assert listed.max_deviation == report.max_deviation

    @pytest.mark.parametrize("base, limit_mib", [(256, 16), (10, 4)])
    def test_plane_tally_memory_is_bounded(self, base, limit_mib):
        digits = fill_digits("random", base, 10**6, 3)
        tracemalloc.start()
        try:
            report = _report(base, digits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(report.tally) is dict and sum(report.tally.values()) == 10**6
        assert peak < limit_mib * 2**20

    @pytest.mark.parametrize("base", [2, 60, 61, 256])
    def test_single_digit(self, base):
        for digits in ([base - 1], bytes([base - 1]), bytes([base - 1]) * (64 * base)):
            report = _report(base, digits)
            assert_report_matches_counter(report, base, digits)
            assert report.max_deviation == 1 - Fraction(1, base)

    def test_report_builds_a_constant_number_of_fractions(self, monkeypatch):
        built = []

        def counting_fraction(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(stats, "Fraction", counting_fraction)
        base = 2**16
        digits = [(7919 * i) % base for i in range(5000)] * 2
        report = _report(base, digits)
        assert len(built) <= 2
        assert len(report.counts) == 5000
        assert report.max_deviation == Fraction(2, len(digits)) - Fraction(1, base)

    def test_battery_views_either_side_of_the_crossover(self):
        spec = parse_source_spec("random:11", 2)
        cells = normality_battery(spec, 8, 500)
        assert {c.report.base for c in cells} >= {2, 256}
        for cell in cells:
            stream = spec.stream()
            stream.take(cell.shift)
            digits = regroup_to_power_base(stream, cell.power).take(500)
            assert_report_matches_counter(cell.report, 2**cell.power, digits)

    # one view of each kind the battery hands the Counter tally: `bytes`
    # shorter than 64*base, `array('H')` up to 2**16, a list above
    @pytest.mark.parametrize("base, power, kind", [
        (2, 7, bytes), (10, 2, bytes), (3, 5, bytes),
        (2, 12, array), (10, 4, array), (2, 16, array),
        (2, 17, list), (10, 5, list),
    ])
    def test_view_kinds_above_the_crossover(self, base, power, kind):
        digits = parse_source_spec("random:5", base).stream().take(power * 301)
        *_, values = _windows(digits, base, power)
        view_base = base**power
        for m in (0, power - 1):
            view = values[m : m + power * 300 : power]
            assert type(view) is kind and len(view) == 300
            report = _report(view_base, view)
            # the Counter reference over the seen digits and one unseen
            # one, which every unseen digit equals: no loop over the base
            tally = Counter(view)
            deviations = {d: abs(Fraction(c, 300) - Fraction(1, view_base))
                          for d, c in sorted(tally.items())}
            unseen = next(d for d in range(view_base) if d not in tally)
            assert list(report.counts.items()) == sorted(tally.items())
            assert list(report.deviations.items()) == list(deviations.items())
            assert report.deviation(unseen) == Fraction(1, view_base)
            assert report.max_deviation == max(*deviations.values(), Fraction(1, view_base))

    def test_battery_never_orders_its_reports(self):
        cells = normality_battery(parse_source_spec("random:11", 2), 12, 400)
        assert {type(c.report.tally) for c in cells} == {dict, Counter}
        # `counts` is a cached property: built on first read, kept after
        assert all("counts" not in vars(c.report) for c in cells)
        for c in cells:
            counts = c.report.counts
            assert list(counts) == sorted(c.report.tally)
            assert list(c.report.deviations) == list(counts)
            assert counts == c.report.tally
            assert c.report.counts is counts

    def test_lookups_leave_the_tally_unordered(self):
        report = simple_normality_report(random_stream(1000, 3), 2000)
        report.deviation(7)
        report.to_json_dict()
        assert "counts" not in vars(report)


class TestCountBlock:
    def test_alternating(self):
        spec = prefix_spec("0101010101", 2)
        assert count_block(spec.stream(), Word.parse("01", 2), 10) == 5
        assert count_block(spec.stream(), Word.parse("10", 2), 10) == 4

    def test_overlaps_count(self):
        spec = prefix_spec("111111", 2)
        assert count_block(spec.stream(), Word.parse("11", 2), 6) == 5

    def test_word_longer_than_prefix(self):
        spec = prefix_spec("0101", 2)
        assert count_block(spec.stream(), Word.parse("0101", 2), 3) == 0

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            count_block(champernowne_stream(10), Word.parse("01", 2), 5)

    @given(st.integers(0, 1), st.integers(1, 300), st.integers(1, 2**32))
    @settings(max_examples=40)
    def test_single_digit_word_matches_count_digit(self, d, n, seed):
        word = Word(2, (d,))
        blocks = count_block(random_stream(2, seed), word, n)
        digits = count_digit(random_stream(2, seed), d, n)
        assert blocks == digits


def count_block_by_slices(prefix, word):
    """Block occurrences, one slice per start position: the reference
    for count_block's one pass."""
    w, k = list(word.digits), len(word)
    return sum(1 for j in range(len(prefix) - k + 1) if prefix[j : j + k] == w)


@st.composite
def prefix_and_word(draw):
    # small digit ranges inside a large base keep matches common
    base = draw(st.integers(2, 300))
    used = draw(st.integers(1, min(base, 3)))
    digit = st.integers(0, used - 1).map(lambda d: d * (base - 1) // max(used - 1, 1))
    word = Word(base, tuple(draw(st.lists(digit, min_size=1, max_size=6))))
    prefix = draw(st.lists(digit, min_size=1, max_size=80))
    return base, prefix, word


class TestCountBlockMasks:
    def test_all_zero_prefix(self):
        word = Word(10, (0,) * 10)
        assert count_block(DigitStream(10, [bytes(10**5)]), word, 10**5) == 99991

    @pytest.mark.parametrize("digits", [(0,), (255,), (0, 255), (255, 0, 255), (255, 255)])
    def test_ends_of_the_byte_range(self, digits):
        prefix = bytes([0, 255, 0, 255, 255, 0, 0, 255, 1, 254] * 20)
        word = Word(256, digits)
        got = count_block(DigitStream(256, [prefix]), word, len(prefix))
        assert got == count_block_by_slices(list(prefix), word)
        assert got > 0

    @pytest.mark.parametrize("base", [2, 256, 1000])
    def test_short_prefix_consumes_exactly_n(self, base):
        stream = random_stream(base, 5)
        twin = stream.fork()
        assert count_block(twin, Word(base, (1, 0, 1, 1)), 3) == 0
        assert twin.position == 3
        ahead = stream.take(4)
        assert twin.take(1)[0] == ahead[3]


class TestCountBlockOnePass:
    @given(prefix_and_word())
    @settings(max_examples=300)
    def test_matches_slice_per_position(self, case):
        base, prefix, word = case
        chunk = bytes(prefix) if base <= 256 else prefix
        got = count_block(DigitStream(base, [chunk]), word, len(prefix))
        assert got == count_block_by_slices(prefix, word)


class TestSimpleNormalityReport:
    def test_uniform_prefix(self):
        report = simple_normality_report(prefix_spec("0123456789", 10).stream(), 10)
        assert report.max_deviation == 0
        assert report.counts == {d: 1 for d in range(10)}

    def test_json_shape(self):
        report = simple_normality_report(prefix_spec("01", 2).stream(), 2)
        payload = report.to_json_dict()
        assert payload["base"] == 2
        assert payload["n"] == 2
        assert payload["deviations"] == {"0": "0", "1": "0"}
        assert payload["max_deviation"] == "0"
        assert payload["max_deviation_decimal"] == "0"


class TestBattery:
    def test_one_third_base_two(self):
        # 1/3 = 0.010101.. so pairs are constant: views (0,2) and (1,2)
        # each see a single repeated base-4 digit
        spec = parse_source_spec("rational:1/3", 2)
        cells = normality_battery(spec, 2, 30)
        views = {(c.shift, c.power): c.report.max_deviation for c in cells}
        assert set(views) == {(0, 1), (0, 2), (1, 2)}
        assert views[(0, 1)] == 0
        assert views[(0, 2)] == Fraction(3, 4)
        assert views[(1, 2)] == Fraction(3, 4)

    def test_cell_order(self):
        spec = parse_source_spec("random:3", 2)
        cells = normality_battery(spec, 3, 12)
        assert [(c.shift, c.power) for c in cells] == [
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
        ]

    def test_view_base_is_power(self):
        spec = parse_source_spec("random:3", 2)
        cells = normality_battery(spec, 3, 12)
        assert [c.report.base for c in cells] == [2, 4, 4, 8, 8, 8]

    def test_explicit_base_regroups_first(self, tmp_path):
        path = tmp_path / "f.digits"
        path.write_text("base=10\n" + "1415926535" * 10 + "\n", encoding="ascii")
        cells = normality_battery(parse_source_spec(f"file:{path}", 100), 1, 20)
        assert cells[0].report.base == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            normality_battery(parse_source_spec("random:1", 2), 0, 10)
        with pytest.raises(ValueError):
            normality_battery(parse_source_spec("random:1", 2), 2, 0)

    @given(sources, st.integers(1, 5), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_matches_rebuild_per_view(self, src, max_power, prefix_len):
        kind, seed, base = src
        spec = parse_source_spec(source_text(kind, seed), base)
        cells = normality_battery(spec, max_power, prefix_len)
        got = [
            (
                c.shift,
                c.power,
                c.report.base,
                {d: c.report.counts.get(d, 0) for d in range(c.report.base)},
                c.report.max_deviation,
            )
            for c in cells
        ]
        assert got == reference_battery(spec, max_power, prefix_len)
        for c in cells:
            assert 0 not in c.report.counts.values()

    def test_reads_source_once(self, monkeypatch):
        calls = []
        stream = SourceSpec.stream

        def spy(self):
            calls.append(self)
            return stream(self)

        monkeypatch.setattr(SourceSpec, "stream", spy)
        normality_battery(parse_source_spec("champernowne", 2), 4, 50)
        assert len(calls) == 1
        calls.clear()
        power_base_shift_counts(parse_source_spec("random:5", 2), Word.parse("101", 2), 9)
        assert len(calls) == 1


class TestPowerBaseDecomposition:
    def test_worked_example(self):
        text = "001001000011101101111110000100000110101100011110001"
        assert len(text) == 51
        spec = prefix_spec(text, 2)
        word = Word.parse("11", 2)
        contributions = power_base_shift_counts(spec, word, 25)
        assert contributions == [6, 7]
        assert sum(contributions) == 13
        # same thing counted directly over len(w)*(k+1) - 1 = 51 digits
        assert count_block(spec.stream(), word, 51) == 13

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.integers(1, 12),
                st.integers(1, 2**32),
            )
        )
    )
    @settings(max_examples=40)
    def test_matches_direct_count(self, args):
        n, digits, k, seed = args
        word = Word(2, tuple(digits))
        spec = parse_source_spec(f"random:{seed}", 2)
        via_views = sum(power_base_shift_counts(spec, word, k))
        direct = count_block(spec.stream(), word, n * (k + 1) - 1)
        assert via_views == direct

    @given(
        sources,
        st.lists(st.integers(0, 5), min_size=1, max_size=5),
        st.integers(1, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_rebuild_per_shift(self, src, digits, k):
        kind, seed, base = src
        spec = parse_source_spec(source_text(kind, seed), base)
        word = Word(base, tuple(d % base for d in digits))
        got = power_base_shift_counts(spec, word, k)
        assert got == reference_shift_counts(spec, word, k)

    def test_validation(self):
        spec = parse_source_spec("random:1", 2)
        with pytest.raises(ValueError):
            power_base_shift_counts(spec, Word.parse("1", 2), 0)
        with pytest.raises(ValueError):
            power_base_shift_counts(spec, Word.parse("7", 10), 5)
