"""Digit-frequency statistics over stream prefixes.

Counts are over the first n fractional digits; block occurrences may
overlap and are counted at every start position that fits inside the
prefix.  Deviations compare the observed frequency of a digit with the
uniform 1/base, as exact rationals derived from the counts.

The battery runs one simple-normality report per (shift m, power n) pair
with 0 <= m < n: digits m+1, m+2, ... of the source regrouped into base
r**n.  A number is normal in base r exactly when all such views are
simply normal, which is what makes the battery the right screen.  The
source is read once; every view is a stride-n slice of the n-digit
windows of that one read, which `radix._windows` builds for all
positions at once, the same generator a regrouped stream packs its
groups with (packed values up to base 2**16).  Reports are sparse,
holding only the digit values that occur, so a view in base 2**40
costs what it reads.  A report keeps its tally in whatever order the
count produced it and orders `counts` and `deviations` once, on their
first read; the battery, which needs only `max_deviation`, never orders
a view.

A tally is one of two counts.  A `bytes` prefix of at least 64*base
digits is counted by bit planes (`_plane_tally`): plane k holds bit k
of every digit, one bit a digit, and each node of the value tree, a
whole level at a time, is split by C-level `map`s of AND, popcount and
XOR over the planes, in blocks of at most 2**18 digits so that base 256
holds about 7 MiB of masks at most.  Any other prefix (a shorter
`bytes`, an `array('H')` view or a list) is counted by a `Counter`.
Over 10**6 random digits the planes take about 1.7 ms in base 2 and
3.5 ms in base 10 against about 30 ms for a `Counter`; their cost grows
with the base, and in base 256 it is about a `Counter`'s.

A champernowne report for `stats` reads no digits: its tally comes by
formula from `sources.champernowne_tally`, and `_tally_report` makes
the report from it as from a streamed tally.  `stats --word`, the
battery and the verify-paper regression still count its streamed digits.

`stats --word` reads its source once too: the block count runs on a
fork of the stream the report reads.  Up to base 256 it counts with
one big-int mask of hits per distinct digit of the word, and makes no
Python object per window.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from operator import add, sub, xor

from .exact import decimal_approx, format_rational
from .radix import DigitStream, _rep, _windows, digit_token, digits_to_int, parse_digit_text
from .sources import SourceSpec


@dataclass(frozen=True)
class Word:
    """A fixed digit block in a given base."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        digits_to_int(self.digits, self.base)  # checks the base and every digit
        if not self.digits:
            raise ValueError("a word needs at least one digit")

    def __len__(self) -> int:
        return len(self.digits)

    def value(self) -> int:
        """The word read as a single base**len digit."""
        return digits_to_int(self.digits, self.base)

    def __str__(self) -> str:
        return "".join(digit_token(d, self.base) for d in self.digits)

    @classmethod
    def parse(cls, text: str, base: int) -> "Word":
        """A word from the text `str` prints, read by `parse_digit_text`."""
        return cls(base, tuple(parse_digit_text(text, base)))


def count_digit(stream: DigitStream, digit: int, n: int) -> int:
    """Occurrences of one digit in the next n digits (consumes exactly n)."""
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    if not 0 <= digit < stream.base:
        raise ValueError(f"digit {digit} out of range for base {stream.base}")
    return stream.take(n).count(digit)


def count_block(stream: DigitStream, word: Word, n: int) -> int:
    """Occurrences of `word` starting within the next n digits.

    Overlapping occurrences all count; a start position qualifies when
    the whole word fits inside the n-digit prefix.  Consumes exactly n
    digits; n shorter than the word gives 0.

    Up to base 256 the prefix is a `bytes` and the count is big-int lane
    arithmetic: for each distinct digit d of the word, one `translate`
    marks the positions holding d with a 1 byte, read as a little-endian
    int; the marks of the digit at offset j of the word, shifted down j
    bytes, are ANDed together, which leaves a 1 at each start of the
    word.  Above base 256 the prefix is a list, and the word is compared
    with every window.
    """
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    if word.base != stream.base:
        raise ValueError(f"word base {word.base} != stream base {stream.base}")
    prefix = stream.take(n)
    w = word.digits
    if word.base > 256:
        # the windows in one pass: the i-th iterator starts i digits in
        windows = zip(*(islice(prefix, i, None) for i in range(len(w))))
        return sum(map(w.__eq__, windows))
    found = -1
    for d in set(w):  # one mask alive at a time
        hit = int.from_bytes(prefix.translate(bytes(d) + b"\1" + bytes(255 - d)), "little")
        for j, e in enumerate(w):
            if e == d:
                found &= hit >> 8 * j
    return found.bit_count()


@dataclass
class NormalityReport:
    """Deviations from uniform frequency over an n-digit prefix.

    `tally` is sparse: it maps each digit value that occurs to its count,
    in no set order.  Each deviation |count/n - 1/base| comes from its
    count on demand, and `max_deviation` from the largest and smallest
    counts, so a report costs what its prefix holds, not base entries.
    `counts`, the tally in increasing digit order, is built on its first
    read, so a caller that only looks digits up never sorts.
    """

    base: int
    n: int
    tally: Mapping[int, int]
    max_deviation: Fraction

    @cached_property
    def counts(self) -> dict[int, int]:
        """The tally in increasing digit order."""
        return dict(sorted(self.tally.items()))

    def deviation(self, digit: int) -> Fraction:
        """|count/n - 1/base| for any digit of the base, seen or not."""
        c = self.tally.get(digit, 0)
        return Fraction(abs(c * self.base - self.n), self.n * self.base)

    @property
    def deviations(self) -> dict[int, Fraction]:
        """The deviation of each digit that occurs, in digit order."""
        return {d: self.deviation(d) for d in self.counts}

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "n": self.n,
            "deviations": {
                str(d): format_rational(self.deviation(d)) for d in range(self.base)
            },
            "max_deviation": format_rational(self.max_deviation),
            "max_deviation_decimal": decimal_approx(self.max_deviation),
        }


# The plane tally's block.  A mask holds one bit per digit of a block, and
# base 256 keeps up to about 200 masks alive at once, 32 KiB each here.
_PLANE_BLOCK = 1 << 18


def _plane_tally(base: int, digits: bytes) -> dict[int, int]:
    """The digits that occur in a `bytes` prefix, with their counts, in
    digit order, from popcounts of bit planes.

    Per block of at most `_PLANE_BLOCK` digits: the block, zero-padded,
    is cut into 8 equal slabs, each read as one int, and plane k puts
    bit k of byte j of slab i at bit 8*j + i, so it holds bit k of every
    digit, one bit a digit.  The tree of digit values is walked
    from the top bit down a whole level at a time: each node's mask is
    split by the plane into `hi = mask & plane`, whose popcount is the
    hi child's count, and `lo = mask ^ hi`, whose count is the parent's
    less that.  A level keeps only the `-(-base >> k)` nodes whose values
    start below the base, so the leaves are the digits in order; the last
    level's masks are never kept.  The padding is taken off digit 0.
    """
    bits = (base - 1).bit_length()
    total = [0] * base
    for start in range(0, len(digits), _PLANE_BLOCK):
        block = digits[start : start + _PLANE_BLOCK]
        size = -(-len(block) // 8)
        padded = block.ljust(8 * size, b"\0")
        slabs = [int.from_bytes(padded[i * size : (i + 1) * size], "little") for i in range(8)]
        ones = _rep(1, size, 1)
        masks, counts = [(1 << 8 * size) - 1], [8 * size]
        for k in reversed(range(bits)):
            plane = 0
            for i, slab in enumerate(slabs):
                plane |= (slab >> k & ones) << i
            width = -(-base >> k)
            if k:
                his = list(map(plane.__and__, masks))
                masks = _children(map(xor, masks, his), his, width)
            else:
                his = map(plane.__and__, masks)
            hi_counts = list(map(int.bit_count, his))
            counts = _children(map(sub, counts, hi_counts), hi_counts, width)
        counts[0] -= 8 * size - len(block)
        total = list(map(add, total, counts))
    return {d: c for d, c in enumerate(total) if c}


def _children(lo, hi, width: int) -> list:
    """lo[0], hi[0], lo[1], hi[1], ..., cut at `width` entries."""
    return list(islice(chain.from_iterable(zip(lo, hi)), width))


def _report(base: int, digits) -> NormalityReport:
    """The report over a prefix of base-`base` digits (a `bytes` up to base
    256, an `array('H')` or a list above), built from those seen.

    A `bytes` prefix of at least 64*base digits is tallied by bit planes
    (`_plane_tally`), in digit order; any other prefix by a `Counter`, in
    first-seen order.  Nothing here sorts the tally.  Measured on a
    shared 2-core Xeon VM with Python 3.11 over random digits: a Counter
    costs 22-35 ns a digit; the planes make about 2.5*base passes over
    n/8 bytes, about 1.7 ns a digit in base 2, 3.6 in base 10 and 11 in
    base 100, plus a few microseconds a level, so they cross a Counter
    near 64*base digits up to base 128.  In bases near 256 they cost
    about what a Counter does, and more near 64*base digits (base 256 at
    16384 digits: 0.48 ms against 0.38).
    """
    n = len(digits)
    if isinstance(digits, bytes) and n >= 64 * base:
        tally = _plane_tally(base, digits)
    else:
        tally = Counter(digits)
    return _tally_report(base, n, tally)


def _tally_report(base: int, n: int, tally: Mapping[int, int]) -> NormalityReport:
    """The report over n digits of the base from their tally, which holds
    exactly the digits that occur, each with its count: a streamed
    prefix's (`_report`) or a count made without digits, such as
    `sources.champernowne_tally`."""
    high = max(tally.values())
    low = min(tally.values()) if len(tally) == base else 0  # an unseen digit counts 0
    max_deviation = Fraction(max(high * base - n, n - low * base), n * base)
    return NormalityReport(base, n, tally, max_deviation)


def simple_normality_report(stream: DigitStream, n: int) -> NormalityReport:
    """Deviation |count/n - 1/base| of the next n digits (consumes exactly n)."""
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    return _report(stream.base, stream.take(n))


@dataclass(frozen=True)
class BatteryCell:
    """One battery entry: shift m, power n, and the report for that view."""

    shift: int
    power: int
    report: NormalityReport


def normality_battery(
    source: SourceSpec, max_power: int, prefix_len: int
) -> list[BatteryCell]:
    """Simple-normality reports for every view (m, n), 0 <= m < n <= max_power.

    Each view shifts the source by m digits and regroups by n, then reads
    prefix_len digits of the resulting base-r**n stream, with r the
    source's base (for a file, its header base or the power of it the
    spec was parsed for).  The source is read once, for the
    max_power*(prefix_len+1) - 1 digits the widest view needs.  Cells
    come back ordered by power, then shift.
    """
    if max_power < 1:
        raise ValueError(f"max power must be >= 1, got {max_power}")
    if prefix_len < 1:
        raise ValueError(f"prefix length must be >= 1, got {prefix_len}")
    base = source.base
    digits = source.stream().take(max_power * (prefix_len + 1) - 1)
    cells = []
    for n, values in enumerate(_windows(digits, base, max_power), 1):
        for m in range(n):
            report = _report(base**n, values[m : m + n * prefix_len : n])
            cells.append(BatteryCell(shift=m, power=n, report=report))
    return cells


def power_base_shift_counts(source: SourceSpec, word: Word, k: int) -> list[int]:
    """Per-shift contributions to a block count via power-base regrouping.

    Entry c counts how often the word, read as a single base-r**len digit,
    appears among the first k digits of the view shifted by c and grouped
    by len(word).  All shifts come from one read of len(word)*(k+1) - 1
    source digits.  An occurrence starting at s is seen only by shift
    c = (s - 1) mod len(word), as grouped digit number ceil(s / len(word)),
    so the shifts cover starts 1 .. k*len(word) once each: the sum equals
    count_block over len(word)*(k+1) - 1 digits.
    """
    if k < 1:
        raise ValueError(f"prefix length must be >= 1, got {k}")
    if word.base != source.base:
        raise ValueError(f"word base {word.base} != source base {source.base}")
    n = len(word)
    digits = source.stream().take(n * (k + 1) - 1)
    *_, values = _windows(digits, source.base, n)
    target = word.value()
    return [values[c : c + n * k : n].count(target) for c in range(n)]
