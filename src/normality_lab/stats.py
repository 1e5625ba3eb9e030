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
windows of that one read.  Reports are sparse, holding only the digit
values that occur, so a view in base 2**40 costs what it reads.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .exact import decimal_approx, format_rational
from .radix import (
    DigitStream,
    digit_token,
    digits_to_int,
    parse_digit_text,
)
from .sources import SourceSpec


@dataclass(frozen=True)
class Word:
    """A fixed digit block in a given base."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if not self.digits:
            raise ValueError("a word needs at least one digit")
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} out of range for base {self.base}")

    def __len__(self) -> int:
        return len(self.digits)

    def value(self) -> int:
        """The word read as a single base**len digit."""
        return digits_to_int(self.digits, self.base)

    def __str__(self) -> str:
        return "".join(digit_token(d, self.base) for d in self.digits)

    @classmethod
    def parse(cls, text: str, base: int) -> "Word":
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
    """
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    if word.base != stream.base:
        raise ValueError(f"word base {word.base} != stream base {stream.base}")
    prefix = stream.take(n)
    w = tuple(word.digits)
    # the windows in one pass: the i-th iterator starts i digits in
    windows = zip(*(islice(prefix, i, None) for i in range(len(w))))
    return sum(map(w.__eq__, windows))


@dataclass
class NormalityReport:
    """Deviations from uniform frequency over an n-digit prefix.

    `counts` is sparse: it holds only the digit values that occur, in
    increasing order.  Each deviation |count/n - 1/base| comes from its
    count on demand, and `max_deviation` from the largest and smallest
    counts, so a report costs what its prefix holds, not base entries.
    """

    base: int
    n: int
    counts: dict[int, int]
    max_deviation: Fraction

    def deviation(self, digit: int) -> Fraction:
        """|count/n - 1/base| for any digit of the base, seen or not."""
        c = self.counts.get(digit, 0)
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


# Up to this base a tally is one `bytes.count` per digit value.  Measured
# on a shared 2-core Xeon VM with Python 3.11 over 200000 digits:
# bytes(list) costs about 28 ns per digit and each count about 0.85 ns per
# digit, against 45-76 ns per digit for a Counter, so they cross near 48.
_BYTES_TALLY_MAX_BASE = 48


def _report(base: int, digits: list[int]) -> NormalityReport:
    """The report over a prefix of base-`base` digits, built from those seen."""
    n = len(digits)
    if base <= _BYTES_TALLY_MAX_BASE:
        data = bytes(digits)
        counts = {d: c for d in range(base) if (c := data.count(d))}
    else:
        counts = dict(sorted(Counter(digits).items()))
    high = max(counts.values())
    low = min(counts.values()) if len(counts) == base else 0  # an unseen digit counts 0
    max_deviation = Fraction(max(high * base - n, n - low * base), n * base)
    return NormalityReport(base, n, counts, max_deviation)


def simple_normality_report(stream: DigitStream, n: int) -> NormalityReport:
    """Deviation |count/n - 1/base| of the next n digits (consumes exactly n)."""
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    return _report(stream.base, stream.take(n))


def _power_values(digits: list[int], base: int, max_power: int) -> Iterator[list[int]]:
    """For n = 1 .. max_power, the list whose entry s is digits s .. s+n-1
    read as one base**n digit.

    Digit k of the view shifted by m and grouped by n is entry m + k*n of
    list n, so every view is a stride-n slice.  Each list is built from
    the previous one in one pass and replaces it.
    """
    values = digits
    yield values
    for n in range(2, max_power + 1):
        values = [v * base + d for v, d in zip(values, islice(digits, n - 1, None))]
        yield values


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
    for n, values in enumerate(_power_values(digits, base, max_power), 1):
        for m in range(n):
            report = _report(base**n, values[m : m + n * prefix_len : n])
            cells.append(BatteryCell(shift=m, power=n, report=report))
    return cells


def power_base_shift_counts(source: SourceSpec, word: Word, k: int) -> list[int]:
    """Per-shift contributions to a block count via power-base regrouping.

    Entry c counts how often the word, read as a single base-r**len digit,
    appears among the first k digits of the view shifted by c and grouped
    by len(word).  All shifts come from one read of len(word)*(k+1) - 1
    source digits.
    """
    if k < 1:
        raise ValueError(f"prefix length must be >= 1, got {k}")
    if word.base != source.base:
        raise ValueError(f"word base {word.base} != source base {source.base}")
    n = len(word)
    digits = source.stream().take(n * (k + 1) - 1)
    for values in _power_values(digits, source.base, n):
        pass  # keep list n only
    target = word.value()
    return [values[c : c + n * k : n].count(target) for c in range(n)]


def count_block_via_power_base(source: SourceSpec, word: Word, k: int) -> int:
    """Block occurrences recovered from single-digit counts in base r**n.

    Sums the per-shift contributions.  An occurrence starting at s is
    seen by exactly one shift, c = (s - 1) mod len(word), as grouped
    digit number ceil(s / len(word)); with k grouped digits per shift
    the union covers starts 1 .. k*len(word) exactly once, so the total
    equals a direct count_block over len(word)*(k+1) - 1 digits.
    """
    return sum(power_base_shift_counts(source, word, k))
