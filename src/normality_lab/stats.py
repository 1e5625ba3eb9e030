"""Digit-frequency statistics over stream prefixes.

Counts are over the first n fractional digits; block occurrences may
overlap and are counted at every start position that fits inside the
prefix.  Deviations compare the observed frequency of a digit with the
uniform 1/base, as exact rationals.

The battery runs one simple-normality report per (shift m, power n) pair
with 0 <= m < n: digits m+1, m+2, ... of the source regrouped into base
r**n.  A number is normal in base r exactly when all such views are
simply normal, which is what makes the battery the right screen.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .exact import decimal_approx, format_rational
from .radix import (
    DigitStream,
    digit_token,
    digits_to_int,
    parse_digit_text,
    regroup_to_power_base,
    shift_fractional,
)
from .sources import SourceSpec, stream_in_base


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


@dataclass
class FrequencyTable:
    """Digit counts over a consumed prefix; counts sum to n."""

    base: int
    n: int
    counts: dict[int, int]

    def frequency(self, digit: int) -> Fraction:
        return Fraction(self.counts.get(digit, 0), self.n)

    def deviation(self, digit: int) -> Fraction:
        return abs(self.frequency(digit) - Fraction(1, self.base))


def tally_digits(stream: DigitStream, n: int) -> FrequencyTable:
    """Count every digit value in the next n digits (consumes exactly n)."""
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    counts = Counter(stream.take(n))
    return FrequencyTable(stream.base, n, dict(counts))


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
    w = list(word.digits)
    k = len(w)
    return sum(1 for j in range(n - k + 1) if prefix[j : j + k] == w)


@dataclass
class NormalityReport:
    """Per-digit deviations from uniform frequency over an n-digit prefix."""

    base: int
    n: int
    counts: dict[int, int]
    deviations: dict[int, Fraction]
    max_deviation: Fraction

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "n": self.n,
            "deviations": {
                str(d): format_rational(v) for d, v in self.deviations.items()
            },
            "max_deviation": format_rational(self.max_deviation),
            "max_deviation_decimal": decimal_approx(self.max_deviation),
        }


def simple_normality_report(stream: DigitStream, n: int) -> NormalityReport:
    """Deviation |count/n - 1/base| for every digit of the stream's base."""
    table = tally_digits(stream, n)
    base = table.base
    deviations = {d: table.deviation(d) for d in range(base)}
    return NormalityReport(
        base=base,
        n=n,
        counts={d: table.counts.get(d, 0) for d in range(base)},
        deviations=deviations,
        max_deviation=max(deviations.values()),
    )


@dataclass(frozen=True)
class BatteryCell:
    """One battery entry: shift m, power n, and the report for that view."""

    shift: int
    power: int
    report: NormalityReport


def normality_battery(
    source: SourceSpec, max_power: int, prefix_len: int, base: int | None = None
) -> list[BatteryCell]:
    """Simple-normality reports for every view (m, n), 0 <= m < n <= max_power.

    Each view shifts the source by m digits and regroups by n, then reads
    prefix_len digits of the resulting base-r**n stream.  r is the
    source's own base unless `base` regroups it first (for digit files
    viewed in a power of their base).  Cells come back ordered by power,
    then shift.
    """
    if max_power < 1:
        raise ValueError(f"max power must be >= 1, got {max_power}")
    if base is None:
        base = source.base
    cells = []
    for n in range(1, max_power + 1):
        for m in range(n):
            stream = stream_in_base(source, base)
            shift_fractional(stream, m)
            grouped = regroup_to_power_base(stream, n)
            report = simple_normality_report(grouped, prefix_len)
            cells.append(BatteryCell(shift=m, power=n, report=report))
    return cells


def power_base_shift_counts(source: SourceSpec, word: Word, k: int) -> list[int]:
    """Per-shift contributions to a block count via power-base regrouping.

    Entry c counts how often the word, read as a single base-r**len digit,
    appears among the first k digits of the view shifted by c and grouped
    by len(word).  Shift c touches only c + k*len(word) source digits.
    """
    if k < 1:
        raise ValueError(f"prefix length must be >= 1, got {k}")
    if word.base != source.base:
        raise ValueError(f"word base {word.base} != source base {source.base}")
    n = len(word)
    target = word.value()
    counts = []
    for c in range(n):
        stream = source.stream()
        shift_fractional(stream, c)
        grouped = regroup_to_power_base(stream, n)
        counts.append(count_digit(grouped, target, k))
    return counts


def count_block_via_power_base(source: SourceSpec, word: Word, k: int) -> int:
    """Block occurrences recovered from single-digit counts in base r**n.

    Sums the per-shift contributions.  An occurrence starting at s is
    seen by exactly one shift, c = (s - 1) mod len(word), as grouped
    digit number ceil(s / len(word)); with k grouped digits per shift
    the union covers starts 1 .. k*len(word) exactly once, so the total
    equals a direct count_block over len(word)*(k+1) - 1 digits.
    """
    return sum(power_base_shift_counts(source, word, k))
