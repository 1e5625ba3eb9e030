"""Radix expansions as lazy digit streams.

The central object is :class:`DigitStream`: a pull-based, single-consumer
source of base-r digits after the radix point.  Streams compose (a
rational expansion and a regrouping into base r**n are both streams; a
fractional shift by m is `take(m)`) and every consumer states up front
how many digits it needs, so exhaustion is always reported with exact
positions.  Every read is one `take` (an `islice` of the stream's
iterator) and a fork is an `itertools.tee` of it.

Digits are plain ints in range(base).  The expansion produced for a
rational is the standard long-division one, streamed lazily in constant
memory: it never ends in an infinite tail of (base-1), and a
leading-digit index records where the expansion starts.  Its preperiod
and period are computed separately, by :func:`rational_period`.  Bases
are ints >= 2.

The package's one digit codec lives here too: up to base 36 a digit is
one character of ALPHABET (read back through CHAR_VALUE), beyond it a
bracketed decimal like "[17]".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, tee
from typing import Iterator

from .errors import InsufficientDigitsError

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
CHAR_VALUE = {c: i for i, c in enumerate(ALPHABET)}


def validate_base(base: int) -> int:
    if not isinstance(base, int) or isinstance(base, bool):
        raise TypeError(f"base must be an int, got {type(base).__name__}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    return base


def int_to_digits(value: int, base: int) -> list[int]:
    """Digits of a nonnegative integer, most significant first; [] for 0."""
    validate_base(base)
    if value < 0:
        raise ValueError(f"value must be >= 0, got {value}")
    digits: list[int] = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    digits.reverse()
    return digits


def digits_to_int(digits, base: int) -> int:
    """Inverse of int_to_digits; accepts any iterable of digits, MSD first."""
    validate_base(base)
    value = 0
    for d in digits:
        if not 0 <= d < base:
            raise ValueError(f"digit {d} out of range for base {base}")
        value = value * base + d
    return value


class DigitStream:
    """Single-consumer stream of base-r digits after the radix point.

    An iterator plus a `position`: the count of digits consumed from the
    underlying expansion since this stream's origin.  A fork shares the
    origin, so both copies report positions in the same coordinate
    system; its digits are kept only until both copies have read them.
    """

    __slots__ = ("base", "position", "description", "_it")

    def __init__(self, base: int, digits, description: str = ""):
        self.base = validate_base(base)
        self.position = 0
        self.description = description
        self._it: Iterator[int] = iter(digits)

    def _read(self, count: int) -> list[int]:
        """Up to `count` digits, fewer only once the source is dry."""
        digits = list(islice(self._it, count))
        self.position += len(digits)
        return digits

    def take(self, count: int) -> list[int]:
        """Exactly `count` digits, or InsufficientDigitsError telling how
        many were available in total, both counted in this stream's
        digits (a regrouped stream counts whole groups)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        goal = self.position + count
        digits = self._read(count)
        if len(digits) < count:
            raise InsufficientDigitsError(self.position, goal, self.description)
        return digits

    def fork(self) -> "DigitStream":
        """An independent stream continuing from the same next digit.

        Both copies may be consumed in any interleaving and see identical
        digits.
        """
        self._it, twin_it = tee(self._it)
        twin = DigitStream(self.base, twin_it, self.description)
        twin.position = self.position
        return twin

    def __repr__(self) -> str:
        src = f" {self.description}" if self.description else ""
        return f"<DigitStream base={self.base} position={self.position}{src}>"


@dataclass
class DigitExpansion:
    """A number's radix expansion: integer digits plus a fractional stream.

    leading_index locates the most significant nonzero digit: it is
    len(integer_digits) - 1 for values >= 1, -k when the first nonzero
    fractional digit is the k-th, and -1 for an exact zero.  None means
    the expansion was built around an opaque stream and the index was
    not scanned for.
    """

    base: int
    integer_digits: list[int]
    fractional: DigitStream
    leading_index: int | None = None


def expand_rational(q: Fraction, base: int) -> DigitExpansion:
    """Standard long-division expansion of a nonnegative rational.

    The fractional stream is infinite and lazy: each digit is one step of
    long division on the remainder, so memory stays constant however long
    the period.  The expansion produced is the one whose truncations
    round down, so it never ends in an infinite tail of (base-1): 1/2 in
    base 2 is 0.1000..., not 0.0111... .
    """
    validate_base(base)
    q = Fraction(q)
    if q < 0:
        raise ValueError(f"value must be >= 0, got {q}")
    den = q.denominator
    int_part, rem = divmod(q.numerator, den)
    integer_digits = int_to_digits(int_part, base)

    if q == 0:
        leading = -1
    elif int_part > 0:
        leading = len(integer_digits) - 1
    else:
        # the digits before the first nonzero one are zeros, so the
        # remainder just scales: at most about log_base(den) steps
        leading, scaled = -1, rem * base
        while scaled < den:
            leading, scaled = leading - 1, scaled * base

    def long_division(r: int = rem) -> Iterator[int]:
        while True:
            d, r = divmod(r * base, den)
            yield d

    stream = DigitStream(base, long_division(), description=f"{q} in base {base}")
    return DigitExpansion(base, integer_digits, stream, leading)


def rational_period(q: Fraction, base: int) -> tuple[int, int]:
    """(preperiod, period) of the fractional digits of q in base.

    The preperiod is how often gcd(den, base) divides out of the reduced
    denominator, the period the multiplicative order of base modulo what
    remains (1 for the all-zero tail).  O(period) time, O(1) memory.
    """
    validate_base(base)
    den = Fraction(q).denominator
    preperiod = 0
    while (g := math.gcd(den, base)) > 1:
        den //= g
        preperiod += 1
    period, power = 1, base % den
    while power != 1 % den:
        period, power = period + 1, power * base % den
    return preperiod, period


def regroup_to_power_base(stream: DigitStream, n: int) -> DigitStream:
    """View a base-r stream as a base-r**n stream.

    Output digit k is the n consecutive input digits k*n..k*n+n-1 read as
    a base-r integer; consuming k output digits consumes exactly k*n input
    digits.  n=1 returns the stream itself.  A short final group ends the
    grouped stream, after consuming what is left of the input, so `take`
    on the grouped stream reports the shortfall in grouped digits.
    """
    if n < 1:
        raise ValueError(f"group size must be >= 1, got {n}")
    if n == 1:
        return stream
    r = stream.base

    def grouped() -> Iterator[int]:
        while len(group := stream._read(n)) == n:
            value = 0
            for d in group:
                value = value * r + d
            yield value

    inner = stream.description or f"base {r} stream"
    return DigitStream(r**n, grouped(), description=f"{inner} grouped by {n}")


def digit_token(d: int, base: int) -> str:
    """One digit as text: 0-9a-z for bases up to 36, bracketed beyond."""
    if not 0 <= d < base:
        raise ValueError(f"digit {d} out of range for base {base}")
    if base <= 36:
        return ALPHABET[d]
    return f"[{d}]"


def parse_digit_text(text: str, base: int) -> list[int]:
    """Digit values of 0-9a-z text in a base up to 36, in reading order."""
    validate_base(base)
    if base > 36:
        raise ValueError(f"digit text needs base <= 36, got {base}")
    if not text:
        raise ValueError("empty digit text")
    digits = []
    for ch in text:
        value = CHAR_VALUE.get(ch, base)
        if value >= base:
            raise ValueError(f"invalid digit {ch!r} for base {base}")
        digits.append(value)
    return digits


def format_bracket(expansion: DigitExpansion, count: int) -> str:
    """Render `count` digits of an expansion, radix point included.

    Integer digits come first and count toward `count`; for values < 1
    the conventional leading "0" before the point is a placeholder, not a
    counted digit.  Bases above 36 render every digit bracketed, e.g.
    "[3].[14][15][92]".  Consumes from the fractional stream.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    base = expansion.base
    ints = expansion.integer_digits
    int_text = "".join(digit_token(d, base) for d in ints) if ints else "0"
    frac_needed = max(0, count - len(ints))
    frac = expansion.fractional.take(frac_needed)
    frac_text = "".join(digit_token(d, base) for d in frac)
    return f"{int_text}.{frac_text}"
