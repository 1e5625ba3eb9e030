"""Radix expansions as lazy digit streams.

The central object is :class:`DigitStream`: a pull-based, single-consumer
source of base-r digits after the radix point.  Streams compose (a
rational expansion and a regrouping into base r**n are both streams; a
fractional shift by m is `take(m)`) and every consumer states up front
how many digits it needs, so exhaustion is always reported with exact
positions.  Sources emit digits in chunks, a `bytes` up to base 256 and
a sequence of ints above, and a stream keeps them as they come: a read
is one join of the chunks it spans, the first and last of them sliced,
and returns `bytes` up to base 256 and a list above, so it costs no
Python frame per digit.  A fork tees the chunk iterator and shares the
unread rest of the current chunk.  A regrouped stream reads n inner
digits per group, a slice of groups at a time, packed by `_windows`,
which alone decides how base-r**k values are held (the battery's views
come from it too), and forks by regrouping a fork of the inner stream.

Digits are ints in range(base), read out of a `bytes` or a list.  The
expansion produced for a rational is the standard long-division one,
streamed lazily in constant memory: one division per group of digits
for the first few chunks, then, in a base up to 256 with a denominator
below _LANE_DENOMINATORS, up to 256 remainders divided at once in the
lanes of one int (`_rational_lanes`).  It never ends in an infinite
tail of (base-1), and a leading-digit index records where the
expansion starts.  Its preperiod and period
are computed separately, by :func:`rational_period`: the preperiod
from the valuations of the primes the denominator shares with the base,
the period from the factorization of a Carmichael function (the primes
up to 37 divided out, each prime left found by Pollard's rho and
Baillie-PSW and divided out whole), within a budget of work, weighed by
operand size, that covers the whole period computation, so a
denominator too long or too hard to factor is a typed error instead of
a hang.  Bases are ints >= 2.

The package's one digit codec lives here too: up to base 36 a digit is
one character of ALPHABET, beyond it a bracketed decimal like "[17]".
`digit_token` writes a digit, `_digit_reader` builds the one reader of
runs of them, which `parse_digit_text` (words, digit prefixes) and digit
files (blocks of whole lines, whitespace skipped) go through, and
`_bad_digit` words a digit file's error where that reader stops.
"""
from __future__ import annotations

import math
import random
import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, tee
from pathlib import Path
from typing import Iterator

from .errors import FactorizationBudgetError, InsufficientDigitsError, InvalidDigitError
from .exact import brief_text

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
CHAR_VALUE = {c: i for i, c in enumerate(ALPHABET)}
# byte digits 0-35 to their ALPHABET characters, for one bytes.translate
_TO_ALPHABET = bytes.maketrans(bytes(range(36)), ALPHABET.encode())
# a bracket token of decimal digits of any length
_TOKEN = re.compile(r"\[([0-9]+)\]")


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


# the largest digit table a stream builds: base**t entries of t digits
_TABLE_LIMIT = 4096
# the most long-division groups a rational stream joins into one chunk
# before its lanes take over (see `_rational_lanes`)
_RATIONAL_BATCH = 1024
# the lanes of one int in `_rational_lanes`, and the steps of a lane a block
_RATIONAL_LANES = 256
_RATIONAL_STEPS = 128
# the lanes take denominators below this; a wider one makes a lane's
# products so long that one divmod per group is faster
_LANE_DENOMINATORS = 1 << 61


@lru_cache(maxsize=32)
def _digit_table(base: int) -> tuple[int, tuple]:
    """(t, table) with t >= 0 the largest group size with base**t <= 4096
    and table[g] the t digits of g, zero-padded, for g in range(base**t).

    Entries are `bytes` up to base 256 and tuples above; beyond base 4096
    t is 0 and the table holds the one empty group.  Tables are kept per
    base, for the last 32 bases asked for.
    """
    pack = bytes if base <= 256 else tuple
    if base > _TABLE_LIMIT:
        return 0, (pack(),)
    t, table = 1, [pack((d,)) for d in range(base)]
    digits = table
    while base ** (t + 1) <= _TABLE_LIMIT:
        t, table = t + 1, [group + d for group in table for d in digits]
    return t, tuple(table)


# the most digits `digits_to_int` reads one at a time; longer runs are halved
_SPLIT_DIGITS = 64


def digits_to_int(digits, base: int) -> int:
    """Inverse of int_to_digits on a sequence of digits, MSD first.

    A run longer than _SPLIT_DIGITS is cut in halves, each read alone and
    the two joined by one multiplication by a power of the base, so n
    digits cost a few products of n-digit ints instead of n steps on a
    growing one.  Every digit is range-checked.
    """
    validate_base(base)
    if len(digits) > _SPLIT_DIGITS:
        half = len(digits) // 2
        high = digits_to_int(digits[:half], base)
        return high * base ** (len(digits) - half) + digits_to_int(digits[half:], base)
    value = 0
    for d in digits:
        if not 0 <= d < base:
            raise ValueError(f"digit {d} out of range for base {base}")
        value = value * base + d
    return value


def _join(base: int, parts: list):
    """Chunk parts as one run of digits, one C-level join: `bytes` up to
    base 256, a list above."""
    return b"".join(parts) if base <= 256 else list(chain.from_iterable(parts))


def _rep(value: int, lanes: int, width: int) -> int:
    """`value` in each of `lanes` little-endian lanes of `width` bytes."""
    return int.from_bytes(value.to_bytes(width, "little") * lanes, "little")


def _lane_major(rows: list[bytes], lanes: int, stride: int | None = None):
    """Rows of `lanes` lanes, one row per step, as each lane's values in
    turn.  With no `stride` a row holds one byte a lane and the result is
    a `bytes`; else a row is the little-endian bytes of `stride`-byte
    lanes, each read as the 64-bit word of its low 8 bytes, and the
    result is a list."""
    flat = b"".join(rows)
    if stride is None:
        return b"".join(flat[k::lanes] for k in range(lanes))
    words = bytearray(len(flat) // stride * 8)
    for i in range(8):
        words[i::8] = flat[i::stride]
    words = _byte_order(array("Q", words))
    return list(chain.from_iterable(words[k::lanes] for k in range(lanes)))


@cache
def _byte_digits(base: int) -> tuple[bytes, ...]:
    """For base <= 256, the k digits of a byte value in base, most
    significant first, k the largest with base**k <= 256: translate table
    i takes a value below base**k to its digit i, any other to 0."""
    k = 1
    while base ** (k + 1) <= 256:
        k += 1
    return tuple((b"".join(bytes([d]) * base ** (k - 1 - i) for d in range(base))
                  * base**i).ljust(256, b"\0") for i in range(k))


def _spread_digits(values: bytes, tables: tuple[bytes, ...]) -> bytes:
    """Each byte of `values` as one digit per translate table, in table
    order, one `translate` a table.  A single table is skipped: callers
    pass only values below its base, which `_byte_digits` keeps."""
    if len(tables) == 1:
        return values
    digits = bytearray(len(tables) * len(values))
    for i, table in enumerate(tables):
        digits[i :: len(tables)] = values.translate(table)
    return bytes(digits)


def _windows(digits, base: int, n: int, step: int = 1) -> Iterator:
    """For k = 1 .. n, the k-digit windows of `digits` that start at 0,
    step, 2*step, ... and fit, each read as one base**k value.

    A tier is a `bytes` while base**k <= 256, an `array('H')` of 2-byte
    values while base**k <= 2**16 and a list above.  Tier k is built from
    tier k-1, which it replaces: entry s times base plus digit
    s*step + k-1.  Up to 2**16 both sequences are packed into one big
    int, an entry to a 1- or 2-byte lane, little-endian, and one
    multiply-add makes every entry, since no lane carries into the next;
    above it is one Python step per entry.  At step 1 digit j of the view
    shifted by m and grouped by k is entry m + j*k of tier k; at step n
    tier n is the grouped view, a short final group left out.
    """
    values = digits[::step]
    yield values
    for k in range(2, n + 1):
        low = digits[k - 1 :: step]
        if base**k > 2**16:
            values = [v * base + d for v, d in zip(values, low)]
        else:
            width = 1 if base**k <= 256 else 2
            size = len(low)
            packed = _lanes(values[:size], width) * base + _lanes(low, width)
            data = packed.to_bytes(width * size, "little")
            values = data if width == 1 else _byte_order(array("H", data))
        yield values


def _lanes(values, width: int) -> int:
    """Byte digits, or an `array('H')` it may byte-swap in place, as one
    little-endian int of `width`-byte lanes."""
    if isinstance(values, array):
        values = _byte_order(values)
    elif width == 2:
        wide = bytearray(2 * len(values))
        wide[0::2] = values
        values = wide
    return int.from_bytes(values, "little")


def _byte_order(values: array) -> array:
    """An array's values turned from little-endian to the machine's byte
    order, or back, in place."""
    if sys.byteorder == "big":
        values.byteswap()
    return values


class DigitStream:
    """Single-consumer stream of base-r digits after the radix point.

    An iterator of chunks (`bytes` up to base 256, sequences of ints
    above; empty ones allowed), the chunk being read and the offset of
    its next digit, plus a `position`: the count of digits consumed from
    the underlying expansion since this stream's origin.  A fork shares
    the origin, so both copies report positions in the same coordinate
    system; its chunks are kept only until both copies have read them.
    `take` does all its reading through `_read`, which a regrouped
    stream overrides (see `regroup_to_power_base`).
    """

    __slots__ = ("base", "position", "description", "_chunks", "_chunk", "_offset")

    def __init__(self, base: int, chunks, description: str = ""):
        self.base = validate_base(base)
        self.position = 0
        self.description = description
        self._chunks: Iterator = iter(chunks)
        self._chunk, self._offset = b"", 0

    def _read(self, count: int):
        """Up to `count` digits, fewer only once the source is dry: a
        `bytes` up to base 256, a list above."""
        chunk, start = self._chunk, self._offset
        end = start + count
        if end <= len(chunk):
            parts = [chunk[start:end]]
        else:
            parts = [chunk[start:]]
            end -= len(chunk)
            try:
                for chunk in self._chunks:
                    if end <= len(chunk):
                        parts.append(chunk[:end])
                        break
                    parts.append(chunk)
                    end -= len(chunk)
                else:
                    chunk, end = b"", 0
            except Exception:
                # a source failed (a bad digit in a file): the digits
                # pulled before it stay for the next read
                self._chunk, self._offset = _join(self.base, parts), 0
                raise
        digits = _join(self.base, parts)
        self._chunk, self._offset = chunk, end
        self.position += len(digits)
        return digits

    def take(self, count: int):
        """Exactly `count` digits, or InsufficientDigitsError telling how
        many were available in total, both counted in this stream's
        digits (a regrouped stream counts whole groups).  The digits are
        a `bytes` up to base 256 and a list above."""
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
        self._chunks, twin_chunks = tee(self._chunks)
        twin = DigitStream(self.base, twin_chunks, self.description)
        twin._chunk, twin._offset = self._chunk, self._offset
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

    The fractional stream is infinite and lazy: each group of t digits
    (see `_digit_table`) is one step of long division by base**t on the
    remainder, so memory stays constant however long the period.  Its
    chunks hold 1, 2, 4, ... groups, up to _RATIONAL_BATCH, so a short
    read of a huge denominator still does only a few divisions.  Past the
    first _RATIONAL_BATCH-group chunk, a base up to 256 with a
    denominator below _LANE_DENOMINATORS hands the remainder to
    `_rational_lanes`, which divides in the lanes of one int; any other
    keeps one division per group.  The expansion produced is the one
    whose truncations round down, so it never ends in an infinite tail
    of (base-1): 1/2 in base 2 is 0.1000..., not 0.0111... .
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
        # the first nonzero digit is the k-th, k the least with
        # rem * base**k >= den; the bit lengths give a lower bound at
        # most four below k, and the scan steps up from there
        bits = den.bit_length() - rem.bit_length() - 1
        leading = -max(1, math.ceil(bits / math.log2(base)) - 1)
        scaled = rem * base**-leading
        while scaled < den:
            leading, scaled = leading - 1, scaled * base

    t, table = _digit_table(base)
    step = base ** max(t, 1)
    use_lanes = base <= 256 and den < _LANE_DENOMINATORS

    def chunks(r: int = rem) -> Iterator:
        size = 1
        while True:
            quotients = []
            for _ in range(size):
                g, r = divmod(r * step, den)
                quotients.append(g)
            # above base 4096 there is no table: each quotient is one digit
            yield _join(base, map(table.__getitem__, quotients)) if t else quotients
            if use_lanes and size == _RATIONAL_BATCH:
                yield from _rational_lanes(r, den, base)
            size = min(2 * size, _RATIONAL_BATCH)

    # the description leaves q out: its digits may be too many to print
    stream = DigitStream(base, chunks(), description=f"rational in base {base}")
    return DigitExpansion(base, integer_digits, stream, leading)


def _rational_lanes(r: int, den: int, base: int) -> Iterator[bytes]:
    """The digits of r/den in base, for 0 <= r < den and base <= 256, one
    `bytes` per block.

    A step divides by s = base**k, the largest power of the base up to
    256, so each quotient is one byte holding k digits.  A block packs up
    to _RATIONAL_LANES remainders into the lanes of one int, lane j at
    r * s**(j * _RATIONAL_STEPS) mod den, and steps every lane
    _RATIONAL_STEPS times: t = R*s, q = t*m >> shift and R = t - q*den,
    three big-int products for all lanes.  The quotient is exact
    (Granlund and Montgomery 1994, Theorem 4.2): with 2**l >= den,
    t < 2**n, shift = n + l and m = 2**shift / den rounded up, m*den
    exceeds 2**shift by less than 2**l, so t*m / 2**shift is t/den plus
    less than 1/den.  As den > 2**(l-1), m <= 2**(n+1) and t*m stays
    below 2**(2n+1), which is the lane width (rounded up to whole bytes),
    so no lane carries into the next.  Each step's quotients are byte 0
    of every lane; the block puts them lane after lane (`_lane_major`)
    and `_spread_digits` turns them into digits.  The last lane ends
    where the next block starts, which has twice the lanes of this one,
    up to _RATIONAL_LANES, so the first blocks stay short.
    """
    tables = _byte_digits(base)
    s = base ** len(tables)
    n = ((den - 1) * s).bit_length()
    shift = n + (den - 1).bit_length()
    multiplier = -(-(1 << shift) // den)
    lane_bytes = (2 * n + 8) // 8
    lane_bits = 8 * lane_bytes
    jump = pow(s, _RATIONAL_STEPS, den)
    lanes = 2 * _RATIONAL_BATCH // _RATIONAL_STEPS
    while True:
        starts = [r]
        while len(starts) < lanes:
            starts.append(starts[-1] * jump % den)
        packed = int.from_bytes(
            b"".join(x.to_bytes(lane_bytes, "little") for x in starts), "little")
        quotient_bits = _rep((1 << lane_bits) - (1 << shift), lanes, lane_bytes)
        rows = []
        for _ in range(_RATIONAL_STEPS):
            t = packed * s
            quotients = ((t * multiplier) & quotient_bits) >> shift
            packed = t - quotients * den
            rows.append(quotients.to_bytes(lane_bytes * lanes, "little")[::lane_bytes])
        yield _spread_digits(_lane_major(rows, lanes), tables)
        r = packed >> (lane_bits * (lanes - 1))
        lanes = min(2 * lanes, _RATIONAL_LANES)


def rational_period(q: Fraction, base: int) -> tuple[int, int]:
    """(preperiod, period) of the fractional digits of q in base.

    Each prime p shared by den and base is divided out of den whole, by
    `_divide_out`, which also gives the valuations v_p(den) and
    v_p(base); c(k) = den // gcd(den, base**k) is coprime to base iff
    v_p(den) <= k * v_p(base) for every such p, so the preperiod is the
    largest ceil(v_p(den) / v_p(base)).  The period is the
    multiplicative order of base modulo what is left of den (1 for the
    all-zero tail), found by dividing primes out of its Carmichael
    function, so the cost is that of factoring, not of walking the
    period.  Every big-int operation is booked on one budget first, and
    FactorizationBudgetError is raised once the total would pass
    FACTORIZATION_BUDGET units.
    """
    validate_base(base)
    den = Fraction(q).denominator
    work = _WorkBudget(den)
    preperiod, c = 0, den
    for p in _factorize(work.gcd(den, base), work):
        c, k = _divide_out(c, p, work)
        _, e = _divide_out(base, p, work)
        preperiod = max(preperiod, -(-k // e))
    return preperiod, _multiplicative_order(base, c, work)


def _multiplicative_order(a: int, n: int, work: _WorkBudget) -> int:
    """The least k >= 1 with a**k == 1 mod n, for a coprime to n."""
    order = 1  # Carmichael's lambda(n), the lcm of lambda over prime powers
    for p, k in _factorize(n, work).items():
        lam = 2 ** (k - 2) if p == 2 and k >= 3 else p ** (k - 1) * (p - 1)
        work.spend(3, order, lam)  # a gcd, a product and a division
        order = math.lcm(order, lam)
    for p in _factorize(order, work):
        while order % p == 0 and work.pow(a, order // p, n) == 1:
            order //= p
    return order


# Miller-Rabin with these bases is exact below _MILLER_RABIN_EXACT, the least
# composite passing all of them; _factorize divides them out before rho runs
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_EXACT = 318665857834031151167461
# rho steps between two gcds in Brent's search
_RHO_BATCH = 128
# units of work one rational_period call may spend, a unit being one
# modular multiplication of operands up to _UNIT_BITS bits: rho on
# (2**61-1)(2**31-1)(10**12+39) takes about 2.7 * 10**6 of them, on a
# product of two primes near 10**13 about 1.7 * 10**7
FACTORIZATION_BUDGET = 4 * 10**6
_UNIT_BITS = 512


def _words(x: int) -> int:
    return max(1, -(-x.bit_length() // _UNIT_BITS))


class _WorkBudget:
    """The work spent so far on the period of n.

    Long multiplication, division and gcd cost about the product of the
    operand lengths on CPython, so an operation on a and b books
    _words(a) * _words(b) units: one for operands up to _UNIT_BITS bits.
    """

    def __init__(self, n: int):
        self.n = n
        self.spent = 0

    def spend(self, count: int, a: int, b: int | None = None) -> None:
        """Book count operations on a and b (b = a if omitted), raising
        before the total passes the budget."""
        self.spent += count * _words(a) * _words(a if b is None else b)
        if self.spent > FACTORIZATION_BUDGET:
            raise FactorizationBudgetError(self.n, FACTORIZATION_BUDGET)

    def gcd(self, a: int, b: int) -> int:
        self.spend(1, a, b)
        return math.gcd(a, b)

    def pow(self, a: int, e: int, m: int) -> int:
        """pow(a, e, m), booked as one squaring mod m per bit of e, plus
        one."""
        self.spend(e.bit_length() + 1, m)
        return pow(a, e, m)


def _factorize(n: int, work: _WorkBudget | None = None) -> dict[int, int]:
    """{prime: exponent} for n >= 1.

    The _WITNESSES primes are divided out first, which leaves no prime
    factor below 37.  Then, while n > 1, Pollard's rho splits n, and
    the factor it found, until a factor is prime, and `_divide_out`
    removes that prime from n whole, so a prime power costs one search.
    Every step is booked on work, a fresh budget for n unless one is
    shared.
    """
    work = work or _WorkBudget(n)
    factors: dict[int, int] = {}
    for p in _WITNESSES:
        n, k = _divide_out(n, p, work)
        if k:
            factors[p] = k
    while n > 1:
        p = n
        while not _is_prime(p, work):
            p = _pollard_rho(p, work)
        n, factors[p] = _divide_out(n, p, work)
    return factors


def _divide_out(n: int, p: int, work: _WorkBudget) -> tuple[int, int]:
    """(n // p**k, k) for k the largest with p**k dividing n: n is divided
    by p, p**2, p**4, ... while they divide it, then by the same powers
    back down, so k costs O(log k) booked divisions, not k."""
    powers, k, q = [], 0, p
    while True:
        work.spend(1, n, q)
        if n % q:
            break
        work.spend(1, n, q)
        n //= q
        k += 1 << len(powers)
        powers.append(q)
        work.spend(1, q)
        q *= q
    for i in reversed(range(len(powers))):  # k left below 2**len(powers)
        work.spend(1, n, powers[i])
        if n % powers[i] == 0:
            work.spend(1, n, powers[i])
            n //= powers[i]
            k += 1 << i
    return n, k


def _is_prime(n: int, work: _WorkBudget | None = None) -> bool:
    """Miller-Rabin on the fixed witnesses, for n >= 2; from
    _MILLER_RABIN_EXACT on also a strong Lucas test, which with witness 2
    is Baillie-PSW (Baillie and Wagstaff 1980, Math. Comp. 35).  Each
    test is booked on work before it runs."""
    work = work or _WorkBudget(n)
    if any(n % p == 0 for p in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        work.spend(s - 1, n)
        x = work.pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _MILLER_RABIN_EXACT:
        return True
    work.spend(6 * n.bit_length(), n)  # the Lucas chain's multiplications
    return _is_strong_lucas_probable_prime(n)


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Selfridge's strong Lucas test, for odd n: P = 1, Q = (1 - D)/4 for D
    the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1, and n
    passes when, with n + 1 = d * 2**s for odd d, U_d or V_(d * 2**r) for
    some r < s is 0 mod n."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would have symbol -1
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0:
            return False  # n > |D| shares a factor with D
        D = -D - 2 if D > 0 else 2 - D
    Q, s = (1 - D) // 4, ((n + 1) & -(n + 1)).bit_length() - 1

    def half(x: int) -> int:  # x / 2 mod n
        return (x + n * (x & 1)) // 2 % n

    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q**1
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a, sign = a % n, 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _pollard_rho(n: int, work: _WorkBudget | None = None) -> int:
    """A proper factor of a composite n with no prime factor below 37.

    Brent's cycle search on x -> x*x + c mod n, seeded from a fixed
    generator so the same n always takes the same steps.  The distances
    x - y are multiplied into one product mod n and a batch of
    _RHO_BATCH steps costs a single gcd; a batch whose gcd is n is
    replayed one step at a time from its start.  Every step is booked on
    work (one modular multiplication of n, two inside a batch) before it
    runs.
    """
    work = work or _WorkBudget(n)
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(2, n)
        d = power = product = 1
        while d == 1:
            x = y
            work.spend(power, n)
            for _ in range(power):
                y = (y * y + c) % n
            done = 0
            while done < power and d == 1:
                start = y
                steps = min(_RHO_BATCH, power - done)
                work.spend(2 * steps, n)
                for _ in range(steps):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                d = math.gcd(product, n)
                done += _RHO_BATCH
            power *= 2
        if d == n:
            d = 1
            while d == 1:
                work.spend(1, n)
                start = (start * start + c) % n
                d = math.gcd(x - start, n)
        if d != n:
            return d


def regroup_to_power_base(stream: DigitStream, n: int) -> DigitStream:
    """View a base-r stream as a base-r**n stream.

    Output digit k is the n consecutive input digits k*n..k*n+n-1 read as
    a base-r integer; consuming k output digits consumes exactly k*n input
    digits, read _GROUP_SLICE groups at a time and packed by `_windows`
    into a `bytes` up to base 256 and a list above.  n=1 returns the
    stream itself.  A short final group ends the grouped stream, after
    consuming what is left of the input, so `take` on the grouped stream
    reports the shortfall in grouped digits.  A fork regroups a fork of
    the input, so the twin's reads do not advance the input stream
    passed in here.
    """
    if n < 1:
        raise ValueError(f"group size must be >= 1, got {n}")
    return stream if n == 1 else _GroupedStream(stream, n)


#: groups a regrouped stream packs per read of its inner stream, which
#: bounds the inner digits a large grouped take holds at once
_GROUP_SLICE = 1 << 14


class _GroupedStream(DigitStream):
    """A base-r stream read n >= 2 digits at a time as base-r**n digits,
    each slice of groups the last tier of `_windows` at step n."""

    __slots__ = ("_inner", "_n")

    def __init__(self, inner: DigitStream, n: int):
        label = inner.description or f"base {inner.base} stream"
        self.base, self.position = inner.base**n, 0
        self.description = f"{label} grouped by {n}"
        self._inner, self._n = inner, n

    def _read(self, count: int):
        r, n = self._inner.base, self._n
        parts, got = [], 0
        while True:
            want = min(count - got, _GROUP_SLICE)
            *_, part = _windows(self._inner._read(want * n), r, n, n)
            parts.append(part)
            got += len(part)
            if len(part) < want or got == count:
                break
        self.position += got
        return _join(self.base, parts)

    def fork(self) -> DigitStream:
        twin = _GroupedStream(self._inner.fork(), self._n)
        twin.position = self.position
        return twin


def digit_token(d: int, base: int) -> str:
    """One digit as text: 0-9a-z for bases up to 36, bracketed beyond."""
    if not 0 <= d < base:
        raise ValueError(f"digit {d} out of range for base {base}")
    if base <= 36:
        return ALPHABET[d]
    return f"[{d}]"


# the characters str.isspace() accepts in ASCII text, which spaced digit
# text (a digit file) skips
_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())


def _digit_reader(base: int, spaced: bool = False):
    """A function from text to (digits, end): the digits of the longest
    well-formed start of the text, whitespace (_SPACE) skipped when
    `spaced`, and the index where that start stops; digits are a `bytes`
    up to base 256 and a list above.  A bracket token matches only with at
    most len(str(base - 1)) digits after its leading zeros, so int() never
    sees an over-long one: like any token out of range, it ends the start.

    Up to base 256, bracketed text is first cut on "][" (when `spaced`,
    once the whitespace between tokens is dropped) and each token looked
    up among the canonical ones, str(d); text that fails the lookup, such
    as a zero-padded token or an error, is read by the regex instead.
    """
    space = _SPACE if spaced else ""
    canonical = {str(d): d for d in range(base)} if 36 < base <= 256 else None
    if base <= 36:
        well_formed = re.compile(f"[{re.escape(space)}{ALPHABET[:base]}]*")
        values = bytes.maketrans(ALPHABET[:base].encode(), bytes(range(base)))
        skip = space.encode()
    else:
        gap = f"[{re.escape(space)}]*" if space else ""
        token = re.compile(rf"\[0*([0-9]{{1,{len(str(base - 1))}}})\]")
        well_formed = re.compile(f"(?:{gap}{token.pattern})*{gap}")

    def read(text):
        if canonical and text.isascii():
            tight = " ".join(text.split()).replace("] [", "][") if spaced else text
            if tight[:1] == "[" and tight[-1:] == "]":
                try:
                    return bytes(map(canonical.__getitem__, tight[1:-1].split("]["))), len(text)
                except KeyError:
                    pass
        end = well_formed.match(text).end()
        if base <= 36:
            return text[:end].encode("ascii").translate(values, skip), end
        digits = list(map(int, token.findall(text, 0, end)))
        if digits and max(digits) >= base:
            k = next(k for k, d in enumerate(digits) if d >= base)
            digits, end = digits[:k], list(token.finditer(text, 0, end))[k].start()
        return (bytes if base <= 256 else list)(digits), end

    return read


def _bad_digit(path: Path, base: int, lineno: int, line: str, col: int) -> InvalidDigitError:
    """The error for the text at 0-based `col`, where the digit reader
    stopped: neither whitespace nor a digit of `base` up to base 36, above
    it no bracket token or one out of range."""
    ch, column = line[col], col + 1
    if base <= 36:
        value = CHAR_VALUE.get(ch)
        detail = f"invalid digit character {ch!r}" if value is None else (
            f"digit {ch!r} (= {value}) out of range for base {base}")
    elif ch != "[":
        detail = f"expected '[', got {ch!r}"
    elif (end := line.find("]", col)) == -1:
        detail = "unterminated '[' token"
    elif not (text := line[col + 1 : end]).isdigit():
        detail, column = f"expected decimal digits inside [], got {brief_text(text)}", col + 2
    else:
        value = brief_text(text.lstrip("0"), quoted=False)
        detail, column = f"digit [{value}] out of range for base {base}", col + 2
    return InvalidDigitError(path, lineno, column, detail)


def parse_digit_text(text: str, base: int) -> list[int]:
    """Digit values of text as `digit_token` writes it, in reading order:
    0-9a-z characters up to base 36, bracketed decimals such as "[12][7]"
    above it, read by `_digit_reader`."""
    validate_base(base)
    digits, end = _digit_reader(base)(text)
    if text and end == len(text):
        return list(digits)
    if base <= 36:
        if not text:
            raise ValueError("empty digit text")
        raise ValueError(f"invalid digit {text[end]!r} for base {base}")
    if token := _TOKEN.match(text, end):
        value = brief_text(token[1].lstrip("0"), quoted=False)
        raise ValueError(f"digit {value} out of range for base {base}")
    raise ValueError(
        f"digit text in base {base} is bracketed decimal digits such as"
        f" [12][7], got {brief_text(text)}"
    )


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
    if base <= 36:
        frac_text = frac.translate(_TO_ALPHABET).decode("ascii")
    else:
        frac_text = "".join(digit_token(d, base) for d in frac)
    return f"{int_text}.{frac_text}"
