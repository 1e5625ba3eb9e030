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
streamed lazily in constant memory, one division per group of digits:
it never ends in an infinite tail of (base-1), and a leading-digit
index records where the expansion starts.  Its preperiod and period
are computed separately, by :func:`rational_period`, from the
factorization of a Carmichael function (the primes up to 37 divided
out, every composite cofactor split by Pollard's rho, every cofactor
tested by Baillie-PSW), within a budget of work, weighed by operand
size, that covers the whole period computation, so a denominator too
long or too hard to factor is a typed error instead of a hang.  Bases
are ints >= 2.

The package's one digit codec lives here too: up to base 36 a digit is
one character of ALPHABET (read back through CHAR_VALUE), beyond it a
bracketed decimal like "[17]" (one _TOKEN).  `digit_token` writes a
digit and `parse_digit_text` reads a run of them back in every base,
for words and digit prefixes; digit files scan with the same _TOKEN.
"""
from __future__ import annotations

import math
import random
import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, tee
from typing import Iterator

from .errors import FactorizationBudgetError, InsufficientDigitsError

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
CHAR_VALUE = {c: i for i, c in enumerate(ALPHABET)}
# byte digits 0-35 to their ALPHABET characters, for one bytes.translate
_TO_ALPHABET = bytes.maketrans(bytes(range(36)), ALPHABET.encode())
# one digit above base 36 as `digit_token` writes it, and a run of them
_TOKEN = re.compile(r"\[([0-9]+)\]")
_BRACKETED = re.compile(f"(?:{_TOKEN.pattern})+")


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
_RATIONAL_BATCH = 1024


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


def digits_to_int(digits, base: int) -> int:
    """Inverse of int_to_digits; accepts any iterable of digits, MSD first."""
    validate_base(base)
    value = 0
    for d in digits:
        if not 0 <= d < base:
            raise ValueError(f"digit {d} out of range for base {base}")
        value = value * base + d
    return value


def _join(base: int, parts: list):
    """Chunk parts as one run of digits: `bytes` up to base 256, a list
    above."""
    return b"".join(parts) if base <= 256 else list(chain.from_iterable(parts))


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
    read of a huge denominator still does only a few divisions.  The
    expansion produced is the one whose truncations round down, so it
    never ends in an infinite tail of (base-1): 1/2 in base 2 is
    0.1000..., not 0.0111... .
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

    def chunks(r: int = rem) -> Iterator:
        size = 1
        while True:
            quotients = []
            for _ in range(size):
                g, r = divmod(r * step, den)
                quotients.append(g)
            # above base 4096 there is no table: each quotient is one digit
            yield _join(base, map(table.__getitem__, quotients)) if t else quotients
            size = min(2 * size, _RATIONAL_BATCH)

    # the description leaves q out: its digits may be too many to print
    stream = DigitStream(base, chunks(), description=f"rational in base {base}")
    return DigitExpansion(base, integer_digits, stream, leading)


def rational_period(q: Fraction, base: int) -> tuple[int, int]:
    """(preperiod, period) of the fractional digits of q in base.

    The preperiod is the least k with c(k) = den // gcd(den, base**k)
    coprime to base, the period the multiplicative order of base modulo
    c(k) (1 for the all-zero tail).  The order is found by dividing primes
    out of the Carmichael function of c(k), so the cost is that of
    factoring it, not of walking the period.  Every big-int operation is
    booked on one budget first, and FactorizationBudgetError is raised
    once the total would pass FACTORIZATION_BUDGET units.
    """
    validate_base(base)
    den = Fraction(q).denominator
    work = _WorkBudget(den)

    def lift(c: int, s: int) -> int:  # c(k + s) from c = c(k)
        return work.div(c, work.gcd(c, work.pow(base, s, c)))

    # each step of the preperiod divides den by 2 or more, so the last k
    # before it is below den's bit length; binary lifting finds that k in
    # cofactors that shrink as it grows
    preperiod, c = 0, den
    if work.gcd(c, base) != 1:
        for i in reversed(range(den.bit_length().bit_length())):
            if work.gcd(nxt := lift(c, 1 << i), base) != 1:
                preperiod, c = preperiod + (1 << i), nxt
        preperiod, c = preperiod + 1, lift(c, 1)
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

    def div(self, a: int, b: int) -> int:
        self.spend(1, a, b)
        return a // b

    def pow(self, a: int, e: int, m: int) -> int:
        """pow(a, e, m), booked as one squaring mod m per bit of e once
        a**(leading bits of e) may reach m's length, and two for the
        shorter squarings before, which at least double in length."""
        short = -(-m.bit_length() // a.bit_length())
        self.spend(max(0, e.bit_length() - short.bit_length()) + 2, m)
        return pow(a, e, m)


def _factorize(n: int, work: _WorkBudget | None = None) -> dict[int, int]:
    """{prime: exponent} for n >= 1.

    The _WITNESSES primes are divided out first, which leaves no prime
    factor below 37, and Pollard's rho splits every composite cofactor
    left.  Every step is booked on work, a fresh budget for n unless one
    is shared.
    """
    work = work or _WorkBudget(n)
    factors: dict[int, int] = {}
    for p in _WITNESSES:
        n, k = _divide_out(n, p, work)
        if k:
            factors[p] = k
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _is_prime(m, work):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _pollard_rho(m, work)
            rest += [d, m // d]
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


def parse_digit_text(text: str, base: int) -> list[int]:
    """Digit values of text as `digit_token` writes it, in reading order:
    0-9a-z characters up to base 36, bracketed decimals such as "[12][7]"
    above it."""
    validate_base(base)
    if base > 36:
        if not _BRACKETED.fullmatch(text):
            raise ValueError(
                f"digit text in base {base} is bracketed decimal digits such as"
                f" [12][7], got {text!r}"
            )
        digits = list(map(int, _TOKEN.findall(text)))
        if max(digits) >= base:
            raise ValueError(f"digit {max(digits)} out of range for base {base}")
        return digits
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
    if base <= 36:
        frac_text = frac.translate(_TO_ALPHABET).decode("ascii")
    else:
        frac_text = "".join(digit_token(d, base) for d in frac)
    return f"{int_text}.{frac_text}"
