"""Digit sources: where streams come from.

Four kinds, all deterministic:

* ``rational``: the long-division expansion of a rational in [0, 1),
  written either as a value ("rational:1/3") or as an explicit digit
  prefix ("rational:11010111011-prefix", the digits read in the stream's
  base and extended by zeros);
* ``champernowne``: the base-r constant 0.1 2 3 ... built by
  concatenating the digits of 1, 2, 3, ... in base r;
* ``file``: digits read from a small header-plus-digits text format;
* ``random``: a seeded 64-bit xorshift generator reduced to digits by
  rejection sampling, so equal seeds give equal streams everywhere.

A :class:`SourceSpec` is the parsed, reusable description; every call to
:meth:`SourceSpec.expansion` starts the source afresh in the spec's base,
integer digits and fractional stream, and a file spec keeps the header
`parse_source_spec` read, so nothing reads it twice.

Champernowne digits come a block of integers at a time, file digits a
read of whole lines at a time and random digits a block of xorshift
states at a time, each block one `bytes` (a list above base 256) that
the :class:`DigitStream` reads as one chunk, made by C-level joins with
no per-digit step.  In a base 2**k the random blocks come from the
linear recurrence that every state bit obeys, a block of digits at a
time; see `_bit_plane_chunks`.  In any other base they come from many
xorshift states stepped together in the lanes of one int, each lane
moved to the next block by the jump polynomial of that recurrence; see
`_random_chunks`.

A champernowne tally needs no digits at all: `champernowne_tally` gives
the count of every digit among the first n by formula, in O(log n)
big-int steps, and `stats` reports from it.
"""
from __future__ import annotations

import io
import os
import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from importlib import resources
from itertools import count, repeat
from operator import itemgetter, xor
from pathlib import Path
from typing import Iterator

from .errors import InvalidDigitError, MalformedHeaderError
from .exact import brief_rational, brief_text, parse_rational
from .radix import (
    _TABLE_LIMIT,
    DigitExpansion,
    DigitStream,
    _byte_digits,
    _byte_order,
    _digit_fault,
    _digit_reader,
    _digit_table,
    _join,
    _lane_major,
    _rep,
    _spread_digits,
    digits_to_int,
    expand_rational,
    int_to_digits,
    parse_digit_text,
    regroup_to_power_base,
    validate_base,
)

_MASK64 = (1 << 64) - 1
# substitute for the forbidden all-zero xorshift state; any fixed nonzero
# constant works, this one is 2**64 / golden ratio
_SEED_SUBSTITUTE = 0x9E3779B97F4A7C15


def rational_stream(value: Fraction, base: int) -> DigitStream:
    """Fractional digits of a rational in [0, 1)."""
    value = Fraction(value)
    if not 0 <= value < 1:
        raise ValueError(f"rational source must be in [0, 1), got {brief_rational(value)}")
    return expand_rational(value, base).fractional


def champernowne_stream(base: int) -> DigitStream:
    """Concatenated digits of 1, 2, 3, ... in the given base.

    Each chunk is one `radix._join` of the digits of up to
    `radix._TABLE_LIMIT` integers.  Up to base 256 they are
    `_digit_table` entries of t digits: first the integers below
    base**t, each its entry without the leading zeros, then per high
    part hi the integers hi*base**t up to (hi+1)*base**t - 1, each the
    digits of hi and then t table digits.  Above it there is no table,
    and a chunk is a list, a run of integers that share their high part
    hi = i // base, each the digits of hi and then its last digit.
    """
    validate_base(base)
    t, table = _digit_table(base)

    def chunks() -> Iterator:
        yield _join(base, [  # the k-digit integers, t-k zeros cut
            e[t - k :] for k in range(1, t + 1) for e in table[base ** (k - 1) : base**k]])
        for hi in count(1):
            head = bytes(int_to_digits(hi, base))
            yield head + head.join(table)

    def runs() -> Iterator:
        start = 1
        for hi in count():
            head = int_to_digits(hi, base)  # [] for 0
            for low in range(start, base, _TABLE_LIMIT):
                lows = range(low, min(low + _TABLE_LIMIT, base))
                yield _join(base, zip(*map(repeat, head), lows))
            start = 0

    return DigitStream(base, chunks() if t else runs(),
                       description=f"champernowne base {base}")


def champernowne_tally(base: int, n: int) -> dict[int, int]:
    """The count of each digit that occurs among the first n digits of
    `champernowne_stream(base)`, in digit order, by formula: no digit is
    made.

    The k-digit integers base**(k-1) .. base**k - 1 fill a whole block of
    k*(base-1)*base**(k-1) digits, where every digit d >= 1 leads
    base**(k-1) integers and each of the k-1 other positions shows every
    digit (base-1)*base**(k-2) times.  The first n digits end in block K,
    after q integers of it and t digits of the next, top = base**(K-1) + q.
    Over the integers below top, padded to K digits, position i (weight
    w = base**i) shows each digit high*w times, high = top // (base*w), w
    more times for each digit below the position's digit cur of top, and
    low = top % w more at cur; those below base**(K-1) are taken off
    again, each position below K-1 showing every digit base**(K-2) times
    and position K-1 only zeros.  Then come the t leading digits of top.

    Each term counts alike over a range of digit values, so the terms are
    steps of a difference array over the digits, O(K) of them, summed in
    one sweep that keeps the ranges of nonzero count: one entry per digit
    that occurs, which is never more than n, in any base.
    """
    validate_base(base)
    if n < 1:
        raise ValueError(f"prefix length must be >= 1, got {n}")
    steps: dict[int, int] = {}

    def add(low: int, high: int, amount: int) -> None:
        """Count `amount` more for each digit low .. high - 1."""
        if amount:
            steps[low] = steps.get(low, 0) + amount
            steps[high] = steps.get(high, 0) - amount

    k, first = 1, 1  # first = base**(k-1), the least k-digit integer
    while n >= k * (base - 1) * first:  # whole blocks
        n -= k * (base - 1) * first
        add(1, base, first)
        add(0, base, (k - 1) * (base - 1) * first // base)
        k, first = k + 1, first * base
    q, t = divmod(n, k)
    top = first + q
    w = 1
    for _ in range(k):
        high, rest = divmod(top, base * w)
        cur, low = divmod(rest, w)
        add(0, base, high * w)
        add(0, cur, w)
        add(cur, cur + 1, low)
        w *= base
    add(0, base, -(k - 1) * first // base)  # the padded integers below first
    add(0, 1, -first)
    for d in int_to_digits(top, base)[:t]:
        add(d, d + 1, 1)
    tally: dict[int, int] = {}
    edges = sorted(steps)
    running = 0
    for low, high in zip(edges, edges[1:]):
        running += steps[low]
        if running:
            tally.update(dict.fromkeys(range(low, high), running))
    return tally


def xorshift64_step(state: int) -> int:
    """One step of the classic 64-bit xorshift (shifts 13, 7, 17)."""
    state ^= (state << 13) & _MASK64
    state ^= state >> 7
    state ^= (state << 17) & _MASK64
    return state


def random_stream(base: int, seed: int) -> DigitStream:
    """Deterministic pseudo-random digits from a 64-bit xorshift.

    The seed is masked to 64 bits; a zero state (invalid for xorshift) is
    replaced by a fixed documented constant.  Each digit is state mod
    base, with states at or above the largest multiple of base rejected,
    so every digit value is exactly equally likely per accepted state.
    The base must be at most 2**64: above it, no 64-bit state would pass
    the rejection test.

    The digits are those of one `xorshift64_step` after another, made a
    block at a time by `_bit_plane_chunks` in a base 2**k and by
    `_random_chunks`, in lanes the jump polynomial moves, in any other.
    """
    _check_random_base(base)
    seed &= _MASK64
    chunks = _random_chunks if base & (base - 1) else _bit_plane_chunks
    return DigitStream(base, chunks(base, seed or _SEED_SUBSTITUTE),
                       description=f"xorshift64 seed {seed}")


def _check_random_base(base: int) -> None:
    validate_base(base)
    if base > 1 << 64:
        raise ValueError(f"random source needs base <= 2**64, got {brief_rational(base)}")


# One xorshift step is linear over GF(2), a 64x64 bit matrix A.  Each bit
# of the state obeys x_t = XOR of x_(t-j) over j in _TAPS (Berlekamp-Massey
# on bit 0; Massey 1969, "Shift-register synthesis and BCH decoding"), so
# p(A) = 0 for the jump polynomial p(z) = z**64 + the sum of z**(64-j).
# As (sum of z**j)**D = sum of z**(j*D) over GF(2) for D a power of two,
# blocks of D bits obey the taps D apart: B_m = XOR of B_(m-j).  And
# A**e = c(A) for c(z) = z**e mod p(z), of degree below 64, so the state
# e steps after s is the XOR of the states i < 64 steps after s, one for
# each term z**i of c (Haramoto et al. 2008, "Efficient jump ahead for
# F2-linear random number generators").
_TAPS = (8, 11, 12, 13, 14, 15, 17, 18, 20, 22, 25, 27, 31, 32, 34, 36, 37, 41, 44, 48,
         51, 52, 55, 64)
_JUMP_POLYNOMIAL = 1 << 64 | sum(1 << 64 - j for j in _TAPS)
_SHIFT_BITS, _BLOCK_BITS = 1 << 10, 1 << 12


@cache
def _ahead(e: int) -> frozenset[int]:
    """The i with z**i a term of z**e mod p(z): the steps whose states XOR
    to the state e steps on.  A square over GF(2) has the terms of its
    root doubled, so z**e is the square of z**(e//2), times z if e is odd."""
    if e < 64:
        return frozenset((e,))
    c = sum(1 << 2 * i for i in _ahead(e // 2)) << (e & 1)
    while c >> 64:
        c ^= _JUMP_POLYNOMIAL << c.bit_length() - 65
    return frozenset(i for i in range(64) if c >> i & 1)


# The packed generator, for a base that is not a power of two.  A block
# holds `lanes` states in the _WIDTH-bit lanes of one int, lane k _STEPS
# states after lane k-1, so _STEPS packed steps make the lanes * _STEPS
# states that follow the block's start, lane after lane.  The bits above
# 64 in a lane take what a shift pushes out of the state, the products of
# the reduction mod base and the carry that marks a rejected state in its
# own digit, so each step makes one row of digits with the rejected ones
# marked in-band; a byte digit takes one byte of its lane, so 16 steps
# share one int before it is turned into bytes (`radix._lane_major` puts
# the rows lane after lane, as it does for rational lanes).  The first
# block has one lane, so a short read stays short, and each next one
# twice as many, up to _LANES.  Lane k of the next block starts
# _STEPS * lanes states after lane k of this one and, while the lanes
# double, lane lanes + k twice as far: each the XOR of the lane's states
# at the steps `_ahead` gives, all below 64, so the lane passes them
# within its own block and needs no jump of its own.
_WIDTH = 136
_LANE_BYTES = _WIDTH // 8
_LANES = 256
_STEPS = 128


def _random_chunks(base: int, state: int) -> Iterator:
    """The digits of the states after `state`, one chunk per block, in a
    base that is not a power of two.

    A digit is s mod base = s - q*base, where q = s*m >> shift is the
    exact quotient for every 64-bit s, with 2**l >= base, shift = 64 + l
    and m = 2**shift / base rounded up (Granlund and Montgomery 1994,
    "Division by invariant integers using multiplication", Theorem 4.2);
    s*m stays below 2**129.  The states s rejected are those with
    s + 2**64 mod base >= 2**64, those whose sum carries into bit 64 of
    their lane; a step with no such carry marks nothing.  A carry c marks
    its lane's digit with a value no digit of the base takes: 255 in a
    byte base, (c >> 56) - (c >> 64), and 2**64-1 in a word base,
    c - (c >> 64), each borrowed from the carry bit of its own lane
    alone.  The marked digits are dropped once the block is in order.
    In a byte base the digits of 16 steps are OR-ed into bytes 0-15 of
    their lanes, one int turned into bytes per 16 steps; a word digit
    fills its lane, one int a step.
    """
    small = base <= 256
    per_row = 16 if small else 1
    spill = (1 << 64) % base
    shift = 64 + (base - 1).bit_length()
    multiplier = -(-(1 << shift) // base)
    lanes, packed = 1, state
    while True:
        mask, spills, carries = (_rep(v, lanes, _LANE_BYTES) for v in (_MASK64, spill, 1 << 64))
        quotient_bits = _rep((1 << _WIDTH) - (1 << shift), lanes, _LANE_BYTES)
        same = _ahead(_STEPS * lanes)
        added = _ahead(2 * _STEPS * lanes) if lanes < _LANES else frozenset()
        rows, rejected, jumped, doubled, step = [], False, 0, 0, 0
        for _ in range(_STEPS // per_row):
            row = 0
            for offset in range(0, 8 * per_row, 8):
                if step in same:
                    jumped ^= packed
                if step in added:
                    doubled ^= packed
                step += 1
                packed ^= (packed << 13) & mask
                packed ^= (packed >> 7) & mask
                packed ^= (packed << 17) & mask
                quotients = ((packed * multiplier) & quotient_bits) >> shift
                digits = packed - quotients * base
                if carry := (packed + spills) & carries:
                    rejected = True
                    low = carry >> 56 if small else carry
                    digits |= low - (carry >> 64)
                row |= digits << offset if offset else digits
            data = row.to_bytes(_LANE_BYTES * lanes, "little")
            rows += [data[i::_LANE_BYTES] for i in range(per_row)] if small else [data]
        chunk = _lane_major(rows, lanes, None if small else _LANE_BYTES)
        if rejected:
            chunk = chunk.translate(None, b"\xff") if small else list(filter(_MASK64.__ne__, chunk))
        yield chunk
        packed = jumped | doubled << (_WIDTH * lanes)
        lanes = min(2 * lanes, _LANES)


def _bit_plane_chunks(base: int, state: int) -> Iterator:
    """The digits in base 2**k of the states after `state`, each the low k
    bits of its state, by the recurrence of _TAPS.

    A digit is a `width`-bit field, width the power of two at or above k
    (1 to 64), so one XOR serves a whole block.  The first chunk is 64
    `xorshift64_step`s, 64 one-digit blocks; each next one is 64 new
    blocks, and then, until they reach _BLOCK_BITS bits (a chunk of 32
    KiB), the old and new pair up into 64 blocks twice as long.  Below
    _SHIFT_BITS bits a block the 64 are one int, and 8 passes of 24
    shifts make 8 blocks each (the smallest tap is 8): few Python steps,
    though a pass moves some 730 blocks to make 8.  Then they are a list
    and a new block is the XOR of 24 entries.
    """
    width = 1 << (base.bit_length() - 2).bit_length()  # 1, 2, 4, ..., 64
    window = 0
    for shift in range(0, 64 * width, width):
        state = xorshift64_step(state)
        window |= (state & (base - 1)) << shift
    yield _unpack(window.to_bytes(8 * width, "little"), width)
    size = width  # bits in a block
    while size < _SHIFT_BITS:
        old, octet = window, (1 << 8 * size) - 1
        for _ in range(8):
            new = 0
            for j in _TAPS:
                new ^= window >> (64 - j) * size
            window = window >> 8 * size | (new & octet) << 56 * size
        yield _unpack(window.to_bytes(8 * size, "little"), width)
        window, size = old | window << 64 * size, 2 * size
    blocks = [window >> i & (1 << size) - 1 for i in range(0, 64 * size, size)]
    taps = itemgetter(*(-j for j in _TAPS))
    while True:
        for _ in range(64):
            blocks.append(reduce(xor, taps(blocks)))
        yield _unpack(b"".join([b.to_bytes(size // 8, "little") for b in blocks[64:]]), width)
        if size < _BLOCK_BITS:
            blocks = [low | high << size for low, high in zip(blocks[::2], blocks[1::2])]
            size *= 2
        else:
            del blocks[:64]


def _unpack(data: bytes, width: int):
    """The `width`-bit fields of `data`, lowest first: a `bytes` of one
    byte each up to 8 bits, a list of words above."""
    if width > 8:
        return list(_byte_order(array({16: "H", 32: "I", 64: "Q"}[width], data)))
    return _spread_digits(data, _byte_digits(1 << width)[::-1])


# --- digit files -----------------------------------------------------------
#
# Format: first line "base=<r>"; optionally a second line "int=<decimal>"
# giving a display-only integer part; everything after that is fractional
# digits.  For r <= 36 digits are the characters 0-9a-z; for r > 36 each
# digit is a bracketed decimal like [17], leading zeros allowed, with at
# most as many digits after them as r - 1 has: a longer token is out of
# range and never reaches int().  Whitespace is ignored anywhere in the
# digit section, which `radix._digit_reader` reads in blocks of whole
# lines and `radix._digit_fault` words the error for where it stops, so
# only `radix` knows the token format.  Files are read as ASCII with
# undecodable bytes replaced, so a stray non-ASCII byte surfaces as an
# InvalidDigitError at its line and column instead of a decoding error.
# Messages quote at most 32 characters of the file's text (`brief_text`).


@dataclass(frozen=True)
class DigitFile:
    path: Path
    base: int
    integer_value: int
    header_lines: int

    def stream(self) -> DigitStream:
        return DigitStream(
            self.base,
            _scan_digits(self.path, self.base, self.header_lines),
            description=str(self.path.name),
        )


def load_digit_file(path) -> DigitFile:
    path = Path(path)
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        first, second = fh.readline(), fh.readline().strip()
    if not first:
        raise MalformedHeaderError(path, 1, "empty file, expected base=<r>")
    m = re.fullmatch(r"base=(\d+)", first.strip())
    if not m:
        raise MalformedHeaderError(path, 1, f"expected base=<r>, got {brief_text(first.strip())}")
    base = _header_number(path, 1, m.group(1))
    if base < 2:
        raise MalformedHeaderError(path, 1, f"base must be >= 2, got {base}")
    if not second.startswith("int="):
        return DigitFile(path, base, 0, 1)
    m = re.fullmatch(r"int=(\d+)", second)
    if not m:
        raise MalformedHeaderError(path, 2, f"expected int=<decimal>, got {brief_text(second)}")
    return DigitFile(path, base, _header_number(path, 2, m.group(1)), 2)


def _header_number(path: Path, lineno: int, text: str) -> int:
    """The decimal `text` of header line `lineno` as an int, or a
    MalformedHeaderError naming its length when int() refuses it (past the
    interpreter's int-to-str digit limit)."""
    try:
        return int(text)
    except ValueError:
        raise MalformedHeaderError(
            path, lineno, f"a value of {len(text)} digits is too long to read"
        ) from None


def _scan_digits(path: Path, base: int, header_lines: int) -> Iterator:
    """The digit section of a file, one chunk of digit values per read of
    whole lines (about io.DEFAULT_BUFFER_SIZE characters, more for a longer
    line), a `bytes` up to base 256 and a list above.

    Each read goes to the base's digit reader (`radix._digit_reader`,
    whitespace skipped), which gives the digits of its longest well-formed
    start as one chunk; if that start stops short of the end of the read,
    the InvalidDigitError for the text there (`radix._digit_fault`)
    follows the chunk, at the line and column the newlines before it give.
    """
    read = _digit_reader(base, spaced=True)
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for _ in range(header_lines):
            fh.readline()
        lineno = header_lines + 1
        while block := "".join(fh.readlines(io.DEFAULT_BUFFER_SIZE)):
            digits, end = read(block)
            yield digits
            if end < len(block):
                start = block.rfind("\n", 0, end) + 1
                at, detail = _digit_fault(block, end, base, block.find("\n", end) + 1 or None)
                raise InvalidDigitError(
                    path, lineno + block.count("\n", 0, start), at - start + 1, detail)
            lineno += block.count("\n")


# --- asset resolution ------------------------------------------------------

ASSETS_ENV = "NORMALITY_LAB_ASSETS"


def resolve_digit_path(name: str) -> Path:
    """Locate a digit file by name.

    Absolute paths and paths with directory components are used as given.
    Bare names are looked up in $NORMALITY_LAB_ASSETS when that is set
    (and only there); otherwise in the working directory, then among the
    packaged assets.
    """
    p = Path(name)
    if p.is_absolute() or len(p.parts) > 1:
        return p
    env = os.environ.get(ASSETS_ENV)
    if env:
        return Path(env) / name
    if p.exists():
        return p
    packaged = resources.files("normality_lab") / "assets" / name
    if packaged.is_file():
        return Path(str(packaged))
    return p


# --- source specs ----------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    """Parsed description of a digit source, in `base`: for a file, its
    header base or a power of it, regrouped; `file` is its header."""

    kind: str
    base: int
    value: Fraction | None = None
    file: DigitFile | None = None
    seed: int | None = None
    spelled: str = ""

    def expansion(self) -> DigitExpansion:
        """The integer digits (a file's int= value, else none) and a fresh
        fractional stream, both in `base`."""
        if self.kind == "rational":
            s = rational_stream(self.value, self.base)
        elif self.kind == "champernowne":
            s = champernowne_stream(self.base)
        elif self.kind == "file":
            s = self.file.stream()
        elif self.kind == "random":
            s = random_stream(self.base, self.seed)
        else:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.spelled:
            s.description = self.spelled
        if s.base != self.base:
            s = regroup_to_power_base(s, power_exponent(s.base, self.base))
        integer = self.file.integer_value if self.file else 0
        return DigitExpansion(self.base, int_to_digits(integer, self.base), s)

    def stream(self) -> DigitStream:
        return self.expansion().fractional


def power_exponent(root: int, power: int) -> int | None:
    """The n >= 1 with root**n == power, or None if there is none."""
    if root < 2 or power < 2:
        return None
    n, value = 1, root
    while value < power:
        value *= root
        n += 1
    return n if value == power else None


def parse_prefix_digits(text: str, base: int) -> Fraction:
    """Value of an explicit digit prefix: sum of d_j * base**-j."""
    digits = parse_digit_text(text, base)
    return Fraction(digits_to_int(digits, base), base ** len(digits))


def parse_source_spec(text: str, base: int | None = None) -> SourceSpec:
    """Parse CLI source spellings.

    "rational:1/3", "rational:0.25", "rational:11010111011-prefix",
    "champernowne", "file:pi_base10.digits", "random:42".  All kinds but
    "file" need an explicit base; a file's is its header base, or `base`
    when given, which must be the header base or a power of it.
    """
    text = text.strip()
    kind, _, arg = text.partition(":")

    if kind == "file":
        if not arg:
            raise ValueError("file source needs a path: file:<name>")
        file = load_digit_file(resolve_digit_path(arg))
        base = file.base if base is None else base
        if power_exponent(file.base, base) is None:
            raise ValueError(
                f"source is base {file.base}; {base} is neither equal to it nor a power of it"
            )
        return SourceSpec(kind="file", base=base, file=file, spelled=text)

    if base is None:
        raise ValueError(f"source {brief_text(text)} needs an explicit base")
    validate_base(base)

    if kind == "champernowne" and not arg:
        return SourceSpec(kind="champernowne", base=base, spelled=text)
    if kind == "rational":
        if arg.endswith("-prefix"):
            value = parse_prefix_digits(arg[: -len("-prefix")], base)
        else:
            value = parse_rational(arg)
        if not 0 <= value < 1:
            raise ValueError(f"rational source must be in [0, 1), got {brief_rational(value)}")
        return SourceSpec(kind="rational", base=base, value=value, spelled=text)
    if kind == "random":
        try:
            seed = int(arg, 0)
        except ValueError:  # not an integer, or a decimal one past the int-to-str limit
            decimal = re.fullmatch(r"\s*([+-]?)([1-9](?:_?[0-9])*)\s*", arg)
            if not decimal:
                raise ValueError(
                    f"random source needs an integer seed, got {brief_text(arg)}") from None
            seed = digits_to_int(parse_digit_text(decimal[2].replace("_", ""), 10), 10)
            seed = -seed if decimal[1] == "-" else seed
        _check_random_base(base)
        return SourceSpec(kind="random", base=base, seed=seed & _MASK64, spelled=text)

    raise ValueError(
        f"unknown source {brief_text(text)}; expected rational:, champernowne,"
        " file:, or random:"
    )
