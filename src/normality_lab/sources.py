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
states at a time, each block one `bytes` (a tuple or list above base
256) that the :class:`DigitStream` reads as one chunk, with no per-digit
step.  In a base 2**k <= 256 the random blocks come from the linear
recurrence that every state bit obeys, a block of digits at a time; see
`_bit_plane_chunks`.  In any other base they come from many xorshift
states stepped together in the lanes of one int; see `_random_chunks`.
"""
from __future__ import annotations

import io
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from importlib import resources
from itertools import chain, count
from operator import itemgetter, xor
from pathlib import Path
from typing import Iterator

from .errors import InvalidDigitError, MalformedHeaderError
from .exact import brief_rational, brief_text, parse_rational
from .radix import (
    CHAR_VALUE,
    DigitExpansion,
    DigitStream,
    _digit_reader,
    _digit_table,
    _lane_major,
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

    With t and its table from `_digit_table`, the integers below base**t
    come first, each its table entry without the leading zeros.  Then comes
    one chunk per high part hi: the integers hi*base**t up to
    (hi+1)*base**t - 1, each the digits of hi followed by t table digits.
    """
    validate_base(base)
    t, table = _digit_table(base)
    pack = type(table[0])

    def chunks() -> Iterator:
        yield pack(chain.from_iterable(  # the k-digit integers, t-k zeros cut
            e[t - k :] for k in range(1, t + 1) for e in table[base ** (k - 1) : base**k]))
        for hi in count(1):
            head = pack(int_to_digits(hi, base))
            if pack is bytes:
                yield head + head.join(table)
            else:
                yield tuple(d for low in table for d in head + low)

    return DigitStream(base, chunks(), description=f"champernowne base {base}")


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
    block at a time by `_bit_plane_chunks` in a base 2**k <= 256 and by
    `_random_chunks` in any other.
    """
    _check_random_base(base)
    seed &= _MASK64
    chunks = _bit_plane_chunks if base <= 256 and not base & (base - 1) else _random_chunks
    return DigitStream(base, chunks(base, seed or _SEED_SUBSTITUTE),
                       description=f"xorshift64 seed {seed}")


def _check_random_base(base: int) -> None:
    validate_base(base)
    if base > 1 << 64:
        raise ValueError(f"random source needs base <= 2**64, got {brief_rational(base)}")


# The packed generator.  xorshift is linear over GF(2): one step is a
# 64x64 bit matrix A, and A**e (built by squaring) jumps e steps ahead
# (Haramoto et al. 2008, "Efficient jump ahead for F2-linear random
# number generators").  A block holds `lanes` states in the _WIDTH-bit
# lanes of one int, lane k _STEPS states after lane k-1, so _STEPS packed
# steps make the lanes * _STEPS states that follow the block's start,
# lane after lane.  The bits above 64 in a lane take what a shift pushes
# out of the state, the products of the reduction mod base and the carry
# that marks a rejected state in its own digit, so each step makes one
# row of digits with the rejected ones marked in-band; a byte digit
# takes one byte of its lane, so 16 steps share one int before it is
# turned into bytes (`radix._lane_major` puts the rows lane after lane,
# as it does for rational lanes).  The first block has one lane, so a
# short read stays short, and each next one twice as many, spread out
# from the last state of the block before; from _LANES lanes on, one
# jump moves every lane to the next block.
_WIDTH = 136
_LANE_BYTES = _WIDTH // 8
_LANES = 256
_STEPS = 128


def _rep(value: int, lanes: int) -> int:
    """`value` (below 2**_WIDTH) in each of `lanes` lanes."""
    return int.from_bytes(value.to_bytes(_LANE_BYTES, "little") * lanes, "little")


def _apply(columns: tuple[int, ...], packed: int, lanes: int) -> int:
    """The matrix, given by its 64 columns, applied to the 64-bit value in
    each of `lanes` lanes."""
    ones = _rep(1, lanes)
    out = 0
    for i, column in enumerate(columns):
        out ^= ((packed >> i) & ones) * column
    return out


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The matrix product a b, each matrix given by its 64 columns: a
    applied to the columns of b, held in 64 lanes."""
    packed = b"".join(column.to_bytes(_LANE_BYTES, "little") for column in b)
    data = _apply(a, int.from_bytes(packed, "little"), 64).to_bytes(len(packed), "little")
    return tuple(_lane_major([data], 64, _LANE_BYTES))


@cache
def _jump_matrices() -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(doubling, jump): doubling[i] is A**(_STEPS * 2**i), for the lanes
    that `_spread` adds; jump is A**((_LANES - 1) * _STEPS), which moves
    each lane of a full block to its place in the next block."""
    power = tuple(xorshift64_step(1 << i) for i in range(64))
    for _ in range(_STEPS.bit_length() - 1):
        power = _compose(power, power)
    doubling = [power]
    while len(doubling) < _LANES.bit_length() - 1:
        doubling.append(_compose(doubling[-1], doubling[-1]))
    jump = doubling[0]
    for power in doubling[1:]:
        jump = _compose(power, jump)
    return tuple(doubling), jump


def _spread(state: int, lanes: int) -> int:
    """Lanes holding `state` and the states _STEPS, 2*_STEPS, ... after it."""
    packed, n = state, 1
    for power in _jump_matrices()[0]:
        if n == lanes:
            break
        packed |= _apply(power, packed, n) << (_WIDTH * n)
        n *= 2
    return packed


def _random_chunks(base: int, state: int) -> Iterator:
    """The digits of the states after `state`, one chunk per block, in a
    base above 256 or not a power of two.

    A power-of-two base masks its digits out of the states.  Any other
    base takes s mod base = s - q*base, where q = s*m >> shift is the
    exact quotient for every 64-bit s, with 2**l >= base, shift = 64 + l
    and m = 2**shift / base rounded up (Granlund and Montgomery 1994,
    "Division by invariant integers using multiplication", Theorem 4.2);
    s*m stays below 2**129.  Such a base also rejects the states s with
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
        mask = _rep(_MASK64, lanes)
        if spill:
            spills, carries = _rep(spill, lanes), _rep(1 << 64, lanes)
            quotient_bits = _rep((1 << _WIDTH) - (1 << shift), lanes)
        else:
            digit_bits = _rep(base - 1, lanes)
        rows, rejected = [], False
        for _ in range(_STEPS // per_row):
            row = 0
            for offset in range(0, 8 * per_row, 8):
                packed ^= (packed << 13) & mask
                packed ^= (packed >> 7) & mask
                packed ^= (packed << 17) & mask
                if spill:
                    quotients = ((packed * multiplier) & quotient_bits) >> shift
                    digits = packed - quotients * base
                    if carry := (packed + spills) & carries:
                        rejected = True
                        low = carry >> 56 if small else carry
                        digits |= low - (carry >> 64)
                else:
                    digits = packed & digit_bits
                row |= digits << offset if offset else digits
            data = row.to_bytes(_LANE_BYTES * lanes, "little")
            rows += [data[i::_LANE_BYTES] for i in range(per_row)] if small else [data]
        chunk = _lane_major(rows, lanes, None if small else _LANE_BYTES)
        if rejected:
            chunk = chunk.translate(None, b"\xff") if small else list(filter(_MASK64.__ne__, chunk))
        yield chunk
        if lanes < _LANES:
            lanes *= 2
            packed = _spread(packed >> (_WIDTH * (lanes // 2 - 1)), lanes)
        else:
            packed = _apply(_jump_matrices()[1], packed, lanes)


# Each bit of the xorshift state obeys x_t = XOR of x_(t-j) over j in
# _TAPS (Berlekamp-Massey on bit 0; Massey 1969, "Shift-register synthesis
# and BCH decoding"), and as (sum of z**j)**D = sum of z**(j*D) over GF(2)
# for D a power of two, so do blocks of D bits: B_m = XOR of B_(m-j).
_TAPS = (8, 11, 12, 13, 14, 15, 17, 18, 20, 22, 25, 27, 31, 32, 34, 36, 37, 41, 44, 48,
         51, 52, 55, 64)
_SHIFT_BITS, _BLOCK_BITS = 1 << 10, 1 << 12


def _bit_plane_chunks(base: int, state: int) -> Iterator[bytes]:
    """The digits in base 2**k <= 256 of the states after `state`, each
    the low k bits of its state, by the recurrence of _TAPS.

    A digit is a `width`-bit field, width the power of two at or above k,
    so one XOR serves a whole block.  The first chunk is 64
    `xorshift64_step`s, 64 one-digit blocks; each next one is 64 new
    blocks, and then, until they reach _BLOCK_BITS bits (a chunk of 32
    KiB), the old and new pair up into 64 blocks twice as long.  Below
    _SHIFT_BITS bits a block the 64 are one int, and 8 passes of 24
    shifts make 8 blocks each (the smallest tap is 8): few Python steps,
    though a pass moves some 730 blocks to make 8.  Then they are a list
    and a new block is the XOR of 24 entries.
    """
    width = 1 << (base.bit_length() - 2).bit_length()  # 1, 2, 4 or 8
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


@cache
def _field_tables(width: int) -> tuple[bytes, ...]:
    """Per `width`-bit field of a byte, lowest first, the byte's field."""
    return tuple(bytes(v >> i & (1 << width) - 1 for v in range(256)) for i in range(0, 8, width))


def _unpack(data: bytes, width: int) -> bytes:
    """The `width`-bit fields of `data`, lowest first, one byte each."""
    if width == 8:
        return data
    tables = _field_tables(width)
    digits = bytearray(len(data) * len(tables))
    for i, table in enumerate(tables):
        digits[i :: len(tables)] = data.translate(table)
    return bytes(digits)


# --- digit files -----------------------------------------------------------
#
# Format: first line "base=<r>"; optionally a second line "int=<decimal>"
# giving a display-only integer part; everything after that is fractional
# digits.  For r <= 36 digits are the characters 0-9a-z; for r > 36 each
# digit is a bracketed decimal like [17], leading zeros allowed, with at
# most as many digits after them as r - 1 has: a longer token is out of
# range and never reaches int().  Whitespace is ignored anywhere in the
# digit section, which `radix._digit_reader` reads in blocks of whole
# lines, so only `radix` knows the token format.  Files are read as
# ASCII with undecodable bytes replaced, so a stray non-ASCII byte
# surfaces as an InvalidDigitError at its line and column instead of a
# decoding error.  Messages quote at most 32 characters of the file's
# text (`brief_text`).


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
    the InvalidDigitError for the text there follows the chunk, at the
    line and column the newlines before it give.
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
                line = block[start : block.find("\n", end) + 1 or None]
                lineno += block.count("\n", 0, start)
                raise _bad_digit(path, base, lineno, line, end - start)
            lineno += block.count("\n")


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
