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
line at a time and random digits a block of xorshift states at a time,
each block one `bytes` (a tuple or list above base 256) that the
:class:`DigitStream` reads as one chunk, with no per-digit step.  The
random blocks come from many xorshift states stepped together in the
lanes of one int; see `_random_chunks`.
"""
from __future__ import annotations

import operator
import os
import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import chain, compress, count
from pathlib import Path
from typing import Iterator

from .errors import InvalidDigitError, MalformedHeaderError
from .exact import parse_rational
from .radix import (
    ALPHABET,
    CHAR_VALUE,
    DigitExpansion,
    DigitStream,
    _TOKEN,
    _byte_order,
    _digit_table,
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
        raise ValueError(f"rational source must be in [0, 1), got {value}")
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
    block at a time by `_random_chunks`.
    """
    _check_random_base(base)
    state = seed & _MASK64
    if state == 0:
        state = _SEED_SUBSTITUTE
    return DigitStream(
        base, _random_chunks(base, state), description=f"xorshift64 seed {seed}"
    )


def _check_random_base(base: int) -> None:
    validate_base(base)
    if base > 1 << 64:
        raise ValueError(f"random source needs base <= 2**64, got {base}")


# The packed generator.  xorshift is linear over GF(2): one step is a
# 64x64 bit matrix A, and A**e (built by squaring) jumps e steps ahead
# (Haramoto et al. 2008, "Efficient jump ahead for F2-linear random
# number generators").  A block holds `lanes` states in the _WIDTH-bit
# lanes of one int, lane k _STEPS states after lane k-1, so _STEPS packed
# steps make the lanes * _STEPS states that follow the block's start,
# lane after lane.  The bits above 64 in a lane take what a shift pushes
# out of the state and the products of the reduction mod base.  The
# first block has one lane, so a short read stays short, and each next
# one twice as many, spread out from the last state of the block before;
# from _LANES lanes on, one jump moves every lane to the next block.
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
    return tuple(
        int.from_bytes(data[k : k + 8], "little") for k in range(0, len(data), _LANE_BYTES)
    )


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
    """The digits of the states after `state`, one chunk per block.

    A power-of-two base masks its digits out of the states.  Any other
    base takes s mod base = s - q*base, where q = s*m >> shift is the
    exact quotient for every 64-bit s, with 2**l >= base, shift = 64 + l
    and m = 2**shift / base rounded up (Granlund and Montgomery 1994,
    "Division by invariant integers using multiplication", Theorem 4.2);
    s*m stays below 2**129.  Such a base also rejects the states s with
    s + 2**64 mod base >= 2**64: a step where that sum carries into bit 64
    of some lane records which lanes did, and their digits are dropped
    once the block is in order.
    """
    small = base <= 256
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
        rows, rejected = [], {}
        for j in range(_STEPS):
            packed ^= (packed << 13) & mask
            packed ^= (packed >> 7) & mask
            packed ^= (packed << 17) & mask
            if spill:
                if carry := (packed + spills) & carries:
                    rejected[j] = _lane_bytes(carry >> 64, lanes, True)
                quotients = ((packed * multiplier) & quotient_bits) >> shift
                digits = packed - quotients * base
            else:
                digits = packed & digit_bits
            rows.append(_lane_bytes(digits, lanes, small))
        chunk = _lane_major(rows, lanes, small)
        if rejected:
            flags = [rejected.get(j, bytes(lanes)) for j in range(_STEPS)]
            keep = map(operator.not_, _lane_major(flags, lanes, True))
            chunk = (bytes if small else list)(compress(chunk, keep))
        yield chunk
        if lanes < _LANES:
            lanes *= 2
            packed = _spread(packed >> (_WIDTH * (lanes // 2 - 1)), lanes)
        else:
            packed = _apply(_jump_matrices()[1], packed, lanes)


def _lane_bytes(packed: int, lanes: int, small: bool) -> bytes:
    """The low byte (`small`) or the low 8 bytes, little-endian, of each
    lane, lane after lane."""
    data = packed.to_bytes(_LANE_BYTES * lanes, "little")
    if small:
        return data[::_LANE_BYTES]
    words = bytearray(8 * lanes)
    for i in range(8):
        words[i::8] = data[i::_LANE_BYTES]
    return bytes(words)


def _lane_major(rows: list[bytes], lanes: int, small: bool):
    """Rows from `_lane_bytes`, one per step, as each lane's digits in
    turn: a `bytes` of byte digits (`small`) or a list of 64-bit ones."""
    flat = b"".join(rows)
    if small:
        return b"".join(flat[k::lanes] for k in range(lanes))
    words = _byte_order(array("Q", flat))
    return list(chain.from_iterable(words[k::lanes] for k in range(lanes)))


# --- digit files -----------------------------------------------------------
#
# Format: first line "base=<r>"; optionally a second line "int=<decimal>"
# giving a display-only integer part; everything after that is fractional
# digits.  For r <= 36 digits are the characters 0-9a-z; for r > 36 each
# digit is a bracketed decimal like [17].  Whitespace is ignored anywhere
# in the digit section.  Files are read as ASCII with undecodable bytes
# replaced, so a stray non-ASCII byte surfaces as an InvalidDigitError at
# its line and column instead of a decoding error.


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
        raise MalformedHeaderError(path, 1, f"expected base=<r>, got {first.strip()!r}")
    base = int(m.group(1))
    if base < 2:
        raise MalformedHeaderError(path, 1, f"base must be >= 2, got {base}")
    if not second.startswith("int="):
        return DigitFile(path, base, 0, 1)
    m = re.fullmatch(r"int=(\d+)", second)
    if not m:
        raise MalformedHeaderError(path, 2, f"expected int=<decimal>, got {second!r}")
    return DigitFile(path, base, int(m.group(1)), 2)


# the characters str.isspace() accepts in a file read as ASCII
_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())
_SPACE_BYTES = _SPACE.encode()


def _scan_digits(path: Path, base: int, header_lines: int) -> Iterator:
    """The digit section of a file, one chunk of digit values per line, a
    `bytes` up to base 256 and a list above.

    A line of bracket tokens up to base 256 is first tried by
    `_bracket_line`.  Every other line is cut at the end of its longest
    well-formed prefix.  That prefix becomes one chunk (one
    `bytes.translate` up to base 36, one `re.findall` of bracket tokens
    above); if the cut is short of the end of the line, or a bracket token
    is out of range, the digits before the first bad character come out
    and then the InvalidDigitError for it.
    """
    space = re.escape(_SPACE)
    # the canonical text of each digit inside its brackets
    tokens = {str(d).encode(): d for d in range(base)} if 36 < base <= 256 else None
    pack = bytes if base <= 256 else list
    if base <= 36:
        well_formed = re.compile(f"[{space}{ALPHABET[:base]}]*")
        values = bytes.maketrans(ALPHABET[:base].encode(), bytes(range(base)))
    else:
        well_formed = re.compile(f"(?:[{space}]*{_TOKEN.pattern})*[{space}]*")
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno <= header_lines:
                continue
            if tokens and (chunk := _bracket_line(line, tokens)) is not None:
                yield chunk
                continue
            cut = well_formed.match(line).end()
            if base <= 36:
                yield line[:cut].encode("ascii").translate(values, _SPACE_BYTES)
                if cut < len(line):
                    raise _bad_character(path, base, lineno, line, cut)
            else:
                digits = list(map(int, _TOKEN.findall(line, 0, cut)))
                if digits and max(digits) >= base:
                    k = next(k for k, d in enumerate(digits) if d >= base)
                    yield pack(digits[:k])
                    token = list(_TOKEN.finditer(line, 0, cut))[k]
                    raise InvalidDigitError(
                        path, lineno, token.start() + 2,
                        f"digit [{digits[k]}] out of range for base {base}",
                    )
                yield pack(digits)
                if cut < len(line):
                    raise _bad_token(path, lineno, line, cut)


def _bracket_line(line: str, tokens: dict[bytes, int]) -> bytes | None:
    """The digits of a line of canonical bracket tokens, or None.

    The line is taken as `bytes` with the whitespace at its ends cut off,
    must start with "[" and end with "]", and each text between "][" must
    be a key of `tokens`, which maps it to its digit.  Anything else (a token like [007] or [300] in
    base 100, whitespace between or inside tokens, a stray or non-ASCII
    character) gives None, and the regex scan reads the line instead.
    """
    if not line.isascii():
        return None
    data = line.encode("ascii").strip(_SPACE_BYTES)
    if not data:
        return data
    if data[:1] != b"[" or data[-1:] != b"]":
        return None
    try:
        return bytes(map(tokens.__getitem__, data[1:-1].split(b"][")))
    except KeyError:
        return None


def _bad_character(
    path: Path, base: int, lineno: int, line: str, col: int
) -> InvalidDigitError:
    """The error for the character at 0-based `col`, which is neither
    whitespace nor a digit of `base`."""
    ch = line[col]
    value = CHAR_VALUE.get(ch)
    if value is None:
        return InvalidDigitError(
            path, lineno, col + 1, f"invalid digit character {ch!r}"
        )
    return InvalidDigitError(
        path, lineno, col + 1, f"digit {ch!r} (= {value}) out of range for base {base}"
    )


def _bad_token(path: Path, lineno: int, line: str, col: int) -> InvalidDigitError:
    """The error for the text at 0-based `col`, which starts no
    well-formed bracket token."""
    ch = line[col]
    if ch != "[":
        return InvalidDigitError(path, lineno, col + 1, f"expected '[', got {ch!r}")
    end = line.find("]", col + 1)
    if end == -1:
        return InvalidDigitError(path, lineno, col + 1, "unterminated '[' token")
    return InvalidDigitError(
        path, lineno, col + 2,
        f"expected decimal digits inside [], got {line[col + 1:end]!r}",
    )


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
        raise ValueError(f"source {text!r} needs an explicit base")
    validate_base(base)

    if kind == "champernowne" and not arg:
        return SourceSpec(kind="champernowne", base=base, spelled=text)
    if kind == "rational":
        if arg.endswith("-prefix"):
            value = parse_prefix_digits(arg[: -len("-prefix")], base)
        else:
            value = parse_rational(arg)
        if not 0 <= value < 1:
            raise ValueError(f"rational source must be in [0, 1), got {value}")
        return SourceSpec(kind="rational", base=base, value=value, spelled=text)
    if kind == "random":
        try:
            seed = int(arg, 0)
        except ValueError:
            raise ValueError(f"random source needs an integer seed, got {arg!r}") from None
        _check_random_base(base)
        return SourceSpec(kind="random", base=base, seed=seed, spelled=text)

    raise ValueError(
        f"unknown source {text!r}; expected rational:, champernowne,"
        " file:, or random:"
    )
