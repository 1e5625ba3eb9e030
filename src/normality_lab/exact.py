"""Exact rational arithmetic primitives.

Everything in this package that is a number is either a Python int or a
:class:`fractions.Fraction`.  Floats never enter any computation:
measures, deviations, bounds and polynomial coefficients are all exact,
and decimal strings exist only as labeled display approximations
produced by :func:`decimal_approx`.

Text is made from integer pairs.  `_int_text(v)` is `str(v)` up to
_STR_BITS = 8192 bits (2467 digits).  CPython's int-to-str is quadratic
and refuses ints past 4300 digits by default, so a longer int is cut in
halves on powers of two with `>>` and `&` until each part is at most
_STR_BITS bits, and libmpdec joins the parts by exact multiply-adds; its
decimal product is subquadratic and its str() linear, so 10**6 digits
take about 0.5 s where `decimal.Decimal(v)` alone is quadratic.
`_rational_text(num, den)` writes a reduced pair and
`_approx_text(num, den)` its 12-digit label, from any pair in integer
steps whose size follows the pair's, with no exponent limit;
format_rational and decimal_approx read a Fraction's two ints into them.
"""
from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

#: significant digits used for display approximations
APPROX_DIGITS = 12

#: largest |e| parse_rational reads in a decimal exponent: Fraction builds
#: 10**|e| in full, which at |e| = 10**8 ran for more than half a minute
MAX_DECIMAL_EXPONENT = 10**6

#: most digits parse_rational reads in one literal.  Past the int-to-str
#: limit the digit runs are read by radix.digits_to_int: 10**6 threes took
#: 1.5 s, and 10**6 random digits 16 s, most of it in the gcd that reduces
#: the Fraction (Python 3.11, 2-core VM)
MAX_LITERAL_DIGITS = 10**6

# an int of at most this many bits is written by str(), which stays fast
# and well inside the default 4300-digit int-to-str limit up to here
_STR_BITS = 8192

# libmpdec with no rounding and no exponent limit: every product of the
# joins in _int_text is exact
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

_LOG10_2 = math.log10(2)


def binomial_row(n: int) -> list[int]:
    """All of C(n, 0..n) in one pass, cheaper than n+1 comb() calls.

    The pass runs over the left half only: C(n,p) = C(n,n-p) fills the
    mirrored entry with the same value.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    row = [1] * (n + 1)
    for p in range(n // 2):
        row[p + 1] = row[n - p - 1] = row[p] * (n - p) // (p + 1)
    return row


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", "a", or an exact decimal literal like "0.25".

    Decimal and scientific forms are read as exact base-10 values
    (Fraction("1e-3") == 1/1000); binary floats are never involved.  An
    exponent past MAX_DECIMAL_EXPONENT in absolute value is refused before
    Fraction builds its power of ten.
    """
    # the exponent as Fraction's grammar reads it: sign, either case,
    # underscores between digits, spaces after
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    if exponent:
        try:
            in_range = abs(int(exponent[1])) <= MAX_DECIMAL_EXPONENT
        except ValueError:  # too many digits for int()
            in_range = False
        if not in_range:
            raise ValueError(
                f"decimal exponent out of range in {brief_text(text)}:"
                f" its absolute value may be at most {MAX_DECIMAL_EXPONENT}"
            )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        if "integer string conversion" in str(exc):  # the int-to-str digit limit
            return _long_literal(text)
        # Fraction's own message is kept unless it only quotes the text again
        detail = "" if repr(text.strip()) in str(exc) else f" ({exc})"
        raise ValueError(f"not a rational number: {brief_text(text)}{detail}") from None


# the parts of a literal Fraction's grammar has accepted: sign, numerator,
# then a denominator or a fractional part and an exponent
_LITERAL = re.compile(
    r"\s*([-+]?)(\d*(?:_\d+)*)"
    r"(?:\s*/\s*(\d+(?:_\d+)*)|(?:\.(\d*(?:_\d+)*))?(?:e([-+]?\d+(?:_\d+)*))?)\s*",
    re.IGNORECASE,
)


def _long_literal(text: str) -> Fraction:
    """The value of a literal Fraction read but whose integers are past the
    int-to-str digit limit: each digit run is read by radix.digits_to_int,
    as a long `random:` seed is, up to MAX_LITERAL_DIGITS digits in all."""
    from .radix import digits_to_int  # radix imports this module

    parts = _LITERAL.fullmatch(text)
    if not parts:  # Python 3.11's Fraction matches "1.d", then fails on int("d")
        raise ValueError(f"not a rational number: {brief_text(text)}")
    sign, num, den, frac, exp = (part and part.replace("_", "") for part in parts.groups())
    size = len(num) + len(den or frac or "")
    if size > MAX_LITERAL_DIGITS:
        raise ValueError(f"not a rational number: {brief_text(text)} has {size} digits,"
                         f" more than {MAX_LITERAL_DIGITS}")

    def read(run: str) -> int:  # int() reads every Unicode digit, as Fraction does
        return digits_to_int([int(d) for d in run], 10) if run else 0

    if den:
        value = Fraction(read(num), read(den))
    else:
        power = int(exp or 0) - len(frac or "")
        value = Fraction(read(num + (frac or "")) * 10 ** max(power, 0), 10 ** max(-power, 0))
    return -value if sign == "-" else value


def _int_text(v: int) -> str:
    """str(v) for an int of any length: str() itself up to _STR_BITS bits,
    else halves cut on powers of two and joined exactly in libmpdec."""
    if v.bit_length() <= _STR_BITS:
        return str(v)
    # powers[j] = 2**(_STR_BITS << j), each the square of the one before
    powers = [decimal.Decimal(1 << _STR_BITS)]
    while _STR_BITS << len(powers) < v.bit_length():
        powers.append(_EXACT.multiply(powers[-1], powers[-1]))

    def join(part: int, j: int) -> decimal.Decimal:
        # part < 2**(_STR_BITS << (j + 1)): it splits on powers[j] at most
        while j >= 0 and part.bit_length() <= _STR_BITS << j:
            j -= 1
        if j < 0:
            return decimal.Decimal(part)
        shift = _STR_BITS << j
        return _EXACT.fma(join(part >> shift, j - 1), powers[j],
                          join(part & ((1 << shift) - 1), j - 1))

    text = str(join(abs(v), len(powers) - 1))
    return "-" + text if v < 0 else text


def _rational_text(num: int, den: int) -> str:
    """"num/den", or "num" when den is 1, for a pair in lowest terms with
    den > 0."""
    text = _int_text(num)
    return text if den == 1 else f"{text}/{_int_text(den)}"


def format_rational(q: Fraction) -> str:
    """Canonical string form: "num/den" in lowest terms, or "num" for integers.

    Values past the interpreter's int-to-str digit limit print too, by
    _int_text.
    """
    return _rational_text(q.numerator, q.denominator)


# a value whose numerator or denominator is longer than this is named in a
# message by its size: 256 bits is 78 decimal digits at most
_SHOWN_BITS = 256


def brief_rational(q: Fraction) -> str:
    """`format_rational(q)` while it is short, else a note of its size.

    Error messages name a value through it, so a value of a million digits
    neither prints in full nor trips the int-to-str digit limit.
    """
    q = Fraction(q)
    num, den = q.numerator.bit_length(), q.denominator.bit_length()
    if max(num, den) <= _SHOWN_BITS:
        return format_rational(q)
    sign = "a negative" if q < 0 else "a"
    return f"{sign} rational too long to show ({num}-bit numerator, {den}-bit denominator)"


# outside text a message quotes is cut to this many characters
_SHOWN_CHARS = 32


def brief_text(text: str, quoted: bool = True) -> str:
    """`text` as a message quotes it: its repr, or the text itself when not
    `quoted`, cut to its first 32 characters and then "..." when longer.

    Text from the command line or a file may be megabytes long; a message
    that names it through this stays a line.
    """
    shown = text[:_SHOWN_CHARS]
    return (repr(shown) if quoted else shown) + ("..." if len(text) > _SHOWN_CHARS else "")


def decimal_approx(q: Fraction) -> str:
    """Display-only decimal approximation to APPROX_DIGITS significant digits.

    The result is a label for humans; all comparisons in this package are
    done on the exact values.
    """
    return _approx_text(q.numerator, q.denominator)


def _approx_text(num: int, den: int) -> str:
    """str(Decimal(num) / Decimal(den)) at APPROX_DIGITS significant digits
    (round half even), for den > 0 and at any magnitude.

    One integer division gives the leading 15 to 17 digits of |num|/den
    and whether anything is left over, which decides the rounding; an
    exact quotient drops trailing zeros down to exponent 0, as Decimal's
    division does.  The pair need not be in lowest terms.
    """
    if not num:
        return "0"
    a = abs(num)
    # a power of ten 15 to 17 digits below the value's leading digit, from
    # the bit lengths alone (with one digit to spare for the float product)
    exp = math.floor((a.bit_length() - den.bit_length() - 1) * _LOG10_2) - APPROX_DIGITS - 3
    lead, rest = divmod(a * 10**-exp, den) if exp < 0 else divmod(a, den * 10**exp)
    extra = len(str(lead)) - APPROX_DIGITS
    coeff, cut = divmod(lead, 10**extra)
    exp += extra
    half = 5 * 10 ** (extra - 1)
    if cut > half or cut == half and (rest or coeff % 2):
        coeff += 1
        if coeff == 10**APPROX_DIGITS:
            coeff, exp = coeff // 10, exp + 1
    elif not (cut or rest):
        while exp < 0 and coeff % 10 == 0:
            coeff, exp = coeff // 10, exp + 1
    return str(decimal.Decimal(f"{'-' if num < 0 else ''}{coeff}E{exp}"))
