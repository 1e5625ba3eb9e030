"""Exact rational arithmetic primitives.

Everything in this package that is a number is either a Python int or a
:class:`fractions.Fraction`.  Floats never enter any computation:
measures, deviations, bounds and polynomial coefficients are all exact,
and decimal strings exist only as labeled display approximations
produced by :func:`decimal_approx`.
"""
from __future__ import annotations

import decimal
import re
from fractions import Fraction

#: significant digits used for display approximations
APPROX_DIGITS = 12

#: largest |e| parse_rational reads in a decimal exponent: Fraction builds
#: 10**|e| in full, which at |e| = 10**8 ran for more than half a minute
MAX_DECIMAL_EXPONENT = 10**6


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
        # Fraction's own message is kept unless it only quotes the text again
        detail = "" if repr(text.strip()) in str(exc) else f" ({exc})"
        raise ValueError(f"not a rational number: {brief_text(text)}{detail}") from None


def format_rational(q: Fraction) -> str:
    """Canonical string form: "num/den" in lowest terms, or "num" for integers.

    Digits go through Decimal, which converts ints exactly at any size, so
    values past the interpreter's int-to-str digit limit still print.
    """
    q = Fraction(q)
    num, den = (str(decimal.Decimal(v)) for v in (q.numerator, q.denominator))
    return num if den == "1" else f"{num}/{den}"


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
    with decimal.localcontext() as ctx:
        ctx.prec = APPROX_DIGITS
        return str(decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator))
