"""Fourth-moment machinery for digit-frequency deviations.

Everything here is about one random quantity: the count X of a fixed
digit among n independent uniform base-r digits.  The generating
polynomial sum_p C(n,p) x^(s*p) y^(n-p) (which is just (x**s + y)**n)
turns into moment sums under the Euler-type operator x*d/dx - y*d/dy,
because each application multiplies the p-th coefficient by
s*p - (n-p).  With s = r-1 and the specialization x**s = 1/r,
y = (r-1)/r, k applications evaluate to E[(r*X - n)**k]; k=1 vanishes
(the mean is killed by construction) and k=4 has a closed quadratic
form in n whose coefficient bound C turns the fourth moment into the
D/n**2 tail bound that drives all the measure estimates.

All coefficients and values are exact; the only floats anywhere are the
display columns of the CSV rows.  The hot sums run on ints: a
polynomial is one dense row of n + 1 coefficients, apply_euler_operator
takes k operator steps (one by default) as k passes that multiply the
row by the factors its monomials' exponents give, evaluation is one
Horner pass over the row and builds a single Fraction at the end, and
the direct moment sums come from one pass over n that adds a digit per
step and carries two centered sums of the digit string counts, each
divided by the string count r**n, so a sweep up to n_max costs O(n_max)
steps on ints a few words long.  A row of that sweep keeps the integer
numerator of its moment, decides the bound by one integer comparison,
and builds its Fractions only when they are read.  The operator route
has a sweep over n of its own: each row C(n, 0..n) comes from the
previous one by Pascal's rule, since
(x**s + y)**n = (x**s + y) * (x**s + y)**(n-1).  The row does not
depend on the base, so one walk of Pascal's triangle serves every base
of the sweep.  Nor do the operator's factors depend on the row: the
sweep makes its k passes once per base, over a table of every factor a
row up to n_max can meet, and at each n multiplies the one row by a
slice of that table and specializes it once per base, all in one
process.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import add, mul, sub

from .exact import _approx_text, _rational_text, binomial_row
from .radix import validate_base


@dataclass(frozen=True)
class MomentPolynomial:
    """Dense row: coeffs[p] multiplies (x**s)**p * y**(n-p), p = 0..n.

    Every polynomial this package builds is homogeneous of degree n in
    U = x**s and y, so the y-exponent n - p of a term follows from p and
    one row of n + 1 integers holds the whole polynomial.  Zero
    coefficients are stored like any other.
    """

    n: int
    s: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if len(self.coeffs) != self.n + 1:
            raise ValueError(
                f"need n + 1 coefficients for n = {self.n}, got {len(self.coeffs)}"
            )

    def coefficient(self, p: int, q: int) -> int:
        return self.coeffs[p] if 0 <= p <= self.n and p + q == self.n else 0

    def evaluate(self, u: Fraction, y: Fraction) -> Fraction:
        """Exact value at U = u, y = y.

        Writes u = a/d and y = b/d over d = lcm of their denominators, so
        the value is sum_p c[p] * a**p * b**(n-p) over d**n.  Unless
        a = 1, as at the specialization u = 1/r, one C-level pass first
        weights c[p] by a**p; then one homogeneous Horner pass in b,
        two big-int operations per coefficient, builds that numerator
        as an int, and one Fraction is built at the end.
        """
        # ints and Fractions already carry numerator and denominator
        if not isinstance(u, (int, Fraction)):
            u = Fraction(u)
        if not isinstance(y, (int, Fraction)):
            y = Fraction(y)
        d = math.lcm(u.denominator, y.denominator)
        a = u.numerator * (d // u.denominator)
        b = y.numerator * (d // y.denominator)
        coeffs = self.coeffs
        if a != 1:
            coeffs = map(mul, coeffs, accumulate(repeat(a, self.n), mul, initial=1))
        total = 0
        for c in coeffs:
            total = total * b + c
        return Fraction(total, d**self.n)


def binomial_power_polynomial(n: int, s: int) -> MomentPolynomial:
    """The expansion of (x**s + y)**n: the row C(n,0..n)."""
    return MomentPolynomial(n, s, tuple(binomial_row(n)))


def apply_euler_operator(poly: MomentPolynomial, k: int = 1) -> MomentPolynomial:
    """k applications of x*d/dx - y*d/dy, one by default.

    A term c * x**(s*p) * y**(n-p) becomes c * (s*p - (n-p)) * the same
    monomial: the operator is diagonal on monomials, which is the whole
    point, so one step multiplies the row by the factors, each the
    x-exponent s*p of its monomial minus the y-exponent n - p.  The k
    steps are k passes of that product over the row, each materialised
    as a tuple, so that a large k never nests k lazy iterators; each
    coefficient meets its factor once per step.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, s = poly.n, poly.s
    factors = tuple(map(sub, range(0, s * n + 1, s), range(n, -1, -1)))
    coeffs = poly.coeffs
    for _ in range(k):
        coeffs = tuple(map(mul, coeffs, factors))
    return MomentPolynomial(n, s, coeffs)


def verify_operator_closed_form(n: int, s: int, k: int) -> bool:
    """Iterate the operator k times on the row C(n,0..n) and compare with
    the closed form read off that same row: entry p times
    ((s+1)*p - n)**k, since s*p - (n-p) = (s+1)*p - n."""
    poly = binomial_power_polynomial(n, s)
    closed = (c * ((s + 1) * p - n) ** k for p, c in enumerate(poly.coeffs))
    return apply_euler_operator(poly, k).coeffs == tuple(closed)


def scaled_moment_via_operator(n: int, r: int, k: int) -> Fraction:
    """E[(r*X - n)**k] for X = count of one digit among n uniform base-r
    digits, computed by k operator applications and specialization.

    Sets s = r - 1, U = x**s = 1/r, y = (r-1)/r; the k = 1 case is
    identically zero because s*x**s - y vanishes at that point.
    """
    validate_base(r)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    poly = apply_euler_operator(binomial_power_polynomial(n, r - 1), k)
    return poly.evaluate(Fraction(1, r), Fraction(r - 1, r))


# the most ints the operator sweep's factor tables may hold in all, r*n_max
# + 1 per base r; verify-paper's sweeps need 15,411
MAX_SWEEP_TABLE = 10**6


def operator_moment_sweep(
    bases: tuple[int, ...], k: int, n_max: int
) -> Iterator[tuple[int, tuple[Fraction, ...]]]:
    """Yield (n, values) for n = 1..n_max, values[i] = E[(r*X - n)**k]
    at r = bases[i], by the operator route.

    The values of scaled_moment_via_operator in one walk of Pascal's
    triangle for all the bases: each row C(n, 0..n) comes from the
    previous one by Pascal's rule instead of its own binomial_row and is
    built once whatever the base.  The operator is diagonal, and the
    factor (s+1)*p - n of the monomial p in row n lies in the one range
    -n_max..s*n_max for every n <= n_max.  So the k operator passes are
    made once per base, on a table of that range starting from ones:
    (s+1)*n_max + 1 = r*n_max + 1 ints per base, 15,411 in all for the
    bases 2..12 at n_max = 200 (the table grows with r, so the sweep
    refuses more than MAX_SWEEP_TABLE ints in all).  Row n then takes
    the k-th powers of its factors as one stride-(s+1) slice of the
    table, one multiplication per coefficient, and the specialization
    as the per-n route does.  By linearity the row's image is the same.

    k, every base and n_max are checked before any table or row is
    built, and then the tables' total size against MAX_SWEEP_TABLE.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    for r in bases:
        validate_base(r)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    size = sum(r * n_max + 1 for r in bases)
    if size > MAX_SWEEP_TABLE:
        shown = size if size.bit_length() <= 256 else f"a {size.bit_length()}-bit count of"
        raise ValueError(
            f"the sweep's tables would hold {shown} ints, over the cap of {MAX_SWEEP_TABLE}")
    points = []
    for r in bases:
        factors = range(-n_max, (r - 1) * n_max + 1)
        powers = [1] * len(factors)
        for _ in range(k):
            powers = list(map(mul, powers, factors))
        points.append((r - 1, powers, Fraction(1, r), Fraction(r - 1, r)))
    row = (1,)
    for n in range(1, n_max + 1):
        row = tuple(map(add, row + (0,), (0,) + row))
        yield n, tuple(
            MomentPolynomial(
                n, s, tuple(map(mul, row, powers[n_max - n : n_max + s * n + 1 : s + 1]))
            ).evaluate(u, y)
            for s, powers, u, y in points
        )


def fourth_moment_via_operator(n: int, r: int) -> Fraction:
    """E[(r*X - n)**4] by four operator applications to the row C(n,0..n)
    and one Horner pass at the specialization (the honest route)."""
    return scaled_moment_via_operator(n, r, 4)


def fourth_moment_closed_form(n: int, r: int) -> Fraction:
    """E[(r*X - n)**4] = 3(r-1)^2 n^2 + (r^3 - 7r^2 + 12r - 6) n."""
    validate_base(r)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(3 * (r - 1) ** 2 * n * n + (r**3 - 7 * r**2 + 12 * r - 6) * n)


@dataclass(frozen=True)
class MomentBoundConstants:
    """The pair (C, D = C / r**4) with E[(r*X-n)**4] <= C*n**2 for n >= 1."""

    base: int
    c: Fraction
    d: Fraction


def derive_constants(r: int) -> MomentBoundConstants:
    """C = 3(r-1)^2 + max(0, r^3 - 7r^2 + 12r - 6), D = C / r**4.

    When the linear coefficient of the closed form is negative, dropping
    it only helps; when positive, n <= n**2 absorbs it.  Either way the
    fourth moment is at most C*n**2.
    """
    validate_base(r)
    c = Fraction(3 * (r - 1) ** 2 + max(0, r**3 - 7 * r**2 + 12 * r - 6))
    return MomentBoundConstants(base=r, c=c, d=c / r**4)


def _centered_sums(r: int) -> Iterator[int]:
    """E_4(n) = Q_4(n) / r**n for n = 1, 2, ..., where
    Q_j(n) = sum_p W_n(p) (r*p - n)**j.

    Counts digit strings, independent of the operator route, the closed
    form and derive_constants.  W_n(p) = C(n,p) (r-1)**(n-p) is the
    number of n-digit strings with p hits, so Q_0(n) = r**n.  Appending
    a digit moves x = r*p - n to x + r - 1 (one hit) or to x - 1 (r - 1
    misses), so
    Q_j(n+1) = sum_(i<=j) C(j,i) a_(j-i) Q_i(n)
    with a_m = (r-1)**m + (r-1)(-1)**m.  Since r - 1 = -1 (mod r), r
    divides every a_m, so E_j = Q_j / r**n steps by the integers
    b_m = a_m / r: b_0 = 1 and b_1 = 0, so E_0 stays 1, E_1 stays 0 and
    E_4 needs only E_2.  Each step costs O(1) operations on ints a few
    words long and builds no moment.
    """
    e2, e4 = 0, 0  # the empty string
    b2, b4 = r - 1, ((r - 1) ** 4 + r - 1) // r
    while True:
        e4 += 6 * b2 * e2 + b4
        e2 += b2
        yield e4


def frequency_fourth_moment(n: int, r: int) -> Fraction:
    """E[(X/n - 1/r)**4]: the binomially weighted fourth power of the
    frequency deviation, as one exact fraction.

    Computed directly from the counts C(n,p)(r-1)^(n-p) of n-digit
    strings with p hits, independent of the operator route and the
    closed form: E_4(n) / (r*n)**4 from the one-pass digit-string sweep
    that check_moment_bound iterates, run to n, so it costs O(n) steps
    on small ints.
    """
    validate_base(r)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(next(islice(_centered_sums(r), n - 1, None)), (r * n) ** 4)


@dataclass(frozen=True)
class MomentBoundRow:
    """One line of the bound sweep: the moment sum against D/n**2.

    The row holds integers: `numerator` = E_4(n), the sum
    sum_p W_n(p) (r*p - n)**4 over the digit strings of length n in
    base r divided by their count r**n, and the sweep's constant C.
    `holds` is decided on them; moment_sum, bound and ratio are
    Fractions built each time they are read.  to_csv_row reads none of
    them: it prints from the integers, with one gcd for the moment sum
    and small ints for the bound.
    """

    n: int
    base: int
    numerator: int
    c: Fraction
    holds: bool

    @property
    def moment_sum(self) -> Fraction:
        """E[(X/n - 1/r)**4] = numerator / (r*n)**4."""
        return Fraction(self.numerator, (self.base * self.n) ** 4)

    @property
    def bound(self) -> Fraction:
        """D/n**2 = C / (r**4 * n**2)."""
        return self.c / (self.base**4 * self.n**2)

    @property
    def ratio(self) -> Fraction:
        """moment_sum / bound = numerator / (C * n**2)."""
        return Fraction(self.numerator * self.c.denominator, self.c.numerator * self.n**2)

    def to_csv_row(self) -> str:
        n, c = self.n, self.c
        den = (self.base * n) ** 4
        g = math.gcd(self.numerator, den)
        # C is in lowest terms, so only r**4 * n**2 can share a factor with it
        scale = self.base**4 * n * n
        h = math.gcd(c.numerator, scale)
        return ",".join(
            (
                str(n),
                _rational_text(self.numerator // g, den // g),
                _rational_text(c.numerator // h, c.denominator * (scale // h)),
                _approx_text(self.numerator * c.denominator, c.numerator * n * n),
                "true" if self.holds else "false",
            )
        )


MOMENT_SWEEP_CSV_HEADER = "n,sum,bound,ratio_decimal,holds"


def check_moment_bound(r: int, n_max: int) -> list[MomentBoundRow]:
    """Sweep n = 1..n_max: frequency fourth moment vs its D/n**2 bound.

    Every row's numerator E_4(n) = Q_4(n) / r**n comes from one pass of
    the digit-string sweep behind frequency_fourth_moment, so the whole
    sweep costs O(n_max) steps on small ints.  The moments never touch
    the operator route or the closed form; each is compared exactly
    with D/n**2 = C / (r**4 * n**2), in integers:
    numerator / (r*n)**4 <= D/n**2 is numerator * den(C) <= num(C) * n**2.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    c = derive_constants(r).c
    rows = []
    for n, numerator in enumerate(islice(_centered_sums(r), n_max), 1):
        holds = numerator * c.denominator <= c.numerator * n * n
        rows.append(MomentBoundRow(n, r, numerator, c, holds))
    return rows
