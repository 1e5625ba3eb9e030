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
row by one range of factors, evaluation is one Horner pass over the row
and builds a single Fraction at the end, and the direct moment sums
come from one pass over n that adds a digit per step and carries five
power sums of the digit string counts, so a sweep up to n_max costs
O(n_max) big-int steps.  A row of that sweep keeps the integer
numerator of its moment and the string count r**n, decides the bound by
one integer comparison, and builds its Fractions only when they are
read.  The operator route has a sweep over n of its own: each row
C(n, 0..n) comes from the previous one by Pascal's rule, since
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
from operator import add, mul

from .exact import binomial_row, decimal_approx, format_rational
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
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return MomentPolynomial(n, s, tuple(binomial_row(n)))


def apply_euler_operator(poly: MomentPolynomial, k: int = 1) -> MomentPolynomial:
    """k applications of x*d/dx - y*d/dy, one by default.

    A term c * x**(s*p) * y**(n-p) becomes c * (s*p - (n-p)) * the same
    monomial: the operator is diagonal on monomials, which is the whole
    point, so one step multiplies the row by the factors, which run
    from -n to s*n in steps of s + 1.  The k steps are k passes of that
    product over the row, each materialised as a tuple, so that a large
    k never nests k lazy iterators; each coefficient meets its factor
    once per step.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, s = poly.n, poly.s
    factors = range(-n, s * n + 1, s + 1)
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
    bases 2..12 at n_max = 200 (the table grows with r; every caller
    uses r <= 256).  Row n then takes the k-th powers of its factors as
    one stride-(s+1) slice of the table, one multiplication per
    coefficient, and the specialization as the per-n route does.  By
    linearity the row's image is the same.

    k, every base and n_max are checked before any table or row is
    built.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    for r in bases:
        validate_base(r)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
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


def _power_sums(r: int) -> Iterator[tuple[int, int, int, int, int]]:
    """P_j(n) = sum_p W_n(p) p**j for j = 0..4, for n = 1, 2, ...

    Counts digit strings, independent of the operator route, the closed
    form and derive_constants.  W_n(p) = C(n,p) (r-1)**(n-p) is the
    number of n-digit strings with p hits, and appending one digit gives
    W_n(p) = (r-1) W_(n-1)(p) + W_(n-1)(p-1).  So
    P_j(n) = r P_j(n-1) + sum_(i<j) C(j,i) P_i(n-1): each step costs
    O(1) big-int operations and builds no moment.
    """
    p0, p1, p2, p3, p4 = 1, 0, 0, 0, 0  # the empty string
    while True:
        p4 = r * p4 + 4 * p3 + 6 * p2 + 4 * p1 + p0
        p3 = r * p3 + 3 * p2 + 3 * p1 + p0
        p2 = r * p2 + 2 * p1 + p0
        p1 = r * p1 + p0
        p0 = r * p0
        yield p0, p1, p2, p3, p4


def _moment_numerator(n: int, r: int, sums: tuple[int, ...]) -> int:
    """sum_p W_n(p) (r*p - n)**4 from the power sums P_0(n) .. P_4(n).

    It is sum_j C(4,j) r**j (-n)**(4-j) P_j(n); over the P_0(n) = r**n
    strings and the (r*n)**4 of the frequency scale it is
    E[(X/n - 1/r)**4].
    """
    p0, p1, p2, p3, p4 = sums
    return (
        r**4 * p4 - 4 * r**3 * n * p3 + 6 * r**2 * n**2 * p2
        - 4 * r * n**3 * p1 + n**4 * p0
    )


def frequency_fourth_moment(n: int, r: int) -> Fraction:
    """E[(X/n - 1/r)**4]: the binomially weighted fourth power of the
    frequency deviation, as one exact fraction.

    Computed directly from the counts C(n,p)(r-1)^(n-p) of n-digit
    strings with p hits, independent of the operator route and the
    closed form: the power sums of the one-pass digit-string sweep that
    check_moment_bound iterates, run to n, so it costs O(n) big-int
    steps.
    """
    validate_base(r)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sums = next(islice(_power_sums(r), n - 1, None))
    return Fraction(_moment_numerator(n, r, sums), sums[0] * (r * n) ** 4)


@dataclass(frozen=True)
class MomentBoundRow:
    """One line of the bound sweep: the moment sum against D/n**2.

    The row holds integers: `numerator` = sum_p W_n(p) (r*p - n)**4 over
    the `strings` = r**n digit strings of length n in base r, and the
    sweep's constant C.  `holds` is decided on them; moment_sum, bound
    and ratio are Fractions built each time they are read.
    """

    n: int
    base: int
    numerator: int
    strings: int
    c: Fraction
    holds: bool

    @property
    def moment_sum(self) -> Fraction:
        """E[(X/n - 1/r)**4] = numerator / (r**n * (r*n)**4)."""
        return Fraction(self.numerator, self.strings * (self.base * self.n) ** 4)

    @property
    def bound(self) -> Fraction:
        """D/n**2 = C / (r**4 * n**2)."""
        return self.c / (self.base**4 * self.n**2)

    @property
    def ratio(self) -> Fraction:
        """moment_sum / bound = numerator / (C * r**n * n**2)."""
        return Fraction(
            self.numerator * self.c.denominator,
            self.c.numerator * self.strings * self.n**2,
        )

    def to_csv_row(self) -> str:
        return ",".join(
            (
                str(self.n),
                format_rational(self.moment_sum),
                format_rational(self.bound),
                decimal_approx(self.ratio),
                "true" if self.holds else "false",
            )
        )


MOMENT_SWEEP_CSV_HEADER = "n,sum,bound,ratio_decimal,holds"


def check_moment_bound(r: int, n_max: int) -> list[MomentBoundRow]:
    """Sweep n = 1..n_max: frequency fourth moment vs its D/n**2 bound.

    Every moment comes from one pass of the digit-string sweep behind
    frequency_fourth_moment, so the whole sweep costs O(n_max) big-int
    steps.  The moments never touch the operator route or the closed
    form; each is compared exactly with D/n**2 = C / (r**4 * n**2), in
    integers: numerator / (r**n * (r*n)**4) <= D/n**2 is
    numerator * den(C) <= num(C) * r**n * n**2.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    c = derive_constants(r).c
    rows = []
    for n, sums in enumerate(islice(_power_sums(r), n_max), 1):
        numerator, strings = _moment_numerator(n, r, sums), sums[0]
        holds = numerator * c.denominator <= c.numerator * strings * n * n
        rows.append(MomentBoundRow(n, r, numerator, strings, c, holds))
    return rows
