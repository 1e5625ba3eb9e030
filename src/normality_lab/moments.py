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
takes k operator steps (one by default) as k lazy passes that multiply
the row by one range of factors and are materialised once, evaluation
is one Horner pass over the row and builds a single Fraction at the
end, and the direct moment sums come from one pass over n that adds a
digit per step and carries five power sums of the digit string counts,
so a sweep up to n_max costs O(n_max) big-int steps.  A row of that
sweep keeps the integer numerator of its moment and the string count
r**n, decides the bound by one integer comparison, and builds its
Fractions only when they are read.  The operator route has a sweep
over n of its own: each row C(n, 0..n) comes from the previous one by
Pascal's rule, since (x**s + y)**n = (x**s + y) * (x**s + y)**(n-1).
The row does not depend on the base, so one walk of Pascal's triangle
serves every base of the sweep: at each n the one row is put through
the k operator passes and the specialization once per base.  The bases
are independent of one another, so on a large grid the sweep forks one
helper process that walks the triangle for every other base while the
caller takes the rest; the values, and their order, are the same
whether or not a helper runs.
"""
from __future__ import annotations

import marshal
import math
import os
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
    from -n to s*n in steps of s + 1.  The k steps are k lazy passes of
    that product over the row, materialised as one tuple at the end;
    each coefficient still meets its factor once per step.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, s = poly.n, poly.s
    factors = range(-n, s * n + 1, s + 1)
    coeffs = poly.coeffs
    for _ in range(k):
        coeffs = map(mul, coeffs, factors)
    return MomentPolynomial(n, s, tuple(coeffs))


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


# operator_moment_sweep forks one helper for half of the bases when
# len(bases) * n_max**2, which grows with the grid's operator work, is
# at least this.  Measured on a shared 2-core Xeon VM with Python 3.11
# and a 41 MiB heap, 11 bases, best of 21 in process against forked
# (the fork, the pipe and the reap cost 3-5 ms): at k = 4, 9.9 against
# 12.1 ms at n_max = 60 (39600), 17.0 against 16.2 at 80 (70400), 25.8
# against 20.3 at 100 (110000) and 85 against 62 at 200 (440000); k = 2
# crosses near the same n_max.
_FORK_MIN_CELLS = 10**5


def operator_moment_sweep(
    bases: tuple[int, ...], k: int, n_max: int
) -> Iterator[tuple[int, tuple[Fraction, ...]]]:
    """Yield (n, values) for n = 1..n_max, values[i] = E[(r*X - n)**k]
    at r = bases[i], by the operator route.

    The values of scaled_moment_via_operator in one walk of Pascal's
    triangle for all the bases: each row C(n, 0..n) comes from the
    previous one by Pascal's rule instead of its own binomial_row, is
    built once whatever the base, and then takes the k operator steps
    and the specialization at each base exactly as the per-n route does.

    k, every base and n_max are checked before any row is built.  On a
    grid of two bases or more and at least _FORK_MIN_CELLS cells
    (len(bases) * n_max**2), in a process of one thread that may run on
    two CPUs or more, one forked helper makes the same walk for
    bases[0::2] while this process takes bases[1::2]; every value is in
    hand and the helper reaped before the first yield.  A helper that
    cannot start, dies or sends short data is made up here, so the
    values and their order are the same on every path.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    points = []
    for r in bases:
        validate_base(r)
        points.append((r - 1, Fraction(1, r), Fraction(r - 1, r)))
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if len(points) < 2 or len(points) * n_max**2 < _FORK_MIN_CELLS or not _can_fork_helper():
        yield from enumerate(_operator_rows(points, k, n_max), 1)
        return
    theirs, mine = points[0::2], points[1::2]
    helper = _start_helper(theirs, k, n_max)
    try:
        own = list(_operator_rows(mine, k, n_max))
    except BaseException:
        _finish_helper(helper, 0, kill=True)
        raise
    got = _finish_helper(helper, len(theirs) * n_max)
    if got is None:
        got = _operator_rows(theirs, k, n_max)
    else:
        got = zip(*[iter(got)] * len(theirs))  # the flat values, cut into rows
    for n, even, odd in zip(range(1, n_max + 1), got, own):
        values = [None] * len(points)
        values[0::2], values[1::2] = even, odd
        yield n, tuple(values)


def _operator_rows(points, k: int, n_max: int) -> Iterator[tuple[Fraction, ...]]:
    """For n = 1..n_max, the k-th moments at every (s, u, y) of points,
    from one walk of Pascal's triangle."""
    row = (1,)
    for n in range(1, n_max + 1):
        row = tuple(map(add, row + (0,), (0,) + row))
        yield tuple(
            apply_euler_operator(MomentPolynomial(n, s, row), k).evaluate(u, y)
            for s, u, y in points
        )


def _can_fork_helper() -> bool:
    """Whether a forked helper can run beside this process: fork exists,
    two CPUs or more may run it, and no second thread would be left
    behind in the child."""
    import threading

    affinity = getattr(os, "sched_getaffinity", None)
    return (
        hasattr(os, "fork")
        and affinity is not None
        and len(affinity(0)) >= 2
        and threading.active_count() == 1
    )


def _start_helper(points, k: int, n_max: int) -> tuple[int, int] | None:
    """Fork a helper that writes _operator_rows(points, k, n_max) to a
    pipe, as one marshalled tuple of numerators and denominators in row
    order, and exits.  Returns (pid, read end), or None when no process
    could be started."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:  # the helper: never returns into the caller's frames
        os.close(read_end)
        flat = []
        for row in _operator_rows(points, k, n_max):
            for value in row:
                flat += value.numerator, value.denominator
        data = memoryview(marshal.dumps(tuple(flat)))
        while data:
            data = data[os.write(write_end, data):]
        status = 0
    finally:
        os._exit(status)


def _finish_helper(helper: tuple[int, int] | None, count: int, kill: bool = False):
    """Read the helper's data to the end, or kill it unread, and reap it.
    Returns its `count` values, or None if there is no helper, it was
    killed, or it sent anything but `count` values.  Its exit status is
    not read: the helper writes its data whole or dies before the end."""
    if helper is None:
        return None
    pid, read_end = helper
    chunks = []
    try:
        if kill:
            import signal

            os.kill(pid, signal.SIGKILL)
        else:
            while chunk := os.read(read_end, 1 << 16):
                chunks.append(chunk)
    finally:
        os.close(read_end)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped already, as when SIGCHLD is ignored
            pass
    if kill:
        return None
    try:  # a helper that failed has sent nothing, or data cut short
        flat = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError):
        return None
    if len(flat) != 2 * count:
        return None
    return list(map(Fraction, flat[0::2], flat[1::2]))


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
