"""Exact Lebesgue measures of digit-deviation sets, and the bounds on them.

The sets live in [0, 1).  Fixing a base r, a digit b, and a prefix
length n, the strings of n digits partition [0,1) into r**n intervals of
equal measure; the measure of "digit b appears exactly p times in the
first n digits" is therefore C(n,p)(r-1)**(n-p) / r**n, and the measure
of the deviation set

    M(n, eps) = { x : |count_b(n, x)/n - 1/r| >= eps }

is the sum of those weights over the admissible counts p.  Membership
uses the exact >= comparison, so boundary cases land inside the set, and
is decided in one place, _edges: p is admissible exactly when p <= lo or
p >= hi.  deviation_set_measure sums a binomial row for one n;
deviation_set_sweep yields every n up to n_max in one pass, carrying the
partial sums up to lo and hi from n to n + 1, so `measure --n-max` costs
O(n_max) big-int steps, not O(n_max**2).

deviation_set_measure_bruteforce is the independent oracle: it visits
every one of the r**n strings as a count byte, the number of times digit
b occurs in it, and decides membership from that count by the
definition, in Fractions, through a table of n + 1 bytes; neither _edges
nor a binomial takes part.  The strings of the last k digits (r**k <=
2**16) form one block of count bytes, and each leading prefix maps the
block through the table with one translate and tallies it with one count,
so the enumeration costs a few ns a string and holds one block, 64 KiB at
most, whatever the budget.

The chain of bounds: exact measure <= D / (eps**4 n**2) pointwise (via
the fourth moment), tails sum to (D/eps**4) * T(m) with T(1) = 2 and
T(m) = 1/(m-1); the one D/eps**4 comes from _moment_scale.  A prefix of
a geometric series of intervals covers any enumerated set of points with
total length eps * (1 - 2**-k).  Everything is an exact Fraction.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationBudgetError
from .exact import binomial_row, brief_rational, decimal_approx, format_rational
from .moments import derive_constants
from .radix import _rep, validate_base
from .sources import random_stream

#: ceiling on r**n for honest string-by-string enumeration
DEFAULT_ENUMERATION_BUDGET = 20_000_000
# strings in one block of the oracle's count bytes, at most
_BLOCK = 2**16
# adds 1 to every count byte
_BUMP = bytes(range(1, 256)) + b"\0"


@dataclass(frozen=True)
class DeviationSetSpec:
    """Parameters of one deviation set M(n, epsilon) for digit b in base r."""

    base: int
    digit: int
    n: int
    epsilon: Fraction

    def __post_init__(self):
        validate_base(self.base)
        if not 0 <= self.digit < self.base:
            raise ValueError(
                f"digit {self.digit} out of range for base {self.base}"
            )
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        eps = Fraction(self.epsilon)
        if not 0 < eps <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {brief_rational(eps)}")
        object.__setattr__(self, "epsilon", eps)


def _edges(base: int, epsilon: Fraction, n: int) -> tuple[int, int]:
    """(lo, hi): p in 0..n has |p/n - 1/base| >= epsilon iff p <= lo or
    p >= hi.  With epsilon = a/b, lo = floor((b - a base) n / (b base)),
    negative when no low count qualifies, and hi = ceil((b + a base) n /
    (b base)), above n when no high count does."""
    a, b = epsilon.numerator, epsilon.denominator
    return (b - a * base) * n // (b * base), -(-(b + a * base) * n // (b * base))


def admissible_counts(spec: DeviationSetSpec) -> list[int]:
    """The counts p with |p/n - 1/base| >= epsilon (inclusive)."""
    lo, hi = _edges(spec.base, spec.epsilon, spec.n)
    return [*range(lo + 1), *range(hi, spec.n + 1)]


def prefix_interval_measure(base: int, length: int) -> Fraction:
    """Measure of the set of x sharing a fixed digit prefix: 1 / base**length."""
    validate_base(base)
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    return Fraction(1, base**length)


def digit_count_measure(base: int, n: int, p: int) -> Fraction:
    """Measure of {x : some fixed digit occurs exactly p times in n digits}.

    C(n,p) choices of positions, (base-1)**(n-p) fillings of the rest,
    each string an interval of measure base**-n.  Independent of which
    digit, by symmetry.
    """
    validate_base(base)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= p <= n:
        raise ValueError(f"count p must be in 0..{n}, got {p}")
    return Fraction(math.comb(n, p) * (base - 1) ** (n - p), base**n)


@dataclass(frozen=True)
class MeasureReport:
    """Exact measure of a deviation set next to its moment bound."""

    spec: DeviationSetSpec
    exact_measure: Fraction
    bound: Fraction
    admissible_p: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "r": self.spec.base,
            "b": self.spec.digit,
            "n": self.spec.n,
            "epsilon": format_rational(self.spec.epsilon),
            "exact_measure": format_rational(self.exact_measure),
            "bound": format_rational(self.bound),
            "admissible_p": list(self.admissible_p),
        }


def deviation_set_measure(spec: DeviationSetSpec) -> MeasureReport:
    """Exact measure of M(n, epsilon), summed over admissible counts."""
    lo, hi = _edges(spec.base, spec.epsilon, spec.n)
    # sum of C(n,p) (r-1)**(n-p) over admissible p, by Horner's rule in (r-1)
    rm1 = spec.base - 1
    numerator = 0
    for p, count in enumerate(binomial_row(spec.n)):
        numerator = numerator * rm1 + (0 if lo < p < hi else count)
    return MeasureReport(
        spec=spec,
        exact_measure=Fraction(numerator, spec.base**spec.n),
        bound=deviation_bound(spec.base, spec.epsilon, spec.n),
        admissible_p=tuple(admissible_counts(spec)),
    )


def _edge_sums(r: int, targets):
    """F_n(t_n) for n = 1, 2, ..., where F_n(k) is the sum of
    W_n(p) = C(n,p)(r-1)**(n-p) over p <= k, and the targets satisfy
    t_n <= n and never fall once >= 0 (F_n(t) = 0 for t < 0): O(1)
    big-int steps per n plus one per rise."""
    k, w, f = -1, 0, 0  # at n = 0: the empty sum, and W_0(-1) = 0
    for n, target in enumerate(targets, start=1):
        # appending a digit: F_n(k) = r F_{n-1}(k) - W_{n-1}(k), and
        # W_n(k) = W_{n-1}(k) n(r-1)/(n-k), an exact division (0 at k = -1)
        f = r * f - w
        w = w * n * (r - 1) // (n - k)
        while k < target:
            w = (r - 1) ** n if k < 0 else w * (n - k) // ((k + 1) * (r - 1))
            k += 1
            f += w
        yield f


def deviation_set_sweep(base: int, epsilon: Fraction, n_max: int):
    """Yield (n, exact measure of M(n, epsilon), its bound) for n = 1..n_max.

    One pass, where deviation_set_measure builds a binomial row for each
    n.  With (lo, hi) the _edges of n, the numerator is F_n(lo) + r**n -
    F_n(hi - 1), each edge carried by _edge_sums.  The bound is the
    _moment_scale over n**2.  Independent of the digit, by symmetry.
    """
    scale = _moment_scale(base, epsilon)
    epsilon = Fraction(epsilon)
    if epsilon > 1:
        raise ValueError(f"epsilon must be in (0, 1], got {brief_rational(epsilon)}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    ns = range(1, n_max + 1)
    lows = _edge_sums(base, (_edges(base, epsilon, n)[0] for n in ns))
    # hi > n leaves the upper set empty: F_n(n) = r**n
    highs = _edge_sums(base, (min(_edges(base, epsilon, n)[1] - 1, n) for n in ns))
    power = 1
    for n, low, high in zip(ns, lows, highs):
        power *= base
        yield n, Fraction(low + power - high, power), scale / (n * n)


def deviation_set_measure_bruteforce(
    spec: DeviationSetSpec, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Fraction:
    """The same measure by enumerating all base**n digit strings.

    Exists purely as an independent oracle for deviation_set_measure.
    Each string is one count byte, the number of times spec.digit occurs
    in it, and its membership is looked up in a table built by the
    definition, |c/n - 1/base| >= epsilon in exact Fractions, not by
    _edges or admissible_counts.  The r**k strings of the last k digits,
    k >= 1 the largest with r**k <= 2**16, are one block of count bytes:
    the last digit's row, 1 at spec.digit and 0 elsewhere, grown by k - 1
    joins of r copies with the digit's copy bumped.  For each of the
    r**(n-k) leading prefixes, one translate maps the block through the
    table shifted by the prefix's own count and one count tallies the
    members.  Above base 2**16 the row comes in slices of 2**16, built
    one at a time, so memory stays at one block whatever the base or the
    budget.  Strings beyond `budget` raise EnumerationBudgetError instead
    of running forever.
    """
    r, n, digit = spec.base, spec.n, spec.digit
    total = r**n
    if total > budget:
        raise EnumerationBudgetError(required=total, budget=budget)
    uniform = Fraction(1, r)
    # padded so that each slice member[c : c + 256] is a whole table
    member = bytes(
        abs(Fraction(c, n) - uniform) >= spec.epsilon for c in range(n + 1)
    ) + bytes(256)
    k = 1
    while k < n and r ** (k + 1) <= _BLOCK:
        k += 1
    hits = 0
    for start in range(0, r, _BLOCK):
        size, at = min(_BLOCK, r - start), digit - start
        block = bytes(at) + b"\1" + bytes(size - at - 1) if 0 <= at < size else bytes(size)
        for _ in range(1, k):
            block = b"".join(
                (block * digit, block.translate(_BUMP), block * (r - 1 - digit))
            )
        for prefix in itertools.product(range(r), repeat=n - k):
            c = prefix.count(digit)
            hits += block.translate(member[c : c + 256]).count(1)
    return Fraction(hits, total)


def _moment_scale(base: int, epsilon: Fraction) -> Fraction:
    """D / epsilon**4, the fourth-moment bound's numerator."""
    validate_base(base)
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {brief_rational(epsilon)}")
    return derive_constants(base).d / epsilon**4


def deviation_bound(base: int, epsilon: Fraction, n: int) -> Fraction:
    """The moment bound D / (epsilon**4 n**2) on the deviation-set measure."""
    scale = _moment_scale(base, epsilon)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return scale / n**2


def tail_sum_bound(m: int) -> Fraction:
    """T(m) >= sum of 1/n**2 over n >= m: 2 for m = 1, else 1/(m-1).

    The m = 1 case is 1 + the telescoping tail; for m >= 2 compare
    1/n**2 with 1/(n(n-1)) term by term and telescope.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return Fraction(2) if m == 1 else Fraction(1, m - 1)


def tail_measure_bound(base: int, epsilon: Fraction, m: int) -> Fraction:
    """Bound on the measure of the union of M(n, epsilon) over n >= m.

    Summing deviation_bound over n >= m gives (D / epsilon**4) * T(m),
    which tends to 0 as m grows: the heart of the almost-everywhere
    argument.
    """
    return _moment_scale(base, epsilon) * tail_sum_bound(m)


def null_witness_index(base: int, epsilon: Fraction, target: Fraction) -> int:
    """Smallest m with tail_measure_bound(base, epsilon, m) <= target.

    Exists for every positive target since the tail bound decays like
    1/(m-1); computed by exact ceiling, no search.
    """
    target = Fraction(target)
    if target <= 0:
        raise ValueError(f"target must be > 0, got {brief_rational(target)}")
    scale = _moment_scale(base, epsilon)
    if 2 * scale <= target:
        return 1
    return 1 + math.ceil(scale / target)


def geometric_interval_cover(
    points: list[Fraction], epsilon: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Center the k-th of a geometric run of intervals on the k-th point.

    Interval k (0-based) is (center = points[k], halfwidth =
    epsilon / 2**(k+2)), so its length is epsilon / 2**(k+1) and the
    total length of any prefix stays below epsilon: len(points) = K
    gives exactly epsilon * (1 - 2**-K).  This is the standard trick for
    covering a countable set by arbitrarily little measure.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {brief_rational(epsilon)}")
    return [
        (Fraction(point), epsilon / 2 ** (k + 2))
        for k, point in enumerate(points)
    ]


def cover_total_length(cover: list[tuple[Fraction, Fraction]]) -> Fraction:
    return sum((2 * hw for _, hw in cover), Fraction(0))


def monte_carlo_deviation(
    spec: DeviationSetSpec, samples: int, seed: int
) -> Fraction:
    """Fraction of pseudo-random digit strings landing in the deviation set.

    Draws `samples` independent n-digit strings from the seeded xorshift
    source, as consecutive slices of one read of n * samples digits, and
    tests each against the exact membership rule.  The digits become one
    indicator byte each; for each offset j < n, the j-th digits of all
    samples are read as one int with a lane per sample, and the n ints sum
    to every sample's count at once: n steps, however many samples.  Each
    lane has a spare top bit, so c <= lo and c >= hi are read off the top
    bits after one subtraction and one addition over all lanes.  Same
    seed, same result, on any machine.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n, digit = spec.n, spec.digit
    lo, hi = _edges(spec.base, spec.epsilon, n)
    digits = random_stream(spec.base, seed).take(n * samples)
    if isinstance(digits, bytes):
        hit = digits.translate(bytes(d == digit for d in range(256)))
    else:
        hit = bytes(map(digit.__eq__, digits))
    width = n.bit_length() // 8 + 1  # bytes a lane, so that n < top
    lanes, counts = bytearray(samples * width), 0
    for j in range(n):
        lanes[::width] = hit[j::n]
        counts += int.from_bytes(lanes, "little")
    top = 1 << (8 * width - 1)
    ones = _rep(1, samples, width)
    # lane-wise, lo + top - c reaches top iff c <= lo, and c + top - hi iff
    # c >= hi; the clamped edges keep every lane in 0 .. 2 top - 1
    low = (max(lo, -1) + top) * ones - counts
    high = counts + (top - min(hi, n + 1)) * ones
    return Fraction(((low | high) & top * ones).bit_count(), samples)
