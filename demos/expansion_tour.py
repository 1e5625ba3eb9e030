"""A walk through exact digit expansions.

Expands a few rationals in several bases, shows the eventual period that
the denominator fixes (how often the base divides into it, then the
order of the base modulo the rest), and ends with the shift/regroup
commutation that justifies reading one number in many bases at once:
multiplying by r**m shifts the base-r digits, and grouping n of them at
a time is the same as expanding in base r**n.

Run it from the repository root after installing the package:

    python demos/expansion_tour.py
"""
from fractions import Fraction

from normality_lab import (
    expand_rational,
    format_bracket,
    rational_period,
    regroup_to_power_base,
)


def show(q, base, count):
    line = format_bracket(expand_rational(q, base), count)
    pre, per = rational_period(q, base)
    line += f"   (preperiod {pre}, period {per})"
    print(f"  {str(q):>8} in base {base:>4}: {line}")


print("Some terminating and repeating expansions")
show(Fraction(1, 2), 2, 8)
show(Fraction(1, 3), 2, 8)
show(Fraction(1, 3), 4, 8)
show(Fraction(1, 6), 10, 8)
show(Fraction(22, 7), 10, 12)
show(Fraction(355, 113), 10, 12)

# 1/3 in base 4 is the constant digit 1: the classic example of a
# rational that is simply normal in one base (base 2) while visibly
# failing it in another view of the very same digits.
print()
print("The same number, grouped")
stream = expand_rational(Fraction(1, 3), 2).fractional
print("  1/3 base 2 :", list(stream.fork().take(16)))
print("  grouped by 2:", list(regroup_to_power_base(stream, 2).take(8)), "(base 4)")

print()
print("Shifting = multiplying")
alpha = Fraction(123, 1000) + Fraction(345042, 999999) / 1000
print("  alpha =", alpha)
show(alpha, 10, 12)
show(alpha, 1000, 5)
show(10 * alpha, 1000, 4)
show(10**7 * alpha, 1000, 5)

# the two operations commute: drop m digits then group by n, or
# expand r**m * alpha in base r**n directly; same stream either way
stream = expand_rational(alpha, 10).fractional
print("  dropped head:", list(stream.take(1)))
print("  then grouped:", regroup_to_power_base(stream, 3).take(6))
direct = expand_rational(10 * alpha - 1, 1000).fractional
print("  direct      :", direct.take(6))
