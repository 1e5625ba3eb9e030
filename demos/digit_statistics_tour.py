"""Digit-frequency statistics on real digit streams.

Tallies the champernowne constant 0.12345678910111213... at growing
prefix lengths, screens a rational and the champernowne number with the
shift/regroup battery, and decomposes an overlapping block count into
per-shift single-digit counts in a power base.

The interesting part is how slowly champernowne equidistributes in base
10: a million digits in, digit 1 still leads by a wide margin, because
the prefix ends among the 6-digit integers and most of those start
with 1.  The failure is in the constant, not the code; the battery in
base 2 at the same depth is already fairly flat.
"""
from fractions import Fraction

from normality_lab import (
    Word,
    count_block,
    normality_battery,
    parse_source_spec,
    power_base_shift_counts,
    simple_normality_report,
)

print("champernowne base 10, growing prefixes")
source = parse_source_spec("champernowne", 10)
for n in (100, 10_000, 1_000_000):
    report = simple_normality_report(source.stream(), n)
    dev = report.max_deviation
    print(f"  n = {n:>9,}: max deviation {str(dev):>14} (~{float(dev):.5f})")

print()
print("digit counts at n = 1,000,000:")
report = simple_normality_report(source.stream(), 1_000_000)
for d in range(10):
    print(f"  digit {d}: {report.counts.get(d, 0):>7,}")

# every (shift, power) view of a normal number must itself be simply
# normal; rationals fail spectacularly in some view
print()
print("battery views of 1/3 in base 2 (30 grouped digits per view)")
for cell in normality_battery(parse_source_spec("rational:1/3", 2), 3, 30):
    dev = cell.report.max_deviation
    print(
        f"  shift {cell.shift}, power {cell.power}:"
        f" max deviation {str(dev):>6} in base {cell.report.base}"
    )

print()
print("battery views of champernowne base 2 (100,000 grouped digits per view)")
for cell in normality_battery(parse_source_spec("champernowne", 2), 3, 100_000):
    dev = cell.report.max_deviation
    print(
        f"  shift {cell.shift}, power {cell.power}:"
        f" max deviation {str(dev):>12} (~{float(dev):.5f})"
    )

print()
print("block counts decompose into power-base digit counts")
text = "001001000011101101111110000100000110101100011110001"
spec = parse_source_spec(f"rational:{text}-prefix", 2)
word = Word.parse("11", 2)
contributions = power_base_shift_counts(spec, word, 25)
total = sum(contributions)
direct = count_block(spec.stream(), word, 51)
print(f"  51-digit prefix, word {word}")
print(f"  shift contributions {contributions}, total {total}")
print(f"  direct overlapping count over the same digits: {direct}")
