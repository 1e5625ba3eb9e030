"""The fourth-moment computation, step by step.

Builds the generating polynomial (x**s + y)**n, hits it with the
operator x*d/dx - y*d/dy a few times, and specializes at x**s = 1/r,
y = (r-1)/r to produce exact moments of the centered digit count
r*X - n.  The punchline is the closed quadratic form of the fourth
moment and the constants C and D = C/r**4 that turn it into the
1/n**2 tail bound every measure estimate rests on.

All arithmetic is exact; no floats take part in any comparison.
"""
from fractions import Fraction

from normality_lab import (
    apply_euler_operator,
    binomial_power_polynomial,
    check_moment_bound,
    derive_constants,
    fourth_moment_closed_form,
    fourth_moment_via_operator,
    frequency_fourth_moment,
    scaled_moment_via_operator,
)

print("the operator is diagonal on monomials")
print("  (entry p of a row multiplies x^p y^(2-p))")
poly = binomial_power_polynomial(2, 1)
print("  (x + y)^2          :", poly.coeffs)
once = apply_euler_operator(poly)
print("  after one operator :", once.coeffs)
twice = apply_euler_operator(once)
print("  after two          :", twice.coeffs)

print()
print("specialized moments of rX - n (base r = 10, n = 50)")
for k in range(1, 5):
    value = scaled_moment_via_operator(50, 10, k)
    print(f"  E[(rX - n)^{k}] = {value}")
print("  k = 1 vanishing is the design: the specialization kills the mean")

print()
print("two independent routes to the fourth moment (r = 3)")
for n in (1, 10, 100):
    via_op = fourth_moment_via_operator(n, 3)
    closed = fourth_moment_closed_form(n, 3)
    tag = "agree" if via_op == closed else "DISAGREE"
    print(f"  n = {n:>3}: operator {via_op}, closed form {closed} ({tag})")

print()
print("the constants, base by base")
print("   r      C            D")
for r in range(2, 13):
    c = derive_constants(r)
    print(f"  {r:>2}  {str(c.c):>5}  {str(c.d):>11}")

# E[(X/n - 1/r)^4] <= D / n^2 for every n; the sweep prints the exact
# ratio so the slack is visible
print()
print("bound sweep, r = 2: E[(X/n - 1/2)^4] against (3/16)/n^2")
rows = check_moment_bound(2, 10)
print("  n   moment sum        bound        ratio")
for row in rows:
    print(
        f"  {row.n:>2}  {str(row.moment_sum):>11}  {str(row.bound):>11}"
        f"   {float(row.ratio):.4f}"
    )
worst = max(rows, key=lambda row: row.ratio)
print(f"  largest ratio {float(worst.ratio):.4f} at n = {worst.n};"
      " the bound holds with room")

print()
print("and the frequency moment really is the scaled moment:")
n, r = 37, 5
lhs = frequency_fourth_moment(n, r)
rhs = fourth_moment_closed_form(n, r) / Fraction((r * n) ** 4)
print(f"  n = {n}, r = {r}: {lhs} == {rhs}: {lhs == rhs}")
