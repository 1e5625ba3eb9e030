"""The twelve headline acceptance checks, one test per criterion.

Every test prints a single pass/fail line (visible with -s, and inside
the failure report otherwise) and enforces its stated runtime budget.
Thresholds and expected values are pinned; none of them are tunable.

Criterion 12a is expected to fail and is left failing on purpose: the
base-10 champernowne prefix of 10^6 digits ends in the middle of the
6-digit integers, where leading 1s dominate, so the true max deviation
is 7981/100000 (about 0.08), nowhere near the 1/50 demanded here.  The
exact value is locked in as a regression elsewhere; this test records
the gap between the demanded threshold and arithmetic reality.
"""
import time
from fractions import Fraction

from normality_lab.measure import (
    DeviationSetSpec,
    cover_total_length,
    deviation_set_measure,
    deviation_set_measure_bruteforce,
    geometric_interval_cover,
    monte_carlo_deviation,
    null_witness_index,
    tail_measure_bound,
)
from normality_lab.moments import (
    derive_constants,
    fourth_moment_closed_form,
    fourth_moment_via_operator,
    frequency_fourth_moment,
    verify_operator_closed_form,
)
from normality_lab.radix import expand_rational, format_bracket
from normality_lab.sources import ASSETS_ENV, parse_source_spec
from normality_lab.stats import (
    Word,
    count_block,
    count_digit,
    normality_battery,
    simple_normality_report,
)

EPSILONS = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))


def report_line(tag, ok, detail):
    print(f"criterion {tag}: {'pass' if ok else 'FAIL'} ({detail})")


def finish(tag, ok, detail, elapsed, budget):
    report_line(tag, ok, f"{detail}; {elapsed:.2f}s of {budget:g}s budget")
    assert ok, f"criterion {tag}: {detail}"
    assert elapsed < budget, f"criterion {tag} runtime {elapsed:.2f}s >= {budget:g}s"


def test_criterion_01_pi_digit_count(monkeypatch):
    monkeypatch.delenv(ASSETS_ENV, raising=False)
    t0 = time.monotonic()
    stream = parse_source_spec("file:pi_base10.digits").stream()
    got = count_digit(stream, 3, 50)
    elapsed = time.monotonic() - t0
    finish("01", got == 8, f"digit 3 occurs {got} times in 50 digits, want 8",
           elapsed, 1.0)


def test_criterion_02_block_count():
    t0 = time.monotonic()
    stream = parse_source_spec("rational:11010111011-prefix", 2).stream()
    got = count_block(stream, Word.parse("101", 2), 11)
    elapsed = time.monotonic() - t0
    finish("02", got == 3, f"block 101 occurs {got} times, want 3", elapsed, 5.0)


def test_criterion_03_one_third_expansion_and_battery():
    t0 = time.monotonic()
    digits = expand_rational(Fraction(1, 3), 4).fractional.take(40)
    all_ones = list(digits) == [1] * 40
    spec = parse_source_spec("rational:1/3", 2)
    cells = normality_battery(spec, 2, 30)
    cell = next(c for c in cells if (c.shift, c.power) == (0, 2))
    dev = cell.report.deviations[1]
    elapsed = time.monotonic() - t0
    finish(
        "03",
        all_ones and dev == Fraction(3, 4),
        f"base-4 digits constant: {all_ones}; view (0,2) digit-1 deviation {dev}",
        elapsed, 5.0,
    )


def test_criterion_04_shift_regroup_display():
    t0 = time.monotonic()
    alpha = Fraction(123, 1000) + Fraction(345042, 999999) / 1000
    seven = format_bracket(expand_rational(10**7 * alpha, 1000), 5)
    one = format_bracket(expand_rational(10 * alpha, 1000), 4)
    elapsed = time.monotonic() - t0
    ok = seven == "[1][233][450].[423][450]" and one == "[1].[233][450][423]"
    finish("04", ok, f"10^7 view {seven}; 10^1 view {one}", elapsed, 5.0)


def test_criterion_05_operator_identity_grid():
    t0 = time.monotonic()
    bad = [
        (n, s, k)
        for n in range(31)
        for s in range(1, 10)
        for k in range(5)
        if not verify_operator_closed_form(n, s, k)
    ]
    elapsed = time.monotonic() - t0
    finish("05", not bad,
           f"{31 * 9 * 5} coefficient identities, failures: {bad or 'none'}",
           elapsed, 30.0)


def test_criterion_06_fourth_moment_dual_routes():
    t0 = time.monotonic()
    bad = [
        (n, r)
        for r in range(2, 13)
        for n in range(1, 201)
        if fourth_moment_via_operator(n, r) != fourth_moment_closed_form(n, r)
    ]
    spots = (
        fourth_moment_closed_form(1, 2) == 1
        and fourth_moment_closed_form(1, 10) == 657
    )
    elapsed = time.monotonic() - t0
    finish("06", not bad and spots,
           f"2200 dual computations, failures: {bad or 'none'};"
           f" spot values (1,2)->1 and (1,10)->657: {spots}",
           elapsed, 60.0)


def test_criterion_07_moment_bound_sweep():
    t0 = time.monotonic()
    bad = []
    for r in range(2, 13):
        d = derive_constants(r).d
        top = 500 if r in (2, 3) else 200
        for n in range(1, top + 1):
            if frequency_fourth_moment(n, r) * n * n > d:
                bad.append((r, n))
    d2 = derive_constants(2).d
    elapsed = time.monotonic() - t0
    finish("07", not bad and d2 == Fraction(3, 16),
           f"bound holds at all swept (r, n), failures: {bad or 'none'};"
           f" D(2) = {d2}",
           elapsed, 120.0)


def _oracle_cases():
    for r, top in ((2, 12), (3, 9)):
        for b in range(r):
            for n in range(1, top + 1):
                for eps in EPSILONS:
                    yield DeviationSetSpec(base=r, digit=b, n=n, epsilon=eps)


def test_criterion_08_measure_oracle():
    t0 = time.monotonic()
    cases = 0
    bad = []
    for spec in _oracle_cases():
        cases += 1
        exact = deviation_set_measure(spec).exact_measure
        if exact != deviation_set_measure_bruteforce(spec):
            bad.append(spec)
    elapsed = time.monotonic() - t0
    finish("08", not bad, f"{cases} oracle comparisons, failures: {bad or 'none'}",
           elapsed, 120.0)


def test_criterion_09_bound_chain():
    t0 = time.monotonic()
    bad = []
    cases = 0
    for spec in _oracle_cases():
        cases += 1
        report = deviation_set_measure(spec)
        if report.exact_measure > report.bound:
            bad.append(spec)
    for r in (2, 3):
        for eps in EPSILONS:
            for n in range(1, 201):
                cases += 1
                spec = DeviationSetSpec(base=r, digit=0, n=n, epsilon=eps)
                report = deviation_set_measure(spec)
                if report.exact_measure > report.bound:
                    bad.append(spec)
    elapsed = time.monotonic() - t0
    finish("09", not bad,
           f"{cases} exact comparisons against D/(eps^4 n^2),"
           f" failures: {bad or 'none'}",
           elapsed, 60.0)


def test_criterion_10_tail_and_witness():
    t0 = time.monotonic()
    eps = Fraction(1, 2)
    tails_ok = all(
        tail_measure_bound(2, eps, m) == Fraction(3, m - 1)
        for m in range(2, 201)
    )
    witness = null_witness_index(2, eps, Fraction(1))
    elapsed = time.monotonic() - t0
    finish("10", tails_ok and witness == 4,
           f"tail bound is 3/(m-1) on m = 2..200: {tails_ok};"
           f" witness index {witness}, want 4",
           elapsed, 5.0)


def test_criterion_11_interval_cover():
    t0 = time.monotonic()
    ok = True
    details = []
    for k, eps in ((1, Fraction(1, 3)), (5, Fraction(1, 3)), (60, Fraction(1, 7))):
        points = [Fraction(i, k) for i in range(k)]
        total = cover_total_length(geometric_interval_cover(points, eps))
        expected = eps * (1 - Fraction(1, 2**k))
        ok = ok and total == expected and total < eps
        details.append(f"k={k}: {total == expected and total < eps}")
    elapsed = time.monotonic() - t0
    finish("11", ok, "total length is eps(1 - 2^-k) < eps at "
           + ", ".join(details), elapsed, 5.0)


def test_criterion_12a_champernowne_threshold():
    t0 = time.monotonic()
    source = parse_source_spec("champernowne", 10)
    report = simple_normality_report(source.stream(), 1_000_000)
    elapsed = time.monotonic() - t0
    got = report.max_deviation
    threshold = Fraction(1, 50)
    finish(
        "12a",
        got < threshold,
        f"max deviation {got} (~{float(got):.5f}) vs demanded < 1/50;"
        " the 10^6-digit prefix ends among the 6-digit integers, where"
        " leading 1s dominate, so this threshold is not attainable",
        elapsed, 60.0,
    )


def test_criterion_12b_monte_carlo_threshold():
    t0 = time.monotonic()
    spec = DeviationSetSpec(base=2, digit=1, n=2, epsilon=Fraction(1, 2))
    got = monte_carlo_deviation(spec, samples=100_000, seed=42)
    elapsed = time.monotonic() - t0
    error = abs(got - Fraction(1, 2))
    finish("12b", error < Fraction(1, 50),
           f"seed-42 sample fraction {got}, error {error} vs exact 1/2",
           elapsed, 60.0)
