"""The self-verification battery behind the verify-paper command.

Each check re-derives one computational claim the package is built
around (worked expansions, operator identities, moment bounds, measure
values) from scratch and compares exactly.  Checks are independent;
a missing digit asset downgrades the checks needing it to "skip" rather
than failing the run.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DigitFileError
from .exact import format_rational
from .measure import (
    DeviationSetSpec,
    cover_total_length,
    deviation_bound,
    deviation_set_measure,
    deviation_set_measure_bruteforce,
    deviation_set_sweep,
    digit_count_measure,
    geometric_interval_cover,
    monte_carlo_deviation,
    null_witness_index,
    prefix_interval_measure,
    tail_measure_bound,
)
from .moments import (
    check_moment_bound,
    derive_constants,
    fourth_moment_closed_form,
    fourth_moment_via_operator,
    operator_moment_sweep,
    verify_operator_closed_form,
)
from .radix import expand_rational, format_bracket, regroup_to_power_base
from .sources import SourceSpec, parse_source_spec
from .stats import (
    Word,
    count_block,
    count_digit,
    normality_battery,
    power_base_shift_counts,
    simple_normality_report,
)

PI_FILE_NAME = "pi_base10.digits"


class CheckFailed(Exception):
    pass


class CheckSkipped(Exception):
    pass


@dataclass
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


_CHECKS: list[tuple[str, Callable[[], str]]] = []


def _check(check_id: str):
    def register(fn):
        _CHECKS.append((check_id, fn))
        return fn

    return register


def check_ids() -> list[str]:
    return [check_id for check_id, _ in _CHECKS]


def run_checks(only: list[str] | None = None) -> list[CheckResult]:
    """Run the battery (or the named subset), never raising per-check."""
    wanted = set(only) if only is not None else None
    if wanted is not None:
        unknown = wanted - set(check_ids())
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
    results = []
    for check_id, fn in _CHECKS:
        if wanted is not None and check_id not in wanted:
            continue
        try:
            detail = fn()
            results.append(CheckResult(check_id, "pass", detail))
        except CheckSkipped as exc:
            results.append(CheckResult(check_id, "skip", str(exc)))
        except CheckFailed as exc:
            results.append(CheckResult(check_id, "fail", str(exc)))
        except Exception as exc:  # a crash is a failure, not a crash of the run
            results.append(
                CheckResult(check_id, "fail", f"{type(exc).__name__}: {exc}")
            )
    return results


def _require(condition: bool, detail: str):
    if not condition:
        raise CheckFailed(detail)


def _pi_source(base: int = 10) -> SourceSpec:
    try:
        return parse_source_spec(f"file:{PI_FILE_NAME}", base)
    except (OSError, DigitFileError, ValueError) as exc:
        raise CheckSkipped(f"digit file {PI_FILE_NAME} unusable: {exc}") from None


# --- worked expansions ------------------------------------------------------


@_check("pi-digit-count")
def _pi_digit_count() -> str:
    stream = _pi_source().stream()
    got = count_digit(stream, 3, 50)
    _require(got == 8, f"digit 3 occurs {got} times in 50 digits, expected 8")
    return "digit 3 occurs 8 times in the first 50 digits"


@_check("pi-bracket-display")
def _pi_bracket_display() -> str:
    text = format_bracket(_pi_source(100).expansion(), 4)
    _require(text == "[3].[14][15][92]", f"got {text!r}")
    return "base-100 rendering is [3].[14][15][92]"


@_check("half-expansion-tail-free")
def _half_expansion() -> str:
    e = expand_rational(Fraction(1, 2), 2)
    digits = list(e.fractional.take(20))
    _require(
        digits == [1] + [0] * 19,
        f"1/2 in base 2 starts {digits[:6]}..., expected 1,0,0,0,...",
    )
    _require(e.leading_index == -1, f"leading index {e.leading_index} != -1")
    zero = expand_rational(Fraction(0), 2)
    _require(zero.leading_index == -1, "zero must report leading index -1")
    return "1/2 in base 2 is 0.1000..., never 0.0111..."


@_check("third-base4-constant-digit")
def _third_base4() -> str:
    e = expand_rational(Fraction(1, 3), 4)
    digits = list(e.fractional.take(60))
    _require(digits == [1] * 60, "1/3 in base 4 must be all 1s")

    base2 = parse_source_spec("rational:1/3", 2)
    ones = count_digit(base2.stream(), 1, 100)
    _require(ones == 50, f"1/3 in base 2: {ones} ones in 100 digits, expected 50")

    cells = normality_battery(base2, max_power=2, prefix_len=30)
    by_key = {(c.shift, c.power): c.report for c in cells}
    dev = by_key[(0, 2)].max_deviation
    _require(dev == Fraction(3, 4), f"view (0,2) deviation {dev} != 3/4")
    return "simply normal in base 2, constant digit 1 in base 4 (deviation 3/4)"


@_check("block-count-overlap")
def _block_overlap() -> str:
    source = parse_source_spec("rational:11010111011-prefix", 2)
    got = count_block(source.stream(), Word.parse("101", 2), 11)
    _require(got == 3, f"word 101 counted {got} times, expected 3")
    return "101 occurs 3 times in 11010111011 (overlaps count)"


@_check("shift-regroup-worked-example")
def _shift_regroup() -> str:
    alpha = Fraction(123, 1000) + Fraction(345042, 999999) / 1000

    e10 = expand_rational(alpha, 10)
    _require(
        list(e10.fractional.take(9)) == [1, 2, 3, 3, 4, 5, 0, 4, 2],
        "base-10 digits of the example value are wrong",
    )

    e1000 = expand_rational(alpha, 1000)
    _require(
        e1000.fractional.take(5) == [123, 345, 42, 345, 42],
        "base-1000 digits must be [123] then repeating [345][42]",
    )

    shifted = expand_rational(alpha * 10**7, 1000)
    text = format_bracket(shifted, 5)
    _require(text == "[1][233][450].[423][450]", f"got {text!r}")

    once = expand_rational(alpha * 10, 1000)
    text1 = format_bracket(once, 4)
    _require(text1 == "[1].[233][450][423]", f"got {text1!r}")

    # same digits two ways: shift by 7 then regroup, vs shift by 1,
    # regroup, then drop 2 grouped digits (7 = 2*3 + 1)
    s_a = expand_rational(alpha, 10).fractional
    s_a.take(7)
    via_shift = regroup_to_power_base(s_a, 3).take(6)
    s_b = expand_rational(alpha, 10).fractional
    s_b.take(1)
    grouped_b = regroup_to_power_base(s_b, 3)
    grouped_b.take(2)
    via_commute = grouped_b.take(6)
    _require(via_shift == via_commute, "shift/regroup commutation broke")
    _require(via_shift == [423, 450, 423, 450, 423, 450], f"got {via_shift}")
    return "shift by 7 = regroup, shift by 2 in the power base (digits agree)"


@_check("power-base-block-decomposition")
def _power_base_blocks() -> str:
    prefix = "001001000011101101111110000100000110101100011110001"
    source = parse_source_spec(f"rational:{prefix}-prefix", 2)
    word = Word.parse("11", 2)

    direct = count_block(source.stream(), word, 51)
    per_shift = power_base_shift_counts(source, word, 25)
    _require(per_shift == [6, 7], f"per-shift counts {per_shift}, expected [6, 7]")
    _require(direct == 13, f"direct count {direct}, expected 13")
    _require(sum(per_shift) == direct, "decomposition must equal direct count")

    grouped0 = list(regroup_to_power_base(source.stream(), 2).take(25))
    expected0 = [0,2,1,0,0,3,2,3,1,3,3,2,0,1,0,0,1,2,2,3,0,1,3,2,0]
    _require(grouped0 == expected0, "shift-0 base-4 view is wrong")
    s1 = source.stream()
    s1.take(1)
    grouped1 = list(regroup_to_power_base(s1, 2).take(25))
    expected1 = [1,0,2,0,1,3,1,2,3,3,3,0,0,2,0,0,3,1,1,2,0,3,3,0,1]
    _require(grouped1 == expected1, "shift-1 base-4 view is wrong")
    return "11-count 13 = 6 (shift 0) + 7 (shift 1), views decoded exactly"


# --- operator and moments ---------------------------------------------------


@_check("operator-closed-form-sweep")
def _operator_sweep() -> str:
    for n in range(0, 31):
        for s in range(1, 10):
            for k in range(0, 5):
                if not verify_operator_closed_form(n, s, k):
                    raise CheckFailed(f"operator identity fails at n={n} s={s} k={k}")
    return "iterated operator matches C(n,p)((s+1)p-n)^k for n<=30, s<=9, k<=4"


@_check("specialization-kills-mean")
def _kills_mean() -> str:
    bases = tuple(range(2, 13))
    firsts = operator_moment_sweep(bases, 1, 20)
    seconds = operator_moment_sweep(bases, 2, 20)
    for (n, m1s), (_, m2s) in zip(firsts, seconds):
        for r, m1, m2 in zip(bases, m1s, m2s):
            if m1 != 0:
                raise CheckFailed(f"first moment {m1} != 0 at n={n} r={r}")
            if m2 != n * (r - 1):
                raise CheckFailed(f"second moment {m2} != n(r-1) at n={n} r={r}")
    return "E[rX-n] = 0 and E[(rX-n)^2] = n(r-1) on the spot-check grid"


@_check("fourth-moment-dual-computation")
def _fourth_moment_dual() -> str:
    spot1 = fourth_moment_via_operator(1, 2)
    _require(spot1 == 1, f"value at n=1, r=2 is {spot1}, expected 1")
    spot657 = fourth_moment_via_operator(1, 10)
    _require(spot657 == 657, f"value at n=1, r=10 is {spot657}, expected 657")
    bases = tuple(range(2, 13))
    for n, values in operator_moment_sweep(bases, 4, 200):
        for r, a in zip(bases, values):
            b = fourth_moment_closed_form(n, r)
            if a != b:
                raise CheckFailed(f"operator {a} != closed form {b} at n={n} r={r}")
    return "operator route equals 3(r-1)^2 n^2 + (r^3-7r^2+12r-6) n on the grid"


@_check("fourth-moment-bound-sweep")
def _bound_sweep() -> str:
    expected = {
        2: (Fraction(3), Fraction(3, 16)),
        3: (Fraction(12), Fraction(4, 27)),
        10: (Fraction(657), Fraction(657, 10000)),
    }
    for r, (c, d) in expected.items():
        got = derive_constants(r)
        _require(
            (got.c, got.d) == (c, d),
            f"constants for r={r} are ({got.c}, {got.d}), expected ({c}, {d})",
        )
    for r in range(2, 13):
        n_max = 500 if r <= 3 else 200
        rows = check_moment_bound(r, n_max)
        bad = [row.n for row in rows if not row.holds]
        _require(not bad, f"bound fails for r={r} at n={bad[:5]}")
    return "moment sum <= D/n^2 for r=2,3 (n<=500) and r=4..12 (n<=200)"


# --- measures ---------------------------------------------------------------


@_check("count-measure-normalization")
def _count_measure() -> str:
    got = prefix_interval_measure(10, 3)
    _require(got == Fraction(1, 1000), f"prefix measure {got} != 1/1000")
    for r in (2, 3, 10, 12):
        for n in (1, 2, 5, 17, 50):
            total = sum(digit_count_measure(r, n, p) for p in range(n + 1))
            _require(total == 1, f"count measures sum to {total} at r={r} n={n}")
    return "count measures sum to 1; a 3-digit base-10 prefix has measure 1/1000"


@_check("measure-oracle-equivalence")
def _measure_oracle() -> str:
    epsilons = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]
    cases = 0
    for r, n_top in ((2, 12), (3, 9)):
        for n in range(1, n_top + 1):
            for b in range(r):
                for eps in epsilons:
                    spec = DeviationSetSpec(base=r, digit=b, n=n, epsilon=eps)
                    fast = deviation_set_measure(spec).exact_measure
                    slow = deviation_set_measure_bruteforce(spec)
                    if fast != slow:
                        raise CheckFailed(
                            f"formula {fast} != enumeration {slow} for {spec}"
                        )
                    cases += 1
    return f"formula equals enumeration in all {cases} cases"


@_check("measure-bound-chain")
def _measure_chain() -> str:
    spec = DeviationSetSpec(base=2, digit=1, n=2, epsilon=Fraction(1, 2))
    report = deviation_set_measure(spec)
    _require(report.exact_measure == Fraction(1, 2), f"measure {report.exact_measure}")
    _require(report.admissible_p == (0, 2), f"admissible {report.admissible_p}")
    _require(report.bound == Fraction(3, 4), f"bound {report.bound}")

    empty = deviation_set_measure(
        DeviationSetSpec(base=2, digit=1, n=2, epsilon=Fraction(3, 4))
    )
    _require(empty.exact_measure == 0, "epsilon=3/4 set must be empty")

    for r in (2, 3, 10):
        for eps in (Fraction(1, 10), Fraction(1, 2)):
            for n, m, bound in deviation_set_sweep(r, eps, 200):
                if m > bound:
                    raise CheckFailed(f"chain breaks at r={r} eps={eps} n={n}")
                if n in (1, 2, 17, 200):
                    # the sweep against the per-n route it replaces
                    per_n = deviation_set_measure(
                        DeviationSetSpec(base=r, digit=0, n=n, epsilon=eps)
                    )
                    if (m, bound) != (per_n.exact_measure, per_n.bound):
                        raise CheckFailed(
                            "sweep disagrees with the per-n measure"
                            f" at r={r} eps={eps} n={n}"
                        )
    spot = deviation_bound(2, Fraction(1, 10), 1000)
    _require(spot == Fraction(3, 1600), f"bound spot {spot} != 3/1600")
    spot10 = deviation_bound(10, Fraction(1, 10), 100)
    _require(spot10 == Fraction(657, 10000), f"bound spot {spot10} != 657/10000")
    return "exact measure <= D/(eps^4 n^2) across the sweep; spots agree"


@_check("tail-bound-and-witness")
def _tail_and_witness() -> str:
    got = tail_measure_bound(2, Fraction(1, 2), 2)
    _require(got == 3, f"tail bound at m=2 is {got}, expected 3")
    got4 = tail_measure_bound(2, Fraction(1, 2), 4)
    _require(got4 == 1, f"tail bound at m=4 is {got4}, expected 1")
    w = null_witness_index(2, Fraction(1, 2), Fraction(1))
    _require(w == 4, f"witness for target 1 is {w}, expected 4")
    w3 = null_witness_index(2, Fraction(1, 2), Fraction(3))
    _require(w3 == 2, f"witness for target 3 is {w3}, expected 2")
    last = tail_measure_bound(2, Fraction(1, 2), 1)
    for m in range(2, 50):
        now = tail_measure_bound(2, Fraction(1, 2), m)
        _require(now <= last, "tail bound must not increase with m")
        last = now
    return "tail bounds 3 (m=2) and 1 (m=4); smallest m for target 1 is 4"


@_check("interval-cover-length")
def _cover() -> str:
    eps = Fraction(1, 3)
    points = [Fraction(k, 7) for k in range(5)]
    cover = geometric_interval_cover(points, eps)
    total = cover_total_length(cover)
    _require(
        total == eps * (1 - Fraction(1, 2**5)),
        f"total length {total} != eps(1 - 2^-5)",
    )
    for point, (center, hw) in zip(points, cover):
        _require(abs(point - center) <= hw, f"point {point} escapes its interval")
    _require(total < eps, "prefix cover length must stay below epsilon")
    _require(geometric_interval_cover([], eps) == [], "empty cover")
    return f"5-interval cover has length {format_rational(total)} < 1/3"


# --- statistical regressions ------------------------------------------------

# frozen outputs of this package's own deterministic algorithms; the
# inequality claims are the meaningful part, the exact values guard
# against silent drift.  The base-10 value is dominated by digit 1: a
# 10^6-digit prefix ends inside the 6-digit integers, most of which
# start with 1, so equidistribution is still far off at this depth.
CHAMPERNOWNE_MAX_DEVIATION_1M = Fraction(7981, 100000)
MONTE_CARLO_FRACTION = Fraction(6259, 12500)


@_check("champernowne-frequency-regression")
def _champernowne_regression() -> str:
    source = parse_source_spec("champernowne", 10)
    report = simple_normality_report(source.stream(), 1_000_000)
    _require(
        report.max_deviation == CHAMPERNOWNE_MAX_DEVIATION_1M,
        f"max deviation drifted to {report.max_deviation}",
    )
    _require(
        report.max_deviation < Fraction(1, 10),
        f"max deviation {report.max_deviation} not below 1/10",
    )

    base2 = parse_source_spec("champernowne", 2)
    cells = normality_battery(base2, max_power=3, prefix_len=100_000)
    worst = max(c.report.max_deviation for c in cells)
    _require(
        worst < Fraction(1, 20),
        f"base-2 battery deviation {worst} not below 1/20",
    )
    return (
        "base-10 max deviation at 10^6 digits is exactly "
        f"{format_rational(report.max_deviation)} (digit 1 leads);"
        f" base-2 battery worst deviation {format_rational(worst)} < 1/20"
    )


@_check("monte-carlo-regression")
def _monte_carlo_regression() -> str:
    spec = DeviationSetSpec(base=2, digit=1, n=2, epsilon=Fraction(1, 2))
    exact = deviation_set_measure(spec).exact_measure
    got = monte_carlo_deviation(spec, samples=100_000, seed=42)
    _require(
        abs(got - exact) < Fraction(1, 50),
        f"sample fraction {got} not within 1/50 of {exact}",
    )
    _require(got == MONTE_CARLO_FRACTION, f"sample fraction drifted to {got}")
    return f"10^5-sample fraction {format_rational(got)} is within 1/50 of 1/2"
