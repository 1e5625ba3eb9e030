"""Command-line interface.

Six subcommands: expand (render digits), stats (frequency report),
battery (shift/regroup normality screen), verify-lemma (moment bound
sweep), measure (deviation-set measures and tail bounds), verify-paper
(the full self-verification battery).

Conventions: exact rationals print as "num/den"; any decimal column is
explicitly a display approximation; identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 failed checks or
runtime errors, 2 usage errors.  Each option's own range is checked by
its argparse type; a ValueError from a handler is a usage error (exit
2), and a NormalityLabError, OSError, OverflowError or MemoryError
exits 1 with one `error:` line.  Each cap exits 1 with a CapError
before any digit, row or weight is made: a command that would read more
than MAX_DIGITS source digits (`expand --digits`, `stats -n`, the widest
view of `battery`), a `battery` that would build more than
MAX_VIEWS views or tally more than MAX_ENTRIES entries across them,
a `verify-lemma` that would print more than MAX_LEMMA_ROWS rows (fewer
in a base of 2**15 or more), and a
`measure -n` or `--n-max` that would do more than MAX_MEASURE_WORK bit
operations.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import CapError, MalformedHeaderError, NormalityLabError
from .exact import (
    _int_text,
    _rational_text,
    brief_rational,
    brief_text,
    decimal_approx,
    format_rational,
    parse_rational,
)
from .measure import (
    DEFAULT_ENUMERATION_BUDGET,
    DeviationSetSpec,
    deviation_set_measure,
    deviation_set_measure_bruteforce,
    deviation_set_sweep,
    null_witness_index,
    tail_measure_bound,
)
from .moments import (
    MOMENT_SWEEP_CSV_HEADER,
    check_moment_bound,
    derive_constants,
    verify_operator_closed_form,
)
from .radix import format_bracket, rational_period
from .sources import champernowne_tally, parse_source_spec
from .stats import (
    Word,
    _tally_report,
    count_block,
    normality_battery,
    simple_normality_report,
)
from .verify import check_ids, run_checks

BATTERY_CSV_HEADER = "m,n,max_deviation"
MEASURE_SWEEP_CSV_HEADER = "n,exact_measure,bound,holds"
# `stats --format json` prints a count and a deviation for every digit of
# the base; above this base only the text format, which reads the sparse
# report, is offered
STATS_JSON_MAX_BASE = 2**16
# the most source digits one command may read.  At the cap, `stats` in
# base 10 took 4.9 s on a rational and 11.1 s on random, each with a
# 208 MiB peak (2-core VM, Python 3.11); above base 256 a digit is a
# Python int, so a read holds several times that.  `stats` on
# champernowne without --word reads no digit: it counts them by formula
MAX_DIGITS = 10**8
# the most rows one `verify-lemma` may print, one per n up to --n-max, in
# a base below 2**15.  A row holds a few ints of O(log r) bits, but every
# row and its text are held until the table prints: at this cap base 10
# took 3.3 s with a 261 MiB peak (2-core VM, Python 3.11).  A row costs
# more the wider the base (at --n-max 2000: 10 us in base 10, 35 us in
# 10**100, 145 us in 10**300, 1.6 ms in 10**1000), so the cap is divided
# by 1 + b//16 + b**2//2**16 for the b bits of the base, which kept every
# run at its cap within base 10's time and memory:
#   base 2**64 + 1  100000 rows  1.1 s  138 MiB
#   base 10**100     22727 rows  1.0 s  120 MiB
#   base 10**300      6410 rows  0.9 s   98 MiB
#   base 10**1000     1329 rows  2.3 s   72 MiB
#   base 10**3000      233 rows  2.8 s   46 MiB
MAX_LEMMA_ROWS = 5 * 10**5
# the most views one `battery` may build, P(P+1)/2 for --max-power P, so
# P <= 140.  On champernowne in base 2 with -n 1 (Python 3.11, 2-core
# VM), 9870 views (P = 140) took 0.20 s, 80200 (P = 400) 1.0 s, and
# 2001000 (P = 2000) were still being built at 10 s: a view costs more
# the longer its windows, and every view is a report held to the end
MAX_VIEWS = 10**4
# the most entries one `battery` may tally across its views, n for each
# of the P(P+1)/2.  On champernowne in base 2 (Python 3.11, 2-core VM),
# P = 40 with -n 2000 (1,640,000 entries) took 0.66 s with a 130 MiB
# peak, P = 44 (1,980,000) 0.91 s and 158 MiB, and P = 100 (10,100,000)
# 4.7 s and 824 MiB: every entry stays held in its view to the end
MAX_ENTRIES = 2 * 10**6
# the most bit operations one `measure -n` may do: n + 1 steps on weights
# of n log2(r) bits, once per 30-bit word of the divisor (p + 1)(r - 1).  At
# the cap with epsilon 1 (Python 3.11, 2-core VM) base 2 took 2.5 s at n =
# 99,999 and base 2**64 + 1 1.0 s at n = 7160, each under a 20 MiB peak.
# `--n-max` counts n_max**3 log2(r)**2 / 30 for its rows' walks (epsilon 1/10:
# base 10 0.32 s at n_max = 2000, 1.87 s at 4000; base 2**64 + 1 0.97 s at 500)
# and n_max times the squared 30-bit words of epsilon**4 for their bounds'
# text (base 100, epsilon 1e-100000: 20 s at n_max = 163)
MAX_MEASURE_WORK = 10**10


def _integer(text: str) -> int:
    """An argparse type: an int, the refused text quoted briefly."""
    try:
        return int(text)
    except ValueError:  # not an int, or past the int-to-str digit limit
        raise argparse.ArgumentTypeError(f"invalid int value: {brief_text(text)}") from None


def _at_least(low: int, high: int | None = None):
    """An argparse type: an int >= low, and <= high if given."""
    def check(text: str) -> int:
        value = _integer(text)
        if value < low or (high is not None and value > high):
            upper = "" if high is None else f" and <= {high}"
            raise argparse.ArgumentTypeError(
                f"must be >= {low}{upper}, got {brief_text(str(value), quoted=False)}")
        return value

    return check


def _check_cap(count: int, cap: int, unit: str, verb: str) -> None:
    """Raise CapError when a command would verb more than cap units."""
    if count > cap:
        raise CapError(count, cap, unit, verb)


def _rational(high: Fraction | None = None):
    """An argparse type: an exact rational q > 0, and q <= high if given."""
    def check(text: str) -> Fraction:
        try:
            value = parse_rational(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value <= 0 or (high is not None and value > high):
            upper = "" if high is None else f" and <= {high}"
            raise argparse.ArgumentTypeError(f"must be > 0{upper}, got {brief_rational(value)}")
        return value

    check.__name__ = "rational"  # argparse names it in "invalid rational value"
    return check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normality-lab",
        description="exact digit statistics, moment bounds, and deviation-set measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...],
                   per_mode: str | None = None):
        # per_mode describes a default that the handler picks by mode
        p.add_argument("--format", choices=formats,
                       default=None if per_mode else formats[0],
                       help=f"output format (default {per_mode or formats[0]})")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write output to a file instead of stdout")

    p = sub.add_parser("expand", help="render digits of a source")
    p.add_argument("--source", required=True, help="rational:A/B, rational:<digits>-prefix, champernowne, file:<name>, random:<seed>")
    p.add_argument("--base", type=_at_least(2), default=None, help="target base (required unless the source is a file)")
    p.add_argument("--digits", type=_at_least(1), required=True, help="number of digits to render")
    add_common(p, ("text", "json"))

    p = sub.add_parser("stats", help="digit-frequency report over a prefix")
    p.add_argument("--source", required=True)
    p.add_argument("--base", type=_at_least(2), default=None)
    p.add_argument("-n", type=_at_least(1), required=True, help="prefix length")
    p.add_argument("--digit", type=_integer, default=None, help="also report this digit's count")
    p.add_argument("--word", default=None, help="also count this digit block (overlaps included)")
    add_common(p, ("json", "text"))

    p = sub.add_parser("battery", help="simple normality over all (shift, power) views")
    p.add_argument("--source", required=True)
    p.add_argument("--base", type=_at_least(2), default=None)
    p.add_argument("--max-power", type=_at_least(1), required=True, help="largest grouping power N; views are 0 <= m < n <= N")
    p.add_argument("-n", type=_at_least(1), required=True, help="prefix length per view, in grouped digits")
    add_common(p, ("csv", "text"))

    p = sub.add_parser("verify-lemma", help="verify the fourth-moment bound up to n-max")
    p.add_argument("--base", type=_at_least(2), required=True)
    p.add_argument("--n-max", type=_at_least(1, sys.maxsize), default=100)
    add_common(p, ("text", "csv"))

    p = sub.add_parser("measure", help="deviation-set measures, bounds, tails")
    p.add_argument("--base", type=_at_least(2), required=True)
    p.add_argument("--digit", type=_integer, default=0)
    p.add_argument("--epsilon", type=_rational(high=Fraction(1)), required=True, help="deviation threshold in (0, 1], exact (e.g. 1/10)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("-n", type=_at_least(1), default=None, help="prefix length for a single report")
    mode.add_argument("--n-max", type=_at_least(1, sys.maxsize), default=None, help="sweep n = 1..n-max as CSV")
    mode.add_argument("--tail", type=_at_least(1), default=None, metavar="M", help="bound the union of deviation sets over n >= M")
    p.add_argument("--target", type=_rational(), default=None, help="with --tail: also find the smallest m whose tail bound is <= this")
    p.add_argument("--oracle", action="store_true", help="with -n: cross-check the measure by full enumeration")
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_ENUMERATION_BUDGET, help="enumeration budget for --oracle")
    add_common(p, ("json", "csv", "text"), per_mode="csv for --n-max, else json")

    p = sub.add_parser("verify-paper", help="run the whole self-verification battery")
    p.add_argument("--only", default=None, help="comma-separated check ids to run")
    p.add_argument("--list", action="store_true", help="list check ids and exit")
    add_common(p, ("text",))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "expand": cmd_expand,
        "stats": cmd_stats,
        "battery": cmd_battery,
        "verify-lemma": cmd_verify_lemma,
        "measure": cmd_measure,
        "verify-paper": cmd_verify_paper,
    }[args.command]
    try:
        code, text = handler(args)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    # a malformed header in the file --source names is a usage error too
    except (ValueError, MalformedHeaderError) as exc:
        parser.error(str(exc))  # prints usage to stderr and exits 2
    except (NormalityLabError, OSError, OverflowError, MemoryError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            # the file name is outside text, quoted briefly
            exc = f"[Errno {exc.errno}] {exc.strerror}: {brief_text(str(exc.filename))}"
        elif isinstance(exc, (OverflowError, MemoryError)):
            # a size past what Python can hold; a MemoryError has no text
            exc = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


# --- subcommands ------------------------------------------------------------


def cmd_expand(args) -> tuple[int, str]:
    source = parse_source_spec(args.source, args.base)
    _check_cap(args.digits, MAX_DIGITS, "digits", "read")
    display = format_bracket(source.expansion(), args.digits)
    if args.format == "text":
        return 0, display + "\n"
    payload = {"base": source.base, "digits": args.digits, "display": display}
    if source.kind == "rational":
        payload["preperiod"], payload["period"] = rational_period(source.value, source.base)
    return 0, json.dumps(payload, indent=2) + "\n"


def cmd_stats(args) -> tuple[int, str]:
    source = parse_source_spec(args.source, args.base)
    base = source.base
    if args.format == "json" and base > STATS_JSON_MAX_BASE:
        raise ValueError(
            f"--format json lists every digit of the base, so it needs base"
            f" <= {STATS_JSON_MAX_BASE}, got {base}; use --format text"
        )
    if args.digit is not None and not 0 <= args.digit < base:
        raise ValueError(
            f"digit {brief_text(str(args.digit), quoted=False)} out of range for base {base}")
    word = None if args.word is None else Word.parse(args.word, base)
    _check_cap(args.n, MAX_DIGITS, "digits", "read")

    if word is None and source.kind == "champernowne":  # counted by formula, no digit made
        report = _tally_report(base, args.n, champernowne_tally(base, args.n))
        word_count = None
    else:
        stream = source.stream()
        twin = None if word is None else stream.fork()
        report = simple_normality_report(stream, args.n)
        word_count = None if twin is None else count_block(twin, word, args.n)
    digit_count = None if args.digit is None else report.tally.get(args.digit, 0)

    if args.format == "json":
        payload = report.to_json_dict()
        payload["counts"] = {str(d): report.tally.get(d, 0) for d in range(base)}
        if digit_count is not None:
            payload["digit"] = args.digit
            payload["digit_count"] = digit_count
        if word_count is not None:
            payload["word"] = str(word)
            payload["word_count"] = word_count
        return 0, json.dumps(payload, indent=2) + "\n"
    dev = report.max_deviation
    lines = [
        f"source: {args.source}",
        f"base: {base}",
        f"n: {args.n}",
        f"max deviation: {format_rational(dev)} (~ {decimal_approx(dev)})",
    ]
    if digit_count is not None:
        lines.append(f"digit {args.digit}: {digit_count} occurrences")
    if word_count is not None:
        lines.append(f"word {args.word}: {word_count} occurrences")
    return 0, "\n".join(lines) + "\n"


def cmd_battery(args) -> tuple[int, str]:
    source = parse_source_spec(args.source, args.base)
    # the digits the widest view reads, then the views and their entries
    _check_cap(args.max_power * (args.n + 1) - 1, MAX_DIGITS, "digits", "read")
    views = args.max_power * (args.max_power + 1) // 2
    _check_cap(views, MAX_VIEWS, "views", "build")
    _check_cap(views * args.n, MAX_ENTRIES, "entries", "tally")
    cells = normality_battery(source, args.max_power, args.n)

    if args.format == "csv":
        rows = [BATTERY_CSV_HEADER]
        rows += [
            f"{c.shift},{c.power},{format_rational(c.report.max_deviation)}"
            for c in cells
        ]
        return 0, "\n".join(rows) + "\n"
    lines = [f"battery of {args.source} in base {source.base}, {args.n} digits per view"]
    for c in cells:
        dev = c.report.max_deviation
        lines.append(
            f"  shift {c.shift}, power {c.power} (base {c.report.base}):"
            f" max deviation {format_rational(dev)} (~ {decimal_approx(dev)})"
        )
    return 0, "\n".join(lines) + "\n"


def cmd_verify_lemma(args) -> tuple[int, str]:
    r = args.base
    b = r.bit_length()
    _check_cap(args.n_max, MAX_LEMMA_ROWS // (1 + b // 16 + b * b // 2**16), "rows", "print")
    constants = derive_constants(r)

    # the coefficient identity the whole derivation rests on, checked by
    # explicit iteration on a fixed small grid
    identity_failures = [
        (n, k)
        for n in range(0, min(args.n_max, 30) + 1)
        for k in range(0, 5)
        if not verify_operator_closed_form(n, r - 1, k)
    ]
    rows = check_moment_bound(r, args.n_max)
    bound_failures = [row.n for row in rows if not row.holds]

    summary = [
        f"base: {r}",
        f"C: {format_rational(constants.c)}",
        f"D: {format_rational(constants.d)}",
        "operator identity: "
        + ("pass" if not identity_failures else f"FAIL at (n,k)={identity_failures}"),
        f"moment bound: "
        + ("pass" if not bound_failures else f"FAIL at n={bound_failures}"),
    ]
    table = [MOMENT_SWEEP_CSV_HEADER] + [row.to_csv_row() for row in rows]

    failed = bool(identity_failures or bound_failures)
    if args.format == "csv":
        print("\n".join(summary), file=sys.stderr)
        return (1 if failed else 0), "\n".join(table) + "\n"
    return (1 if failed else 0), "\n".join(summary + table) + "\n"


def cmd_measure(args) -> tuple[int, str]:
    if not 0 <= args.digit < args.base:
        raise ValueError(
            f"digit {brief_text(str(args.digit), quoted=False)} out of range for base {args.base}")
    if args.target is not None and args.tail is None:
        raise ValueError("--target needs --tail")
    if args.oracle and args.n is None:
        raise ValueError("--oracle needs -n")
    mode, formats = (
        ("--n-max", ("csv",)) if args.n_max is not None
        else ("--tail", ("json", "text")) if args.tail is not None
        else ("-n", ("json", "text"))
    )
    fmt = args.format or formats[0]
    if fmt not in formats:
        raise ValueError(f"{mode} prints {' or '.join(formats)}, not --format {fmt}")

    if args.tail is not None:
        bound = tail_measure_bound(args.base, args.epsilon, args.tail)
        payload = {
            "r": args.base,
            "epsilon": format_rational(args.epsilon),
            "m": args.tail,
            "tail_bound": format_rational(bound),
            "tail_bound_decimal": decimal_approx(bound),
        }
        if args.target is not None:
            witness = null_witness_index(args.base, args.epsilon, args.target)
            payload["target"] = format_rational(args.target)
            payload["witness_m"] = _json_int(witness)
        if fmt == "json":
            return 0, json.dumps(payload, indent=2) + "\n"
        lines = [f"tail bound over n >= {args.tail}: {payload['tail_bound']}"
                 f" (~ {payload['tail_bound_decimal']})"]
        if args.target is not None:
            lines.append(
                f"smallest m with tail bound <= {payload['target']}:"
                f" {payload['witness_m']}"
            )
        return 0, "\n".join(lines) + "\n"

    if args.n_max is not None:
        eps = args.epsilon
        words = 4 * (eps.numerator.bit_length() + eps.denominator.bit_length()) // 30
        _check_cap(args.n_max**3 * (args.base - 1).bit_length() ** 2 // 30
                   + args.n_max * words**2, MAX_MEASURE_WORK, "bit operations", "do")
        rows = [MEASURE_SWEEP_CSV_HEADER]
        for n, exact, bound in deviation_set_sweep(args.base, args.epsilon, args.n_max):
            rows.append(
                f"{n},{_rational_text(exact.numerator, exact.denominator)},"
                f"{_rational_text(bound.numerator, bound.denominator)},"
                f"{'true' if exact <= bound else 'false'}"
            )
        return 0, "\n".join(rows) + "\n"

    n, rm1 = args.n, args.base - 1
    _check_cap((n + 1) * n * rm1.bit_length() * ((n * rm1).bit_length() // 30 + 1),
               MAX_MEASURE_WORK, "bit operations", "do")
    spec = DeviationSetSpec(args.base, args.digit, n, args.epsilon)
    report = deviation_set_measure(spec)
    payload = report.to_json_dict()
    if args.oracle:
        oracle = deviation_set_measure_bruteforce(spec, budget=args.budget)
        payload["oracle"] = format_rational(oracle)
        payload["oracle_matches"] = oracle == report.exact_measure
    if fmt == "json":
        return 0, json.dumps(payload, indent=2) + "\n"
    lines = [
        f"measure of the deviation set: {payload['exact_measure']}",
        f"bound D/(eps^4 n^2): {payload['bound']}",
        f"admissible counts: {payload['admissible_p']}",
    ]
    if "oracle" in payload:
        lines.append(
            f"enumeration oracle: {payload['oracle']}"
            f" ({'matches' if payload['oracle_matches'] else 'MISMATCH'})"
        )
    return 0, "\n".join(lines) + "\n"


def _json_int(value: int) -> int | str:
    """value for json.dumps, or its digits as a string once it is too long
    for int-to-str conversion, which json.loads could not read back."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
    digits = _int_text(value)
    return digits if 0 < limit < len(digits) else value


def cmd_verify_paper(args) -> tuple[int, str]:
    if args.list:
        return 0, "\n".join(check_ids()) + "\n"
    only = None
    if args.only is not None:
        only = [part.strip() for part in args.only.split(",") if part.strip()]
        if not only:
            raise ValueError(f"--only {args.only!r} names no check")
    results = run_checks(only)
    lines = []
    for res in results:
        tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[res.status]
        lines.append(f"{tag}  {res.check_id}: {res.detail}")
    passed = sum(1 for r in results if r.status == "pass")
    failed = sum(1 for r in results if r.status == "fail")
    skipped = sum(1 for r in results if r.status == "skip")
    lines.append(
        f"{len(results)} checks: {passed} passed, {failed} failed, {skipped} skipped"
    )
    return (1 if failed else 0), "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
