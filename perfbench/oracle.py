"""Expected outputs, recomputed with the standard library alone.

Seedless inputs are checked against pinned values; seeded inputs are
recomputed here from first principles (xorshift, long division, the
digit files as written, battery views grouped from a digit string, and
moment and measure rows summed with math.comb).  Nothing here imports
the package under test.  A check returns None when the output is right
and a one-line reason when it is not; it never raises on bad output.
"""
from __future__ import annotations

import decimal
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

from workloads import ORACLE_BASE, ORACLE_N, Inputs, Job

# pinned values of the seedless jobs
CHAMPERNOWNE_10_MAX_DEVIATION = Fraction(7981, 100000)
CHAMPERNOWNE_10_DIGIT1_COUNT = 179810
BASE10_D = Fraction(657, 10000)
ALL_CHECKS = 18

SAMPLED_ROWS = 6
_MASK64 = (1 << 64) - 1


def approx(q: Fraction) -> str:
    """The CLI's 12-significant-digit display label of an exact value."""
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        return str(decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator))


# --- digit sources ------------------------------------------------------------


def champernowne(base: int, count: int) -> str:
    spell = {2: "b", 10: "d"}[base]
    parts, total, k = [], 0, 1
    while total < count:
        text = format(k, spell)
        parts.append(text)
        total += len(text)
        k += 1
    return "".join(parts)[:count]


def xorshift(seed: int, base: int, count: int) -> list[int]:
    state = seed & _MASK64 or 0x9E3779B97F4A7C15
    limit = (1 << 64) - (1 << 64) % base
    out = []
    while len(out) < count:
        state ^= (state << 13) & _MASK64
        state ^= state >> 7
        state ^= (state << 17) & _MASK64
        if state < limit:
            out.append(state % base)
    return out


def long_division(a: int, q: int, base: int, count: int) -> list[int]:
    out, rem = [], a % q
    for _ in range(count):
        d, rem = divmod(rem * base, q)
        out.append(d)
    return out


def file_digits(path) -> list[int]:
    """Fractional digits of a digit file as written: header lines skipped."""
    with open(path, encoding="ascii") as fh:
        lines = [line for line in fh if not re.match(r"(base|int)=", line)]
    body = "".join(lines)
    if "[" in body:
        return [int(t) for t in re.findall(r"\[(\d+)\]", body)]
    return [int(c) for c in body if not c.isspace()]


# --- reference computations ---------------------------------------------------


def max_deviation(counts: Counter, n: int, values: int) -> Fraction:
    """max over all `values` digit values of |count/n - 1/values|."""
    uniform = Fraction(1, values)
    dev = max(abs(Fraction(c, n) - uniform) for c in counts.values())
    return max(dev, uniform) if len(counts) < values else dev


def stats_text(source: str, base: int, n: int, dev: Fraction, extra=()) -> str:
    lines = [f"source: {source}", f"base: {base}", f"n: {n}",
             f"max deviation: {dev} (~ {approx(dev)})", *extra]
    return "\n".join(lines) + "\n"


def battery_csv(digits: str, base: int, group: int, max_power: int, n: int) -> str:
    """Battery rows of a base-`base` digit string viewed in base**group."""
    rows = ["m,n,max_deviation"]
    for p in range(1, max_power + 1):
        width = group * p
        for m in range(p):
            start = group * m
            counts = Counter(
                digits[start + k * width : start + (k + 1) * width] for k in range(n)
            )
            rows.append(f"{m},{p},{max_deviation(counts, n, base**width)}")
    return "\n".join(rows) + "\n"


def overlapping(digits: str, word: str, n: int) -> int:
    k = len(word)
    return sum(1 for j in range(n - k + 1) if digits[j : j + k] == word)


def moment_constants(r: int) -> tuple[Fraction, Fraction]:
    c = Fraction(3 * (r - 1) ** 2 + max(0, r**3 - 7 * r**2 + 12 * r - 6))
    return c, c / r**4


def lemma_row(r: int, n: int) -> str:
    total = sum(
        math.comb(n, p) * (r - 1) ** (n - p) * (r * p - n) ** 4 for p in range(n + 1)
    )
    moment = Fraction(total, r**n * (r * n) ** 4)
    bound = moment_constants(r)[1] / n**2
    holds = "true" if moment <= bound else "false"
    return f"{n},{moment},{bound},{approx(moment / bound)},{holds}"


def admissible(r: int, n: int, eps: Fraction) -> list[int]:
    return [p for p in range(n + 1) if abs(Fraction(p, n) - Fraction(1, r)) >= eps]


def deviation_measure(r: int, n: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """(exact measure, moment bound) of the deviation set M(n, eps)."""
    hits = sum(math.comb(n, p) * (r - 1) ** (n - p) for p in admissible(r, n, eps))
    return Fraction(hits, r**n), moment_constants(r)[1] / (eps**4 * n**2)


def _first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {i}: got {g[:60]!r}, expected {w[:60]!r}"
    return f"got {len(got_lines)} lines, expected {len(want_lines)}"


# --- the oracle ---------------------------------------------------------------


class Oracle:
    """Checks job outputs of one seed; expected texts are computed once."""

    def __init__(self, inputs: Inputs):
        self.inp = inputs
        self._expected: dict[str, str] = {}
        self._xorshift: dict[int, list[int]] = {}
        self._file10: list[int] | None = None

    def check(self, job: Job, code, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        if "Traceback" in err:
            return "traceback on stderr"
        special = {
            "verify-paper": self._verify_paper,
            "verify-lemma-small-base": self._verify_lemma,
            "verify-lemma-large-base": self._verify_lemma,
            "measure-sweep": self._measure_sweep,
        }.get(job.name)
        if special is not None:
            return special(job, out)
        if job.name not in self._expected:
            self._expected[job.name] = getattr(self, "_" + job.name.replace("-", "_"))()
        want = self._expected[job.name]
        return None if out == want else _first_difference(out, want)

    # shared digit sequences

    def _random(self, base: int, count: int) -> list[int]:
        have = self._xorshift.get(base, [])
        if len(have) < count:
            have = self._xorshift[base] = xorshift(self.inp.xorshift_seed, base, count)
        return have[:count]

    def _file10_digits(self) -> list[int]:
        if self._file10 is None:
            self._file10 = file_digits(self.inp.file10)
        return self._file10

    # digit-scan

    def _stats_champernowne(self) -> str:
        return stats_text(
            "champernowne", 10, 10**6, CHAMPERNOWNE_10_MAX_DEVIATION,
            [f"digit 1: {CHAMPERNOWNE_10_DIGIT1_COUNT} occurrences"],
        )

    def _stats_random(self) -> str:
        n = 500_000
        counts = Counter(self._random(10, n))
        return stats_text(f"random:{self.inp.xorshift_seed}", 10, n, max_deviation(counts, n, 10))

    def _stats_rational(self) -> str:
        a, q = self.inp.rational
        n = 300_000
        counts = Counter(long_division(a, q, 10, n))
        return stats_text(f"rational:{a}/{q}", 10, n, max_deviation(counts, n, 10))

    def _stats_file10(self) -> str:
        digits = self._file10_digits()
        n, d = len(digits), self.inp.file10_digit
        counts = Counter(digits)
        return stats_text(f"file:{self.inp.file10}", 10, n, max_deviation(counts, n, 10),
                          [f"digit {d}: {counts[d]} occurrences"])

    def _stats_file100(self) -> str:
        digits = file_digits(self.inp.file100)
        n = len(digits)
        return stats_text(f"file:{self.inp.file100}", 100, n,
                          max_deviation(Counter(digits), n, 100))

    def _expand_file10(self) -> str:
        head = str(self.inp.file10_int)
        frac = "".join(map(str, self._file10_digits()[: 100_000 - len(head)]))
        return f"{head}.{frac}\n"

    # view-battery

    def _battery_champernowne_p8(self) -> str:
        return battery_csv(champernowne(2, 7 + 8 * 10_000), 2, 1, 8, 10_000)

    def _battery_random_p8(self) -> str:
        digits = "".join(map(str, self._random(2, 7 + 8 * 10_000)))
        return battery_csv(digits, 2, 1, 8, 10_000)

    def _battery_file10_base100(self) -> str:
        digits = "".join(map(str, self._file10_digits()))
        return battery_csv(digits, 10, 2, 2, 50_000)

    def _battery_champernowne_p13(self) -> str:
        return battery_csv(champernowne(2, 12 + 13 * 500), 2, 1, 13, 500)

    def _stats_word(self) -> str:
        n, word = 200_000, self.inp.word
        digits = self._random(2, n)
        text = "".join(map(str, digits))
        return stats_text(f"random:{self.inp.xorshift_seed}", 2, n,
                          max_deviation(Counter(digits), n, 2),
                          [f"word {word}: {overlapping(text, word, n)} occurrences"])

    # exact-bounds

    def _measure_single(self) -> str:
        r, b, e = self.inp.single
        n, eps = 5000, Fraction(e)
        measure, bound = deviation_measure(r, n, eps)
        payload = {"r": r, "b": b, "n": n, "epsilon": str(eps), "exact_measure": str(measure),
                   "bound": str(bound), "admissible_p": admissible(r, n, eps)}
        return json.dumps(payload, indent=2) + "\n"

    def _measure_oracle(self) -> str:
        r, n, eps = ORACLE_BASE, ORACLE_N, Fraction(self.inp.oracle[1])
        measure, bound = deviation_measure(r, n, eps)
        return "\n".join([
            f"measure of the deviation set: {measure}",
            f"bound D/(eps^4 n^2): {bound}",
            f"admissible counts: {admissible(r, n, eps)}",
            f"enumeration oracle: {measure} (matches)",
        ]) + "\n"

    def _sample(self, job: Job, top: int) -> list[int]:
        rng = random.Random(f"{self.inp.seed}:{job.name}")
        return sorted({1, 2, top, *rng.sample(range(3, top), SAMPLED_ROWS)})

    def _verify_paper(self, job: Job, out: str) -> str | None:
        lines = out.rstrip("\n").split("\n")
        wanted = job.argv[2].split(",") if "--only" in job.argv else None
        count = ALL_CHECKS if wanted is None else len(wanted)
        summary = f"{count} checks: {count} passed, 0 failed, 0 skipped"
        if lines[-1] != summary:
            return f"summary {lines[-1]!r}, expected {summary!r}"
        results = lines[:-1]
        if len(results) != count or not all(line.startswith("PASS  ") for line in results):
            return "a check did not pass"
        ids = [line[len("PASS  "):].split(":", 1)[0] for line in results]
        if wanted is not None and sorted(ids) != sorted(wanted):
            return f"ran checks {ids}, expected {wanted}"
        if "champernowne-frequency-regression" in ids and not any(
            f"exactly {CHAMPERNOWNE_10_MAX_DEVIATION}" in line for line in results
        ):
            return "champernowne regression lost its pinned 7981/100000"
        return None

    def _verify_lemma(self, job: Job, out: str) -> str | None:
        r, top = int(job.argv[2]), int(job.argv[4])
        c, d = moment_constants(r)
        head = [f"base: {r}", f"C: {c}", f"D: {d}", "operator identity: pass",
                "moment bound: pass", "n,sum,bound,ratio_decimal,holds"]
        lines = out.split("\n")
        if lines[:6] != head or len(lines) != 6 + top + 1 or lines[-1] != "":
            return _first_difference(out, "\n".join(head))
        rows = lines[6:-1]
        for n, row in enumerate(rows, start=1):
            fields = row.split(",")
            if fields[0] != str(n) or fields[-1] != "true":
                return f"row {n}: {row[:60]!r}"
        for n in self._sample(job, top):
            if rows[n - 1] != lemma_row(r, n):
                return f"row {n}: {rows[n - 1][:60]!r}, expected {lemma_row(r, n)[:60]!r}"
        return None

    def _measure_sweep(self, job: Job, out: str) -> str | None:
        r, _, e = self.inp.sweep
        eps, top = Fraction(e), int(job.argv[8])
        lines = out.split("\n")
        if lines[0] != "n,exact_measure,bound,holds" or len(lines) != top + 2 or lines[-1]:
            return "sweep is not a header plus one row per n"
        for n in self._sample(job, top):
            measure, bound = deviation_measure(r, n, eps)
            want = f"{n},{measure},{bound},{'true' if measure <= bound else 'false'}"
            if lines[n] != want:
                return f"row {n}: {lines[n][:60]!r}, expected {want[:60]!r}"
        return None


def self_check() -> None:
    """The oracle's own formulas reproduce the paper's pinned constants."""
    if moment_constants(10)[1] != BASE10_D:
        raise AssertionError("moment constant D for base 10 is not 657/10000")
    digits = [int(c) for c in champernowne(10, 10**6)]
    counts = Counter(digits)
    if counts[1] != CHAMPERNOWNE_10_DIGIT1_COUNT or max_deviation(counts, 10**6, 10) != CHAMPERNOWNE_10_MAX_DEVIATION:
        raise AssertionError("champernowne base 10 pins disagree with the stdlib count")
