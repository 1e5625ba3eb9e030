"""Seeded inputs and the job list of each workload.

Every workload is a fixed list of CLI jobs.  The seed changes the
generated inputs (digit files, the xorshift seed, the rational, the
bases and epsilons of the exact jobs) but never the job list or the
job sizes, so every seed costs about the same.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

FILE10_DIGITS = 10**6
FILE100_DIGITS = 2 * 10**5
DIGITS_PER_LINE = 100
BRACKETS_PER_LINE = 50
# the enumeration oracle job walks all 2**18 digit strings
ORACLE_BASE, ORACLE_N = 2, 18

# the rational's denominator is a prime in this range with 10 as a
# primitive root, so its period is q - 1 on every seed
RATIONAL_Q_RANGE = (980_000, 1_000_000)

DIGIT_SCAN_CHECKS = (
    "pi-digit-count",
    "pi-bracket-display",
    "half-expansion-tail-free",
    "monte-carlo-regression",
    "champernowne-frequency-regression",
)
VIEW_BATTERY_CHECKS = (
    "third-base4-constant-digit",
    "block-count-overlap",
    "shift-regroup-worked-example",
    "power-base-block-decomposition",
    "champernowne-frequency-regression",
)
# Digits a verify-paper check reads, from its own fixed parameters.
# Checks reading fewer than 1000 digits count as 0.
CHECK_DIGITS = {
    # a 10^6-digit report plus a base-2 battery to power 3 over 10^5 digits
    "champernowne-frequency-regression": 10**6 + sum(
        m + p * 100_000 for p in range(1, 4) for m in range(p)
    ),
    # 10^5 samples of 2 digits each
    "monte-carlo-regression": 2 * 100_000,
}


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides; the program sees only these values."""

    seed: int
    file10: Path
    file10_int: int
    file10_digit: int
    file100: Path
    xorshift_seed: int
    rational: tuple[int, int]
    word: str
    lemma_bases: tuple[int, int]
    sweep: tuple[int, int, str]  # base, digit, epsilon
    single: tuple[int, int, str]
    oracle: tuple[int, str]  # digit, epsilon; base and n are ORACLE_BASE, ORACLE_N


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the source digits its result is defined over."""

    name: str
    argv: tuple[str, ...]
    digits: int


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def full_period_prime(rng: random.Random) -> int:
    """A prime q in RATIONAL_Q_RANGE whose base-10 period is q - 1."""
    lo, hi = RATIONAL_Q_RANGE
    while True:
        q = rng.randrange(lo, hi)
        if _is_prime(q) and all(
            pow(10, (q - 1) // f, q) != 1 for f in _prime_factors(q - 1)
        ):
            return q


def _write_lines(path: Path, header: str, chunks) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        for chunk in chunks:
            fh.write(chunk)
            fh.write("\n")


def make_inputs(seed: int, workdir: Path) -> Inputs:
    """Draw every seeded input, in a fixed order, and write the digit files."""
    rng = random.Random(seed)
    digits10 = "".join(rng.choices("0123456789", k=FILE10_DIGITS))
    file10_int = rng.randrange(1, 1000)
    file10 = workdir / "seeded_base10.digits"
    _write_lines(
        file10,
        f"base=10\nint={file10_int}\n",
        (digits10[i : i + DIGITS_PER_LINE] for i in range(0, FILE10_DIGITS, DIGITS_PER_LINE)),
    )
    tokens100 = [f"[{d}]" for d in rng.choices(range(100), k=FILE100_DIGITS)]
    file100 = workdir / "seeded_base100.digits"
    _write_lines(
        file100,
        "base=100\n",
        ("".join(tokens100[i : i + BRACKETS_PER_LINE])
         for i in range(0, FILE100_DIGITS, BRACKETS_PER_LINE)),
    )
    q = full_period_prime(rng)
    rational = (rng.randrange(1, q), q)
    sweep_base = rng.randrange(5, 9)
    single_base = rng.randrange(3, 6)
    epsilons = ("1/12", "1/10", "1/8")
    return Inputs(
        seed=seed,
        file10=file10,
        file10_int=file10_int,
        file10_digit=rng.randrange(10),
        file100=file100,
        xorshift_seed=rng.getrandbits(64) | 1,
        rational=rational,
        word="".join(rng.choices("01", k=5)),
        lemma_bases=(rng.randrange(3, 7), rng.randrange(7, 13)),
        sweep=(sweep_base, rng.randrange(sweep_base), rng.choice(epsilons)),
        single=(single_base, rng.randrange(single_base), rng.choice(epsilons)),
        oracle=(rng.randrange(2), rng.choice(epsilons)),
    )


def battery_digits(max_power: int, n: int) -> int:
    """Digits a battery result is defined over: sum over views of m + power*n."""
    return sum(m + p * n for p in range(1, max_power + 1) for m in range(p))


def _verify_job(checks: tuple[str, ...] | None) -> Job:
    argv = ("verify-paper",) if checks is None else ("verify-paper", "--only", ",".join(checks))
    counted = CHECK_DIGITS if checks is None else {c: CHECK_DIGITS.get(c, 0) for c in checks}
    return Job("verify-paper", argv, sum(counted.values()))


def digit_scan(inp: Inputs) -> list[Job]:
    a, q = inp.rational
    return [
        Job("stats-champernowne",
            ("stats", "--source", "champernowne", "--base", "10", "-n", "1000000",
             "--digit", "1", "--format", "text"), 10**6),
        Job("stats-random",
            ("stats", "--source", f"random:{inp.xorshift_seed}", "--base", "10",
             "-n", "500000", "--format", "text"), 500_000),
        Job("stats-rational",
            ("stats", "--source", f"rational:{a}/{q}", "--base", "10", "-n", "300000",
             "--format", "text"), 300_000),
        Job("stats-file10",
            ("stats", "--source", f"file:{inp.file10}", "-n", str(FILE10_DIGITS),
             "--digit", str(inp.file10_digit), "--format", "text"), FILE10_DIGITS),
        Job("stats-file100",
            ("stats", "--source", f"file:{inp.file100}", "-n", str(FILE100_DIGITS),
             "--format", "text"), FILE100_DIGITS),
        Job("expand-file10",
            ("expand", "--source", f"file:{inp.file10}", "--digits", "100000"), 100_000),
        _verify_job(DIGIT_SCAN_CHECKS),
    ]


def view_battery(inp: Inputs) -> list[Job]:
    return [
        Job("battery-champernowne-p8",
            ("battery", "--source", "champernowne", "--base", "2", "--max-power", "8",
             "-n", "10000"), battery_digits(8, 10_000)),
        Job("battery-random-p8",
            ("battery", "--source", f"random:{inp.xorshift_seed}", "--base", "2",
             "--max-power", "8", "-n", "10000"), battery_digits(8, 10_000)),
        Job("battery-file10-base100",
            ("battery", "--source", f"file:{inp.file10}", "--base", "100",
             "--max-power", "2", "-n", "50000"), battery_digits(2, 50_000)),
        Job("battery-champernowne-p13",
            ("battery", "--source", "champernowne", "--base", "2", "--max-power", "13",
             "-n", "500"), battery_digits(13, 500)),
        Job("stats-word",
            ("stats", "--source", f"random:{inp.xorshift_seed}", "--base", "2",
             "-n", "200000", "--word", inp.word, "--format", "text"), 200_000),
        _verify_job(VIEW_BATTERY_CHECKS),
    ]


def exact_bounds(inp: Inputs) -> list[Job]:
    r1, r2 = inp.lemma_bases
    sb, sd, se = inp.sweep
    b, d, e = inp.single
    od, oe = inp.oracle
    return [
        _verify_job(None),
        Job("verify-lemma-small-base", ("verify-lemma", "--base", str(r1), "--n-max", "800"), 0),
        Job("verify-lemma-large-base", ("verify-lemma", "--base", str(r2), "--n-max", "800"), 0),
        Job("measure-sweep",
            ("measure", "--base", str(sb), "--digit", str(sd), "--epsilon", se,
             "--n-max", "400", "--format", "csv"), 0),
        Job("measure-single",
            ("measure", "--base", str(b), "--digit", str(d), "--epsilon", e, "-n", "5000"), 0),
        Job("measure-oracle",
            ("measure", "--base", str(ORACLE_BASE), "--digit", str(od), "--epsilon", oe,
             "-n", str(ORACLE_N), "--oracle", "--format", "text"), 0),
    ]


WORKLOADS = {
    "digit-scan": digit_scan,
    "view-battery": view_battery,
    "exact-bounds": exact_bounds,
}
