"""Deviation-set measures: exact values, bounds, tails, covers."""
import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normality_lab import exact, measure, moments
from normality_lab.cli import main
from normality_lab.errors import EnumerationBudgetError
from normality_lab.exact import binomial_row
from normality_lab.measure import (
    DeviationSetSpec,
    admissible_counts,
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
    tail_sum_bound,
)
from normality_lab.sources import random_stream

small_eps = st.fractions(min_value=Fraction(1, 100), max_value=1)


def spec(base, digit, n, eps):
    return DeviationSetSpec(base=base, digit=digit, n=n, epsilon=Fraction(eps))


def admissible_by_fractions(base, n, eps):
    """The Fraction comparison that admissible_counts replaces."""
    target = Fraction(1, base)
    return [p for p in range(n + 1) if abs(Fraction(p, n) - target) >= Fraction(eps)]


def edge_epsilons(r, n):
    """Epsilons where one side of the admissible rule empties or an edge
    falls just beside a count: 1/r, 1 - 1/r, 1 and 1/r +- 1/(r n)."""
    edges = [
        Fraction(1, r),
        1 - Fraction(1, r),
        Fraction(1),
        Fraction(1, r) + Fraction(1, r * n),
        Fraction(1, r) - Fraction(1, r * n),
    ]
    return [e for e in edges if 0 < e <= 1]


def bruteforce_by_tuples(s):
    """The oracle one tuple per digit string: each string's own count,
    looked up among the counts that meet the definition in Fractions."""
    uniform = Fraction(1, s.base)
    admissible = {
        c for c in range(s.n + 1) if abs(Fraction(c, s.n) - uniform) >= s.epsilon
    }
    hits = sum(
        1
        for digits in itertools.product(range(s.base), repeat=s.n)
        if digits.count(s.digit) in admissible
    )
    return Fraction(hits, s.base**s.n)


@st.composite
def oracle_cases(draw):
    """(r, digit, n, epsilon) with r**n up to about 3 * 10**5, which crosses
    the oracle's 2**16-string block; epsilon an edge of the count rule,
    some count's own deviation or a random a/b in (0, 1]."""
    r = draw(st.integers(2, 12))
    n_top = 1
    while r ** (n_top + 1) <= 300_000:
        n_top += 1
    n = draw(st.integers(1, n_top) | st.just(n_top))
    p = draw(st.integers(0, n))
    own = abs(Fraction(p, n) - Fraction(1, r))
    eps = draw(
        st.sampled_from(edge_epsilons(r, n) + ([own] if own else []))
        | st.fractions(min_value=Fraction(1, 1000), max_value=1)
    )
    return r, draw(st.integers(0, r - 1)), n, eps


def horner_measure(s):
    """The row-and-Horner route that the band walk replaced: every C(n,p)
    of binomial_row(n), by Horner's rule in r - 1, with the band's counts
    lo < p < hi as 0."""
    lo, hi = measure._edges(s.base, s.epsilon, s.n)
    numerator = 0
    for p, count in enumerate(binomial_row(s.n)):
        numerator = numerator * (s.base - 1) + (0 if lo < p < hi else count)
    return Fraction(numerator, s.base**s.n)


@st.composite
def walk_cases(draw):
    """(r, n, epsilon) with r in 2..12, 257 or 2**64 + 1 and n up to 400;
    epsilon an edge of the count rule (1, the empty set, among them) or a
    random a/b in (0, 1], above 1/r for lo < 0 and above 1 - 1/r for hi > n."""
    r = draw(st.integers(2, 12) | st.sampled_from([257, 2**64 + 1]))
    n = draw(st.integers(1, 400))
    eps = draw(
        st.sampled_from(edge_epsilons(r, n))
        | st.fractions(min_value=Fraction(1, 1000), max_value=1)
        | st.fractions(min_value=Fraction(1, r), max_value=1)
    )
    return r, n, eps


@st.composite
def boundary_cases(draw, n_max=300):
    """(r, n, p, epsilon): epsilon is count p's own deviation or one of
    the edge_epsilons of n."""
    r, n = draw(st.integers(2, 12)), draw(st.integers(1, n_max))
    p = draw(st.integers(0, n))
    own = abs(Fraction(p, n) - Fraction(1, r))
    eps = draw(st.sampled_from(edge_epsilons(r, n) + ([own] if own else [])))
    return r, n, p, eps


class TestSpecValidation:
    def test_digit_range(self):
        with pytest.raises(ValueError):
            spec(2, 2, 4, "1/2")

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            spec(2, 0, 4, 0)
        with pytest.raises(ValueError):
            spec(2, 0, 4, "3/2")
        # past the int-to-str digit limit the message names the size
        with pytest.raises(ValueError, match=r"got a rational too long to show \(16610-bit"):
            spec(2, 0, 4, 10**5000)

    def test_n_positive(self):
        with pytest.raises(ValueError):
            spec(2, 0, 0, "1/2")

    def test_epsilon_coerced_to_fraction(self):
        s = DeviationSetSpec(base=2, digit=0, n=4, epsilon="1/2")
        assert s.epsilon == Fraction(1, 2)


class TestCountMeasure:
    def test_uniform_prefix_measure(self):
        assert prefix_interval_measure(10, 3) == Fraction(1, 1000)
        assert prefix_interval_measure(2, 0) == 1

    def test_binomial_weights(self):
        assert digit_count_measure(2, 2, 1) == Fraction(1, 2)
        assert digit_count_measure(10, 1, 1) == Fraction(1, 10)
        assert digit_count_measure(10, 2, 0) == Fraction(81, 100)

    @given(st.integers(2, 10), st.integers(1, 40))
    @settings(max_examples=40)
    def test_normalization(self, base, n):
        assert sum(digit_count_measure(base, n, p) for p in range(n + 1)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            digit_count_measure(2, 3, 4)
        with pytest.raises(ValueError):
            digit_count_measure(2, 0, 0)


class TestDeviationSetMeasure:
    def test_worked_example(self):
        # base 2, n = 2, eps = 1/2: only counts 0 and 2 deviate by >= 1/2
        report = deviation_set_measure(spec(2, 0, 2, "1/2"))
        assert report.admissible_p == (0, 2)
        assert report.exact_measure == Fraction(1, 2)
        assert report.bound == Fraction(3, 4)

    def test_empty_set(self):
        report = deviation_set_measure(spec(2, 0, 2, "3/4"))
        assert report.admissible_p == ()
        assert report.exact_measure == 0

    @given(walk_cases())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_band_walk_equals_row_and_horner(self, case):
        r, n, eps = case
        s = spec(r, 0, n, eps)
        assert deviation_set_measure(s).exact_measure == horner_measure(s)

    @pytest.mark.parametrize("base", [2, 10, 2**64 + 1])
    def test_epsilon_one_makes_no_weight(self, monkeypatch, base):
        steps = []

        def counted(w, r, n, p):
            steps.append(p)
            return next_weight(w, r, n, p)

        next_weight = measure._next_weight
        monkeypatch.setattr(measure, "_next_weight", counted)
        assert deviation_set_measure(spec(base, 0, 2000, 1)).exact_measure == 0
        assert steps == []

    # epsilons whose two tails hold fewer counts than the band
    @pytest.mark.parametrize("base, eps", [
        (2, "1/4"), (2, "1/3"), (2, "2/5"), (2, "1/2"), (2, "3/4"), (2, "1"), (3, "1/2"),
    ])
    def test_tail_walk_is_sum_of_count_measures(self, base, eps):
        for n in range(1, 160):
            expected = sum(
                (digit_count_measure(base, n, p) for p in admissible_by_fractions(base, n, eps)),
                Fraction(0),
            )
            assert deviation_set_measure(spec(base, 0, n, eps)).exact_measure == expected, n

    def test_measure_memory_is_one_weight(self):
        # the binomial row of n = 20000 alone peaked at 18.8 MiB
        s = spec(2, 0, 20000, "1/3")
        tracemalloc.start()
        try:
            got = deviation_set_measure(s).exact_measure
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == horner_measure(s)
        assert peak < 2**20

    def test_threshold_is_inclusive(self):
        # p = 3, n = 4: |3/4 - 1/2| = 1/4 exactly; eps = 1/4 keeps it
        assert 3 in admissible_counts(spec(2, 1, 4, "1/4"))
        assert 3 not in admissible_counts(spec(2, 1, 4, "26/100"))
        assert admissible_counts(spec(2, 0, 4, "1/4")) == [0, 1, 3, 4]

    @given(
        st.integers(2, 12),
        st.integers(1, 80),
        st.fractions(min_value=Fraction(1, 1000), max_value=1),
    )
    @settings(max_examples=150)
    def test_admissible_matches_fraction_rule(self, base, n, eps):
        assert admissible_counts(spec(base, 0, n, eps)) == admissible_by_fractions(
            base, n, eps
        )

    @given(boundary_cases())
    @settings(max_examples=150)
    def test_admissible_on_exact_boundaries(self, case):
        # epsilon equal to some count's own deviation: that count must stay in
        base, n, p, eps = case
        counts = admissible_counts(spec(base, 0, n, eps))
        assert (p in counts) == (abs(Fraction(p, n) - Fraction(1, base)) >= eps)
        assert counts == admissible_by_fractions(base, n, eps)

    @given(st.integers(2, 12), st.integers(1, 300), st.data())
    @settings(max_examples=100)
    def test_measure_is_sum_of_count_measures(self, base, n, data):
        # half the draws put epsilon exactly on some count's own deviation
        p = data.draw(st.integers(0, n))
        eps = abs(Fraction(p, n) - Fraction(1, base))
        if eps == 0 or data.draw(st.booleans()):
            eps = data.draw(st.fractions(min_value=Fraction(1, 1000), max_value=1))
        expected = sum(
            (digit_count_measure(base, n, q) for q in admissible_by_fractions(base, n, eps)),
            Fraction(0),
        )
        assert deviation_set_measure(spec(base, 0, n, eps)).exact_measure == expected

    def test_json_shape(self):
        payload = deviation_set_measure(spec(2, 0, 2, "1/2")).to_json_dict()
        assert payload == {
            "r": 2,
            "b": 0,
            "n": 2,
            "epsilon": "1/2",
            "exact_measure": "1/2",
            "bound": "3/4",
            "admissible_p": [0, 2],
        }

    def test_digit_symmetry(self):
        for digit in range(3):
            report = deviation_set_measure(spec(3, digit, 7, "1/4"))
            assert report.exact_measure == deviation_set_measure(
                spec(3, 0, 7, "1/4")
            ).exact_measure

    @given(
        st.integers(2, 4),
        st.integers(1, 9),
        st.fractions(min_value=Fraction(1, 20), max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bruteforce_oracle_agrees(self, base, n, eps):
        s = spec(base, 0, n, eps)
        assert deviation_set_measure(s).exact_measure == deviation_set_measure_bruteforce(s)

    @given(oracle_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_bruteforce_oracle_matches_tuple_enumeration(self, case):
        s = spec(*case)
        assert deviation_set_measure_bruteforce(s) == bruteforce_by_tuples(s)

    @pytest.mark.parametrize(
        "base, digit, n, eps",
        [
            (300, 0, 1, "1/300"),
            (300, 299, 2, "1/2"),
            (300, 7, 2, "1/300"),
            (300, 7, 2, "299/300"),
            (70000, 69999, 1, "1/70000"),
            (70000, 0, 1, "69999/70000"),
            (2**20 + 3, 2**20 + 2, 1, "1/2"),
            (2**20 + 3, 5, 1, "1/1048579"),
            (10**6, 3, 1, "1/2"),
            (10**6, 999999, 1, "999999/1000000"),
        ],
    )
    def test_bruteforce_oracle_in_large_bases(self, base, digit, n, eps):
        # base 300 fits one digit in a block; above 2**16 one digit's
        # strings are cut into slices, the last one short
        s = spec(base, digit, n, eps)
        expected = bruteforce_by_tuples(s)
        assert deviation_set_measure_bruteforce(s) == expected
        assert deviation_set_measure(s).exact_measure == expected

    def test_bruteforce_oracle_memory_is_one_block(self):
        s = spec(2, 1, 22, "1/10")
        tracemalloc.start()
        try:
            got = deviation_set_measure_bruteforce(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == deviation_set_measure(s).exact_measure
        assert peak < 2**20

    def test_bruteforce_oracle_memory_above_one_block(self):
        # 2**24 one-digit strings: 256 slices, never the whole row
        s = spec(2**24, 3, 1, "1/2")
        tracemalloc.start()
        try:
            got = deviation_set_measure_bruteforce(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == Fraction(1, 2**24)
        assert peak < 2**20

    def test_bruteforce_oracle_does_not_use_the_integer_rule(self, monkeypatch):
        # |3/4 - 1/2| = 1/4 sits on the boundary, which a strict > rule drops
        s = spec(2, 1, 4, "1/4")
        expected = deviation_set_measure_bruteforce(s)
        monkeypatch.setattr(
            measure,
            "admissible_counts",
            lambda sp: [
                p for p in range(sp.n + 1)
                if abs(Fraction(p, sp.n) - Fraction(1, sp.base)) > sp.epsilon
            ],
        )
        monkeypatch.setattr(measure, "_edges", lambda base, eps, n: (0, n))
        assert deviation_set_measure_bruteforce(s) == expected == Fraction(10, 16)

    def test_budget_error_reports_requirement(self):
        s = spec(10, 0, 9, "1/10")
        with pytest.raises(EnumerationBudgetError) as exc:
            deviation_set_measure_bruteforce(s, budget=2)
        assert exc.value.required == 10**9
        assert exc.value.budget == 2


@st.composite
def sweep_cases(draw):
    """(r, epsilon, n_max): epsilon an edge value of the admissible rule
    or a random a/b in (0, 1]."""
    r = draw(st.integers(2, 12))
    n_max = draw(st.integers(1, 300))
    near = draw(st.integers(max(1, n_max - 3), n_max + 3))
    eps = draw(
        st.sampled_from(edge_epsilons(r, near) + [Fraction(1, 2 * r)])
        | st.fractions(min_value=Fraction(1, 1000), max_value=1)
    )
    return r, eps, n_max


class TestDeviationSetSweep:
    @given(sweep_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_n_measure_and_bound(self, case):
        r, eps, n_max = case
        rows = list(deviation_set_sweep(r, eps, n_max))
        assert [n for n, _, _ in rows] == list(range(1, n_max + 1))
        for n, exact, bound in rows:
            report = deviation_set_measure(spec(r, 0, n, eps))
            assert exact == report.exact_measure
            assert bound == report.bound == deviation_bound(r, eps, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            list(deviation_set_sweep(2, Fraction(0), 3))
        with pytest.raises(ValueError):
            list(deviation_set_sweep(2, Fraction(3, 2), 3))
        with pytest.raises(ValueError):
            list(deviation_set_sweep(2, Fraction(1, 2), 0))
        with pytest.raises(ValueError):
            list(deviation_set_sweep(1, Fraction(1, 2), 3))

    def test_cli_sweep_builds_no_binomial_rows(self, capsys, monkeypatch):
        # neither --n-max nor -n builds a row, and the walk of -n meets the
        # sweep's last row
        calls = []
        plain = exact.binomial_row

        def counting_row(n):
            calls.append(n)
            return plain(n)

        assert not hasattr(measure, "binomial_row")
        for module in (exact, moments):
            monkeypatch.setattr(module, "binomial_row", counting_row)
        argv = ["measure", "--base", "10", "--epsilon", "1/10"]
        assert main([*argv, "--n-max", "300", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 301
        assert main([*argv, "-n", "300"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact_measure"] == out.splitlines()[-1].split(",")[1]
        assert calls == []


class TestDeviationBound:
    def test_spot_values(self):
        assert deviation_bound(2, Fraction(1, 2), 4) == Fraction(3, 16) / (
            Fraction(1, 16) * 16
        )
        assert deviation_bound(2, Fraction(1, 2), 10) == Fraction(3, 100)
        assert deviation_bound(10, Fraction(1, 10), 1) == Fraction(657, 1)

    def test_measure_below_bound_examples(self):
        for n in (1, 2, 5, 20, 100):
            report = deviation_set_measure(spec(2, 0, n, "1/10"))
            assert report.exact_measure <= report.bound

    @given(st.integers(2, 6), st.integers(1, 80), small_eps)
    @settings(max_examples=80, deadline=None)
    def test_measure_below_bound_property(self, base, n, eps):
        report = deviation_set_measure(spec(base, 0, n, eps))
        assert report.exact_measure <= report.bound

    def test_validation(self):
        with pytest.raises(ValueError):
            deviation_bound(2, Fraction(0), 4)
        with pytest.raises(ValueError):
            deviation_bound(2, Fraction(1, 2), 0)


class TestTails:
    def test_values(self):
        assert tail_sum_bound(1) == 2
        assert tail_sum_bound(2) == 1
        assert tail_sum_bound(5) == Fraction(1, 4)

    def test_dominates_partial_sums(self):
        for m in (1, 2, 3, 10):
            partial = sum(Fraction(1, n * n) for n in range(m, m + 400))
            assert partial < tail_sum_bound(m)

    def test_tail_measure_bound(self):
        # D = 3/16, eps = 1/2: D/eps^4 = 3, so the m-tail is 3/(m-1)
        assert tail_measure_bound(2, Fraction(1, 2), 4) == 1
        assert tail_measure_bound(2, Fraction(1, 2), 1) == 6

    def test_witness_spot_value(self):
        assert null_witness_index(2, Fraction(1, 2), Fraction(1)) == 4

    def test_witness_is_minimal(self):
        m = null_witness_index(2, Fraction(1, 2), Fraction(1))
        assert tail_measure_bound(2, Fraction(1, 2), m) <= 1
        assert tail_measure_bound(2, Fraction(1, 2), m - 1) > 1

    def test_witness_one_when_target_generous(self):
        assert null_witness_index(2, Fraction(1, 2), Fraction(6)) == 1

    @given(
        st.integers(2, 10),
        small_eps,
        st.fractions(min_value=Fraction(1, 1000), max_value=10),
    )
    @settings(max_examples=80)
    def test_witness_property(self, base, eps, target):
        m = null_witness_index(base, eps, target)
        assert tail_measure_bound(base, eps, m) <= target
        if m > 1:
            assert tail_measure_bound(base, eps, m - 1) > target

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_sum_bound(0)
        with pytest.raises(ValueError):
            null_witness_index(2, Fraction(1, 2), Fraction(0))


class TestCover:
    def test_lengths_halve(self):
        points = [Fraction(k, 10) for k in range(4)]
        cover = geometric_interval_cover(points, Fraction(1, 2))
        assert [hw for _, hw in cover] == [
            Fraction(1, 8), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64),
        ]
        assert [c for c, _ in cover] == points

    def test_total_length_formula(self):
        points = [Fraction(k) for k in range(10)]
        eps = Fraction(3, 7)
        total = cover_total_length(geometric_interval_cover(points, eps))
        assert total == eps * (1 - Fraction(1, 2**10))
        assert total < eps

    def test_empty_cover(self):
        assert cover_total_length([]) == 0

    @given(st.integers(1, 50), small_eps)
    @settings(max_examples=40)
    def test_any_prefix_stays_below_epsilon(self, k, eps):
        points = [Fraction(i, k + 1) for i in range(k)]
        total = cover_total_length(geometric_interval_cover(points, eps))
        assert total == eps * (1 - Fraction(1, 2**k))

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_interval_cover([Fraction(0)], Fraction(0))


class TestMonteCarlo:
    def test_deterministic(self):
        s = spec(2, 0, 2, "1/2")
        a = monte_carlo_deviation(s, 500, seed=42)
        b = monte_carlo_deviation(s, 500, seed=42)
        assert a == b

    def test_frozen_value(self):
        # exact measure is 1/2; one thousand samples land close
        s = spec(2, 0, 2, "1/2")
        assert monte_carlo_deviation(s, 1000, seed=42) == Fraction(13, 25)

    def test_seed_changes_result(self):
        s = spec(2, 0, 2, "1/2")
        assert monte_carlo_deviation(s, 1000, seed=43) == Fraction(1, 2)

    @staticmethod
    def sampled_by_the_definition(s, samples, seed):
        n, uniform = s.n, Fraction(1, s.base)
        digits = random_stream(s.base, seed).take(n * samples)
        hits = sum(
            abs(Fraction(digits[i : i + n].count(s.digit), n) - uniform) >= s.epsilon
            for i in range(0, n * samples, n)
        )
        return Fraction(hits, samples)

    @given(
        boundary_cases(n_max=12), st.data(), st.integers(1, 40), st.integers(0, 2**32)
    )
    @settings(max_examples=60)
    def test_counts_samples_by_the_definition(self, case, data, samples, seed):
        r, n, _, eps = case
        s = spec(r, data.draw(st.integers(0, r - 1)), n, eps)
        assert monte_carlo_deviation(s, samples, seed) == self.sampled_by_the_definition(
            s, samples, seed
        )

    @pytest.mark.parametrize(
        "base, digit, n, eps, samples",
        [
            (300, 17, 3, "1/300", 400),  # digits come as a list above base 256
            (70000, 5, 1, "1/2", 50),
            (2, 1, 127, "1/20", 200),  # the widest count one byte lane holds
            (2, 1, 128, "1/20", 200),
            (2, 1, 300, "1/20", 20),  # fewer samples than digits a sample
            (2, 0, 300, "1/20", 400),
            (10, 3, 300, "1", 300),  # neither side has a count
            (10, 9, 256, "1/10", 256),
        ],
    )
    def test_counts_samples_by_the_definition_in_wide_cases(
        self, base, digit, n, eps, samples
    ):
        s = spec(base, digit, n, eps)
        for seed in (1, 2):
            assert monte_carlo_deviation(s, samples, seed) == (
                self.sampled_by_the_definition(s, samples, seed)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_deviation(spec(2, 0, 2, "1/2"), 0, seed=1)
