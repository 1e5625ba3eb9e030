"""End-to-end CLI behavior: output bytes, formats, exit codes."""
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import normality_lab
from normality_lab import cli, sources, verify
from normality_lab.cli import main
from normality_lab.errors import CapError, NormalityLabError
from normality_lab.radix import FACTORIZATION_BUDGET, _GroupedStream
from normality_lab.sources import ASSETS_ENV, SourceSpec, parse_source_spec
from normality_lab.stats import Word, count_block


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("stats", "--source", "rational:1/3", "--base", "2", "-n", "0"),
    ("stats", "--source", "rational:1/3", "--base", "1", "-n", "5"),
    ("battery", "--source", "rational:1/3", "--base", "2", "--max-power", "0", "-n", "10"),
    ("battery", "--source", "rational:1/3", "--base", "2", "--max-power", "2", "-n", "0"),
    ("verify-lemma", "--base", "2", "--n-max", "0"),
    ("measure", "--base", "2", "--epsilon", "1/2", "--n-max", "0"),
    ("measure", "--base", "2", "--epsilon", "1/2", "--tail", "0"),
    ("measure", "--base", "2", "--epsilon", "1/2", "-n", "0"),
    ("measure", "--base", "2", "--epsilon", "3/2", "-n", "2"),
    ("measure", "--base", "2", "--epsilon", "1/2", "--tail", "2", "--target", "0"),
    ("measure", "--base", "2", "--digit", "2", "--epsilon", "1/2", "--tail", "2"),
    ("measure", "--base", "2", "--epsilon", "1/2", "-n", "2", "--n-max", "3"),
    ("measure", "--base", "2", "--epsilon", "1/2", "--n-max", "3", "--tail", "2"),
    ("measure", "--base", "2", "--epsilon", "1/2", "-n", "2", "--target", "1"),
    ("measure", "--base", "2", "--epsilon", "1/2", "--n-max", "3", "--oracle"),
    ("measure", "--base", "2", "--epsilon", "1/2", "--tail", "2", "--oracle"),
    ("measure", "--base", "2", "--epsilon", "1/2", "-n", "2", "--oracle", "--budget", "-3"),
    ("measure", "--base", "2", "--epsilon", "1/2", "-n", "2", "--oracle", "--budget", "0"),
    ("measure", "--base", "2", "--epsilon", "1/2", "--n-max", "2", "--format", "json"),
    ("measure", "--base", "2", "--epsilon", "1/2", "--n-max", "2", "--format", "text"),
    ("measure", "--base", "2", "--epsilon", "1/2", "-n", "2", "--format", "csv"),
    ("measure", "--base", "2", "--epsilon", "1/2", "--tail", "2", "--format", "csv"),
    ("verify-paper", "--only", ","),
    ("verify-paper", "--only", ""),
    ("stats", "--source", "file:pi_base10.digits", "--base", "7", "-n", "5"),
    ("expand", "--source", "champernowne", "--base", "1", "--digits", "3"),
])
def test_rejected_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


class TestExpand:
    def test_tenth(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--source", "rational:1/10", "--base", "10",
            "--digits", "4",
        )
        assert code == 0
        assert out == "0.1000\n"

    def test_zero(self, capsys):
        _, out, _ = run(
            capsys, "expand", "--source", "rational:0", "--base", "10",
            "--digits", "3",
        )
        assert out == "0.000\n"

    def test_champernowne(self, capsys):
        _, out, _ = run(
            capsys, "expand", "--source", "champernowne", "--base", "10",
            "--digits", "10",
        )
        assert out == "0.1234567891\n"

    def test_random_is_frozen(self, capsys):
        _, out, _ = run(
            capsys, "expand", "--source", "random:42", "--base", "10",
            "--digits", "5",
        )
        assert out == "0.41462\n"

    def test_file_in_power_base_keeps_integer_part(self, capsys):
        _, out, _ = run(
            capsys, "expand", "--source", "file:pi_base10.digits",
            "--base", "100", "--digits", "4",
        )
        assert out == "[3].[14][15][92]\n"

    def test_json_carries_period(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--source", "rational:1/6", "--base", "10",
            "--digits", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["display"] == "0.1666"
        assert payload["preperiod"] == 1
        assert payload["period"] == 1

    def test_huge_period_streams(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--source", "rational:1/1000000007", "--base", "10",
            "--digits", "30",
        )
        assert code == 0
        assert out == f"0.{10**30 // 1000000007:030d}\n"

    def test_huge_period_json_finishes(self, capsys):
        # 10 is a primitive root mod 10**9 + 7: the period is 10**9 + 6
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "expand", "--source", "rational:1/1000000007", "--base", "10",
            "--digits", "30", "--format", "json",
        )
        assert time.perf_counter() - start < 10
        assert code == 0
        payload = json.loads(out)
        assert (payload["preperiod"], payload["period"]) == (0, 1000000006)

    def test_period_past_the_factorization_budget_is_a_runtime_error(self, capsys):
        # 1000000000000037 * 3000000000000037: rho would need about 3 * 10**7
        # steps to split it, far past the budget
        den = "3000000000000148000000000001369"
        code, out, err = run(
            capsys, "expand", "--source", f"rational:1/{den}", "--base", "10",
            "--digits", "5", "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert den in err and str(FACTORIZATION_BUDGET) in err

    def test_period_of_a_long_smooth_denominator_is_a_runtime_error(self, capsys):
        # 10**6000 has too many digits to print: the error names its length
        code, out, err = run(
            capsys, "expand", "--source", "rational:1e-6000", "--base", "3",
            "--digits", "3", "--format", "json",
        )
        assert (code, out) == (1, "")
        assert "a denominator of 19932 bits" in err

    def test_reads_the_digit_file_header_once(self, capsys, monkeypatch):
        calls = []
        load = sources.load_digit_file

        def spy(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(sources, "load_digit_file", spy)
        code = main(["expand", "--source", "file:pi_base10.digits", "--base", "100",
                     "--digits", "30"])
        assert code == 0
        assert capsys.readouterr().out.startswith("[3].[14][15][92]")
        assert len(calls) == 1

    def test_denominator_past_the_int_str_digit_limit(self, capsys):
        # 10**5000 has more digits than int-to-str converts by default
        code, out, _ = run(
            capsys, "expand", "--source", "rational:1e-5000", "--base", "10",
            "--digits", "3",
        )
        assert code == 0
        assert out == "0.000\n"

    def test_decimal_literal_past_the_int_str_digit_limit(self, capsys):
        # 5000 digits after the point, and in a denominator: Fraction alone
        # stops at 4300
        code, out, err = run(
            capsys, "expand", "--source", "rational:0." + "3" * 5000, "--base", "10",
            "--digits", "5",
        )
        assert (code, out, err) == (0, "0.33333\n", "")
        code, out, err = run(
            capsys, "measure", "--base", "2", "--epsilon", "1/" + "7" * 5000, "--tail", "1",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["epsilon"] == "1/" + "7" * 5000

    def test_base_required_for_rational(self, capsys):
        run_usage_error(capsys, "expand", "--source", "rational:1/3",
                        "--digits", "4")

    def test_digits_must_be_positive(self, capsys):
        run_usage_error(capsys, "expand", "--source", "rational:1/3",
                        "--base", "2", "--digits", "0")

    def test_missing_file_is_runtime_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(ASSETS_ENV, str(tmp_path))
        code, out, err = run(
            capsys, "expand", "--source", "file:nope.digits", "--digits", "4",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_non_power_base_rejected(self, capsys):
        run_usage_error(
            capsys, "expand", "--source", "file:pi_base10.digits",
            "--base", "7", "--digits", "4",
        )


class TestStats:
    ARGS = ("stats", "--source", "rational:11010111011-prefix", "--base", "2",
            "-n", "11")

    def test_non_ascii_digit_file_is_typed_error(self, capsys, tmp_path):
        p = tmp_path / "bad.digits"
        p.write_bytes(b"base=10\n" + (b"1" * 99 + b"\n") * 100 + "12\u00e9\n".encode())
        code, out, err = run(capsys, "stats", "--source", f"file:{p}", "-n", "10000")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_digit_and_word_counts(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--digit", "1", "--word", "01")
        assert code == 0
        payload = json.loads(out)
        assert payload["base"] == 2
        assert payload["n"] == 11
        assert payload["digit"] == 1
        assert payload["digit_count"] == 8
        assert payload["word"] == "01"
        assert payload["word_count"] == 3
        assert payload["counts"] == {"0": 3, "1": 8}

    def test_deviations_are_exact_strings(self, capsys):
        _, out, _ = run(capsys, *self.ARGS)
        payload = json.loads(out)
        assert payload["deviations"]["1"] == "5/22"
        assert payload["max_deviation"] == "5/22"

    def test_text_format(self, capsys):
        _, out, _ = run(capsys, *self.ARGS, "--format", "text", "--digit", "1")
        assert "max deviation: 5/22" in out
        assert "digit 1: 8 occurrences" in out

    def test_digit_out_of_range(self, capsys):
        run_usage_error(capsys, *self.ARGS, "--digit", "2")

    def test_short_final_group_is_a_shortfall_in_grouped_digits(self, capsys):
        # 1000 base-10 digits hold 333 whole groups of 3
        code, out, err = run(
            capsys, "stats", "--source", "file:pi_base10.digits", "--base", "1000",
            "-n", "334",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: digit stream exhausted after 333 digits (requested 334)"
            " [file:pi_base10.digits grouped by 3]\n"
        )

    @pytest.mark.parametrize("source, base, word, grouped", [
        ("random:7", 2, "101", False),
        ("file:pi_base10.digits", None, "14", False),
        ("bits", 4, "13", True),  # a base-2 file read in base 4
    ])
    def test_word_count_reads_source_once(
        self, capsys, monkeypatch, tmp_path, source, base, word, grouped
    ):
        if source == "bits":
            p = tmp_path / "bits.digits"
            p.write_text("base=2\n" + "0110100111" * 50 + "\n", encoding="ascii")
            source = f"file:{p}"
        spec = parse_source_spec(source, base)
        expected = count_block(spec.stream(), Word.parse(word, spec.base), 200)
        calls, forks = [], []
        stream, fork = SourceSpec.stream, _GroupedStream.fork
        monkeypatch.setattr(
            SourceSpec, "stream", lambda self: calls.append(self) or stream(self)
        )
        monkeypatch.setattr(
            _GroupedStream, "fork", lambda self: forks.append(self) or fork(self)
        )
        argv = ["stats", "--source", source, "-n", "200", "--word", word]
        if base is not None:
            argv += ["--base", str(base)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == 1
        assert len(forks) == grouped
        assert json.loads(out)["word_count"] == expected

    def test_word_must_parse(self, capsys):
        run_usage_error(capsys, *self.ARGS, "--word", "012")

    PI_100 = ("stats", "--source", "file:pi_base10.digits", "--base", "100", "-n", "400")

    def test_bracketed_word_in_base_100(self, capsys):
        code, out, _ = run(capsys, *self.PI_100, "--word", "[14][15]", "--format", "text")
        assert code == 0
        # the base-10 digit pairs of the file, counted one window at a time
        tens = parse_source_spec("file:pi_base10.digits").stream().take(800)
        pairs = [10 * tens[i] + tens[i + 1] for i in range(0, 800, 2)]
        expected = sum(pairs[i : i + 2] == [14, 15] for i in range(399))
        assert expected >= 1
        assert out.splitlines()[-1] == f"word [14][15]: {expected} occurrences"

    @pytest.mark.parametrize("word, message", [
        ("1415", "bracketed decimal digits"),
        ("[14][15", "bracketed decimal digits"),
        ("[14] [15]", "bracketed decimal digits"),
        ("[14][100]", "digit 100 out of range for base 100"),
    ])
    def test_bracketed_word_errors(self, capsys, word, message):
        err = run_usage_error(capsys, *self.PI_100, "--word", word)
        assert message in err
        assert "Traceback" not in err

    def test_huge_base_text_reads_the_sparse_report(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "stats", "--source", "random:1", "--base", str(2**40), "-n", "10",
            "--digit", "0", "--format", "text",
        )
        assert time.perf_counter() - start < 10
        assert code == 0
        assert out.splitlines()[1:] == [
            f"base: {2**40}",
            "n: 10",
            # ten distinct digits, each 1/10 - 1/2**40 off uniform
            "max deviation: 549755813883/5497558138880 (~ 0.0999999999991)",
            "digit 0: 0 occurrences",
        ]

    def test_huge_base_json_is_a_usage_error(self, capsys):
        err = run_usage_error(
            capsys, "stats", "--source", "random:1", "--base", str(2**40), "-n", "10",
        )
        assert "--format text" in err
        assert "Traceback" not in err

    def test_random_base_above_two_to_the_64_is_a_usage_error(self):
        # in a child process, so a hang fails the test instead of stalling it
        env = dict(os.environ, PYTHONPATH=str(Path(normality_lab.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from normality_lab.cli import main; sys.exit(main(sys.argv[1:]))",
             "stats", "--source", "random:1", "--base", str(2**64 + 1), "-n", "1",
             "--format", "text"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert done.returncode == 2
        assert "base <= 2**64" in done.stderr
        assert "Traceback" not in done.stderr

    def test_random_base_two_to_the_64_works(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--source", "random:1", "--base", str(2**64), "-n", "3",
            "--format", "text",
        )
        assert code == 0
        assert "n: 3\n" in out

    CHAMPERNOWNE = ("stats", "--source", "champernowne", "--base", "10", "--digit", "1")

    @pytest.mark.parametrize("n, lines", [
        (10**6, ["max deviation: 7981/100000 (~ 0.07981)", "digit 1: 179810 occurrences"]),
        (10**8, ["max deviation: 529321/12500000 (~ 0.04234568)",
                 "digit 1: 14234568 occurrences"]),
    ])
    def test_champernowne_is_counted_without_digits(self, capsys, monkeypatch, n, lines):
        def no_stream(base):
            raise AssertionError("a champernowne stream was started")

        monkeypatch.setattr(sources, "champernowne_stream", no_stream)
        code, out, _ = run(capsys, *self.CHAMPERNOWNE, "-n", str(n), "--format", "text")
        assert code == 0
        assert out.splitlines()[3:] == lines
        code, out, _ = run(capsys, *self.CHAMPERNOWNE, "-n", str(n))
        assert code == 0
        payload = json.loads(out)
        assert f"max deviation: {payload['max_deviation']} " in lines[0]
        assert payload["digit_count"] == payload["counts"]["1"]
        assert sum(payload["counts"].values()) == n
        # a word is counted on the digits themselves
        with pytest.raises(AssertionError, match="stream was started"):
            main([*self.CHAMPERNOWNE, "-n", "100", "--word", "12"])

    def test_json_cap_is_inclusive(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--source", "random:1", "--base", str(2**16), "-n", "10",
        )
        assert code == 0
        assert len(json.loads(out)["counts"]) == 2**16


class TestBattery:
    def test_csv_for_one_third(self, capsys):
        code, out, _ = run(
            capsys, "battery", "--source", "rational:1/3", "--base", "2",
            "--max-power", "2", "-n", "30",
        )
        assert code == 0
        assert out.splitlines() == [
            "m,n,max_deviation",
            "0,1,0",
            "0,2,3/4",
            "1,2,3/4",
        ]

    def test_text_format(self, capsys):
        _, out, _ = run(
            capsys, "battery", "--source", "rational:1/3", "--base", "2",
            "--max-power", "1", "-n", "10", "--format", "text",
        )
        lines = out.splitlines()
        assert lines[0] == "battery of rational:1/3 in base 2, 10 digits per view"
        assert "shift 0, power 1 (base 2)" in lines[1]

    def test_validation(self, capsys):
        run_usage_error(capsys, "battery", "--source", "rational:1/3",
                        "--base", "2", "--max-power", "0", "-n", "10")

    def test_huge_power_base_finishes(self, capsys):
        # views in base 2**40 hold ten digits each; the reports stay sparse
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "battery", "--source", "champernowne", "--base", "2",
            "--max-power", "40", "-n", "10",
        )
        assert time.perf_counter() - start < 10
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 821
        assert lines[-1] == "39,40,549755813883/5497558138880"

    def test_short_file_reads_exactly_what_views_need(self, capsys, tmp_path):
        p = tmp_path / "nine.digits"
        p.write_text("base=10\n141592653\n", encoding="ascii")
        argv = ("battery", "--source", f"file:{p}", "--max-power", "2")
        code, out, _ = run(capsys, *argv, "-n", "4")  # 2*(4+1) - 1 = 9 digits
        assert code == 0
        assert len(out.splitlines()) == 4
        code, out, err = run(capsys, *argv, "-n", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: digit stream exhausted after 9 digits (requested 11)")
        assert "Traceback" not in err


class TestVerifyLemma:
    def test_text_base_two(self, capsys):
        code, out, _ = run(capsys, "verify-lemma", "--base", "2", "--n-max", "5")
        assert code == 0
        lines = out.splitlines()
        assert "base: 2" in lines
        assert "C: 3" in lines
        assert "D: 3/16" in lines
        assert "operator identity: pass" in lines
        assert "moment bound: pass" in lines
        assert "n,sum,bound,ratio_decimal,holds" in lines
        assert "1,1/16,3/16,0.333333333333,true" in lines
        assert len([l for l in lines if l.endswith(",true")]) == 5

    def test_csv_splits_streams(self, capsys):
        code, out, err = run(
            capsys, "verify-lemma", "--base", "10", "--n-max", "3",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "n,sum,bound,ratio_decimal,holds"
        assert "C: 657" in err
        assert "D: 657/10000" in err
        assert "C:" not in out

    def test_base_validation(self, capsys):
        run_usage_error(capsys, "verify-lemma", "--base", "1")

    def test_failing_identity_names_its_cells(self, capsys, monkeypatch):
        check = cli.verify_operator_closed_form
        monkeypatch.setattr(
            cli, "verify_operator_closed_form",
            lambda n, s, k: (n, s, k) != (7, 3, 2) and check(n, s, k),
        )
        code, out, _ = run(capsys, "verify-lemma", "--base", "4", "--n-max", "10")
        assert code == 1
        lines = out.splitlines()
        assert "operator identity: FAIL at (n,k)=[(7, 2)]" in lines
        assert "moment bound: pass" in lines

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_failing_bound_names_its_rows(self, capsys, monkeypatch, fmt):
        sweep = cli.check_moment_bound

        def fails_at_3_and_5(r, n_max):
            return [replace(row, holds=row.holds and row.n not in (3, 5))
                    for row in sweep(r, n_max)]

        monkeypatch.setattr(cli, "check_moment_bound", fails_at_3_and_5)
        code, out, err = run(
            capsys, "verify-lemma", "--base", "4", "--n-max", "6", "--format", fmt,
        )
        assert code == 1
        summary = (err if fmt == "csv" else out).splitlines()
        assert "operator identity: pass" in summary
        assert "moment bound: FAIL at n=[3, 5]" in summary
        lines = out.splitlines()
        table = lines[lines.index("n,sum,bound,ratio_decimal,holds") + 1:]
        assert [row.rsplit(",", 1)[1] for row in table] == [
            "true", "true", "false", "true", "false", "true",
        ]
        assert ("moment bound:" in err) == (fmt == "csv")

    def test_large_sweep_within_budget(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify-lemma", "--base", "12", "--n-max", "3000")
        assert time.perf_counter() - start < 3
        assert code == 0
        assert "moment bound: pass" in out.splitlines()


class TestMeasure:
    def test_single_report_json(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--base", "2", "--epsilon", "1/2", "-n", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "r": 2,
            "b": 0,
            "n": 2,
            "epsilon": "1/2",
            "exact_measure": "1/2",
            "bound": "3/4",
            "admissible_p": [0, 2],
        }

    def test_oracle_cross_check(self, capsys):
        _, out, _ = run(
            capsys, "measure", "--base", "2", "--epsilon", "1/2", "-n", "2",
            "--oracle",
        )
        payload = json.loads(out)
        assert payload["oracle"] == "1/2"
        assert payload["oracle_matches"] is True

    def test_oracle_budget_exhaustion(self, capsys):
        code, out, err = run(
            capsys, "measure", "--base", "2", "--epsilon", "1/2", "-n", "2",
            "--oracle", "--budget", "2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--base", "2", "--epsilon", "1/2",
            "--n-max", "3", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "n,exact_measure,bound,holds",
            "1,1,3,true",
            "2,1/2,3/4,true",
            "3,1/4,1/3,true",
        ]

    def test_sweep_prints_csv_by_default(self, capsys):
        _, out, _ = run(
            capsys, "measure", "--base", "2", "--epsilon", "1/2", "--n-max", "3",
        )
        assert out.splitlines()[0] == "n,exact_measure,bound,holds"

    @pytest.mark.parametrize("mode, fmt, allowed", [
        (("--n-max", "2"), "json", "--n-max prints csv"),
        (("-n", "2"), "csv", "-n prints json or text"),
        (("--tail", "2"), "csv", "--tail prints json or text"),
    ])
    def test_format_must_suit_the_mode(self, capsys, mode, fmt, allowed):
        err = run_usage_error(
            capsys, "measure", "--base", "2", "--epsilon", "1/2", *mode, "--format", fmt
        )
        assert allowed in err

    def test_tail_bound(self, capsys):
        _, out, _ = run(
            capsys, "measure", "--base", "2", "--epsilon", "1/2", "--tail", "4",
        )
        payload = json.loads(out)
        assert payload["tail_bound"] == "1"

    def test_tail_with_witness(self, capsys):
        _, out, _ = run(
            capsys, "measure", "--base", "2", "--epsilon", "1/2", "--tail", "1",
            "--target", "1",
        )
        payload = json.loads(out)
        assert payload["tail_bound"] == "6"
        assert payload["witness_m"] == 4

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_witness_past_int_str_digit_limit(self, capsys, fmt):
        # the witness 3 * 10**5000 + 1 has 5001 digits; JSON gives them as a
        # string, which json.loads reads back where a literal would fail
        code, out, _ = run(
            capsys, "measure", "--base", "2", "--epsilon", "1/2", "--tail", "1",
            "--target", "1e-5000", "--format", fmt,
        )
        assert code == 0
        digits = "3" + "0" * 4999 + "1"
        if fmt == "json":
            assert json.loads(out)["witness_m"] == digits
        else:
            assert out.endswith(f": {digits}\n")

    def test_witness_within_int_str_digit_limit_stays_an_int(self, capsys):
        _, out, _ = run(
            capsys, "measure", "--base", "2", "--epsilon", "1/2", "--tail", "1",
            "--target", "1e-4299",
        )
        assert json.loads(out)["witness_m"] == 3 * 10**4299 + 1

    def test_target_must_be_exact(self, capsys):
        err = run_usage_error(capsys, "measure", "--base", "2", "--epsilon",
                              "1/2", "--tail", "1", "--target", "abc")
        assert "not a rational number" in err
        assert "Traceback" not in err

    def test_measure_past_int_str_digit_limit(self, capsys):
        # 10**5000 and the exact measure's digits exceed the 4300-digit
        # int-to-str default limit
        code, out, _ = run(
            capsys, "measure", "--base", "10", "--epsilon", "1/10", "-n", "5000",
        )
        assert code == 0
        payload = json.loads(out)
        _, den = payload["exact_measure"].split("/")
        assert len(den) > 4300
        assert payload["admissible_p"][0] == 0

    def test_needs_a_mode(self, capsys):
        run_usage_error(capsys, "measure", "--base", "2", "--epsilon", "1/2")

    def test_epsilon_must_be_exact(self, capsys):
        run_usage_error(capsys, "measure", "--base", "2", "--epsilon", "abc",
                        "-n", "2")

    def test_epsilon_range(self, capsys):
        run_usage_error(capsys, "measure", "--base", "2", "--epsilon", "0",
                        "-n", "2")


# a value past the int-to-str digit limit is named by its size, promptly
@pytest.mark.parametrize("value", ["1e5000", "1e1000000"])
@pytest.mark.parametrize("argv, message", [
    (("stats", "--source", "rational:{}", "--base", "10", "-n", "10"),
     "error: rational source must be in [0, 1), got a rational too long to show"),
    (("measure", "--base", "2", "--epsilon", "{}", "-n", "3"),
     "error: argument --epsilon: must be > 0 and <= 1, got a rational too long to show"),
], ids=["stats", "measure"])
def test_oversized_value_is_named_by_its_size(capsys, argv, message, value):
    start = time.perf_counter()
    err = run_usage_error(capsys, *(a.format(value) for a in argv))
    assert time.perf_counter() - start < 1
    assert message in err
    assert "-bit numerator, 1-bit denominator)" in err
    assert "limit" not in err and "invalid" not in err


# an exponent past the cap is refused before Fraction builds its power
@pytest.mark.parametrize("argv", [
    ("expand", "--source", "rational:1e-99999999", "--base", "10", "--digits", "3",
     "--format", "json"),
    ("measure", "--base", "2", "--epsilon", "1e-99999999", "-n", "3"),
    ("measure", "--base", "2", "--epsilon", "1/2", "--tail", "1", "--target",
     "1e-99_999_999"),
], ids=["expand", "epsilon", "target"])
def test_oversized_exponent_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    err = run_usage_error(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert "decimal exponent out of range" in err
    assert "at most 1000000" in err
    assert "Traceback" not in err


# an --n-max past sys.maxsize is refused by its argparse type, before
# islice or a sweep sees it
@pytest.mark.parametrize("argv", [
    ("verify-lemma", "--base", "2", "--n-max", str(2**64 + 1)),
    ("measure", "--base", "2", "--epsilon", "1/3", "--n-max", str(2**64 + 1)),
], ids=["verify-lemma", "measure"])
def test_n_max_past_an_index_is_refused_at_once(argv):
    # in a child process, so a hang fails the test instead of stalling it
    env = dict(os.environ, PYTHONPATH=str(Path(normality_lab.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from normality_lab.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.perf_counter() - start < 1
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"argument --n-max: must be >= 1 and <= {sys.maxsize}, got {2**64 + 1}" in done.stderr
    assert "Traceback" not in done.stderr


def test_n_max_past_the_row_cap_is_refused_at_once():
    # in a child process, so a sweep started by mistake fails the test
    # instead of stalling it
    env = dict(os.environ, PYTHONPATH=str(Path(normality_lab.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from normality_lab.cli import main; sys.exit(main(sys.argv[1:]))",
         "verify-lemma", "--base", "2", "--n-max", str(sys.maxsize)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.perf_counter() - start < 1
    assert done.returncode == 1
    assert done.stdout == ""
    assert f"error: printing {sys.maxsize} rows is over the cap of 500000 rows" in done.stderr
    assert "Traceback" not in done.stderr


def test_the_row_cap_counts_every_n(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_LEMMA_ROWS", 5)
    argv = ("verify-lemma", "--base", "3", "--format", "csv", "--n-max")
    code, out, _ = run(capsys, *argv, "5")
    assert code == 0 and out.count("\n") == 6  # the header and 5 rows

    def no_rows(r, n_max):
        raise AssertionError("a row was built")

    monkeypatch.setattr(cli, "check_moment_bound", no_rows)
    code, out, err = run(capsys, *argv, "6")
    assert (code, out) == (1, "")
    assert "error: printing 6 rows is over the cap of 5 rows a command may print" in err


@pytest.mark.parametrize("argv", [
    ("verify-lemma", "--base", "2"),
    ("measure", "--base", "2", "--epsilon", "1/3"),
], ids=["verify-lemma", "measure"])
def test_n_max_at_sys_maxsize_parses(argv):
    args = cli.build_parser().parse_args([*argv, "--n-max", "9223372036854775807"])
    assert args.n_max == sys.maxsize


# outside text in a message is cut to 32 characters, and a bracket token
# too long for int() is a typed error
@pytest.mark.parametrize("code, argv", [
    (2, ("measure", "--base", "2", "--epsilon", "1/" + "9" * 10**5 + "x", "-n", "3")),
    (2, ("stats", "--source", "file:{header}", "-n", "3")),
    (2, ("stats", "--source", "random:" + "z" * 10**5, "--base", "10", "-n", "3")),
    (2, ("stats", "--source", "bogus" + "z" * 10**5, "--base", "10", "-n", "3")),
    (2, ("stats", "--source", "champernowne", "--base", "100", "-n", "3",
         "--word", "[" + "1" * 10**5)),
    (2, ("stats", "--source", "champernowne", "--base", "100", "-n", "3",
         "--word", "[" + "1" * 5000 + "]")),
    (2, ("stats", "--source", "file:{int}", "-n", "3")),
    (1, ("stats", "--source", "file:" + "z" * 10**5, "-n", "3")),
    (1, ("expand", "--source", "rational:1/3", "--base", "10", "--digits", "3",
         "--output", "{tmp}/" + "y" * 10**5)),
    (2, ("stats", "--source", "champernowne", "--base", "10", "-n", "1" * 5000)),
    (2, ("stats", "--source", "champernowne", "--base", "10", "-n", "3",
         "--digit", "1" * 5000)),
    (2, ("measure", "--base", "2", "--epsilon", "1/2", "-n", "3", "--digit", "1" * 4000)),
    (2, ("stats", "--source", "random:5", "--base", "1" + "0" * 4000, "-n", "3")),
], ids=["epsilon", "header", "seed", "source", "word", "word-token", "int-header",
        "file-name", "output-name", "int-option", "digit-option", "digit-range", "random-base"])
def test_outside_text_is_quoted_briefly(capsys, tmp_path, code, argv):
    files = {"header": "x" * 10**5 + "\n1415\n", "int": "base=10\nint=" + "1" * 5000 + "\n14\n"}
    for name, text in files.items():
        (tmp_path / f"{name}.digits").write_text(text, encoding="ascii")
    argv = [a.format(tmp=tmp_path, **{k: tmp_path / f"{k}.digits" for k in files}) for a in argv]
    start = time.perf_counter()
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 1
    assert got == code
    assert len(err.encode()) < 1000
    assert "Traceback" not in err


def test_long_seed_reads_as_its_masked_value(capsys):
    masked = 0
    for ch in "1" * 5000:
        masked = (masked * 10 + 1) % 2**64
    outputs = []
    for seed in ["1" * 5000, str(masked)]:
        code, out, err = run(capsys, "expand", "--source", f"random:{seed}", "--base", "10",
                             "--digits", "60")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


# a read past cli.MAX_DIGITS exits 1 before any source makes a digit
@pytest.mark.parametrize("argv, count", [
    (("stats", "--source", "champernowne", "--base", "10", "-n", str(10**40)),
     f"{10**40} digits"),
    (("expand", "--source", "rational:1/3", "--base", "10", "--digits", str(10**40)),
     f"{10**40} digits"),
    (("battery", "--source", "random:7", "--base", "2", "--max-power", "3", "-n", "33333334"),
     "100000004 digits"),
    (("stats", "--source", "file:pi_base10.digits", "-n", "100000001"), "100000001 digits"),
    (("battery", "--source", "champernowne", "--base", "2", "--max-power", "9" * 4000,
      "-n", "9" * 4000), "a 26576-bit count of digits"),
])
def test_digit_counts_past_the_cap_fail_at_once(capsys, monkeypatch, argv, count):
    def no_digits(spec):
        raise AssertionError("a source was started")

    monkeypatch.setattr(SourceSpec, "expansion", no_digits)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert f"error: reading {count} is over the cap of 100000000 digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, digits", [
    (("stats", "--source", "champernowne", "--base", "10", "-n"), None),
    (("expand", "--source", "rational:1/3", "--base", "10", "--digits"), None),
    (("battery", "--source", "random:7", "--base", "2", "--max-power", "3", "-n"),
     lambda n: 3 * (n + 1) - 1),
])
def test_the_cap_counts_the_digits_read(capsys, monkeypatch, argv, digits):
    monkeypatch.setattr(cli, "MAX_DIGITS", 59)
    below = 19 if digits else 59  # battery: 3 * 20 - 1 = 59 digits
    assert run(capsys, *argv, str(below))[0] == 0
    code, out, err = run(capsys, *argv, str(below + 1))
    assert (code, out) == (1, "")
    count = digits(below + 1) if digits else below + 1
    assert f"reading {count} digits is over the cap of 59 digits" in err


def test_view_counts_past_the_cap_fail_at_once(capsys, monkeypatch):
    def no_digits(spec):
        raise AssertionError("a source was started")

    monkeypatch.setattr(SourceSpec, "expansion", no_digits)
    start = time.perf_counter()
    code, out, err = run(
        capsys, "battery", "--source", "champernowne", "--base", "2",
        "--max-power", "2000", "-n", "1",
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "error: building 2001000 views is over the cap of 10000 views" in err
    assert "digits" not in err
    assert "Traceback" not in err


def test_the_view_cap_counts_every_shift_and_power(capsys, monkeypatch):
    # the largest --max-power run anywhere in the tests, CI and benchmark
    assert 40 * 41 // 2 <= cli.MAX_VIEWS
    monkeypatch.setattr(cli, "MAX_VIEWS", 10)
    argv = ("battery", "--source", "random:7", "--base", "2", "-n", "5", "--max-power")
    assert run(capsys, *argv, "4")[0] == 0  # 4 * 5 / 2 = 10 views
    code, out, err = run(capsys, *argv, "5")
    assert (code, out) == (1, "")
    assert "building 15 views is over the cap of 10 views" in err


def test_entry_counts_past_the_cap_fail_at_once(capsys, monkeypatch):
    def no_digits(spec):
        raise AssertionError("a source was started")

    monkeypatch.setattr(SourceSpec, "expansion", no_digits)
    start = time.perf_counter()
    code, out, err = run(
        capsys, "battery", "--source", "champernowne", "--base", "2",
        "--max-power", "100", "-n", "2000",
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "error: tallying 10100000 entries is over the cap of 2000000 entries" in err
    assert "Traceback" not in err


def test_the_entry_cap_counts_every_view(capsys, monkeypatch):
    # the largest battery anywhere in the tests, CI and benchmark
    assert 40 * 41 // 2 * 2000 <= cli.MAX_ENTRIES
    monkeypatch.setattr(cli, "MAX_ENTRIES", 50)
    argv = ("battery", "--source", "random:7", "--base", "2", "--max-power", "4", "-n")
    assert run(capsys, *argv, "5")[0] == 0  # 10 views of 5 entries
    code, out, err = run(capsys, *argv, "6")
    assert (code, out) == (1, "")
    assert "tallying 60 entries is over the cap of 50 entries" in err


@pytest.mark.parametrize("unit, verb, doing", [
    ("digits", "read", "reading"),
    ("views", "build", "building"),
    ("entries", "tally", "tallying"),
    ("rows", "print", "printing"),
])
def test_cap_error_names_its_unit_and_verb(unit, verb, doing):
    assert normality_lab.CapError is CapError
    assert "CapError" in normality_lab.__all__
    exc = CapError(12, 10, unit, verb)
    assert isinstance(exc, NormalityLabError)
    assert (exc.requested, exc.budget, exc.unit, exc.verb) == (12, 10, unit, verb)
    assert str(exc) == f"{doing} 12 {unit} is over the cap of 10 {unit} a command may {verb}"
    assert str(CapError(2**256 - 1, 10, unit, verb)).startswith(f"{doing} {2**256 - 1} {unit} ")
    assert str(CapError(2**256, 10, unit, verb)) == (
        f"{doing} a 257-bit count of {unit} is over the cap of 10 {unit} a command may {verb}")


def test_a_size_past_an_index_is_one_error_line(capsys):
    code, out, err = run(capsys, "measure", "--base", "2", "--epsilon", "1/3",
                         "-n", str(2**64 + 1))
    assert (code, out) == (1, "")
    # the rest of the line is Python's own text
    assert err.startswith("error: OverflowError: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def no_memory(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "deviation_set_measure", no_memory)
    code, out, err = run(capsys, "measure", "--base", "2", "--epsilon", "1/3", "-n", "100")
    assert (code, out) == (1, "")
    assert err == "error: MemoryError\n"


@pytest.mark.parametrize("base", [100, 300])
def test_over_long_token_in_a_file_is_a_typed_error(capsys, tmp_path, base):
    p = tmp_path / "long.digits"
    p.write_text(f"base={base}\n[1][2][" + "1" * 5000 + "]\n", encoding="ascii")
    code, out, err = run(capsys, "stats", "--source", f"file:{p}", "-n", "3")
    assert code == 1
    assert out == ""
    assert f"{p}:2:8: digit [{'1' * 32}...] out of range for base {base}" in err
    assert len(err.encode()) < 1000


class TestVerifyPaper:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--list")
        assert code == 0
        ids = out.splitlines()
        assert "pi-digit-count" in ids
        assert "monte-carlo-regression" in ids
        assert len(ids) == len(set(ids))

    def test_single_check_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify-paper", "--only", "operator-closed-form-sweep",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS  operator-closed-form-sweep:")
        assert lines[-1] == "1 checks: 1 passed, 0 failed, 0 skipped"

    def test_module_entry_point_lists_checks(self):
        env = dict(os.environ, PYTHONPATH=str(Path(normality_lab.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "normality_lab", "verify-paper", "--list"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout.splitlines() == verify.check_ids()
        assert len(verify.check_ids()) == 18

    def test_unknown_id(self, capsys):
        run_usage_error(capsys, "verify-paper", "--only", "no-such-check")

    def test_only_naming_no_check(self, capsys):
        err = run_usage_error(capsys, "verify-paper", "--only", " , ")
        assert "names no check" in err

    def test_missing_asset_skips(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(ASSETS_ENV, str(tmp_path))
        self.assert_pi_checks_skip(capsys)

    def test_asset_in_another_base_skips(self, capsys, tmp_path, monkeypatch):
        # base 16 is neither base 10 nor a root of base 100
        (tmp_path / verify.PI_FILE_NAME).write_text(
            "base=16\nint=3\n243f6a8885a308d3\n", encoding="ascii"
        )
        monkeypatch.setenv(ASSETS_ENV, str(tmp_path))
        self.assert_pi_checks_skip(capsys)

    @staticmethod
    def assert_pi_checks_skip(capsys):
        code, out, _ = run(
            capsys, "verify-paper", "--only", "pi-digit-count,pi-bracket-display"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("SKIP  pi-digit-count:")
        assert lines[1].startswith("SKIP  pi-bracket-display:")
        assert lines[-1] == "2 checks: 0 passed, 0 failed, 2 skipped"

    def test_tampering_turns_red(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "fourth_moment_closed_form", lambda n, r: 0
        )
        code, out, _ = run(
            capsys, "verify-paper", "--only", "fourth-moment-dual-computation",
        )
        assert code == 1
        assert out.splitlines()[0].startswith("FAIL  fourth-moment-dual-computation:")

    def test_failing_dual_computation_names_its_cell(self, capsys, monkeypatch):
        closed_form = verify.fourth_moment_closed_form

        def off_at_7_5(n, r):
            return closed_form(n, r) + (n == 7 and r == 5)

        monkeypatch.setattr(verify, "fourth_moment_closed_form", off_at_7_5)
        code, out, _ = run(
            capsys, "verify-paper", "--only", "fourth-moment-dual-computation",
        )
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL  fourth-moment-dual-computation:"
            " operator 2380 != closed form 2381 at n=7 r=5"
        )

    @staticmethod
    def sweep_off_at(cell):
        """verify.operator_moment_sweep with the value at the (n, r, k)
        cell raised by ((r-1)/r)**n, as an operator off by one at entry 0
        of that row would raise it."""
        sweep = verify.operator_moment_sweep

        def off_at_cell(bases, k, n_max):
            for n, values in sweep(bases, k, n_max):
                yield n, tuple(
                    value + Fraction(r - 1, r) ** n if (n, r, k) == cell else value
                    for r, value in zip(bases, values)
                )

        return off_at_cell

    @pytest.mark.parametrize("cell, message", [
        ((7, 5, 1), "first moment 16384/78125 != 0 at n=7 r=5"),
        ((3, 11, 2), "second moment 40930/1331 != n(r-1) at n=3 r=11"),
    ])
    def test_failing_mean_check_names_its_cell(self, capsys, monkeypatch, cell, message):
        monkeypatch.setattr(verify, "operator_moment_sweep", self.sweep_off_at(cell))
        code, out, _ = run(capsys, "verify-paper", "--only", "specialization-kills-mean")
        assert code == 1
        assert out.splitlines() == [
            f"FAIL  specialization-kills-mean: {message}",
            "1 checks: 0 passed, 1 failed, 0 skipped",
        ]

    def test_failing_dual_computation_names_an_operator_cell(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "operator_moment_sweep", self.sweep_off_at((7, 2, 4)))
        code, out, _ = run(
            capsys, "verify-paper", "--only", "fourth-moment-dual-computation",
        )
        assert code == 1
        assert out.splitlines() == [
            "FAIL  fourth-moment-dual-computation:"
            " operator 17025/128 != closed form 133 at n=7 r=2",
            "1 checks: 0 passed, 1 failed, 0 skipped",
        ]

    def test_failing_operator_identity_names_its_cell(self, capsys, monkeypatch):
        check = verify.verify_operator_closed_form
        monkeypatch.setattr(
            verify, "verify_operator_closed_form",
            lambda n, s, k: (n, s, k) != (7, 3, 2) and check(n, s, k),
        )
        code, out, _ = run(
            capsys, "verify-paper", "--only", "operator-closed-form-sweep",
        )
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL  operator-closed-form-sweep: operator identity fails at n=7 s=3 k=2"
        )

    def test_measure_chain_cross_checks_the_sweep(self, capsys, monkeypatch):
        sweep = verify.deviation_set_sweep

        def off_at_17(base, epsilon, n_max):
            for n, exact, bound in sweep(base, epsilon, n_max):
                yield n, exact / 2 if n == 17 else exact, bound

        monkeypatch.setattr(verify, "deviation_set_sweep", off_at_17)
        code, out, _ = run(capsys, "verify-paper", "--only", "measure-bound-chain")
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL  measure-bound-chain: sweep disagrees with the per-n measure"
            " at r=2 eps=1/10 n=17"
        )


class TestOutputPlumbing:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "expand", "--source", "rational:1/10", "--base", "10",
            "--digits", "4", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="utf-8") == "0.1000\n"

    def test_unwritable_output_is_runtime_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "expand", "--source", "rational:1/10", "--base", "10",
            "--digits", "4", "--output", str(tmp_path / "missing" / "out.txt"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_empty_output_path_is_runtime_error(self, capsys):
        code, out, err = run(
            capsys, "expand", "--source", "rational:1/3", "--base", "2",
            "--digits", "1", "--output", "",
        )
        assert (code, out) == (1, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"

    def test_byte_identical_reruns(self, capsys):
        args = ("stats", "--source", "random:7", "--base", "10", "-n", "500")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
