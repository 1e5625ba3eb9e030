"""Golden CLI outputs: the sha256 of stdout for fixed exact-arithmetic commands.

The hashes were captured from the Fraction-per-term implementation of the
moment and measure hot paths; any rewrite of that arithmetic must leave
every byte of these outputs unchanged.
"""
import hashlib

import pytest

from normality_lab.cli import main

GOLDEN = [
    (
        ("verify-paper",),
        "4d4dc1c070a13a3493f051d153bcd20b1a9f54dcefb53104929de6a654edf85a",
    ),
    (
        ("verify-lemma", "--base", "7", "--n-max", "200"),
        "7ae7ee725fd62c3bb7bfba0b77839edb9a0f3f0b43bae194d3956f8126f57c9a",
    ),
    (
        ("verify-lemma", "--base", "2", "--n-max", "120", "--format", "csv"),
        "10cab30a9eb0cfa7192119a2bb10336e95ee5ec792a4de923aad098796ae7301",
    ),
    (
        ("measure", "--base", "7", "--digit", "2", "--epsilon", "1/10",
         "--n-max", "200", "--format", "csv"),
        "989adf0bc19114b89090239e737b5cd1366f33837f1e00fe7793ee07fdefa639",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_hash_is_frozen(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
