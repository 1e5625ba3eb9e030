"""Golden CLI outputs: the sha256 of stdout for fixed exact-arithmetic commands.

The exact-arithmetic hashes were captured from the Fraction-per-term
implementation of the moment and measure hot paths, the expand and stats
hashes from the eager rational expansion and the per-module digit
alphabets, the battery hashes (and the stats runs with unseen digits)
from the rebuild-per-view battery with dense per-digit reports, the
longer measure sweeps from one deviation_set_measure call per n; any
rewrite of those paths must leave every byte of these outputs unchanged.
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
    (
        # both tails non-empty
        ("measure", "--base", "10", "--digit", "3", "--epsilon", "1/10",
         "--n-max", "600", "--format", "csv"),
        "34eabb871066bfcfbdb45e4ea8ca35a9f956ebcd1fccb10335a801d7fc611240",
    ),
    (
        # epsilon above 1/r: no lower set
        ("measure", "--base", "3", "--digit", "0", "--epsilon", "1/2",
         "--n-max", "300", "--format", "csv"),
        "a51184fb627c1b8e5efd955a15ee268f03b77211e21966ce9a4e7b0555007d8a",
    ),
    (
        # epsilon = 1 - 1/r: only the counts 0 and n
        ("measure", "--base", "2", "--digit", "1", "--epsilon", "1/2",
         "--n-max", "50", "--format", "csv"),
        "0e5183d1ad543a0d561ec1ae525a0f098b263f324fec3d0252d6cc7299f217a1",
    ),
    (
        ("expand", "--source", "rational:5/12", "--base", "10", "--digits", "40",
         "--format", "json"),
        "d029fa8f644f7d0f594dd67076eba47514cc7a29243c6e8f22b5987494b38736",
    ),
    (
        ("expand", "--source", "rational:1/3", "--base", "40", "--digits", "6"),
        "3013f9f23a9bd8f6c705546f1b34a95bf8a3b1e09bdfef46d3218492545f0081",
    ),
    (
        ("expand", "--source", "file:pi_base10.digits", "--base", "100", "--digits", "30"),
        "26112c4f445575bc2b4d9b2f5ae804bcbc2555f3c967a7e69a28758d3ca4cf13",
    ),
    (
        ("stats", "--source", "rational:11010111011-prefix", "--base", "2", "-n", "11",
         "--word", "101", "--format", "json"),
        "59e69e95adf14dfa035e1ec77edcaa7112a1eb95450e15bef2535514a2dbf7ac",
    ),
    (
        ("stats", "--source", "random:7", "--base", "16", "-n", "5000", "--word", "a0f",
         "--format", "text"),
        "8e8b6c8ec894aa9c12f4282c2b912b2ce40fa88dce643e7d5f5b36103a536b1d",
    ),
    (
        ("battery", "--source", "champernowne", "--base", "2", "--max-power", "8",
         "-n", "1000"),
        "d682cc39b9bb6dc56f0f70b299f958d2b3ce6c75e603885aa9db766cd7f40051",
    ),
    (
        # power 13 views of 500 digits leave most of the 8192 values unseen
        ("battery", "--source", "champernowne", "--base", "2", "--max-power", "13",
         "-n", "500"),
        "894accdc0849b339a91c81962b4b5e25d882e287588b47b20e4b906b212bf6de",
    ),
    (
        ("battery", "--source", "random:7", "--base", "3", "--max-power", "4", "-n", "50"),
        "98ad84996e9e6322c16f30c2bc7b022f0efa945e38701a58a0696b8f008d786d",
    ),
    (
        ("battery", "--source", "file:pi_base10.digits", "--base", "100",
         "--max-power", "2", "-n", "200", "--format", "text"),
        "9a8701993cd5473cf8335ea877665ad1deeeed103619c656ebac3c9d919a4376",
    ),
    (
        # nine digits never occur, including the one asked for
        ("stats", "--source", "rational:1/3", "--base", "10", "-n", "20", "--digit", "5",
         "--format", "json"),
        "c4f400ccaccceee2780a486437eddf727860b462957da1d6a013ad4b2680afe0",
    ),
    (
        # a base far above any prefix: text reads the sparse report only
        ("stats", "--source", "random:1", "--base", "65536", "-n", "10",
         "--format", "text"),
        "d4f5a0d1c5656aacfdaa8f26f34b786863c614c68cddb7e41405dc9bb48b0db8",
    ),
    (
        # every whole group of 3 of the 1000-digit pi file, the last digit left over
        ("stats", "--source", "file:pi_base10.digits", "--base", "1000", "-n", "333",
         "--format", "json"),
        "0713e1e360c80041629f498d078d6353e385c7b625f7089ea8d3764826ad5b30",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_hash_is_frozen(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
