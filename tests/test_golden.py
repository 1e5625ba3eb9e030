"""Golden CLI outputs: the sha256 of stdout for fixed exact-arithmetic commands.

The exact-arithmetic hashes were captured from the Fraction-per-term
implementation of the moment and measure hot paths, the expand and stats
hashes from the eager rational expansion and the per-module digit
alphabets, the battery hashes (and the stats runs with unseen digits)
from the rebuild-per-view battery with dense per-digit reports, the
longer measure sweeps from one deviation_set_measure call per n, the
three battery hashes around base 2**16 from power views built as lists
one window at a time above base 256, and the three grouped file views
in bases 1000 and 10000 from grouped reads that packed each group above
base 256 as a list, one Python step per group, and the three long random
reads in bases 2, 4 and 256 from xorshift states stepped in lanes, and
the tiny-epsilon measure from ints printed through decimal.Decimal, and
the champernowne stats from streamed digits and their tally; any
rewrite of those paths must leave every byte of these outputs unchanged.
The demo hashes pin the stdout of each script under demos/ the same way.
"""
import hashlib
import runpy
from pathlib import Path

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
        # above base 256, captured when the string counts carried five raw
        # power sums
        ("verify-lemma", "--base", "257", "--n-max", "150"),
        "2a5fdf9fb6c9b763055a4216a4829fb218870a4241b04849a57b6bc06b1418b1",
    ),
    (
        ("verify-lemma", "--base", "257", "--n-max", "150", "--format", "csv"),
        "6600b410feacd7b717dbebacd5d3582ec03db68b3705240307e4df740f6f014b",
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
        # views either side of 2**16: byte, 2-byte and list power values
        ("battery", "--source", "champernowne", "--base", "2", "--max-power", "17",
         "-n", "300"),
        "1cb12a8a8bdb7ccabb78b0603697cddc5c123251537e0bfac236061b3f23c911",
    ),
    (
        # the widest view is base 16**4 = 65536, the top of the 2-byte values
        ("battery", "--source", "random:7", "--base", "16", "--max-power", "4", "-n", "200"),
        "6f550320d512ba5078d8ce1739f690f6105a2c01aa6af8994f15ef387096fdec",
    ),
    (
        # a view of byte digits, then a 2-byte view in base 65536
        ("battery", "--source", "random:7", "--base", "256", "--max-power", "2", "-n", "200"),
        "2b6b94b4b4d13d80824285351fae2f134310149334c55a86f1342c27229cdbbe",
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
    (
        # grouped views of the pi file between base 256 and 2**16
        ("expand", "--source", "file:pi_base10.digits", "--base", "1000", "--digits", "200",
         "--format", "text"),
        "c2fba826a6517199209c5408fe3b056946d7321b9724f50b371bc60ab4c97a37",
    ),
    (
        ("battery", "--source", "file:pi_base10.digits", "--base", "1000",
         "--max-power", "2", "-n", "150"),
        "7e78de9234fb8793c38e12954629072d5ea32bf2c550c36fcd7c883ba2ac51f6",
    ),
    (
        ("stats", "--source", "file:pi_base10.digits", "--base", "10000", "-n", "200",
         "--word", "[1415][9265]", "--format", "text"),
        "fb67763124881c4f00ff602dbe6173cfe9482f6281343c1b7860042727b2e35d",
    ),
    (
        # long reads in power-of-two bases, into the random blocks kept as a list
        ("stats", "--source", "random:7", "--base", "2", "-n", "300000", "--word", "10111",
         "--format", "json"),
        "1818d4fa87b6428b1e1703cc3eea4dcdb37d6e8113052053412acb8a3a74d9b5",
    ),
    (
        ("battery", "--source", "random:7", "--base", "4", "--max-power", "4", "-n", "20000"),
        "a2d6e7ab216cb62cafd8a4ce441696317a41dea7d95edbfc395c44dc8211f38a",
    ),
    (
        ("stats", "--source", "random:7", "--base", "256", "-n", "300000", "--format", "text"),
        "700f8d59d9a1bb45308d42ebea8b35e179547452e4fa5a525d9bc4dd35ff1272",
    ),
    (
        # a 400001-digit bound, past the int-to-str digit limit
        ("measure", "--base", "2", "--epsilon", "1e-100000", "-n", "3", "--format", "json"),
        "76bbd36e4a33732901cd656bf2130bf4b0c9d5a2945d1fc0bf9f49e229335299",
    ),
    (
        # champernowne counted by formula: no digit is made
        ("stats", "--source", "champernowne", "--base", "10", "-n", "1000000", "--digit", "1",
         "--format", "json"),
        "d7afee78970a6b0939f6c937bab053bb70ccea529a57313728fc0dffcc339abc",
    ),
    (
        ("stats", "--source", "champernowne", "--base", "4097", "-n", "20000",
         "--digit", "4096", "--format", "text"),
        "b3cf0fc19b28644f23c7f3e8cab5c2ab0dbba3262bec477a13cb49d170c4768e",
    ),
    (
        # a word still reads the stream, once, for both counts
        ("stats", "--source", "champernowne", "--base", "10", "-n", "100000", "--word", "12",
         "--digit", "3", "--format", "text"),
        "0a339237d817baa39349a4421feec1cd123178fce6b59cfcd75449266c2ab2bb",
    ),
    (
        ("stats", "--source", "champernowne", "--base", "10", "-n", "100000", "--word", "12",
         "--digit", "3", "--format", "json"),
        "5c90772157c039db5d5bc0ff75304495b679367b626184888e7120ceea15c2c4",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_hash_is_frozen(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


DEMOS = Path(__file__).resolve().parents[1] / "demos"

DEMO_GOLDEN = {
    "digit_statistics_tour": "cd137b4490000f7b3cd4d6790fa9c27be3039dc717855ebffb309c01aea32936",
    "expansion_tour": "a35df3212e026afa4f71af59fa551f8197185e6b2b8272c3dc84e115407e19e7",
    "fourth_moment_tour": "5d6b81b8018b84d1b5930f129ab20a470b7deb70af3d6244ab6ff4977d385f59",
    "measure_tour": "ebb4a5d5a89af24b5ed3d9d673cb945368c3ad0f93fa9c245cc486167eabb250",
}


@pytest.mark.parametrize("name,digest", DEMO_GOLDEN.items(), ids=list(DEMO_GOLDEN))
def test_demo_stdout_hash_is_frozen(capsys, name, digest):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
