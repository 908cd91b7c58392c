"""Golden CLI output: the sha256 of stdout for a fixed argv corpus.

The hashes were recorded before the sieves, the worker-pool code and the
table aliases were merged, so any byte that changes in these outputs shows
up here.  The corpus covers every table alias pair, the scans and series at
several worker counts (including empty job lists), and a Legendre series
whose sieve window crosses 2^20 (at N = 1023).
"""
import hashlib

import pytest

from gcdlab import cli

GOLDEN = {
    "table appendix1": "af370c4f921d23dcbad27290ae459d8de8081592b9a38fec833f1b58fd88cd2e",
    "table c1": "2bf803cec4d548078f4668fc9d8a907977b4c48df9068baf9eeb089e2d8e7407",
    "table appendix2 --m 7": "cccad76e105f14242027b25f206ec28412dbbf48a536aaf65c5f62bba4ecf1af",
    "table c2 --m 7": "cccad76e105f14242027b25f206ec28412dbbf48a536aaf65c5f62bba4ecf1af",
    "table appendix4 --m 3": "f6e0dba23b0df4624a8e37ac654d9d97601bff7d5c8a3566b3d4c997cad1dea3",
    "table c3bis --m 3": "2cc47266aef7b2400413341fbe01dee82680e247372003d0806e01a5d51ea9f7",
    "table c3ter": "4cd1d8cf97ed8a43ae70132d515bfadf482f2f2048dd83b0100a21ec468ad1c2",
    "table appendix6 --key beta3-2": "e9adf9854e9f4bd315b7e83902aff18192d89aa4815d937190413f7f3a9ae0bb",
    "table c6 --spec affine:m=3 --initial 1": "6212d73778726d619c62433da0c83d9aa87583cba9b5dd8766feef81624b01d5",
    "scan triplet --n-hi 600 --workers 1": "74612b86840ce242e54c8d3c20a2e2ab48031700099a03de3b589fa0a8cfe7d0",
    "scan triplet --n-hi 600 --workers 2": "74612b86840ce242e54c8d3c20a2e2ab48031700099a03de3b589fa0a8cfe7d0",
    "scan triplet --n-hi 1 --workers 2": "a037198fa573b83ba61c3b446e5cdf774dc6d04e0bddd7d536657d247a79ba31",
    "stats upsilon --n-hi 300 --workers 2": "ec42f8ad3ba4bd3dadbbfb7f48956b0782bb54a93d80c9273dc6837e9656f332",
    "stats upsilon --n-hi 0 --workers 2": "9c6536d38fa37da58fac066342747e6d20fdace12ab5b287cf04506f2afe95b0",
    "stats upsilon-twin --n-hi 200 --workers 3": "56165e4f23a18d9094c8f718c72ce2de23c8bcfaa4f53b9f30d3a307bf97f3c7",
    "stats legendre --n-hi 1100 --workers 2": "f5f621824446350ce32ed1e952d476900157cd8df304a75918842ad0b478773e",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_stdout_matches_golden(capsys, command):
    code = cli.dispatch(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
