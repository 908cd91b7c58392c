"""Golden CLI output: the sha256 of stdout for a fixed argv corpus.

The hashes were recorded before the sieves, the worker-pool code and the
table aliases were merged, and those of the other table families before the
table registry was, so any byte that changes in these outputs shows up here.
The corpus covers every table family and alias pair, the scans and series at
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
    "table appendix3": "42ac51e03e38918c221e49b3434f7414352872acb01e113098a63bd9c72b65a8",
    "table appendix3 --start 12": "42ac51e03e38918c221e49b3434f7414352872acb01e113098a63bd9c72b65a8",
    "table appendix5 --p 3": "8e65a49dd5dd23be3a12adc5f9f9eeef69cf533ecc797e288b1b90cc159bce33",
    "table c3 --p 3": "5c86ad98ac93cfebd3a0b038160ac1e8ef94107a32bc05cb9328d1dee82faf40",
    "table c4": "eee083d08d4ff9d58a6260d703bf89e1e57cbf7dc0351f2c755e920565b0be1b",
    "table c4 --b 3 --c 2 --initial 5": "2c1c02091e06c2835555f913bceadd10b9022114fb4ff6b72e4d437389449b26",
    "table c5": "7d0faf28950ad202a0b37eeeccaaa7984e7797a802d85d4a385dd5d74b9e024b",
    "table c10": "6ff2ace5649f032bbf3049b2ebab1ab05839f5d62f45fdd0b84741fcec3b5d87",
    "table c8": "e4339d45a402d9b04d15910e40162f01ef2749a28d6fe87885e31a4c9f987adf",
    "table c8 --variant twin": "9a1d5b3f712fdf1df1431a98f1e206f8396394d9d4f80b67ffe2998be6ad6806",
    "table c7 --spec quadshift:m=1 --initial 4": "c8a0a13c31de69dd2072c229a29021067728bb6b8d1ab1572b64fb06dc4ce3c1",
    "table c9 --spec alt-quad --initial 8": "b88f91df18fffb06c44847b4abcd33dc218fec250c0455113d1091eeaff95a69",
    "table appendix6": "9f58019646c5a0b748614a34910efd95b2ee8aa4a693178b753992449dfa32df",
    "table c3ter --format json": "5e7aa02f17755a96119400d96f5a7f6ea63028fa688b6adcb3356f22ef7e9b06",
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
