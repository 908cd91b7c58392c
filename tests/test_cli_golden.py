"""Golden CLI output: the exit code and the sha256 of stdout for a fixed argv
corpus.

The hashes were recorded before the sieves, the worker-pool code and the
table aliases were merged, and those of the other table families before the
table registry was, so any byte that changes in these outputs shows up here.
The corpus covers every table family and alias pair, the scans and series at
several worker counts (including empty job lists), and a Legendre series
whose sieve window crosses 2^20 (at N = 1023).

The CSV and JSON forms of every command and stats kind were recorded before
the commands shared one output writer: an abs run and a forward Rowland run
(whose JSON holds forward_diffs), zeros and runs that exhaust their budget
(exit 3), a scan, both predict families, both goldbach variants, and the
series of every stats kind.
"""
import hashlib

import pytest

from gcdlab import cli

GOLDEN = {
    "table appendix1": (0, "af370c4f921d23dcbad27290ae459d8de8081592b9a38fec833f1b58fd88cd2e"),
    "table c1": (0, "2bf803cec4d548078f4668fc9d8a907977b4c48df9068baf9eeb089e2d8e7407"),
    "table appendix2 --m 7": (0, "cccad76e105f14242027b25f206ec28412dbbf48a536aaf65c5f62bba4ecf1af"),
    "table c2 --m 7": (0, "cccad76e105f14242027b25f206ec28412dbbf48a536aaf65c5f62bba4ecf1af"),
    "table appendix4 --m 3": (0, "f6e0dba23b0df4624a8e37ac654d9d97601bff7d5c8a3566b3d4c997cad1dea3"),
    "table c3bis --m 3": (0, "2cc47266aef7b2400413341fbe01dee82680e247372003d0806e01a5d51ea9f7"),
    "table c3ter": (0, "4cd1d8cf97ed8a43ae70132d515bfadf482f2f2048dd83b0100a21ec468ad1c2"),
    "table appendix6 --key beta3-2": (0, "e9adf9854e9f4bd315b7e83902aff18192d89aa4815d937190413f7f3a9ae0bb"),
    "table c6 --spec affine:m=3 --initial 1": (0, "6212d73778726d619c62433da0c83d9aa87583cba9b5dd8766feef81624b01d5"),
    "table appendix3": (0, "42ac51e03e38918c221e49b3434f7414352872acb01e113098a63bd9c72b65a8"),
    "table appendix3 --start 12": (0, "42ac51e03e38918c221e49b3434f7414352872acb01e113098a63bd9c72b65a8"),
    "table appendix5 --p 3": (0, "8e65a49dd5dd23be3a12adc5f9f9eeef69cf533ecc797e288b1b90cc159bce33"),
    "table c3 --p 3": (0, "5c86ad98ac93cfebd3a0b038160ac1e8ef94107a32bc05cb9328d1dee82faf40"),
    "table c4": (0, "eee083d08d4ff9d58a6260d703bf89e1e57cbf7dc0351f2c755e920565b0be1b"),
    "table c4 --b 3 --c 2 --initial 5": (0, "2c1c02091e06c2835555f913bceadd10b9022114fb4ff6b72e4d437389449b26"),
    "table c5": (0, "7d0faf28950ad202a0b37eeeccaaa7984e7797a802d85d4a385dd5d74b9e024b"),
    "table c10": (0, "6ff2ace5649f032bbf3049b2ebab1ab05839f5d62f45fdd0b84741fcec3b5d87"),
    "table c8": (0, "e4339d45a402d9b04d15910e40162f01ef2749a28d6fe87885e31a4c9f987adf"),
    "table c8 --variant twin": (0, "9a1d5b3f712fdf1df1431a98f1e206f8396394d9d4f80b67ffe2998be6ad6806"),
    "table c7 --spec quadshift:m=1 --initial 4": (
        0,
        "c8a0a13c31de69dd2072c229a29021067728bb6b8d1ab1572b64fb06dc4ce3c1",
    ),
    "table c9 --spec alt-quad --initial 8": (0, "b88f91df18fffb06c44847b4abcd33dc218fec250c0455113d1091eeaff95a69"),
    "table appendix6": (0, "9f58019646c5a0b748614a34910efd95b2ee8aa4a693178b753992449dfa32df"),
    "table c3ter --format json": (0, "5e7aa02f17755a96119400d96f5a7f6ea63028fa688b6adcb3356f22ef7e9b06"),
    "scan triplet --n-hi 600 --workers 1": (0, "74612b86840ce242e54c8d3c20a2e2ab48031700099a03de3b589fa0a8cfe7d0"),
    "scan triplet --n-hi 600 --workers 2": (0, "74612b86840ce242e54c8d3c20a2e2ab48031700099a03de3b589fa0a8cfe7d0"),
    "scan triplet --n-hi 1 --workers 2": (0, "a037198fa573b83ba61c3b446e5cdf774dc6d04e0bddd7d536657d247a79ba31"),
    "stats upsilon --n-hi 300 --workers 2": (0, "ec42f8ad3ba4bd3dadbbfb7f48956b0782bb54a93d80c9273dc6837e9656f332"),
    "stats upsilon --n-hi 0 --workers 2": (0, "9c6536d38fa37da58fac066342747e6d20fdace12ab5b287cf04506f2afe95b0"),
    "stats upsilon-twin --n-hi 200 --workers 3": (
        0,
        "56165e4f23a18d9094c8f718c72ce2de23c8bcfaa4f53b9f30d3a307bf97f3c7",
    ),
    "stats legendre --n-hi 1100 --workers 2": (0, "f5f621824446350ce32ed1e952d476900157cd8df304a75918842ad0b478773e"),
    "run --spec affine:m=1 --initial 1 --zeros 3": (
        0,
        "d22ff2abe1bb0e877303bab563bc05d650444b1167ae39d1f83411122fb84f0a",
    ),
    "run --spec affine:m=1 --initial 1 --zeros 3 --format json": (
        0,
        "ca061a402d6217d55d2f570b9560d02208ffdafb99bebb29b24c4dcdcc5652bf",
    ),
    "run --spec rowland --initial 7 --mode forward --budget 2000": (
        0,
        "c2fb7b782b88d262f3adb44aa610faa4167af41504bb4c575a42bd2389ec2142",
    ),
    "run --spec rowland --initial 7 --mode forward --budget 2000 --format json": (
        0,
        "5e183ed415f242b9b733543df37795a5320f2f7ec2c829fcd988c0ffd52e1441",
    ),
    "zeros --spec affine:m=3 --count 4": (0, "b38a6d1014b31ed3b14a90a35952c852eaeb5e294d184575dfa3c3e79e75cd9d"),
    "zeros --spec affine:m=3 --count 4 --format json": (
        0,
        "bfef62df0301e85a94baf4e7d1c129bf71edd7d77c9aa5a923dbb3eba97ccd99",
    ),
    "zeros --spec affine:m=9 --count 9 --budget 100": (
        3,
        "cccd5b84a191d6ace0bf6bda0aba364f809233246109062b9c18911dadb6bd2e",
    ),
    "zeros --spec affine:m=9 --count 9 --budget 100 --format json": (
        3,
        "1e7a07e23395f4cc009f1e8a8a890ce9d3f176fd3df09240fed87b99914e6530",
    ),
    "scan twin --n-hi 300": (0, "cb6567c5e240c8182022e7e0e67b8d094e7976a5c399862ad81b38d27824d85f"),
    "scan twin --n-hi 300 --format json": (0, "4dd29b600de2ae6ff3c4216f315bd11a62efe7c722b711a117e99ff057bb831d"),
    "predict affine --m 10 --record 43213789 --tail -3,-13,-15241,-43,-1889,-3,-433,-113,-3,-5827,-247": (
        0,
        "2a9fd6b5ef15ab39b32aecb8757d610039c76c4562ca5a3be68072499f6bc0de",
    ),
    "predict affine --m 10 --record 43213789 --tail -3,-13,-15241,-43,-1889,-3,-433,-113,-3,-5827,-247 --format json": (
        0,
        "fa27c176bdde4ee6404c632f6365f9fdea7a36463e08f0ac36c5c5e539668b3e",
    ),
    "predict power --b 2 --c 3 --record 265301 --tail -109,-31,-17,-3,-5,-3": (
        0,
        "49de975c18293f066bfbcb08dafa1523a38e951096d735d7ca3d598997c2de97",
    ),
    "predict power --b 2 --c 3 --record 265301 --tail -109,-31,-17,-3,-5,-3 --format json": (
        0,
        "b692c355df4b98c843e8fea25a733cfff30a4c22611c32cf50cc7aef51c46c7c",
    ),
    "goldbach 2209 --variant alternating": (0, "50fcbcf8b54cebc5e1fbd828343d135c3df704c66bcbaa376868d5ee3fd71413"),
    "goldbach 2209 --variant alternating --format json": (
        0,
        "8e8ae21c0fc5f58f31285804c83150dad2e604ddbe0e742671c2430c0b3d60be",
    ),
    "goldbach 2209 --variant product": (0, "7fde9a4eb6fa417006c806daa1d131fa6eb1de8279df60174906387cbd5d43fa"),
    "goldbach 2209 --variant product --format json": (
        0,
        "91dcb9b7b032937d330f62e91cdc24aa232784ae9fbe9f15c3d6a55e760c86fd",
    ),
    "stats lalpha --samples 20 --seed 1": (0, "f94411c2f6954a5f9184c1756fb7e683c25894e87e04c3ae5dd832ba53bc939a"),
    "stats lalpha --samples 20 --seed 1 --format json": (
        0,
        "6a155b76b15ccb64b4fcbf73686b6bd619580859f4fbc189eced2014f10c2b41",
    ),
    "stats upsilon-v --count 10": (0, "143b320f94ce3867ee94ba161479b0dbb3b9a411b57be49b00557ce30ae9d3e5"),
    "stats upsilon-v --count 10 --format json": (0, "e9e041b26961b75597e1dcb56c858ffd548dc30db7b395c89d8a4c066b9bd195"),
    "stats goldbach-constant --n-hi 300": (0, "33f0578fbebbe926d98433d52bf1ab6304f3ef7e3b56797b9225577a5ce0a390"),
    "stats goldbach-constant --n-hi 300 --format json": (
        0,
        "606d1d97fe5869cbcfbe8c149fa09eca0cba5f25cb7d0241ad275e7be47bc8dc",
    ),
    "stats gaps --n-hi 300": (0, "c6c6b0f06e981e35a2c6d8d9d83af11878bf415e3205ecc961b9436438ef0ec7"),
    "stats gaps --n-hi 300 --format json": (0, "8685d2b3d1c61ba31607cbc200ef1385eed91a979ee8f968eae02e8cff3bca00"),
    "stats legendre --n-hi 300": (0, "1bf952d38489c27cb722d8bc83fe72f6ddbb836b29ae987a60b7da801572d524"),
    "stats legendre --n-hi 300 --format json": (0, "d88cc141e3ddf732706070377e2c898375e2423002d9f99ccd1f1dc451ef68e6"),
    "table appendix1 --rows 5 --format json": (0, "1c8cea02f73628e85fd599c4c0aa7408047cbc3863297ed77708dff0aa400fe1"),
    "stats upsilon --n-hi 50 --format json": (0, "64a97ade94215bc551e9e1a98453953905edccd052b44e47334580f5f4a29138"),
    "stats upsilon-twin --n-hi 50 --format json": (
        0,
        "6750ee6df2a2a6ca0afca9abf796365f491770acb9195e29babecdf0e2bd6442",
    ),
    "run --spec affine:m=9 --initial 1 --zeros 9 --budget 100": (
        3,
        "3091f453cd80526d6968ed1425349ea396f441d4ab25e5e95802e46152caea38",
    ),
    "run --spec affine:m=9 --initial 1 --zeros 9 --budget 100 --format json": (
        3,
        "a435a4c4efac3dc048cafffe9d286bf8b6422126eb52848f9ef92022f45c19f5",
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_stdout_matches_golden(capsys, command):
    code = cli.dispatch(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]
