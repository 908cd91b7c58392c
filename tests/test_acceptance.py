"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Criterion 2 runs the reduced CI profile (scan to N=5000) as allowed; all
other criteria run at their stated scale and tolerance.
"""
from fractions import Fraction

import pytest

from gcdlab import engine, experiments, primality, records
from gcdlab.engine import RunConfig
from gcdlab.generators import AffineMinus, PowerMinus, RowlandIndex


@pytest.fixture
def say(capsys):
    def _say(line):
        with capsys.disabled():
            print(line)

    return _say


def check(say, name, ok):
    say(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


# --------------------------------------------------------------------------
# criterion 1: golden tables, exact

APPENDIX1_B1 = [
    2, 5, 11, 23, 47, 79, 157, 313, 619, 1237,
    2473, 4909, 9817, 19603, 39199, 78193, 156019, 311347, 622669, 1244149,
]
APPENDIX2_ZEROS = {
    5: [2, 17, 95, 575, 3419, 19967],
    6: [2, 16, 76, 466, 3258, 22774],
    7: [2, 23, 113, 899, 6973, 55633],
    8: [2, 20, 188, 1682, 15020, 134504],
    9: [2, 29, 299, 2935, 28869, 288385],
    100: [2, 226, 22810],
    1000: [2, 2986, 2917174],
}
CUBE_ZEROS = {2: [2, 11, 137, 19181], 3: [2, 23, 11933]}
APPENDIX4_CLAIMS = {2: [13, 193], 3: [31, 1091], 4: [59, 4013], 5: [97, 10477], 6: [139, 20521]}
APPENDIX5_ZEROS = {
    2: [3, 35, 2627],
    3: [3, 51, 7665],
    5: [3, 83, 34647],
    7: [5, 257, 461009],
    11: [11, 1419, 22181509],
    17: [11, 2417, 87543523],
}
APPENDIX6_ZEROS = {
    "beta2-1": [100, 196, 310, 616, 1228, 2380, 4648, 8860],
    "beta3-1": [2686, 5230, 10456, 19420, 29566, 54496, 105526, 211060],
}


def test_criterion_1_golden_tables(say):
    ok = True
    rows = experiments.appendix1(20)
    ok &= [r[1] for r in rows] == APPENDIX1_B1
    ok &= all(r[2] == 1 for r in rows)
    ok &= all(abs(r[3] - r[1] / 2.0 ** r[0]) < 1e-6 for r in rows)
    for m, zs in APPENDIX2_ZEROS.items():
        rep = experiments.table("appendix2", rows=len(zs), m=m)
        ok &= [r[0] for r in rep.rows] == zs
    for p, zs in CUBE_ZEROS.items():
        rep = experiments.table("c3", rows=len(zs), p=p)
        ok &= [r[0] for r in rep.rows] == zs
    # the p=3 third entry is 11933; its quotient claim matches the source value
    ok &= 142432291 in experiments.table("c3", rows=3, p=3).rows[2][1]
    for m, claims in APPENDIX4_CLAIMS.items():
        rep = experiments.table("appendix4", rows=2, m=m)
        ok &= [r[1][0] for r in rep.rows] == claims
        ok &= all(r[3] == 1 for r in rep.rows)
    for p, zs in APPENDIX5_ZEROS.items():
        rep = experiments.table("appendix5", rows=3, p=p)
        ok &= [r[0] for r in rep.rows] == zs
        ok &= all(r[3] == 1 for r in rep.rows)
    for key, zs in APPENDIX6_ZEROS.items():
        rep = experiments.table("appendix6", rows=8, key=key)
        ok &= [r[0] for r in rep.rows] == zs
        ok &= all(r[3] == 1 for r in rep.rows)
    check(say, "1 golden tables", ok)


# --------------------------------------------------------------------------
# criterion 2: threshold scans (CI profile to 5000)

SCAN_THRESHOLDS = {"twin": 97, "beatty": 1648, "triplet": 2734, "goldbach": 2207}


def test_criterion_2_threshold_scans(say):
    ok = True
    for family, largest in SCAN_THRESHOLDS.items():
        rep = experiments.scan_threshold(family, 5000, workers=4)
        ok &= rep.largest_failure == largest
    check(say, "2 threshold scans (CI profile N<=5000)", ok)


# --------------------------------------------------------------------------
# criterion 3: record-jump oracle equivalence


def test_criterion_3_record_jumps(say):
    ok = True
    for m in range(1, 13):
        cfg = RunConfig(initial=1, arg=AffineMinus(m=m), stop_after_zeros=8, budget=10**12)
        tr = engine.run(cfg)
        zs = tr.zero_indices
        recs = [m * (z + 1) - 1 for z in zs]
        for k in range(7):
            tail = records.harvest_tail(tr, zs[k] + 1, zs[k + 1])
            jump = records.RecordJump(recs[k], tail, AffineMinus(m=m))
            ok &= records.predict_next(jump) == recs[k + 1]
    for b, c in ((2, 2), (3, 2), (2, 3)):
        cfg = RunConfig(initial=b, arg=PowerMinus(b=b, c=c), stop_after_zeros=3, budget=10**9)
        tr = engine.run(cfg)
        zs = tr.zero_indices
        recs = [b * (z + 1) ** c - 1 for z in zs]
        for k in range(2):
            tail = records.harvest_tail(tr, zs[k] + 1, zs[k + 1])
            jump = records.RecordJump(recs[k], tail, PowerMinus(b=b, c=c))
            ok &= records.predict_next(jump) == recs[k + 1]
    worked = [
        records.predict_next(
            records.RecordJump(
                43213789,
                [-3, -13, -15241, -43, -1889, -3, -433, -113, -3, -5827, -247],
                AffineMinus(m=10),
            ),
        ),
        records.predict_next(
            records.RecordJump(29994499999, [-3, -7, -53, -3], AffineMinus(m=100000))
        ),
        records.predict_next(
            records.RecordJump(
                2760686028799, [-113, -103, -7, -7, -113], PowerMinus(b=32, c=2)
            ),
        ),
        records.predict_next(
            records.RecordJump(265301, [-109, -31, -17, -3, -5, -3], PowerMinus(b=2, c=3)),
        ),
    ]
    ok &= worked == [
        475113649,
        2999479988299999,
        243884447023448880167715967,
        37299785868725741,
    ]
    ok &= all(bool(primality.is_prime(w)) for w in worked)
    check(say, "3 record-jump oracle equivalence", ok)


# --------------------------------------------------------------------------
# criterion 4: statistical claims, tolerance-based


def test_criterion_4_statistics(say):
    ok = True
    ok &= 0.72 <= list(experiments.upsilon(5000, 2, 2, workers=4))[-1][1] <= 0.88
    ok &= 0.40 <= list(experiments.upsilon_twin(5000, workers=4))[-1][1] <= 0.60
    ok &= 0.55 <= list(experiments.upsilon_v(140))[-1][1] <= 0.85
    est = records.estimate_L_alpha(
        Fraction(1, 2), records.sample_ms(1000, 10**6, 10**7, seed=0)
    )
    ok &= abs(float(est) - 0.5) <= 0.10
    _, lp = experiments.conj7_f_and_L("poly:p=2x^2-1", 5000)
    ok &= 0.70 <= lp <= 0.90
    check(say, "4 statistical claims", ok)


# --------------------------------------------------------------------------
# criterion 5: Goldbach constant


def test_criterion_5_goldbach_constant(say):
    series = list(experiments.goldbach_constant_series(20000))
    final = series[-1][1]
    window = [y for x, y in series if 10000 <= x <= 20000]
    ok = 0 < final <= 4 and (max(window) - min(window)) / min(window) < 0.20
    check(say, "5 goldbach constant", ok)


# --------------------------------------------------------------------------
# criterion 6: property suites, zero violations


def test_criterion_6_property_suites(say):
    from math import gcd

    ok = True
    # descent invariant on a sample of backward runs
    for spec, initial in [
        (AffineMinus(m=6), 500),
        (PowerMinus(b=2, c=2), 300),
    ]:
        a, n = initial, 1
        while a > 0:
            n += 1
            nxt = abs(a - gcd(a, abs(spec.eval_arg(n))))
            ok &= 0 <= nxt <= a - 1
            a = nxt
    # goldbach claim pairs always sum to 2N
    for N in range(2, 2000):
        for variant in ("product", "alternating"):
            _, claims, _ = experiments.goldbach_g(N, variant)
            ok &= sum(claims) == 2 * N
    # prime-suite biconditionals (properties 4..7) over N <= 20000
    for N in range(4, 20001):
        for pid, holds in experiments.conj8_property_check(N, "prime"):
            if pid in ("4", "5", "6", "7"):
                ok &= holds
    # twin-suite biconditionals (properties 4..6) over N <= 5000
    for N in range(4, 5001):
        for pid, holds in experiments.conj8_property_check(N, "twin"):
            if pid in ("4", "5", "6"):
                ok &= holds
    # forward differences are 1 or prime over n <= 10^4
    cfg = RunConfig(initial=7, arg=RowlandIndex(), mode=engine.FORWARD_ADD, budget=10**4)
    tr = engine.run(cfg)
    ok &= all(d == 1 or bool(primality.is_prime(d)) for d in tr.forward_diffs)
    # Legendre variation holds for every 175 <= N <= 20000
    counts = dict(experiments.legendre_series(20000, n_lo=175, workers=4))
    ok &= all(counts[N] >= 1 for N in range(175, 20001))
    check(say, "6 property suites", ok)
