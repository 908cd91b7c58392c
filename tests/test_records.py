"""Record-jump prediction vs the fully-run engine, and window estimators."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab import engine, primality, records
from gcdlab.engine import RunConfig
from gcdlab.generators import AffineMinus, PowerMinus, QuadShift


def affine_trace(m, count):
    cfg = RunConfig(initial=1, arg=AffineMinus(m=m), stop_after_zeros=count, budget=10**12)
    return engine.run(cfg)


def test_integer_nth_root():
    assert records.integer_nth_root(27, 3) == (3, True)
    assert records.integer_nth_root(28, 3) == (3, False)
    assert records.integer_nth_root(0, 5) == (0, True)
    assert records.integer_nth_root(10**60, 2) == (10**30, True)
    with pytest.raises(ValueError):
        records.integer_nth_root(-1, 2)


@given(st.integers(0, 10**12), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_integer_nth_root_property(v, n):
    r, exact = records.integer_nth_root(v, n)
    assert r**n <= v < (r + 1) ** n
    assert exact == (r**n == v)


def test_affine_jump_matches_engine():
    for m in (1, 4, 7):
        tr = affine_trace(m, 6)
        zs = tr.zero_indices
        recs = [m * (z + 1) - 1 for z in zs]
        for k in range(len(recs) - 1):
            tail = records.harvest_tail(tr, zs[k] + 1, zs[k + 1])
            jump = records.RecordJump(recs[k], tail, AffineMinus(m=m))
            assert records.predict_next(jump) == recs[k + 1]


def test_power_jump_matches_engine():
    for b, c in ((2, 2), (3, 2)):
        cfg = RunConfig(initial=b, arg=PowerMinus(b=b, c=c), stop_after_zeros=4, budget=10**9)
        tr = engine.run(cfg)
        zs = tr.zero_indices
        recs = [b * (z + 1) ** c - 1 for z in zs]
        for k in range(len(recs) - 1):
            tail = records.harvest_tail(tr, zs[k] + 1, zs[k + 1])
            jump = records.RecordJump(recs[k], tail, PowerMinus(b=b, c=c))
            assert records.predict_next(jump) == recs[k + 1]


def test_predict_affine_base_case():
    jump = records.RecordJump(2, [], AffineMinus(m=1))
    assert records.predict_next(jump) == 5


def test_predict_power_2591():
    # harvest between the first two zeros of the b=2, c=2 run from initial 2
    cfg = RunConfig(initial=2, arg=PowerMinus(b=2, c=2), stop_after_zeros=2, budget=10**5)
    tr = engine.run(cfg)
    tail = records.harvest_tail(tr, tr.zero_indices[0] + 1, tr.zero_indices[1])
    jump = records.RecordJump(31, tail, PowerMinus(b=2, c=2))
    assert records.predict_next(jump) == 2591


def test_worked_candidates():
    j = records.RecordJump(
        43213789,
        [-3, -13, -15241, -43, -1889, -3, -433, -113, -3, -5827, -247],
        AffineMinus(m=10),
    )
    assert records.predict_next(j) == 475113649
    j = records.RecordJump(29994499999, [-3, -7, -53, -3], AffineMinus(m=100000))
    assert records.predict_next(j) == 2999479988299999
    j = records.RecordJump(2760686028799, [-113, -103, -7, -7, -113], PowerMinus(b=32, c=2))
    assert records.predict_next(j) == 243884447023448880167715967
    j = records.RecordJump(265301, [-109, -31, -17, -3, -5, -3], PowerMinus(b=2, c=3))
    assert records.predict_next(j) == 37299785868725741


def test_predict_power_rejects_inexact_root():
    jump = records.RecordJump(13, [], PowerMinus(b=2, c=2))  # (13+1)/2 = 7 not a square
    with pytest.raises(records.NotPerfectPower):
        records.predict_next(jump)


def test_family_mismatch_rejected():
    # the jump carries its family, so only a family with no formula is left
    jump = records.RecordJump(9, [], QuadShift(m=1))
    with pytest.raises(ValueError, match="no record-jump formula for quadshift:m=1"):
        records.predict_next(jump)


def test_tail_validation():
    with pytest.raises(ValueError):
        records.RecordJump(9, [-1], AffineMinus(m=2))  # -1 steps are never harvested
    with pytest.raises(ValueError, match="prev_record must be >= 1"):
        records.RecordJump(0, [], AffineMinus(m=2))
    # (m+1)w + m + m*sum(d + 1) = 3 + 2 - 18 is no record
    with pytest.raises(records.InconsistentTail, match="predicted record -13 is not positive"):
        records.predict_next(records.RecordJump(1, [-10], AffineMinus(m=2)))


def test_second_record_candidate_rejects_a_short_trace():
    # the window floor(100^1) = 100 needs the trace to reach index 101
    short = engine.run(RunConfig(initial=1, arg=AffineMinus(m=100), budget=10))
    with pytest.raises(ValueError, match="trace too short for the requested window"):
        records.second_record_candidate(100, 1, short)


def test_second_record_candidate_full_window_is_exact():
    # alpha = 1 sums the large steps at indices 5 .. m + 1, which for these m
    # are exactly those before the second zero, so the candidate is the second
    # record; m = 10 has its first large step, -7, at index 5, the tail's first
    # index
    for m in (10, 11, 28, 100):
        tr = affine_trace(m, 2)
        exact = m * (tr.zero_indices[1] + 1) - 1
        assert records.second_record_candidate_for(m, 1) == exact


def test_second_record_candidate_full_window_ignores_the_second_zero():
    # the window 5 .. m + 1 does not stop at the second zero: m = 52's second
    # zero is at 22, so the window also sums steps past it, and m = 17's is at
    # 19, past the window's last index 18.  These pin the formula as it is;
    # whether the window should end at the second zero is open
    for m, zero, candidate in ((52, 22, 467), (17, 19, 713)):
        assert affine_trace(m, 2).zero_indices[1] == zero
        assert records.second_record_candidate_for(m, 1) == candidate
        assert candidate != m * (zero + 1) - 1


def test_second_record_candidate_m28():
    assert records.second_record_candidate_for(28, 1) == 1147


def test_second_record_candidate_partial_window_monotone_toward_exact():
    m = 10**4
    full = records.second_record_candidate_for(m, 1)
    half = records.second_record_candidate_for(m, Fraction(1, 2))
    assert half >= full  # omitted negative steps only lower the estimate
    assert half == 299569999


def test_second_record_big_m_window():
    m = 2**100
    # window floor(m^(1/6)) keeps the run to ~10^5 steps
    val = records.second_record_candidate(
        m,
        Fraction(1, 6),
        engine.run(
            RunConfig(
                initial=1,
                arg=AffineMinus(m=m),
                budget=records._window_floor(m, Fraction(1, 6)) + 1,
            )
        ),
    )
    assert val == 4820814132776970826625886270541990288599672051495735016816639


def test_estimate_L_alpha_deterministic():
    ms = records.sample_ms(40, 10**6, 10**7, seed=11)
    assert ms == records.sample_ms(40, 10**6, 10**7, seed=11)
    est = records.estimate_L_alpha(Fraction(1, 2), ms)
    assert 0 <= est <= 1
    assert est == records.estimate_L_alpha(Fraction(1, 2), ms)


@pytest.mark.parametrize("alpha", [Fraction(-1, 2), 0, Fraction(3, 2)])
def test_alpha_outside_0_1_rejected(alpha):
    # a negative alpha once reached integer_nth_root with a float
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
        records.estimate_L_alpha(alpha, [10**6])


@pytest.mark.parametrize("alpha", [Fraction(49, 100), Fraction(333, 1000), Fraction(1, 65)])
def test_alpha_with_a_denominator_above_64_rejected(alpha):
    # 49/100 was once rounded to 25/51 while the metadata said 49/100
    with pytest.raises(ValueError, match=f"alpha needs a denominator of at most 64, got {alpha}"):
        records.estimate_L_alpha(alpha, [10**6])


def test_alpha_with_a_denominator_of_64_is_exact():
    # floor(m^(63/64)) itself, not a nearby fraction's root
    m = 10**6 + 3
    assert records._window_floor(m, Fraction(63, 64)) == records.integer_nth_root(m**63, 64)[0]
