"""Engine: backward descent (naive and jump-accelerated), forward addition."""
import re
import tracemalloc
from copy import copy
from functools import cache
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdlab import engine, experiments, primality
from gcdlab.engine import RunConfig
from gcdlab.generators import (
    AffineMinus,
    AlternatingLinear,
    AlternatingQuad,
    BeattyTwin,
    FactoredPolynomial,
    GoldbachAlt,
    GoldbachProduct,
    NoClaimDefined,
    PeriodicAffine,
    Polynomial,
    PowerMinus,
    QuadShift,
    RowlandIndex,
    ShevelevLinear,
    ShiftedIndex,
    parse_spec,
)
from test_generators import ALL_SPECS, CLOSED_FORM


def naive_backward(initial, g_of, budget, mode="abs", start=1, want=None):
    """Reference one-step implementation used as the equivalence oracle;
    g_of(n) gives g(n)."""
    a, n = initial, start
    zs, steps = [], []
    while n < start + budget:
        if mode == "signed" and a == 0:
            break
        n += 1
        g = gcd(a, abs(g_of(n)))
        prev = a
        a = abs(prev - g)
        d = a - prev
        if abs(d) > 1:
            steps.append((n, d))
        if a == 0:
            zs.append(n)
            if want and len(zs) >= want:
                break
    return zs, steps, n, a


def test_affine_m1_zeros():
    assert engine.zeros(RunConfig(initial=1, arg=AffineMinus(m=1)), 6) == [2, 5, 11, 23, 47, 79]


def test_affine_m3_zeros():
    cfg = RunConfig(initial=1, arg=AffineMinus(m=3), budget=10**6)
    assert engine.zeros(cfg, 7) == [2, 5, 23, 89, 337, 1335, 5307]


def test_quadshift_zeros():
    cfg = RunConfig(initial=16, arg=QuadShift(m=2), budget=10**6)
    assert engine.zeros(cfg, 3) == [12, 192, 38196]


def test_power_2_3_zeros():
    cfg = RunConfig(initial=2, arg=PowerMinus(b=2, c=3), budget=10**7)
    assert engine.zeros(cfg, 3) == [3, 125, 4000877]


def test_zero_ratio_tends_to_m_plus_1():
    for m in (3, 5, 8):
        zs = engine.zeros(RunConfig(initial=1, arg=AffineMinus(m=m), budget=10**9), 9)
        for k in range(5, len(zs)):
            assert abs(zs[k] / zs[k - 1] - (m + 1)) < 0.15 * (m + 1)


def test_forward_rowland_diffs():
    cfg = RunConfig(initial=7, arg=RowlandIndex(), mode=engine.FORWARD_ADD, budget=10)
    assert engine.run(cfg).forward_diffs == [1, 1, 1, 5, 3, 1, 1, 1, 1, 11]


def test_forward_rowland_records():
    cfg = RunConfig(initial=7, arg=RowlandIndex(), mode=engine.FORWARD_ADD, budget=10**5)
    fr = engine.forward_record_indices(cfg)
    diffs = [d for _, d in fr.records if d > 1]
    assert diffs[:9] == [5, 11, 23, 47, 101, 233, 467, 941, 1889]


def test_forward_shevelev_records():
    cfg = RunConfig(initial=2, arg=ShevelevLinear(), mode=engine.FORWARD_ADD, budget=10**6)
    fr = engine.forward_record_indices(cfg)
    diffs = [d for _, d in fr.records]
    assert diffs[2:9] == [7, 13, 43, 139, 313, 661, 1321]


def test_signed_halts_at_zero():
    cfg = RunConfig(initial=6, arg=GoldbachAlt(N=8), mode=engine.SIGNED_BACKWARD, budget=100)
    tr = engine.run(cfg)
    assert tr.zero_indices and tr.final_value == 0
    assert tr.final_index == tr.zero_indices[0]


def test_abs_equals_signed_up_to_first_zero():
    spec = AffineMinus(m=4)
    za = engine.zeros(RunConfig(initial=37, arg=spec, budget=10**4), 1)
    zs = engine.zeros(
        RunConfig(initial=37, arg=spec, mode=engine.SIGNED_BACKWARD, budget=10**4), 1
    )
    assert za == zs


def test_regeneration_bridges_zero():
    # after a zero at n, absolute mode restarts from |g(n+1)|
    spec = AffineMinus(m=2)
    tr = engine.run(RunConfig(initial=1, arg=spec, stop_after_zeros=2, budget=10**4))
    z1 = tr.zero_indices[0]
    assert (z1 + 1, 2 * (z1 + 1) - 1) in tr.large_steps


def test_budget_flag_and_exhaustion():
    cfg = RunConfig(initial=1, arg=AffineMinus(m=9), stop_after_zeros=9, budget=100)
    tr = engine.run(cfg)
    assert tr.budget_exhausted
    assert len(tr.zero_indices) < 9
    assert engine.zeros(cfg, 9) == tr.zero_indices


def test_nonterminating_zero_request():
    with pytest.raises(engine.NonterminatingZeroRequest):
        engine.run(RunConfig(initial=0, arg=AffineMinus(m=1), stop_after_zeros=1))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: RunConfig(1, RowlandIndex(), "sideways"), "unknown mode 'sideways'", id="mode"),
        pytest.param(lambda: RunConfig(1, RowlandIndex(), budget=0), "budget must be >= 1", id="budget"),
        pytest.param(
            lambda: RunConfig(1, RowlandIndex(), stop_after_zeros=0), "stop_after_zeros must be >= 1", id="stop"
        ),
        pytest.param(lambda: RunConfig(-1, RowlandIndex()), "initial must be >= 0", id="initial"),
        pytest.param(lambda: engine.zeros(RunConfig(1, AffineMinus(m=1)), 0), "count must be >= 1", id="count"),
        pytest.param(
            lambda: engine.forward_record_indices(RunConfig(7, RowlandIndex())),
            "forward_record_indices requires forward mode",
            id="records-of-a-descent",
        ),
    ],
)
def test_bad_run_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_a_requested_zero_reached_by_the_step_from_zero():
    # a(2) = 0, and the naive step from it lands on g(3) = 0, the second zero
    spec = parse_spec("poly:p=x-3")
    assert engine.zeros(RunConfig(1, spec), 2) == [2, 3]
    assert_backward_matches_naive(1, spec, 10, engine.ABS_BACKWARD, 1, 2, lambda n: n - 3)


def test_steps_from_zero_read_the_form_of_the_run(monkeypatch):
    # the run derives g's form once; its naive steps from a = 0 evaluate it
    calls, derive = [], AffineMinus.residue_polys
    monkeypatch.setattr(AffineMinus, "residue_polys", lambda self: calls.append(self) or derive(self))
    zs, *_ = naive_backward(1, lambda n: n - 1, 10**6, want=12)
    assert engine.zeros(RunConfig(initial=1, arg=AffineMinus(m=1)), 12) == zs
    assert len(calls) == 1


def test_first_zero_guard():
    # descent loses at least 1 per step, so the zero arrives within initial + 1 steps
    spec = AlternatingLinear()
    for initial in (5, 96, 997):
        z = plain_first_zero(spec, initial, 1)
        assert z is not None and z <= initial + 2
        assert engine.first_zeros([(spec, initial)]) == [z]


@pytest.mark.parametrize("start", (-3, 0, 1))
def test_first_zero_budget_covers_every_start(start):
    # the zero can lie at start + initial, so a budget of initial + start + 1
    # fell short for start <= -2
    spec, initial = AffineMinus(m=1), 5
    expected = naive_first_zero(spec, initial, start)
    assert plain_first_zero(spec, initial, start) == expected
    # one run, two runs of one spec (memo) and two of different specs (lanes)
    assert engine.first_zeros([(spec, initial)], start) == [expected]
    assert engine.first_zeros([(spec, initial)] * 2, start) == [expected] * 2
    other = AffineMinus(m=2)
    both = [expected, naive_first_zero(other, initial, start)]
    assert engine.first_zeros([(spec, initial), (other, initial)], start) == both


def naive_first_zero(spec, initial, start):
    """Reference signed descent stepping spec.eval_arg: its first zero."""
    a, n = initial, start
    while a:
        n += 1
        a -= gcd(a, spec.eval_arg(n))
    return n


def _has_claim(spec) -> bool:
    try:
        spec.claim_values(2)
    except NoClaimDefined:
        return False
    return True


CLAIM_SPECS = [s for s in ALL_SPECS if _has_claim(s)]
GOLDBACH_SPECS = st.builds(GoldbachProduct, N=st.integers(2, 3000)) | st.builds(
    GoldbachAlt, N=st.integers(2, 3000), flip=st.booleans()
)
SPECS = st.sampled_from(CLAIM_SPECS) | GOLDBACH_SPECS


@given(
    spec=SPECS,
    initials=st.lists(st.integers(0, 3000), min_size=1, max_size=4),
    start=st.sampled_from((0, 1)),
)
@settings(max_examples=300, deadline=None)
def test_first_zeros_equal_naive_signed_descent(spec, initials, start):
    runs = [(spec, k) for k in initials]
    assert engine.first_zeros(runs, start) == [naive_first_zero(spec, k, start) for k in initials]


cached_naive_first_zero = cache(naive_first_zero)


@given(
    data=st.data(),
    first=SPECS,
    runs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 400)), min_size=20, max_size=200),
    start=st.sampled_from((0, 1)),
)
@settings(max_examples=100, deadline=None)
def test_first_zeros_memo_equals_naive_on_long_alternating_runs(data, first, runs, start):
    # the second spec is another family's or another N's; runs switch
    # between the two, so each switch starts a new memo
    second = data.draw(SPECS.filter(lambda spec: spec != first))
    specs = (first, second)
    pairs = [(specs[k], initial) for k, initial in runs]
    expected = [cached_naive_first_zero(spec, initial, start) for spec, initial in pairs]
    assert engine.first_zeros(pairs, start) == expected


def plain_first_zero(spec, initial, start):
    """first_zeros' answer for one run, by a run without a memo whose budget
    is the descent's guard, initial + 1; None if that budget runs out."""
    if not initial:
        return start
    config = RunConfig(initial, spec, engine.SIGNED_BACKWARD, start, stop_after_zeros=1, budget=initial + 1)
    return next(iter(engine.run(config).zero_indices), None)


# name -> (spec, or spec of N, initial of N, least N, start index): the runs
# to N = 3000 of every scan family, the upsilon estimators and conj8 checks
_MEMO_CASES = {
    **{
        f"scan-{family}": (spec, lambda N, offset=offset: N + offset, max(2, -offset), 1)
        for family, (spec, offset) in experiments._SCAN_FAMILIES.items()
    },
    "upsilon": (PowerMinus(b=2, c=2), lambda k: k, 1, 1),
    "upsilon-twin": (AlternatingQuad(), lambda k: k, 1, 0),
    "conj8-prime": (ShiftedIndex(), lambda N: N - 2, 4, 1),
    "conj8-twin": (AlternatingLinear(), lambda N: N - 2, 4, 1),
}


@pytest.mark.parametrize("name", _MEMO_CASES)
def test_first_zeros_memo_equals_plain_runs(name):
    # one spec for all the runs, or one per N, as the callers build them
    spec, initial, lo, start = _MEMO_CASES[name]
    runs = [(spec(N) if callable(spec) else spec, initial(N)) for N in range(lo, 3001)]
    assert engine.first_zeros(runs, start) == [plain_first_zero(s, k, start) for s, k in runs]


def test_equal_specs_share_one_memo(monkeypatch):
    # equal specs are one g: a copy per run shares the memo that one object
    # would, instead of sending each run to a lane of its own
    spec = PeriodicAffine(m=1, offsets=(2, 6, 0))
    runs = [(copy(spec), N - 6) for N in range(8, 400)]
    expected = [plain_first_zero(spec, k, 1) for _, k in runs]
    memos, first_zero = [], engine._first_zero

    def spy(spec, initial, start_index, memo, form):
        memos.append(memo)
        return first_zero(spec, initial, start_index, memo, form)

    monkeypatch.setattr(engine, "_first_zero", spy)
    assert engine.first_zeros(runs) == expected
    assert len(memos) == len(runs) and memos[0] is not None
    assert all(memo is memos[0] for memo in memos)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.spec_str())
@pytest.mark.parametrize("mode", (engine.ABS_BACKWARD, engine.SIGNED_BACKWARD, engine.FORWARD_ADD))
def test_a_run_given_its_form_equals_one_that_derives_it(spec, mode):
    config = RunConfig(60, spec, mode, budget=3000)
    assert engine.run(config, form=spec.residue_polys()) == engine.run(config)


def test_a_memo_stretch_derives_its_form_once(monkeypatch):
    # _lane_runs derives each stretch's form and hands it to every run of it
    spec = PeriodicAffine(m=1, offsets=(2, 6, 0))
    runs = [(spec, N - 6) for N in range(8, 400)]
    expected = [plain_first_zero(spec, k, 1) for _, k in runs]
    calls, derive = [], PeriodicAffine.residue_polys
    monkeypatch.setattr(PeriodicAffine, "residue_polys", lambda self: calls.append(self) or derive(self))
    assert engine.first_zeros(runs) == expected
    assert calls == [spec]


def test_equal_specs_apart_take_lanes(monkeypatch):
    # [A, B, A]: the two runs of A are not consecutive, so each run is a
    # stretch of its own and takes a lane
    a, b = AffineMinus(m=1), AffineMinus(m=2)
    runs = [(a, 40), (b, 40), (a, 50)]
    lane_runs, lane_zeros = [], engine._lane_zeros

    def spy(yielded, start_index, out):
        lane_runs.extend(yielded)
        lane_zeros(iter(lane_runs), start_index, out)

    monkeypatch.setattr(engine, "_lane_zeros", spy)
    assert engine.first_zeros(runs) == [naive_first_zero(s, k, 1) for s, k in runs]
    assert [(at, k) for at, k, _ in lane_runs] == [(0, 40), (1, 40), (2, 50)]


def test_first_zeros_defaults_and_empty():
    assert engine.first_zeros([]) == []
    assert engine.first_zeros((ShiftedIndex(), k) for k in (0, 5)) == [1, 5]


@pytest.mark.parametrize(
    "runs",
    [
        pytest.param([(GoldbachAlt(N=10), -5)], id="lone"),
        pytest.param([(GoldbachAlt(N=10), -5), (GoldbachAlt(N=11), -3), (GoldbachAlt(N=12), 4)], id="lanes"),
        pytest.param([(GoldbachAlt(N=10), 4), (GoldbachAlt(N=10), -5)], id="memo"),
    ],
)
def test_first_zeros_rejects_a_negative_initial(runs):
    # the first zero is sought from start_index onwards, so no lane may
    # report one before it
    with pytest.raises(ValueError, match="initial must be >= 0"):
        engine.first_zeros(runs)


def test_first_zeros_without_a_zero_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(engine, "run", lambda config, memo, form: engine.Trace())
    with pytest.raises(engine.EngineInvariantError, match="alt-linear from 7"):
        engine.first_zeros([(AlternatingLinear(), 7)])


@given(
    lanes=st.sampled_from((2, 3, 4, 5, engine._LANES)),
    stretches=st.lists(
        st.tuples(
            SPECS,
            SPECS,
            st.lists(st.just(0) | st.integers(1, 3000), min_size=1, max_size=4),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
    start=st.sampled_from((0, 1)),
)
@settings(max_examples=150, deadline=None)
def test_lane_path_equals_naive_signed_descent(lanes, stretches, start):
    # a stretch either holds one spec (the memo path) or alternates two
    # (the lane path, for an int period, where the two differ); with a few
    # lanes, lanes leave and are refilled many times, by runs of other
    # periods (1-3) and degrees (1-4), between memo stretches
    runs = [
        (spec if shared or j % 2 == 0 else other, initial)
        for spec, other, initials, shared in stretches
        for j, initial in enumerate(initials)
    ]
    expected = [cached_naive_first_zero(spec, initial, start) for spec, initial in runs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_LANES", lanes)
        assert engine.first_zeros(runs, start) == expected


def test_lane_zero_class_value():
    # from x = 2N the flipped GoldbachAlt's class-0 value 2N - x is 0; the
    # first index of that class after start index 0 is 2, not 1
    runs = [(GoldbachAlt(N=N, flip=True), 2 * N - 1) for N in range(3, 60)]
    assert engine.first_zeros(runs, 0) == [naive_first_zero(spec, k, 0) for spec, k in runs]


@pytest.fixture
def hand_offs(monkeypatch):
    """The states from which runs go to _first_zero, the scalar path."""
    states, first_zero = [], engine._first_zero

    def spy(spec, initial, start_index, memo, form):
        states.append((start_index, initial))
        return first_zero(spec, initial, start_index, memo, form)

    monkeypatch.setattr(engine, "_first_zero", spy)
    return states


def test_lanes_crossing_the_spf_limit_finish_on_run(hand_offs, monkeypatch):
    # (x - 1)(2N + 1 - x) grows as the descent lowers x from near 2N + 1:
    # these lanes start below 2^20 and cross it mid-descent; with 3 lanes
    # they do so between refills.  Neighbouring runs differ in N, so each
    # takes a lane.
    runs = [(GoldbachProduct(N=N), 2 * N - 2 - d) for d in (5, 40, 120) for N in range(2990, 3010)]
    expected = [naive_first_zero(spec, k, 1) for spec, k in runs]
    for lanes in (engine._LANES, 3):
        monkeypatch.setattr(engine, "_LANES", lanes)
        hand_offs.clear()
        assert engine.first_zeros(runs) == expected
        assert hand_offs and all(n > 1 for n, _ in hand_offs)


def test_lanes_whose_horner_values_could_leave_int64_run_scalar(hand_offs):
    # 2^40 x^2 = 2^64 at x = 2^12, which int64 Horner would wrap to the
    # constant term alone; neighbouring runs differ in c, so none shares a memo
    runs = [(Polynomial(coeffs=(c, 0, 1 << 40)), 4094 + d) for d in (-1, 0, 1) for c in (15, 21, 105, 1155)]
    # from a(1) = 8, x = n + 1 + a falls from 10: this g is below 2^63 at
    # x = 9 and 2^64 - 3 at x = 10, which int64 would wrap to -3, so only
    # the largest x leaves int64; and a coefficient of 2^63 fits no int64
    runs += [(Polynomial(coeffs=(9551613, 0, 0, 0, 0, 0, 0, 1844674407370)), 8), (Polynomial(coeffs=(1 << 63, 1)), 5)]
    assert engine.first_zeros(runs) == [naive_first_zero(spec, k, 1) for spec, k in runs]
    assert len(hand_offs) == len(runs)
    # each goes to run from its first state, without a pass on the lanes
    assert hand_offs == [(1, k) for _, k in runs]


def test_lane_event_invariant_raises(monkeypatch):
    # an event whose class value 1 has no prime in common with a(i - 1)
    monkeypatch.setattr(engine, "_next_events", lambda n, x, q, beta: (n + 1, np.ones_like(n)))
    with pytest.raises(engine.EngineInvariantError, match="unit step"):
        engine.first_zeros([(AffineMinus(m=1), 10), (AffineMinus(m=2), 12)])


@pytest.mark.parametrize("lanes", (2, 5))
def test_refills_widen_the_lanes(monkeypatch, lanes):
    # wider periods (1, then 3) and higher degrees (1, 2, then 3) arrive
    # while lanes of the narrower forms are still descending, and a refill
    # of several runs brings them beside one another; neighbouring runs are
    # of different families, so each takes a lane
    monkeypatch.setattr(engine, "_LANES", lanes)
    specs = [AffineMinus(m=5), QuadShift(m=2), PeriodicAffine(m=3, offsets=(-1, 4, 0)), AlternatingQuad()]
    specs += [parse_spec("triplet"), parse_spec("periodic-factored:q=x^2+1|x^2+3|x+1,schedule=2;3;1")]
    runs = [(spec, initial) for initial in (900, 40, 2500, 7) for spec in specs]
    assert engine.first_zeros(runs) == [naive_first_zero(spec, k, 1) for spec, k in runs]


def test_the_last_lane_stays_on_the_lanes(hand_offs):
    # the short descent ends first; the long one, alone once the runs are
    # all taken, keeps its lane to its zero
    runs = [(AffineMinus(m=1), 3), (AffineMinus(m=3), 2000)]
    assert engine.first_zeros(runs) == [naive_first_zero(spec, k, 1) for spec, k in runs]
    assert hand_offs == []


def test_every_lane_leaving_in_one_pass_takes_the_next_runs(hand_offs, monkeypatch):
    # with 2 lanes: two descents from 1 reach 0 in their first pass, the two
    # runs that refill them start above 2^20 and go to run at once, so the
    # next pass has no lane left while three runs still wait
    monkeypatch.setattr(engine, "_LANES", 2)
    runs = [(AffineMinus(m=1), 1), (AffineMinus(m=2), 1)]
    runs += [(Polynomial(coeffs=(c + 2**21, 1)), 5) for c in (0, 1)]
    runs += [(AffineMinus(m=m), 40) for m in (3, 4, 5)]
    assert engine.first_zeros(runs) == [naive_first_zero(spec, k, 1) for spec, k in runs]
    assert hand_offs == [(1, 5), (1, 5)]


def lane_transient_bytes(count):
    """tracemalloc's peak during first_zeros over the runs (GoldbachAlt(N=k),
    k - 2) for k = 3..count + 2, less what is still allocated when it
    returns (its zeros): the memory it held only while it ran."""
    runs = ((GoldbachAlt(N=k), k - 2) for k in range(3, count + 3))
    tracemalloc.start()
    try:
        zs = engine.first_zeros(runs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(zs) == count
    return peak - current


def test_lane_memory_does_not_grow_with_the_runs(monkeypatch):
    # the lane path holds its lanes and one fill of runs, and writes each
    # zero out as its lane leaves, so 6000 more runs must add nothing; zeros
    # kept until the end would add 64 bytes a run (0.37 MB here).  512 lanes
    # keep the lanes' own memory small beside that
    monkeypatch.setattr(engine, "_LANES", 512)
    engine.first_zeros([(GoldbachAlt(N=k), k - 2) for k in range(3, 40)])  # imports numpy, builds the SPF table
    small, large = lane_transient_bytes(2000), lane_transient_bytes(8000)
    assert large - small < 0.25 * 2**20, (small, large)


def naive_forward(initial, g_of, budget, start=1):
    """Reference forward addition: every difference, the large steps, the end."""
    a, n = initial, start
    diffs, steps = [], []
    while n < start + budget:
        n += 1
        g = gcd(a, abs(g_of(n)))
        a += g
        diffs.append(g)
        if g > 1:
            steps.append((n, g))
    return diffs, steps, n, a


def naive_forward_records(initial, g_of, budget, start=1):
    """Reference for forward_record_indices: one step at a time."""
    a, n, best = initial, start, 0
    records, row, shev = [], [], []
    while n < start + budget:
        n += 1
        g = gcd(a, abs(g_of(n)))
        a += g
        if g > best:
            best = g
            records.append((n, g))
        if a == 2 * n + 2:
            row.append(n)
        if a == 2 * n + 1:
            shev.append(n)
    return records, row, shev


def assert_backward_matches_naive(initial, arg, budget, mode, start, want, g_of):
    cfg = RunConfig(
        initial=initial, arg=arg, mode=mode, start_index=start, stop_after_zeros=want, budget=budget
    )
    if want is not None and initial == 0:
        with pytest.raises(engine.NonterminatingZeroRequest):
            engine.run(cfg)
        return
    tr = engine.run(cfg)
    zs, steps, n, a = naive_backward(initial, g_of, budget, mode, start, want)
    assert (tr.zero_indices, tr.large_steps, tr.final_index, tr.final_value) == (zs, steps, n, a)
    assert tr.iterations_used == n - start
    assert tr.budget_exhausted == (n >= start + budget and want is not None and len(zs) < want)
    assert tr.forward_diffs == []


BEATTY_G = CLOSED_FORM[BeattyTwin()]  # g from a 90-digit Machin pi


@given(
    initial=st.integers(0, 3000),
    budget=st.integers(1, 5000),
    mode=st.sampled_from([engine.ABS_BACKWARD, engine.SIGNED_BACKWARD]),
    start=st.integers(0, 3000),
    want=st.none() | st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_beatty_jump_equals_naive(initial, budget, mode, start, want):
    assert_backward_matches_naive(initial, BeattyTwin(), budget, mode, start, want, BEATTY_G)


def test_beatty_first_zero():
    zs, _, _, _ = naive_backward(98, BEATTY_G, 99, "signed", want=1)
    assert plain_first_zero(BeattyTwin(), 98, 1) == zs[0]
    assert engine.first_zeros([(BeattyTwin(), 98)]) == [zs[0]]


def test_beatty_descent_from_400000_equals_naive():
    # steps through 364913, where pi*n is within 6e-7 of an integer
    assert_backward_matches_naive(400_000, BeattyTwin(), 10**6, engine.SIGNED_BACKWARD, 1, None, BEATTY_G)


def assert_beatty_matches_naive(initial, budget, mode, start):
    if mode == engine.FORWARD_ADD:
        tr = engine.run(RunConfig(initial=initial, arg=BeattyTwin(), mode=mode, start_index=start, budget=budget))
        assert (tr.large_steps, tr.final_index, tr.final_value) == naive_forward(initial, BEATTY_G, budget, start)[1:]
    else:
        assert_backward_matches_naive(initial, BeattyTwin(), budget, mode, start, None, BEATTY_G)


@given(
    initial=st.integers(0, 3000),
    budget=st.integers(1, 4000),
    mode=st.sampled_from([engine.ABS_BACKWARD, engine.SIGNED_BACKWARD, engine.FORWARD_ADD]),
    near=st.sampled_from([364913, 1360120, 1725033]),
    offset=st.integers(-4000, 2),
)
# runs whose event finder walks past 364913 before it settles on an earlier event
@example(151, 2000, engine.SIGNED_BACKWARD, 364913, -18)
@example(150, 2000, engine.SIGNED_BACKWARD, 364913, -17)
@example(153, 2000, engine.SIGNED_BACKWARD, 364913, -17)
@settings(max_examples=80, deadline=None)
def test_beatty_jump_equals_naive_across_convergents(initial, budget, mode, near, offset):
    # pi*n comes within 6e-7 of an integer at these convergent denominators
    assert_beatty_matches_naive(initial, budget, mode, near + offset)


@given(
    initial=st.integers(0, 3000),
    budget=st.integers(1, 4000),
    mode=st.sampled_from([engine.ABS_BACKWARD, engine.SIGNED_BACKWARD, engine.FORWARD_ADD]),
    start=st.integers(-3000, 0),
)
@settings(max_examples=150, deadline=None)
def test_beatty_negative_start_jump_equals_naive(initial, budget, mode, start):
    assert_beatty_matches_naive(initial, budget, mode, start)


# each family with g written out by hand, as the naive reference steps it
FORWARD_SPECS = {
    RowlandIndex(): lambda n: n,
    ShevelevLinear(): lambda n: n - 1 + (-1 if n % 2 else 1),
    PeriodicAffine(m=1, offsets=(0, 2)): lambda n: n + (0, 2)[(n - 1) % 2],
    PeriodicAffine(m=3, offsets=(-1, 4, 0)): lambda n: 3 * n + (-1, 4, 0)[(n - 1) % 3],
    Polynomial(coeffs=(0, 1, 1)): lambda n: n + n * n,
    Polynomial(coeffs=(-6, 1)): lambda n: n - 6,
    ShiftedIndex(): lambda n: n - 1,
    BeattyTwin(): BEATTY_G,
}


@given(
    spec=st.sampled_from(list(FORWARD_SPECS)),
    initial=st.integers(0, 3000),
    budget=st.integers(1, 3000),
    start=st.integers(0, 50),
)
@example(spec=ShevelevLinear(), initial=7, budget=300, start=4)  # a(7) = 15 = 2*7 + 1 at an event
@settings(max_examples=150, deadline=None)
def test_forward_jump_equals_naive(spec, initial, budget, start):
    cfg = RunConfig(initial=initial, arg=spec, mode=engine.FORWARD_ADD, start_index=start, budget=budget)
    tr = engine.run(cfg)
    diffs, steps, n, a = naive_forward(initial, FORWARD_SPECS[spec], budget, start)
    assert (tr.large_steps, tr.final_index, tr.final_value) == (steps, n, a)
    assert len(tr.forward_diffs) == tr.iterations_used == budget
    assert list(tr.forward_diffs) == diffs
    assert tr.forward_diffs[: budget // 2] == diffs[: budget // 2]
    assert tr.forward_diffs[-1] == diffs[-1]
    assert tr.zero_indices == [] and not tr.budget_exhausted
    fr = engine.forward_record_indices(cfg)
    assert (fr.records, fr.rowland_flags, fr.shevelev_flags) == naive_forward_records(
        initial, FORWARD_SPECS[spec], budget, start
    )


def test_forward_zero_difference():
    # g(1) = 0 and a(0) = 0, so the first difference is gcd(0, 0) = 0
    cfg = RunConfig(initial=0, arg=ShiftedIndex(), mode=engine.FORWARD_ADD, start_index=0, budget=6)
    tr = engine.run(cfg)
    assert tr.forward_diffs == naive_forward(0, lambda n: n - 1, 6, start=0)[0] == [0, 1, 1, 1, 1, 1]
    assert tr.forward_steps == [(1, 0)]


def test_forward_memory_follows_events():
    cfg = RunConfig(initial=7, arg=RowlandIndex(), mode=engine.FORWARD_ADD, budget=10**9)
    tr = engine.run(cfg)
    assert tr.final_index == 10**9 + 1 and len(tr.forward_diffs) == 10**9
    assert len(tr.forward_steps) < 1000
    assert all(primality.is_prime(d) for _, d in tr.large_steps)


@given(
    m=st.integers(1, 9),
    offsets=st.lists(st.integers(-6, 10), min_size=1, max_size=4),
    initial=st.integers(1, 400),
)
@settings(max_examples=60, deadline=None)
def test_jump_equals_naive_periodic(m, offsets, initial):
    spec = PeriodicAffine(m=m, offsets=tuple(offsets))
    budget = 2000
    tr = engine.run(RunConfig(initial=initial, arg=spec, budget=budget))
    g = lambda n: m * n + offsets[(n - 1) % len(offsets)]  # noqa: E731
    zs, steps, n, a = naive_backward(initial, g, budget)
    assert tr.zero_indices == zs
    assert tr.large_steps == steps
    assert (tr.final_index, tr.final_value) == (n, a)


@given(
    coeffs=st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(any),
    initial=st.integers(1, 300),
)
@settings(max_examples=60, deadline=None)
def test_jump_equals_naive_polynomial(coeffs, initial):
    spec = Polynomial(coeffs=tuple(coeffs))
    budget = 1500
    tr = engine.run(RunConfig(initial=initial, arg=spec, budget=budget))
    g = lambda n: sum(c * n**k for k, c in enumerate(coeffs))  # noqa: E731
    zs, steps, n, a = naive_backward(initial, g, budget)
    assert (tr.zero_indices, tr.large_steps, tr.final_index, tr.final_value) == (
        zs,
        steps,
        n,
        a,
    )


def test_zero_class_at_the_budget_limit():
    # polys[0](x) == 0 on the plateau a(i) = 4 - i, whose class 0 first occurs
    # at i = 4: the zero there, with the budget ending at it, is not an event
    spec = PeriodicAffine(m=1, offsets=(0, 0, 0, -5))
    for budget in (3, 4):
        tr = engine.run(RunConfig(initial=3, arg=spec, budget=budget))
        zs, steps, n, a = naive_backward(3, lambda n: n + (0, 0, 0, -5)[(n - 1) % 4], budget)
        assert (tr.zero_indices, tr.large_steps, tr.final_index, tr.final_value) == (zs, steps, n, a)


def test_descent_invariant_sampled():
    # a(n) strictly decreases while positive: check step-by-step on a few specs
    for spec, initial in [(AffineMinus(m=7), 200), (PowerMinus(b=3, c=2), 50)]:
        a, n = initial, 1
        while a > 0 and n < 5000:
            n += 1
            g = gcd(a, abs(spec.eval_arg(n)))
            nxt = abs(a - g)
            assert 0 <= nxt <= a - 1
            a = nxt


def test_parse_spec_integration():
    zs = engine.zeros(RunConfig(initial=1, arg=parse_spec("affine:m=1")), 5)
    assert zs == [2, 5, 11, 23, 47]


def test_jump_event_invariant_raises(monkeypatch):
    # an event whose class value 1 has no prime in common with a(i - 1)
    monkeypatch.setattr(engine, "_next_event", lambda n, x, hi, sel, polys: (n + 1, 1))
    for mode in (engine.ABS_BACKWARD, engine.FORWARD_ADD):
        with pytest.raises(engine.EngineInvariantError, match="unit step"):
            engine.run(RunConfig(initial=10, arg=AffineMinus(m=1), mode=mode))


@given(
    spec=st.sampled_from(ALL_SPECS),
    mode=st.sampled_from([engine.ABS_BACKWARD, engine.SIGNED_BACKWARD, engine.FORWARD_ADD]),
    initial=st.integers(0, 2999),
    budget=st.integers(1, 2999),
    start=st.integers(0, 49),
    want=st.none() | st.integers(1, 3),
)
@settings(max_examples=1000, deadline=None)
def test_every_family_jump_equals_naive(spec, mode, initial, budget, start, want):
    # the naive reference steps with g written out, not with eval_arg
    g_of = CLOSED_FORM[spec]
    if mode != engine.FORWARD_ADD:
        assert_backward_matches_naive(initial, spec, budget, mode, start, want, g_of)
        return
    cfg = RunConfig(initial=initial, arg=spec, mode=mode, start_index=start, budget=budget)
    tr = engine.run(cfg)
    diffs, steps, n, a = naive_forward(initial, g_of, budget, start)
    assert (tr.large_steps, tr.final_index, tr.final_value) == (steps, n, a)
    assert list(tr.forward_diffs) == diffs


# The event finder tests the first indices of a plateau with one gcd each
# before it factors a class value of 2^20 or more (see the engine docstring).
# Values of ~113 bits on plateaus of ~1000 steps once sent it into minutes of
# Pollard rho; the deadline fails an example that falls back to that.
def _power_minus(b, c):
    return PowerMinus(b=b, c=c), lambda n: b * n**c - 1


def _factored(factors):
    g = lambda n: prod(sum(c * n**k for k, c in enumerate(f)) for f in factors)  # noqa: E731
    return FactoredPolynomial(factors=tuple(factors)), g


_FACTOR_POLYS = [(1, 0, 1), (3, 0, 1), (-1, 2), (1, 1, 1), (5, -3, 2), (-2, 0, 3), (1, 0, 0, 1)]


@given(
    family=st.builds(_power_minus, st.integers(1, 3), st.integers(3, 5))
    | st.builds(_factored, st.lists(st.sampled_from(_FACTOR_POLYS), min_size=1, max_size=3)),
    initial=st.integers(0, 2999),
    start=st.integers(0, 99),
    budget=st.integers(1, 3999),
)
@settings(max_examples=200, deadline=2000)
def test_large_values_jump_equals_naive(family, initial, start, budget):
    spec, g_of = family
    assert_backward_matches_naive(initial, spec, budget, engine.ABS_BACKWARD, start, None, g_of)


@pytest.mark.parametrize(
    "family, initial, start, budget",
    [
        (_factored([(1, 0, 1), (3, 0, 1)]), 960, 58, 1008),
        (_power_minus(2, 3), 2434, 20, 3849),
        # class values of ~117 bits, above the 10^34 where factoring once
        # gave way to naive stepping
        (_power_minus(2, 5), 10**12, 10**7, 200_000),
    ],
)
def test_large_value_runs_equal_naive(family, initial, start, budget):
    spec, g_of = family
    assert_backward_matches_naive(initial, spec, budget, engine.ABS_BACKWARD, start, None, g_of)


_P65 = 18446744073709551629  # a prime of 65 bits
# prime -> the indices the gcd test covers on its plateaus, 2^(bits/4 - 3):
# primes of 22, 41 and 65 bits
_SCAN_WINDOWS = {2097169: 4, 1099511627791: 128, _P65: 8192}


@pytest.fixture
def factor_calls(monkeypatch):
    calls = []
    inner = engine._prime_factors

    def counted(q):
        calls.append(q)
        return inner(q)

    monkeypatch.setattr(engine, "_prime_factors", counted)
    return calls


@pytest.mark.parametrize("q", list(_SCAN_WINDOWS))
@pytest.mark.parametrize("past_scan", [0, 1])
def test_event_at_the_scan_bound(factor_calls, q, past_scan):
    # g = q on every index, so the only event is at i = x (mod q), put at the
    # last index the gcd test covers, or the first one after it
    n, w = 1000, _SCAN_WINDOWS[q]
    x = n + w + past_scan + q
    assert engine._next_event(n, x, x - 2, 1, [[q]]) == (n + w + past_scan, q)
    assert factor_calls == [q] * past_scan


@pytest.mark.parametrize("q", list(_SCAN_WINDOWS))
@pytest.mark.parametrize("past_scan", [0, 1])
def test_plateau_as_long_as_the_scan_bound(factor_calls, q, past_scan):
    # no event on (n, hi]: a plateau the gcd test covers ends without factoring
    n, w = 1000, _SCAN_WINDOWS[q]
    hi = n + w + past_scan
    assert engine._next_event(n, hi + q + 1, hi, 1, [[q]]) is None
    assert factor_calls == [q] * past_scan


def test_zero_class_value_on_a_large_plateau(factor_calls):
    # class 0 has value 0, so its first index is the event; class 1 has none
    n, x = 1000, 1000 + 3 * _P65
    assert engine._next_event(n, x, x - 2, 2, [[0], [_P65]]) == (1002, 0)
    assert engine._next_event(n + 1, x, x - 2, 2, [[0], [_P65]]) == (1002, 0)
    assert factor_calls == []
    # GoldbachAlt(N) has g(i) = 2N - i on odd i, which is 0 at x = 2N; the
    # even class's value x is above 2^20
    N = 2**20
    g = lambda n: n if n % 2 == 0 else 2 * N - n  # noqa: E731
    for start in (10, 11):
        initial = 2 * N - start - 1
        assert_backward_matches_naive(initial, GoldbachAlt(N=N), 3000, engine.ABS_BACKWARD, start, None, g)
