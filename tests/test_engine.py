"""Engine: backward descent (naive and jump-accelerated), forward addition."""
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab import engine, primality
from gcdlab.engine import RunConfig
from gcdlab.generators import (
    AffineMinus,
    AlternatingLinear,
    BeattyTwin,
    GoldbachAlt,
    PeriodicAffine,
    Polynomial,
    PowerMinus,
    QuadShift,
    RowlandIndex,
    ShevelevLinear,
    ShiftedIndex,
    parse_spec,
)
from gcdlab.generators import BeattyPrecisionError


def naive_backward(initial, arg, budget, mode="abs", start=1, want=None):
    """Reference one-step implementation used as the equivalence oracle."""
    a, n = initial, start
    zs, steps = [], []
    while n < start + budget:
        if mode == "signed" and a == 0:
            break
        n += 1
        g = gcd(a, abs(arg.eval_arg(n)))
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
    assert (z1 + 1, abs(spec.eval_arg(z1 + 1))) in tr.large_steps


def test_budget_flag_and_exhaustion():
    cfg = RunConfig(initial=1, arg=AffineMinus(m=9), stop_after_zeros=9, budget=100)
    tr = engine.run(cfg)
    assert tr.budget_exhausted
    assert len(tr.zero_indices) < 9
    assert engine.zeros(cfg, 9) == tr.zero_indices


def test_nonterminating_zero_request():
    with pytest.raises(engine.NonterminatingZeroRequest):
        engine.run(RunConfig(initial=0, arg=AffineMinus(m=1), stop_after_zeros=1))


def test_first_zero_guard():
    # descent loses at least 1 per step, so the zero arrives within initial steps
    spec = AlternatingLinear()
    for initial in (5, 96, 997):
        z = engine.first_zero(
            RunConfig(initial=initial, arg=spec, mode=engine.SIGNED_BACKWARD)
        )
        assert z is not None and z <= initial + 2


def naive_forward(initial, arg, budget, start=1):
    """Reference forward addition: every difference, the large steps, the end."""
    a, n = initial, start
    diffs, steps = [], []
    while n < start + budget:
        n += 1
        g = gcd(a, abs(arg.eval_arg(n)))
        a += g
        diffs.append(g)
        if g > 1:
            steps.append((n, g))
    return diffs, steps, n, a


def naive_forward_records(initial, arg, budget, start=1):
    """Reference for forward_record_indices: one step at a time."""
    a, n, best = initial, start, 0
    records, row, shev = [], [], []
    while n < start + budget:
        n += 1
        g = gcd(a, abs(arg.eval_arg(n)))
        a += g
        if g > best:
            best = g
            records.append((n, g))
        if a == 2 * n + 2:
            row.append(n)
        if a == 2 * n + 1:
            shev.append(n)
    return records, row, shev


def assert_backward_matches_naive(initial, arg, budget, mode, start, want):
    cfg = RunConfig(
        initial=initial, arg=arg, mode=mode, start_index=start, stop_after_zeros=want, budget=budget
    )
    if want is not None and initial == 0:
        with pytest.raises(engine.NonterminatingZeroRequest):
            engine.run(cfg)
        return
    tr = engine.run(cfg)
    zs, steps, n, a = naive_backward(initial, arg, budget, mode, start, want)
    assert (tr.zero_indices, tr.large_steps, tr.final_index, tr.final_value) == (zs, steps, n, a)
    assert tr.iterations_used == n - start
    assert tr.budget_exhausted == (n >= start + budget and want is not None and len(zs) < want)
    assert tr.forward_diffs == []


@given(
    initial=st.integers(0, 3000),
    budget=st.integers(1, 5000),
    mode=st.sampled_from([engine.ABS_BACKWARD, engine.SIGNED_BACKWARD]),
    start=st.integers(0, 3000),
    want=st.none() | st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_beatty_jump_equals_naive(initial, budget, mode, start, want):
    assert_backward_matches_naive(initial, BeattyTwin(), budget, mode, start, want)


def test_beatty_first_zero():
    cfg = RunConfig(initial=98, arg=BeattyTwin(), mode=engine.SIGNED_BACKWARD)
    zs, _, _, _ = naive_backward(98, BeattyTwin(), 99, "signed", want=1)
    assert engine.first_zero(cfg) == zs[0]


def _outcome(fn):
    try:
        return fn()
    except BeattyPrecisionError as exc:
        return str(exc)


def test_beatty_precision_error_where_naive_raises():
    # pi * 364913 is within 1e-6 of an integer: the naive descent raises there
    arg = BeattyTwin()
    naive = _outcome(lambda: naive_backward(400_000, arg, 10**6, "signed"))
    jump = _outcome(
        lambda: engine.run(RunConfig(initial=400_000, arg=arg, mode=engine.SIGNED_BACKWARD, budget=10**6))
    )
    assert naive == jump == "pi*364913 is within 1e-6 of an integer at the stored precision"


@given(
    initial=st.integers(0, 3000),
    budget=st.integers(1, 4000),
    mode=st.sampled_from([engine.ABS_BACKWARD, engine.SIGNED_BACKWARD, engine.FORWARD_ADD]),
    start=st.integers(364913 - 4000, 364913 + 2),
)
@settings(max_examples=80, deadline=None)
def test_beatty_raises_only_where_naive_raises(initial, budget, mode, start):
    arg = BeattyTwin()
    cfg = RunConfig(initial=initial, arg=arg, mode=mode, start_index=start, budget=budget)
    if mode == engine.FORWARD_ADD:
        naive = _outcome(lambda: naive_forward(initial, arg, budget, start)[1:])
        jump = _outcome(lambda: (lambda t: (t.large_steps, t.final_index, t.final_value))(engine.run(cfg)))
    else:
        naive = _outcome(lambda: naive_backward(initial, arg, budget, mode, start))
        jump = _outcome(
            lambda: (lambda t: (t.zero_indices, t.large_steps, t.final_index, t.final_value))(engine.run(cfg))
        )
    assert jump == (naive if isinstance(naive, str) else tuple(naive))


def test_beatty_walk_through_imprecise_index():
    # the event finder's walk reaches 364913, where g cannot be evaluated, but
    # stepping meets an event and then a zero before it, and returns
    for start, initial in [(364895, 151), (364896, 150), (364896, 153)]:
        assert_backward_matches_naive(initial, BeattyTwin(), 2000, engine.SIGNED_BACKWARD, start, None)


FORWARD_SPECS = [
    RowlandIndex(),
    ShevelevLinear(),
    PeriodicAffine(m=1, offsets=(0, 2)),
    PeriodicAffine(m=3, offsets=(-1, 4, 0)),
    Polynomial(coeffs=(0, 1, 1)),
    Polynomial(coeffs=(-6, 1)),
    ShiftedIndex(),
    BeattyTwin(),
]


@given(
    spec=st.sampled_from(FORWARD_SPECS),
    initial=st.integers(0, 3000),
    budget=st.integers(1, 3000),
    start=st.integers(0, 50),
)
@settings(max_examples=150, deadline=None)
def test_forward_jump_equals_naive(spec, initial, budget, start):
    cfg = RunConfig(initial=initial, arg=spec, mode=engine.FORWARD_ADD, start_index=start, budget=budget)
    tr = engine.run(cfg)
    diffs, steps, n, a = naive_forward(initial, spec, budget, start)
    assert (tr.large_steps, tr.final_index, tr.final_value) == (steps, n, a)
    assert len(tr.forward_diffs) == tr.iterations_used == budget
    assert list(tr.forward_diffs) == diffs
    assert tr.forward_diffs[: budget // 2] == diffs[: budget // 2]
    assert tr.forward_diffs[-1] == diffs[-1]
    assert tr.zero_indices == [] and not tr.budget_exhausted
    fr = engine.forward_record_indices(cfg)
    assert (fr.records, fr.rowland_flags, fr.shevelev_flags) == naive_forward_records(
        initial, spec, budget, start
    )


def test_forward_zero_difference():
    # g(1) = 0 and a(0) = 0, so the first difference is gcd(0, 0) = 0
    cfg = RunConfig(initial=0, arg=ShiftedIndex(), mode=engine.FORWARD_ADD, start_index=0, budget=6)
    tr = engine.run(cfg)
    assert tr.forward_diffs == naive_forward(0, ShiftedIndex(), 6, start=0)[0] == [0, 1, 1, 1, 1, 1]
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
    zs, steps, n, a = naive_backward(initial, spec, budget)
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
    zs, steps, n, a = naive_backward(initial, spec, budget)
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
        zs, steps, n, a = naive_backward(3, spec, budget)
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


class _InconsistentArg:
    """g(n) = 1 for every n, but residue polynomials that claim g(n) = n."""

    def eval_arg(self, n):
        return 1

    def residue_polys(self):
        return 1, [[0, 1]]


def test_jump_event_invariant_raises():
    with pytest.raises(engine.EngineInvariantError, match="unit step"):
        engine.run(RunConfig(initial=10, arg=_InconsistentArg()))
