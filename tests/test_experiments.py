"""Experiment harness: tables, scans, property suites, statistical series."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdlab import engine, experiments, primality
from gcdlab.experiments import (
    claims_report,
    conj7_f_and_L,
    conj8_property_check,
    gap_diagnostics,
    goldbach_constant_series,
    goldbach_g,
    legendre_count,
    legendre_holds,
    legendre_series,
    scan_threshold,
    table,
    upsilon,
    upsilon_twin,
    upsilon_v,
    v_sequence,
)
from gcdlab.generators import (
    AffineMinus,
    AlternatingLinear,
    AlternatingQuad,
    BeattyTwin,
    GoldbachAlt,
    GoldbachProduct,
    PeriodicAffine,
    TripletProduct,
)


def test_claims_report_shape():
    # the CSV form of this report is checked in test_cli.py
    rep = claims_report(AffineMinus(m=1), 1, 4)
    assert [r[0] for r in rep.rows] == [2, 5, 11, 23]
    assert all(r[3] == 1 for r in rep.rows)
    assert rep.rows[0] == (2, [2], [1], 1)
    for _, claims, deltas, ap in rep.rows:
        assert len(claims) == len(deltas)
        prod = 1
        for d in deltas:
            prod *= d
        assert ap == prod


def test_appendix1_rows():
    rows = experiments.appendix1(10)
    assert [r[1] for r in rows] == [2, 5, 11, 23, 47, 79, 157, 313, 619, 1237]
    assert all(r[2] == 1 for r in rows)
    assert rows[0][3] == 1.0  # 2 / 2^1


def test_table_appendix2():
    rep = table("appendix2", m=6)
    assert [r[0] for r in rep.rows] == [2, 16, 76, 466, 3258, 22774]


def test_table_appendix5():
    rep = table("appendix5", p=3)
    assert [r[0] for r in rep.rows] == [3, 51, 7665]
    assert rep.rows[2][1] == [176302667]


def test_table_appendix6_presets():
    rep = table("appendix6", key="beta2-2", rows=4)
    assert [r[0] for r in rep.rows] == [101, 1115, 12203, 130013]


def test_table_c3ter():
    rep = table("c3ter")
    assert [r[0] for r in rep.rows] == [4, 40, 82006]
    assert rep.rows[0][1] == [5, 7, 11]


def test_table_c8_prime():
    rep = table("c8", variant="prime", n_hi=10)
    # rows are (f(N), claims, deltas, all_prime) for N = 4..10
    assert len(rep.rows) == 7
    assert all(ap == 1 for _, _, _, ap in rep.rows)


def test_table_c8_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match="^unknown c8 variant 'x'; known variants: prime, twin$"):
        table("c8", variant="x")


def test_table_unknown_family():
    with pytest.raises(ValueError):
        table("nope")


@pytest.mark.parametrize(
    "family, params, unread",
    [
        ("appendix2", {"p": 3}, "--p"),
        ("c8", {"n_hi": 5, "m": 2}, "--m"),
        ("c3ter", {"n_hi": 9, "key": "x"}, "--n-hi, --key"),
    ],
)
def test_table_rejects_parameters_its_family_does_not_read(monkeypatch, family, params, unread):
    monkeypatch.setattr(experiments.engine, "run", lambda config: pytest.fail("ran before the check"))
    with pytest.raises(ValueError, match=f"^table {family} does not read {unread}$"):
        table(family, **params)


def test_every_table_family_runs_with_its_parameters():
    required = {"spec": "affine:m=1", "initial": 1}
    for family, names in experiments.TABLE_PARAMS.items():
        params = {k: required[k] for k in names if k in required}
        assert len(table(family, rows=1, **params).rows) >= 1, family


def test_goldbach_g_variants():
    g, claims, ap = goldbach_g(2209, "alternating")
    assert claims == [g + 1, 2 * 2209 - g - 1]
    assert sum(claims) == 2 * 2209
    assert ap == 1
    g, claims, ap = goldbach_g(8, "product")
    assert sum(claims) == 16
    with pytest.raises(ValueError):
        goldbach_g(8, "weird")
    with pytest.raises(ValueError):
        goldbach_g(1)


def test_goldbach_claim_sum_invariant():
    for N in range(2, 300):
        for variant in ("product", "alternating"):
            _, claims, _ = goldbach_g(N, variant)
            assert sum(claims) == 2 * N


def test_scan_threshold_small():
    rep = scan_threshold("twin", 300)
    assert rep.largest_failure == 97
    assert rep.failing_N == sorted(rep.failing_N)
    assert set(rep.failing_N) <= set(range(2, 301))
    assert (rep.n_lo, rep.n_hi) == (2, 300)  # the CSV rows, checked in test_cli.py


@pytest.mark.parametrize("family, largest", [("twin", 97), ("beatty", 1648), ("triplet", 2734)])
def test_scans_to_n_1e5_keep_their_largest_failures(family, largest):
    # each pool job's runs share one descent memo, which makes N = 10^5 cheap
    assert scan_threshold(family, 10**5, workers=2).largest_failure == largest


def test_scan_threshold_workers_agree():
    a = scan_threshold("triplet", 600, workers=1)
    b = scan_threshold("triplet", 600, workers=4)
    assert a.failing_N == b.failing_N


# each result as a function of the worker count
WORKER_RUNS = {
    **{
        f"scan-{family}": (lambda w, family=family: scan_threshold(family, 500, workers=w))
        for family in ("twin", "triplet", "beatty", "goldbach")
    },
    "scan-empty": lambda w: scan_threshold("triplet", 5, workers=w),
    "upsilon": lambda w: list(upsilon(300, 2, 3, workers=w)),
    "upsilon-twin": lambda w: list(upsilon_twin(300, workers=w)),
}


@pytest.mark.parametrize("name", WORKER_RUNS)
def test_results_do_not_depend_on_the_worker_count(name):
    run = WORKER_RUNS[name]
    one = run(1)
    assert run(2) == one
    assert run(3) == one


def test_a_scan_checks_each_distinct_claim_once_per_job(monkeypatch):
    # a verdict depends on the spec and the zero alone, and the runs of one
    # g mostly end at zeros that other runs reached
    jobs, checks = [], []
    first_zeros, all_prime = engine.first_zeros, primality.all_prime

    def zeros_spy(runs, start_index=1):
        zs = first_zeros(runs, start_index)
        jobs.append({(spec, z) for (spec, _), z in zip(runs, zs)})
        return zs

    monkeypatch.setattr(engine, "first_zeros", zeros_spy)
    monkeypatch.setattr(primality, "all_prime", lambda values, policy: checks.append(values) or all_prime(values, policy))
    assert scan_threshold("triplet", 3000).largest_failure == 2734
    assert len(checks) == sum(map(len, jobs)) < 2995 / 10


# every spec a scan or an upsilon series descends, and Goldbach specs of
# small N, whose runs reach one zero from many initials and whose claims
# keep a repeated summand (N = 7 claims [7, 7])
CLAIM_POOL = [AlternatingLinear(), TripletProduct(), PeriodicAffine(m=1, offsets=(2, 6, 0)), BeattyTwin()]
CLAIM_POOL += [AlternatingQuad()] + [GoldbachProduct(N=N) for N in range(3, 13)]
CLAIM_POOL += [GoldbachAlt(N=N, flip=flip) for N in range(3, 13) for flip in (False, True)]


@given(
    stretches=st.lists(
        st.tuples(st.sampled_from(CLAIM_POOL), st.lists(st.integers(0, 60), min_size=1, max_size=6)),
        min_size=1,
        max_size=12,
    ),
    start=st.sampled_from((0, 1)),
)
@example(stretches=[(GoldbachAlt(N=7), [5, 6]), (GoldbachProduct(N=7), [6, 8])], start=1)
@settings(max_examples=200, deadline=None)
def test_verdicts_once_per_distinct_zero_equal_verdicts_per_run(stretches, start):
    runs = [(spec, k) for spec, initials in stretches for k in initials]
    zs = engine.first_zeros(runs, start)
    per_run = [primality.all_prime(spec.claim_values(z)) for (spec, _), z in zip(runs, zs)]
    assert experiments._claims_hold((runs, start, primality.DEFAULT_POLICY)) == per_run


def test_goldbach_runs_that_reach_one_zero_keep_their_own_verdicts():
    # from N - 3, N = 28 and N = 31 both reach 12, where they claim (13, 43)
    # and (13, 49): the zero alone does not decide the verdict
    runs = [(GoldbachAlt(N=28, flip=True), 25), (GoldbachAlt(N=31, flip=True), 28)]
    assert engine.first_zeros(runs) == [12, 12]
    assert experiments._claims_hold((runs, 1, primality.DEFAULT_POLICY)) == [1, 0]


def test_scan_unknown_family():
    with pytest.raises(ValueError):
        scan_threshold("nope", 100)


def test_conj8_prime_suite_no_violations_small():
    for N in range(4, 2000):
        for pid, ok in conj8_property_check(N, "prime"):
            assert ok, (N, pid)


def test_conj8_twin_suite_no_violations_small():
    for N in range(4, 2000):
        for pid, ok in conj8_property_check(N, "twin"):
            assert ok, (N, pid)


def test_conj8_below_4_and_unknown_variant():
    for N in range(4):
        assert conj8_property_check(N, "prime") == conj8_property_check(N, "twin") == []
    with pytest.raises(ValueError, match="unknown variant 'cousin'"):
        conj8_property_check(10, "cousin")


def test_conj8_twin_example_102():
    checks = dict(conj8_property_check(102, "twin"))
    assert checks["4"]  # h(102)=101 with (101, 103) twin


def test_upsilon_series():
    series = list(upsilon(300, 2, 2))
    assert len(series) == 300
    assert series[0][1] in (0.0, 1.0)
    assert 0.7 <= series[-1][1] <= 0.95
    assert list(upsilon(300, 2, 2, workers=3)) == series


def test_upsilon_twin_series():
    series = list(upsilon_twin(300))
    assert 0.3 <= series[-1][1] <= 0.7
    assert list(upsilon_twin(300, workers=3)) == series


def test_v_sequence_prefix():
    assert v_sequence(10) == [3, 6, 21, 24, 36, 42, 45, 87, 102, 132]


def test_upsilon_v():
    series = list(upsilon_v(30))
    assert len(series) == 30
    assert 0.4 <= series[-1][1] <= 1.0


def test_goldbach_constant_series_positive():
    series = list(goldbach_constant_series(2000))
    assert series[-1][0] == 2000
    assert 0 < series[-1][1] <= 4


def legendre_direct(N):
    """The Legendre count k by k with is_prime: a reference that reads no sieve."""
    return sum(
        1
        for k in range(2, 2 * N + 1)
        if primality.is_prime(N * N + k + 1) and primality.is_prime((N + 1) ** 2 - k)
    )


def test_legendre_count_examples():
    assert legendre_count(2) == 1
    direct = {N: legendre_direct(N) for N in range(2, 80)}
    assert {N: legendre_count(N) for N in direct} == direct
    assert dict(legendre_series(79)) == direct
    assert all(legendre_holds(N) for N in range(175, 400))


@pytest.mark.parametrize("n_lo", [0, 1])
def test_legendre_series_below_two_is_rejected(n_lo):
    with pytest.raises(ValueError, match="N must be >= 2"):
        legendre_series(10, n_lo)


def test_legendre_series_workers_agree():
    assert legendre_series(500, workers=3) == legendre_series(500)


def test_gap_diagnostics():
    rows = list(gap_diagnostics(200))
    assert rows[0][0] == 3 and rows[-1][0] == 200
    for N, a, b in rows:
        assert 0 <= a < 5 and 0 <= b < 5
        if primality.delta(N - 1) and N >= 4:
            assert abs(a - 1 / N**0.5) < 1e-12  # f(N) = N-1 when N-1 prime


def test_conj7_f_and_L_linear_is_certain():
    # single degree-1 factor: every claim is prime, L = 1
    fser, L = conj7_f_and_L("factored:q=2x-1", 400)
    assert L == 1.0
    assert len(fser) == 400


def test_conj7_f_and_L_quadratic_below_one():
    _, L = conj7_f_and_L("poly:p=2x^2-1", 800)
    assert 0.7 <= L <= 0.95


def test_legendre_count_across_the_sieve_limit():
    # the sieve window (N^2, (N+1)^2] reaches 2^20 at N = 1023
    counts = {N: legendre_direct(N) for N in range(1020, 1031)}
    assert {N: legendre_count(N) for N in counts} == counts
    assert dict(legendre_series(1030, n_lo=1020)) == counts
