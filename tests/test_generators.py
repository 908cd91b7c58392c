"""Argument families: evaluation, claims, residue classes, serialization."""
import math
import pickle
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gcdlab import generators as G


def test_poly_parse_eval_roundtrip():
    coeffs = G.parse_poly("2x^2-3x+1")
    assert coeffs == [1, -3, 2]
    assert G.poly_eval(coeffs, 4) == 2 * 16 - 12 + 1
    assert G.parse_poly(G.poly_str(coeffs)) == coeffs
    assert G.parse_poly("x^3+1") == [1, 0, 0, 1]
    with pytest.raises(G.SpecParseError):
        G.parse_poly("2x^2-3x+")
    with pytest.raises(G.SpecParseError):
        G.parse_poly("")
    assert G.parse_poly("(x+1)") == [1, 1]
    assert G.parse_poly("x^2+x-x^2") == [0, 1]  # the cancelled x^2 is dropped


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any))
@settings(max_examples=200, deadline=None)
def test_poly_str_roundtrip(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    assert G.parse_poly(G.poly_str(coeffs)) == coeffs


def test_poly_mul():
    # (x+1)(x-1) = x^2 - 1
    assert G.poly_mul([1, 1], [-1, 1]) == [-1, 0, 1]


def test_floor_pi_times_matches_float_region():
    for n in range(0, 10000):
        assert G.floor_pi_times(n) == math.floor(math.pi * n)


def _sign(n):
    return -1 if n % 2 else 1


def _machin_pi(digits):
    """floor(pi * 10**digits) to within one unit, from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in integer arithmetic with ten guard
    digits: a pi that owes nothing to generators._PI_NUM."""
    unity = 10 ** (digits + 10)

    def atan_inv(x):
        total = term = unity // x
        k, sign = 1, 1
        while term:
            term //= x * x
            k, sign = k + 2, -sign
            total += sign * (term // k)
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) // 10**10


PI_90 = _machin_pi(90)


def floor_pi(n):
    """floor(pi*n) from the 90-digit Machin pi; exact while ||pi*n|| > 2|n|/10^90."""
    return PI_90 * n // 10**90


def _pi_convergents(limit):
    """(p, q) for the convergents p/q of pi with q <= limit, from PI_90."""
    num, den = PI_90, 10**90
    (p0, p1), (q0, q1) = (0, 1), (1, 0)
    out = []
    while True:
        k, (num, den) = num // den, (den, num % den)
        (p0, p1), (q0, q1) = (p1, k * p1 + p0), (q1, k * q1 + q0)
        if q1 > limit:
            return out
        out.append((p1, q1))


def _beatty_r(n):
    return 2 * (floor_pi(n) - floor_pi(n - 1) - 3)


# every family with g written out from its class docstring, as an oracle for
# the g that eval_arg derives from residue_polys()
CLOSED_FORM = {
    G.AffineMinus(m=5): lambda n: 5 * n - 1,
    G.PowerMinus(b=2, c=3): lambda n: 2 * n**3 - 1,
    G.PrimePowerMinusOne(p=3): lambda n: n**3 - 1,
    G.QuadShift(m=2): lambda n: n * (n + 4),
    G.TripletProduct(): lambda n: n * (n + 2) * (n + 6),
    G.Polynomial(coeffs=(-1, 0, 2)): lambda n: 2 * n * n - 1,
    G.FactoredPolynomial(factors=((1, 0, 1), (3, 0, 1))): lambda n: (n * n + 1) * (n * n + 3),
    # b(n) = offsets[(n-1) % 2]: 0 at odd n, 2 at even n
    G.PeriodicAffine(m=1, offsets=(0, 2)): lambda n: n + (0 if n % 2 else 2),
    # Q_{b(n)} with b(n) = schedule[(n-1) % 2]: Q_2 = n^2+3 at odd n, Q_1 = n^2+1 at even n
    G.PeriodicFactorSchedule(factors=((1, 0, 1), (3, 0, 1)), schedule=(2, 1)): (
        lambda n: n * n + (3 if n % 2 else 1)
    ),
    # b(n) = offsets[(n-1) % 3]: -1 at n = 1 mod 3, 4 at n = 2, 0 at n = 0
    G.PeriodicAffine(m=3, offsets=(-1, 4, 0)): lambda n: 3 * n + {1: -1, 2: 4, 0: 0}[n % 3],
    # Q_1 = n^2+1, Q_2 = n^2+3, Q_3 = n+1 and b(n) = schedule[(n-1) % 3]:
    # Q_2 at n = 1 mod 3, Q_3 at n = 2, Q_1 at n = 0
    G.PeriodicFactorSchedule(factors=((1, 0, 1), (3, 0, 1), (1, 1)), schedule=(2, 3, 1)): (
        lambda n: {1: n * n + 3, 2: n + 1, 0: n * n + 1}[n % 3]
    ),
    G.ShiftedIndex(): lambda n: n - 1,
    G.AlternatingLinear(): lambda n: n + _sign(n),
    G.ShevelevLinear(): lambda n: n - 1 + _sign(n),
    G.AlternatingQuad(): lambda n: 2 * n * n + _sign(n),
    G.GoldbachProduct(N=50): lambda n: (n - 1) * (2 * 50 - n + 1),
    G.GoldbachAlt(N=50): lambda n: 50 - _sign(n) * (50 - n),
    G.GoldbachAlt(N=50, flip=True): lambda n: 50 + _sign(n) * (50 - n),
    G.BeattyTwin(): lambda n: n + _beatty_r(n),
    G.RowlandIndex(): lambda n: n,
}
ALL_SPECS = list(CLOSED_FORM)

# every ALL_SPECS family with a zero claim: the values asserted prime when the
# recursion reaches zero at n, written out by hand from its class docstring
# (every factor of g at n + 1), as an oracle for the claim_values that Family
# derives from residue_factors()
CLAIM_FORM = {
    G.AffineMinus(m=5): lambda n: [5 * (n + 1) - 1],
    G.PowerMinus(b=2, c=3): lambda n: [2 * (n + 1) ** 3 - 1],
    # ((n+1)^3 - 1)/n, written out so that n = 0 has a value
    G.PrimePowerMinusOne(p=3): lambda n: sorted({n, (n + 1) ** 2 + (n + 1) + 1}),
    G.QuadShift(m=2): lambda n: [n + 1, n + 5],
    G.TripletProduct(): lambda n: [n + 1, n + 3, n + 7],
    G.Polynomial(coeffs=(-1, 0, 2)): lambda n: [2 * (n + 1) ** 2 - 1],
    G.FactoredPolynomial(factors=((1, 0, 1), (3, 0, 1))): lambda n: [(n + 1) ** 2 + 1, (n + 1) ** 2 + 3],
    # m(n+1) + b for every offset b
    G.PeriodicAffine(m=1, offsets=(0, 2)): lambda n: [n + 1, n + 3],
    # every Q_j(n+1), whatever the schedule
    G.PeriodicFactorSchedule(factors=((1, 0, 1), (3, 0, 1)), schedule=(2, 1)): (
        lambda n: [(n + 1) ** 2 + 1, (n + 1) ** 2 + 3]
    ),
    G.PeriodicAffine(m=3, offsets=(-1, 4, 0)): lambda n: [3 * n + 2, 3 * n + 3, 3 * n + 7],
    G.PeriodicFactorSchedule(factors=((1, 0, 1), (3, 0, 1), (1, 1)), schedule=(2, 3, 1)): (
        lambda n: sorted({(n + 1) ** 2 + 1, (n + 1) ** 2 + 3, n + 2})
    ),
    G.ShiftedIndex(): lambda n: [n],
    G.AlternatingLinear(): lambda n: [n, n + 2],
    G.AlternatingQuad(): lambda n: [2 * (n + 1) ** 2 - 1, 2 * (n + 1) ** 2 + 1],
    # the Goldbach pairs keep a repeated summand
    G.GoldbachProduct(N=50): lambda n: sorted([n, 2 * 50 - n]),
    G.GoldbachAlt(N=50): lambda n: sorted([n + 1, 2 * 50 - n - 1]),
    G.GoldbachAlt(N=50, flip=True): lambda n: sorted([n + 1, 2 * 50 - n - 1]),
    G.BeattyTwin(): lambda n: [n + 1, n + 3],
}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.spec_str())
def test_spec_string_roundtrip(spec):
    again = G.parse_spec(spec.spec_str())
    for n in range(1, 40):
        assert again.eval_arg(n) == spec.eval_arg(n)
    assert again.spec_str() == spec.spec_str()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.spec_str())
def test_residue_polys_agree_with_eval(spec):
    # the shape of the form that eval_arg reads: one polynomial per class of
    # an int period, and a selector that stays in range
    sel, polys = spec.residue_polys()
    if isinstance(sel, int):
        assert len(polys) == sel
        sel = sel.__rmod__
    for n in range(1, 2000):
        assert 0 <= sel(n) < len(polys)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.spec_str())
def test_eval_arg_matches_closed_form(spec):
    g = CLOSED_FORM[spec]
    for n in range(1, 2000):
        assert spec.eval_arg(n) == g(n), n


def test_eval_arg_derives_the_form_once_per_instance(monkeypatch):
    calls = []
    residue_factors = G.PeriodicAffine.residue_factors
    monkeypatch.setattr(G.PeriodicAffine, "residue_factors", lambda self: calls.append(self) or residue_factors(self))
    spec, fresh = G.PeriodicAffine(m=1, offsets=(2, 6, 0)), G.PeriodicAffine(m=1, offsets=(2, 6, 0))
    values = [spec.eval_arg(n) for n in range(1, 500)]
    assert len(calls) == 1
    # the cached form changes neither equality, hash nor pickling
    assert spec == fresh and hash(spec) == hash(fresh)
    again = pickle.loads(pickle.dumps(spec))
    assert again == fresh and [again.eval_arg(n) for n in range(1, 500)] == values
    assert [fresh.eval_arg(n) for n in range(1, 500)] == values
    assert len(calls) == 2
    # residue_polys is not cached: the engine's calls keep no copy
    spec.residue_polys()
    assert len(calls) == 3


def test_every_family_has_a_closed_form():
    # so that every family takes the eval and round-trip tests above
    assert {spec.tag for spec in CLOSED_FORM} == set(G._FAMILIES)


@pytest.mark.parametrize("spec", list(CLAIM_FORM), ids=lambda s: s.spec_str())
def test_claim_values_match_claim_form(spec):
    claim = CLAIM_FORM[spec]
    for n in [*range(-5, 2001), 2**70 + 1]:
        assert spec.claim_values(n) == claim(n), n


def test_every_claim_bearing_family_has_a_claim_form():
    assert set(CLAIM_FORM) <= set(ALL_SPECS)
    # the other two raise NoClaimDefined (test_no_claim_families_raise)
    assert {spec.tag for spec in CLAIM_FORM} == set(G._FAMILIES) - {"rowland", "shevelev"}


# field values by spec-key codec, in the shapes parse_spec builds them
COEFFS = st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(lambda c: c[-1]).map(tuple)
FIELD_VALUES = {
    G._INT: st.integers(-(10**20), 10**20),
    G._INTS: st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=5).map(tuple),
    G._POLY: COEFFS,
    G._POLYS: st.lists(COEFFS, min_size=1, max_size=4).map(tuple),
    G._FLAG: st.booleans(),
}


@st.composite
def families(draw):
    cls = draw(st.sampled_from(list(G._FAMILIES.values())))
    values = {}
    for f in fields(cls):
        if f.name == "schedule":  # a permutation of 1..beta, one entry per factor
            values[f.name] = tuple(draw(st.permutations(range(1, len(values["factors"]) + 1))))
        else:
            values[f.name] = draw(FIELD_VALUES[f.metadata["codec"]])
    try:
        return cls(**values)
    except ValueError:  # power and primepower need exponents >= 1
        reject()


@given(families())
@settings(max_examples=500, deadline=None)
def test_parse_spec_inverts_spec_str(spec):
    assert G.parse_spec(spec.spec_str()) == spec


def test_readme_spec_table_lists_the_registry():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Spec strings", 1)[1].split("\n### ", 1)[0]
    listed = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            tags, keys = re.split(r"(?<!\\)\|", line)[1:3]
            for tag in re.findall(r"`([^`]+)`", tags):
                listed[tag] = re.findall(r"`([^`]+)`", keys)
    assert listed == {tag: list(G._keys(cls)) for tag, cls in G._FAMILIES.items()}


def test_empty_factor_list_rejected():
    # an empty periodic-factored family once failed only in the engine, with
    # ZeroDivisionError, TypeError or "max() arg is an empty sequence"
    with pytest.raises(ValueError, match="need at least one factor"):
        G.PeriodicFactorSchedule(factors=(), schedule=())
    with pytest.raises(ValueError, match="need at least one factor"):
        G.FactoredPolynomial(factors=())


def test_parse_spec_errors():
    for bad in ["nope", "affine:z=1", "affine:m", "periodic:m=1", "triplet:m=1"]:
        with pytest.raises(G.SpecParseError):
            G.parse_spec(bad)
    for bad, message in [
        ("affine:m=5,z=1", "affine reads m, not 'z'"),
        ("poly:p=x^2+1,q=3", "poly reads p, not 'q'"),
        ("affine:m=5,m=6", "key 'm' is given twice"),
        ("goldbach-alt:N=10,flip=2", "flip must be 0 or 1, got '2'"),
        ("goldbach-alt:N=10,flip=true", "flip must be 0 or 1"),
        ("power:b=2", "power needs key c"),
        ("periodic-factored:q=x+1", "periodic-factored needs key schedule"),
        ("affine", "affine needs key m"),
        ("nope", "unknown spec tag 'nope'"),
        ("triplet:m=1", "triplet takes no parameters"),
        ("periodic-factored:q=,schedule=", "bad spec 'periodic-factored:q=,schedule=': empty polynomial"),
        ("poly:p=x^2+y", "bad polynomial term '+y' in 'x^2+y'"),
        ("poly:p=x-x", "zero polynomial 'x-x'"),
    ]:
        with pytest.raises(G.SpecParseError, match=re.escape(message)):
            G.parse_spec(bad)


def test_goldbach_alt_flip_reads_0_or_1():
    assert G.parse_spec("goldbach-alt:N=10") == G.GoldbachAlt(N=10)
    assert G.parse_spec("goldbach-alt:N=10,flip=0") == G.GoldbachAlt(N=10)
    assert G.parse_spec("goldbach-alt:N=10,flip=1") == G.GoldbachAlt(N=10, flip=True)


def test_claim_examples():
    assert G.AffineMinus(m=1).claim_values(23) == [23]
    assert G.AffineMinus(m=5).claim_values(17) == [89]
    assert G.PowerMinus(b=2, c=2).claim_values(35) == [2591]
    assert G.PrimePowerMinusOne(p=3).claim_values(11933) == [11933, 142432291]
    assert G.QuadShift(m=2).claim_values(12) == [13, 17]
    assert G.TripletProduct().claim_values(4) == [5, 7, 11]
    assert G.AlternatingLinear().claim_values(101) == [101, 103]
    assert G.AlternatingQuad().claim_values(2) == [17, 19]
    assert G.GoldbachProduct(N=8).claim_values(3) == [3, 13]
    assert G.GoldbachAlt(N=8).claim_values(4) == [5, 11]
    assert G.BeattyTwin().claim_values(100) == [101, 103]


def test_goldbach_claims_keep_a_repeated_summand():
    # 7 + 7 = 14: the first zero of goldbach-alt:N=7 is at 6
    assert G.GoldbachAlt(N=7).claim_values(6) == [7, 7]
    for N in range(2, 200):
        assert G.GoldbachProduct(N=N).claim_values(N) == [N, N]


def test_goldbach_claims_sum_to_2N():
    for N in range(2, 200):
        for spec in (G.GoldbachProduct(N=N), G.GoldbachAlt(N=N)):
            for n in range(1, 2 * N - 1):
                assert sum(spec.claim_values(n)) == 2 * N


def test_no_claim_families_raise():
    with pytest.raises(G.NoClaimDefined):
        G.ShevelevLinear().claim_values(5)
    with pytest.raises(G.NoClaimDefined):
        G.RowlandIndex().claim_values(5)


def test_beatty_residues_in_0_2_with_density():
    # r_n = g(n) - n must lie in {0, 2}; its mean tracks 2(pi - 3)
    b = G.BeattyTwin()
    rs = [b.eval_arg(n) - n for n in range(1, 5000)]
    assert set(rs) <= {0, 2}
    mean = sum(rs) / len(rs)
    assert abs(mean - 2 * (math.pi - 3)) < 0.01


def test_periodic_affine_beta1_matches_affine():
    a, p = G.AffineMinus(m=4), G.PeriodicAffine(m=4, offsets=(-1,))
    for n in range(1, 100):
        assert a.eval_arg(n) == p.eval_arg(n)


def test_factored_product_property():
    spec = G.FactoredPolynomial(factors=((1, 0, 1), (3, 0, 1)))
    for n in range(1, 50):
        assert spec.eval_arg(n) == (n * n + 1) * (n * n + 3)
    assert spec.claim_values(3) == [17, 19]


def test_floor_pi_times_matches_machin_pi_at_convergents():
    # pi*q comes closest to an integer at the convergent denominators q; the
    # first three of those above 3*10^5 once raised a false precision alarm
    qs = [q for _, q in _pi_convergents(10**25)]
    assert {364913, 1360120, 1725033} <= set(qs)
    for q in qs:
        for n in (q - 1, q, q + 1, -q):
            assert G.floor_pi_times(n) == floor_pi(n), n


@given(st.integers(-(10**24), 10**24))
@settings(max_examples=500, deadline=None)
def test_floor_pi_times_matches_machin_pi(n):
    assert G.floor_pi_times(n) == floor_pi(n)


def test_stored_pi_is_exact_below_its_domain():
    # the stored floor can differ from floor(pi*n) only where an integer lies
    # between pi*n and _PI_NUM*n/10^59, i.e. where ||pi*n|| < err*|n|/10^90
    err = abs(G._PI_NUM * 10**31 - PI_90) + 2  # |_PI_NUM/10^59 - pi| in units of 10^-90
    assert err < 46 * 10**29  # |_PI_NUM - pi*10^59| < 0.46
    # For 0 < n < q_(k+1), ||pi*n|| >= ||pi*q_k|| = |pi*q_k - p_k| (best
    # approximation, Hardy & Wright ch. X); q_k is the last denominator below
    # the domain bound and q_(k+1) is beyond it.
    convergents = _pi_convergents(10**26)
    k = max(j for j, (_, q) in enumerate(convergents) if q < G._PI_DOMAIN)
    (p, q), (_, q_next) = convergents[k], convergents[k + 1]
    assert q_next >= G._PI_DOMAIN
    gap = abs(q * PI_90 - p * 10**90) - 2 * q  # ||pi*q|| in units of 10^-90, less PI_90's error
    assert gap > err * G._PI_DOMAIN


def test_floor_pi_times_rejects_indices_outside_its_domain():
    assert G.floor_pi_times(10**25 - 1) == floor_pi(10**25 - 1)
    assert G.floor_pi_times(1 - 10**25) == floor_pi(1 - 10**25)
    for n in (10**25, -(10**25), 10**40):
        with pytest.raises(ValueError, match=r"\|n\| < 10\^25"):
            G.floor_pi_times(n)


@pytest.mark.parametrize(
    "spec", ["power:b=2,c=0", "power:b=0,c=2", "power:b=2,c=-1", "primepower:p=0", "primepower:p=-1"]
)
def test_exponents_below_one_rejected(spec):
    # power:b=2,c=0 once built g = 2n - 1 instead of b - 1
    with pytest.raises(G.SpecParseError, match=r"needs .* >= 1"):
        G.parse_spec(spec)
