"""Argument families: evaluation, claims, residue classes, serialization."""
import math

import pytest
from hypothesis import given, settings
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


def _beatty_r(n):
    # float floor(pi*n) is exact for n < 10000 (test above)
    return 2 * (math.floor(math.pi * n) - math.floor(math.pi * (n - 1)) - 3)


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


def test_parse_spec_errors():
    for bad in ["nope", "affine:z=1", "affine:m", "periodic:m=1", "triplet:m=1"]:
        with pytest.raises(G.SpecParseError):
            G.parse_spec(bad)


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


@given(
    m=st.integers(1, 300),
    a=st.integers(0, 900),
    bounds=st.tuples(st.integers(0, 299), st.integers(0, 299)),
)
@settings(max_examples=300, deadline=None)
def test_least_multiple_in_matches_brute_force(m, a, bounds):
    lo, hi = sorted(b % m for b in bounds)
    want = next((x for x in range(m) if lo <= a * x % m <= hi), None)
    assert G._least_multiple_in(a, m, lo, hi) == want


def _imprecise(j):
    try:
        G.floor_pi_times(j)
    except G.BeattyPrecisionError:
        return True
    return False


def test_first_imprecise_matches_floor_pi_times():
    bad = [364913, 1360120, 1725033]
    assert all(_imprecise(j) for j in bad)
    for lo in [-5, 0, 1, 364000, 364912, 364913, 364914, 1360120, 1360121, 1725033]:
        assert G.first_imprecise(lo) == next(j for j in bad if j >= max(lo, 1))
    # nothing else raises in windows around them
    for j0 in bad:
        assert [j for j in range(j0 - 3000, j0 + 3000) if _imprecise(j)] == [j0]
    far = G.first_imprecise(10**12)
    assert far >= 10**12 and _imprecise(far)
    assert not any(_imprecise(j) for j in range(10**12, far))


@pytest.mark.parametrize(
    "spec", ["power:b=2,c=0", "power:b=0,c=2", "power:b=2,c=-1", "primepower:p=0", "primepower:p=-1"]
)
def test_exponents_below_one_rejected(spec):
    # power:b=2,c=0 once built g = 2n - 1 instead of b - 1
    with pytest.raises(G.SpecParseError, match=r"needs .* >= 1"):
        G.parse_spec(spec)
