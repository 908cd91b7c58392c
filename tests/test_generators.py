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


ALL_SPECS = [
    G.AffineMinus(m=5),
    G.PowerMinus(b=2, c=3),
    G.PrimePowerMinusOne(p=3),
    G.QuadShift(m=2),
    G.TripletProduct(),
    G.Polynomial(coeffs=(-1, 0, 2)),
    G.FactoredPolynomial(factors=((1, 0, 1), (3, 0, 1))),
    G.PeriodicAffine(m=1, offsets=(0, 2)),
    G.PeriodicFactorSchedule(factors=((1, 0, 1), (3, 0, 1)), schedule=(2, 1)),
    G.ShiftedIndex(),
    G.AlternatingLinear(),
    G.ShevelevLinear(),
    G.AlternatingQuad(),
    G.GoldbachProduct(N=50),
    G.GoldbachAlt(N=50),
    G.GoldbachAlt(N=50, flip=True),
    G.BeattyTwin(),
    G.RowlandIndex(),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.spec_str())
def test_spec_string_roundtrip(spec):
    again = G.parse_spec(spec.spec_str())
    for n in range(1, 40):
        assert again.eval_arg(n) == spec.eval_arg(n)
    assert again.spec_str() == spec.spec_str()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.spec_str())
def test_residue_polys_agree_with_eval(spec):
    sel, polys = spec.residue_polys()
    if isinstance(sel, int):
        assert len(polys) == sel
        sel = sel.__rmod__
    for n in range(1, 2000):
        assert 0 <= sel(n) < len(polys)
        assert G.poly_eval(polys[sel(n)], n) == spec.eval_arg(n), n


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
