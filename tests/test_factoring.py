"""Engine factoring: the SPF table and _prime_factors against sympy as oracle."""
import math
import random
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab import engine, primality
from gcdlab.primality import DETERMINISTIC_BOUND

factor = engine._prime_factors.__wrapped__  # bypass the LRU cache


def reference_factors(q):
    return set(sympy.factorint(q))


def _reference_spf(n):
    """Smallest prime factor of each k < n by a plain sieve, smallest prime
    first; 0 at the primes and at 0 and 1."""
    spf = np.zeros(n, dtype=np.int64)
    for p in range(2, math.isqrt(n - 1) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    return spf


_REFERENCE_SPF = _reference_spf(primality._SMALL_SIEVE_LIMIT)


def test_spf_table_matches_reference_sieve():
    # every entry, in the 2-byte type that every composite's entry fits
    table = engine._spf_table()
    assert table.typecode == "H"
    assert table.tolist() == _REFERENCE_SPF.tolist()


def test_spf_table_build_makes_no_full_length_temporary(monkeypatch):
    # the 2 MB table itself, plus at most a sixth of it for p = 3's slice
    monkeypatch.setattr(primality, "_spf", None)
    tracemalloc.start()
    try:
        primality._spf_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_spf_factors_match_reference_sieve():
    def distinct_factors(q):
        out = []
        while q > 1:
            p = int(_REFERENCE_SPF[q]) or q
            out.append(p)
            while q % p == 0:
                q //= p
        return out

    qs = range(1, 10**5)
    assert [engine._spf_factors(q) for q in qs] == [distinct_factors(q) for q in qs]


def test_next_events_on_prime_and_zero_class_values():
    # lane 0's one class value is a prime, whose table entry is 0; lane 1's
    # class-0 value is 0, whose event is that class's first index; lane 2
    # mixes a composite and a prime.  Lanes 3-5 read the top of the uint16
    # table, promoted against the int32 values: 1021^2 holds its largest
    # entry, 1048573 is the largest prime below 2^20, 1048574 = 2 * 524287.
    # Each agrees with the scalar finder.
    n = np.array([10, 11, 12, 13, 14, 15])
    x = n + 1 + 3_000_000
    q = np.array([[101, 1], [0, 6], [12, 97], [1042441, 1048573], [1048574, 1042441], [1048573, 1]])
    beta = np.array([1, 2, 2, 2, 2, 1])
    i, value = engine._next_events(n, x, q, beta)
    assert (i[1], value[1]) == (12, 0)
    for lane in range(len(n)):
        polys = [[c] for c in q[lane, : beta[lane]].tolist()]
        hit = engine._next_event(int(n[lane]), int(x[lane]), int(x[lane]) - 2, int(beta[lane]), polys)
        assert (int(i[lane]), int(value[lane])) == hit


# Brent rho costs about the square root of the second-largest prime factor,
# so the drawn inputs keep that factor below 2^34 (each example well under a
# second); the fixed cases below cover the hard shapes.
_bounded_inputs = st.one_of(
    st.integers(2, 2**64),
    st.lists(st.integers(2, 2**34), min_size=1, max_size=6)
    .map(math.prod)
    .filter(lambda q: q <= 2**100),
)


@given(_bounded_inputs)
@settings(max_examples=150, deadline=None)
def test_prime_factors_match_sympy(q):
    assert set(factor(q)) == reference_factors(q)


def _carmichael_chernick(k_from):
    """(6k+1)(12k+1)(18k+1) with all three factors prime: a Carmichael number."""
    k = k_from
    while not all(sympy.isprime(f * k + 1) for f in (6, 12, 18)):
        k += 1
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


def _hard_cases():
    cases = []
    for p in (4099, 65537, 1048583, 2**31 - 1):  # prime powers with p > 4096
        cases += [p**2, p**3]
    top = sympy.prevprime(2**27)
    cases += [top * sympy.prevprime(top), top * sympy.prevprime(top - 1000)]  # close 27-bit pairs
    cases += [1050985, 1082809, 1152271, 1193221, 1461241]  # Carmichael > 2^20
    cases += [5394826801, 232250619601, 9746347772161, _carmichael_chernick(1000)]
    cases += [2**20 - 1, 2**20, 2**20 + 1]
    cases += list(range(DETERMINISTIC_BOUND - 2, DETERMINISTIC_BOUND + 3))
    rng = random.Random(0)  # the shape of the benchmark's 20-, 30- and 50-bit probe
    probe = [sympy.nextprime(rng.randrange(2 ** (b - 1), 2**b)) for b in (20, 30, 50)]
    cases.append(math.prod(probe))
    return [int(q) for q in cases]


@pytest.mark.parametrize("q", _hard_cases())
def test_prime_factors_hard_shapes(q):
    got = factor(q)
    assert set(got) == reference_factors(q)
    assert list(got) == sorted(got)

