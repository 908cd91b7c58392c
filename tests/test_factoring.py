"""Engine factoring: the SPF table and _prime_factors against sympy as oracle."""
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab import engine
from gcdlab.primality import DETERMINISTIC_BOUND

factor = engine._prime_factors.__wrapped__  # bypass the LRU cache


def reference_factors(q):
    return set(sympy.factorint(q))


def test_spf_table_matches_reference_sieve():
    n = 10**5
    ref = [0, 1] + [0] * (n - 2)
    for p in range(2, n):
        if ref[p] == 0:
            for k in range(p, n, p):
                if ref[k] == 0:
                    ref[k] = p
    assert engine._spf_table()[:n].tolist() == ref


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

