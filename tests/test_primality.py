"""Primality layer: sieve region, deterministic witness region, random rounds."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab import primality
from gcdlab.primality import PrimalityPolicy, all_prime, delta, is_prime, prev_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_small_values():
    for n in range(-5, 50):
        assert bool(is_prime(n)) == (n in SMALL_PRIMES)


def test_sieve_region_against_reference():
    import sympy

    for n in range(2, 20000):
        assert bool(is_prime(n)) == sympy.isprime(n), n


def test_deterministic_region_spot_checks():
    # values chosen above the sieve limit but below the deterministic bound
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 - 1)
    assert is_prime(1_000_000_007)
    assert is_prime(3_317_044_064_679_887_385_961_813)  # just below the bound


def test_strong_pseudoprimes_rejected():
    # Arnault-style and Carmichael composites
    for n in [3215031751, 3825123056546413051, 341550071728321, 561, 1729]:
        assert not is_prime(n)


def test_verdict_kinds_and_error_bound():
    v = is_prime(97)
    assert v.kind == primality.PRIME and v.error_bound == 0
    big = 2**521 - 1  # Mersenne prime above the deterministic bound
    v = is_prime(big)
    assert v.kind == primality.PROBABLE_PRIME
    assert 0 < v.error_bound <= Fraction(1, 4) ** 40
    assert bool(v)
    assert not is_prime(big + 2)


def test_probable_prime_region_deterministic_given_seed():
    n = 2**127 - 1
    a = is_prime(n, PrimalityPolicy(rounds=10, rng_seed=7))
    b = is_prime(n, PrimalityPolicy(rounds=10, rng_seed=7))
    assert a.kind == b.kind == primality.PROBABLE_PRIME


def test_delta_and_all_prime():
    assert delta(13) == 1 and delta(14) == 0
    assert all_prime([3, 5, 7]) == 1
    assert all_prime([3, 5, 9]) == 0
    with pytest.raises(ValueError):
        all_prime([])


def test_prev_prime():
    # "largest prime <= n": prime arguments are fixed points
    assert prev_prime(3) == 3
    assert prev_prime(4) == 3
    assert prev_prime(10) == 7
    assert prev_prime(100) == 97
    assert prev_prime(20000) == 19997
    with pytest.raises(ValueError):
        prev_prime(2)


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_matches_sympy_random(n):
    import sympy

    assert bool(is_prime(n)) == sympy.isprime(n)


def test_sieve_region_whole_range_against_sympy():
    import sympy

    primes = set(sympy.primerange(primality._SMALL_SIEVE_LIMIT))
    for n in range(primality._SMALL_SIEVE_LIMIT):
        assert bool(is_prime(n)) == (n in primes), n


@pytest.mark.parametrize(
    "lo, hi",
    [
        (0, 0),
        (0, 1),
        (1, 1),
        (0, 3000),
        (1, 3000),
        ((1 << 20) - 1500, (1 << 20) + 1500),
        (10**12 - 1500, 10**12 + 1500),
    ],
)
def test_prime_flags_against_sympy(lo, hi):
    import sympy

    flags = primality.prime_flags(lo, hi)
    assert flags.tolist() == [sympy.isprime(n) for n in range(lo, hi + 1)]
