"""Primality verdicts, the indicator delta, and neighbor-prime helpers.

Every claim check in the package funnels through `delta`, so this module is
deliberately self-contained and fast for the small-to-medium integers that
dominate the workload, while staying correct for the ~100-digit record
values produced by the acceleration formulas.
"""
from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import ClassVar

PRIME = "prime"
PROBABLE_PRIME = "probable-prime"
COMPOSITE = "composite"

# Strong-pseudoprime testing with the first 13 primes as witnesses is
# deterministic below this bound (Sorenson & Webster).
DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_SMALL_SIEVE_LIMIT = 1 << 20


@dataclass(frozen=True)
class PrimalityPolicy:
    """How to decide primality: deterministic witnesses below a bound,
    seeded random strong-pseudoprime rounds above it."""

    rounds: int = 40
    rng_seed: int = 0x5EED_CAFE
    # not a field: kept readable for the benchmark's tracer, which compares
    # n with policy.deterministic_bound
    deterministic_bound: ClassVar[int] = DETERMINISTIC_BOUND

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


@dataclass(frozen=True)
class PrimalityVerdict:
    kind: str
    error_bound: Fraction = Fraction(0)

    def __bool__(self) -> bool:
        return self.kind in (PRIME, PROBABLE_PRIME)


DEFAULT_POLICY = PrimalityPolicy()

# Smallest sets of witnesses that make the strong test deterministic up to
# the paired bound (classical tables; the last row is the 13-prime set).
_WITNESS_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (DETERMINISTIC_BOUND, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_spf = None


def _spf_table():
    """Smallest prime factor of every composite below _SMALL_SIEVE_LIMIT, as
    an array("H") (uint16, 2 MB) that is 0 at the primes and at 0 and 1.

    The package's one sieve: `is_prime` reads small verdicts off it, the
    engine factors small values with it, and `prime_flags` and the lane path
    view it as numpy uint16 (every composite below 2^20 has a prime factor
    below 2^10).  Even entries start at 2; then each odd prime p below
    sqrt(limit), largest first, writes p at its odd multiples only, p^2,
    p^2 + 2p, ..., so the smallest is written last and no temporary is larger
    than p = 3's sixth of the table."""
    global _spf
    if _spf is None:
        t = array("H", [2, 0]) * (_SMALL_SIEVE_LIMIT // 2)
        t[0] = t[2] = 0
        for p in range(isqrt(_SMALL_SIEVE_LIMIT - 1) | 1, 2, -2):
            if all(p % d for d in range(3, isqrt(p) + 1, 2)):
                t[p * p :: 2 * p] = array("H", [p]) * len(range(p * p, _SMALL_SIEVE_LIMIT, 2 * p))
        _spf = t
    return _spf


def prime_flags(lo: int, hi: int):
    """numpy bool array whose entry i says whether lo + i is prime, for
    0 <= lo <= lo + i <= hi: a view of the SPF table below
    _SMALL_SIEVE_LIMIT, a segmented sieve above it."""
    import numpy as np

    if hi < _SMALL_SIEVE_LIMIT:
        flags = np.frombuffer(_spf_table(), dtype=np.uint16)[lo : hi + 1] == 0
    else:
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in np.flatnonzero(prime_flags(0, isqrt(hi))).tolist():
            start = max(p * p, -(-lo // p) * p)
            flags[start - lo :: p] = False
    # 0 and 1 are not prime, though the table holds 0 there
    flags[: max(0, 2 - lo)] = False
    return flags


def _strong_test(n: int, base: int, d: int, s: int) -> bool:
    """True if n passes the strong (Miller-Rabin) test to the given base."""
    base %= n
    if base in (0, 1, n - 1):
        return True
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
        if x == 1:
            return False
    return False


def is_prime(n: int, policy: PrimalityPolicy = DEFAULT_POLICY) -> PrimalityVerdict:
    """Primality verdict under the policy.

    Deterministic for n below DETERMINISTIC_BOUND; above it, runs
    `policy.rounds` seeded random strong tests and reports ProbablePrime
    with error bound 4**(-rounds).
    """
    if n < 2:
        return PrimalityVerdict(COMPOSITE)
    if n < _SMALL_SIEVE_LIMIT:
        return PrimalityVerdict(COMPOSITE if _spf_table()[n] else PRIME)
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return PrimalityVerdict(COMPOSITE if n != p else PRIME)
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < DETERMINISTIC_BOUND:
        for bound, witnesses in _WITNESS_TIERS:
            if n < bound:
                break
        for a in witnesses:
            if not _strong_test(n, a, d, s):
                return PrimalityVerdict(COMPOSITE)
        return PrimalityVerdict(PRIME)
    rng = random.Random(policy.rng_seed ^ (n & ((1 << 64) - 1)))
    for _ in range(policy.rounds):
        a = rng.randrange(2, n - 1)
        if not _strong_test(n, a, d, s):
            return PrimalityVerdict(COMPOSITE)
    return PrimalityVerdict(PROBABLE_PRIME, Fraction(1, 4**policy.rounds))


def delta(n: int, policy: PrimalityPolicy = DEFAULT_POLICY) -> int:
    """Prime indicator: 1 on (probable) primes, 0 otherwise."""
    return 1 if is_prime(n, policy) else 0


def all_prime(values, policy: PrimalityPolicy = DEFAULT_POLICY) -> int:
    """Product of delta over a non-empty list of values."""
    values = list(values)
    if not values:
        raise ValueError("all_prime requires at least one value")
    out = 1
    for v in values:
        out &= delta(v, policy)
        if not out:
            break
    return out


def prev_prime(n: int, policy: PrimalityPolicy = DEFAULT_POLICY) -> int:
    """Largest prime <= n (n >= 3)."""
    if n < 3:
        raise ValueError("prev_prime requires n >= 3")
    c = n if n % 2 else n - 1
    while not delta(c, policy):  # stops at 3 at the latest
        c -= 2
    return c
