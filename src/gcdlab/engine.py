"""The recursion engine: absolute/signed backward descent and forward addition.

The backward recursions spend almost all of their time on plateaus where
each step subtracts exactly 1.  On a plateau starting from state a(n0) = s - n0
the invariant s = a(n) + n holds until the next step with gcd > 1, and such a
step happens at index n exactly when some prime p divides both s + 1 - n and
g(n).  For congruence-periodic arguments (g polynomial on each residue class
mod beta) that condition only depends on n mod p and n mod beta, so the next
event can be located from the prime factors of the class polynomials evaluated
at s + 1.  This lets a run jump from event to event, turning ~10^8-step tables
into a few thousand factorizations.

Those factorizations are done in-house: values below 2^20 are read off a
smallest-prime-factor (SPF) table built by one vectorised sieve; larger ones
are trial-divided by the primes below 2^12, and the cofactors left over are
split by Brent's variant of Pollard rho and tested with `primality.is_prime`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from math import gcd, isqrt

from .generators import poly_eval
from .primality import is_prime

ABS_BACKWARD = "abs"
SIGNED_BACKWARD = "signed"
FORWARD_ADD = "forward"

DEFAULT_BUDGET = 10_000_000

# Above this, factoring the class polynomial value is slower than stepping.
_FACTOR_LIMIT = 10**34
_SPF_LIMIT = 1 << 20
# Large factoring inputs are first trial-divided by the primes below this.
_TRIAL_LIMIT = 1 << 12
# Brent rho: steps whose x - y are multiplied together before one gcd.
_RHO_BATCH = 128


class NonterminatingZeroRequest(ValueError):
    """A zero was requested but the run starts at zero in a mode that halts."""


class EngineInvariantError(RuntimeError):
    """An internal invariant of the descent failed: the engine has a bug."""


@dataclass(frozen=True)
class RunConfig:
    initial: int
    arg: object
    mode: str = ABS_BACKWARD
    start_index: int = 1
    stop_after_zeros: int | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.stop_after_zeros is not None and self.stop_after_zeros < 1:
            raise ValueError("stop_after_zeros must be >= 1")
        if self.mode not in (ABS_BACKWARD, SIGNED_BACKWARD, FORWARD_ADD):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.initial < 0:
            raise ValueError("initial must be >= 0")


@dataclass
class Trace:
    zero_indices: list = field(default_factory=list)
    large_steps: list = field(default_factory=list)  # (n, delta) with |delta| > 1
    forward_diffs: list = field(default_factory=list)
    final_index: int = 0
    final_value: int = 0
    iterations_used: int = 0
    budget_exhausted: bool = False


_spf = None


def _spf_table():
    """Smallest prime factor of every index below _SPF_LIMIT (t[1] = 1)."""
    global _spf
    if _spf is None:
        import numpy as np

        t = np.zeros(_SPF_LIMIT, dtype=np.int32)
        for p in range(2, isqrt(_SPF_LIMIT - 1) + 1):
            if t[p] == 0:
                multiples = t[p * p :: p]
                multiples[multiples == 0] = p
        unset = np.flatnonzero(t == 0)[1:]  # primes, and 1; index 0 stays 0
        t[unset] = unset
        _spf = t
    return _spf


def _spf_factors(q: int) -> list:
    """Distinct prime factors of 1 <= q < _SPF_LIMIT, from the SPF table."""
    t = _spf_table()
    out = []
    while q > 1:
        p = int(t[q])
        out.append(p)
        while q % p == 0:
            q //= p
    return out


@cache
def _small_primes() -> tuple:
    """The primes below _TRIAL_LIMIT, in increasing order."""
    t = _spf_table()
    return tuple(p for p in range(2, _TRIAL_LIMIT) if t[p] == p)


def _brent_split(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's variant of Pollard
    rho (Brent 1980): x -> x^2 + c from x = 2, with c = 1, 2, ... until one
    splits n.  The x - y products are batched _RHO_BATCH at a time under one
    gcd; a batch that overshoots to n is replayed one gcd at a time."""
    c = 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


@lru_cache(maxsize=65536)
def _prime_factors(q: int) -> tuple:
    """Distinct prime factors of q >= 2, in increasing order.

    Below _SPF_LIMIT they are read off the SPF table.  Above it: trial
    division by the primes below _TRIAL_LIMIT, then a stack of cofactors
    where each one below _SPF_LIMIT goes to the SPF table, each one that
    `primality.is_prime` accepts is a factor, and any other is split by
    Brent's rho.  `is_prime` is exact below DETERMINISTIC_BOUND; a cofactor
    at or above it is a probable prime under DEFAULT_POLICY, with error at
    most 4**-40 (sympy's BPSW test, used here before, was not proven in that
    range either).
    """
    if q < _SPF_LIMIT:
        return tuple(_spf_factors(q))
    found = set()
    for p in _small_primes():
        if q % p == 0:
            found.add(p)
            q //= p
            while q % p == 0:
                q //= p
    stack = [q]
    while stack:
        m = stack.pop()
        if m < _SPF_LIMIT:
            found.update(_spf_factors(m))
        elif is_prime(m):
            found.add(m)
        else:
            d = _brent_split(m)
            stack += (d, m // d)
    return tuple(sorted(found))


def _next_event(n: int, s: int, beta: int, polys) -> int | None:
    """Smallest index > n, <= s-1, where the descent takes a gcd > 1 step.

    On the plateau a(i) = s - i; a step at i has gcd > 1 iff some prime p
    divides both a(i-1) = s + 1 - i and g(i).  For each residue class r the
    divisibility by p of g(i) depends only on p | poly_r(s + 1) because
    i = s + 1 (mod p) at the candidate indices.
    """
    best = None
    for r in range(beta):
        q = abs(poly_eval(polys[r], s + 1))
        if q == 0:
            cand = n + 1 + ((r - n - 1) % beta)
            if cand <= s - 1 and (best is None or cand < best):
                best = cand
            continue
        if q == 1:
            continue
        for p in _prime_factors(q):
            cand = n + 1 + ((s + 1 - n - 1) % p)
            # align the candidate with residue class r (step by p, beta tries)
            ok = True
            for _ in range(beta):
                if cand % beta == r:
                    break
                cand += p
            else:
                ok = False
            if ok and cand <= s - 1 and (best is None or cand < best):
                best = cand
    return best


def run(config: RunConfig) -> Trace:
    """Execute the recursion described by config and return its event trace."""
    if config.mode == FORWARD_ADD:
        return _run_forward(config)
    if config.stop_after_zeros is not None and config.initial == 0:
        raise NonterminatingZeroRequest("zero requested but the run starts at zero")
    rp = config.arg.residue_polys()
    if rp is not None:
        return _run_backward_jump(config, *rp)
    return _run_backward_step(config)


def _run_backward_step(config: RunConfig) -> Trace:
    trace = Trace()
    arg = config.arg
    a = config.initial
    n = config.start_index
    limit = config.start_index + config.budget
    signed = config.mode == SIGNED_BACKWARD
    want = config.stop_after_zeros
    while n < limit:
        if signed and a == 0:
            break
        n += 1
        g = gcd(a, abs(arg.eval_arg(n)))
        prev = a
        a = abs(prev - g)
        if prev > 0 and not 0 <= a <= prev - 1:
            raise EngineInvariantError(f"descent invariant violated at n={n}")
        d = a - prev
        if d > 1 or d < -1:
            trace.large_steps.append((n, d))
        if a == 0:
            trace.zero_indices.append(n)
            if want is not None and len(trace.zero_indices) >= want:
                break
    trace.final_index = n
    trace.final_value = a
    trace.iterations_used = n - config.start_index
    trace.budget_exhausted = (
        n >= limit and want is not None and len(trace.zero_indices) < want
    )
    return trace


def _run_backward_jump(config: RunConfig, beta: int, polys) -> Trace:
    trace = Trace()
    arg = config.arg
    a = config.initial
    n = config.start_index
    limit = config.start_index + config.budget
    signed = config.mode == SIGNED_BACKWARD
    want = config.stop_after_zeros

    def record_zero(idx):
        trace.zero_indices.append(idx)
        return want is not None and len(trace.zero_indices) >= want

    while n < limit:
        if a == 0:
            if signed:
                break
            # absolute mode regenerates: a(n+1) = |g(n+1)|
            n += 1
            a = abs(arg.eval_arg(n))
            if a > 1:
                trace.large_steps.append((n, a))
            if a == 0 and record_zero(n):
                break
            continue
        s = a + n
        # big class polynomial values: factoring beats stepping only so far
        if any(abs(poly_eval(p, s + 1)) > _FACTOR_LIMIT for p in polys):
            n, a, stop = _step_until_event(config, trace, n, a, limit)
            if stop:
                break
            continue
        event = _next_event(n, s, beta, polys)
        if event is None or event > limit:
            # pure -1 descent to the zero at index s (or to the budget limit)
            target = s if event is None else limit
            if target >= limit:
                n = limit
                a = s - n
                if a == 0 and record_zero(n):
                    break
                continue
            n = s
            a = 0
            if record_zero(n):
                break
            continue
        g = gcd(s - event + 1, abs(arg.eval_arg(event)))
        if g <= 1:
            raise EngineInvariantError(f"event detection found a unit step at n={event}")
        prev = s - event + 1
        n = event
        a = prev - g
        trace.large_steps.append((n, a - prev))
        if a == 0 and record_zero(n):
            break
    trace.final_index = n
    trace.final_value = a
    trace.iterations_used = n - config.start_index
    trace.budget_exhausted = (
        n >= limit and want is not None and len(trace.zero_indices) < want
    )
    return trace


def _step_until_event(config, trace, n, a, limit):
    """Naive stepping fallback; returns (n, a, stop) after a gcd>1 step,
    a zero, or the budget limit."""
    arg = config.arg
    want = config.stop_after_zeros
    while n < limit:
        n += 1
        g = gcd(a, abs(arg.eval_arg(n)))
        prev = a
        a = prev - g
        if g > 1:
            trace.large_steps.append((n, a - prev))
        if a == 0:
            trace.zero_indices.append(n)
            if want is not None and len(trace.zero_indices) >= want:
                return n, a, True
            return n, a, False
        if g > 1:
            return n, a, False
    return n, a, False


def _run_forward(config: RunConfig) -> Trace:
    trace = Trace()
    arg = config.arg
    a = config.initial
    n = config.start_index
    limit = config.start_index + config.budget
    while n < limit:
        n += 1
        g = gcd(a, abs(arg.eval_arg(n)))
        a += g
        trace.forward_diffs.append(g)
        if g > 1:
            trace.large_steps.append((n, g))
    trace.final_index = n
    trace.final_value = a
    trace.iterations_used = n - config.start_index
    return trace


# ---------------------------------------------------------------------------
# convenience entry points


def first_zero(config: RunConfig) -> int | None:
    """Least n > start_index with a(n) = 0, or None if the budget ran out."""
    guard = min(config.budget, config.initial + config.start_index + 1)
    cfg = RunConfig(
        initial=config.initial,
        arg=config.arg,
        mode=config.mode,
        start_index=config.start_index,
        stop_after_zeros=1,
        budget=guard,
    )
    trace = run(cfg)
    return trace.zero_indices[0] if trace.zero_indices else None


def zeros(config: RunConfig, count: int) -> list:
    if count < 1:
        raise ValueError("count must be >= 1")
    cfg = RunConfig(
        initial=config.initial,
        arg=config.arg,
        mode=config.mode,
        start_index=config.start_index,
        stop_after_zeros=count,
        budget=config.budget,
    )
    return run(cfg).zero_indices


@dataclass
class ForwardRecords:
    records: list  # (index, record difference), strict maxima of the diffs
    rowland_flags: list  # n with a(n) = 2n + 2
    shevelev_flags: list  # n with a(n) = 2n + 1


def forward_record_indices(config: RunConfig, budget: int | None = None) -> ForwardRecords:
    """Strict maxima of the forward difference sequence, plus the indices
    where a(n) = 2n+2 or a(n) = 2n+1 (the states from which the next
    difference is a prime for these families)."""
    if config.mode != FORWARD_ADD:
        raise ValueError("forward_record_indices requires forward mode")
    arg = config.arg
    a = config.initial
    n = config.start_index
    limit = config.start_index + (budget if budget is not None else config.budget)
    records, row_flags, shev_flags = [], [], []
    best = 0
    while n < limit:
        n += 1
        g = gcd(a, abs(arg.eval_arg(n)))
        a += g
        if g > best:
            best = g
            records.append((n, g))
        if a == 2 * n + 2:
            row_flags.append(n)
        if a == 2 * n + 1:
            shev_flags.append(n)
    return ForwardRecords(records, row_flags, shev_flags)
