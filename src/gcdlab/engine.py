"""The recursion engine: absolute/signed backward descent and forward addition.

The recursions spend almost all of their time on plateaus of unit steps, where
a(i) = a(n) - (i - n) backward (s = a + n invariant) or a(n) + (i - n) forward
(c = a - n invariant).  The next step with gcd > 1 is at the least i where some
prime p divides both a(i - 1) and g(i); since p | a(i - 1) means i = x (mod p),
with x = s + 1 backward and x = 1 - c forward, and g(i) = polys[sel(i)](i), that
is where p divides polys[sel(i)](x).  `residue_polys()` gives (sel, polys): an
int period beta (sel(i) = i mod beta) or a callable such as BeattyTwin's digit.
It is derived from each family's one statement of g, its factored form
`residue_factors()`, as are `eval_arg` and the claim map `claim_values`.
So a run jumps from event to event on the prime factors of a few polynomial
values, turning ~10^8-step tables into a few thousand factorizations.

The step at an event needs no evaluation of g either: a(i - 1) = +-(x - i) and
P(i) = P(x) (mod x - i) for an integer polynomial P, so the step is
gcd(a(i - 1), polys[sel(i)](x)), from the value the event finder has just
factored.

Factoring is skipped where stepping is cheaper.  The step at index i of a
plateau is gcd(x - i, q) with q = |polys[sel(i)](x)|, one small gcd.  Values
below 2^20 are factored by a table lookup, so they are always factored.  A
larger value costs Brent's rho about q^(1/4) steps, so the event finder first
tests the plateau's next max(_SCAN_MIN, 2^(bits/4 - _SCAN_SHIFT)) indices with
one gcd each, bits being the largest value's bit length.  It factors only if
the plateau is longer than that and no index in it is an event.

A plateau from a = 0 has no x to jump on, so it is stepped one index at a
time instead.

Descents of one g share their paths.  For a fixed g the first zero reached
from a state (n, a) depends on that state alone, so first_zeros keeps one
memo from each state a descent reached just after an event to the first zero
reached from there, shared by a stretch: consecutive runs whose specs are
equal, so one g.  A descent that reaches a stored state has merged into a
stored path, and ends at that path's zero.  In the threshold scans 84-96% of
the events come after such a merge.

Descents of different g share nothing, so first_zeros moves them side by
side on the lane path: up to _LANES runs at a time as numpy arrays of (n, a,
beta, coefficients), one pass moving each by one event.  A pass takes the
class values by Horner in int64, their distinct primes from the SPF table
and each prime's candidate index by _next_event's rules.  After each pass
the lanes that left are refilled with the next runs, so the passes stay
full until the runs run out; the runs are taken _CHUNK at a time, and each
zero is written out as its lane leaves, so the lane path's memory does not
grow with the number of runs.  A lane whose class values reach 2^20 finishes
on the scalar path from its current state, and so does the last lane once
no run is left; runs whose values could leave int64, and a call's lone lane
run, take the scalar path throughout, the latter without importing numpy.
The zeros, and so every output, are the scalar path's.

The factorizations are done in-house: values below 2^20 are read off
`primality._spf_table`, the smallest-prime-factor (SPF) table that is the
package's one sieve (it also answers `is_prime` below 2^20 and seeds the
segmented sieve of `primality.prime_flags`).  It is a stdlib array (uint16,
2 MB, odd multiples only) holding 0 at the primes, so the scalar paths run
without numpy; the lane path and prime_flags view it as numpy uint16.  Larger
values are trial-divided by the primes below 2^12, and the cofactors left over
are split by Brent's variant of Pollard rho and tested by `primality.is_prime`.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache
from itertools import chain, cycle, groupby, islice
from math import gcd
from operator import itemgetter

from .generators import eval_form, poly_eval
from .primality import _SMALL_SIEVE_LIMIT as _SPF_LIMIT, _spf_table, is_prime

ABS_BACKWARD = "abs"
SIGNED_BACKWARD = "signed"
FORWARD_ADD = "forward"

DEFAULT_BUDGET = 10_000_000

# The event finder tests at least _SCAN_MIN indices one by one before it
# factors a value of `bits` bits, or 2^(bits/4 - _SCAN_SHIFT) if that is more.
# Both were picked by timing perfbench's factor-heavy commands in-process over
# _SCAN_MIN in 16..1024 and _SCAN_SHIFT in 0..4.
_SCAN_MIN = 256
_SCAN_SHIFT = 3
# Large factoring inputs are first trial-divided by the primes below this.
_TRIAL_LIMIT = 1 << 12
# Brent rho: steps whose x - y are multiplied together before one gcd.
_RHO_BATCH = 128
# first_zeros: the most runs descending at once on the lane path, whose
# lanes are refilled after every pass, _CHUNK runs at a time.  Peak RSS of
# `stats goldbach-constant --n-hi 20000` through the CLI (2 shared cores, 3
# runs each) at 2048, 4096 and 8192 lanes: 34.3, 35.3 and 37.5 MB with
# chunks of 256 (chunks of 128 and 512 within 0.5 MB of it), against 35.3,
# 37.7 and 41.8 MB for a fill in one batch.  4096 takes 215 numpy passes
# against 272 at 2048; wall time stayed within the host's noise.
_LANES = 4096
_CHUNK = 256


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


class ForwardDiffs(Sequence):
    """The differences a(n) - a(n-1) over a range of indices n, read from a
    dict of the non-unit ones: memory grows with the events, not the steps."""

    def __init__(self, indices: range, steps: dict):
        self.indices, self.steps = indices, steps

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, k):
        n = self.indices[k]
        if isinstance(n, range):
            return [self.steps.get(i, 1) for i in n]
        return self.steps.get(n, 1)

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass
class Trace:
    zero_indices: list = field(default_factory=list)
    large_steps: list = field(default_factory=list)  # (n, delta) with |delta| > 1
    forward_steps: list | None = None  # forward mode: (n, delta) with delta != 1
    final_index: int = 0
    final_value: int = 0
    iterations_used: int = 0
    budget_exhausted: bool = False

    @property
    def forward_diffs(self):
        """Forward mode: one difference per step taken (empty otherwise)."""
        if self.forward_steps is None:
            return []
        first = self.final_index - self.iterations_used + 1
        return ForwardDiffs(range(first, self.final_index + 1), dict(self.forward_steps))


def _spf_factors(q: int) -> list:
    """Distinct prime factors of 1 <= q < _SPF_LIMIT, from the SPF table."""
    t = _spf_table()
    out = []
    while q > 1:
        p = t[q] or q  # the table holds 0 at a prime
        out.append(p)
        while q % p == 0:
            q //= p
    return out


@cache
def _small_primes() -> tuple:
    """The primes below _TRIAL_LIMIT, in increasing order."""
    t = _spf_table()
    return tuple(p for p in range(2, _TRIAL_LIMIT) if t[p] == 0)


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


def _next_event(n: int, x: int, hi: int, sel, polys) -> tuple | None:
    """(i, q) for the least i in (n, hi] at which some prime p divides
    q = |polys[sel(i)](x)| and i = x (mod p), or None; where q == 0, i is the
    first index with that class.  If some q >= _SPF_LIMIT, the first indices
    are tested with gcd(x - i, q) > 1 (the module docstring gives how many).
    Past them each p's candidates are walked upwards until sel(i) matches;
    for an int period beta, beta steps cover every class."""
    beta = sel if isinstance(sel, int) else 0
    qs = [abs(poly_eval(poly, x)) for poly in polys]
    largest = max(qs)
    if largest >= _SPF_LIMIT:
        end = min(hi, n + max(_SCAN_MIN, 1 << (largest.bit_length() // 4 - _SCAN_SHIFT)))
        indices = range(n + 1, end + 1)
        if beta:
            k = (n + 1) % beta
            values = cycle(qs[k:] + qs[:k])
        else:
            values = (qs[sel(i)] for i in indices)
        for i, q in zip(indices, values):
            if gcd(x - i, q) > 1:
                return i, q
        if end == hi:
            return None
        n = end
    best, value = hi + 1, None
    for k, q in enumerate(qs):
        if q == 1:
            continue
        for p in _prime_factors(q) if q else (1,):
            i = n + 1 + (x - n - 1) % p
            if beta:
                for _ in range(beta):
                    if i >= best or i % beta == k:
                        break
                    i += p
                else:
                    continue
            else:
                while i < best and sel(i) != k:
                    i += p
            if i < best:
                best, value = i, q
    return (best, value) if best <= hi else None


def run(config: RunConfig, *, memo: dict | None = None) -> Trace:
    """Execute the recursion described by config and return its event trace.

    memo, which only first_zeros passes, maps the states (n, a != 0) that
    backward descents of config.arg from config.start_index reached just
    after an event to the first zero reached from there.  A run that reaches
    a stored state goes straight to its zero, and its large_steps omit the
    steps in between.  The states a run passes are stored with the zero it
    reaches.  This is exact while every stored zero is within the budget, as
    first_zeros's guard ensures."""
    forward = config.mode == FORWARD_ADD
    signed = config.mode == SIGNED_BACKWARD
    want = config.stop_after_zeros
    if not forward and want is not None and config.initial == 0:
        raise NonterminatingZeroRequest("zero requested but the run starts at zero")
    trace = Trace(forward_steps=[] if forward else None)
    sel, polys = form = config.arg.residue_polys()
    step = 1 if forward else -1
    a, n = config.initial, config.start_index
    limit = n + config.budget
    path = []  # the memo keys of the states since the last zero
    while n < limit:
        if signed and a == 0:
            break
        if not a:
            n, a, stop = _step_until_event(config, trace, n, form)
            if stop:
                break
            continue
        # a(i) = a + step*(i - n) up to the next event, where a prime p divides
        # both a(i - 1) and g(i); so i = x (mod p) and p | polys[sel(i)](x)
        x = n + 1 - step * a
        # the plateau's last index: backward it reaches 0 at x - 1
        top = hi = limit
        if not forward and x - 1 <= limit:
            top, hi = x - 1, x - 2
        # forward from a = 1 the first step is a unit step whatever g is
        event = _next_event(n + (forward and a == 1), x, hi, sel, polys)
        if event is None:
            a += step * (top - n)
            n = top
        else:
            # a(i - 1) = +-(x - i), so its gcd with g(i) is its gcd with the
            # class value q at x that the event finder factored
            i, q = event
            prev = a + step * (i - 1 - n)
            g = gcd(prev, q)
            if g <= 1:
                raise EngineInvariantError(f"event detection found a unit step at n={i}")
            n, a = i, prev + step * g
            trace.large_steps.append((n, a - prev))
            if forward:
                trace.forward_steps.append((n, g))
            if memo is not None and a:
                # the Cantor pair of (n - start_index, a): one int per state,
                # where a tuple of the two costs ~60 bytes more
                d = n - config.start_index + a
                key = d * (d + 1) // 2 + a
                z = memo.get(key)
                if z is None:
                    path.append(key)
                else:  # this run continues as the stored one did
                    n, a = z, 0
        if a == 0:
            if memo is not None:
                memo.update(dict.fromkeys(path, n))
                path.clear()
            trace.zero_indices.append(n)
            if want is not None and len(trace.zero_indices) >= want:
                break
    trace.final_index = n
    trace.final_value = a
    trace.iterations_used = n - config.start_index
    trace.budget_exhausted = n >= limit and want is not None and len(trace.zero_indices) < want
    return trace


def _step_until_event(config, trace, n, form):
    """One naive step from a = 0 (run calls it there alone, below its limit),
    the one state the event finder does not serve: a(n + 1) = gcd(0, g(n + 1))
    = |g(n + 1)| in every mode, g read off the run's form.  Returns (n, a,
    stop); stop says every requested zero has been found.  perfbench/tracer.py
    wraps it by this name and reads n as its third argument."""
    n += 1
    a = abs(eval_form(form, n))
    if config.mode == FORWARD_ADD:
        if a != 1:
            trace.forward_steps.append((n, a))
    elif a == 0:
        trace.zero_indices.append(n)
    if a > 1:
        trace.large_steps.append((n, a))
    want = config.stop_after_zeros
    return n, a, want is not None and len(trace.zero_indices) >= want


# ---------------------------------------------------------------------------
# convenience entry points


def first_zeros(runs, start_index: int = 1) -> list:
    """The first zero of the signed descent from a(start_index) = initial, for
    each (spec, initial) in runs: start_index for an initial of 0, else the
    least n > start_index with a(n) = 0.  A descent loses at least 1 a step,
    so it reaches 0 within initial + 1 steps; one that does not raises
    EngineInvariantError.

    A stretch of consecutive runs whose specs are equal shares one memo of
    their descents (see run), which starts empty whenever the spec changes.
    A run whose spec equals neither of its neighbours' goes to the lane path
    instead (see the module docstring), if its form has an int period and its
    class values fit int64."""
    out = []
    _lane_zeros(_lane_runs(runs, start_index, out), start_index, out)
    return out


def _lane_runs(runs, start_index: int, out: list):
    """Yield (position in out, spec, initial, form) for each run that goes to
    the lane path, holding its place in out with None; append every other
    run's zero to out, by the memo path, as the runs are consumed.  Runs are
    grouped into stretches of consecutive equal specs: a stretch of one run
    is a lane candidate, a longer one shares one memo."""
    for spec, stretch in groupby(runs, key=itemgetter(0)):
        head = list(islice(stretch, 2))
        _, initial = head[0]
        beta, polys = form = spec.residue_polys()
        x_max = abs(start_index) + 1 + initial  # bounds |x| over the descent
        if len(head) == 1 and initial and isinstance(beta, int) and _fits_int64(polys, x_max):
            out.append(None)
            yield len(out) - 1, spec, initial, form
        else:
            memo = {}
            out += (_first_zero(spec, k, start_index, memo) for _, k in chain(head, stretch))


def _first_zero(spec, initial: int, start_index: int, memo: dict | None) -> int:
    """first_zeros's answer for one run, by run."""
    if not initial:
        return start_index
    # the guard as budget, so DEFAULT_BUDGET does not cap it
    guard = initial + 1
    config = RunConfig(initial, spec, SIGNED_BACKWARD, start_index, stop_after_zeros=1, budget=guard)
    zs = run(config, memo=memo).zero_indices
    if not zs:
        raise EngineInvariantError(f"the descent of {spec.spec_str()} from {initial} found no zero")
    return zs[0]


def _fits_int64(polys, x_max: int) -> bool:
    """Whether every Horner partial sum of every class value is below 2^63
    in absolute value wherever |x| <= x_max."""
    return all(poly_eval([abs(c) for c in p], x_max) < 1 << 63 for p in polys)


def _lane_zeros(lane_runs, start_index: int, out: list) -> None:
    """Write the first zero of each (position, spec, initial, form) that
    lane_runs yields to out[position], as its lane leaves.  Up to _LANES
    lanes descend at a time, one numpy pass moving each by one event as run
    steps; after each pass the lanes that left are refilled from lane_runs,
    _CHUNK runs at a time, each chunk turned into the lanes' int64 arrays
    before the next is taken.  A lane whose class values reach _SPF_LIMIT
    finishes on run, and so does the last lane once lane_runs is empty.
    Fewer than two lane runs in all finish on run before numpy is imported."""
    head = list(islice(lane_runs, 2))
    if len(head) < 2:
        for at, spec, initial, _ in head:
            out[at] = _first_zero(spec, initial, start_index, None)
        return
    import numpy as np

    lane_runs = chain(head, lane_runs)
    position = n = a = beta = np.zeros(0, dtype=np.int64)
    spec = np.zeros(0, dtype=object)
    coeffs = np.zeros((0, 1, 1), dtype=np.int64)
    empty = False  # lane_runs has no run left
    while True:
        # fill the lanes that left, _CHUNK runs at a time, so the run tuples
        # and padded coefficient lists alive are a chunk's, not a whole fill's
        while len(n) < _LANES and not empty:
            wanted = min(_CHUNK, _LANES - len(n))
            new = list(islice(lane_runs, wanted))
            empty = len(new) < wanted
            if not new:
                break
            forms = [form for *_, form in new]
            width = max(coeffs.shape[1], *(b for b, _ in forms))
            length = max(coeffs.shape[2], *(len(p) for _, polys in forms for p in polys))
            # classes past a lane's period hold the constant 1, which has no
            # prime; a wider period or higher degree grows the array
            old, coeffs = coeffs, np.zeros((len(n) + len(new), width, length), dtype=np.int64)
            coeffs[:, :, 0] = 1
            coeffs[: len(n), : old.shape[1], : old.shape[2]] = old
            pad = [[1] + [0] * (length - 1)]
            coeffs[len(n) :] = [[p + [0] * (length - len(p)) for p in polys] + pad * (width - b) for b, polys in forms]
            fresh = np.array([(at, start_index, k, b) for at, _, k, (b, _) in new], dtype=np.int64)
            position, n, a, beta = (np.concatenate(pair) for pair in zip((position, n, a, beta), fresh.T))
            spec = np.concatenate((spec, np.fromiter((s for _, s, *_ in new), dtype=object, count=len(new))))
        x = n + 1 + a
        q = coeffs[:, :, -1]
        for j in range(coeffs.shape[2] - 2, -1, -1):
            q = q * x[:, None] + coeffs[:, :, j]
        q = np.abs(q)
        off = (q >= _SPF_LIMIT).any(axis=1) | (empty and len(n) == 1)
        if off.any():
            for at, s, m, k in zip(position[off].tolist(), spec[off], n[off].tolist(), a[off].tolist()):
                out[at] = _first_zero(s, k, m, None)
            keep = ~off
            position, spec, n, x, q, coeffs, beta = (v[keep] for v in (position, spec, n, x, q, coeffs, beta))
        if empty and not len(n):
            break
        i, value = _next_events(n, x, q, beta)
        prev = x - i
        g = np.gcd(prev, value)
        unit = (g <= 1) & (prev > 1)
        if unit.any():
            raise EngineInvariantError(f"event detection found a unit step at n={i[unit][0]}")
        n, a = i, prev - g
        done = a == 0
        for at, z in zip(position[done].tolist(), n[done].tolist()):
            out[at] = z
        keep = ~done
        position, spec, n, a, coeffs, beta = (v[keep] for v in (position, spec, n, a, coeffs, beta))


def _next_events(n, x, q, beta):
    """_next_event, backward from x = n + 1 + a > n + 1, for lanes whose class
    values q (one row each, 1 past the period beta) are below _SPF_LIMIT:
    arrays (i, value), i the least event index in (n, x - 2], or x - 1 if
    there is none, and value the class value at i."""
    import numpy as np

    spf = np.frombuffer(_spf_table(), dtype=np.uint16)  # the SPF table: uint16, 2 MB, odd multiples only
    best = x - 1
    lane, k = np.nonzero(q != 1)
    v = q[lane, k].astype(np.int32)  # below _SPF_LIMIT; spf[v] promotes to int32 against it
    while lane.size:
        p = spf[v]  # 0 where v is prime, its own smallest factor
        p = np.where(p, p, np.maximum(v, 1))  # q == 0 takes p = 1: its class's first index is the event
        b, m = beta[lane], n[lane]
        i = m + 1 + (x[lane] - m - 1) % p
        # the first of i, i + p, ..., i + (b - 1)p in class k, if any
        found = best[lane]
        for j in range(q.shape[1]):
            found = np.where((j < b) & (i % b == k), np.minimum(found, i), found)
            i += p
        np.minimum.at(best, lane, found)
        # divide p out; a zero value, with p = 1, is done
        v //= p
        again = np.flatnonzero((v % p == 0) & (p > 1))
        while again.size:
            v[again] //= p[again]
            again = again[v[again] % p[again] == 0]
        keep = v > 1
        lane, k, v = lane[keep], k[keep], v[keep]
    return best, q[np.arange(len(q)), best % beta]


def zeros(config: RunConfig, count: int) -> list:
    if count < 1:
        raise ValueError("count must be >= 1")
    return run(replace(config, stop_after_zeros=count)).zero_indices


@dataclass
class ForwardRecords:
    records: list  # (index, record difference), strict maxima of the diffs
    rowland_flags: list  # n with a(n) = 2n + 2
    shevelev_flags: list  # n with a(n) = 2n + 1


def forward_record_indices(config: RunConfig) -> ForwardRecords:
    """Strict maxima of the forward difference sequence, plus the indices
    where a(n) = 2n+2 or a(n) = 2n+1 (the states from which the next
    difference is a prime for these families).

    Read off the forward trace: between two non-unit steps a(i) = i + c for a
    constant c, so the plateau holds at most one 2n+2 index (n = c - 2), one
    2n+1 index (n = c - 1), and a record only at its first step, if no
    difference so far was positive."""
    if config.mode != FORWARD_ADD:
        raise ValueError("forward_record_indices requires forward mode")
    trace = run(config)
    records, row_flags, shev_flags = [], [], []
    best, n, a = 0, config.start_index, config.initial
    for event, d in trace.forward_steps + [(trace.final_index + 1, None)]:
        c = a - n
        if best == 0 and event > n + 1:
            best = 1
            records.append((n + 1, 1))
        for i, flags in ((c - 2, row_flags), (c - 1, shev_flags)):
            if n < i < event:
                flags.append(i)
        if d is None:
            break
        n, a = event, c + event - 1 + d
        if d > best:
            best = d
            records.append((n, d))
        if a == 2 * n + 2:
            row_flags.append(n)
        if a == 2 * n + 1:
            shev_flags.append(n)
    return ForwardRecords(records, row_flags, shev_flags)
