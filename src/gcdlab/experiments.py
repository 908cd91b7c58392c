"""Experiment harness: reference tables, threshold scans, and the
statistical series (upsilon estimators, Goldbach constant, gap diagnostics,
Legendre variation counts)."""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import itemgetter

from . import engine, primality
from .engine import RunConfig
from .generators import (
    AffineMinus,
    AlternatingLinear,
    AlternatingQuad,
    BeattyTwin,
    FactoredPolynomial,
    GoldbachAlt,
    GoldbachProduct,
    PeriodicAffine,
    Polynomial,
    PowerMinus,
    PrimePowerMinusOne,
    QuadShift,
    ShiftedIndex,
    TripletProduct,
    parse_spec,
)

TABLE_BUDGET = 2 * 10**9


@dataclass
class ExperimentReport:
    spec: str
    rows: list  # (index, claims, deltas, all_prime)
    budget_exhausted: bool = False


@dataclass
class ThresholdScanReport:
    family: str
    n_lo: int
    n_hi: int
    failing_N: list
    largest_failure: int | None


# ---------------------------------------------------------------------------
# generic claims table


def claims_report(
    spec, initial: int, rows: int, start_index: int = 1, policy=primality.DEFAULT_POLICY
) -> ExperimentReport:
    """Run the absolute descent to its first `rows` zeros, within
    TABLE_BUDGET steps, and report each zero's claim list."""
    trace = engine.run(
        RunConfig(initial, spec, engine.ABS_BACKWARD, start_index, stop_after_zeros=rows, budget=TABLE_BUDGET)
    )
    claim_rows = [_claim_row(z, spec.claim_values(z), policy) for z in trace.zero_indices]
    return ExperimentReport(spec.spec_str(), claim_rows, trace.budget_exhausted)


def _claim_row(index: int, claims, policy) -> tuple:
    """(index, claims, deltas, all_prime): one row of an ExperimentReport."""
    deltas = [primality.delta(c, policy) for c in claims]
    return index, claims, deltas, int(all(deltas))


def appendix1(count: int = 20, policy=primality.DEFAULT_POLICY):
    """Rows (k, b1(k), delta, b1(k)/2**k) of the m=1 zero-index table."""
    out = []
    for k, (z, claims, deltas, ap) in enumerate(table("appendix1", count, policy).rows, start=1):
        out.append((k, z, ap, z / 2.0**k))
    return out


# Periodic-offset table presets.  Offsets are stored in the phase that
# reproduces the reference zero column under b(n) = offsets[(n-1) mod beta];
# the first 2-periodic table needs the opposite phase, hence (2, 0).
APPENDIX6_TABLES = {
    "beta2-1": (PeriodicAffine(m=1, offsets=(2, 0)), 100),
    "beta2-2": (PeriodicAffine(m=10, offsets=(-1, 1)), 100),
    "beta2-3": (PeriodicAffine(m=3, offsets=(-2, 2)), 100),
    "beta3-1": (PeriodicAffine(m=1, offsets=(2, 6, 0)), 3000),
    "beta3-2": (PeriodicAffine(m=1, offsets=(0, 4, 6)), 3000),
    "beta3-3": (PeriodicAffine(m=5, offsets=(-2, 2, -4)), 2000),
    "beta4-1": (PeriodicAffine(m=1, offsets=(1, 7, 11, -1)), 20000),
    "beta4-2": (PeriodicAffine(m=1, offsets=(2, 6, 18, 26)), 100000),
    "beta5-1": (PeriodicAffine(m=1, offsets=(2, 8, 12, 14, 18)), 1500000),
    "beta5-2": (PeriodicAffine(m=1, offsets=(2, 8, 12, 14, 18)), 2000000),
    "beta6-1": (PeriodicAffine(m=1, offsets=(0, 2, 6, 14, 30, 62)), 2000000),
}


def _appendix6(key="beta2-1"):
    if key not in APPENDIX6_TABLES:
        raise ValueError(f"unknown appendix6 key {key!r}; known keys: {', '.join(APPENDIX6_TABLES)}")
    return (*APPENDIX6_TABLES[key], 8)


def _quad_shift(default_rows: int):
    """The builder of appendix4 (2 rows by default) or c3bis (3 rows)."""
    return lambda m=2: (QuadShift(m=int(m)), 4 * int(m) ** 2, default_rows)


def _first_zero_report(name: str, spec_of, first: int, n_hi, rows, policy) -> ExperimentReport:
    """The first zero f of spec_of(N) from a(1) = N - 2, and its claim, for
    N = first..n_hi (first..first + 19 when n_hi is None), at most `rows` rows."""
    stop = first + (rows or 20) if n_hi is None else int(n_hi) + 1
    runs = [(spec_of(n), n - 2) for n in range(first, stop)[: rows or None]]
    fs = engine.first_zeros(runs)
    row = lambda spec, f: _claim_row(f, spec.claim_values(f), policy)
    return ExperimentReport(name, _per_distinct_zero(row, ((spec, f) for (spec, _), f in zip(runs, fs))))


def _per_distinct_zero(check, pairs) -> list:
    """check(spec, z) for each (spec, z) in pairs, made once per distinct z
    in each stretch of equal specs.  A claim depends on the spec and the zero
    alone, and the descents of one g mostly end at zeros that other descents
    reached.  Two specs that reach one zero claim different values
    (GoldbachAlt(N) claims z + 1 and 2N - z - 1), so each stretch keeps its
    own answers."""
    out = []
    for spec, stretch in groupby(pairs, key=itemgetter(0)):
        seen = {}
        for _, z in stretch:
            if z not in seen:
                seen[z] = check(spec, z)
            out.append(seen[z])
    return out


_C8_SPECS = {"prime": ShiftedIndex(), "twin": AlternatingLinear()}


def _c8(rows, policy, variant="prime", n_hi=None):
    if variant not in _C8_SPECS:
        raise ValueError(f"unknown c8 variant {variant!r}; known variants: {', '.join(_C8_SPECS)}")
    spec = _C8_SPECS[variant]
    return _first_zero_report(f"c8-{variant}", lambda n: spec, 4, n_hi, rows, policy)


# family -> builder; the builder's keyword parameters, with their defaults,
# are the parameters the family reads.  A claims table's builder returns
# (spec, initial, default rows[, start index]); the builders of c5, c10 and
# c8 also take rows and policy and return the report.
_TABLES = {
    **dict.fromkeys(("appendix1", "c1"), lambda: (AffineMinus(m=1), 1, 10)),
    **dict.fromkeys(("appendix2", "c2"), lambda m=5: (AffineMinus(m=int(m)), 1, 6)),
    "appendix3": lambda start=10: (PrimePowerMinusOne(p=2), int(start), 3),
    "appendix4": _quad_shift(2),
    "c3bis": _quad_shift(3),
    "appendix5": lambda p=2: (PowerMinus(b=int(p), c=2), int(p), 3),
    "appendix6": _appendix6,
    "c3": lambda p=2: (PrimePowerMinusOne(p=int(p)), 1, 3),
    # the triplet table starts its count at index 0
    "c3ter": lambda: (TripletProduct(), 4, 3, 0),
    "c4": lambda b=2, c=2, initial=None: (
        PowerMinus(b=int(b), c=int(c)), int(b if initial is None else initial), 3
    ),
    **dict.fromkeys(("c6", "c7", "c9"), lambda spec, initial: (parse_spec(spec), int(initial), 3)),
    # c5 and c10: g_N of the Goldbach recursions and its decomposition claim
    "c5": lambda rows, policy, n_hi=None: _first_zero_report(
        "c5", lambda n: GoldbachProduct(N=n), 2, n_hi, rows, policy
    ),
    "c10": lambda rows, policy, n_hi=None: _first_zero_report(
        "c10", lambda n: GoldbachAlt(N=n), 2, n_hi, rows, policy
    ),
    "c8": _c8,
}

# the parameters each table family reads, besides rows
TABLE_PARAMS = {
    family: tuple(k for k in inspect.signature(build).parameters if k not in ("rows", "policy"))
    for family, build in _TABLES.items()
}


def check_table_params(family: str, params) -> None:
    """Raise ValueError for an unknown family, a parameter it does not read,
    or a parameter without a default that is not given."""
    if family not in TABLE_PARAMS:
        raise ValueError(f"unknown table family {family!r}")
    flag = lambda k: f"--{k.replace('_', '-')}"
    unread = [flag(k) for k in params if k not in TABLE_PARAMS[family]]
    if unread:
        raise ValueError(f"table {family} does not read {', '.join(unread)}")
    keys = inspect.signature(_TABLES[family]).parameters
    missing = [flag(k) for k in TABLE_PARAMS[family] if keys[k].default is keys[k].empty and k not in params]
    if missing:
        raise ValueError(f"table {family} requires {', '.join(missing)}")


def table(family: str, rows: int | None = None, policy=primality.DEFAULT_POLICY, **params):
    """Reproduce a reference table by id; _TABLES holds each id's builder,
    and TABLE_PARAMS the parameters each reads.

    c1 = appendix1 holds in this function only: the CLI's `table appendix1`
    prints the b1 ratio table of appendix1() instead, so its output differs
    from `table c1`'s.
    """
    check_table_params(family, params)
    build = _TABLES[family]
    if "rows" in inspect.signature(build).parameters:
        return build(rows, policy, **params)
    spec, initial, default_rows, *start_index = build(**params)
    return claims_report(spec, initial, rows or default_rows, *start_index, policy=policy)


# ---------------------------------------------------------------------------
# Goldbach decompositions


_GOLDBACH = {"product": GoldbachProduct, "alternating": GoldbachAlt}


def goldbach_g(N: int, variant: str = "alternating", policy=primality.DEFAULT_POLICY):
    """First zero g_N of the Goldbach recursion and its decomposition claim."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if variant not in _GOLDBACH:
        raise ValueError(f"unknown goldbach variant {variant!r}")
    spec = _GOLDBACH[variant](N=N)
    (g,) = engine.first_zeros([(spec, N - 2)])
    claims = spec.claim_values(g)
    return g, claims, primality.all_prime(claims, policy)


# ---------------------------------------------------------------------------
# threshold scans

# family -> (spec, or spec of N, initial offset); N fails where the spec's
# claim at the first zero is not all prime.  A spec shared by every N is
# pickled once per pool job.
_SCAN_FAMILIES = {
    # with initial N-1 the twin scan's largest failure is 97
    "twin": (AlternatingLinear(), -1),
    "triplet": (PeriodicAffine(m=1, offsets=(2, 6, 0)), -6),
    "beatty": (BeattyTwin(), -2),
    # the alternating Goldbach scan uses swapped parity roles and initial
    # N-3; its largest failure is then 2207
    "goldbach": (lambda N: GoldbachAlt(N=N, flip=True), -3),
}


def _pool_map(fn, jobs: list, workers: int) -> list:
    """The lists fn returns for the jobs, joined in job order; in a pool of
    `workers` processes when workers > 1."""
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            parts = pool.map(fn, jobs)
    else:
        parts = map(fn, jobs)
    return [x for part in parts for x in part]


def _all_prime_at(pairs, policy) -> list:
    """all_prime of spec's claim at z for each (spec, z) in pairs, checked
    once per distinct zero of each stretch (see _per_distinct_zero)."""
    return _per_distinct_zero(lambda spec, z: primality.all_prime(spec.claim_values(z), policy), pairs)


def _claims_hold(job) -> list:
    """The pool worker: all_prime of each run's claim at its first zero, for
    job = (runs, start_index, policy) with runs as engine.first_zeros takes."""
    runs, start_index, policy = job
    zs = engine.first_zeros(runs, start_index)
    return _all_prime_at(((spec, z) for (spec, _), z in zip(runs, zs)), policy)


def _claims_hold_map(runs: list, workers: int, policy, start_index: int = 1) -> list:
    """_claims_hold over runs, cut into consecutive jobs, about eight per worker."""
    # a job's stretch of equal specs shares one descent memo until the job
    # ends, so smaller jobs hold smaller memos.  With one job per worker,
    # `scan triplet --n-hi 100000 --workers 2` peaked at 57.1-57.2 MB instead
    # of 43.9-44.1 MB, with the same output and wall time within the noise
    # (1.9-2.3 s against 2.0-2.9 s; 3 runs each on 2 shared cores)
    size = max(1, len(runs) // (max(1, workers) * 8))
    jobs = [(runs[k : k + size], start_index, policy) for k in range(0, len(runs), size)]
    return _pool_map(_claims_hold, jobs, workers)


def scan_threshold(
    family: str, n_hi: int, workers: int = 1, policy=primality.DEFAULT_POLICY
) -> ThresholdScanReport:
    """Scan N = 2..n_hi and report every N whose first-zero claim fails.

    N's descent starts from N + offset.  An N where that is negative
    (triplet's N = 2..5, goldbach's N = 2) is never descended, so it never
    fails, and the CLI's CSV row for it reads 0."""
    if family not in _SCAN_FAMILIES:
        raise ValueError(f"unknown scan family {family!r}")
    n_lo = 2
    spec, offset = _SCAN_FAMILIES[family]
    ns = range(max(n_lo, -offset), n_hi + 1)
    runs = [(spec(N) if callable(spec) else spec, N + offset) for N in ns]
    holds = _claims_hold_map(runs, workers, policy)
    fails = [N for N, ok in zip(ns, holds) if not ok]
    return ThresholdScanReport(
        family=family,
        n_lo=n_lo,
        n_hi=n_hi,
        failing_N=fails,
        largest_failure=fails[-1] if fails else None,
    )


# ---------------------------------------------------------------------------
# backward prime/twin property suites


def conj8_property_check(N: int, variant: str = "prime", policy=primality.DEFAULT_POLICY):
    """Evaluate the claimed biconditionals for one N; returns (id, holds) pairs.

    prime variant (recursion over n-1 from N-2): properties 3..7;
    twin variant (recursion over n+(-1)^n from N-2): properties 3..6.
    Properties outside their validity range are skipped.
    """
    if variant not in _C8_SPECS:
        raise ValueError(f"unknown variant {variant!r}")
    if N < 4:
        return []
    (f,) = engine.first_zeros([(_C8_SPECS[variant], N - 2)])
    out = []
    d = lambda x: primality.delta(x, policy)
    if variant == "prime":
        out.append(("3", d(f) == 1))
        out.append(("4", (f == N - 1) == (d(N - 1) == 1)))
        out.append(("5", (f == N - 2) == (N - 2 > 2 and d(N - 2) == 1)))
        hold6 = ((f == N - 3) == (d(N - 3) == 1 and (N - 3) % 6 == 1)) and (
            (f == N - 4) == (d(N - 4) == 1 and (N - 4) % 6 == 1)
        )
        out.append(("6", hold6))
        hold7 = ((f == N - 5) == (d(N - 5) == 1 and (N - 5) % 30 == 1)) and (
            (f == N - 6) == (d(N - 6) == 1 and (N - 6) % 30 == 1)
        )
        out.append(("7", hold7))
    else:
        if N >= 99:
            out.append(("3", d(f) == 1 and d(f + 2) == 1))
        out.append(("4", (f == N - 1) == (d(N - 1) == 1 and d(N + 1) == 1)))
        if N >= 13:
            out.append(("5", (f == N - 2) == (d(N) == 1 and d(N - 2) == 1)))
        if N >= 14:
            out.append(("6", (f == N - 3) == (d(N - 3) == 1 and d(N - 1) == 1)))
    return out


# ---------------------------------------------------------------------------
# upsilon estimators


def upsilon(n_hi: int, b: int = 2, c: int = 2, workers: int = 1, policy=primality.DEFAULT_POLICY):
    """Prefix means of the first-zero prime indicator for b*n^c - 1 runs."""
    spec = PowerMinus(b=b, c=c)  # checks b and c even when the range is empty
    return _prefix_means(_claims_hold_map([(spec, k) for k in range(1, n_hi + 1)], workers, policy))


def _prefix_means(hits):
    """An iterator of (k, mean of the first k hits).  The upsilon estimators
    pass a list, so every claim is checked before the first row."""
    return ((k, total / k) for k, total in enumerate(accumulate(hits), start=1))


def upsilon_twin(n_hi: int, workers: int = 1, policy=primality.DEFAULT_POLICY):
    """Prefix means of the twin-pair indicator for 2n^2 +/- 1 runs from a(0)=k."""
    spec = AlternatingQuad()  # one object, pickled once per pool job
    runs = [(spec, k) for k in range(1, n_hi + 1)]
    return _prefix_means(_claims_hold_map(runs, workers, policy, start_index=0))


def v_sequence(count: int, policy=primality.DEFAULT_POLICY):
    """First `count` N with 2N^2 - 1 and 2N^2 + 1 both prime (the alt-quad
    claim at index N - 1)."""
    spec = AlternatingQuad()
    out = []
    n = 0
    while len(out) < count:
        n += 1
        if primality.all_prime(spec.claim_values(n - 1), policy):
            out.append(n)
    return out


def upsilon_v(count: int, policy=primality.DEFAULT_POLICY):
    """Prefix means of the twin indicator for runs started at a(0) = 2 v(k)^2."""
    spec = AlternatingQuad()
    runs = [(spec, 2 * v * v) for v in v_sequence(count, policy)]
    return _prefix_means(_claims_hold((runs, 0, policy)))


# ---------------------------------------------------------------------------
# Goldbach constant


def goldbach_constant_series(n_hi: int):
    """An iterator of (n, n^(-1/2) * sum_{k=3..n} (1 - g_k/(k-1))) for the
    alternating Goldbach recursion in its nominal orientation; the first
    zeros g_k are found before it is returned."""
    gs = engine.first_zeros((GoldbachAlt(N=k), k - 2) for k in range(3, n_hi + 1))
    terms = accumulate(1.0 - g / (k - 1) for k, g in enumerate(gs, start=3))
    return ((k, total / math.sqrt(k)) for k, total in enumerate(terms, start=3))


# ---------------------------------------------------------------------------
# Legendre variation


def legendre_count(N: int) -> int:
    """Number of k in [2, 2N] with N^2+k+1 and (N+1)^2-k simultaneously prime."""
    return legendre_series(N, N)[0][1]


def legendre_holds(N: int) -> bool:
    return legendre_count(N) >= 1


def _legendre_chunk(args):
    import numpy as np

    lo_n, hi_n = args
    lo, hi = lo_n * lo_n + 1, (hi_n + 1) * (hi_n + 1)
    flags = primality.prime_flags(lo, hi)
    out = []
    for N in range(lo_n, hi_n + 1):
        base = N * N - lo
        x = flags[base + 3 : base + 2 * N + 2]  # N^2+k+1 for k=2..2N
        y = flags[base + 1 : base + 2 * N][::-1]  # (N+1)^2-k for k=2..2N
        out.append((N, int(np.count_nonzero(x & y))))
    return out


def legendre_series(n_hi: int, n_lo: int = 2, workers: int = 1):
    """(N, qualifying-k count) for N = n_lo..n_hi via a segmented sieve; 256 N
    per job, whatever the worker count, bounds each job's sieve window."""
    if n_lo < 2:
        raise ValueError("N must be >= 2")
    jobs = [(lo, min(lo + 255, n_hi)) for lo in range(n_lo, n_hi + 1, 256)]
    return _pool_map(_legendre_chunk, jobs, workers)


# ---------------------------------------------------------------------------
# gap diagnostics and polynomial first-zero statistics


def gap_diagnostics(n_hi: int, policy=primality.DEFAULT_POLICY):
    """An iterator of (N, (N - f(N))/sqrt(N), (N - prev_prime(N))/sqrt(N))
    for N = 3..n_hi; the first zeros f are found before it is returned."""
    spec = ShiftedIndex()
    fs = engine.first_zeros((spec, N - 2) for N in range(3, n_hi + 1))

    def rows():
        for N, f in enumerate(fs, start=3):
            rt = math.sqrt(N)
            yield N, (N - f) / rt, (N - primality.prev_prime(N, policy)) / rt

    return rows()


def conj7_f_and_L(spec, n_hi: int, policy=primality.DEFAULT_POLICY):
    """First-zero series f(k) for runs from a(1)=k, and the prefix-mean
    estimate of the simultaneous-primality proportion L(P)."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    fs = engine.first_zeros((spec, k) for k in range(1, n_hi + 1))
    hits = sum(_all_prime_at(((spec, f) for f in fs), policy))
    return list(enumerate(fs, start=1)), hits / len(fs) if fs else 0.0
