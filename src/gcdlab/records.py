"""Record-jump acceleration: build the next record value from the previous
record plus only the harvested large-step tail, skipping the -1 plateau.

For the affine family m*n - 1 the record regenerated after the k-th zero
satisfies  W' = (m+1) W + m + m * sum(d_i + 1)  over the large negative
steps d_i <= -2 between the two records.  For the power family b*n^c - 1
the same bookkeeping gives  W' = b (W + 1 + ((W+1)/b)^(1/c) + sum(d_i+1))^c - 1,
with the c-th root extracted exactly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import engine, primality
from .generators import AffineMinus, PowerMinus


class NotPerfectPower(ValueError):
    """(W+1)/b is not an exact c-th power."""


class InconsistentTail(ValueError):
    """The harvested tail cannot belong to the stated record."""


@dataclass(frozen=True)
class RecordJump:
    prev_record: int
    tail_deltas: tuple
    family: object  # AffineMinus or PowerMinus

    def __post_init__(self):
        object.__setattr__(self, "tail_deltas", tuple(self.tail_deltas))
        if self.prev_record < 1:
            raise ValueError("prev_record must be >= 1")
        if any(d > -2 for d in self.tail_deltas):
            raise ValueError("tail deltas must all be <= -2")


def integer_nth_root(value: int, n: int) -> tuple[int, bool]:
    """(floor(value**(1/n)), exact?) by pure-integer binary search."""
    if value < 0 or n < 1:
        raise ValueError("root requires value >= 0 and n >= 1")
    if value in (0, 1) or n == 1:
        return value, True
    lo, hi = 1, 1 << (value.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**n <= value:
            lo = mid
        else:
            hi = mid - 1
    return lo, lo**n == value


def predict_next_affine(m: int, jump: RecordJump) -> int:
    """Next record of the m*n - 1 recursion from the previous one plus tail."""
    if not isinstance(jump.family, AffineMinus) or jump.family.m != m:
        raise ValueError("jump family does not match the requested m")
    w = jump.prev_record
    out = (m + 1) * w + m + m * sum(d + 1 for d in jump.tail_deltas)
    if out <= 0:
        raise InconsistentTail(f"predicted record {out} is not positive")
    return out


def predict_next_power(b: int, c: int, jump: RecordJump) -> int:
    """Next record of the b*n^c - 1 recursion from the previous one plus tail."""
    fam = jump.family
    if not isinstance(fam, PowerMinus) or (fam.b, fam.c) != (b, c):
        raise ValueError("jump family does not match the requested (b, c)")
    w = jump.prev_record
    if (w + 1) % b:
        raise NotPerfectPower(f"{w + 1} is not divisible by {b}")
    root, exact = integer_nth_root((w + 1) // b, c)
    if not exact:
        raise NotPerfectPower(f"({w + 1})/{b} is not a perfect {c}-th power")
    base = w + 1 + root + sum(d + 1 for d in jump.tail_deltas)
    return b * base**c - 1


def harvest_tail(trace, start_index: int, end_index: int) -> list:
    """Large negative steps (delta <= -2) with index in (start_index, end_index]."""
    return [
        d for (n, d) in trace.large_steps if start_index < n <= end_index and d <= -2
    ]


def _window_floor(m: int, alpha) -> int:
    """floor(m**alpha) for rational alpha in (0, 1]."""
    frac = Fraction(alpha)
    if not 0 < frac <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {frac}")
    frac = frac.limit_denominator(64)
    root, _ = integer_nth_root(m**frac.numerator, frac.denominator)
    return root


def second_record_candidate(m: int, alpha, trace) -> int:
    """Candidate second record (m+1)(3m-1) + m + m*sum over the partial window.

    The sum runs over large steps at indices 5 .. floor(m**alpha) + 1 (a
    partial window after the first record); the first record of the affine recursion
    from initial 1 is always 3m - 1, regenerated at index 3.  A window below 4
    is degenerate and contributes nothing.
    """
    window = _window_floor(m, alpha)
    if window >= 4 and trace.final_index < window + 1:
        raise ValueError("trace too short for the requested window")
    tail = sum(
        d + 1 for (n, d) in trace.large_steps if 5 <= n <= window + 1 and d <= -2
    )
    return (m + 1) * (3 * m - 1) + m + m * tail


def second_record_candidate_for(m: int, alpha) -> int:
    """Run the affine recursion from initial 1 over the alpha-window and
    return the candidate second record."""
    window = _window_floor(m, alpha)
    cfg = engine.RunConfig(initial=1, arg=AffineMinus(m=m), budget=max(window + 1, 8))
    return second_record_candidate(m, alpha, engine.run(cfg))


def estimate_L_alpha(alpha, samples, policy=primality.DEFAULT_POLICY) -> Fraction:
    """Fraction of sampled m whose alpha-window second-record candidate is
    (probably) prime."""
    samples = list(samples)
    if not samples:
        raise ValueError("estimate_L_alpha needs at least one sample")
    hits = sum(
        primality.delta(second_record_candidate_for(m, alpha), policy) for m in samples
    )
    return Fraction(hits, len(samples))


def sample_ms(count: int, lo: int, hi: int, seed: int = 0) -> list:
    """Deterministic sample of starting multipliers in (lo, hi)."""
    if not 0 <= lo < hi - 1:
        raise ValueError(f"--lo and --hi need 0 <= lo and lo + 1 < hi, got lo={lo}, hi={hi}")
    rng = random.Random(seed)
    return [rng.randrange(lo + 1, hi) for _ in range(count)]
