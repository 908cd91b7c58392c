"""Record-jump acceleration: build the next record value from the previous
record plus only the harvested large-step tail, skipping the -1 plateau.

predict_next has a formula for each family of PREDICTED.  For the affine
family m*n - 1 the record regenerated after the k-th zero satisfies
W' = (m+1) W + m + m * sum(d_i + 1)  over the large negative steps d_i <= -2
between the two records; lalpha's candidate is this jump from 3m - 1 over a
partial tail.  For the power family b*n^c - 1 the same bookkeeping gives
W' = b (W + 1 + ((W+1)/b)^(1/c) + sum(d_i+1))^c - 1, with the c-th root
extracted exactly; at c = 1 it is the affine W' only where m divides W + 1.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import engine, primality
from .generators import AffineMinus, PowerMinus

PREDICTED = (AffineMinus, PowerMinus)  # the families predict_next has a formula for


class NotPerfectPower(ValueError):
    """(W+1)/b is not an exact c-th power."""


class InconsistentTail(ValueError):
    """The harvested tail cannot belong to the stated record."""


@dataclass(frozen=True)
class RecordJump:
    prev_record: int
    tail_deltas: tuple
    family: object  # one of PREDICTED, for predict_next

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


def predict_next(jump: RecordJump) -> int:
    """Next record of the jump's family, affine or power, from the previous
    record plus the tail."""
    fam, w = jump.family, jump.prev_record
    tail = sum(d + 1 for d in jump.tail_deltas)
    if isinstance(fam, AffineMinus):
        out = (fam.m + 1) * w + fam.m + fam.m * tail
        if out <= 0:
            raise InconsistentTail(f"predicted record {out} is not positive")
        return out
    if not isinstance(fam, PowerMinus):
        raise ValueError(f"no record-jump formula for {fam.spec_str()}")
    b, c = fam.b, fam.c
    if (w + 1) % b:
        raise NotPerfectPower(f"{w + 1} is not divisible by {b}")
    root, exact = integer_nth_root((w + 1) // b, c)
    if not exact:
        raise NotPerfectPower(f"({w + 1})/{b} is not a perfect {c}-th power")
    return b * (w + 1 + root + tail) ** c - 1


def harvest_tail(trace, start_index: int, end_index: int) -> list:
    """Large negative steps (delta <= -2) with index in (start_index, end_index]."""
    return [
        d for (n, d) in trace.large_steps if start_index < n <= end_index and d <= -2
    ]


def _window_floor(m: int, alpha) -> int:
    """floor(m**alpha) for rational alpha in (0, 1] with a denominator of at
    most 64: the exact root's cost grows with the denominator."""
    frac = Fraction(alpha)
    if not 0 < frac <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {frac}")
    if frac.denominator > 64:
        raise ValueError(f"alpha needs a denominator of at most 64, got {frac}")
    root, _ = integer_nth_root(m**frac.numerator, frac.denominator)
    return root


def second_record_candidate(m: int, alpha, trace) -> int:
    """Candidate second record: the affine jump from the first record over a
    partial tail, the large steps at indices 5 .. floor(m**alpha) + 1.

    The first record of the affine recursion from initial 1 is always
    3m - 1, regenerated at index 3.  A window below 4 is degenerate and
    contributes nothing.
    """
    window = _window_floor(m, alpha)
    if window >= 4 and trace.final_index < window + 1:
        raise ValueError("trace too short for the requested window")
    return predict_next(RecordJump(3 * m - 1, harvest_tail(trace, 4, window + 1), AffineMinus(m=m)))


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
