"""The benchmark's workloads: CLI commands, and the checks on their output.

Each workload is a list of `gcdlab` CLI invocations, run one after another,
each in a fresh process, exactly as a user would type them.  Only
`stats lalpha` takes the benchmark seed; every other command is one of the
paper's fixed inputs and ignores it.

Every output is checked twice over:

- byte for byte, against the sha256 of its stdout recorded when the benchmark
  was defined (for `lalpha` only at DEFAULT_SEED, the seed it was recorded at);
- against the paper's invariants, which hold for any seed.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0


def _rows(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _check_scan(n_hi: int, largest: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        rows = _rows(text, "N,failed")
        if [int(r[0]) for r in rows] != list(range(2, n_hi + 1)):
            raise ValueError(f"scan rows are not N = 2..{n_hi}")
        failing = [int(r[0]) for r in rows if r[1] == "1"]
        if not failing or failing[-1] != largest:
            raise ValueError(f"largest failure {failing[-1:]} is not {largest}")

    return check


def _check_series(x_lo: int, x_hi: int, last_lo: float, last_hi: float) -> Callable[[str], None]:
    def check(text: str) -> None:
        rows = _rows(text, "x,y")
        if [int(r[0]) for r in rows] != list(range(x_lo, x_hi + 1)):
            raise ValueError(f"series rows are not x = {x_lo}..{x_hi}")
        last = float(rows[-1][1])
        if not (math.isfinite(last) and last_lo <= last <= last_hi):
            raise ValueError(f"final value {last} is outside [{last_lo}, {last_hi}]")

    return check


def _check_lalpha(text: str) -> None:
    est = float(text)
    if not 0.40 <= est <= 0.60:
        raise ValueError(f"L_alpha estimate {est} is outside 0.5 +/- 0.10")


def _is_prime(n: int) -> bool:
    # Trial division, not sympy: importing sympy would grow the benchmark
    # process, and a child's peak RSS starts from its parent's (see run.py).
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def _check_rowland(budget: int) -> Callable[[str], None]:
    def check(text: str) -> None:
        rows = _rows(text, "event,index,value")
        if rows[-1][:2] != ["final", str(budget + 1)]:
            raise ValueError(f"run did not end at index {budget + 1}: {rows[-1]}")
        steps = [int(r[2]) for r in rows if r[0] == "step"]
        # Rowland: from a(1) = 7 every difference other than 1 is a prime
        if not steps or not all(_is_prime(d) for d in steps):
            raise ValueError("a forward difference is not prime")

    return check


def _check_appendix5(text: str) -> None:
    rows = _rows(text, "index,claim_1,delta_1,all_prime")
    if len(rows) != 3 or any(r[-1] != "1" for r in rows):
        raise ValueError("appendix5 p=2 rows are not 3 all-prime rows")


@dataclass(frozen=True)
class Command:
    args: tuple  # CLI arguments; "{seed}" is replaced by the benchmark seed
    check: Callable[[str], None]  # raises ValueError on a wrong output
    sha256: str  # digest of stdout (at DEFAULT_SEED for seeded commands)

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.args

    def argv(self, seed: int, single_worker: bool = False) -> list:
        """CLI argv; the traced run uses one worker so every span lands in one process."""
        out = [a.replace("{seed}", str(seed)) for a in self.args]
        if single_worker and "--workers" in out:
            out[out.index("--workers") + 1] = "1"
        return out

    def verify(self, seed: int, stdout: bytes) -> str | None:
        """None if the output is right, else what is wrong with it."""
        if (not self.seeded or seed == DEFAULT_SEED) and hashlib.sha256(stdout).hexdigest() != self.sha256:
            return f"stdout of {' '.join(self.argv(seed))} differs from the recorded output"
        try:
            self.check(stdout.decode())
        except (ValueError, IndexError, UnicodeDecodeError) as exc:
            return f"{' '.join(self.argv(seed))}: {exc}"
        return None


WORKLOADS = {
    # 40-54-bit class-polynomial values: the jump engine's time is sympy
    # factorint behind engine._prime_factors, whose LRU cache barely hits;
    # primality runs its deterministic-witness tier.
    "factor-heavy": [
        Command(
            ("stats", "upsilon-v", "--count", "60"),
            _check_series(1, 60, 0.55, 0.85),
            "f165557ed37fe5cfedd2bb97373a91bc01b47246d71d0120ba32cd3999bd6690",
        ),
        Command(
            ("stats", "lalpha", "--samples", "800", "--seed", "{seed}"),
            _check_lalpha,
            "2c41aa1a54a7753b088feaafecb12bc61941de7a371ddac9990052e8171857e9",
        ),
    ],
    # values below 2^20: SPF-table factoring with a hot LRU cache, time in the
    # event finder; the only workload that starts the worker pool.
    "small-scan": [
        Command(
            ("scan", "triplet", "--n-hi", "6000", "--workers", "2"),
            _check_scan(6000, 2734),
            "f61224cd122c32b4285c111bf5c712d87ecdd03ce3fb53fce0e5b076fd5f1f21",
        ),
        Command(
            ("stats", "goldbach-constant", "--n-hi", "20000"),
            _check_series(3, 20000, 0.0, math.inf),
            "fb79de833c309a9684f824d85913bc954ac5d512b1a52fd37904febba8f073e3",
        ),
    ],
    # no factoring at all: naive backward stepping through floor_pi_times,
    # then forward addition with a trace that grows with the budget.
    "naive-step": [
        Command(
            ("scan", "beatty", "--n-hi", "2000"),
            _check_scan(2000, 1648),
            "44c89ad258bea0bd8e0315e2372012c49a4ac6fac60e03be116d5d08a1a28bee",
        ),
        Command(
            ("run", "--spec", "rowland", "--initial", "7", "--mode", "forward", "--budget", "3000000"),
            _check_rowland(3000000),
            "35fed3318d59db0f0d7d4ccdcfcfe2a447c2b76926e8a9968c1bdf76272f281c",
        ),
    ],
}

# A near-zero-work command that pays every lazy set-up a CLI user pays:
# imports, the engine's SPF table, the primality sieve and the sympy import.
SETUP = Command(
    ("table", "appendix5", "--p", "2"),
    _check_appendix5,
    "eee083d08d4ff9d58a6260d703bf89e1e57cbf7dc0351f2c755e920565b0be1b",
)
