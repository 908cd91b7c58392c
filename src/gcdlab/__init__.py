"""gcdlab: gcd-driven recursions whose zero/record structure encodes primes.

The package splits into:

- primality: tiered Miller-Rabin, exact below a deterministic bound and
  wrong with probability at most 4^-rounds above it
- generators: the argument sequences g(n) and their claim maps
- engine: absolute/signed backward descent and forward addition, with
  event-jump acceleration on plateau segments
- records: record-jump prediction formulas and window estimators
- experiments: reference tables, threshold scans, statistical series
- cli: the ``gcdlab`` command-line front end
"""
from .engine import (
    ABS_BACKWARD,
    FORWARD_ADD,
    SIGNED_BACKWARD,
    RunConfig,
    Trace,
    forward_record_indices,
    run,
    zeros,
)
from .generators import parse_spec
from .primality import PrimalityPolicy, all_prime, delta, is_prime, prev_prime

__version__ = "0.1.0"

__all__ = [
    "ABS_BACKWARD",
    "SIGNED_BACKWARD",
    "FORWARD_ADD",
    "RunConfig",
    "Trace",
    "run",
    "zeros",
    "forward_record_indices",
    "parse_spec",
    "PrimalityPolicy",
    "is_prime",
    "delta",
    "all_prime",
    "prev_prime",
    "__version__",
]
