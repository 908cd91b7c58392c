"""Per-layer probes: call one layer's function directly at fixed input sizes.

    python perfbench/probes.py SEED

Runs in a fresh process, so lazy tables start unbuilt and caches start
empty.  Prints one JSON object {"metrics": {name: value}, "missing": [names]},
where "missing" lists the program names a probe needs but did not find.

The probe inputs are primes, or products of primes, of fixed bit sizes drawn
from SEED.  The cost of factoring a random integer swings by orders of
magnitude with its smallest factors; a product of primes of fixed sizes costs
about the same from seed to seed.
"""
from __future__ import annotations

import json
import math
import random
import statistics
import sys
from time import perf_counter

from sympy import nextprime

# bit sizes of the factors of each factoring probe input
FACTOR_SHAPES = {"2p19": (19,), "1e12": (20, 20), "1e16": (24, 29), "1e30": (20, 30, 50)}
# bit size of each primality probe input (a prime, so every witness runs)
PRIME_SIZES = {"2p19": 19, "1e12": 40, "1e24": 80, "200bit": 200}
GENERATOR_SPECS = {
    "beatty": "beatty",
    "periodic": "periodic:m=1,offsets=2;6;0",
    "power": "power:b=2,c=2",
    "goldbach-alt": "goldbach-alt:N=40000",
}
INPUTS_PER_PROBE = 5


def _prime(rng: random.Random, bits: int) -> int:
    """A prime of exactly `bits` bits."""
    while True:
        p = nextprime(rng.randrange(1 << (bits - 1), 1 << bits))
        if p.bit_length() == bits:
            return int(p)


def _time(fn, *args) -> float:
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


def _median_time(fn, inputs, calls: int) -> float:
    """Median over inputs of the mean time of `calls` calls on each."""
    return statistics.median(sum(_time(fn, x) for _ in range(calls)) / calls for x in inputs)


def probe(seed: int) -> dict:
    from gcdlab import engine, experiments, generators, primality

    rng = random.Random(seed)
    metrics, missing = {}, []

    # lazy set-up: a first call's cost over the same call once warm
    first = _time(primality.is_prime, 1 << 19)
    metrics["primality.sieve_build_s"] = first - _time(primality.is_prime, 1 << 19)
    config = engine.RunConfig(initial=1, arg=generators.AffineMinus(m=1))
    first = _time(engine.zeros, config, 5)
    metrics["engine.spf_build_s"] = first - _time(engine.zeros, config, 5)

    for name, bits in PRIME_SIZES.items():
        inputs = [_prime(rng, bits) for _ in range(INPUTS_PER_PROBE)]
        if not all(primality.is_prime(p) for p in inputs):
            raise ValueError(f"is_prime rejected a {bits}-bit prime")
        metrics[f"primality.probe_us.{name}"] = 1e6 * _median_time(primality.is_prime, inputs, 20)

    factor = getattr(engine, "_prime_factors", None)
    if factor is None:
        missing.append("gcdlab.engine._prime_factors")
    else:
        # call the function under the engine's cache, once per input: sympy
        # keeps a factor cache of its own, so a repeated input is not cold
        factor = getattr(factor, "__wrapped__", factor)
        for name, shape in FACTOR_SHAPES.items():
            times = []
            for _ in range(INPUTS_PER_PROBE):
                primes = [_prime(rng, bits) for bits in shape]
                start = perf_counter()
                got = factor(math.prod(primes))
                times.append(perf_counter() - start)
                if sorted(got) != sorted(primes):
                    raise ValueError(f"_prime_factors of {primes} gave {got}")
            metrics[f"engine.probe_us.{name}"] = 1e6 * statistics.median(times)

    for name, text in GENERATOR_SPECS.items():
        eval_arg = generators.parse_spec(text).eval_arg
        ns = range(1, 20001)
        runs = [_time(lambda: [eval_arg(n) for n in ns]) for _ in range(5)]
        metrics[f"generators.probe_ns.{name}"] = 1e9 * statistics.median(runs) / len(ns)

    pool = getattr(experiments, "Pool", None)
    if pool is None:
        from multiprocessing import Pool as pool

    def start_pool():
        with pool(2) as workers:
            workers.map(abs, range(2))

    metrics["experiments.pool_start_s"] = statistics.median(_time(start_pool) for _ in range(3))
    return {"metrics": metrics, "missing": missing}


if __name__ == "__main__":
    print(json.dumps(probe(int(sys.argv[1]))))
