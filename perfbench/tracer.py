"""Run one gcdlab CLI command with each layer's entry points wrapped in spans.

    python perfbench/tracer.py OUT.json <gcdlab CLI arguments>

The wrappers live here, not in the program: after import they replace the
module attributes through which the layers call one another.  Each wrapped
call records a span (id, parent id, name, start, end).  The hot inner calls
(event finder, factoring, fallback stepping, primality) are aggregated per
name instead of kept one by one, so memory stays bounded.  A span's self time
is its duration minus the time its child spans cover.

A private engine name that is missing (a later refactor may rename it) is
listed under "absent" and the command runs unwrapped there.  The CLI's stdout
is left untouched; the spans, per-name aggregates and counts are written to
OUT.json when the command ends.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
from collections import Counter
from time import perf_counter

# Entry points of the generators layer.  Its other public functions
# (poly_eval, floor_pi_times) run once per step or event, where a wrapper
# would cost more than they do; the benchmark probes them instead.
GENERATOR_ENTRIES = ("parse_spec",)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [id, name, start, time covered by children]
        self.spans = []  # kept spans: (id, parent id, name, start, end)
        self.agg = {}  # name -> [calls, total s, self s]
        self.counts = Counter()
        self.absent = []
        self.factor_cache = None
        self._ids = itertools.count()

    def enter(self, name: str) -> list:
        frame = [next(self._ids), name, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, keep: bool = True) -> float:
        end = perf_counter()
        self.stack.pop()
        span_id, name, start, covered = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - covered
        if keep:
            self.spans.append((span_id, parent and parent[0], name, start, end))
        return duration

    def wrap(self, name, fn, keep=True, before=None, after=None):
        """fn inside a span; before(args, kwargs) and after(args, kwargs,
        result, duration) run outside it, so their cost is not charged."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = self.leave(frame, keep)
            if after is not None:
                after(args, kwargs, out, duration)
            return out

        return traced

    def report(self) -> dict:
        return {
            "agg": self.agg,
            "counts": self.counts,
            "absent": self.absent,
            "factor_cache": self.factor_cache and self.factor_cache.cache_info()._asdict(),
            "spans": self.spans,
        }


def _replace(modules, old, new) -> None:
    """Point every reference to `old` in the given modules at `new`."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def _public_functions(mod) -> list:
    return [
        name
        for name, value in vars(mod).items()
        if inspect.isfunction(value) and value.__module__ == mod.__name__ and not name.startswith("_")
    ]


def install(tracer: Tracer) -> None:
    import gcdlab
    from gcdlab import cli, engine, experiments, generators, primality, records

    modules = (gcdlab, cli, engine, experiments, generators, primality, records)

    def wrap_attr(mod, attr, **hooks):
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.absent.append(f"{mod.__name__}.{attr}")
            return
        _replace(modules, fn, tracer.wrap(f"{mod.__name__.rsplit('.', 1)[1]}.{attr}", fn, **hooks))

    for name in _public_functions(experiments):
        wrap_attr(experiments, name)
    for name in _public_functions(records):
        wrap_attr(records, name)
    for name in GENERATOR_ENTRIES:
        wrap_attr(generators, name)

    # engine entry points; the calls made from experiments code are its work items
    def from_experiments(args, kwargs):
        if tracer.stack and tracer.stack[-1][1].startswith("experiments."):
            tracer.counts["experiments.items"] += 1

    forward = getattr(engine, "FORWARD_ADD", "forward")

    def after_run(args, kwargs, trace, duration):
        config = args[0] if args else kwargs["config"]
        tracer.counts["engine.trace_items"] += sum(
            len(getattr(trace, f, ())) for f in ("zero_indices", "large_steps", "forward_diffs")
        )
        if config.mode == forward or config.arg.residue_polys() is None:
            tracer.counts["engine.naive_steps"] += trace.iterations_used
            tracer.counts["engine.naive_s"] += duration

    for name in _public_functions(engine):
        hooks = {"after": after_run} if name == "run" else {}
        wrap_attr(engine, name, before=from_experiments, **hooks)

    wrap_attr(engine, "_next_event", keep=False)

    def after_fallback(args, kwargs, out, duration):
        tracer.counts["engine.fallback_steps"] += out[0] - args[2]

    wrap_attr(engine, "_step_until_event", keep=False, after=after_fallback)

    # factoring: actual factorizations are the cache's misses, so rebuild the
    # cache at its own size around a timed copy of the function it wraps
    factor = getattr(engine, "_prime_factors", None)
    if factor is None:
        tracer.absent.append("gcdlab.engine._prime_factors")
    else:
        inner = getattr(factor, "__wrapped__", factor)
        spf_limit = getattr(engine, "_SPF_LIMIT", 1 << 20)

        def timed_factor(q):
            frame = tracer.enter("engine.factor.spf" if q < spf_limit else "engine.factor.large")
            try:
                return inner(q)
            finally:
                tracer.leave(frame, keep=False)

        if hasattr(factor, "cache_info"):
            tracer.factor_cache = functools.lru_cache(maxsize=factor.cache_info().maxsize)(timed_factor)
            _replace(modules, factor, tracer.factor_cache)
        else:
            _replace(modules, factor, timed_factor)

    # primality, bucketed by the tier that answers the call
    is_prime = primality.is_prime
    sieve_limit = getattr(primality, "_SMALL_SIEVE_LIMIT", 1 << 20)
    det_bound = primality.DETERMINISTIC_BOUND
    default_policy = primality.DEFAULT_POLICY

    def traced_is_prime(n, *args, **kwargs):
        policy = args[0] if args else kwargs.get("policy", default_policy)
        if n < sieve_limit:
            tier = "sieve"
        elif n < min(det_bound, policy.deterministic_bound):
            tier = "det"
        else:
            tier = "random"
        frame = tracer.enter(f"primality.is_prime.{tier}")
        try:
            return is_prime(n, *args, **kwargs)
        finally:
            tracer.leave(frame, keep=False)

    _replace(modules, is_prime, traced_is_prime)


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import gcdlab.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    install(tracer)
    sys.argv = ["gcdlab", *argv]
    frame = tracer.enter("cli.dispatch")
    try:
        code = gcdlab.cli.dispatch(argv)
    finally:
        tracer.leave(frame)
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tracer.report()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
