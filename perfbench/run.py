#!/usr/bin/env python3
"""gcdlab benchmark: the paper's workloads, run through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
Closed loop, one client: each command starts in a fresh `python -m gcdlab.cli`
process with CSV output only after the previous one has ended, so no
repetition inherits the LRU cache or the lazy tables of another.

--trace 0 repeats, for S seconds, a calibration load, a near-zero-work
command that pays every lazy set-up (setup_s) and the workload's commands,
and reports the workload's wall time (wall_s), child CPU time (cpu_s) and
largest peak RSS (peak_rss_mb); see end_to_end for how the repetitions are
combined and scaled to the host's speed.

--trace 1 runs the commands under perfbench/tracer.py, which wraps every
layer's entry points in spans (with one worker, so every span lands in one
process), alternating with untraced passes that give the tracing overhead,
and then the per-layer probes of perfbench/probes.py; see traced.

Every output is checked (see workloads.py).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give each metric by name, with its unit and sample count.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter

from workloads import SETUP, WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # traces and stderr captures; never committed

SETUP_SAMPLES = 5
# A fixed load that runs no gcdlab code, to time the host's speed: the
# imports and the kinds of work (numpy sieving, sympy factoring, dict-heavy
# Python) that the workloads do.
CALIBRATION = """
import numpy, sympy
table = numpy.zeros(1 << 20, dtype=numpy.int32)
for p in range(2, 2000):
    if table[p] == 0:
        table[p::p][table[p::p] == 0] = p
x = 1
for _ in range(40):
    x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 52)
    sympy.factorint(x | 1)
d = {}
for i in range(200000):
    d[i % 5003] = d.get(i % 5003, 0) + i * i
"""
# The fastest wall time of CALIBRATION on the reference host: 2 vCPUs of an
# Intel Xeon, Python 3.11.7, numpy 2.4.6, sympy 1.14.0.
CALIBRATION_REF_S = 0.6
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "engine.factor_calls.spf": "count",
    "engine.factor_calls.large": "count",
    "engine.factor_s.spf": "s",
    "engine.factor_s.large": "s",
    "engine.factor_cache_hit_ratio": "ratio",
    "engine.next_event_calls": "count",
    "engine.next_event_us": "us",
    "engine.naive_steps": "count",
    "engine.naive_steps_per_s": "1/s",
    "engine.fallback_steps": "count",
    "engine.trace_items": "count",
    "engine.run_calls": "count",
    "engine.self_s": "s",
    "primality.calls.sieve": "count",
    "primality.calls.det": "count",
    "primality.calls.random": "count",
    "primality.busy_s.sieve": "s",
    "primality.busy_s.det": "s",
    "primality.busy_s.random": "s",
    "records.calls": "count",
    "records.self_s": "s",
    "experiments.items": "count",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "primality.probe_us.2p19": "us",
    "primality.probe_us.1e12": "us",
    "primality.probe_us.1e24": "us",
    "primality.probe_us.200bit": "us",
    "engine.probe_us.2p19": "us",
    "engine.probe_us.1e12": "us",
    "engine.probe_us.1e16": "us",
    "engine.probe_us.1e30": "us",
    "engine.spf_build_s": "s",
    "primality.sieve_build_s": "s",
    "generators.probe_ns.beatty": "ns",
    "generators.probe_ns.periodic": "ns",
    "generators.probe_ns.power": "ns",
    "generators.probe_ns.goldbach-alt": "ns",
    "experiments.pool_start_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    stdout: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None


class Runner:
    """Runs commands in fresh processes and counts attempts and failures."""

    def __init__(self, seed: int):
        self.seed = seed
        self.deadline = monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "GCDLAB_WORKERS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.errors = []

    def process(self, argv: list) -> Outcome:
        """Run argv to its end; times and peak RSS come from wait4, so they
        cover the process and the pool workers it reaped.

        Linux starts a child's peak RSS at its parent's peak (exec keeps the
        larger), so this process must stay smaller than what it measures: it
        imports neither numpy nor sympy.
        """
        self.attempted += 1
        with tempfile.TemporaryFile(dir=OUT) as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(max(self.deadline - monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = perf_counter() - start
            error = None
            if proc.returncode != 0:
                err.seek(0)
                tail = err.read()[-400:].decode(errors="replace")
                error = f"{' '.join(argv[1:])}: exit {proc.returncode}: {tail}"
        return Outcome(out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, error)

    def cli(self, command: Command, single_worker: bool = False, trace_to: Path | None = None) -> Outcome:
        args = command.argv(self.seed, single_worker)
        if trace_to is None:
            outcome = self.process([sys.executable, "-m", "gcdlab.cli", *args])
        else:
            outcome = self.process([sys.executable, str(HERE / "tracer.py"), str(trace_to), *args])
        if outcome.error is None:
            outcome.error = command.verify(self.seed, outcome.stdout)
        if outcome.error is not None:
            self.errors.append(outcome.error)
        return outcome


def end_to_end(runner: Runner, workload: str, seconds: float) -> tuple[dict, dict]:
    """Repeat [calibration, set-up command, workload commands] while the next
    repetition still ends within `seconds`.

    Other tenants of a shared host slow every process on it, by up to 1.8x,
    for a second or for minutes, and never speed one up.  Against the short
    spells, wall_s and cpu_s sum each command's fastest repetition, as timeit
    does.  Against the long ones, the times are scaled by the host's speed in
    this run: CALIBRATION_REF_S over the fastest run of CALIBRATION.  They
    are thus seconds on a host running at the reference speed; the unscaled
    figures are printed beside them.  peak_rss_mb is the largest of the
    commands' medians, and setup_s the median of the set-up samples.
    """
    commands = WORKLOADS[workload]
    calibration, setup = [], []
    outcomes = [[] for _ in commands]
    start = monotonic()
    while True:
        rep_start = monotonic()
        calibration.append(runner.process([sys.executable, "-c", CALIBRATION]))
        setup.append(runner.cli(SETUP).wall_s)
        for command, samples in zip(commands, outcomes):
            samples.append(runner.cli(command))
        now = monotonic()
        rep = now - rep_start
        if now + rep > min(start + seconds, runner.deadline):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.cli(SETUP).wall_s)
    runner.errors += [c.error for c in calibration if c.error is not None]

    unscaled = {
        "wall_s": sum(min(o.wall_s for o in s) for s in outcomes),
        "cpu_s": sum(min(o.cpu_s for o in s) for s in outcomes),
        "setup_s": statistics.median(setup),
    }
    speed = CALIBRATION_REF_S / min(c.wall_s for c in calibration)
    metrics = {name: speed * value for name, value in unscaled.items()}
    metrics["peak_rss_mb"] = max(statistics.median(o.peak_rss_mb for o in s) for s in outcomes)
    details = {
        "repetitions": len(outcomes[0]),
        "setup samples": len(setup),
        "host speed over the reference": speed,
        "unscaled": unscaled,
        "wall_s per command": {" ".join(c.args): [o.wall_s for o in s] for c, s in zip(commands, outcomes)},
    }
    return metrics, details


def traced(runner: Runner, workload: str, seconds: float) -> tuple[dict, dict]:
    """Alternate traced and untraced passes over the workload's commands, at
    least twice and then while the next pair still ends within `seconds`;
    then run the probes.

    Every traced pass must report the same counts, or the run fails.  Times
    come from the fastest traced pass, and the tracing overhead is the
    fastest traced pass over the fastest untraced one.
    """
    commands = WORKLOADS[workload]
    passes, traced_walls, untraced_walls = [], [], []
    start = monotonic()
    while True:
        pair_start = monotonic()
        reports, wall = [], 0.0
        for i, command in enumerate(commands):
            path = OUT / f"trace-{workload}-{i}.json"
            path.unlink(missing_ok=True)
            wall += runner.cli(command, single_worker=True, trace_to=path).wall_s
            if path.exists():
                reports.append(json.loads(path.read_text()))
        passes.append(layer_metrics(reports))
        traced_walls.append(wall)
        untraced_walls.append(sum(runner.cli(c, single_worker=True).wall_s for c in commands))
        now = monotonic()
        if len(passes) >= 2 and now + (now - pair_start) > min(start + seconds, runner.deadline):
            break
    counts = [{k: v for k, v in p.items() if PER_LAYER[k] == "count"} for p in passes]
    if any(c != counts[0] for c in counts):
        runner.errors.append(f"per-layer counts differ between traced passes: {counts}")

    probe = runner.process([sys.executable, str(HERE / "probes.py"), str(runner.seed)])
    if probe.error is not None:
        runner.errors.append(probe.error)
        probe_out = {"metrics": {}, "missing": []}
    else:
        probe_out = json.loads(probe.stdout)
    metrics = passes[traced_walls.index(min(traced_walls))]
    metrics.update(probe_out["metrics"])
    metrics["trace.overhead_ratio"] = min(traced_walls) / min(untraced_walls)
    missing = sorted(set(probe_out["missing"]).union(*(r["absent"] for r in reports)))
    details = {"traced passes": len(passes)}
    if missing:
        details["not in the program, so not measured"] = missing
    return metrics, details


def layer_metrics(reports: list) -> dict:
    """Sum the traced processes' aggregates into the per-layer metrics."""
    agg = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
    counts = Counter()
    cache = Counter()
    absent = set()
    has_cache = False
    for report in reports:
        for name, (calls, total, self_s) in report["agg"].items():
            agg[name][0] += calls
            agg[name][1] += total
            agg[name][2] += self_s
        counts.update(report["counts"])
        cache.update(report["factor_cache"] or {})
        absent.update(report["absent"])
        has_cache = has_cache or report["factor_cache"] is not None

    def layer(prefix: str, field: int):
        return sum(v[field] for name, v in agg.items() if name.startswith(prefix))

    m = {}
    if "gcdlab.engine._prime_factors" not in absent:
        for size in ("spf", "large"):
            m[f"engine.factor_calls.{size}"] = agg[f"engine.factor.{size}"][0]
            m[f"engine.factor_s.{size}"] = agg[f"engine.factor.{size}"][1]
        if has_cache:
            lookups = cache["hits"] + cache["misses"]
            m["engine.factor_cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    if "gcdlab.engine._next_event" not in absent:
        calls, _, self_s = agg["engine._next_event"]
        m["engine.next_event_calls"] = calls
        m["engine.next_event_us"] = 1e6 * self_s / calls if calls else 0.0
    m["engine.naive_steps"] = counts["engine.naive_steps"]
    naive_s = counts["engine.naive_s"]
    m["engine.naive_steps_per_s"] = counts["engine.naive_steps"] / naive_s if naive_s else 0.0
    if "gcdlab.engine._step_until_event" not in absent:
        m["engine.fallback_steps"] = counts["engine.fallback_steps"]
    m["engine.trace_items"] = counts["engine.trace_items"]
    m["engine.run_calls"] = agg["engine.run"][0]
    m["engine.self_s"] = layer("engine.", 2)
    for tier in ("sieve", "det", "random"):
        m[f"primality.calls.{tier}"] = agg[f"primality.is_prime.{tier}"][0]
        m[f"primality.busy_s.{tier}"] = agg[f"primality.is_prime.{tier}"][1]
    m["records.calls"] = layer("records.", 0)
    m["records.self_s"] = layer("records.", 2)
    m["experiments.items"] = counts["experiments.items"]
    m["experiments.self_s"] = layer("experiments.", 2)
    m["cli.self_s"] = agg["cli.dispatch"][2]
    m["cli.import_s"] = statistics.median(r["import_s"] for r in reports) if reports else 0.0
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """One benchmark run: the result object, details about it, and the errors."""
    OUT.mkdir(exist_ok=True)
    runner = Runner(seed)
    values, details = (traced if trace else end_to_end)(runner, workload, seconds)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.errors),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }
    return result, details, runner.errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "gcdlab" / "cli.py").is_file():
        print(f"perfbench: no gcdlab sources under {SRC}", file=sys.stderr)
        return 2
    result, details, errors = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in errors:
        print(f"FAILED {error}")
    for name, unit in (PER_LAYER if args.trace else END_TO_END).items():
        metric = result["metrics"].get(name)
        print(f"{name} = {metric['value']:.6g} {unit}" if metric else f"{name}: absent")
    for key, value in details.items():
        print(f"{key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
