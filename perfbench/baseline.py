#!/usr/bin/env python3
"""Record the benchmark's baseline at the current commit.

    python3 perfbench/baseline.py [--seeds N] [--seconds S]

Runs every workload the way the benchmark's contract does, each run a fresh
perfbench/run.py process: untraced once per seed 0..N-1 and traced twice
with the default seed.  It prints every metric by name with its unit, checks
that every output was correct and that the traced counts repeat exactly, and
writes perfbench/baseline.json with:

- the median and quartile spread of each end-to-end metric over the seeds,
  beside the bound BENCHMARK.json fixes for it;
- the per-layer metrics of the first traced run, with the tracing overhead;
- machine notes, the git SHA and the source line count;
- the re-anchor figures of ROADMAP.md beside the closest command's fastest
  unscaled wall time measured here.

It takes about 25 minutes with 10 seeds on 2 cores.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys

from run import END_TO_END, HERE, PER_LAYER, ROOT, SRC
from workloads import DEFAULT_SEED, WORKLOADS

# Figures of the ROADMAP.md re-anchor (single worker), each with the metric or
# command time of this benchmark that is closest to it.
ROADMAP_REANCHOR = {
    "upsilon_v(140) s": (12.4, "stats upsilon-v --count 60"),
    "estimate_L_alpha 1000 samples s": (2.9, "stats lalpha --samples 800 --seed {seed}"),
    "triplet scan to 5000 s": (1.2, "scan triplet --n-hi 6000 --workers 2"),
    "goldbach-constant to 20000 s": (1.2, "stats goldbach-constant --n-hi 20000"),
    "scan beatty --n-hi 5000 s": (11.4, "scan beatty --n-hi 2000"),
    "first SPF table build s": (0.31, "engine.spf_build_s"),
}


def _machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "sympy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "cores": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        **versions,
        "absent_modules": [m for m in ("gmpy2", "numba") if importlib.util.find_spec(m) is None],
    }


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _src_loc() -> int:
    return sum(
        sum(1 for _ in open(os.path.join(d, f), encoding="utf-8"))
        for d, _, files in os.walk(SRC)
        for f in files
        if f.endswith(".py")
    )


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of run.py: its result object, and the details printed before it."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(int(trace))]
    lines = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    details = {"errors": [line for line in lines if line.startswith("FAILED")]}
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        try:
            details[key] = json.loads(value)
        except ValueError:
            pass
    return json.loads(lines[-1]), details


def _spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    workloads = {}
    for workload in WORKLOADS:
        runs, walls = [], {}
        for seed in range(args.seeds):
            result, details = measure(workload, seed, seconds, trace=False)
            ok &= result["correct"]
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            for cmd, wall in details["wall_s per command"].items():
                walls.setdefault(cmd, []).extend(wall)
            scaling = {k: details[k] for k in ("unscaled", "host speed over the reference")}
            print(workload, seed, json.dumps(runs[-1]), json.dumps(scaling), *details["errors"], flush=True)
        end_to_end = {}
        for name, unit in END_TO_END.items():
            values = [r[name] for r in runs]
            end_to_end[name] = {
                "median": statistics.median(values),
                "unit": unit,
                "spread": _spread(values) if len(values) > 1 else None,
                "bound": bounds[name],
                "values": values,
            }
            print(f"{workload} {name} = {end_to_end[name]['median']:.6g} {unit}, spread {end_to_end[name]['spread']}")

        traced = [measure(workload, DEFAULT_SEED, seconds, trace=True) for _ in range(2)]
        for result, details in traced:
            ok &= result["correct"]
            print(workload, "traced", *details["errors"])
        first, second = (t[0]["metrics"] for t in traced)
        counts_repeat = all(
            first[name]["value"] == second[name]["value"]
            for name, unit in PER_LAYER.items()
            if unit == "count" and name in first
        )
        ok &= counts_repeat
        for name, metric in first.items():
            print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
        workloads[workload] = {
            "commands": [" ".join(c.args) for c in WORKLOADS[workload]],
            "end_to_end": end_to_end,
            "fastest_wall_s_per_command": {cmd: min(w) for cmd, w in walls.items()},
            "per_layer": {name: m["value"] for name, m in first.items()},
            "per_layer_counts_repeat": counts_repeat,
            "tracing_overhead_ratio": first["trace.overhead_ratio"]["value"],
        }

    measured = {cmd: w for wl in workloads.values() for cmd, w in wl["fastest_wall_s_per_command"].items()}
    measured["engine.spf_build_s"] = statistics.median(
        wl["per_layer"]["engine.spf_build_s"] for wl in workloads.values()
    )
    baseline = {
        "git_sha": _git_sha(),
        "src_loc": _src_loc(),
        "machine": _machine(),
        "seeds": list(range(args.seeds)),
        "seed_note": "the seed only picks the stats lalpha sample; every other command is a fixed input and ignores it",
        "run_seconds": seconds,
        "all_outputs_correct": ok,
        "workloads": workloads,
        "roadmap_reanchor": {
            name: {"roadmap": figure, "closest_here": key, "measured": measured.get(key)}
            for name, (figure, key) in ROADMAP_REANCHOR.items()
        },
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print("all outputs correct and counts repeat" if ok else "FAILED: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
