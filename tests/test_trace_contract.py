"""The traced benchmark run wraps engine internals by name; check they exist.

perfbench/tracer.py lists every private name it cannot find under "absent"
and leaves its metrics out of the traced result, so a rename there shows up
here rather than as missing per-layer metrics.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_finds_every_engine_name_it_wraps(tmp_path):
    out = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), "stats", "upsilon-v", "--count", "5"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "x,y"
    report = json.loads(out.read_text())
    assert report["absent"] == []
    assert report["factor_cache"] is not None
    assert report["counts"]["experiments.items"] >= 1
