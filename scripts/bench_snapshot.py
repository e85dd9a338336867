#!/usr/bin/env python3
"""Benchmark snapshot of the checkout this script lives in.

    python3 scripts/bench_snapshot.py

Runs the benchmark command of ``BENCHMARK.json`` on each workload it
declares, for its ``run_seconds`` and with a fixed seed, then once more on
``exact_hard`` with ``--trace 1`` for the per-layer figures, then times
the tier-1 test suite.  Writes ``BENCH_<commit>.json`` at the root of the
checkout: the last JSON line of every run, the suite's wall time and exit
code, the commit (with ``dirty`` set when the tree has uncommitted
changes) and the machine it ran on.  Takes about four minutes.
"""
from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TRACED = "exact_hard"
SUITE = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def bench(command: list, workload: str, seconds: float, trace: int) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    print("$", " ".join(argv), flush=True)
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.exit(f"{workload} run exited with code {done.returncode}:\n{done.stderr}")
    return {"argv": argv, "exit": done.returncode, "result": json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    commit = git("rev-parse", "HEAD")
    runs = {
        wl["name"]: bench(command, wl["name"], seconds, 0) for wl in spec["workloads"]
    }
    runs[f"{TRACED}.trace"] = bench(command, TRACED, seconds, 1)
    print("$", " ".join(SUITE), flush=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    start = time.perf_counter()
    suite = subprocess.run(SUITE, cwd=ROOT, env=env, capture_output=True, text=True)
    suite_s = time.perf_counter() - start
    tail = suite.stdout.strip().splitlines()
    snapshot = {
        "commit": commit,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "seed": SEED,
        "runs": runs,
        "tests": {
            "argv": SUITE[1:],
            "exit": suite.returncode,
            "wall_s": round(suite_s, 2),
            "summary": tail[-1] if tail else "",
        },
    }
    out = ROOT / f"BENCH_{commit[:12]}.json"
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0 if suite.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
