"""The library names the benchmark's tracer wraps still exist.

``perfbench/spans.py`` replaces module attributes by dotted path; a
rename in the library would otherwise fail only in a traced benchmark
run.  Resolving them here is quick.
"""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from metricpairs import oracle
from metricpairs.spaces import FiniteMetricSpace, MetricPair

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    spans = _spans()
    missing = []
    for module, path, _name, _hooks in spans.TARGETS:
        try:
            owner, attr = spans.resolve(module, path)
            if not callable(getattr(owner, attr)):
                missing.append(f"{module}.{path} is not callable")
        except (AttributeError, ImportError) as exc:
            missing.append(f"{module}.{path}: {exc}")
    assert missing == []


def test_cache_hooks_exist():
    """The benchmark clears and sizes the cache, which no longer exists, and
    ``perfbench/record.py`` still passes ``cache=False``."""
    oracle.clear_cache()
    assert oracle.cache_size() == 0
    pair = MetricPair(FiniteMetricSpace.from_matrix([[0, 1], [1, 0]]), (0,))
    assert oracle.exact_pair_gh(pair, pair, cache=False, shortcut=False).value == 0


def test_gated_workloads_reproduce_their_recorded_answers():
    """Every recorded ``cli_docs`` exit code and stdout digest and every
    ``exact_hard`` answer, recomputed by ``scripts/check_answers.py``.
    No bytecode is written, so ``perfbench/`` is only read."""
    result = subprocess.run(
        [sys.executable, "scripts/check_answers.py", "cli_docs", "exact_hard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
