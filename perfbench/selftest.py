"""Self-test of the benchmark itself, a short run of every workload.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, that a corrupted expected answer is caught (failures counted, exit
code nonzero), and that every wrapped module attribute is restored after
a traced run.  Exits nonzero on the first failed check.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

SECONDS = "1"


def _invoke(*extra) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "7", "--seconds", SECONDS, *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None, done


def _check_metrics(result: dict, declared: list, label: str) -> None:
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{label}: result keys are {sorted(result)}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} differ from BENCHMARK.json {want}")


def _corrupt(workload: str, directory: Path) -> None:
    path = directory / f"{workload}.json"
    data = json.loads(path.read_text())
    if workload == "census":
        for variant in ("sum", "max"):
            data[variant] = [["-1"] * len(row) for row in data[variant]]
    elif workload == "exact_hard":
        data["instances"] = [[ms, None if ms is None else "-1"] for ms, _ in data["instances"]]
    elif workload == "bounds":
        data["instances"] = [["-1", "-1"] for _ in data["instances"]]
    else:
        data["instances"] = [[code, "0" * 64, ms] for code, _, ms in data["instances"]]
    path.write_text(json.dumps(data))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_root = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(work_root, ignore_errors=True)
    for workload in run.BENCHMARKED:  # every workload, also those BENCHMARK.json leaves out
        code, result, done = _invoke("--workload", workload, "--trace", "0")
        if code != 0 or not result["correct"] or result["failed"]:
            raise AssertionError(f"{workload}: clean run failed\n{done.stderr}")
        _check_metrics(result, bench["end_to_end"], f"{workload} --trace 0")

        code, result, done = _invoke("--workload", workload, "--trace", "1")
        if code != 0:
            raise AssertionError(f"{workload}: traced run failed\n{done.stderr}")
        _check_metrics(result, bench["per_layer"], f"{workload} --trace 1")

        corrupted = work_root / workload
        shutil.copytree(HERE / "expected", corrupted)
        _corrupt(workload, corrupted)
        code, result, done = _invoke("--workload", workload, "--trace", "0",
                                     "--expected-dir", str(corrupted))
        if code == 0 or result["correct"] or result["failed"] == 0:
            raise AssertionError(f"{workload}: corrupted answers were not caught")

        before = spans.snapshot()
        with contextlib.redirect_stdout(io.StringIO()):
            run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", "1"])
        if spans.snapshot() != before:
            raise AssertionError(f"{workload}: a wrapped attribute was left in place")
        print(f"{workload}: metrics, corrupted answers and restore ok", flush=True)
    shutil.rmtree(work_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
