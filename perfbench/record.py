"""Record the expected answers of every workload from the current code.

    python3 perfbench/record.py [census] [exact_hard] [bounds] [cli_docs]

Writes ``perfbench/expected/<workload>.json``.  Run it only when the
answers are meant to change; a changed answer is otherwise a wrong one.
exact_hard admits into its pool only the instances solved within
ADMIT_S here; the others are kept, without an answer, for exact_tail.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import metricpairs as mp  # noqa: E402
from metricpairs import oracle  # noqa: E402
from metricpairs.scalars import format_scalar  # noqa: E402

import instances as inst  # noqa: E402
from workloads import DeadlineExceeded, deadline, run_cli_in_process  # noqa: E402

EXACT_HARD_POOL = 800
ADMIT_S = 1.0
BOUNDS_POOL = 4000
CLI_POOL = 48 * len(inst.CLI_KINDS)


def record_census() -> dict:
    family = mp.enumerate_family()
    out = {"family": inst.family_encoding(family)}
    for variant, solve in (("sum", mp.exact_pair_gh), ("max", mp.exact_pair_gh_max)):
        out[variant] = [
            [format_scalar(solve(a, b, cache=False, shortcut=False).value) for b in family]
            for a in family
        ]
    return out


def _exact_hard_answer(kind, operands):
    if kind == "audit":
        audit = mp.geodesicity_audit(operands[0], budget=inst.HARD_BUDGET)
        return [format_scalar(audit.endpoint_value)] + [format_scalar(r.value) for r in audit.rows]
    solve = mp.exact_tuple_gh if kind == "tuple" else mp.exact_pair_gh
    return format_scalar(solve(*operands, budget=inst.HARD_BUDGET).value)


def record_exact_hard() -> dict:
    rows = []
    for index in range(EXACT_HARD_POOL):
        kind, operands = inst.exact_hard_case(index)
        oracle.clear_cache()
        start = time.perf_counter()
        try:
            with deadline(ADMIT_S):
                answer = _exact_hard_answer(kind, operands)
        except DeadlineExceeded:
            rows.append([None, None])
            continue
        rows.append([round((time.perf_counter() - start) * 1e3, 3), answer])
    return {"admit_s": ADMIT_S, "instances": rows}


def record_bounds() -> dict:
    rows = []
    for index in range(BOUNDS_POOL):
        left, right = inst.bounds_case(index)
        interval = mp.gh_bounds(left, right)
        rows.append([format_scalar(interval.lower), format_scalar(interval.upper)])
    return {"instances": rows}


def record_cli_docs() -> dict:
    rows = []
    work_root = HERE.parent / ".perfbench_out"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        for index in range(CLI_POOL):
            _, argv = inst.cli_case(index, Path(tmp))
            start = time.perf_counter()
            code, out, err = run_cli_in_process(argv)
            ms = round((time.perf_counter() - start) * 1e3, 3)
            if code == 2:
                raise RuntimeError(f"cli case {index} failed: {err.decode()}")
            rows.append([code, hashlib.sha256(out).hexdigest(), ms])
    return {"instances": rows}


RECORDERS = {
    "census": record_census,
    "exact_hard": record_exact_hard,
    "bounds": record_bounds,
    "cli_docs": record_cli_docs,
}


def main(argv) -> int:
    names = argv or list(RECORDERS)
    out_dir = HERE / "expected"
    out_dir.mkdir(exist_ok=True)
    for name in names:
        start = time.perf_counter()
        data = RECORDERS[name]()
        (out_dir / f"{name}.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"{name}: recorded in {time.perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
