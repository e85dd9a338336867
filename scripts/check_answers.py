#!/usr/bin/env python3
"""Recompute every recorded benchmark answer and compare, writing nothing.

    python3 scripts/check_answers.py [census] [exact_hard] [bounds] [cli_docs]

Run from the root of a checkout: the library comes from ``src/`` and the
instances and recorded answers from ``perfbench/``, which are only read
(``perfbench/record.py`` overwrites ``perfbench/expected/`` instead).
With no arguments all four workloads are checked:

- ``census``: every exact pair value of the 3-point family, both variants,
  solved as the recording solves them (``shortcut=False``);
- ``exact_hard``: every instance with a recorded answer, each solved as
  the benchmark solves it, pairs and tuples with their certificates
  checked, audits by their row values;
- ``bounds``: every ``gh_bounds`` interval;
- ``cli_docs``: every command's exit code and stdout sha256, run in
  process.

Prints the checked and mismatched counts per workload and the first
mismatches, and exits 1 on any mismatch.  Takes a few minutes.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import metricpairs as mp  # noqa: E402
from metricpairs.scalars import format_scalar  # noqa: E402

import instances as inst  # noqa: E402
from workloads import WrongAnswer, check_certificate, load_expected, run_cli_in_process  # noqa: E402

SHOWN = 5


def census():
    data = load_expected("census")
    family = mp.enumerate_family()
    yield "family", inst.family_encoding(family), data["family"]
    for variant, solve in (("sum", mp.exact_pair_gh), ("max", mp.exact_pair_gh_max)):
        for i, a in enumerate(family):
            for j, b in enumerate(family):
                got = format_scalar(solve(a, b, shortcut=False).value)
                yield f"{variant} {i},{j}", got, data[variant][i][j]


def exact_hard():
    for index, (_, want) in enumerate(load_expected("exact_hard")["instances"]):
        if want is None:
            continue
        kind, operands = inst.exact_hard_case(index)
        if kind == "audit":
            audit = mp.geodesicity_audit(operands[0], budget=inst.HARD_BUDGET)
            got = [format_scalar(audit.endpoint_value)]
            got += [format_scalar(row.value) for row in audit.rows]
        else:
            solve = mp.exact_tuple_gh if kind == "tuple" else mp.exact_pair_gh
            result = solve(*operands, budget=inst.HARD_BUDGET)
            try:
                check_certificate(result)
                got = format_scalar(result.value)
            except WrongAnswer as exc:
                got = str(exc)
        yield f"{kind} #{index}", got, want


def bounds():
    for index, want in enumerate(load_expected("bounds")["instances"]):
        interval = mp.gh_bounds(*inst.bounds_case(index))
        yield f"bounds #{index}", [format_scalar(interval.lower), format_scalar(interval.upper)], want


def cli_docs():
    with tempfile.TemporaryDirectory() as tmp:
        for index, (code, sha, _) in enumerate(load_expected("cli_docs")["instances"]):
            kind, argv = inst.cli_case(index, Path(tmp))
            got_code, out, _ = run_cli_in_process(argv)
            yield f"{kind} #{index}", [got_code, hashlib.sha256(out).hexdigest()], [code, sha]


CHECKS = {"census": census, "exact_hard": exact_hard, "bounds": bounds, "cli_docs": cli_docs}


def main(argv) -> int:
    unknown = [name for name in argv if name not in CHECKS]
    if unknown:
        sys.exit(f"unknown workload {unknown[0]!r}; choose from {', '.join(CHECKS)}")
    failed = False
    for name in argv or list(CHECKS):
        start = time.perf_counter()
        checked, wrong = 0, []
        for what, got, want in CHECKS[name]():
            checked += 1
            if got != want:
                wrong.append(f"  {what}: got {got!r}, recorded {want!r}")
        seconds = time.perf_counter() - start
        print(f"{name}: {checked} checked, {len(wrong)} mismatched ({seconds:.1f} s)", flush=True)
        print("\n".join(wrong[:SHOWN]), end="\n" if wrong else "", flush=True)
        failed = failed or bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
