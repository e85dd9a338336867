"""The benchmark workloads: seeded inputs, one operation each, answer checks.

A workload hands out operations with ``next_op()`` (input preparation,
never timed), a few untimed ones with ``warm_up_ops()``, and runs one
with ``execute(op)``, which raises ``WrongAnswer`` when the output
disagrees with the recorded answer or fails its certificate.  A timed
run takes the first ``pass_size`` operations and runs them again and
again, one pass after another; ``pass_seconds``, the busy time of a
pass on a shared 2-core x86-64 VM, sets how many passes fill a run.
The library is reached only through its public API and its CLI, and
always through a module attribute looked up at call time, so the tracer
can wrap it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import metricpairs as mp
from metricpairs import cli, oracle
from metricpairs.scalars import format_scalar

import instances as inst

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
# per-operation deadline, enforced by the benchmark: SIGALRM in process,
# the same alarm around the wait for a CLI child, which is then killed
DEADLINE_S = {"census": 5.0, "exact_hard": 5.0, "exact_tail": 5.0, "bounds": 5.0, "cli_docs": 30.0}
# exact_hard pool: instances the recording solved within this many ms
POOL_MS = 300
# cli_docs pool: exact and tuple solves the recording ran in process
# within this many ms (the other commands have no search tail)
CLI_SOLVE_POOL_MS = 250
CLI_ROUNDS = 3
# one round of cli_docs: every kind once, the slowest (cassorla_run) twice
CLI_ROUND = inst.CLI_KINDS + ("cassorla_run",)


class WrongAnswer(Exception):
    """Output disagrees with the recorded answer or its certificate."""


class Refused(Exception):
    """The program declined the operation (a budget refusal)."""


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a BaseException so library handlers pass it on."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def load_expected(name: str, directory: Path = EXPECTED_DIR):
    return json.loads((directory / f"{name}.json").read_text(encoding="utf-8"))


def _expect(got, want, what: str) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {got!r}, recorded {want!r}")


def check_certificate(result) -> None:
    report = result.certificate_report()
    if not report["achieves_value"] or report["violations"]:
        raise WrongAnswer("certificate does not reconstruct the value")


class Census:
    """Exact solves on ordered pairs of the 3-point family; about half of
    the operands are relabellings of earlier draws.

    The cache is cleared at the start of every session of ``session``
    operations, and a timed pass is one session, so every pass sees the
    same hits.
    """

    name = "census"
    session = 2000
    pass_size = session
    pass_seconds = 2.0

    def __init__(self, seed: int, workdir: Path, expected_dir: Path = EXPECTED_DIR):
        data = load_expected("census", expected_dir)
        self.family = mp.enumerate_family()
        if inst.family_encoding(self.family) != data["family"]:
            raise RuntimeError("enumerate_family() no longer matches the recorded family")
        self.answers = {"sum": data["sum"], "max": data["max"]}
        self.rng = random.Random(f"census:{seed}")
        self.drawn: list = []
        self.count = 0

    def reset(self) -> None:
        oracle.clear_cache()

    def _operand(self):
        if self.drawn and self.rng.random() < 0.5:
            idx = self.rng.choice(self.drawn)
            return idx, mp.random_permuted_pair(self.rng, self.family[idx])
        idx = self.rng.randrange(len(self.family))
        self.drawn.append(idx)
        return idx, self.family[idx]

    def next_op(self):
        variant = self.rng.choice(("sum", "max"))
        cold = self.count % self.session == 0
        self.count += 1
        return variant, self._operand(), self._operand(), cold

    def warm_up_ops(self) -> list:
        ops = [self.next_op() for _ in range(50)]
        self.count = 0
        return ops

    def execute(self, op) -> None:
        variant, (ia, left), (ib, right), cold = op
        if cold:
            oracle.clear_cache()
        solve = mp.exact_pair_gh if variant == "sum" else mp.exact_pair_gh_max
        result = solve(left, right)
        check_certificate(result)
        _expect(format_scalar(result.value), self.answers[variant][ia][ib], f"{variant} {ia},{ib}")


def _stratified(ranked: list, m: int, rng: random.Random) -> list:
    """m cases from ``ranked`` (case ids ranked by cost): one from each of
    m equal strata, at the same seeded offset within each, in a seeded
    order.  Every seed gets other cases but the same spread of costs."""
    offset = rng.random()
    picks = [ranked[int((j + offset) * len(ranked) / m)] for j in range(m)]
    rng.shuffle(picks)
    return picks


class ExactHard:
    """Large exact solves: 5- and 6-point pairs, 2-level tuples and
    geodesicity audits.  A pass runs every instance of the pool once, in
    an order drawn from the seed, so that the heavy end of the pool,
    which decides the 90th percentile, is the same for every seed.

    ``tail=True`` runs the instances the pool leaves out instead: those
    the recording solved in more than POOL_MS or not within its limit.
    The latter have no recorded answer; only certificates are checked.
    They take seconds each, so a pass takes eight of each kind, ranked
    by recorded solve time and stratified by that rank, kinds rotating.
    """

    name = "exact_hard"

    def __init__(self, seed: int, workdir: Path, expected_dir: Path = EXPECTED_DIR, tail: bool = False):
        data = load_expected("exact_hard", expected_dir)
        self.answers = {}
        by_kind = {kind: [] for kind in inst.EXACT_HARD_KINDS}
        for index, (ms, answer) in enumerate(data["instances"]):
            if (ms is not None and ms <= POOL_MS) == tail:
                continue
            kind = inst.EXACT_HARD_KINDS[index % len(inst.EXACT_HARD_KINDS)]
            by_kind[kind].append((math.inf if ms is None else ms, index))
            self.answers[index] = answer
        rng = random.Random(f"exact_hard:{seed}")
        ranked = [[index for _, index in sorted(lane)] for lane in by_kind.values() if lane]
        if tail:
            lanes = [_stratified(lane, 8, rng) for lane in ranked]
            self.cases = [index for group in zip(*lanes) for index in group]
        else:
            self.cases = rng.sample(sorted(self.answers), len(self.answers))
        self.easiest = [lane[0] for lane in ranked]  # the warm-up, the same for every seed
        self.pass_size = len(self.cases)
        self.pass_seconds = 30.0 if tail else 24.0
        self.count = 0

    def reset(self) -> None:
        oracle.clear_cache()

    def next_op(self):
        index = self.cases[self.count % len(self.cases)]
        self.count += 1
        kind, operands = inst.exact_hard_case(index)
        return index, kind, operands

    def warm_up_ops(self) -> list:
        return [(index,) + inst.exact_hard_case(index) for index in self.easiest]

    def execute(self, op) -> None:
        index, kind, operands = op
        want = self.answers[index]
        oracle.clear_cache()  # every operation starts cold, whatever ran before it
        if kind == "audit":
            audit = mp.geodesicity_audit(operands[0], budget=inst.HARD_BUDGET)
            got = [format_scalar(audit.endpoint_value)]
            got += [format_scalar(row.value) for row in audit.rows]
        else:
            solve = mp.exact_tuple_gh if kind == "tuple" else mp.exact_pair_gh
            result = solve(*operands, budget=inst.HARD_BUDGET)
            check_certificate(result)
            got = format_scalar(result.value)
        if want is not None:
            _expect(got, want, f"{kind} #{index}")


class Bounds:
    """gh_bounds on distinct pairs of 3 to 16 points.  One operation in
    four takes a small grid (exhaustive distortion search), the others a
    large one (local search), so the median latency falls inside the
    large-grid spread rather than on the gap between the two.  Within
    each kind the cases are ranked by grid size and a pass takes 50
    small and 150 large ones, stratified by that rank (``_stratified``).
    The warm-up runs the same eight cases for every seed."""

    name = "bounds"
    pass_size = 200
    pass_seconds = 3.0

    def __init__(self, seed: int, workdir: Path, expected_dir: Path = EXPECTED_DIR):
        self.answers = load_expected("bounds", expected_dir)["instances"]
        rng = random.Random(f"bounds:{seed}")
        by_kind = ([], [])  # small grids at even indices, large at odd ones
        for index in range(len(self.answers)):
            nx, ny = inst.bounds_grid(index)
            by_kind[index % 2].append((nx * ny, index))
        self.small, self.large = (
            _stratified([index for _, index in sorted(ranked)], m, rng)
            for ranked, m in zip(by_kind, (self.pass_size // 4, self.pass_size * 3 // 4))
        )
        self.count = 0
        self.gaps: list = []

    def reset(self) -> None:
        oracle.clear_cache()
        self.gaps = []

    def next_op(self):
        quarter, turn = divmod(self.count, 4)
        if turn == 0:
            index = self.small[quarter % len(self.small)]
        else:
            index = self.large[(3 * quarter + turn - 1) % len(self.large)]
        self.count += 1
        return (index,) + inst.bounds_case(index)

    def warm_up_ops(self) -> list:
        return [(index,) + inst.bounds_case(index) for index in range(8)]

    def execute(self, op) -> None:
        index, left, right = op
        interval = mp.gh_bounds(left, right)
        upper = interval.upper
        self.gaps.append(0 if upper == 0 else float((upper - interval.lower) / upper))
        got = [format_scalar(interval.lower), format_scalar(upper)]
        _expect(got, self.answers[index], f"bounds #{index}")


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(mp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_cli(argv: list, env: dict, extra_flags: tuple = ()) -> tuple:
    """Run ``python -m metricpairs argv`` as a fresh process.

    Returns (exit code, stdout bytes, stderr bytes).  The caller's
    deadline alarm can interrupt the wait; ``subprocess.run`` then kills
    and reaps the child before the exception goes on.
    """
    done = subprocess.run(
        [sys.executable, *extra_flags, "-m", "metricpairs", *argv], capture_output=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


def run_cli_in_process(argv: list) -> tuple:
    """``cli.main(argv)`` with a cold oracle cache, as a fresh process has."""
    oracle.clear_cache()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


class CliDocs:
    """One fresh ``python -m metricpairs`` process per operation over
    seeded documents.  Operations go in rounds of CLI_ROUND: with the
    slowest command twice in a round (2 of 9 operations), the 90th
    percentile falls inside its spread rather than on the step between it
    and the other commands.  Each command's cases are ranked by the run
    time recorded for them and drawn in strata (``_stratified``).

    Exact and tuple solves are drawn only from the cases the recording
    ran within CLI_SOLVE_POOL_MS.  That leaves out the few of the search
    tail (3 of 48 of each kind), up to 1.3 s each, whose presence in a
    run or not would move its figures by more than the start-up cost this
    workload is about; ``--workload exact_tail`` runs the search tail.
    """

    name = "cli_docs"
    warm_up_case = inst.CLI_KINDS.index("validate")  # the same for every seed

    def __init__(self, seed: int, workdir: Path, expected_dir: Path = EXPECTED_DIR):
        self.answers = load_expected("cli_docs", expected_dir)["instances"]
        self.docs = workdir / "docs"
        self.docs.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"cli_docs:{seed}")
        nkinds = len(inst.CLI_KINDS)
        draws = {}
        for k, kind in enumerate(inst.CLI_KINDS):
            pool = sorted(
                (self.answers[i][2], i) for i in range(k, len(self.answers), nkinds)
                if kind not in ("gh_exact", "gh_tuple") or self.answers[i][2] <= CLI_SOLVE_POOL_MS
            )
            ranked = [i for _, i in pool]
            draws[kind] = iter(_stratified(ranked, CLI_ROUNDS * CLI_ROUND.count(kind), rng))
        self.cases = [
            (index,) + inst.cli_case(index, self.docs)
            for _ in range(CLI_ROUNDS)
            for index in (next(draws[kind]) for kind in CLI_ROUND)
        ]
        self.pass_size = len(self.cases)
        self.pass_seconds = 8.0
        self.env = cli_env()
        self.in_process = False
        self.count = 0

    def reset(self) -> None:
        oracle.clear_cache()

    def next_op(self):
        case = self.cases[self.count % len(self.cases)]
        self.count += 1
        return case

    def warm_up_ops(self) -> list:
        return [(self.warm_up_case,) + inst.cli_case(self.warm_up_case, self.docs)]

    def execute(self, op) -> None:
        index, kind, argv = op
        if self.in_process:
            code, out, err = run_cli_in_process(argv)
        else:
            code, out, err = spawn_cli(argv, self.env)
        want_code, want_sha, _ = self.answers[index]
        if code == 2 and b"budget" in err:
            raise Refused(err.decode("utf-8", "replace").strip())
        _expect(code, want_code, f"{kind} #{index} exit code")
        _expect(hashlib.sha256(out).hexdigest(), want_sha, f"{kind} #{index} stdout")


WORKLOADS = {
    "census": Census,
    "exact_hard": ExactHard,
    "exact_tail": lambda seed, workdir, expected_dir=EXPECTED_DIR: ExactHard(
        seed, workdir, expected_dir, tail=True
    ),
    "bounds": Bounds,
    "cli_docs": CliDocs,
}
