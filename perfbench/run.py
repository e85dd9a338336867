"""metricpairs benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``.  The timed loop issues the next operation only after the
previous one has finished and been checked against the recorded answer;
input preparation between operations is not timed.  With ``--trace 0``
the last stdout line holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones from a traced replay; the lines before it list every
figure by name and unit.  The exit code is 1 when any answer was wrong
or an operation raised, 2 when the checkout has no library sources.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: imports come next

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARKED = ("census", "exact_hard", "bounds", "cli_docs")
SETUP_SAMPLES = 9  # fresh --setup-only processes whose median is setup_s
MIN_PASSES = 2  # a timed run makes at least this many passes over its operations
CLI_PROBES = 3
BLOCK_S = 0.5  # untraced busy seconds per block of the traced run


class Phase:
    """Outcome of one closed-loop pass."""

    def __init__(self):
        self.ops: list = []
        self.samples: list = []  # (seconds, succeeded) per operation
        self.outcomes: Counter = Counter()
        self.busy = 0.0

    def add(self, other: "Phase") -> None:
        self.samples += other.samples
        self.outcomes += other.outcomes
        self.busy += other.busy

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    def percentile_ms(self, q: float, deadline_s: float) -> float:
        """Nearest-rank percentile; a failed operation counts as slower
        than any success (at the deadline)."""
        ranked = sorted(t if ok else max(t, deadline_s) for t, ok in self.samples)
        return ranked[math.ceil(q * len(ranked)) - 1] * 1e3


def run_phase(wl, deadline_s: float, until=None, replay=None, tracer=None, keep=False) -> Phase:
    """Run the workload's next operations until ``until(phase)`` holds, or
    replay a list of them.

    ``keep`` holds on to the operations so that they can be replayed.
    """
    from workloads import DeadlineExceeded, Refused, WrongAnswer, deadline
    from metricpairs import BudgetExceededError

    phase = Phase()
    source = iter(replay) if replay is not None else None
    while True:
        if source is None:
            if until(phase):
                break
            op = wl.next_op()
        else:
            op = next(source, None)
            if op is None:
                break
        outcome = "ok"
        start = time.perf_counter()
        try:
            with deadline(deadline_s):
                if tracer is None:
                    wl.execute(op)
                else:
                    tracer.op = 0 if tracer.op is None else tracer.op + 1
                    tracer.call("op", wl.execute, op)
        except DeadlineExceeded:
            outcome = "deadline"
        except WrongAnswer as exc:
            outcome = "wrong"
            print(f"wrong answer: {exc}", file=sys.stderr)
        except (BudgetExceededError, Refused):
            outcome = "refused"
        except Exception:
            outcome = "raised"
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        phase.busy += elapsed
        if keep:
            phase.ops.append(op)
        phase.outcomes[outcome] += 1
        phase.samples.append((elapsed, outcome == "ok"))
    return phase


def setup(args, workdir: Path):
    """Build the workload and run its warm-up operations (checked, not
    timed), so that timing starts warm and with a reset workload."""
    from workloads import DEADLINE_S, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, workdir, Path(args.expected_dir))
    warm = run_phase(wl, DEADLINE_S[args.workload], replay=wl.warm_up_ops())
    wl.reset()
    return wl, warm


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process doing the same set-up."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--expected-dir", args.expected_dir, "--setup-only",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def cli_probes() -> dict:
    """Cold start of a command without math, and its import profile."""
    from workloads import cli_env, spawn_cli

    env = cli_env()
    cold, total, numpy_ms = [], [], []
    for i in range(CLI_PROBES):
        start = time.perf_counter()
        code, _, _ = spawn_cli(["sample", "pair", "--seed", str(i)], env)
        cold.append((time.perf_counter() - start) * 1e3)
        if code != 0:
            raise RuntimeError("sample pair failed")
    for i in range(CLI_PROBES):
        _, _, err = spawn_cli(["sample", "pair", "--seed", str(i)], env, ("-X", "importtime"))
        own, np_ms = 0.0, 0.0
        for line in err.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|", 2)
            if not cumulative.strip().isdigit():
                continue
            field = name[1:]
            level = (len(field) - len(field.lstrip())) // 2
            name = field.strip()
            if level == 0 and (name == "metricpairs" or name.startswith("metricpairs.")):
                own += int(cumulative) / 1e3
            if name == "numpy" and not np_ms:
                np_ms = int(cumulative) / 1e3
        total.append(own)
        numpy_ms.append(np_ms)
    return {
        "cli.cold_ms": (statistics.median(cold), "ms"),
        "cli.import_ms": (statistics.median(total), "ms"),
        "cli.numpy_import_ms": (statistics.median(numpy_ms), "ms"),
    }


def mean_gap(wl) -> float:
    """Mean relative width of the bounds intervals, 0 without any."""
    gaps = getattr(wl, "gaps", None)
    return statistics.fmean(gaps) if gaps else 0.0


def fail_frac(phase: Phase) -> float:
    return phase.failed / max(phase.attempted, 1)


def timed_passes(wl, deadline_s: float, seconds: float) -> tuple:
    """Run the workload's first ``pass_size`` operations pass after
    pass: as many passes as fill ``seconds`` at the workload's nominal
    ``pass_seconds``, and at least MIN_PASSES.  The count does not follow
    the machine's speed, so a fast spell does not also buy a run more
    passes to take its best times from.

    Returns every run of every operation, and each operation's best run:
    its shortest time if it succeeded in every pass, else its longest
    time as a failure.  The passes spread over the whole run, so an
    operation's best time is its cost at the fastest moment the shared
    machine gave the run.
    """
    ops = [wl.next_op() for _ in range(wl.pass_size)]
    total, passes = Phase(), []
    for _ in range(max(MIN_PASSES, round(seconds / wl.pass_seconds))):
        phase = run_phase(wl, deadline_s, replay=ops)
        total.add(phase)
        passes.append(phase.samples)
    best = Phase()
    for runs in zip(*passes):
        succeeded = all(ok for _, ok in runs)
        spent = min(t for t, _ in runs) if succeeded else max(t for t, _ in runs)
        best.samples.append((spent, succeeded))
        best.outcomes["ok" if succeeded else "failed"] += 1
        best.busy += spent
    return total, best


def end_to_end(args, wl):
    from workloads import DEADLINE_S

    deadline_s = DEADLINE_S[args.workload]
    phase, best = timed_passes(wl, deadline_s, args.seconds)
    # read before any set-up child runs: for cli_docs the largest CLI child
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_docs" else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss / 1024
    setups = [child_setup_seconds(args) for _ in range(SETUP_SAMPLES)]
    metrics = {
        "ops_per_s": (best.outcomes["ok"] / best.busy, "1/s"),
        "op_ms_p50": (best.percentile_ms(0.5, deadline_s), "ms"),
        "op_ms_p90": (best.percentile_ms(0.9, deadline_s), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "fail_frac": (fail_frac(phase), "frac"),
        "all_runs_ops_per_s": (phase.outcomes["ok"] / phase.busy, "1/s"),
    }
    if wl.name == "cli_docs":
        extra["cli_cold_ms"] = cli_probes()["cli.cold_ms"]
    if wl.name == "bounds":
        extra["bounds_gap"] = (mean_gap(wl), "frac")
    return phase, metrics, extra


def per_layer(args, wl, workdir: Path):
    """Blocks of operations run once untraced and once traced, until half
    the time has run untraced.  The order alternates from block to block
    (untraced first, then traced first), so that a steady drift in the
    machine's speed cancels out of the tracing overhead.

    Each block starts cold on both sides: a census block is one whole
    cache session (its first operation clears the cache), and the other
    workloads clear the cache before every operation or never use it.
    """
    import spans
    from workloads import DEADLINE_S

    deadline_s = DEADLINE_S[args.workload]
    if wl.name == "cli_docs":
        wl.in_process = True  # spans need the CLI inside this process
    session = getattr(wl, "session", None)
    block_done = (lambda p: p.attempted >= session) if session else (lambda p: p.busy >= BLOCK_S)
    plain, traced = Phase(), Phase()
    before = spans.snapshot()
    tracer = spans.Tracer()

    def run_traced(**kwargs) -> Phase:
        tracer.install()
        try:
            return run_phase(wl, deadline_s, tracer=tracer, **kwargs)
        finally:
            tracer.restore()
            if spans.snapshot() != before:
                raise RuntimeError("a traced module attribute was not restored")

    blocks = 0
    while plain.busy < args.seconds / 2:
        if blocks % 2 == 0:
            block = run_phase(wl, deadline_s, until=block_done, keep=True)
            plain.add(block)
            traced.add(run_traced(replay=block.ops))
        else:
            block = run_traced(until=block_done, keep=True)
            traced.add(block)
            plain.add(run_phase(wl, deadline_s, replay=block.ops))
        blocks += 1
    tracer.write(workdir.parent / f"trace-{args.workload}-{args.seed}.jsonl")
    metrics = spans.layer_metrics(tracer, traced.attempted)
    metrics.update(cli_probes())
    metrics.update({
        "oracle.refused": (traced.outcomes["refused"], "count"),
        "oracle.deadline_missed": (traced.outcomes["deadline"], "count"),
        "oracle.wrong": (traced.outcomes["wrong"], "count"),
        "fail_frac": (fail_frac(traced), "frac"),
        "bounds.gap": (mean_gap(wl), "frac"),
        "trace.overhead_frac": (traced.busy / plain.busy - 1, "frac"),
        "trace.spans": (tracer.next_id / max(traced.attempted, 1), "count/op"),
    })
    return traced, metrics, {"untraced_ops_per_s": (plain.attempted / plain.busy, "1/s"),
                             "traced_ops_per_s": (traced.attempted / traced.busy, "1/s")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=BENCHMARKED + ("exact_tail", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected-dir", default=str(HERE / "expected"),
                        help="recorded answers (the self-test points this at corrupted copies)")
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and exit")
    return parser.parse_args(argv)


def run_one(args) -> dict:
    out_root = ROOT / ".perfbench_out"
    workdir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, warm = setup(args, workdir)
        if args.setup_only:
            return {"setup_s": time.perf_counter() - T0}
        if args.trace:
            phase, metrics, extra = per_layer(args, wl, workdir)
        else:
            phase, metrics, extra = end_to_end(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:<10} {name:<40} {value:>14.6g} {unit}")
    print(f"{args.workload:<10} {'attempted':<40} {phase.attempted:>14} ops "
          f"({dict(phase.outcomes)})")
    bad = sum(p.outcomes["wrong"] + p.outcomes["raised"] for p in (warm, phase))
    return {
        "correct": bad == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a fresh process of its own, so that its set-up
    and peak RSS are not another workload's."""
    runs = {}
    for name in BENCHMARKED:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--expected-dir", args.expected_dir,
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"the {name} run exited with code {done.returncode}")
        runs[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {f"{w}.{m}": v for w, r in runs.items() for m, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "metricpairs" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metricpairs

    if Path(metricpairs.__file__).resolve().parent != SRC / "metricpairs":
        print("error: metricpairs was not imported from this checkout", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0 if args.setup_only or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
