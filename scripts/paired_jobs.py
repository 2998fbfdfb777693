#!/usr/bin/env python3
"""Time the benchmark's in-process job kinds on a git revision and on the
working tree, job by job, in two worker processes.

One worker imports the package from ``git archive <rev>`` of ``src/``, the
other from this tree's ``src/``.  Both build the same seeded rounds of one
ladder of ``perfbench/inprocess.py`` (this tree's, shared by both sides) and
run each job through the workload's own ``prepare`` and ``capture``: one
untimed pass over the first round, then a ``gc.collect()`` before each timed
call.  The harness sends each job to both sides in turn, the revision first
on even jobs and the tree first on odd ones, and stops with exit 1 if the
two captured outputs differ.  It prints, per job kind, the mean ms on each
side and their ratio (above 1: the tree is faster), the 90th-percentile ms
on each side (``statistics.quantiles``, as the benchmark's ``job_p90_ms``)
and the share of jobs the tree ran faster, then the same over all jobs.  Each DSL
template of ``evaluate`` gets its own row (``evaluate:corr``, ...), so a
change to one evaluator route shows where its time went, and so does each
operand kind of ``dot`` and ``cumulant`` (``dot:x/builtin``,
``cumulant:umbra``, ...), so jobs on a shared builtin show apart from jobs
on a fresh umbra.

Usage: python scripts/paired_jobs.py [--rev REV] [--workload NAME]
       [--seed N] [--rounds N] [--smoke]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dot-moments", "sheffer-inverse")


def kind_of(job: tuple) -> str:
    """A job's row: its kind, and for ``evaluate`` its DSL template too
    (``evaluate:corr``), since each template takes its own evaluator route;
    for ``dot`` and ``cumulant`` the kinds of its operands (``dot:x/builtin``),
    since a builtin is shared and remembers its cumulants."""
    if job[0] == "evaluate":
        return f"evaluate:{job[1][0]}"
    if job[0] == "dot":
        return f"dot:{job[1][0]}/{job[2][0]}"
    if job[0] == "cumulant":
        return f"cumulant:{job[1][0]}"
    return job[0]


def serve(src: str, workload: str, seed: int, rounds: int, smoke: bool) -> None:
    """The worker: build the rounds, then run job i for each line i on stdin,
    answering with one JSON line of the call's ms and the captured output."""
    import gc
    import time

    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import inprocess

    kind = {cls.name: cls for cls in (inprocess.DotMoments, inprocess.ShefferInverse)}[workload]
    bench = kind(seed, smoke=smoke)
    jobs = [job for jobs in bench.rounds(rounds) for job in jobs]
    for job in jobs[: len(bench.LADDER)]:  # untimed warm-up: imports, caches
        bench.prepare(job)()
    print(json.dumps([kind_of(job) for job in jobs]), flush=True)
    for line in sys.stdin:
        job = jobs[int(line)]
        call = bench.prepare(job)
        gc.collect()
        start = time.perf_counter()
        try:
            output = call()
        except Exception as exc:  # both sides must raise alike
            ms, out = (time.perf_counter() - start) * 1e3, f"raised {type(exc).__name__}: {exc}"
        else:
            ms, out = (time.perf_counter() - start) * 1e3, repr(bench.capture(output))
        print(json.dumps([ms, out]), flush=True)


def p90(values: list[float]) -> float:
    """The 90th percentile, as ``perfbench/run.py`` takes it for ``job_p90_ms``."""
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


class Side:
    """One worker process and the ms it spent on each job."""

    def __init__(self, label: str, src: Path, args):
        self.label = label
        argv = [sys.executable, __file__, "--serve", str(src), "--workload", args.workload,
                "--seed", str(args.seed), "--rounds", str(args.rounds)] + (["--smoke"] if args.smoke else [])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.kinds = json.loads(self._line())
        self.ms: dict[int, float] = {}

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the {self.label} worker ended early (exit {self.proc.wait()})")
        return line

    def run(self, index: int) -> str:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        self.ms[index], out = json.loads(self._line())
        return out

    def __enter__(self) -> "Side":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def archived_src(rev: str, into: str) -> Path:
    """Extract ``src/`` of ``rev`` into the directory ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return Path(into) / "src"


def row(label: str, jobs, base: Side, tree: Side, per: int) -> str:
    """One line of the table: each side's ms over ``jobs``, summed and divided
    by ``per``, and their ratio; each side's p90; the share the tree won."""
    a, b = ([side.ms[i] for i in jobs] for side in (base, tree))
    won = sum(map(float.__lt__, b, a)) / len(a)
    return (f"{label:<22} {sum(a) / per:12.3f} {sum(b) / per:12.3f} {sum(a) / sum(b):7.3f} "
            f"{p90(a):12.3f} {p90(b):12.3f} {won:8.2f}")


def compare(args) -> int:
    with tempfile.TemporaryDirectory() as tmp, Side(args.rev, archived_src(args.rev, tmp), args) as base, \
            Side("tree", ROOT / "src", args) as tree:
        kinds = base.kinds
        for index, kind in enumerate(kinds):
            first, second = (base, tree) if index % 2 == 0 else (tree, base)
            outputs = {side.label: side.run(index) for side in (first, second)}
            if outputs[base.label] != outputs[tree.label]:
                print(f"job {index} ({kind}): outputs differ\n{args.rev}: {outputs[base.label][:400]}\n"
                      f"tree: {outputs[tree.label][:400]}", file=sys.stderr)
                return 1
    print(f"{args.workload}, seed {args.seed}, {args.rounds} round(s), {len(kinds)} jobs; "
          f"outputs equal on both sides")
    print(f"{'kind':<22} {args.rev + ' ms':>12} {'tree ms':>12} {'ratio':>7} "
          f"{args.rev + ' p90':>12} {'tree p90':>12} {'tree won':>8}")
    by_kind = {kind: [i for i, k in enumerate(kinds) if k == kind] for kind in kinds}
    for kind in sorted(by_kind, key=lambda k: -sum(base.ms[i] for i in by_kind[k])):
        print(row(kind, by_kind[kind], base, tree, len(by_kind[kind])))
    print(row("total (ms)", range(len(kinds)), base, tree, 1))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="the git revision to compare the tree with (default HEAD)")
    parser.add_argument("--workload", default="sheffer-inverse", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--smoke", action="store_true", help="orders capped at 5, as in the benchmark's smoke runs")
    parser.add_argument("--serve", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.serve:
        serve(args.serve, args.workload, args.seed, args.rounds, args.smoke)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
