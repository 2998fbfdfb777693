"""One benchmark worker: sets up a workload, then runs it when told to.

Started by ``run.py``.  The worker imports the program, generates every
input from the seed, runs one untimed warm-up pass and prints ``READY`` with
the warm-up's busy time, raw and rescaled by its own probes.  It
then reads one line from stdin: ``QUIT`` ends it (set-up is measured several
times), ``RUN`` starts the closed loop.  A single caller runs one job at a
time, each after the previous one ends, in whole rounds until the jobs'
busy time reaches ``--seconds`` and at least 100 jobs ran.  Each output is
checked right after its job, outside the timed call, and only a digest of it
is kept.  The last stdout line is a JSON report for run.py.

Before each job the worker times :func:`probe`, a fixed piece of pure-Python
``Fraction`` work that does not touch the program.  run.py divides job times
by the probe's local speed, because on a shared host the same code runs up
to 1.8x slower for seconds at a time.

With ``--trace 1`` the loop runs for half the time untraced, then the same
jobs run again with the tracer installed; the ratio of the two busy times is
the tracing overhead, and the traced outputs must equal the untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing

ROUNDS = 64  # inputs generated in set-up; at today's speed a run uses about 20
MIN_JOBS = 100  # so the p90 has at least ten samples beyond it
MAX_BUSY_S = 100.0  # stop starting rounds after this much busy time, whatever --seconds says
CLI_WARM_UP_JOBS = 3
PROBE_REF_S = 0.25e-3  # probe() time at the reference machine speed
SPAWN_PROBE_REF_S = 12.5e-3  # spawn_probe() time at the reference machine speed
clock = time.perf_counter


def probe() -> float:
    """Machine slowness now: the time of a fixed piece of interpreter-bound
    work, over its time at the reference speed."""
    start = clock()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 7 + 1, i)
    counts: dict = {}
    for i in range(300):
        counts[i % 17] = counts.get(i % 17, 0) + i
    return (clock() - start) / PROBE_REF_S


def spawn_probe() -> float:
    """Machine slowness now for process start-up: the time to start and end a
    bare interpreter, over its time at the reference speed."""
    start = clock()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return (clock() - start) / SPAWN_PROBE_REF_S


class Raised:
    """The captured result of a job whose call raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Raised({self.text!r})"


def rescaled(latencies: list, slowness: list) -> list:
    """Job times at the reference machine speed: each one divided by the
    median slowness probed around it (two jobs either side)."""
    return [t / statistics.median(slowness[max(0, i - 2):i + 3]) for i, t in enumerate(latencies)]


class Recorder:
    """Latencies, probe times, per-job output digests and failures of one pass."""

    def __init__(self, workload, check: bool = True, probe_speed=None):
        self.workload = workload
        self.check = check
        self.probe_speed = probe_speed or (spawn_probe if workload.name == "cli-session" else probe)
        self.jobs: list = []
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.digests: list[str] = []
        self.failures: list[tuple] = []  # (job index, message)
        self._inputs = hashlib.sha256()
        self._outputs = hashlib.sha256()

    def run(self, jobs: list, calls: list, before=None) -> None:
        """Run prepared calls one at a time; only the program call is timed."""
        for job, call in zip(jobs, calls):
            index = len(self.jobs)
            if before is not None:
                before(index)
            self.probes.append(self.probe_speed())
            gc.collect()  # garbage left by the previous job is not this job's cost
            start = clock()
            try:
                output = call()
            except Exception as exc:  # a failed job is counted, the run goes on
                output = Raised(exc)
            self.latencies.append(clock() - start)
            self.jobs.append(job)
            result = output if isinstance(output, Raised) else self.workload.capture(output)
            self._record(index, job, result)

    def _record(self, index: int, job, result) -> None:
        text = repr(result)
        self.digests.append(hashlib.sha256(text.encode()).hexdigest())
        if index < MIN_JOBS:
            self._inputs.update(repr(job).encode())
            self._outputs.update(text.encode())
        if isinstance(result, Raised):
            self.failures.append((index, result.text))
        elif self.check:
            try:
                message = self.workload.check(job, result)
            except Exception as exc:  # malformed output can break a reference comparison
                message = f"check raised {type(exc).__name__}: {exc}"
            if message:
                self.failures.append((index, message))

    def busy(self) -> float:
        return sum(self.latencies)

    def rescaled_busy(self) -> float:
        return sum(rescaled(self.latencies, self.probes))

    def report(self) -> dict:
        return {
            "attempted": len(self.jobs),
            "failed": len({index for index, _ in self.failures}),
            "failures": [message for _, message in self.failures[:5]],
            "input_digest": self._inputs.hexdigest()[:16],
            "output_digest": self._outputs.hexdigest()[:16],
        }


def make_workload(name: str, seed: int, smoke: bool):
    if name == "cli-session":
        import cli_session

        return cli_session.CliSession(seed, smoke)
    import inprocess

    cls = {"dot-moments": inprocess.DotMoments, "sheffer-inverse": inprocess.ShefferInverse}[name]
    return cls(seed, smoke)


def run_rounds(recorder: Recorder, rounds, stop) -> None:
    """Run whole rounds until ``stop(busy seconds, jobs run)`` holds."""
    for round_jobs in rounds:
        recorder.run(round_jobs, [recorder.workload.prepare(job) for job in round_jobs])
        if stop(recorder.busy(), len(recorder.jobs)):
            break


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.name != "cli-session" else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def until(seconds: float, smoke: bool, cap: float = MAX_BUSY_S):
    """The stop rule for run_rounds: one round in smoke mode, else ``seconds``
    of busy time and MIN_JOBS jobs, or ``cap`` seconds of busy time."""
    if smoke:
        return lambda busy, count: True
    return lambda busy, count: (busy >= seconds and count >= MIN_JOBS) or busy >= cap


def timed_run(workload, rounds, seconds: float, smoke: bool) -> dict:
    recorder = Recorder(workload)
    run_rounds(recorder, rounds, until(seconds, smoke))
    return dict(recorder.report(), latencies=recorder.latencies, probes=recorder.probes,
                peak_rss_mb=peak_rss_mb(workload))


def traced_run(workload, rounds, seconds: float, smoke: bool, workdir: Path, out_dir: Path,
               seed: int) -> dict:
    untraced = Recorder(workload)
    run_rounds(untraced, rounds, until(seconds / 2, smoke, MAX_BUSY_S / 2))
    jobs = untraced.jobs

    tracer = tracing.Tracer()

    def untraced_probe() -> float:  # the probe's arithmetic is neither counted nor slowed
        tracer.suspend()
        try:
            return probe()
        finally:
            tracer.resume()

    traced = Recorder(workload, check=False,
                      probe_speed=None if workload.name == "cli-session" else untraced_probe)
    spans_path = out_dir / f"trace-{workload.name}-{seed}.jsonl"
    spawn_s = 0.0
    if workload.name == "cli-session":
        workload.trace_dir = workdir / "spans"
        workload.trace_dir.mkdir(parents=True)
        workload.workdir = workdir / "traced"
        workload.workdir.mkdir(parents=True)
        traced.run(jobs, [workload.prepare(job) for job in jobs])
        summary = tracer.summary()  # zeros, added to per job
        with open(spans_path, "w", encoding="utf-8") as sink:
            for index, latency in enumerate(traced.latencies):
                try:
                    lines = (workload.trace_dir / f"{index}.jsonl").read_text(encoding="utf-8").splitlines()
                    part = json.loads(lines[-1])["summary"]
                except (OSError, IndexError, KeyError, ValueError):
                    traced.failures.append((index, "traced job left no spans"))
                    continue
                sink.writelines(line + "\n" for line in lines[:-1])
                spawn_s += latency - part["busy"]["cli.main"]
                summary = tracing.merge(summary, part)
    else:
        def before(index):
            tracer.trace_id = index

        calls = [workload.prepare(job) for job in jobs]
        tracer.install()
        try:
            traced.run(jobs, calls, before)
        finally:
            tracer.uninstall()
        tracer.dump(spans_path)
        summary = tracer.summary()

    for index, (first, again) in enumerate(zip(untraced.digests, traced.digests)):
        if first != again:
            traced.failures.append((index, "traced output differs from the untraced run"))
    failures = untraced.failures + traced.failures
    metrics = tracing.layer_metrics(summary, spawn_s, traced.busy(),
                                    traced.rescaled_busy() / untraced.rescaled_busy())
    return {
        "attempted": 2 * len(jobs),
        "failed": len({i for i, _ in untraced.failures}) + len({i for i, _ in traced.failures}),
        "failures": [message for _, message in failures[:5]],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.smoke)
    rounds = workload.rounds(1 if args.smoke else ROUNDS)
    # The warm-up inputs do not depend on the seed, so set-up is the same work for every seed.
    warm_up = make_workload(args.workload, 0, args.smoke).rounds(1, tag=":warm-up")[0]
    if workload.name == "cli-session":
        warm_up = warm_up[:CLI_WARM_UP_JOBS]
        workload.workdir = args.workdir / "warm-up"
        workload.workdir.mkdir(parents=True)
    warm = Recorder(workload, check=False)
    warm.run(warm_up, [workload.prepare(job) for job in warm_up])
    if workload.name == "cli-session":
        shutil.rmtree(workload.workdir)
        for attr in ("workdir", "replay_dir"):
            setattr(workload, attr, args.workdir / attr)
            getattr(workload, attr).mkdir(parents=True)
    # The warm-up is most of set-up; run.py rescales it job by job, like the jobs.
    print("READY", json.dumps({"busy": warm.busy(), "rescaled_busy": warm.rescaled_busy()}), flush=True)

    if sys.stdin.readline().strip() != "RUN":
        return 0
    if args.trace:
        report = traced_run(workload, rounds, args.seconds, args.smoke, args.workdir, args.out_dir, args.seed)
    else:
        report = timed_run(workload, rounds, args.seconds, args.smoke)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
