"""Benchmark entry point for the umbralcalc engine.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {cli-session,dot-moments,sheffer-inverse}
        --seed N --seconds S --trace {0,1} [--smoke]

The run byte-compiles ``src/``, pins itself and its children to one CPU,
then starts a worker process three times and times each start up to the
worker's ``READY`` (interpreter start, import, input generation and one
untimed warm-up pass); ``setup_s`` is the median.  The last worker runs the
closed loop and checks every output.  Every time is rescaled to a reference
machine speed by speed probes taken around it (see worker.py).

Stdout ends with two lines: a JSON summary (environment, job count,
``failed_ratio``, input and output digests, first failures) and then the
result object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run.  A record of the run and the trace
spans are written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import probe, rescaled, spawn_probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("cli-session", "dot-moments", "sheffer-inverse")
SETUPS = 3
DEADLINE_S = 170.0  # the whole run, so the process ends within 180 s
PROBES_AROUND_SETUP = 5


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "pythonhashseed": "0",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("UMBRA_WORKSPACE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], max(timeout, 0.0))
    return proc.stdout.readline().strip() if ready else ""


def end_to_end(report: dict, setups: list) -> dict:
    """The end-to-end metrics from a worker report and the set-up times.

    Job times are rescaled to the reference machine speed, so seconds-long
    swings in the speed of a shared host cancel out.
    """
    latencies = rescaled(report["latencies"], report["probes"])
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "jobs_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "job_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "job_p90_ms": {"value": 1000 * p90, "unit": "ms"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def timed_start(command: list, began: float, speed_probe) -> tuple:
    """Start a worker; return it and its set-up time up to READY at the
    reference speed.  The warm-up comes rescaled job by job from the worker;
    the rest of set-up is rescaled by ``speed_probe`` readings taken just
    before and just after, the kind of probe the workload's jobs use."""
    before = [speed_probe() for _ in range(PROBES_AROUND_SETUP)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    line = read_line(proc, DEADLINE_S - (time.perf_counter() - began))
    elapsed = time.perf_counter() - start
    after = [speed_probe() for _ in range(PROBES_AROUND_SETUP)]
    if not line.startswith("READY "):
        return proc, None
    warm_up = json.loads(line[len("READY "):])
    rest = elapsed - warm_up["busy"]
    return proc, rest / statistics.median(before + after) + warm_up["rescaled_busy"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="umbralcalc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small round, one set-up")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "umbralcalc" / "__init__.py").is_file():
        print(f"perfbench: no umbralcalc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    try:
        # One CPU for this process and every child, so the speed probes and
        # the jobs run on the same core.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # unpinned: the probes still track the machine, with more noise

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(OUT)] + (["--smoke"] if args.smoke else [])
    setup_count = 1 if args.smoke else SETUPS
    speed_probe = spawn_probe if args.workload == "cli-session" else probe
    setups: list[float] = []
    procs: list[subprocess.Popen] = []
    try:
        for i in range(setup_count):
            proc, setup = timed_start(command + ["--workdir", str(workdir / f"setup-{i}")], began,
                                      speed_probe)
            procs.append(proc)
            if setup is None:
                print("perfbench: worker set-up failed", file=sys.stderr)
                return 1
            setups.append(setup)
            if i < setup_count - 1:
                proc.communicate("QUIT\n", timeout=30)
        worker = procs[-1]
        out, _ = worker.communicate("RUN\n", timeout=max(DEADLINE_S - (time.perf_counter() - began), 1))
        if worker.returncode != 0 or not out.strip():
            print(f"perfbench: worker exited with {worker.returncode}", file=sys.stderr)
            return 1
        report = json.loads(out.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        print("perfbench: the run passed its deadline", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = report["metrics"]
    else:
        metrics = end_to_end(report, setups)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_runs_s": setups,
        "jobs": report["attempted"],
        "failed_ratio": report["failed"] / report["attempted"],
        "failures": report["failures"],
        "input_digest": report.get("input_digest"),
        "output_digest": report.get("output_digest"),
    }

    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"summary": summary, "result": result}, indent=1) + "\n")
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
