"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the root."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import cli_session
import inprocess
import reference as R
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, seed: int, trace: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def lines(proc: subprocess.CompletedProcess) -> tuple:
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    summary, result = lines(smoke(workload, 1))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert summary["failed_ratio"] == 0


def test_traced_smoke_run_reports_every_per_layer_metric():
    _, result = lines(smoke("dot-moments", 1, trace=1))
    assert result["correct"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_jobs_and_digests(workload):
    first, again = worker.make_workload(workload, 7, True), worker.make_workload(workload, 7, True)
    assert first.rounds(3) == again.rounds(3)
    one, _ = lines(smoke(workload, 7))
    two, _ = lines(smoke(workload, 7))
    assert (one["input_digest"], one["output_digest"]) == (two["input_digest"], two["output_digest"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    assert worker.make_workload(workload, 1, False).rounds(2) != worker.make_workload(workload, 2, False).rounds(2)


def fresh(workload_name: str, tmp_path: Path):
    workload = worker.make_workload(workload_name, 3, True)
    if isinstance(workload, cli_session.CliSession):
        for attr in ("workdir", "replay_dir"):
            setattr(workload, attr, tmp_path / attr)
            getattr(workload, attr).mkdir(parents=True)
    return workload, workload.rounds(1)[0]


def tamper(job, result):
    """The result with one value changed."""
    if isinstance(job[0], tuple):  # a CLI job: change the last moment of an eval
        code, out, err = result
        data = json.loads(out)
        data["results"][0]["moments"][-1] = "12345/7"
        return (code, json.dumps(data, indent=2, sort_keys=True) + "\n", err)
    if job[0] == "connect":
        matrix, verified = result
        return ((matrix[0], tuple(c + 1 for c in matrix[1])) + matrix[2:], verified)
    return result[:-1] + (R.canon(Fraction(12345, 7)),)


@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_injected_wrong_result_counts_as_failed(workload_name, tmp_path):
    workload, jobs = fresh(workload_name, tmp_path)
    targets = [i for i, job in enumerate(jobs)
               if not isinstance(job[0], tuple) or (job[0][0] == "eval" and "json" in job[0] and job[1] == 0)]
    assert targets
    for target in targets:
        workload, jobs = fresh(workload_name, tmp_path / str(target))
        original, seen = workload.capture, []

        def capture(output):
            seen.append(output)
            result = original(output)
            return tamper(jobs[target], result) if len(seen) == target + 1 else result

        workload.capture = capture
        recorder = worker.Recorder(workload)
        recorder.run(jobs, [workload.prepare(job) for job in jobs])
        assert [index for index, _ in recorder.failures] == [target], recorder.failures
        assert recorder.report()["failed"] == 1
        if workload_name == "cli-session":  # the reference and the in-process replay both see it
            assert "in-process" in recorder.failures[0][1] and "reference" in recorder.failures[0][1]


@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_clean_round_passes_and_a_raising_job_counts_as_failed(workload_name, tmp_path):
    workload, jobs = fresh(workload_name, tmp_path)
    recorder = worker.Recorder(workload)
    recorder.run(jobs, [workload.prepare(job) for job in jobs])
    assert recorder.failures == []

    def boom():
        raise ValueError("injected")

    workload, jobs = fresh(workload_name, tmp_path / "again")
    calls = [workload.prepare(job) for job in jobs]
    recorder = worker.Recorder(workload)
    recorder.run(jobs, calls[:-1] + [boom])
    assert recorder.failures == [(len(jobs) - 1, "ValueError: injected")]


def test_unexpected_exit_code_counts_as_failed(tmp_path):
    workload, jobs = fresh("cli-session", tmp_path)
    bad = next(job for job in jobs if job[1] == 1)
    assert workload._check_output(bad, (0, "", "")) is not None
    assert workload._check_output(bad, (None, "", "timed out")) is not None


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = smoke("dot-moments", 1, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_reference_helpers_against_known_values():
    assert R.builtin("bell", 6) == [1, 1, 2, 5, 15, 52, 203]
    assert R.builtin("bern", 4) == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    # reversion of log(1 + t) is e^t - 1
    log1p = [R.ZERO] + [Fraction((-1) ** (k - 1), k) for k in range(1, 8)]
    assert R.revert(log1p) == [R.ZERO] + [Fraction(1, factorial(k)) for k in range(1, 8)]
    assert [R.stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    assert [R.stirling1(4, k) for k in range(5)] == [0, -6, 11, -6, 1]
    assert [R.partitions(n) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]
    # the compositional inverse of u has generating function 1 + log(1 + t)
    assert [R.lagrange_general(R.builtin("u", n), n) for n in range(1, 5)] == [1, -1, 2, -6]
