"""Order sweep: wall time of eight ``umbra`` commands at growing --order.

Reproduces the baseline table of ROADMAP.md.  Each case is one
``python -m umbralcalc ... --format json`` process with a per-case timeout.
A case that passes its timeout is recorded as ``timeout``; once a command
times out, its larger orders are recorded as ``not run`` rather than dropped.
The sweep is a report only; it is not part of the gated benchmark.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py

The table goes to stdout and ``perfbench/out/sweep.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time

from run import OUT, child_env, environment

ORDERS = (16, 24, 32, 40, 64)
TIMEOUT_S = 90.0  # per case, as in the ROADMAP baseline

PC = {a: (f"{a} . bell", f"chi . ({a} . bell)") for a in (1, 2)}
COMMANDS = {
    "eval u.bell": ["eval", "u.bell"],
    "eval x.bell": ["eval", "x.bell"],
    "eval cinv(bell)": ["eval", "cinv(bell)"],
    "associated --gamma u": ["associated", "--gamma", "u"],
    "sheffer (Poisson-Charlier, a=1)": ["sheffer", "--alpha", PC[1][0], "--gamma", PC[1][1]],
    "connect (PC a=2 -> a=1)": ["connect", "--from-alpha", PC[2][0], "--from-gamma", PC[2][1],
                                "--to-alpha", PC[1][0], "--to-gamma", PC[1][1]],
    "stirling second": ["stirling", "second"],
    "example backward-diff": ["example", "backward-diff"],
}


def run_case(argv: list, order: int, cwd: str) -> str | float:
    command = [sys.executable, "-m", "umbralcalc", *argv, "--order", str(order), "--format", "json"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=cwd, env=child_env(), capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return f"exit {proc.returncode}"
    try:
        json.loads(proc.stdout)
    except ValueError:
        return "bad output"
    return elapsed


def main() -> int:
    OUT.mkdir(exist_ok=True)
    cwd = tempfile.mkdtemp(prefix="sweep-", dir=OUT)
    rows = {}
    try:
        for label, command in COMMANDS.items():
            row, timed_out_at = {}, None
            for order in ORDERS:
                if timed_out_at is not None:
                    row[order] = f"not run (timeout at N={timed_out_at})"
                    continue
                row[order] = run_case(command, order, cwd)
                if row[order] == "timeout":
                    timed_out_at = order
                print(f"{label} N={order}: {row[order]}", file=sys.stderr, flush=True)
            rows[label] = row
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    def cell(value):
        if isinstance(value, float):
            return f"{value:.2f}s"
        return f">{TIMEOUT_S:g}s" if value == "timeout" else "—" if value.startswith("not run") else value

    print("| command | " + " | ".join(f"N={n}" for n in ORDERS) + " |")
    print("| --- |" + " --- |" * len(ORDERS))
    for label, row in rows.items():
        print(f"| `{label}` | " + " | ".join(cell(row[n]) for n in ORDERS) + " |")
    report = {"environment": environment(), "timeout_s": TIMEOUT_S,
              "cases": {label: {str(n): v for n, v in row.items()} for label, row in rows.items()}}
    (OUT / "sweep.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
