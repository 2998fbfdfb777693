"""The scripts in scripts/ run clean at their default order, and exit 1 when
a check they print fails."""

import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["print_sequence_tables.py", "run_worked_examples.py"])
def test_script_exits_0(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_failed_check_exits_1(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_worked_examples", SCRIPTS / "run_worked_examples.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    solve = script.recurrence_example_fibonacci

    def broken(order):
        sol = solve(order)
        return dataclasses.replace(sol, checks=(*sol.checks, ("forced failure", False)))

    monkeypatch.setattr(script, "recurrence_example_fibonacci", broken)
    monkeypatch.setattr(sys, "argv", ["run_worked_examples.py", "3"])
    assert script.main() == 1
    assert "[FAIL] forced failure" in capsys.readouterr().out
