"""The scripts in scripts/ run clean at their default order, and exit 1 with
the ConsistencyError message when a check fails."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from umbralcalc import sequences, sheffer
from umbralcalc.combinatorics import binomial, stirling_second_classical

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["print_sequence_tables.py", "run_worked_examples.py"])
def test_script_exits_0(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_failed_check_exits_1(monkeypatch, capsys):
    def off_at_3_2(n, k):
        return stirling_second_classical(n, k) + (1 if (n, k) == (3, 2) else 0)

    script = _load("run_worked_examples")
    monkeypatch.setattr(sequences, "stirling_second_classical", off_at_3_2)
    monkeypatch.setattr(sys, "argv", ["run_worked_examples.py", "3"])
    assert script.main() == 1
    assert capsys.readouterr().err == (
        "self-check 'stirling second column 2 vs triangle' failed at n = 3: coefficient of 1 is 3, expected 4\n"
    )


def test_failed_identity_check_exits_1(monkeypatch, capsys):
    def off_at_2_1(n, k):
        return binomial(n, k) + (1 if (n, k) == (2, 1) else 0)

    script = _load("print_sequence_tables")
    monkeypatch.setattr(sheffer, "binomial", off_at_2_1)
    monkeypatch.setattr(sys, "argv", ["print_sequence_tables.py", "3"])
    assert script.main() == 1
    assert capsys.readouterr().err == "self-check 'binomial' failed at n = 2: coefficient of x*y is 2, expected 3\n"
