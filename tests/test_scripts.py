"""The scripts in scripts/ run clean at their default order, and exit 1 with
the ConsistencyError message when a check fails.  The package's top-level
names, which the scripts import, are the README's Library API list."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import umbralcalc
from umbralcalc import sequences, sheffer
from umbralcalc.combinatorics import stirling_second_classical

from test_consistency import off

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["print_sequence_tables.py", "run_worked_examples.py"])
def test_script_exits_0(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload, kinds", [
    ("sheffer-inverse", ["abel", "adjoint", "associated", "comp_inverse", "connect", "inverse_dot", "lagrange",
                         "sheffer"]),
    ("dot-moments", ["cumulant:builtin", "cumulant:umbra", "dot:builtin/umbra", "dot:rational/builtin",
                     "dot:rational/umbra", "dot:umbra/builtin", "dot:umbra/umbra", "dot:x/builtin", "dot:x/umbra",
                     "dot_power", "evaluate:adj_dot", "evaluate:cinv_dotpow", "evaluate:corr", "evaluate:dot",
                     "evaluate:dot_sq_chi", "evaluate:scalar_inv", "evaluate:shift_sq_dot", "evaluate:xdot_sum",
                     "umbral_sum"]),
])
def test_paired_jobs_smoke(workload, kinds):
    """One smoke round of HEAD against the working tree: the outputs agree,
    and every job kind of the ladder, then the total, gets a row of the mean
    and the p90 on each side, their ratio and the share the tree won."""
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPTS.parent, capture_output=True).returncode:
        pytest.skip("needs a git checkout")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "paired_jobs.py"), "--rev", "HEAD", "--workload", workload,
         "--rounds", "1", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "outputs equal on both sides" in lines[0]
    assert lines[1].split() == ["kind", "HEAD", "ms", "tree", "ms", "ratio", "HEAD", "p90", "tree", "p90", "tree",
                                "won"]
    assert sorted(line.split()[0] for line in lines[2:-1]) == kinds
    assert lines[-1].startswith("total (ms)")
    for line in lines[2:]:
        mean_a, mean_b, ratio, p90_a, p90_b, won = map(float, line.split()[-6:])
        assert min(mean_a, mean_b, p90_a, p90_b) > 0
        assert ratio == pytest.approx(mean_a / mean_b, rel=0.05)  # of the printed, rounded means
        assert 0 <= won <= 1


def test_paired_cli_smoke():
    """One run of HEAD against the working tree, one process per command on
    each side: the outputs agree and every command gets a row."""
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPTS.parent, capture_output=True).returncode:
        pytest.skip("needs a git checkout")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "paired_cli.py"), "--rev", "HEAD", "--runs", "1", "--no-site"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "python -S -m umbralcalc; outputs equal on both sides" in lines[0]
    assert [line.split()[0] for line in lines[2:-1]] == [
        "eval", "sheffer", "associated", "appell", "connect", "stirling", "abel", "example", "define", "define=",
        "list", "help", "refused", "abbrev",
    ]
    assert lines[-1].startswith("total (ms)")


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
        "self-check 'stirling second table vs triangle' failed at n = 3: coefficient of x^2 is 3, expected 4\n"
    )


def test_failed_identity_check_exits_1(monkeypatch, capsys):
    script = _load("print_sequence_tables")
    monkeypatch.setattr(sheffer, "egf_mul", off(2)(sheffer.egf_mul))
    monkeypatch.setattr(sys, "argv", ["print_sequence_tables.py", "3"])
    assert script.main() == 1
    assert capsys.readouterr().err == "self-check 'binomial' failed at n = 2: coefficient of 1 is 0, expected 1\n"


def test_package_names_are_the_readme_library_api():
    readme = (SCRIPTS.parent / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n- ")[1:]
    listed = [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]
    public = {
        name for name, value in vars(umbralcalc).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == public
