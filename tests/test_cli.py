import ast
import builtins
import contextlib
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from umbralcalc import cli
from umbralcalc.cli import main
from umbralcalc.parser import pretty_print
from umbralcalc.rationals import format_rational
from umbralcalc.umbra import bell_umbra, overbar_umbra

from test_parser import expressions as corpus

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs" / "cli_output.schema.json").read_text())


@pytest.fixture()
def run(capsys, tmp_path, monkeypatch):
    """Run the CLI in-process against a scratch workspace; returns (code, out, err)."""
    monkeypatch.delenv("UMBRA_WORKSPACE", raising=False)
    workspace = tmp_path / "umbrae.json"

    def _run(*argv, use_workspace=True):
        args = list(argv)
        if use_workspace and "--workspace" not in args:
            args += ["--workspace", str(workspace)]
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    _run.workspace = workspace
    return _run


def _assert_valid_json(out: str):
    data = json.loads(out)
    jsonschema.validate(data, SCHEMA)
    return data


def test_eval_pretty(run):
    code, out, err = run("eval", "x . adj(u)", "--order", "4")
    assert code == 0 and err == ""
    assert "1: x" in out and "2: x^2 - x" in out


def test_eval_json_schema(run):
    code, out, _ = run("eval", "bell ^. 2", "x . u", "--order", "3", "--format", "json")
    assert code == 0
    data = _assert_valid_json(out)
    first = data["results"][0]
    assert first["moments"] == ["1", "1", "4", "25"]
    assert data["results"][1]["moments"][1] == {"x": "1"}


def test_eval_csv(run):
    code, out, _ = run("eval", "bell", "--order", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "expr,n,moment"
    assert lines[1:] == ["bell,0,1", "bell,1,1", "bell,2,2", "bell,3,5"]


def test_eval_latex(run):
    code, out, _ = run("eval", "u", "--order", "2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{array}")


def test_eval_multiple_order_preserved(run):
    code, out, _ = run("eval", "u", "chi", "eps", "--order", "2", "--format", "json")
    data = _assert_valid_json(out)
    assert [r["expr"] for r in data["results"]] == ["u", "chi", "eps"]


def test_exit_codes(run, tmp_path):
    code, _, err = run("eval", "cinv(eps)")
    assert code == 2 and "first moment is zero" in err
    code, _, err = run("sheffer", "--alpha", "u", "--gamma", "x . u")
    assert code == 2 and "first moment must be a nonzero scalar" in err
    code, _, err = run("eval", "3 .. u")
    assert code == 1 and "column 3" in err
    code, _, err = run("eval", "unknown_name")
    assert code == 1 and "unknown umbra" in err
    code, _, err = run("eval", "u", "--order", "99")
    assert code == 1
    code, _, err = run("eval", "u", "--format", "nope")
    assert code == 1
    # i/o failure: workspace path is a directory
    code, _, err = run("define", "w", "--moments", "1,1", "--workspace", str(tmp_path), use_workspace=False)
    assert code == 3


def test_each_exit_code_catches_its_own_types():
    """No except clause of main catches a subclass of another clause's type,
    and OSError is the only builtin exception caught."""
    clauses = [h.type for h in ast.walk(ast.parse(inspect.getsource(main))) if isinstance(h, ast.ExceptHandler)]
    names = [n.id for c in clauses for n in (c.elts if isinstance(c, ast.Tuple) else [c])]
    types = [vars(cli).get(name) or getattr(builtins, name) for name in names]
    for a, b in itertools.permutations(types, 2):
        assert not issubclass(a, b), (a, b)
    assert [t for t in types if t.__module__ == "builtins"] == [OSError]


def test_an_untyped_exception_propagates(run, monkeypatch):
    """A builtin exception out of a command is a bug: main lets it through
    instead of mapping it to an exit code."""

    def broken(args):
        raise ValueError("an argument check for library callers")

    monkeypatch.setitem(cli._COMMANDS, "list", broken)
    with pytest.raises(ValueError, match="an argument check for library callers"):
        run("list")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["abel", "--gamma", "x . bell"], "--gamma"),
        (["appell", "--alpha", "x . bell"], "--alpha"),
        (["sheffer", "--alpha", "x . bell", "--gamma", "bell"], "--alpha"),
    ],
)
def test_pair_mentioning_x_exits_2(run, argv, option):
    """x is the table's own variable, so a pair whose moments mention it is
    refused with one stderr line naming the option and x."""
    code, out, err = run(*argv, "--order", "3")
    assert (code, out) == (2, "")
    assert err == f"umbra: math error: {option[2:]} ({option}) mentions x, the variable of its own table\n"


# The pair options of each pair command.
PAIR_OPTIONS = {
    "sheffer": ("alpha", "gamma"),
    "associated": ("gamma",),
    "appell": ("alpha",),
    "abel": ("gamma",),
    "connect": ("from-alpha", "from-gamma", "to-alpha", "to-gamma"),
}


def _pair_argv(command, texts):
    """The command with each pair option's text from ``texts``, else "bell"."""
    argv = [command]
    for option in PAIR_OPTIONS[command]:
        argv += [f"--{option}", texts.get(option, "bell")]
    return argv


@pytest.mark.parametrize(
    "command, option, var",
    [
        (command, option, var)
        for command, options in PAIR_OPTIONS.items()
        for option in options
        for var in ("xy" if command == "connect" else "y")
    ],
)
def test_pair_operand_refused_before_series_work(run, command, option, var):
    """No pair command takes moments in y (tables are printed in x alone), and
    connect takes none in x either: refused at once, even at the top order,
    with one stderr line naming the option and the variable."""
    argv = _pair_argv(command, {option: f"{var} . bell"})
    start = time.perf_counter()
    code, out, err = run(*argv, "--order", "64")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"umbra: math error: {option} (--{option}) mentions {var}, which {command} does not take\n"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("sheffer_moments", ["sheffer", "--alpha", "bern", "--gamma", "uinv"]),
        ("associated_moments", ["associated", "--gamma", "u"]),
        ("appell_moments", ["appell", "--alpha", "bell"]),
        ("abel_polynomials", ["abel", "--gamma", "u"]),
        ("recurrence_example_bernoulli", ["example", "bernoulli-diff"]),
        ("recurrence_example_backward", ["example", "backward-diff"]),
        ("recurrence_example_fibonacci", ["example", "fibonacci"]),
    ],
)
def test_library_calls_go_through_the_module_binding(run, monkeypatch, name, argv):
    """Each command calls its library function by its name in the cli module
    when it runs, so a wrapper bound over that name (as the benchmark's tracer
    binds one) sees the call."""
    calls = []
    original = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: calls.append(name) or original(*a))
    assert run(*argv, "--order", "2")[0] == 0
    assert calls == [name]


@pytest.mark.parametrize("argv", [["-x", "--order", "2"], ["--order", "2", "--", "-x"]])
def test_eval_leading_minus_is_an_expression(run, argv):
    """An expression that starts with '-' is not read as an unknown option."""
    code, out, err = run("eval", "--format", "json", "--workspace", str(run.workspace), *argv)
    assert code == 0 and err == ""
    assert _assert_valid_json(out)["results"][0]["moments"] == ["1", {"x": "-1"}, {"x^2": "1"}]


def test_sheffer_command_poisson_charlier(run):
    code, out, _ = run(
        "sheffer", "--alpha", "1 . bell", "--gamma", "chi . (1 . bell)", "--order", "4",
        "--format", "json",
    )
    assert code == 0
    data = _assert_valid_json(out)
    assert data["coefficients"][2] == ["1", "-3", "1"]


def test_associated_command(run):
    code, out, _ = run("associated", "--gamma", "u", "--order", "3", "--format", "json")
    data = _assert_valid_json(out)
    assert data["polynomials"][2] == "x^2 - x"


def test_appell_command(run):
    code, out, _ = run("appell", "--alpha", "inv(bern)", "--order", "2", "--format", "json")
    data = _assert_valid_json(out)
    assert data["coefficients"][2] == ["1/6", "-1", "1"]


def test_connect_command(run):
    args = [
        "connect",
        "--from-alpha", "2 . bell", "--from-gamma", "chi . (2 . bell)",
        "--to-alpha", "1 . bell", "--to-gamma", "chi . (1 . bell)",
        "--order", "3", "--format", "json",
    ]
    code, out, _ = run(*args)
    data = _assert_valid_json(out)
    assert data["verified"] is True
    assert data["matrix"][2][1] == "-1/2"
    # identical pairs give the identity matrix
    code, out, _ = run(
        "connect",
        "--from-alpha", "u", "--from-gamma", "chi",
        "--to-alpha", "u", "--to-gamma", "chi",
        "--order", "3", "--format", "json",
    )
    data = _assert_valid_json(out)
    assert data["matrix"] == [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]


def test_connect_powers_to_factorials_is_stirling(run):
    code, out, _ = run(
        "connect",
        "--from-alpha", "eps", "--from-gamma", "chi",
        "--to-alpha", "eps", "--to-gamma", "u",
        "--order", "4", "--format", "json",
    )
    data = _assert_valid_json(out)
    assert data["matrix"][4] == ["0", "1", "7", "6", "1"]


def test_stirling_command(run):
    code, out, _ = run("stirling", "second", "--n", "4", "--format", "json")
    data = _assert_valid_json(out)
    assert data["triangle"][4] == ["0", "1", "7", "6", "1"]
    assert data["verified"] is True
    code, out, _ = run("stirling", "first", "--n", "4", "--format", "json")
    data = _assert_valid_json(out)
    assert data["triangle"][4] == ["0", "-6", "11", "-6", "1"]


def test_abel_command(run):
    code, out, _ = run("abel", "--gamma", "u", "--order", "3", "--format", "json")
    data = _assert_valid_json(out)
    assert data["polynomials"][2] == "x^2 - 2*x"
    assert data["polynomials"][3] == "x^3 - 6*x^2 + 9*x"


def test_example_commands(run):
    code, out, _ = run("example", "bernoulli-diff", "--order", "3", "--format", "json")
    data = _assert_valid_json(out)
    assert data["polynomials"][1] == "x + 1/2"
    assert all(c["ok"] for c in data["checks"])
    code, out, _ = run("example", "fibonacci", "--order", "5", "--format", "json")
    data = _assert_valid_json(out)
    assert data["coefficients"][0] == ["1"]
    assert [row[0] for row in data["coefficients"]] == ["1", "1", "2", "3", "5", "8"]
    code, out, _ = run("example", "backward-diff", "--order", "4", "--format", "json")
    data = _assert_valid_json(out)
    assert all(c["ok"] for c in data["checks"])
    code, _, _ = run("example", "nosuch")
    assert code == 1


def test_define_and_eval_round_trip(run):
    code, out, _ = run("define", "myu", "--moments", "1,1,2,5")
    assert code == 0
    code, out, _ = run("eval", "myu", "--order", "3", "--format", "json")
    data = _assert_valid_json(out)
    assert data["results"][0]["moments"] == ["1", "1", "2", "5"]
    # requesting more moments than stored is a math error
    code, _, err = run("eval", "myu", "--order", "5")
    assert code == 2 and "'myu'" in err


def test_define_validation(run):
    code, _, err = run("define", "bad", "--moments", "2,1")
    assert code == 1 and "unital" in err
    code, _, err = run("define", "chi", "--moments", "1,1")
    assert code == 1 and "reserved" in err
    code, _, err = run("define", "x", "--moments", "1,1")
    assert code == 1
    code, _, err = run("define", "q", "--moments", "1,oops")
    assert code == 1


# Names Python takes as identifiers but the lexer does not read as one NAME.
@pytest.mark.parametrize("name", ["\u216b", "\u2118", "e\u0301", "a b", "1a"])
def test_define_refuses_a_name_no_expression_can_mention(run, name):
    code, out, err = run("define", name, "--moments", "1,1")
    assert (code, out) == (1, "")
    assert "not a valid umbra name" in err and err.count("\n") == 1
    assert not run.workspace.exists()


@pytest.mark.parametrize("name", ["\u00e9", "a\u00b2"])
def test_define_then_eval_unicode_name(run, name):
    code, _, err = run("define", name, "--moments", "1,2,7")
    assert code == 0, err
    code, out, err = run("eval", f"{name} . u", "--order", "2", "--format", "json")
    assert code == 0, err
    result = json.loads(out)["results"][0]
    assert result["expr"] == f"{name} . u" and result["moments"] == ["1", "2", "7"]


def test_define_egf_and_cumulants(run):
    code, out, _ = run("define", "g", "--cumulants", "1,0,0", "--format", "json")
    data = _assert_valid_json(out)
    assert data["moments"] == ["1", "1", "1", "1"]
    code, out, _ = run("define", "h", "--egf", "1,1,1/2,1/6", "--format", "json")
    data = _assert_valid_json(out)
    assert data["moments"] == ["1", "1", "1", "1"]
    code, _, err = run("define", "k", "--egf", "2,1")
    assert code == 1


def test_list_command(run):
    run("define", "zzz", "--moments", "1,4")
    code, out, _ = run("list", "--format", "json")
    data = _assert_valid_json(out)
    assert data["builtin"] == ["bell", "bern", "chi", "eps", "u", "ubar", "uinv"]
    assert data["workspace"] == ["zzz"]


def test_workspace_env_var(run, tmp_path, monkeypatch):
    env_ws = tmp_path / "envspace.json"
    monkeypatch.setenv("UMBRA_WORKSPACE", str(env_ws))
    code, out, _ = run("define", "envu", "--moments", "1,7", use_workspace=False)
    assert code == 0
    assert env_ws.exists()
    code, out, _ = run("eval", "envu", "--order", "1", "--format", "json", use_workspace=False)
    data = _assert_valid_json(out)
    assert data["results"][0]["moments"] == ["1", "7"]


def test_determinism_byte_identical(run):
    outs = []
    for _ in range(2):
        code, out, _ = run("sheffer", "--alpha", "inv(bern)", "--gamma", "chi", "--order", "6", "--format", "json")
        assert code == 0
        outs.append(out.encode())
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out, _ = run("eval", "x . bell", "--order", "6")
        outs.append(out.encode())
    assert outs[0] == outs[1]


def test_module_entry_point(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "umbralcalc", "eval", "u", "--order", "2"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "moments of u" in proc.stdout


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """The CLI starts one process per command, so its import path stays off
    the slow-to-import modules (dataclasses, inspect, typing, and tempfile,
    which only define's write imports): checked on a plain interpreter (-S),
    whose site hooks preload nothing."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import umbralcalc.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'tempfile'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


CONNECT = ["--from-alpha", "2 . bell", "--from-gamma", "chi . (2 . bell)",
           "--to-alpha", "1 . bell", "--to-gamma", "chi . (1 . bell)"]

# One well-formed line per subcommand (those of scripts/paired_cli.py), then
# the `--name=value` forms: each is read from cli._SUBCOMMANDS, not by argparse.
WELL_FORMED = [
    ["eval", "x . bell", "bern", "--order", "8"],
    ["sheffer", "--alpha", "bern", "--gamma", "bell", "--order", "6"],
    ["associated", "--gamma", "bell", "--order", "6"],
    ["appell", "--alpha", "bern", "--order", "6", "--format", "json"],
    ["connect", *CONNECT, "--order", "4"],
    ["stirling", "first", "--n", "8", "--format", "csv"],
    ["abel", "--gamma", "u", "--order", "6", "--format", "latex"],
    ["example", "fibonacci", "--order", "8"],
    ["define", "w", "--moments", "1,2,3"],
    ["list"],
    ["define", "w", "--cumulants=-1/2,1"],
    ["eval", "u", "--order=3"],
]


def test_a_well_formed_line_loads_no_argparse(tmp_path):
    """A well-formed line leaves argparse, gettext and locale unimported; help
    and a refused line still exit as before, through argparse (-S, as above)."""
    src = Path(__file__).resolve().parent.parent / "src"
    workspace = ["--workspace", str(tmp_path / "umbrae.json")]
    code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(src)!r})
from umbralcalc import cli
def loaded():
    return sorted({{'argparse', 'gettext', 'locale'}} & set(sys.modules))
seen = []
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
    for argv in {WELL_FORMED!r}:
        seen.append([cli.main([*argv, *{workspace!r}]), loaded()])
    try:
        cli.main(['-h'])
    except SystemExit as exc:
        seen.append([exc.code, loaded(), 'usage: umbra' in out.getvalue()])
    seen.append([cli.main(['stirling', 'third', *{workspace!r}]), loaded(), err.getvalue()])
print(json.dumps(seen))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    seen = json.loads(proc.stdout)
    assert seen[:-2] == [[0, []]] * len(WELL_FORMED)
    modules = ["argparse", "gettext", "locale"]
    assert seen[-2] == [0, modules, True]
    refused = "umbra: error: argument kind: invalid choice: 'third' (choose from 'first', 'second')\n"
    assert seen[-1] == [1, modules, refused]


def test_csv_row_column_counts(run):
    code, out, _ = run("associated", "--gamma", "u", "--order", "4", "--format", "csv")
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + rows 0..4
    assert all(len(line.split(",")) == 6 for line in lines)  # n plus c0..c4


def test_order_zero_is_degenerate_but_valid(run):
    for argv in (
        ["eval", "u"],
        ["sheffer", "--alpha", "eps", "--gamma", "chi"],
        ["associated", "--gamma", "u"],
        ["appell", "--alpha", "u"],
        ["abel", "--gamma", "u"],
        ["example", "fibonacci"],
        ["connect", "--from-alpha", "eps", "--from-gamma", "chi", "--to-alpha", "eps", "--to-gamma", "u"],
    ):
        code, out, err = run(*argv, "--order", "0")
        assert code == 0, (argv, err)


@pytest.mark.parametrize(
    "text",
    [
        '{"umbrae": {"a": {}}}',
        '{"umbrae": []}',
        '{"umbrae": {"a": {"moments": "12"}}}',
        '{"umbrae": {"a": {"moments": ["2", "1"]}}}',
        '{"umbrae":',
        '{"version": 99, "umbrae": {}}',
        '{"umbrae": {"chi": {"moments": ["1", "5", "7"]}}}',
        '{"umbrae": {"x": {"moments": ["1", "1"]}}}',
        '{"umbrae": {"a b": {"moments": ["1", "1"]}}}',
        '{"umbrae": {"\\u216b": {"moments": ["1", "1"]}}}',
        '{"umbrae": {"\\u2118": {"moments": ["1", "1"]}}}',
        '{"umbrae": {"e\\u0301": {"moments": ["1", "1"]}}}',
    ],
)
def test_malformed_workspace_exits_3(run, text):
    run.workspace.write_text(text)
    for argv in (["list"], ["eval", "u"], ["define", "b", "--moments", "1,2"]):
        code, out, err = run(*argv)
        assert code == 3, (argv, err)
        assert out == ""
        assert err.startswith("umbra: workspace error: ") and err.count("\n") == 1, err
        assert str(run.workspace) in err
    assert run.workspace.read_text() == text  # define left the file alone


def test_define_rejects_zero_denominator(run):
    code, _, err = run("define", "q", "--moments", "1,1/0")
    assert code == 1 and "zero denominator" in err


@pytest.mark.parametrize("literal", ["1e10000000", "1.5", "1_0"])
def test_rational_is_p_or_p_over_q(run, literal):
    """A rational is "p" or "p/q": a decimal, a digit separator or an exponent
    is refused at once, by define (1) and in a workspace entry (3), before
    an exponent could build a value of ten million digits."""
    start = time.perf_counter()
    code, out, err = run("define", "a", "--moments", f"1,{literal}")
    assert code == 1 and out == "" and "bad --moments" in err
    assert time.perf_counter() - start < 1.0
    run.workspace.write_text(json.dumps({"version": 1, "umbrae": {"a": {"moments": ["1", literal]}}}))
    for argv in (["eval", "u", "--order", "2"], ["list"]):
        start = time.perf_counter()
        code, out, err = run(*argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == "" and err.startswith("umbra: workspace error: ")


def test_deeply_nested_workspace_exits_3(run):
    """An unknown field nested past the recursion limit is an unreadable
    workspace: one stderr line and exit 3, not a RecursionError traceback."""
    depth = 100_000
    run.workspace.write_text('{"version": 1, "umbrae": {}, "extra": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run("list")
    assert code == 3 and out == ""
    assert err.startswith("umbra: workspace error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("expr, order, need", [("cinv(bell)^12", "10", "120"), ("u^100000", "1", "100000")])
def test_power_past_order_cap_exits_1(run, expr, order, need):
    """A ^ exponent may not lift the order an operand is computed to past the
    cap: refused before any moment is computed."""
    start = time.perf_counter()
    code, out, err = run("eval", expr, "--order", order)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == f"umbra: error: expression needs order {need}, past the order cap 64\n"


@pytest.mark.parametrize("expr", ["x ^ 65", "(x) ^ 65", "y ^ 100"])
def test_indeterminate_power_past_order_cap_exits_1(run, expr):
    """A ^ on x or y obeys the exponent cap that every other operand does."""
    code, out, err = run("eval", expr, "--order", "2")
    assert (code, out) == (1, "")
    need = expr.split("^")[1].strip()
    assert err == f"umbra: error: expression needs order {need}, past the order cap 64\n"
    assert err == run("eval", f"chi ^ {need}", "--order", "2")[2]
    assert run("eval", "x ^ 64", "--order", "1")[0] == 0


@pytest.mark.parametrize("expr", ["cinv(eps)", "adj(eps)", "bar(x . u)", "cinv(eps)^2 + u"])
def test_operations_check_their_operands_at_order_0(run, expr):
    """Every operation runs at every order, so --order 0 refuses what --order 1 does."""
    code, out, err = run("eval", expr, "--order", "0")
    assert (code, out) == (2, "")
    assert (code, out, err) == run("eval", expr, "--order", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ["associated", "--gamma", "eps"],
        ["sheffer", "--alpha", "u", "--gamma", "eps"],
        ["connect", "--from-alpha", "u", "--from-gamma", "eps", "--to-alpha", "u", "--to-gamma", "u"],
        ["connect", "--from-alpha", "u", "--from-gamma", "u", "--to-alpha", "u", "--to-gamma", "eps"],
    ],
)
def test_reverted_gamma_is_checked_at_order_0(run, argv):
    """A gamma the command reverts needs a nonzero first moment, so --order 0
    refuses what --order 1 does."""
    code, out, err = run(*argv, "--order", "0")
    assert (code, out, err) == (2, "", "umbra: math error: first moment is zero\n")
    assert (code, out, err) == run(*argv, "--order", "1")


def test_dot_power_past_order_cap_exits_1(run):
    """A ^. exponent past the cap is refused before any power is taken."""
    start = time.perf_counter()
    code, out, err = run("eval", "bell^.100000", "--order", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "umbra: error: dot-power exponent 100000 is past the order cap 64\n"
    assert run("eval", "bell^.64", "--order", "64")[0] == 0


def test_bar_at_max_order(run):
    """bar(a) at the top --order needs a one order past the cap, and gets it."""
    code, out, _ = run("eval", "bar(bell)", "--order", "64", "--format", "json")
    assert code == 0
    assert len(_assert_valid_json(out)["results"][0]["moments"]) == 65


def test_nested_bar_gets_no_order_past_the_cap(run):
    """A bar inside a bar does not lift the cap one order more: nothing is
    read past max(order, 64) + 1 = 65, at any depth."""
    start = time.perf_counter()
    code, out, err = run("eval", "bar(bar(bell))", "--order", "64")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "umbra: error: expression needs order 66, past the order cap 65\n")
    code, out, err = run("eval", "bar(bar(bell))", "--order", "63", "--format", "json")
    assert (code, err) == (0, "")
    expected = overbar_umbra(overbar_umbra(bell_umbra(65)))
    assert _assert_valid_json(out)["results"][0]["moments"] == [format_rational(m) for m in expected.moments]


# Each define mode, and the longest argument it takes: an umbra of order 65.
_DEFINE_AT_CAP = [
    ("--moments", ["1"] * 66),
    ("--egf", ["1"] * 66),
    ("--cumulants", ["1"] * 65),
]


@pytest.mark.parametrize("option, entries", _DEFINE_AT_CAP)
def test_define_past_the_order_cap_exits_1(run, option, entries):
    """define refuses, before any work, an umbra longer than any expression
    reads, and leaves the workspace as it was; at the cap it stores it."""
    run("define", "keep", "--moments", "1,2")
    before = run.workspace.read_bytes()
    code, out, err = run("define", "w", option, ",".join(entries + ["1"]))
    assert (code, out) == (1, "")
    assert err == f"umbra: error: {option} gives an umbra of order 66, past the order cap 65\n"
    assert run.workspace.read_bytes() == before
    code, out, err = run("define", "w", option, ",".join(entries), "--format", "json")
    assert (code, err) == (0, "")
    assert _assert_valid_json(out)["order"] == 65


def test_a_workspace_entry_past_the_define_cap_still_loads(run):
    run.workspace.write_text(json.dumps({"version": 1, "umbrae": {"w": {"moments": ["1"] * 100}}}))
    code, out, _ = run("eval", "w", "--order", "64", "--format", "json")
    assert code == 0
    assert _assert_valid_json(out)["results"][0]["moments"] == ["1"] * 65


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
def test_define_keeps_the_workspace_permission_bits(run):
    run("define", "a", "--moments", "1,2")
    run.workspace.chmod(0o640)
    code, _, err = run("define", "b", "--moments", "1,3")
    assert (code, err) == (0, "")
    assert run.workspace.stat().st_mode & 0o7777 == 0o640


def test_help_lists_the_subcommands_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    order = ["eval", "sheffer", "associated", "appell", "connect", "stirling", "abel", "example", "define", "list"]
    out = capsys.readouterr().out
    assert "{" + ",".join(order) + "}" in out
    listed = [line.split()[0] for line in out.splitlines() if line[:4] == "    " and line[4] != " "]
    assert listed == order


# ---------------------------------------------------------------------------
# cli._parse_args reads a well-formed line from cli._SUBCOMMANDS and hands any
# other to the whole argparse tree; both must parse as the whole tree does

SUBCOMMANDS = ["eval", "sheffer", "associated", "appell", "connect", "stirling", "abel", "example", "define", "list"]
OPTIONS = ["--order", "--format", "--workspace", "--alpha", "--gamma", "--from-alpha", "--from-gamma", "--to-alpha",
           "--to-gamma", "--n", "--moments", "--egf", "--cumulants", "--help"]

PARSE_CORPUS = [
    [], ["-h"], ["nosuch"], ["--order", "3", "eval", "u"], ["-h", "eval"],
    ["eval", "u", "--ord", "3"], ["eval", "u", "--order=3"], ["eval", "--format=json", "u"], ["eval", "u", "--w", "a"],
    ["eval", "--", "-u"], ["eval", "-u", "--order", "2"], ["eval", "u", "-x"], ["eval", "u", "--", "--order", "3"],
    ["eval", "--", "--", "u"], ["eval", "u", "--order", "2", "--order", "3"], ["eval"], ["eval", "u", "--bogus"],
    ["stirling", "third"], ["stirling", "first", "--n", "x"], ["example", "fib"], ["sheffer", "--alpha", "u"],
    ["connect", "--from", "u"], ["define", "a", "--moments", "1", "--egf", "1"], ["list", "extra"], ["list", "--"],
    ["list", "--h"], ["list", "--he=x"], ["eval", "-h"], ["define", "-h"], ["eval", "u", "-h", "--order", "x"],
    *WELL_FORMED,
]
# Lines the table reader hands to argparse: each is a near miss of a well-formed line.
NEAR_MISSES = [
    ["eval", "u", "--order="], ["eval", "u", "--order", "-1"], ["eval", "u", "--format", "JSON"],
    ["stirling", "first", "--n", "x"], ["eval", "u", "--order", "3", "v"], ["eval", "u", "--ord", "3"],
    ["stirling", "third"], ["define", "a", "--moments", "1", "--egf", "1"], ["define", "a"], ["list", "--"],
    ["eval", "u", "--order"], ["eval", "--order", "3", "u"], ["example", "fibonacci", "bernoulli-diff"],
]
# Lines the table reader accepts whose reading is easy to get wrong.
TRICKY = [
    ["stirling", "first", "--n", "1_0"], ["define", "a", "--moments", "1", "--moments", "1,2"],
    ["sheffer", "--alpha", "u", "--gamma", "u", "--gamma", "bell"], ["eval", "", "--workspace", ""],
]


def _parse_outcome(parse, argv):
    """("args", the parsed attributes, command included), ("usage", message),
    or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return "args", vars(parse(list(argv)))
    except cli.CliUsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()


def _assert_parsed_as_by_the_whole_tree(argv):
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(cli._build_parser().parse_args, argv), argv


def test_parse_args_agrees_with_the_whole_tree_on_edge_cases(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert list(cli._SUBCOMMANDS) == SUBCOMMANDS
    for argv in PARSE_CORPUS + NEAR_MISSES + TRICKY:
        _assert_parsed_as_by_the_whole_tree(argv)
    assert [argv for argv in WELL_FORMED + TRICKY if cli._read(argv) is None] == []
    assert [argv for argv in NEAR_MISSES if cli._read(argv) is not None] == []


_prefixes = st.sampled_from(OPTIONS).flatmap(lambda option: st.integers(3, len(option)).map(lambda k: option[:k]))
_values = st.sampled_from(["u", "x . bell", "-u", "3", "-1", "70", "json", "first", "fibonacci", "1,2", "a b", ""])
_words = st.one_of(
    st.sampled_from([*SUBCOMMANDS, "nosuch", "--", "-h", "-x", "-", "--bogus"]),
    _prefixes,
    st.tuples(_prefixes, _values).map("=".join),
    st.sampled_from(OPTIONS),
    st.tuples(st.sampled_from(OPTIONS), _values).map("=".join),
    _values,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(
    st.tuples(st.sampled_from(SUBCOMMANDS), st.lists(_words, max_size=6)).map(lambda t: [t[0], *t[1]]),
    st.lists(_words, max_size=6),
))
def test_parse_args_agrees_with_the_whole_tree(monkeypatch, argv):
    """The same Namespace (command included), the same CliUsageError text, or
    the same SystemExit code and output, on generated command lines."""
    monkeypatch.setenv("COLUMNS", "80")
    _assert_parsed_as_by_the_whole_tree(argv)


# Each subcommand's positional values and own options, for lines that mostly
# reach the table reader: random words seldom give every required option.
OWN_ARGUMENTS = {
    "eval": (["u", "x . bell"], []), "sheffer": ([], ["--alpha", "--gamma"]), "associated": ([], ["--gamma"]),
    "appell": ([], ["--alpha"]), "connect": ([], ["--from-alpha", "--from-gamma", "--to-alpha", "--to-gamma"]),
    "stirling": (["first", "second"], ["--n"]), "abel": ([], ["--gamma"]),
    "example": (["fibonacci", "bernoulli-diff"], []), "define": (["w"], ["--moments", "--egf", "--cumulants"]),
    "list": ([], []),
}
_GOOD_VALUES = {"--order": ["0", "3", "1_0"], "--n": ["0", "5"], "--format": ["json", "csv", "latex"],
                "--workspace": ["w.json"]}


def _option(option):
    value = st.one_of(st.sampled_from(_GOOD_VALUES.get(option, ["u", "1,-1/2"])), _values)
    return st.tuples(value, st.booleans()).map(lambda t: [f"{option}={t[0]}"] if t[1] else [option, t[0]])


def _own_line(command):
    positionals, options = OWN_ARGUMENTS[command]
    heads = st.lists(st.sampled_from(positionals), min_size=1, max_size=2) if positionals else st.just([])
    pairs = st.lists(st.sampled_from([*options * 3, "--order", "--format", "--workspace"]).flatmap(_option),
                     max_size=7)
    return st.tuples(st.one_of(heads, st.lists(_values, max_size=1)), pairs).map(
        lambda t: [command, *t[0], *(word for pair in t[1] for word in pair)])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.sampled_from(SUBCOMMANDS).flatmap(_own_line))
def test_table_reader_agrees_with_the_whole_tree(monkeypatch, argv):
    """As above, on lines built from each subcommand's own arguments."""
    monkeypatch.setenv("COLUMNS", "80")
    _assert_parsed_as_by_the_whole_tree(argv)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("fmt", ["pretty", "json", "csv", "latex"])
def test_output_past_digit_limit_exits_1(run, fmt):
    """A moment whose numerator has more digits than Python prints (moment 64
    of ubar^.64 has about 5.7k) is refused before any of it is converted."""
    code, out, err = run("eval", "ubar^.64", "--order", "64", "--format", fmt)
    assert code == 1 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"umbra: error: value too large to print: its numerator has more than {limit} digits\n"
    assert run("eval", "ubar^.32", "--order", "32", "--format", fmt)[0] == 0


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str limit")
@pytest.mark.parametrize("template", ["{} . u", "u^{}"])
def test_oversized_integer_literal_exits_1(run, template):
    """A literal with more digits than Python converts is a parse error, not a math error."""
    limit = sys.get_int_max_str_digits()
    code, out, err = run("eval", template.format("7" * (limit + 1)), "--order", "2")
    assert code == 1 and out == ""
    column = template.index("{") + 1
    assert err == f"umbra: parse error: integer literal longer than {limit} digits (line 1, column {column})\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str limit")
def test_exponent_past_digit_limit_exits_1(run):
    """x^k with k at the digit limit parses, and its exponent is past the
    order cap, as any ^ exponent may be, before any moment is computed."""
    limit = sys.get_int_max_str_digits()
    code, out, err = run("eval", "x^" + "9" * limit, "--order", "2")
    assert code == 1 and out == ""
    assert err == f"umbra: error: expression needs order {'9' * limit}, past the order cap 64\n"


# Each deep shape: a text of depth k, the deepest k within the 200-token bound,
# and the depth at which the parser, printer or evaluator overflowed the
# interpreter's stack before the bound (None: none was found).
DEEP_SHAPES = {
    "parens": (lambda k: "(" * k + "u" + ")" * k, 99, 250),
    "inv": (lambda k: "inv(" * k + "u" + ")" * k, 66, 200),
    "minus": (lambda k: "-(" * k + "u" + ")" * k, 66, 200),
    "dot chain": (lambda k: " . ".join(["u"] * k), 100, 400),
    "sum": (lambda k: " + ".join(["u"] * k), 100, 1000),
    "primes": (lambda k: "(x . u)" + "'" * k, 195, 400),
    "power chain": (lambda k: "u" + "^1" * k, 99, None),
}


@pytest.mark.parametrize("shape, deepest, overflowed", DEEP_SHAPES.values(), ids=DEEP_SHAPES.keys())
def test_expression_past_token_bound_exits_1(run, shape, deepest, overflowed):
    code, _, err = run("eval", shape(deepest), "--order", "2")
    assert code == 0, err
    for depth in filter(None, (deepest + 1, overflowed)):
        code, out, err = run("eval", shape(depth), "--order", "2")
        assert (code, out) == (1, "")
        assert err.startswith("umbra: parse error: expression longer than 200 tokens") and err.count("\n") == 1


def test_pair_option_past_token_bound_exits_1(run):
    code, out, err = run("appell", "--alpha", DEEP_SHAPES["parens"][0](250), "--order", "2")
    assert (code, out) == (1, "")
    assert err.startswith("umbra: parse error: expression longer than 200 tokens") and err.count("\n") == 1


@pytest.mark.parametrize("expr, order", [("(u+chi+bell+bern)^4 + u", "16"), ("(x+1)^64", "64")])
def test_expansion_past_budget_exits_1(run, expr, order):
    """A symbolic expansion that could take more monomial products than the
    budget is refused before any moment is computed."""
    start = time.perf_counter()
    code, out, err = run("eval", expr, "--order", order)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("umbra: error: expanding the expression takes up to ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# In-process fuzzing over the parser's generated corpus

@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A workspace defining the corpus's user names, alpha and g2, to order 64."""
    path = tmp_path_factory.mktemp("fuzz") / "umbrae.json"
    alpha = ["1"] + [f"1/{k}" for k in range(1, 65)]
    g2 = (["1", "0", "2"] * 22)[:65]
    path.write_text(json.dumps({"version": 1, "umbrae": {"alpha": {"moments": alpha}, "g2": {"moments": g2}}}))
    return path


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_documented_exit(code, out, err):
    """0 with output, or 1 or 2 with one stderr line and no output."""
    assert code in (0, 1, 2), err
    if code:
        assert out == "" and err.count("\n") == 1, err
    else:
        assert out and err == ""


@settings(max_examples=150, deadline=1000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ast=corpus, order=st.integers(0, 8))
def test_eval_fuzz_gives_a_documented_exit_code(fuzz_workspace, ast, order):
    """Every generated expression exits 0 (with output), 1 or 2 (with one
    stderr line and no output), in bounded time.  A text that starts with '-'
    exits as the same text in parentheses does."""

    def eval_text(text):
        return _run_quiet(["eval", text, "--order", str(order), "--workspace", str(fuzz_workspace)])

    text = pretty_print(ast)
    code, out, err = eval_text(text)
    _assert_documented_exit(code, out, err)
    if text.startswith("-"):
        assert code == eval_text(f"({text})")[0], err


@settings(max_examples=150, deadline=1000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(PAIR_OPTIONS)), asts=st.lists(corpus, min_size=4, max_size=4),
       order=st.integers(0, 6))
def test_pair_fuzz_gives_a_documented_exit_code(fuzz_workspace, command, asts, order):
    """Every pair command, with generated expressions as its pair, exits as
    eval does: 0 with output, or 1 or 2 with one stderr line, in bounded time."""
    texts = dict(zip(PAIR_OPTIONS[command], map(pretty_print, asts)))
    argv = [*_pair_argv(command, texts), "--order", str(order), "--workspace", str(fuzz_workspace)]
    _assert_documented_exit(*_run_quiet(argv))
