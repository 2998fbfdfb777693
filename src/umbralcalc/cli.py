"""Command-line front end.

Subcommands: eval, sheffer, associated, appell, connect, stirling, abel,
example, define, list.  All computation is exact and deterministic; identical
invocations produce byte-identical output.

The four table commands (sheffer, associated, appell, abel) are declared once,
in ``_TABLES``.  Every pair option, theirs and connect's four, is evaluated by
``_operand``, which refuses moments in y for every pair command and moments
in x for connect before any series work, naming the option
(VariableCaptureError).  A table's x is its own variable; the library refuses
it, after the first-moment rule.  Values are formatted only by ``render``.

Exit codes: 0 success, 1 usage/parse/unknown-name, an expression past the
order cap or a result too large to print (OutputSizeError), 2 mathematical
failure, 3 I/O failure (including an unreadable workspace file), 4 a failed
run-time self-check (ConsistencyError: two routes to one result disagree;
stdout stays empty and one stderr line names the check and the first
differing coefficient).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

from .errors import ConsistencyError, OrderCapError, OutputSizeError, UmbralError
from .errors import UmbraSyntaxError, UnknownUmbraError, WorkspaceError
from .expressions import MAX_ORDER, evaluate
from .parser import parse, pretty_print
from .poly import value_to_json, value_to_str
from .rationals import format_rational, parse_rational
from .sequences import (
    abel_polynomials,
    recurrence_example_backward,
    recurrence_example_bernoulli,
    recurrence_example_fibonacci,
    stirling_triangle,
)
from .series import egf_exp
from .sheffer import (
    PolySequence,
    ShefferPair,
    _require_free_of,
    appell_moments,
    associated_moments,
    connection_constants,
    sheffer_moments,
)
from .umbra import BUILTIN_UMBRAE, Umbra
from . import workspace as ws

FORMATS = ("pretty", "json", "csv", "latex")

# Each table command: its help text, its pair options, and the library call
# that builds its table from the evaluated pair, in option order.  These calls
# and those of _EXAMPLES look their library function up by name when they
# run, so that a wrapper bound over the name (the benchmark's tracer) sees them.
_TABLES = {
    "sheffer": (
        "Sheffer polynomial table for a pair",
        ("alpha", "gamma"),
        lambda alpha, gamma: sheffer_moments(ShefferPair(alpha, gamma)),
    ),
    "associated": (
        "binomial-type table associated to gamma",
        ("gamma",),
        lambda gamma: associated_moments(gamma),
    ),
    "appell": ("Appell polynomial table of alpha", ("alpha",), lambda alpha: appell_moments(alpha)),
    "abel": (
        "Abel polynomial table x(x - n.gamma)^(n-1)",
        ("gamma",),
        lambda gamma: abel_polynomials(gamma, gamma.order),
    ),
}

# connect's pair options: (from-alpha, from-gamma) and (to-alpha, to-gamma).
_CONNECT_OPTIONS = ("from-alpha", "from-gamma", "to-alpha", "to-gamma")

_EXAMPLES = {
    "bernoulli-diff": lambda order: recurrence_example_bernoulli(order),
    "backward-diff": lambda order: recurrence_example_backward(order),
    "fibonacci": lambda order: recurrence_example_fibonacci(order),
}


class CliUsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise CliUsageError(message)

    def _parse_optional(self, arg_string):
        # A single-dash word that names no option, such as "-x", is an
        # expression; argparse would read it as an unknown option.
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="umbra", description="exact umbral-calculus calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []

    def command(name, help_text, pair=()):
        p = sub.add_parser(name, help=help_text)
        for option in pair:
            p.add_argument(f"--{option}", required=True)
        commands.append(p)
        return p

    # In the order `umbra -h` lists them.
    p = command("eval", "evaluate umbral expressions to moment sequences")
    p.add_argument("exprs", metavar="EXPR", nargs="+")
    for name in ("sheffer", "associated", "appell"):
        command(name, *_TABLES[name][:2])
    command("connect", "connection constants between two Sheffer pairs", _CONNECT_OPTIONS)
    p = command("stirling", "Stirling triangle from the umbral formulas")
    p.add_argument("kind", choices=("first", "second"))
    p.add_argument("--n", type=int, default=None, help="triangle size (default: order)")
    command("abel", *_TABLES["abel"][:2])
    command("example", "worked difference-equation solutions").add_argument("name", choices=_EXAMPLES)
    p = command("define", "store a user umbra in the workspace")
    p.add_argument("name")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--moments", help='comma-separated moments "1,a1,a2,..."')
    group.add_argument("--egf", help='comma-separated series coefficients "1,c1,..."')
    group.add_argument("--cumulants", help='comma-separated cumulants "k1,k2,..."')
    command("list", "list known umbrae")

    for p in commands:
        p.add_argument("--order", type=int, default=10, help="truncation order N (default 10)")
        p.add_argument("--format", dest="fmt", choices=FORMATS, default="pretty")
        p.add_argument("--workspace", type=Path, default=None, help="workspace JSON path")
    return parser


def _settle_options(args) -> None:
    """Check --order and fill in args.workspace: the option, else
    UMBRA_WORKSPACE, else ./umbrae.json."""
    if not 0 <= args.order <= MAX_ORDER:
        raise CliUsageError(f"--order must be between 0 and {MAX_ORDER}")
    if args.workspace is None:
        args.workspace = Path(os.environ.get("UMBRA_WORKSPACE") or "umbrae.json")


def _environment(args) -> dict:
    return {**BUILTIN_UMBRAE, **ws.load_umbrae(args.workspace)}


def _operand(args, option: str, env) -> Umbra:
    """The pair option --option evaluated to --order.  Moments in y are
    refused (the CLI prints tables in x alone), and for connect moments in x
    too (connection constants need scalar pairs), before any table work."""
    umbra = evaluate(parse(getattr(args, option.replace("-", "_"))), args.order, env)
    for var in ("x", "y") if args.command == "connect" else ("y",):
        _require_free_of(umbra, var, option, f"which {args.command} does not take")
    return umbra


# ---------------------------------------------------------------------------
# Commands (each returns a result dict; render formats its values)


def cmd_eval(args) -> dict:
    env = _environment(args)
    results = []
    for text in args.exprs:
        ast = parse(text)
        results.append(
            {
                "expr": pretty_print(ast),
                "order": args.order,
                "moments": list(evaluate(ast, args.order, env).moments),
            }
        )
    return {"command": "eval", "results": results}


def _sequence_result(command: str, seq: PolySequence) -> dict:
    return {
        "command": command,
        "order": seq.order,
        "polynomials": [value_to_str(p) for p in seq],
        "coefficients": [[format_rational(c) for c in row] for row in seq.coefficient_table()],
    }


def cmd_table(args) -> dict:
    _, pair, build = _TABLES[args.command]
    env = _environment(args)
    return _sequence_result(args.command, build(*(_operand(args, option, env) for option in pair)))


def cmd_connect(args) -> dict:
    env = _environment(args)
    alpha, gamma, to_alpha, to_gamma = (_operand(args, option, env) for option in _CONNECT_OPTIONS)
    cc = connection_constants(ShefferPair(alpha, gamma), ShefferPair(to_alpha, to_gamma))
    return {
        "command": "connect",
        "order": args.order,
        "matrix": [[format_rational(c) for c in row] for row in cc.matrix],
        "verified": True,  # connection_constants raises ConsistencyError otherwise
    }


def cmd_stirling(args) -> dict:
    n_max = args.order if args.n is None else args.n
    if not 0 <= n_max <= MAX_ORDER:
        raise CliUsageError(f"--n must be between 0 and {MAX_ORDER}")
    # stirling_triangle raises ConsistencyError if an umbral entry disagrees with the classical triangle.
    triangle = [[format_rational(c) for c in row] for row in stirling_triangle(args.kind, n_max)]
    return {
        "command": "stirling",
        "kind": args.kind,
        "order": n_max,
        "triangle": triangle,
        "verified": True,
    }


def cmd_example(args) -> dict:
    solution = _EXAMPLES[args.name](args.order)
    notes = {
        key: [value_to_str(v) for v in values] if isinstance(values, list) else str(values)
        for key, values in solution.notes.items()
    }
    return {
        **_sequence_result("example", solution.sequence),
        "name": solution.name,
        "checks": [{"name": name, "ok": True} for name in solution.checks],
        "notes": notes,
    }


def _parse_csv_rationals(text: str, what: str) -> list[Fraction]:
    try:
        return [parse_rational(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliUsageError(f"bad {what}: {exc}") from None


def cmd_define(args) -> dict:
    name = args.name
    try:
        ws.check_name(name)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    if args.moments is not None:
        moments = _parse_csv_rationals(args.moments, "--moments")
        if not moments or moments[0] != 1:
            raise CliUsageError("moment sequences must be unital (a_0 = 1)")
        umbra = Umbra(moments, name=name)
    elif args.egf is not None:
        coeffs = _parse_csv_rationals(args.egf, "--egf")
        if not coeffs or coeffs[0] != 1:
            raise CliUsageError("series must have constant term 1")
        umbra = Umbra([c * factorial(n) for n, c in enumerate(coeffs)], name=name)
    else:
        # The cumulants are the moments of log f, so f is their exp.
        kappa = _parse_csv_rationals(args.cumulants, "--cumulants")
        umbra = Umbra(egf_exp((Fraction(0), *kappa)), name=name)
    raw = ws.load_raw(args.workspace)
    ws.umbrae_from_raw(raw, str(args.workspace))  # never rewrite a malformed workspace
    ws.set_umbra(raw, name, umbra)
    ws.save_raw(args.workspace, raw)
    return {
        "command": "define",
        "name": name,
        "order": umbra.order,
        "moments": [format_rational(m) for m in umbra.moments],
        "workspace": str(args.workspace),
    }


def cmd_list(args) -> dict:
    user = sorted(ws.load_umbrae(args.workspace))
    return {
        "command": "list",
        "builtin": sorted(BUILTIN_UMBRAE),
        "workspace": user,
    }


# ---------------------------------------------------------------------------
# Rendering


def _render_pretty(result: dict) -> str:
    cmd = result["command"]
    lines: list[str] = []
    if cmd == "eval":
        for entry in result["results"]:
            lines.append(f"moments of {entry['expr']} to order {entry['order']}:")
            for n, m in enumerate(entry["moments"]):
                lines.append(f"  {n}: {value_to_str(m)}")
    elif cmd in _TABLES or cmd == "example":
        title = result.get("name", cmd)
        lines.append(f"{title} polynomials to order {result['order']}:")
        for n, p in enumerate(result["polynomials"]):
            lines.append(f"  s_{n}(x) = {p}")
        for check in result.get("checks", []):
            lines.append(f"check {check['name']}: pass")
        for key, val in sorted(result.get("notes", {}).items()):
            shown = ", ".join(val) if isinstance(val, list) else val
            lines.append(f"note {key}: {shown}")
    elif cmd == "connect":
        lines.append(f"connection constants to order {result['order']} (verified: yes):")
        for n, row in enumerate(result["matrix"]):
            lines.append(f"  {n}: " + " ".join(row))
    elif cmd == "stirling":
        lines.append(f"{result['kind']}-kind Stirling triangle to n = {result['order']} (verified: yes):")
        for n, row in enumerate(result["triangle"]):
            lines.append(f"  {n}: " + " ".join(row))
    elif cmd == "define":
        lines.append(
            f"defined '{result['name']}' with moments "
            + ", ".join(result["moments"])
            + f" in {result['workspace']}"
        )
    elif cmd == "list":
        lines.append("builtin: " + " ".join(result["builtin"]))
        lines.append("workspace: " + (" ".join(result["workspace"]) or "(none)"))
    return "\n".join(lines) + "\n"


# The result key that holds each table command's rows.
_TABLE_KEYS = {**dict.fromkeys((*_TABLES, "example"), "coefficients"), "connect": "matrix", "stirling": "triangle"}


def _table_rows(result: dict) -> list[list[str]]:
    """A table result's rows, each padded with zeros to order + 1 entries."""
    width = result["order"] + 1
    return [row + ["0"] * (width - len(row)) for row in result[_TABLE_KEYS[result["command"]]]]


def _render_csv(result: dict) -> str:
    cmd = result["command"]
    rows: list[list[str]] = []
    if cmd == "eval":
        rows.append(["expr", "n", "moment"])
        for entry in result["results"]:
            for n, m in enumerate(entry["moments"]):
                rows.append([entry["expr"], str(n), value_to_str(m)])
    elif cmd in _TABLE_KEYS:
        rows.append(["n"] + [f"c{k}" for k in range(result["order"] + 1)])
        for n, row in enumerate(_table_rows(result)):
            rows.append([str(n)] + row)
    elif cmd == "define":
        rows.append(["name", "order", "workspace"])
        rows.append([result["name"], str(result["order"]), result["workspace"]])
    elif cmd == "list":
        rows.append(["source", "name"])
        for name in result["builtin"]:
            rows.append(["builtin", name])
        for name in result["workspace"]:
            rows.append(["workspace", name])
    return "\n".join(",".join(row) for row in rows) + "\n"


def _render_latex(result: dict) -> str:
    cmd = result["command"]
    lines: list[str] = []
    if cmd == "eval":
        for entry in result["results"]:
            lines.append(r"\begin{array}{rl}")
            for n, m in enumerate(entry["moments"]):
                lines.append(f"{n} & {value_to_str(m).replace('*', ' ')} \\\\")
            lines.append(r"\end{array}")
    elif cmd in _TABLE_KEYS:
        lines.append(r"\begin{array}{r|" + "r" * (result["order"] + 1) + "}")
        for n, row in enumerate(_table_rows(result)):
            lines.append(f"{n} & " + " & ".join(row) + r" \\")
        lines.append(r"\end{array}")
    else:
        return _render_pretty(result)
    return "\n".join(lines) + "\n"


def render(result: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, indent=2, sort_keys=True, default=value_to_json) + "\n"
    if fmt == "csv":
        return _render_csv(result)
    if fmt == "latex":
        return _render_latex(result)
    return _render_pretty(result)


_COMMANDS = {
    "eval": cmd_eval,
    **dict.fromkeys(_TABLES, cmd_table),
    "connect": cmd_connect,
    "stirling": cmd_stirling,
    "example": cmd_example,
    "define": cmd_define,
    "list": cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _settle_options(args)
        text = render(_COMMANDS[args.command](args), args.fmt)
    except (CliUsageError, OrderCapError, OutputSizeError) as exc:
        print(f"umbra: error: {exc}", file=sys.stderr)
        return 1
    except UmbraSyntaxError as exc:
        print(f"umbra: parse error: {exc}", file=sys.stderr)
        return 1
    except UnknownUmbraError as exc:
        print(f"umbra: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"umbra: consistency error: {exc}", file=sys.stderr)
        return 4
    except WorkspaceError as exc:  # a ValueError, so caught before the catch-all below
        print(f"umbra: workspace error: {exc}", file=sys.stderr)
        return 3
    except (UmbralError, ValueError, ZeroDivisionError) as exc:
        print(f"umbra: math error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"umbra: i/o error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
