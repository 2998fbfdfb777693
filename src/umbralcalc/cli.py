"""Command-line front end.

Subcommands: eval, sheffer, associated, appell, connect, stirling, abel,
example, define, list, each declared once, as data, in ``_SUBCOMMANDS``.  A
well-formed line is read from that table with no argparse import; help,
errors and every other form go to the whole argparse tree, built from the same
table.  All computation is exact and deterministic; identical invocations
produce byte-identical output.

The five pair commands (sheffer, associated, appell, connect, abel) are
declared once, in ``_PAIRS``, and run by ``cmd_pair``.  It evaluates every
pair option and refuses moments in y for every pair command and moments in x
for connect before any series work, naming the option (VariableCaptureError).
A table's x is its own variable; the library refuses it, after the
first-moment rule.  Values are formatted only by ``render``.

Exit codes: 0 success, 1 usage/parse/unknown-name, an expression past the
order cap or a result too large to print (OutputSizeError), 2 mathematical
failure (UmbralError), 3 I/O failure (OSError, or WorkspaceError for an
unreadable workspace file), 4 a failed run-time self-check (ConsistencyError:
two routes to one result disagree; stdout stays empty and one stderr line
names the check and the first differing coefficient).  Each code owns its own
exception types, none a subclass of another's, and no builtin exception but
OSError is caught: any other exception is a bug and propagates.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path
from types import SimpleNamespace

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
from .umbra import BUILTIN_UMBRAE, Umbra, _require_scalar_first_moment
from . import workspace as ws

FORMATS = ("pretty", "json", "csv", "latex")

# Each pair command: its help text, its pair options, the options whose series
# it reverts (so whose first moment must be a nonzero scalar), the variables
# its options may not mention, and the library call that builds its result
# from the evaluated options, in option order.  A table's x is its own
# variable, which the library refuses after the first-moment rule; connect
# needs scalar pairs.  These calls and those of _EXAMPLES look their library
# function up by name when they run, so that a wrapper bound over the name
# (the benchmark's tracer) sees them.
_PAIRS = {
    "sheffer": (
        "Sheffer polynomial table for a pair",
        ("alpha", "gamma"), ("gamma",), ("y",),
        lambda alpha, gamma: sheffer_moments(ShefferPair(alpha, gamma)),
    ),
    "associated": (
        "binomial-type table associated to gamma",
        ("gamma",), ("gamma",), ("y",),
        lambda gamma: associated_moments(gamma),
    ),
    "appell": (
        "Appell polynomial table of alpha",
        ("alpha",), (), ("y",),
        lambda alpha: appell_moments(alpha),
    ),
    "connect": (
        "connection constants between two Sheffer pairs",
        ("from-alpha", "from-gamma", "to-alpha", "to-gamma"), ("from-gamma", "to-gamma"), ("x", "y"),
        lambda a, g, to_a, to_g: connection_constants(ShefferPair(a, g), ShefferPair(to_a, to_g)),
    ),
    "abel": (
        "Abel polynomial table x(x - n.gamma)^(n-1)",
        ("gamma",), (), ("y",),
        lambda gamma: abel_polynomials(gamma, gamma.order),
    ),
}

_EXAMPLES = {
    "bernoulli-diff": lambda order: recurrence_example_bernoulli(order),
    "backward-diff": lambda order: recurrence_example_backward(order),
    "fibonacci": lambda order: recurrence_example_fibonacci(order),
}


class CliUsageError(Exception):
    pass


# The options every subcommand takes, after its own arguments.  An argument is
# its name or flag and its add_argument keywords.
_COMMON = (
    ("--order", {"type": int, "default": 10, "help": "truncation order N (default 10)"}),
    ("--format", {"dest": "fmt", "choices": FORMATS, "default": "pretty"}),
    ("--workspace", {"type": Path, "default": None, "help": "workspace JSON path"}),
)


def _pair_arguments(name: str) -> tuple:
    return tuple((f"--{option}", {"required": True}) for option in _PAIRS[name][1])


# Each subcommand: its help line, its own arguments (at most one positional)
# and the members of its required mutually exclusive group, in the order
# `umbra -h` lists them, which puts abel after stirling.
_SUBCOMMANDS = {
    "eval": ("evaluate umbral expressions to moment sequences", (("exprs", {"metavar": "EXPR", "nargs": "+"}),), ()),
    **{name: (_PAIRS[name][0], _pair_arguments(name), ()) for name in _PAIRS if name != "abel"},
    "stirling": ("Stirling triangle from the umbral formulas", (
        ("kind", {"choices": ("first", "second")}),
        ("--n", {"type": int, "default": None, "help": "triangle size (default: order)"}),
    ), ()),
    "abel": (_PAIRS["abel"][0], _pair_arguments("abel"), ()),
    "example": ("worked difference-equation solutions", (("name", {"choices": _EXAMPLES}),), ()),
    "define": ("store a user umbra in the workspace", (("name", {}),), (
        ("--moments", {"help": 'comma-separated moments "1,a1,a2,..."'}),
        ("--egf", {"help": 'comma-separated series coefficients "1,c1,..."'}),
        ("--cumulants", {"help": 'comma-separated cumulants "k1,k2,..."'}),
    )),
    "list": ("list known umbrae", (), ()),
}


def _fill(p, name: str) -> None:
    """Add subcommand ``name``'s arguments, then the options every command takes."""
    _, arguments, exclusive = _SUBCOMMANDS[name]
    for flag, keywords in arguments:
        p.add_argument(flag, **keywords)
    if exclusive:
        group = p.add_mutually_exclusive_group(required=True)
        for flag, keywords in exclusive:
            group.add_argument(flag, **keywords)
    for flag, keywords in _COMMON:
        p.add_argument(flag, **keywords)


def _build_parser():
    """The whole argparse tree: the reference parse, and the only one that
    prints help and usage errors."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message):  # argparse would exit(2); we own the exit codes
            raise CliUsageError(message)

        def _parse_optional(self, arg_string):
            # A single-dash word that names no option, such as "-x", is an
            # expression; argparse would read it as an unknown option.
            if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string not in self._option_string_actions:
                return None
            return super()._parse_optional(arg_string)

    parser = _ArgumentParser(prog="umbra", description="exact umbral-calculus calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


def _value(keywords: dict, word: str):
    """``word`` converted by its declared type; ValueError outside its choices."""
    value = keywords.get("type", str)(word)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(word)
    return value


def _read(argv: list[str]):
    """The arguments of a well-formed line, read from ``_SUBCOMMANDS``: a
    subcommand, its positionals, then exact ``--name value`` or
    ``--name=value`` options, each value converting and in its choices, every
    required argument given and one member of a group.  None for any other
    line, including every value that starts with "-" and is not after "="."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, arguments, exclusive = _SUBCOMMANDS[argv[0]]
    positional = next((argument for argument in arguments if argument[0][0] != "-"), None)
    options = {flag: (keywords.get("dest") or flag[2:].replace("-", "_"), keywords)
               for flag, keywords in (*arguments, *exclusive, *_COMMON) if flag[0] == "-"}
    words = argv[1:]
    lead = next((k for k, word in enumerate(words) if word[:1] == "-"), len(words))
    args = {"command": argv[0]}
    try:
        if positional:
            dest, keywords = positional
            if lead == 0 or lead > 1 and keywords.get("nargs") != "+":
                return None
            values = [_value(keywords, word) for word in words[:lead]]
            args[dest] = values if "nargs" in keywords else values[0]
        elif lead:
            return None
        k = lead
        while k < len(words):
            flag, eq, value = words[k].partition("=")
            if flag not in options:
                return None
            if not eq:
                k += 1
                if k == len(words) or words[k][:1] == "-":
                    return None
                value = words[k]
            k += 1
            dest, keywords = options[flag]
            args[dest] = _value(keywords, value)
    except ValueError:
        return None
    if exclusive and sum(options[flag][0] in args for flag, _ in exclusive) != 1:
        return None
    for dest, keywords in options.values():
        if dest not in args:
            if keywords.get("required"):
                return None
            args[dest] = keywords.get("default")
    return SimpleNamespace(**args)


def _parse_args(argv: list[str]):
    """A well-formed line's arguments, read from ``_SUBCOMMANDS``; any other
    line goes to ``_build_parser().parse_args(argv)``, with help and errors."""
    args = _read(argv)
    return _build_parser().parse_args(argv) if args is None else args


def _settle_options(args) -> None:
    """Check --order and fill in args.workspace: the option, else
    UMBRA_WORKSPACE, else ./umbrae.json."""
    if not 0 <= args.order <= MAX_ORDER:
        raise CliUsageError(f"--order must be between 0 and {MAX_ORDER}")
    if args.workspace is None:
        args.workspace = Path(os.environ.get("UMBRA_WORKSPACE") or "umbrae.json")


def _environment(args) -> dict:
    return {**BUILTIN_UMBRAE, **ws.load_umbrae(args.workspace)}


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


def _rows(table) -> list[list[str]]:
    return [[format_rational(c) for c in row] for row in table]


def _sequence_result(command: str, seq: PolySequence) -> dict:
    return {
        "command": command,
        "order": seq.order,
        "polynomials": [value_to_str(p) for p in seq],
        "coefficients": _rows(seq.coefficient_table()),
    }


def cmd_pair(args) -> dict:
    """Evaluate each pair option to --order, refusing, by option name and
    before any table work, a mention of a variable the command refuses, then
    make the command's library call.  A reverted option is read to order 1
    at --order 0 and its first moment checked there."""
    _, options, reverted, refused, build = _PAIRS[args.command]
    env = _environment(args)
    operands = []
    for option in options:
        reads = max(args.order, 1) if option in reverted else args.order
        umbra = evaluate(parse(getattr(args, option.replace("-", "_"))), reads, env)
        for var in refused:
            _require_free_of(umbra, var, option, f"which {args.command} does not take")
        if reads > args.order:
            _require_scalar_first_moment(umbra)
            umbra = umbra.truncated(args.order)
        operands.append(umbra)
    result = build(*operands)
    if isinstance(result, PolySequence):
        return _sequence_result(args.command, result)
    return {  # connect's ConnectionConstants
        "command": "connect",
        "order": args.order,
        "matrix": _rows(result.matrix),
        "verified": True,  # connection_constants raises ConsistencyError otherwise
    }


def cmd_stirling(args) -> dict:
    n_max = args.order if args.n is None else args.n
    if not 0 <= n_max <= MAX_ORDER:
        raise CliUsageError(f"--n must be between 0 and {MAX_ORDER}")
    return {
        "command": "stirling",
        "kind": args.kind,
        "order": n_max,
        "triangle": _rows(stirling_triangle(args.kind, n_max)),
        "verified": True,  # stirling_triangle raises ConsistencyError otherwise
    }


def cmd_example(args) -> dict:
    solution = _EXAMPLES[args.name](args.order)
    return {
        **_sequence_result("example", solution.sequence),
        "name": solution.name,
        "checks": [{"name": name, "ok": True} for name in solution.checks],
        "notes": {key: [value_to_str(v) for v in values] for key, values in solution.notes.items()},
    }


def _parse_csv_rationals(text: str, what: str, lead: int = 0) -> list[Fraction]:
    """The rationals of a define option.  Before any parsing, refuse an umbra
    past order MAX_ORDER + 1, the most an expression reads; the mode puts
    ``lead`` more entries in front."""
    order = text.count(",") + lead
    if order > MAX_ORDER + 1:
        raise OrderCapError(f"{what} gives an umbra of order {order}, past the order cap {MAX_ORDER + 1}")
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
        kappa = _parse_csv_rationals(args.cumulants, "--cumulants", lead=1)
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
    elif "polynomials" in result:
        title = result.get("name", cmd)
        lines.append(f"{title} polynomials to order {result['order']}:")
        for n, p in enumerate(result["polynomials"]):
            lines.append(f"  s_{n}(x) = {p}")
        for check in result.get("checks", []):
            lines.append(f"check {check['name']}: pass")
        for key, val in sorted(result.get("notes", {}).items()):
            lines.append(f"note {key}: " + ", ".join(val))
    elif cmd in _TABLE_KEYS:  # connect and stirling
        if cmd == "connect":
            lines.append(f"connection constants to order {result['order']} (verified: yes):")
        else:
            lines.append(f"{result['kind']}-kind Stirling triangle to n = {result['order']} (verified: yes):")
        for n, row in enumerate(result[_TABLE_KEYS[cmd]]):
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
_TABLE_KEYS = {**dict.fromkeys((*_PAIRS, "example"), "coefficients"), "connect": "matrix", "stirling": "triangle"}


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
    **dict.fromkeys(_PAIRS, cmd_pair),
    "stirling": cmd_stirling,
    "example": cmd_example,
    "define": cmd_define,
    "list": cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
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
    except UmbralError as exc:
        print(f"umbra: math error: {exc}", file=sys.stderr)
        return 2
    except WorkspaceError as exc:
        print(f"umbra: workspace error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"umbra: i/o error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"umbra: consistency error: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
