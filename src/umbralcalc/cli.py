"""Command-line front end.

Subcommands: eval, sheffer, associated, appell, connect, stirling, abel,
example, define, list.  All computation is exact and deterministic; identical
invocations produce byte-identical output.

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
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path

from .errors import ConsistencyError, OrderCapError, OutputSizeError, UmbralError
from .errors import UmbraSyntaxError, UnknownUmbraError, WorkspaceError
from .expressions import MAX_ORDER, evaluate
from .parser import parse, pretty_print
from .poly import Poly, value_to_json, value_to_str
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
    appell_moments,
    associated_moments,
    connection_constants,
    sheffer_moments,
)
from .umbra import BUILTIN_UMBRAE, Umbra
from . import workspace as ws

FORMATS = ("pretty", "json", "csv", "latex")


class CliUsageError(Exception):
    pass


@dataclass
class CliConfig:
    order: int = 10
    fmt: str = "pretty"
    workspace: Path = Path("./umbrae.json")


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

    def common(p):
        p.add_argument("--order", type=int, default=10, help="truncation order N (default 10)")
        p.add_argument("--format", dest="fmt", choices=FORMATS, default="pretty")
        p.add_argument("--workspace", type=Path, default=None, help="workspace JSON path")

    p = sub.add_parser("eval", help="evaluate umbral expressions to moment sequences")
    p.add_argument("exprs", metavar="EXPR", nargs="+")
    common(p)

    p = sub.add_parser("sheffer", help="Sheffer polynomial table for a pair")
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma", required=True)
    common(p)

    p = sub.add_parser("associated", help="binomial-type table associated to gamma")
    p.add_argument("--gamma", required=True)
    common(p)

    p = sub.add_parser("appell", help="Appell polynomial table of alpha")
    p.add_argument("--alpha", required=True)
    common(p)

    p = sub.add_parser("connect", help="connection constants between two Sheffer pairs")
    p.add_argument("--from-alpha", required=True)
    p.add_argument("--from-gamma", required=True)
    p.add_argument("--to-alpha", required=True)
    p.add_argument("--to-gamma", required=True)
    common(p)

    p = sub.add_parser("stirling", help="Stirling triangle from the umbral formulas")
    p.add_argument("kind", choices=("first", "second"))
    p.add_argument("--n", type=int, default=None, help="triangle size (default: order)")
    common(p)

    p = sub.add_parser("abel", help="Abel polynomial table x(x - n.gamma)^(n-1)")
    p.add_argument("--gamma", required=True)
    common(p)

    p = sub.add_parser("example", help="worked difference-equation solutions")
    p.add_argument("name", choices=("bernoulli-diff", "backward-diff", "fibonacci"))
    common(p)

    p = sub.add_parser("define", help="store a user umbra in the workspace")
    p.add_argument("name")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--moments", help='comma-separated moments "1,a1,a2,..."')
    group.add_argument("--egf", help='comma-separated series coefficients "1,c1,..."')
    group.add_argument("--cumulants", help='comma-separated cumulants "k1,k2,..."')
    common(p)

    p = sub.add_parser("list", help="list known umbrae")
    common(p)

    return parser


def _config(args) -> CliConfig:
    order = args.order
    if not 0 <= order <= MAX_ORDER:
        raise CliUsageError(f"--order must be between 0 and {MAX_ORDER}")
    if args.workspace is not None:
        path = args.workspace
    elif os.environ.get("UMBRA_WORKSPACE"):
        path = Path(os.environ["UMBRA_WORKSPACE"])
    else:
        path = Path("./umbrae.json")
    return CliConfig(order=order, fmt=args.fmt, workspace=path)


def _environment(config: CliConfig) -> dict:
    env: dict = dict(BUILTIN_UMBRAE)
    env.update(ws.load_umbrae(config.workspace))
    return env


def _eval_expr(text: str, config: CliConfig, env) -> tuple[str, Umbra]:
    ast = parse(text)
    return pretty_print(ast), evaluate(ast, config.order, env)


def _sheffer_pair(alpha_text: str, gamma_text: str, config: CliConfig, env) -> ShefferPair:
    _, alpha = _eval_expr(alpha_text, config, env)
    _, gamma = _eval_expr(gamma_text, config, env)
    return ShefferPair(alpha, gamma)


# ---------------------------------------------------------------------------
# Commands (each returns a JSON-ready result dict)


def cmd_eval(args, config: CliConfig) -> dict:
    env = _environment(config)
    results = []
    for text in args.exprs:
        canonical, umbra = _eval_expr(text, config, env)
        results.append(
            {
                "expr": canonical,
                "order": config.order,
                "moments": [value_to_json(m) for m in umbra.moments],
            }
        )
    return {"command": "eval", "results": results}


def _sequence_result(command: str, seq: PolySequence, extra: dict | None = None) -> dict:
    result = {
        "command": command,
        "order": seq.order,
        "polynomials": [value_to_str(p) for p in seq],
        "coefficients": [[format_rational(c) for c in row] for row in seq.coefficient_table()],
    }
    if extra:
        result.update(extra)
    return result


def cmd_sheffer(args, config: CliConfig) -> dict:
    pair = _sheffer_pair(args.alpha, args.gamma, config, _environment(config))
    return _sequence_result("sheffer", sheffer_moments(pair))


def cmd_associated(args, config: CliConfig) -> dict:
    env = _environment(config)
    _, gamma = _eval_expr(args.gamma, config, env)
    return _sequence_result("associated", associated_moments(gamma))


def cmd_appell(args, config: CliConfig) -> dict:
    env = _environment(config)
    _, alpha = _eval_expr(args.alpha, config, env)
    return _sequence_result("appell", appell_moments(alpha))


def cmd_abel(args, config: CliConfig) -> dict:
    env = _environment(config)
    _, gamma = _eval_expr(args.gamma, config, env)
    return _sequence_result("abel", abel_polynomials(gamma, config.order))


def cmd_connect(args, config: CliConfig) -> dict:
    env = _environment(config)
    frm = _sheffer_pair(args.from_alpha, args.from_gamma, config, env)
    to = _sheffer_pair(args.to_alpha, args.to_gamma, config, env)
    cc = connection_constants(frm, to)
    return {
        "command": "connect",
        "order": config.order,
        "matrix": [[format_rational(c) for c in row] for row in cc.matrix],
        "verified": True,  # connection_constants raises ConsistencyError otherwise
    }


def cmd_stirling(args, config: CliConfig) -> dict:
    n_max = config.order if args.n is None else args.n
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


def cmd_example(args, config: CliConfig) -> dict:
    runner = {
        "bernoulli-diff": recurrence_example_bernoulli,
        "backward-diff": recurrence_example_backward,
        "fibonacci": recurrence_example_fibonacci,
    }[args.name]
    solution = runner(config.order)
    notes = {
        key: [value_to_str(v) for v in values] if isinstance(values, list) else str(values)
        for key, values in solution.notes.items()
    }
    return _sequence_result(
        "example",
        solution.sequence,
        extra={
            "name": solution.name,
            "checks": [{"name": name, "ok": True} for name in solution.checks],
            "notes": notes,
        },
    )


def _parse_csv_rationals(text: str, what: str) -> list[Fraction]:
    try:
        return [parse_rational(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliUsageError(f"bad {what}: {exc}") from None


def cmd_define(args, config: CliConfig) -> dict:
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
    raw = ws.load_raw(config.workspace)
    ws.umbrae_from_raw(raw, str(config.workspace))  # never rewrite a malformed workspace
    ws.set_umbra(raw, name, umbra)
    ws.save_raw(config.workspace, raw)
    return {
        "command": "define",
        "name": name,
        "order": umbra.order,
        "moments": [format_rational(m) for m in umbra.moments],
        "workspace": str(config.workspace),
    }


def cmd_list(args, config: CliConfig) -> dict:
    user = sorted(ws.load_umbrae(config.workspace))
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
                shown = m if isinstance(m, str) else _poly_map_to_str(m)
                lines.append(f"  {n}: {shown}")
    elif cmd in ("sheffer", "associated", "appell", "abel", "example"):
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


def _poly_map_to_str(m: dict) -> str:
    return Poly.from_json_map(m).__str__()


# The result key that holds each table command's rows.
_TABLE_KEYS = {
    **dict.fromkeys(("sheffer", "associated", "appell", "abel", "example"), "coefficients"),
    "connect": "matrix",
    "stirling": "triangle",
}


def _render_csv(result: dict) -> str:
    cmd = result["command"]
    rows: list[list[str]] = []
    if cmd == "eval":
        rows.append(["expr", "n", "moment"])
        for entry in result["results"]:
            for n, m in enumerate(entry["moments"]):
                shown = m if isinstance(m, str) else _poly_map_to_str(m)
                rows.append([entry["expr"], str(n), shown])
    elif cmd in _TABLE_KEYS:
        order = result["order"]
        rows.append(["n"] + [f"c{k}" for k in range(order + 1)])
        for n, row in enumerate(result[_TABLE_KEYS[cmd]]):
            rows.append([str(n)] + row + ["0"] * (order + 1 - len(row)))
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


def _latex_math(text: str) -> str:
    return text.replace("*", " ")


def _render_latex(result: dict) -> str:
    cmd = result["command"]
    lines: list[str] = []
    if cmd == "eval":
        for entry in result["results"]:
            lines.append(r"\begin{array}{rl}")
            for n, m in enumerate(entry["moments"]):
                shown = m if isinstance(m, str) else _poly_map_to_str(m)
                lines.append(f"{n} & {_latex_math(shown)} \\\\")
            lines.append(r"\end{array}")
    elif cmd in _TABLE_KEYS:
        order = result["order"]
        lines.append(r"\begin{array}{r|" + "r" * (order + 1) + "}")
        for n, row in enumerate(result[_TABLE_KEYS[cmd]]):
            padded = row + ["0"] * (order + 1 - len(row))
            lines.append(f"{n} & " + " & ".join(padded) + r" \\")
        lines.append(r"\end{array}")
    else:
        return _render_pretty(result)
    return "\n".join(lines) + "\n"


def render(result: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _render_csv(result)
    if fmt == "latex":
        return _render_latex(result)
    return _render_pretty(result)


_COMMANDS = {
    "eval": cmd_eval,
    "sheffer": cmd_sheffer,
    "associated": cmd_associated,
    "appell": cmd_appell,
    "connect": cmd_connect,
    "stirling": cmd_stirling,
    "abel": cmd_abel,
    "example": cmd_example,
    "define": cmd_define,
    "list": cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config(args)
        result = _COMMANDS[args.command](args, config)
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
    except UmbralError as exc:
        print(f"umbra: math error: {exc}", file=sys.stderr)
        return 2
    except WorkspaceError as exc:
        print(f"umbra: workspace error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"umbra: math error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"umbra: i/o error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(render(result, config.fmt))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
