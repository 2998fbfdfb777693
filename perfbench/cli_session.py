"""The cli-session workload: one ``python -m umbralcalc`` process per job.

Every round runs each subcommand once, in a seeded order: three ``eval``
jobs over seeded DSL strings, ``sheffer``, ``associated``, ``appell``,
``abel``, ``connect``, ``stirling``, one ``example`` (rotating over the three),
``define`` (rotating over moments, egf and cumulants), ``list`` and one
malformed command whose documented exit code is 1.  Formats are spread over
all four.  ``define`` in round r stores ``w<r>``; ``eval`` and the sequence
commands of later rounds read it back, so workspace writes sit beside reads.

Checks, each right after its job and outside the timed call: the exit code;
an empty stderr on success and an empty stdout on failure; JSON output valid
against ``docs/cli_output.schema.json`` and equal to the benchmark's own
reference values; and every job's stdout, stderr and exit code equal to an
in-process replay of ``umbralcalc.cli.main`` over a fresh workspace.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import dsl
import reference as R

EXAMPLES = (("bernoulli-diff", 8), ("backward-diff", 6), ("fibonacci", 10))
DEFINE_MODES = ("moments", "egf", "cumulants")
PC_PARAMS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(3))
GAMMA_BUILTINS = ("u", "bell", "ubar", "uinv")
ALPHA_BUILTINS = ("bell", "u", "bern", "ubar")
WORKSPACE = "umbrae.json"  # relative to the job's working directory
JOB_TIMEOUT_S = 60
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
ROOT = LAUNCHER.parent.parent


def _csv(values) -> str:
    return ",".join(R.fmt(Fraction(v)) for v in values)


def _operand(name: str, defined: dict, n: int) -> list:
    return list(defined[name][: n + 1]) if name in defined else R.builtin(name, n)


class CliSession:
    name = "cli-session"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.schema = json.loads((ROOT / "docs" / "cli_output.schema.json").read_text())
        self.workdir: Path | None = None
        self.env = dict(os.environ, UMBRA_WORKSPACE=WORKSPACE, PYTHONHASHSEED="0",
                        PYTHONPATH=str(ROOT / "src"))
        self.trace_dir: Path | None = None  # set: run jobs under the tracing launcher
        self.replay_dir: Path | None = None  # set: check jobs against in-process cli.main
        self.traced_jobs = 0

    def order(self, n: int) -> int:
        return min(n, 4) if self.smoke else n

    # -- inputs -------------------------------------------------------------

    def rounds(self, count: int, tag: str = "") -> list:
        """The first ``count`` rounds; round r may read names defined before it."""
        defined: dict = {}
        out = []
        for r in range(count):
            rng = random.Random(f"{self.name}{tag}:{self.seed}:{r}")
            jobs, name, moments = self._round(r, rng, dict(defined))
            defined[name] = moments
            out.append(jobs)
        return out

    def _round(self, r: int, rng, defined: dict) -> tuple:
        # Which template, example, Poisson-Charlier parameter, define mode or
        # malformed command a job uses rotates with r, the same for every
        # seed, so the work per round
        # does not depend on the seed; the seed draws operands and values.
        names = sorted(defined)
        formats = ["json"] * 7 + ["pretty", "csv", "latex"] * 2
        rng.shuffle(formats)
        jobs = []

        def add(argv, expect_code, check):
            jobs.append([list(argv), expect_code, check])

        anything = names + list(R.BUILTIN_NAMES)
        for template, order in ((("dot", "xdot_sum", "scalar_inv")[r % 3], 10),
                                (("shift_sq_dot", "corr", "dot_sq_chi")[r % 3], 5),
                                (("adj_dot", "cinv_dotpow")[r % 2], 8)):
            a_pool = names + list(dsl.INVERTIBLE_BUILTINS) if dsl.TEMPLATES[template][1] else anything
            job = dsl.make(rng, template, self.order(order), a_pool, anything, defined)
            add(["eval", job[1], "--order", str(job[2])], 0, ("eval", job))

        n = self.order(8)
        if r % 2 == 0 or not names:
            a = PC_PARAMS[r % len(PC_PARAMS)]
            alpha_text, gamma_text = f"{R.fmt(a)} . bell", f"chi . ({R.fmt(a)} . bell)"
            alpha, gamma = R.poisson_charlier_pair(a, n)
        else:
            alpha_text, gamma_text = rng.choice(names + list(ALPHA_BUILTINS)), rng.choice(names)
            alpha, gamma = _operand(alpha_text, defined, n), _operand(gamma_text, defined, n)
        add(["sheffer", "--alpha", alpha_text, "--gamma", gamma_text, "--order", str(n)], 0,
            ("sheffer", tuple(alpha), tuple(gamma)))

        for command, order, pool in (("associated", 10, GAMMA_BUILTINS), ("appell", 12, ALPHA_BUILTINS),
                                     ("abel", 8, GAMMA_BUILTINS)):
            n = self.order(order)
            operand = rng.choice(names + list(pool))
            flag = "--alpha" if command == "appell" else "--gamma"
            add([command, flag, operand, "--order", str(n)], 0,
                (command, tuple(_operand(operand, defined, n)), n))

        n = self.order(6)
        a, b = PC_PARAMS[r % len(PC_PARAMS)], PC_PARAMS[(r + 1) % len(PC_PARAMS)]
        add(["connect", "--from-alpha", f"{R.fmt(a)} . bell", "--from-gamma", f"chi . ({R.fmt(a)} . bell)",
             "--to-alpha", f"{R.fmt(b)} . bell", "--to-gamma", f"chi . ({R.fmt(b)} . bell)",
             "--order", str(n)], 0,
            ("connect", tuple(map(tuple, R.poisson_charlier_pair(a, n))),
             tuple(map(tuple, R.poisson_charlier_pair(b, n)))))

        kind, size = ("first", "second")[r % 2], self.order(6 + r % 7)
        add(["stirling", kind, "--n", str(size)], 0, ("stirling", kind, size))

        example, order = EXAMPLES[r % 3]
        add(["example", example, "--order", str(self.order(order))], 0,
            ("example", example, self.order(order)))

        name, mode = f"w{r}", DEFINE_MODES[r % 3]
        values = [R.ONE] + [dsl.rational(rng) for _ in range(12)]
        if mode == "moments":
            moments = values
        elif mode == "egf":
            moments = R.moments(values)
        else:
            values = values[1:]
            moments = R.from_cumulants(values)
        add(["define", name, f"--{mode}={_csv(values)}"], 0, ("define", name, tuple(moments)))

        add(["list"], 0, None)  # filled in once the order of the round is known

        bad = (["eval", f"{rng.choice(ALPHA_BUILTINS)} . . u"], ["eval", f"nosuch{r}"],
               ["eval", "u", "--order", "65"])[r % 3]
        add(bad, 1, ("error",))

        rng.shuffle(jobs)
        current = set(names)
        for job, fmt in zip(jobs, formats):
            job[0] += ["--format", fmt]
            if job[0][0] == "define":
                current.add(name)
            elif job[0][0] == "list":
                job[2] = ("list", tuple(sorted(current)))
        return [(tuple(argv), code, check) for argv, code, check in jobs], name, tuple(moments)

    # -- running -------------------------------------------------------------

    def prepare(self, job: tuple):
        cwd, env = self.workdir, self.env
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "umbralcalc", *job[0]]
        else:
            index = self.traced_jobs
            self.traced_jobs += 1
            argv = [sys.executable, str(LAUNCHER), *job[0]]
            env = dict(env, PERFBENCH_SPANS=str(self.trace_dir / f"{index}.jsonl"),
                       PERFBENCH_TRACE_ID=str(index))
        return lambda: _run(argv, cwd, env)

    def capture(self, output):
        return output

    # -- checking ------------------------------------------------------------

    def check(self, job: tuple, result) -> str | None:
        """Every problem with one job's output, or None.

        With ``replay_dir`` set, the job is also replayed in-process there, in
        job order, so the replay workspace goes through the same writes.
        """
        problems = []
        if self.replay_dir is not None and self._replay(job) != tuple(result):
            problems.append(f"{job[0][0]}: output differs from in-process cli.main")
        message = self._check_output(job, result)
        if message:
            problems.append(message)
        return "; ".join(problems) or None

    def _check_output(self, job: tuple, result) -> str | None:
        argv, expect_code, spec = job
        code, out, err = result
        if code != expect_code:
            return f"{argv[0]}: exit code {code}, expected {expect_code}: {err.strip()[:200]}"
        if expect_code:
            return None if (not out and err) else f"{argv[0]}: failure must print only to stderr"
        if err:
            return f"{argv[0]}: unexpected stderr {err.strip()[:200]}"
        if "json" not in argv:
            return None if out else f"{argv[0]}: empty output"
        import jsonschema

        data = json.loads(out)
        try:
            jsonschema.validate(data, self.schema)
        except jsonschema.ValidationError as exc:
            return f"{argv[0]}: JSON output fails the schema: {exc.message}"
        return _check_json(spec, data)

    def _replay(self, job: tuple) -> tuple:
        from umbralcalc import cli

        saved_cwd, saved_env = os.getcwd(), os.environ.get("UMBRA_WORKSPACE")
        os.chdir(self.replay_dir)
        os.environ["UMBRA_WORKSPACE"] = WORKSPACE
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(job[0]))
            return (code, out.getvalue(), err.getvalue())
        finally:
            os.chdir(saved_cwd)
            if saved_env is None:
                os.environ.pop("UMBRA_WORKSPACE", None)
            else:
                os.environ["UMBRA_WORKSPACE"] = saved_env


def _run(argv: list, cwd, env) -> tuple:
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return (None, "", f"timed out after {JOB_TIMEOUT_S} s")
    return (proc.returncode, proc.stdout, proc.stderr)


# ---------------------------------------------------------------------------
# Reference checks of JSON output


def _value(entry) -> dict:
    if isinstance(entry, str):
        return R.xpoly(Fraction(entry))
    out: dict = {}
    for monomial, text in entry.items():
        if monomial == "1":
            degree = 0
        elif monomial == "x":
            degree = 1
        elif monomial.startswith("x^") and monomial[2:].isdigit():
            degree = int(monomial[2:])
        else:
            return {"unexpected monomial": monomial}
        out[degree] = Fraction(text)
    return R.xpoly(out)


def _rows(polys: list) -> list:
    return [[R.fmt(p.get(k, R.ZERO)) for k in range(n + 1)] for n, p in enumerate(polys)]


def _poly_rows(rows: list) -> list:
    return [R.xpoly({k: Fraction(c) for k, c in enumerate(row)}) for row in rows]


def _check_example(name: str, polys: list) -> bool:
    n_max = len(polys) - 1
    if polys[0] != {0: R.ONE}:
        return False
    if name == "bernoulli-diff":
        return all(R.padd(R.translate(polys[n], 1), R.pscale(polys[n], -1)) == polys[n - 1]
                   for n in range(1, n_max + 1)) and all(R.integral_01(p) == 1 for p in polys)
    if name == "backward-diff":
        return all(R.padd(polys[n], R.pscale(R.translate(polys[n], -1), -1)) == polys[n - 1]
                   for n in range(1, n_max + 1))
    fib = [R.ONE, R.ONE]
    while len(fib) <= n_max:
        fib.append(fib[-1] + fib[-2])
    return all(R.translate(polys[n], 1) == R.padd(polys[n], polys[n - 1]) for n in range(1, n_max + 1)) \
        and all(R.at(p, 0) == fib[n] for n, p in enumerate(polys))


def _check_json(spec: tuple, data: dict) -> str | None:
    kind = spec[0]
    if kind == "eval":
        got = [R.canon(_value(m)) for m in data["results"][0]["moments"]]
        ok = got == [R.canon(v) for v in dsl.reference_moments(spec[1])]
    elif kind == "sheffer":
        ok = data["coefficients"] == _rows(R.sheffer(list(spec[1]), list(spec[2])))
    elif kind == "associated":
        gamma = list(spec[1])
        ok = data["coefficients"] == _rows(R.sheffer(R.builtin("eps", len(gamma) - 1), gamma))
    elif kind == "appell":
        ok = data["coefficients"] == _rows(R.appell(list(spec[1])))
    elif kind == "abel":
        ok = data["coefficients"] == _rows(R.abel(list(spec[1]), spec[2]))
    elif kind == "connect":
        matrix = [[Fraction(c) for c in row] for row in data["matrix"]]
        frm, to = R.sheffer(*map(list, spec[1])), R.sheffer(*map(list, spec[2]))
        ok = data["verified"] and [R.canon(p) for p in R.expand_in_basis(matrix, to)] == \
            [R.canon(p) for p in frm]
    elif kind == "stirling":
        triangle = R.stirling1 if spec[1] == "first" else R.stirling2
        ok = data["verified"] and data["triangle"] == [
            [str(triangle(n, k)) for k in range(n + 1)] for n in range(spec[2] + 1)]
    elif kind == "example":
        ok = (data["name"] == spec[1] and data["order"] == spec[2]
              and all(check["ok"] for check in data["checks"])
              and _check_example(spec[1], _poly_rows(data["coefficients"])))
    elif kind == "define":
        ok = data["name"] == spec[1] and data["workspace"] == WORKSPACE and \
            data["moments"] == [R.fmt(Fraction(m)) for m in spec[2]]
    elif kind == "list":
        ok = data["builtin"] == sorted(R.BUILTIN_NAMES) and data["workspace"] == list(spec[1])
    else:
        ok = False
    return None if ok else f"{kind}: JSON output differs from the reference"
