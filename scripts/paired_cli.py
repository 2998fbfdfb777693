#!/usr/bin/env python3
"""Time one ``umbra`` process per command on a git revision and on the
working tree, command by command.

Each command runs as ``python [-S] -m umbralcalc ...`` with ``PYTHONPATH``
set to the ``src/`` of ``git archive <rev>`` on one side and to this tree's
``src/`` on the other, each side in its own scratch directory with the
relative workspace ``umbrae.json``; both ``src/`` copies are byte-compiled
first.  The commands are one per subcommand and define's ``--name=value``
form, then ``-h``, one refused command and one abbreviated option: the last
three are the lines the CLI hands to argparse.  Every command first runs
once untimed on each side; then each timed run starts both sides in turn,
the revision first on even runs and the tree first on odd ones.  The script
stops with exit 1 if stdout, stderr or the exit code differ between the
sides.  It prints the median ms per command on each side and their ratio
(above 1: the tree is faster), then the sum of the medians.

Usage: python scripts/paired_cli.py [--rev REV] [--no-site] [--runs N]
"""

from __future__ import annotations

import argparse
import compileall
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from paired_jobs import ROOT, archived_src

CONNECT = ["--from-alpha", "2 . bell", "--from-gamma", "chi . (2 . bell)",
           "--to-alpha", "1 . bell", "--to-gamma", "chi . (1 . bell)"]

# (label, argv): one command per subcommand, define's --name=value form, the
# help text, a refused command and an abbreviated option
COMMANDS = [
    ("eval", ["eval", "x . bell", "bern", "--order", "8"]),
    ("sheffer", ["sheffer", "--alpha", "bern", "--gamma", "bell", "--order", "6"]),
    ("associated", ["associated", "--gamma", "bell", "--order", "6"]),
    ("appell", ["appell", "--alpha", "bern", "--order", "6", "--format", "json"]),
    ("connect", ["connect", *CONNECT, "--order", "4"]),
    ("stirling", ["stirling", "first", "--n", "8", "--format", "csv"]),
    ("abel", ["abel", "--gamma", "u", "--order", "6", "--format", "latex"]),
    ("example", ["example", "fibonacci", "--order", "8"]),
    ("define", ["define", "w", "--moments", "1,2,3"]),
    ("define=", ["define", "w", "--cumulants=-1/2,1"]),
    ("list", ["list"]),
    ("help", ["-h"]),
    ("refused", ["stirling", "third"]),
    ("abbrev", ["eval", "u", "--ord", "3"]),
]


class Side:
    """One copy of the package and the ms each of its processes took."""

    def __init__(self, label: str, src: Path, work: Path, site: bool):
        self.label = label
        compileall.compile_dir(str(src), quiet=1)
        self.argv = [sys.executable, *([] if site else ["-S"]), "-m", "umbralcalc"]
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
        self.env.pop("UMBRA_WORKSPACE", None)
        self.ms: dict[str, list[float]] = {label: [] for label, _ in COMMANDS}

    def run(self, label: str, argv: list[str]) -> tuple:
        workspace = [] if argv[0] == "-h" else ["--workspace", "umbrae.json"]
        start = time.perf_counter()
        proc = subprocess.run([*self.argv, *argv, *workspace], cwd=self.work, env=self.env,
                              capture_output=True, timeout=120)
        self.ms[label].append((time.perf_counter() - start) * 1e3)
        return proc.returncode, proc.stdout, proc.stderr


def compare(args) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("rev", "tree"):
            (tmp / name).mkdir()
        base = Side(args.rev, archived_src(args.rev, str(tmp / "archive")), tmp / "rev", args.site)
        tree = Side("tree", ROOT / "src", tmp / "tree", args.site)
        for run in range(-1, args.runs):  # run -1: the untimed warm-up
            for label, argv in COMMANDS:
                first, second = (base, tree) if run % 2 == 0 else (tree, base)
                outputs = {side.label: side.run(label, argv) for side in (first, second)}
                if outputs[base.label] != outputs[tree.label]:
                    print(f"{label} {argv}: outputs differ\n{args.rev}: {outputs[base.label]!r:.400}\n"
                          f"tree: {outputs[tree.label]!r:.400}", file=sys.stderr)
                    return 1
                if run < 0:
                    base.ms[label].clear()
                    tree.ms[label].clear()
    python = "python" if args.site else "python -S"
    print(f"{len(COMMANDS)} commands x {args.runs} run(s), {python} -m umbralcalc; outputs equal on both sides")
    print(f"{'command':<12} {args.rev + ' ms':>12} {'tree ms':>12} {'ratio':>7}")
    total_a = total_b = 0.0
    for label, _ in COMMANDS:
        a, b = median(base.ms[label]), median(tree.ms[label])
        total_a, total_b = total_a + a, total_b + b
        print(f"{label:<12} {a:12.2f} {b:12.2f} {a / b:7.3f}")
    print(f"{'total (ms)':<12} {total_a:12.1f} {total_b:12.1f} {total_a / total_b:7.3f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="the git revision to compare the tree with (default HEAD)")
    parser.add_argument("--no-site", dest="site", action="store_false", help="run the processes under python -S")
    parser.add_argument("--runs", type=int, default=30, help="timed runs per command and side (default 30)")
    return compare(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
