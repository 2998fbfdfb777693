#!/usr/bin/env python3
"""Reproduce the worked results at the terminal.

Prints the three solved difference equations, the umbral Stirling triangles,
the Poisson-Charlier connection constants, and the classical Lagrange
inversion values, all in exact arithmetic.  Every result is self-checked;
a failed check prints its message and exits 1.

Usage: python scripts/run_worked_examples.py [ORDER]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from umbralcalc import (
    ConsistencyError,
    connection_constants,
    format_rational,
    lagrange_inversion,
    poisson_charlier_pair,
    recurrence_example_backward,
    recurrence_example_bernoulli,
    recurrence_example_fibonacci,
    stirling_triangle,
    unity,
)


def banner(title):
    print(f"\n== {title} " + "=" * max(0, 60 - len(title)))


def show_solution(sol):
    """Print the solution and the checks it passed."""
    for n, p in enumerate(sol.sequence):
        print(f"  s_{n}(x) = {p}")
    for name in sol.checks:
        print(f"  [ok] {name}")
    for key, values in sol.notes.items():
        shown = ", ".join(format_rational(v) for v in values)
        print(f"  note {key}: {shown}")


def main():
    try:
        run(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
    except ConsistencyError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


def run(order):
    banner("forward difference with unit integral")
    show_solution(recurrence_example_bernoulli(order))

    banner("backward difference with diagonal initial condition")
    show_solution(recurrence_example_backward(order))

    banner("Fibonacci-type recurrence")
    show_solution(recurrence_example_fibonacci(order))

    banner("Stirling triangles from the umbral closed forms")
    for kind in ("second", "first"):
        print(f"  {kind} kind:")
        for row in stirling_triangle(kind, order):
            print("    " + " ".join(format_rational(c) for c in row))

    banner("Poisson-Charlier connection constants, basis a=1 from b=2")
    cc = connection_constants(poisson_charlier_pair(2, order), poisson_charlier_pair(1, order))
    print("  verified by substitution into the target basis: True")  # connection_constants raises otherwise
    for row in cc.matrix:
        print("    " + " ".join(format_rational(c) for c in row))

    banner("Lagrange inversion values for the unity umbra: (-n)^(n-1)")
    values = [lagrange_inversion(unity(order + 1), n) for n in range(1, order + 1)]
    print("  " + ", ".join(format_rational(v) for v in values))


if __name__ == "__main__":
    sys.exit(main())
