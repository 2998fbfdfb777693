#!/usr/bin/env python3
"""Print the classical polynomial-sequence tables side by side.

For each named family (powers, falling factorials, exponential polynomials,
Poisson-Charlier, Bernoulli, Abel) shows the coefficient triangle and runs
the matching identity check.  A failed check raises ConsistencyError; the
script prints its message and exits 1.

Usage: python scripts/print_sequence_tables.py [ORDER]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from umbralcalc import (
    ConsistencyError,
    abel_polynomials,
    associated_moments,
    bernoulli_appell_pair,
    check_appell_identity,
    check_binomial_identity,
    check_sheffer_identity,
    format_rational,
    inverse_dot,
    bernoulli_umbra,
    poisson_charlier_pair,
    sheffer_moments,
    singleton,
    uinv_umbra,
    unity,
)


def show(title, seq, checks=()):
    """Print the table and the names of the identity checks it passed."""
    print(f"\n{title}")
    for n in range(len(seq)):
        row = " ".join(format_rational(c) for c in seq.coefficients(n))
        print(f"  {n}: {row}")
    if checks:
        print(f"  identity check: pass ({', '.join(checks)})")


def main():
    order = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    try:
        for table in tables(order):
            show(*table)
    except ConsistencyError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


def tables(order):
    return [
        ("powers x^n (associated to the singleton)",
         associated_moments(singleton(order)),
         check_binomial_identity(singleton(order))),
        ("falling factorials (x)_n (associated to the unity umbra)",
         associated_moments(unity(order)),
         check_binomial_identity(unity(order))),
        ("exponential polynomials (associated to the inverse of the unity umbra)",
         associated_moments(uinv_umbra(order)),
         check_binomial_identity(uinv_umbra(order))),
        ("Poisson-Charlier polynomials, a = 1",
         sheffer_moments(poisson_charlier_pair(1, order)),
         check_sheffer_identity(poisson_charlier_pair(1, order))),
        ("Bernoulli polynomials (Appell family)",
         sheffer_moments(bernoulli_appell_pair(order)),
         check_appell_identity(inverse_dot(bernoulli_umbra(order)))),
        ("Abel polynomials x(x - n.u)^(n-1)",
         abel_polynomials(unity(order + 1), order)),
    ]


if __name__ == "__main__":
    sys.exit(main())
