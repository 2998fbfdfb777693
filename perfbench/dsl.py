"""Seeded DSL expressions, each with a reference value computed independently.

Each template is an expression shape over atoms A, B (builtin or seeded user
umbrae) and a rational c, with a function that computes its moments through
:mod:`reference`.  The shapes cover correlated labels (``A^2 + A'``), dot
sub-terms under ``^`` (which make the evaluator refill auxiliary umbrae to
higher orders) and every operator kind the workloads time.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import reference as R


def _shift_sq_dot(m, n, A, B, c):
    a = m(A, 2 * n)
    left = [R.xpoly({2 * j - i: comb(2 * j, i) * a[i] for i in range(2 * j + 1)}) for j in range(n + 1)]
    return R.dot(left, m(B, n))


def _corr(m, n, A, B, c):
    a = m(A, 2 * n)
    return [sum((comb(k_n, k) * a[2 * k] * a[k_n - k] for k in range(k_n + 1)), R.ZERO)
            for k_n in range(n + 1)]


def _dot_sq_chi(m, n, A, B, c):
    d = R.dot(m(A, 2 * n), m(B, 2 * n))
    return R.dot([d[2 * j] for j in range(n + 1)], R.builtin("chi", n))


# name -> (pattern, A needs a nonzero first moment, reference); the shapes with
# ``^2`` inside need their atoms to order 2N.
TEMPLATES = {
    "dot": ("{A} . {B}", False,
            lambda m, n, A, B, c: R.dot(m(A, n), m(B, n))),
    "shift_sq_dot": ("({A} + x.u)^2 . {B}", False, _shift_sq_dot),
    "corr": ("{A}^2 + {A}'", False, _corr),
    "dot_sq_chi": ("({A} . {B})^2 . chi", False, _dot_sq_chi),
    "xdot_sum": ("x . {A} + {B}", False,
                 lambda m, n, A, B, c: R.umbral_sum(R.dot(R.x_powers(n), m(A, n)), m(B, n))),
    "scalar_inv": ("{c} . {A} + inv({B})", False,
                   lambda m, n, A, B, c: R.umbral_sum(R.scalar_dot(c, m(A, n)), R.inverse(m(B, n)))),
    "adj_dot": ("adj({A}) . {B}", True,
                lambda m, n, A, B, c: R.dot(R.adjoint(m(A, n)), m(B, n))),
    "cinv_dotpow": ("cinv({A}) + {B}^.2", True,
                    lambda m, n, A, B, c: R.umbral_sum(R.comp_inverse(m(A, n)), [b * b for b in m(B, n)])),
}

# Builtins whose first moment is a nonzero scalar (usable under adj/cinv).
INVERTIBLE_BUILTINS = ("bell", "bern", "chi", "u", "ubar", "uinv")
SCALARS = (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(1, 3), Fraction(5, 2))


def rational(rng) -> Fraction:
    """A small nonzero rational: +-1..4 over 1..3."""
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3))


def random_moments(rng, n: int) -> tuple:
    """A seeded unital moment sequence of order n, every moment nonzero.

    The denominators are a shuffle of 1, 2, 3, 1, 2, 3, ...: the cost of exact
    arithmetic follows the denominators, so this keeps the work per job close
    across seeds while the values differ.
    """
    denominators = [1 + k % 3 for k in range(n)]
    rng.shuffle(denominators)
    return (R.ONE,) + tuple(Fraction(rng.choice((1, -1)) * rng.randint(1, 4), q) for q in denominators)


def make(rng, template: str, order: int, a_pool, b_pool, atoms: dict) -> tuple:
    """One expression job: (template, text, order, A, B, c, user atoms used).

    A and B are drawn from the given name pools; ``atoms`` maps user atom
    names to moment tuples (long enough for the template), the rest are
    builtins.
    """
    pattern = TEMPLATES[template][0]
    a, b, c = rng.choice(a_pool), rng.choice(b_pool), rng.choice(SCALARS)
    used = tuple(sorted((name, atoms[name]) for name in {a, b} if name in atoms))
    return (template, pattern.format(A=a, B=b, c=R.fmt(c)), order, a, b, c, used)


def reference_moments(job: tuple) -> list:
    template, _, order, a, b, c, used = job
    users = dict(used)

    def m(name, k):
        return list(users[name][: k + 1]) if name in users else R.builtin(name, k)

    return TEMPLATES[template][2](m, order, a, b, c)
