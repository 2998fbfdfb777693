"""Binomials, partial Bell polynomials, Stirling triangles and friends.

Everything here is an exact, order-deterministic building block.  A row of
generalized binomials C(a, 0..m) is built entry from entry; an integer
binomial is ``math.comb``.  Stirling triangles come from the classical
recurrences, so they stay independent oracles for the umbral Stirling
formulas; the partial Bell polynomials are read off the series kernel (the
partition sums they replace are test oracles in ``tests/oracles.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .poly import Value, collapse
from .series import egf_compose


def binomial_row(a, m: int) -> list[Value]:
    """[C(a,0), ..., C(a,m)] by C(a,j) = C(a,j-1) (a-j+1) / j; a may be a Poly."""
    if m < 0:
        raise ValueError("binomial row needs m >= 0")
    row: list[Value] = [Fraction(1)]
    for j in range(1, m + 1):
        row.append(collapse(row[-1] * (a - (j - 1)) / j))
    return row


def bell_partial(i: int, j: int, a: Sequence) -> Value:
    """Partial Bell polynomial B_{i,j}(a_1, ..., a_{i-j+1}), read off the kernel.

    B_{i,j}(h) is moment i of h^j / j!, the composition of the moment tuple
    with a single 1 at index j and h = (0, a_1, a_2, ...), padded with
    zeros to order i.  ``a`` supplies a_1, a_2, ... starting at index 0;
    entries may be rationals or polynomials.
    """
    if i < 1 or j < 1 or j > i:
        raise ValueError("bell_partial needs 1 <= j <= i")
    f = [Fraction(0)] * (i + 1)
    f[j] = Fraction(1)
    h = [Fraction(0), *a[:i]]
    h += [Fraction(0)] * (i + 1 - len(h))
    return egf_compose(f, h)[i]


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[Fraction, ...]:
    if n == 0:
        return (Fraction(1),)
    prev = _stirling2_row(n - 1)
    row = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        row[k] = prev[k - 1] + (k * prev[k] if k <= n - 1 else Fraction(0))
    return tuple(row)


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> tuple[Fraction, ...]:
    if n == 0:
        return (Fraction(1),)
    prev = _stirling1_row(n - 1)
    row = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        row[k] = prev[k - 1] - ((n - 1) * prev[k] if k <= n - 1 else Fraction(0))
    return tuple(row)


def stirling_second_classical(n: int, k: int) -> Fraction:
    """S(n, k) by the triangle recurrence; 0 outside the triangle."""
    if n < 0 or k < 0 or k > n:
        return Fraction(0)
    return _stirling2_row(n)[k]


def stirling_first_classical(n: int, k: int) -> Fraction:
    """Signed s(n, k); s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k)."""
    if n < 0 or k < 0 or k > n:
        return Fraction(0)
    return _stirling1_row(n)[k]
