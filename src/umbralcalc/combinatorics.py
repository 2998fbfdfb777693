"""Integer partitions, Bell polynomials, Stirling triangles and friends.

Everything here is an exact, order-deterministic building block: partitions
are enumerated in reverse-lexicographic order, Stirling triangles come from
the classical recurrences, and the partial/complete Bell polynomials are
partition sums so they can serve as independent oracles for the series and
dot-product machinery layered on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .poly import Poly, Value, collapse


def falling_factorial(a, n: int) -> Value:
    """(a)_n = a (a-1) ... (a-n+1); the empty product for n = 0."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    result: Value = Fraction(1)
    for i in range(n):
        result = result * (a - i)
    return collapse(result)


def binomial(n, k: int) -> Value:
    """Generalized binomial C(n, k) = (n)_k / k!; n may be a Poly."""
    if k < 0:
        raise ValueError("binomial needs k >= 0")
    if isinstance(n, int) and n >= 0:
        return Fraction(comb(n, k))
    return collapse(falling_factorial(n, k) / Fraction(factorial(k)))


@dataclass(frozen=True)
class Partition:
    """An integer partition as a weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        """Map part size j -> r_j, the number of parts equal to j."""
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult


@lru_cache(maxsize=None)
def _partitions_cached(i: int) -> tuple[Partition, ...]:
    def gen(rest: int, maxpart: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(Partition(parts) for parts in gen(i, i))


def partitions_of(i: int) -> list[Partition]:
    """All partitions of i, reverse-lexicographic on the part tuples."""
    if i < 0:
        raise ValueError("cannot partition a negative integer")
    return list(_partitions_cached(i))


def partition_coefficient(p: Partition) -> Fraction:
    """d = i! / (r_1! r_2! ...) * 1 / ((1!)^r_1 (2!)^r_2 ...)."""
    if p.length == 0:
        raise ValueError("the empty partition has no coefficient")
    denom = 1
    for part, r in p.multiplicities().items():
        denom *= factorial(r) * factorial(part) ** r
    return Fraction(factorial(p.weight), denom)


def _part_values(a: Sequence, parts: tuple[int, ...]) -> Value:
    prod: Value = Fraction(1)
    for part in parts:
        prod = prod * a[part - 1]
    return prod


def bell_partial(i: int, j: int, a: Sequence) -> Value:
    """Partial Bell polynomial B_{i,j}(a_1, ..., a_{i-j+1}).

    ``a`` supplies a_1, a_2, ... starting at index 0; entries may be
    rationals or polynomials.
    """
    if i < 1 or j < 1 or j > i:
        raise ValueError("bell_partial needs 1 <= j <= i")
    total: Value = Fraction(0)
    for p in partitions_of(i):
        if p.length != j:
            continue
        total = total + partition_coefficient(p) * _part_values(a, p.parts)
    return collapse(total)


def bell_complete(i: int, a: Sequence) -> Value:
    """Complete Bell polynomial Y_i = sum_j B_{i,j}."""
    if i < 1:
        raise ValueError("bell_complete needs i >= 1")
    total: Value = Fraction(0)
    for j in range(1, i + 1):
        total = total + bell_partial(i, j, a)
    return collapse(total)


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[Fraction, ...]:
    if n == 0:
        return (Fraction(1),)
    prev = _stirling2_row(n - 1)
    row = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        row[k] = (prev[k - 1] if k - 1 <= n - 1 else Fraction(0)) + (
            k * prev[k] if k <= n - 1 else Fraction(0)
        )
    return tuple(row)


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> tuple[Fraction, ...]:
    if n == 0:
        return (Fraction(1),)
    prev = _stirling1_row(n - 1)
    row = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        row[k] = (prev[k - 1] if k - 1 <= n - 1 else Fraction(0)) - (
            (n - 1) * prev[k] if k <= n - 1 else Fraction(0)
        )
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


def bell_numbers(n_max: int) -> list[Fraction]:
    """Bell numbers B_0..B_n via B_{n+1} = sum_k C(n,k) B_k."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = [Fraction(1)]
    for n in range(n_max):
        out.append(sum((binomial(n, k) * out[k] for k in range(n + 1)), Fraction(0)))
    return out


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """Bernoulli numbers with B_1 = -1/2.

    Solves sum_{k<n} C(n,k) B_k = 0 for n >= 2 triangularly, the rearranged
    form of the defining convolution identity.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = [Fraction(1)]
    for m in range(1, n_max + 1):
        n = m + 1
        acc = sum((binomial(n, k) * out[k] for k in range(m)), Fraction(0))
        out.append(-acc / binomial(n, m))
    return out
