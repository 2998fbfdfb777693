"""Truncated exponential-generating-function arithmetic on moment sequences.

A series f(t) = sum_n a_n t^n / n! mod t^(N+1) is held as the tuple of its
moments (a_0, ..., a_N), the only form in which the umbral calculus knows
an umbra.  A product is then the binomial convolution
c_n = sum_k C(n,k) a_k b_(n-k); reciprocal, log, exp and composition have
binomial recurrences of the same shape, and reversion is the Lagrange
formula: moment m of the reversion of h is moment m - 1 of (t/h)^m, the
umbral E[(-m.g)^(m-1)] with g the overbar umbra of h, up to a factor h_1^m.

Every operation is exact.  Binary operations insist on equal truncation
orders (mixing orders silently is how truncation bugs are born).  Moments
may be rationals or polynomials in x, y; reciprocal/reversion additionally
need an invertible scalar leading moment.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import NonInvertibleError, OrderMismatchError, SingularSeriesError
from .poly import Value, collapse

Series = tuple[Value, ...]


def _order(f: Sequence[Value]) -> int:
    if not f:
        raise ValueError("a truncated series needs at least the constant term")
    return len(f) - 1


def _check_orders(f: Sequence[Value], g: Sequence[Value]) -> int:
    if _order(f) != _order(g):
        raise OrderMismatchError(f"series orders differ: {len(f) - 1} vs {len(g) - 1}")
    return len(f) - 1


def _binomial_rows(a: Sequence[Value], first: int = 0) -> list[list[tuple[int, Value]]]:
    """Row n lists (k, C(n,k) a_k) for the nonzero a_k with first <= k <= n.

    The binomial weights of a convolution are folded into the operand that
    stays fixed over the loop, once per call, so every term then costs one
    multiply; zero moments are dropped.
    """
    terms = [(k, c) for k, c in enumerate(a) if k >= first and c]
    return [[(k, c * comb(n, k)) for k, c in terms if k <= n] for n in range(len(a))]


def _convolve(rows: list[list[tuple[int, Value]]], g: Sequence[Value]) -> Series:
    """sum_k C(n,k) a_k g_(n-k) for every n, from the rows of a."""
    return tuple(collapse(sum((w * g[n - k] for k, w in row), Fraction(0))) for n, row in enumerate(rows))


def egf_scale(c, f: Sequence[Value]) -> Series:
    return tuple(collapse(c * a) for a in f)


def egf_mul(f: Sequence[Value], g: Sequence[Value]) -> Series:
    """Product f g mod t^(N+1): the binomial convolution of the moments."""
    _check_orders(f, g)
    return _convolve(_binomial_rows(f), g)


def _leading_scalar(value: Value, what: str) -> Fraction:
    c = collapse(value)
    if not isinstance(c, Fraction):
        raise NonInvertibleError(f"{what} must be a scalar, got {c}")
    return c


def egf_reciprocal(f: Sequence[Value]) -> Series:
    """The series g with f g = 1: g_n = -g_0 sum_(k>=1) C(n,k) f_k g_(n-k)."""
    n = _order(f)
    c0 = _leading_scalar(f[0], "constant term of a reciprocal")
    if c0 == 0:
        raise SingularSeriesError("cannot invert a series with zero constant term")
    inv0 = Fraction(1) / c0
    rows = _binomial_rows(f, first=1)
    out: list[Value] = [inv0]
    for m in range(1, n + 1):
        out.append(collapse(-inv0 * sum((w * out[m - k] for k, w in rows[m]), Fraction(0))))
    return tuple(out)


def egf_compose(f: Sequence[Value], h: Sequence[Value]) -> Series:
    """f(h(t)) mod t^(N+1): moment n is sum_k f_k B_(n,k)(h_1, h_2, ...).

    h must have zero constant term.  The partial Bell values are built one
    column from the next, B_(n,k) = sum_d C(n-1,d-1) h_d B_(n-d,k-1).  Column
    k vanishes below row k, so those entries are never computed;
    zero moments of h are skipped, and the columns stop at f's last nonzero
    moment.
    """
    n = _check_orders(f, h)
    if collapse(h[0]) != 0:
        raise ValueError("inner series of a composition must have zero constant term")
    top = max((k for k in range(1, n + 1) if f[k]), default=0)
    rows = _binomial_rows(h[1:])  # row i - 1 holds C(i-1, d-1) h_d at index d - 1
    out: list[Value] = [f[0]] + [Fraction(0)] * n
    column = list(h)  # B_(i,1) = h_i
    for k in range(1, top + 1):
        fk = f[k]
        if fk:
            for i in range(k, n + 1):
                out[i] = out[i] + fk * column[i]
        if k < top:
            nxt: list[Value] = [Fraction(0)] * (n + 1)
            for i in range(k + 1, n + 1):
                acc: Value = Fraction(0)
                for j, w in rows[i - 1]:
                    if j > i - 1 - k:
                        break
                    acc = acc + w * column[i - 1 - j]
                nxt[i] = acc
            column = nxt
    return tuple(collapse(c) for c in out)


def egf_revert(h: Sequence[Value]) -> Series:
    """The series r with h(r(t)) = t mod t^(N+1), by the Lagrange formula.

    With q the moment form of t/h(t), the reciprocal of (h_(n+1)/(n+1))_n,
    moment m of r is moment m - 1 of q^m (Knuth, TAOCP vol. 2 §4.7): the
    umbral E[(-m.g)^(m-1)] for g the overbar umbra of h, up to a factor
    h_1^m.  Each q^m is built from q^(m-1).
    """
    n = _order(h)
    if collapse(h[0]) != 0:
        raise NonInvertibleError("reversion needs a zero constant term")
    if n < 1:
        raise NonInvertibleError("reversion needs order >= 1")
    h1 = _leading_scalar(h[1], "linear coefficient of a reversion")
    if h1 == 0:
        raise NonInvertibleError("reversion needs a nonzero linear coefficient")
    q = egf_reciprocal(tuple(collapse(h[d + 1]) / (d + 1) for d in range(n)))  # t/h mod t^N
    rows = _binomial_rows(q)
    power = q
    r: list[Value] = [Fraction(0), q[0]]
    for m in range(2, n + 1):
        power = _convolve(rows, power)
        r.append(power[m - 1])
    return tuple(r)


def egf_log(f: Sequence[Value]) -> Series:
    """log f for constant term 1, by the moment-cumulant recurrence
    k_n = f_n - sum_(j=1)^(n-1) C(n-1,j) f_j k_(n-j)."""
    n = _order(f)
    if collapse(f[0]) != 1:
        raise ValueError("logarithm needs constant term 1")
    rows = _binomial_rows(f, first=1)
    out: list[Value] = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        out[m] = collapse(f[m] - sum((w * out[m - j] for j, w in rows[m - 1]), Fraction(0)))
    return tuple(out)


def egf_exp(h: Sequence[Value]) -> Series:
    """exp h for zero constant term: a_n = sum_(k=1)^n C(n-1,k-1) h_k a_(n-k)."""
    n = _order(h)
    if collapse(h[0]) != 0:
        raise ValueError("exponential needs zero constant term")
    rows = _binomial_rows(h[1:])  # row m - 1 holds C(m-1, k-1) h_k at index k - 1
    out: list[Value] = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(collapse(sum((w * out[m - 1 - j] for j, w in rows[m - 1]), Fraction(0))))
    return tuple(out)


def egf_power(f: Sequence[Value], e) -> Series:
    """f^e = exp(e log f) for constant term 1; e may be rational or a Poly."""
    _order(f)
    if collapse(f[0]) != 1:
        raise ValueError("power needs constant term 1")
    if isinstance(e, int):
        e = Fraction(e)
    return egf_exp(egf_scale(e, egf_log(f)))
