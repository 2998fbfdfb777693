"""Truncated exponential-generating-function arithmetic.

A :class:`TruncatedEGF` holds the coefficients (c_0, ..., c_N) of a formal
power series mod t^(N+1).  Moment form and coefficient form are exact
bijections of each other via a_n = n! * c_n, so the umbral layer can hop
between them freely.

Every operation is exact.  Binary operations insist on equal truncation
orders (mixing orders silently is how truncation bugs are born); use
:func:`truncated` to align orders explicitly.  Coefficients may be rationals
or polynomials in x, y; reciprocal/reversion additionally need an invertible
scalar leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .errors import NonInvertibleError, OrderMismatchError, SingularSeriesError
from .poly import Poly, Value, collapse


@dataclass(frozen=True)
class TruncatedEGF:
    """Coefficients (c_0, ..., c_N) of a series mod t^(N+1)."""

    coeffs: tuple[Value, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(collapse(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Value:
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncatedEGF({list(self.coeffs)!r})"


def _check_orders(f: TruncatedEGF, g: TruncatedEGF) -> int:
    if f.order != g.order:
        raise OrderMismatchError(f"series orders differ: {f.order} vs {g.order}")
    return f.order


def truncated(f: TruncatedEGF, order: int) -> TruncatedEGF:
    if order > f.order:
        raise OrderMismatchError(f"cannot extend order {f.order} series to {order}")
    return TruncatedEGF(f.coeffs[: order + 1])


def egf_from_moments(a: Sequence) -> TruncatedEGF:
    return TruncatedEGF(tuple(collapse(a_n) / Fraction(factorial(n)) for n, a_n in enumerate(a)))


def moments_from_egf(f: TruncatedEGF) -> list[Value]:
    return [collapse(c * Fraction(factorial(n))) for n, c in enumerate(f.coeffs)]


def egf_one(order: int) -> TruncatedEGF:
    return TruncatedEGF((Fraction(1),) + (Fraction(0),) * order)


def egf_identity(order: int) -> TruncatedEGF:
    """The series t."""
    coeffs = [Fraction(0)] * (order + 1)
    if order >= 1:
        coeffs[1] = Fraction(1)
    return TruncatedEGF(tuple(coeffs))


def egf_scale(c, f: TruncatedEGF) -> TruncatedEGF:
    return TruncatedEGF(tuple(c * a for a in f.coeffs))


def egf_mul(f: TruncatedEGF, g: TruncatedEGF) -> TruncatedEGF:
    """Cauchy product mod t^(N+1); binomial convolution in moment form."""
    n = _check_orders(f, g)
    out: list[Value] = []
    for i in range(n + 1):
        acc: Value = Fraction(0)
        for k in range(i + 1):
            acc = acc + f.coeffs[k] * g.coeffs[i - k]
        out.append(acc)
    return TruncatedEGF(tuple(out))


def _leading_scalar(value: Value, what: str) -> Fraction:
    c = collapse(value)
    if not isinstance(c, Fraction):
        raise NonInvertibleError(f"{what} must be a scalar, got {c}")
    return c


def egf_reciprocal(f: TruncatedEGF) -> TruncatedEGF:
    """Series g with f*g = 1, by triangular recursion on coefficients."""
    c0 = _leading_scalar(f.coeffs[0], "constant term of a reciprocal")
    if c0 == 0:
        raise SingularSeriesError("cannot invert a series with zero constant term")
    inv0 = Fraction(1) / c0
    out: list[Value] = [inv0]
    for n in range(1, f.order + 1):
        acc: Value = Fraction(0)
        for k in range(1, n + 1):
            acc = acc + f.coeffs[k] * out[n - k]
        out.append(-inv0 * acc)
    return TruncatedEGF(tuple(out))


def egf_compose(f: TruncatedEGF, h: TruncatedEGF) -> TruncatedEGF:
    """f(h(t)) = sum_k f_k h(t)^k mod t^(N+1); h must have zero constant term.

    Each power h^k is built from the previous one.  Since h has no constant
    term, h^k vanishes below t^k, so those coefficients are never computed;
    zero coefficients of h are skipped, and the powers stop at f's last
    nonzero coefficient.
    """
    n = _check_orders(f, h)
    if collapse(h.coeffs[0]) != 0:
        raise ValueError("inner series of a composition must have zero constant term")
    top = max((k for k in range(1, n + 1) if f.coeffs[k]), default=0)
    h_terms = [(d, c) for d, c in enumerate(h.coeffs) if d and c]
    out: list[Value] = [f.coeffs[0]] + [Fraction(0)] * n
    power = list(h.coeffs)  # h^k
    for k in range(1, top + 1):
        fk = f.coeffs[k]
        if fk:
            for i in range(k, n + 1):
                out[i] = out[i] + fk * power[i]
        if k < top:
            nxt: list[Value] = [Fraction(0)] * (n + 1)
            for i in range(k + 1, n + 1):
                acc: Value = Fraction(0)
                for d, c in h_terms:
                    if d > i - k:
                        break
                    acc = acc + power[i - d] * c
                nxt[i] = acc
            power = nxt
    return TruncatedEGF(tuple(out))


def egf_revert(h: TruncatedEGF) -> TruncatedEGF:
    """The series r with h(r(t)) = t mod t^(N+1), by the Lagrange formula.

    r_m = [t^(m-1)] q^m / m with q = t/h(t) and q^m built from q^(m-1) (Knuth,
    TAOCP vol. 2 §4.7): the coefficient form of the umbral E[(-m.g)^(m-1)].
    """
    if collapse(h.coeffs[0]) != 0:
        raise NonInvertibleError("reversion needs a zero constant term")
    if h.order < 1:
        raise NonInvertibleError("reversion needs order >= 1")
    h1 = _leading_scalar(h.coeffs[1], "linear coefficient of a reversion")
    if h1 == 0:
        raise NonInvertibleError("reversion needs a nonzero linear coefficient")
    power = q = egf_reciprocal(TruncatedEGF(h.coeffs[1:]))  # t/h mod t^N
    r: list[Value] = [Fraction(0), q.coeffs[0]]
    for m in range(2, h.order + 1):
        power = egf_mul(power, q)
        r.append(power.coeffs[m - 1] / m)
    return TruncatedEGF(tuple(r))


def egf_log(f: TruncatedEGF) -> TruncatedEGF:
    """log f for a series with constant term 1."""
    if collapse(f.coeffs[0]) != 1:
        raise ValueError("logarithm needs constant term 1")
    n = f.order
    out: list[Value] = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc: Value = Fraction(0)
        for k in range(1, m):
            acc = acc + Fraction(k) * out[k] * f.coeffs[m - k]
        out[m] = collapse(f.coeffs[m] - acc / Fraction(m))
    return TruncatedEGF(tuple(out))


def egf_exp(h: TruncatedEGF) -> TruncatedEGF:
    """exp h for a series with zero constant term."""
    if collapse(h.coeffs[0]) != 0:
        raise ValueError("exponential needs zero constant term")
    n = h.order
    out: list[Value] = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        acc: Value = Fraction(0)
        for k in range(1, m + 1):
            acc = acc + Fraction(k) * h.coeffs[k] * out[m - k]
        out[m] = collapse(acc / Fraction(m))
    return TruncatedEGF(tuple(out))


def egf_power(f: TruncatedEGF, e) -> TruncatedEGF:
    """f^e = exp(e log f) for constant term 1; e may be rational or a Poly."""
    if collapse(f.coeffs[0]) != 1:
        raise ValueError("power needs constant term 1")
    if isinstance(e, int):
        e = Fraction(e)
    return egf_exp(egf_scale(e, egf_log(f)))
