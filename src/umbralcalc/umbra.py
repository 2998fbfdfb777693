"""Umbrae as truncated moment sequences, and the dot-operation algebra.

An :class:`Umbra` is the computational residue of a formal symbol a with
E[a^n] = a_n: a unital moment sequence (a_0 = 1, a_1, ..., a_N) whose entries
are exact rationals or polynomials in x, y.  The moment tuple is also the
series kernel's representation of f(a, t) (:mod:`umbralcalc.series`), so
every operation below hands moments to the kernel and wraps what it returns,
with no conversion in between.  All the classical operations are
moment-level maps:

* ``umbral_sum``      -- binomial convolution (product of generating functions)
* ``dot(g, a)``       -- the series route: f(g.a, t) = f(g, log f(a, t)) for
                         an umbra or a polynomial g (moments g^n), f(a, t)^c
                         = exp(c log f(a, t)) for a scalar c
* ``cumulant``        -- chi.a: 1, then the moments of log f(a, t)
* ``dot_power``       -- k-th moment is a_k^n
* ``inverse_dot``     -- reciprocal generating function
* ``comp_inverse``    -- 1 + r, r the Lagrange reversion of f(a, t) - 1
* ``adjoint``         -- exp(r) (partition umbra of the inverse)
* ``derivative_umbra``-- moments n * a_{n-1}
* ``factorial_umbra`` -- a.chi, whose moments are E[(a)_n]

Each operation has one algorithm; the classical partition and Stirling sums
these maps replace are kept as test oracles in ``tests/oracles.py``.

g.a is linear in g: moment n is sum_k g_k B_(n,k)(k_a), over the partial
Bell matrix of a's cumulants k_a = log f(a, t) (Comtet, *Advanced
Combinatorics*, 1974, section 3.3).  That series and that matrix belong to a
alone, so an :class:`Umbra` computes each once and remembers it, and the
builtin constructors return one shared umbra per order: a dot, a cumulant or
a rational multiple on a remembered right operand starts from its
cumulants, and a composition folds over its table with no table built.

Auxiliary umbrae produced by these operations carry no correlation with
their operands: each application denotes a fresh symbol, known only through
its moments.  That convention lives in the expression evaluator
(:mod:`umbralcalc.expressions`); this module is pure moment arithmetic.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache, wraps
from math import factorial

from .errors import NonInvertibleError, OrderMismatchError
from .poly import Poly, Value, _make, _power_table, _powers_of, _sum_products, collapse
from .series import (
    Series,
    _over,
    _split,
    egf_bell_table,
    egf_compose,
    egf_compose_over,
    egf_exp,
    egf_log,
    egf_mul,
    egf_reciprocal,
    egf_revert,
    egf_scale,
)


class Umbra:
    """A truncated unital moment sequence, optionally named for display.

    An umbra remembers what its dots derive from it alone, in private slots
    that take no part in ``==``, ``hash`` or ``repr``: its cumulant series
    log f(a, t), on first use, and that series' whole Bell table, on the
    first dot whose left side needs every column.  The moments and the name
    are read-only, so a shared umbra stays what it was built as.
    """

    __slots__ = ("_moments", "_name", "_log", "_table")

    def __init__(self, moments: Sequence, name: str | None = None):
        ms = tuple(map(collapse, moments))
        if not ms:
            raise ValueError("an umbra needs at least the 0th moment")
        if ms[0] != 1:
            raise ValueError("moment sequences must be unital (a_0 = 1)")
        self._moments = ms
        self._name = name
        self._log: Series | None = None
        self._table = None

    @property
    def moments(self) -> tuple[Value, ...]:
        return self._moments

    @property
    def name(self) -> str | None:
        return self._name

    @property
    def order(self) -> int:
        return len(self._moments) - 1

    def moment(self, n: int) -> Value:
        return self._moments[n]

    def truncated(self, order: int) -> "Umbra":
        if order > self.order:
            who = f"umbra {self._name!r}" if self._name else "umbra"
            raise OrderMismatchError(f"{who} holds moments only to order {self.order}")
        if order == self.order:
            return self
        return Umbra(self._moments[: order + 1], name=self._name)

    def _cumulants(self) -> Series:
        """log f(a, t), computed once."""
        if self._log is None:
            self._log = egf_log(self._moments)
        return self._log

    def _cumulant_table(self):
        """The Bell table of log f(a, t), built once."""
        if self._table is None:
            self._table = egf_bell_table(self._cumulants())
        return self._table

    def __eq__(self, other):
        if isinstance(other, Umbra):
            return self._moments == other._moments
        return NotImplemented

    def __hash__(self):
        return hash(self._moments)

    def __repr__(self):
        label = f" {self._name}" if self._name else ""
        return f"Umbra{label}{list(self._moments)!r}"


# ---------------------------------------------------------------------------
# Named umbrae
#
# Each builtin constructor returns one shared Umbra per order up to
# SHARED_ORDER, so what a dot derives from a builtin is derived once per
# process; a higher order is built afresh on every call.

# The most the evaluator reads: the CLI's --order cap plus one, for bar(a).
SHARED_ORDER = 65


def _shared(build: Callable[[int], Umbra]) -> Callable[[int], Umbra]:
    """``build`` with one Umbra per order 0, ..., SHARED_ORDER."""
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def builtin(order: int) -> Umbra:
        return cached(order) if 0 <= order <= SHARED_ORDER else build(order)

    return builtin


@_shared
def augmentation(order: int) -> Umbra:
    """eps: E[eps^n] = [n == 0]; generating function 1."""
    return Umbra([Fraction(1)] + [Fraction(0)] * order, name="eps")


@_shared
def unity(order: int) -> Umbra:
    """u: all moments 1; generating function e^t."""
    return Umbra([Fraction(1)] * (order + 1), name="u")


@_shared
def singleton(order: int) -> Umbra:
    """chi: first moment 1, the rest 0; generating function 1 + t."""
    ms = [Fraction(1)] + [Fraction(0)] * order
    if order >= 1:
        ms[1] = Fraction(1)
    return Umbra(ms, name="chi")


@_shared
def bell_umbra(order: int) -> Umbra:
    """bell: moments are the Bell numbers; exp(e^t - 1), e^t - 1 having moments 0, 1, 1, ..."""
    return Umbra(egf_exp((Fraction(0),) + (Fraction(1),) * order), name="bell")


@_shared
def bernoulli_umbra(order: int) -> Umbra:
    """bern: moments are the Bernoulli numbers (B_1 = -1/2); t/(e^t - 1), the
    reciprocal of (e^t - 1)/t, whose moments are 1/(n+1)."""
    return Umbra(egf_reciprocal(tuple(Fraction(1, n + 1) for n in range(order + 1))), name="bern")


@_shared
def ubar_umbra(order: int) -> Umbra:
    """ubar: moments n!; generating function 1/(1 - t)."""
    ms = [Fraction(1)]
    for n in range(1, order + 1):
        ms.append(ms[-1] * n)
    return Umbra(ms, name="ubar")


@_shared
def uinv_umbra(order: int) -> Umbra:
    """uinv: the compositional inverse of u; 1 + log(1 + t)."""
    ms: list[Fraction] = [Fraction(1)]
    for n in range(1, order + 1):
        ms.append(Fraction((-1) ** (n - 1) * factorial(n - 1)))
    return Umbra(ms, name="uinv")


BUILTIN_UMBRAE: dict[str, Callable[[int], Umbra]] = {
    "eps": augmentation,
    "u": unity,
    "chi": singleton,
    "bell": bell_umbra,
    "bern": bernoulli_umbra,
    "ubar": ubar_umbra,
    "uinv": uinv_umbra,
}


def indeterminate_umbra(var: str, order: int) -> Umbra:
    """The deterministic umbra with moments var^n (var is x or y)."""
    return Umbra(_powers_of(var, order), name=var)


def scalar_umbra(c, order: int) -> Umbra:
    """The deterministic umbra with moments c^n (the constant c under E)."""
    return Umbra(_power_table(c if isinstance(c, (Fraction, Poly)) else Fraction(c), order))


# ---------------------------------------------------------------------------
# Moment-level operations


def _check_same_order(m: int, n: int) -> int:
    if m != n:
        raise OrderMismatchError(f"umbra orders differ: {m} vs {n}")
    return m


def umbral_sum(a: Umbra, b: Umbra) -> Umbra:
    """Moments of a + b' for uncorrelated a, b: binomial convolution."""
    return Umbra(egf_mul(a.moments, b.moments))


def disjoint_sum(a: Umbra, b: Umbra) -> Umbra:
    n = _check_same_order(a.order, b.order)
    return Umbra([Fraction(1)] + [a.moment(i) + b.moment(i) for i in range(1, n + 1)])


def disjoint_diff(a: Umbra, b: Umbra) -> Umbra:
    n = _check_same_order(a.order, b.order)
    return Umbra([Fraction(1)] + [a.moment(i) - b.moment(i) for i in range(1, n + 1)])


def scalar_multiple(c, a: Umbra) -> Umbra:
    """The umbra c*a: moments c^n a_n."""
    return Umbra([cn * m for cn, m in zip(_power_table(c, a.order), a.moments)])


def factorial_umbra(a: Umbra) -> Umbra:
    """a.chi, whose moments are the factorial moments a_(n) = E[(a)_n] of a."""
    return dot(a, singleton(a.order))


def factorial_moments(a: Umbra) -> list[Value]:
    """a_(n) = E[(a)_n]: the moments of a.chi."""
    return list(factorial_umbra(a).moments)


def dot(left, a: Umbra) -> Umbra:
    """The dot-product left.a, computed on generating functions from
    a's cumulant series k = log f(a, t), which a remembers:

    * left an Umbra g: f(g.a, t) = f(g, k(t)) (requires equal orders).  A g
      with g_N != 0 folds over k's whole Bell table, which a builds once
      and remembers; so does any g with g_n != 0 for some n >= 2 once a
      holds that table.  Any other g composes over only the columns up to
      its last nonzero moment, as eps and chi always do;
    * left a Poly p (x, x + c, ...): the same composition, with g the
      deterministic umbra of moments p^n, so f(p.a, t) = exp(p k(t));
    * left a rational c (any sign): exp(c k(t)), which is faster than the
      composition for a scalar exponent.

    Callers holding some umbra's k already (an adjoint's r) call ``_dot_log``.
    """
    if not isinstance(left, (Umbra, Poly)):
        return Umbra(egf_exp(egf_scale(left, a._cumulants())))
    if isinstance(left, Poly):
        left = scalar_umbra(left, a.order)
    _check_same_order(left.order, a.order)
    g = left.moments
    if any(g[2:]) and (g[-1] or a._table is not None):
        return Umbra(egf_compose_over(g, a._cumulant_table()))
    return Umbra(egf_compose(g, a._cumulants()))


def _dot_log(left, h: Series) -> Umbra:
    """left.a for the umbra a with log f(a, t) = h: f(left, h(t)), left an Umbra or a Poly."""
    if isinstance(left, Poly):
        left = scalar_umbra(left, len(h) - 1)
    _check_same_order(left.order, len(h) - 1)
    return Umbra(egf_compose(left.moments, h))


def dot_power(a: Umbra, n: int) -> Umbra:
    """a^{.n}: k-th moment is a_k^n; n = 0 gives the unity umbra."""
    if n < 0:
        raise ValueError("dot-power needs n >= 0")
    if n == 0:
        return unity(a.order)
    return Umbra([collapse(m**n) for m in a.moments])


def inverse_dot(a: Umbra) -> Umbra:
    """-1.a, the inverse umbra: reciprocal generating function."""
    return Umbra(egf_reciprocal(a.moments))


def _require_scalar_first_moment(a: Umbra) -> Fraction:
    if a.order < 1:
        raise NonInvertibleError("need at least one moment beyond order 0")
    m1 = collapse(a.moment(1))
    if not isinstance(m1, Fraction):
        raise NonInvertibleError("first moment must be a nonzero scalar")
    if m1 == 0:
        raise NonInvertibleError("first moment is zero")
    return m1


def _reversion(g: Umbra) -> Series:
    """The reversion r of f(g, t) - 1; needs a nonzero scalar g_1."""
    _require_scalar_first_moment(g)
    return egf_revert((Fraction(0),) + g.moments[1:])


def _comp_inverse_of(r: Series) -> Umbra:
    """The umbra with generating function 1 + r."""
    return Umbra((Fraction(1),) + r[1:])


def _adjoint_of(r: Series) -> Umbra:
    """The umbra with generating function exp(r)."""
    return Umbra(egf_exp(r))


def comp_inverse(a: Umbra) -> Umbra:
    """a^<-1>: f(a^<-1>, t) = 1 + r with r the reversion of f(a, t) - 1."""
    return _comp_inverse_of(_reversion(a))


def adjoint(g: Umbra) -> Umbra:
    """g* : the partition umbra of g^<-1>; f(g*, t) = exp(r), r as in comp_inverse."""
    return _adjoint_of(_reversion(g))


def derivative_umbra(a: Umbra, order: int | None = None) -> Umbra:
    """a_D: moments n * a_{n-1}; generating function 1 + t f(a, t).

    Built to ``order`` (default a.order, at most a.order + 1) from
    a_0..a_{order-1}.  Its overbar umbra is a and its first moment is 1, which
    is why the Abel, Lagrange and Bell theorems for a are the general ones for a_D.
    """
    order = a.order if order is None else order
    if order > a.order + 1:
        raise OrderMismatchError(f"a derivative umbra to order {order} needs moments to order {order - 1}, "
                                 f"past the umbra's {a.order}")
    out: list[Value] = [Fraction(1)]
    for n in range(1, order + 1):
        out.append(collapse(Fraction(n) * a.moment(n - 1)))
    return Umbra(out)


def cumulant(a: Umbra) -> Umbra:
    """chi.a: moment n >= 1 is n! times the t^n coefficient of log f(a, t),
    the cumulant series that a remembers."""
    return Umbra((Fraction(1),) + a._cumulants()[1:])


def overbar_umbra(g: Umbra) -> Umbra:
    """The moment-shift umbra: moments g_{n+1} / (g_1 (n+1)).

    Defined only for scalar g_1 != 0; the result has one order less than g.
    """
    g1 = _require_scalar_first_moment(g)
    out: list[Value] = []
    for n in range(g.order):
        out.append(collapse(g.moment(n + 1) / (g1 * (n + 1))))
    return Umbra(out)


def with_x_shift(a: Umbra) -> Umbra:
    """The polynomial umbra a + x.u: the umbral sum of a and the umbra of moments x^n."""
    return umbral_sum(a, indeterminate_umbra("x", a.order))


# ---------------------------------------------------------------------------
# Substitution of an umbra into a polynomial sequence


def substitute(polys: Sequence, a: Umbra) -> list[Value]:
    """E[q_n(a)] for each polynomial: x^k evaluates to a_k (single label).

    ``polys`` holds Poly values (or scalars for degree 0); entries beyond the
    umbra's order raise, since their evaluation would need missing moments.
    With a = A / D (``series._split``, once for every polynomial) and
    q = Q / d, E[q(a)] is one sum of Q's numerators times A_k over d D, as in
    ``Poly.substitute``: one ``_sum_products`` and one gcd per polynomial.
    """
    nums, d, _ = _split(a.moments)
    out: list[Value] = []
    for q in polys:
        if not isinstance(q, Poly):
            out.append(collapse(q))
            continue
        if q.degree_in("x") > a.order:
            raise OrderMismatchError(
                f"polynomial of degree {q.degree_in('x')} needs moments beyond order {a.order}"
            )
        terms = ((_make({(0, dy): c}, 1) if dy else c, nums[dx]) for (dx, dy), c in q._num.items())
        out.append(_over(_sum_products(terms), q._den * d))
    return out
