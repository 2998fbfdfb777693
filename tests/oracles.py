"""Partition sums, kept as test oracles for the series kernel.

The umbral calculus replaces the classical sums over integer partitions by
moment-level operations; the package computes every one of them on the
series kernel.  The sums themselves live here, exponential in the order and
sharing no code with the kernel, so the tests can check production against
them:

* ``bell_partial`` / ``bell_complete`` -- partial and complete Bell
  polynomials as partition sums (production: moment i of h^j / j!, entry
  (i, j) of a Bell table over its row's denominator, built by
  ``series.egf_bell_table`` or, for a reversion, ``series.egf_revert_table``);
* ``partition_expand`` / ``dot_via_partitions`` -- the multinomial values of
  dot-product moments (production: ``umbra.dot``);
* ``factorial_moments`` -- a_(n) = sum_k s(n, k) a_k by the signed Stirling
  triangle (production: the moments of a.chi);
* ``falling_factorial`` -- (a)_n as a plain product (production: one
  ``binomial_row``);
* ``expectation`` -- E[expr] by full symbolic expansion, one Fraction per
  monomial keyed by its sorted (label, exponent) pairs (production: the
  evaluator's linear forms on the series kernel, and its expansion route,
  int numerators over one denominator keyed by exponent vectors);
* ``bell_numbers`` / ``bernoulli_numbers`` -- the classical recurrences
  (production: ``bell_umbra`` and ``bernoulli_umbra``, exp(e^t - 1) and
  t/(e^t - 1) on the kernel);
* ``lagrange_revert_by_powers`` -- the Lagrange formula with every power of
  t/h built from the one before (production: ``series.egf_revert``, which
  solves h(r) = t through the partial Bell values of r);
* ``stirling_by_bernoulli`` -- the Stirling triangles column by column,
  S(n,k) = C(n,k) E[(-k.bern)^(n-k)] and s(n,k) = C(n,k) E[(k.(bern.chi))^(n-k)],
  one dot product per column (production: the coefficient tables of the
  sequences associated to uinv and u);
* ``cmul`` / ``horner_compose`` -- the Cauchy product and composition by
  Horner's rule, f(h) = f_0 + h (f_1 + h (f_2 + ...)), on coefficient lists
  c_n = a_n / n! (production: ``series.egf_mul``, and
  ``series.egf_compose_over``, a sum over each row of the partial Bell table
  of h).

The Sheffer and associated tables also have their routes here, each the
composition of a polynomial-moment series with r, the reversion of
f(g, t) - 1 (production: the kernel's folds over one integer Bell table of
r, ``series.egf_revert_table``, whose row i is over its own denominator
E^i, a row at a time):

* ``sheffer_series_route`` -- e^{x r} / f(a, r) by ``egf_mul``,
  ``egf_reciprocal``, ``egf_compose`` and ``egf_exp`` (production:
  ``series.egf_exp_x_over``);
* ``sheffer_moment_route`` -- f(-1.a + x.u, r) by ``horner_compose``
  (production: ``series.egf_appell_over``);
* ``associated_route`` -- f(x.u, r) by ``horner_compose`` (production:
  ``series.egf_compose_over``).

It also holds the two Sheffer pairs that only the tests use, ``power_pair``
and ``factorial_pair``, and ``tokenize``, a character-by-character scanner
that tracks the line and column of every token (production: one token
pattern, positions worked out only for an error, and a bound on the token
count that this scanner does not have).  ``FractionPoly`` is the polynomial
ring with one Fraction per coefficient (production: ``Poly``, int numerators
over one denominator), and ``connection_matrix`` solves for connection
constants by back-substitution on Fraction coefficient rows (production:
the umbral formula, checked by substitution into the target basis).  ``definite_integral`` integrates a
polynomial over an interval by its FractionPoly antiderivative (production:
the integral over [0, 1] is E[p(-1.bern)], a substitution).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from umbralcalc.combinatorics import stirling_first_classical
from umbralcalc.errors import OrderMismatchError, UmbraSyntaxError
from umbralcalc.expressions import (
    Atom,
    Const,
    Environment,
    Expr,
    Indet,
    Power,
    ScalarMul,
    Sum,
    default_environment,
    evaluate,
)
from umbralcalc.parser import KEYWORDS
from umbralcalc.poly import X, Poly, Value, _monomial_str, collapse
from umbralcalc.rationals import format_rational
from umbralcalc.series import Series, egf_compose, egf_exp, egf_mul, egf_reciprocal, egf_scale
from umbralcalc.sheffer import ShefferPair, sheffer_moments
from umbralcalc.umbra import (
    Umbra,
    augmentation,
    bernoulli_umbra,
    dot,
    factorial_umbra,
    inverse_dot,
    singleton,
    unity,
    with_x_shift,
)


def falling_factorial(a, n: int) -> Value:
    """(a)_n = a (a-1) ... (a-n+1); the empty product for n = 0."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    result: Value = Fraction(1)
    for i in range(n):
        result = result * (a - i)
    return collapse(result)


def _umul(p: dict, q: dict) -> dict:
    """The product of two umbral polynomials, each a dict from a monomial
    (sorted ((label, exp), ...), x-exp, y-exp) to its Fraction coefficient."""
    out: dict = {}
    for (atoms1, x1, y1), c1 in p.items():
        for (atoms2, x2, y2), c2 in q.items():
            merged = dict(atoms1)
            for label, e in atoms2:
                merged[label] = merged.get(label, 0) + e
            key = (tuple(sorted(merged.items())), x1 + x2, y1 + y2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def expectation(expr: Expr, env: Environment | None = None) -> Value:
    """E[expr] for an umbral polynomial, by symbolic expansion into Fraction
    monomials and E on each by the product rule: E[a^i g^j] = a_i g_j for
    distinct labels.  An operation (dot, dot-power, prime on a composite,
    keyword call) is a fresh label whose moments ``evaluate`` gives."""
    env = default_environment() if env is None else env
    sources: dict = {}

    def upoly(e: Expr) -> dict:
        if isinstance(e, Atom):
            label = ("atom", e.name, e.primes)
            src = env[e.name]
            sources[label] = src.truncated if isinstance(src, Umbra) else src
        elif isinstance(e, Indet):
            return {((), 1, 0) if e.var == "x" else ((), 0, 1): Fraction(1)}
        elif isinstance(e, Const):
            return {((), 0, 0): Fraction(e.value)} if e.value else {}
        elif isinstance(e, Sum):
            out = upoly(e.left)
            for key, c in upoly(e.right).items():
                out[key] = out.get(key, 0) + c
            return {key: c for key, c in out.items() if c}
        elif isinstance(e, ScalarMul):
            c = Fraction(e.scalar)
            return {key: c * v for key, v in upoly(e.expr).items()} if c else {}
        elif isinstance(e, Power):
            out, base = {((), 0, 0): Fraction(1)}, upoly(e.expr)
            for _ in range(e.power):
                out = _umul(out, base)
            return out
        else:
            label = ("aux", len(sources))
            sources[label] = lambda k, e=e: evaluate(e, k, env)
        return {(((label, 1),), 0, 0): Fraction(1)}

    base = upoly(expr)
    need: dict = {}
    for atoms, _, _ in base:
        for label, e in atoms:
            need[label] = max(need.get(label, 0), e)
    moments = {label: sources[label](n).moments for label, n in need.items()}
    total: Value = Fraction(0)
    for (atoms, dx, dy), c in base.items():
        term: Value = c
        for label, e in atoms:
            term = term * moments[label][e]
        if dx or dy:
            term = term * Poly({(dx, dy): 1})
        total = total + term
    return collapse(total)


def bell_numbers(n_max: int) -> list[Fraction]:
    """Bell numbers B_0..B_n via B_{n+1} = sum_k C(n,k) B_k."""
    out = [Fraction(1)]
    for n in range(n_max):
        out.append(sum((comb(n, k) * out[k] for k in range(n + 1)), Fraction(0)))
    return out


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """Bernoulli numbers with B_1 = -1/2, solving sum_{k<=m} C(m+1,k) B_k = 0
    for B_m, m >= 1, triangularly."""
    out = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = sum((comb(m + 1, k) * out[k] for k in range(m)), Fraction(0))
        out.append(-acc / (m + 1))
    return out


def lagrange_revert_by_powers(h: Sequence[Value]) -> tuple[Value, ...]:
    """The reversion r of h (h_0 = 0, scalar h_1 != 0, order >= 1): moment m of
    r is moment m - 1 of q^m, q = t/h the reciprocal of (h_(d+1)/(d+1))_d,
    each q^m the product q^(m-1) q."""
    n = len(h) - 1
    q = egf_reciprocal(tuple(collapse(h[d + 1]) / (d + 1) for d in range(n)))
    r: list[Value] = [Fraction(0)]
    power = q
    for m in range(1, n + 1):
        if m > 1:
            power = egf_mul(power, q)
        r.append(power[m - 1])
    return tuple(r)


def stirling_by_bernoulli(kind: str, n_max: int) -> list[list[Fraction]]:
    """Rows 0..n_max of the Stirling triangle of the "first" or "second"
    kind, column k from one dot power of bern (second) or bern.chi (first)."""
    bern = bernoulli_umbra(n_max)
    base = bern if kind == "second" else factorial_umbra(bern)
    columns = []
    for k in range(n_max + 1):
        umbra = dot(-k if kind == "second" else k, base.truncated(n_max - k))
        columns.append([collapse(comb(n, k) * umbra.moment(n - k)) for n in range(k, n_max + 1)])
    return [[columns[k][n - k] for k in range(n + 1)] for n in range(n_max + 1)]


def sheffer_series_route(pair: ShefferPair, r: Series) -> Series:
    """s_n = n! [t^n] e^{x r(t)} / f(a, r(t)), on the Poly series kernel."""
    return egf_mul(egf_reciprocal(egf_compose(pair.alpha.moments, r)), egf_exp(egf_scale(X, r)))


def _sum(terms) -> Value:
    return collapse(sum(terms, Fraction(0)))


def cmul(f, g):
    """Cauchy product of coefficient lists (zero terms skipped)."""
    return tuple(_sum(f[k] * g[n - k] for k in range(n + 1) if f[k] and g[n - k]) for n in range(len(f)))


def horner_compose(f, h):
    """Composition of coefficient lists by Horner's rule f(h) = f_0 + h (f_1 + h (f_2 + ...))."""
    n = len(f) - 1
    result = (f[n],) + (Fraction(0),) * n
    for k in range(n - 1, -1, -1):
        result = cmul(result, h)
        result = (collapse(result[0] + f[k]),) + result[1:]
    return result


def _compose_moments(f: Sequence[Value], r: Series) -> Series:
    """f(r(t)) on moment tuples, by ``horner_compose`` on the coefficients a_n / n!."""
    coeffs = [tuple(collapse(a) / factorial(n) for n, a in enumerate(s)) for s in (f, r)]
    return tuple(collapse(c * factorial(n)) for n, c in enumerate(horner_compose(*coeffs)))


def sheffer_moment_route(pair: ShefferPair, r: Series) -> Series:
    """The moments of (-1.a + x.u).g*, f(-1.a + x.u, r), by Horner's rule."""
    return _compose_moments(with_x_shift(inverse_dot(pair.alpha)).moments, r)


def associated_route(r: Series) -> Series:
    """The moments of x.g*, f(x.u, r), by Horner's rule."""
    return _compose_moments([X**n for n in range(len(r))], r)


def power_pair(order: int) -> ShefferPair:
    """The pair (eps, chi) whose Sheffer sequence is {x^n}."""
    return ShefferPair(augmentation(order), singleton(order))


def factorial_pair(order: int) -> ShefferPair:
    """The pair (eps, u) whose Sheffer sequence is the falling factorials."""
    return ShefferPair(augmentation(order), unity(order))


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
    """Partial Bell polynomial B_{i,j}(a_1, ..., a_{i-j+1}) as a partition sum.

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


def factorial_moments(a: Umbra) -> list[Value]:
    """a_(n) = E[(a)_n] = sum_k s(n, k) a_k, via signed Stirling numbers."""
    out: list[Value] = []
    for n in range(a.order + 1):
        acc: Value = Fraction(0)
        for k in range(n + 1):
            acc = acc + stirling_first_classical(n, k) * a.moment(k)
        out.append(collapse(acc))
    return out


def _partition_sum(weights: Sequence[Value], a: Umbra, i: int) -> Value:
    acc: Value = Fraction(0)
    for p in partitions_of(i):
        term = partition_coefficient(p)
        for part in p.parts:
            term = term * a.moment(part)
        acc = acc + weights[p.length] * term
    return collapse(acc)


def _raise_order(u: Umbra, i: int):
    raise OrderMismatchError(f"umbra holds moments only to order {u.order}, need {i}")


def partition_expand(left, a: Umbra, i: int) -> Value:
    """Multinomial-expansion value of the i-th moment.

    For scalar or polynomial left n this is (n.a)^i with weights (n)_len;
    for an umbra g it is the composition umbra (g.bell.a)^i with weights
    g^len (raw moments).
    """
    if i < 0:
        raise ValueError("moment index must be >= 0")
    if i == 0:
        return Fraction(1)
    if isinstance(left, Umbra):
        if left.order < i:
            _raise_order(left, i)
        return _partition_sum([left.moment(j) for j in range(i + 1)], a, i)
    weights = [falling_factorial(left, j) for j in range(i + 1)]
    return _partition_sum(weights, a, i)


def dot_via_partitions(left, a: Umbra, i: int) -> Value:
    """Partition-sum value of E[(left.a)^i]; the multinomial oracle for dot().

    Scalar/polynomial left uses falling-factorial weights; an umbra left uses
    its factorial moments, from the Stirling sum above.
    """
    if i < 0:
        raise ValueError("moment index must be >= 0")
    if i == 0:
        return Fraction(1)
    if isinstance(left, Umbra):
        if left.order < i:
            _raise_order(left, i)
        return _partition_sum(factorial_moments(left), a, i)
    weights = [falling_factorial(left, j) for j in range(i + 1)]
    return _partition_sum(weights, a, i)


# ---------------------------------------------------------------------------
# The character scanner

_SIMPLE = {
    "+": "PLUS",
    "-": "MINUS",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "'": "PRIME",
    "/": "SLASH",
}


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    offset: int
    line: int
    column: int

    @property
    def end(self) -> int:
        return self.offset + len(self.lexeme)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg: str, at: int, at_line: int, at_col: int):
        raise UmbraSyntaxError(msg, at, at_line, at_col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start, sline, scol = i, line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "NAME"
            tokens.append(Token(kind, word, start, sline, scol))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            limit = getattr(sys, "get_int_max_str_digits", int)()  # int() = 0: no limit
            if limit and j - i > limit:
                err(f"integer literal longer than {limit} digits", start, sline, scol)
            tokens.append(Token("INT", text[i:j], start, sline, scol))
            col += j - i
            i = j
            continue
        if ch == "^":
            if i + 1 < n and text[i + 1] == ".":
                tokens.append(Token("CARETDOT", "^.", start, sline, scol))
                i += 2
                col += 2
            else:
                tokens.append(Token("CARET", "^", start, sline, scol))
                i += 1
                col += 1
            continue
        if ch == ".":
            if i + 1 < n and text[i + 1] == ".":
                err("illegal token '..'", start, sline, scol)
            tokens.append(Token("DOT", ".", start, sline, scol))
            i += 1
            col += 1
            continue
        if ch in _SIMPLE:
            tokens.append(Token(_SIMPLE[ch], ch, start, sline, scol))
            i += 1
            col += 1
            continue
        err(f"illegal character {ch!r}", start, sline, scol)
    tokens.append(Token("EOF", "", n, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Polynomials with one Fraction per coefficient


class FractionPoly:
    """A polynomial in x, y as a dict {(deg_x, deg_y): Fraction}, zero
    coefficients never stored, every ring operation done coefficient by
    coefficient in Fraction arithmetic (production: ``Poly``, int numerators
    over one denominator, reduced once per operation)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=0):
        if isinstance(coeffs, (Fraction, int)):
            coeffs = {(0, 0): coeffs}
        self.coeffs = {key: Fraction(c) for key, c in coeffs.items() if c}

    @staticmethod
    def of(p) -> FractionPoly:
        """The oracle copy of a production Poly or a scalar."""
        return FractionPoly(dict(p.items()) if isinstance(p, Poly) else p)

    def __add__(self, other):
        other = _fp(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly({key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_fp(other))

    def __rsub__(self, other):
        return _fp(other) + (-self)

    def __mul__(self, other):
        other = _fp(other)
        out: dict = {}
        for (ax, ay), ac in self.coeffs.items():
            for (bx, by), bc in other.coeffs.items():
                key = (ax + bx, ay + by)
                out[key] = out.get(key, Fraction(0)) + ac * bc
        return FractionPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = Fraction(scalar)
        if not c:
            raise ZeroDivisionError("division of polynomial by zero")
        return FractionPoly({key: v / c for key, v in self.coeffs.items()})

    def __pow__(self, n: int):
        result = FractionPoly(1)
        for _ in range(n):
            result = result * self
        return result

    def derivative(self, var: str = "x") -> FractionPoly:
        i = "xy".index(var)
        out = {}
        for key, c in self.coeffs.items():
            if key[i]:
                new = list(key)
                new[i] -= 1
                out[tuple(new)] = c * key[i]
        return FractionPoly(out)

    def antiderivative(self, var: str = "x") -> FractionPoly:
        i = "xy".index(var)
        out = {}
        for key, c in self.coeffs.items():
            new = list(key)
            new[i] += 1
            out[tuple(new)] = c / new[i]
        return FractionPoly(out)

    def substitute(self, x=None, y=None) -> FractionPoly:
        """Each monomial's powers taken by ``**`` on the substituted values."""
        vx = FractionPoly({(1, 0): 1}) if x is None else _fp(x)
        vy = FractionPoly({(0, 1): 1}) if y is None else _fp(y)
        total = FractionPoly()
        for (dx, dy), c in self.coeffs.items():
            total = total + c * vx**dx * vy**dy
        return total

    def __eq__(self, other):
        return self.coeffs == _fp(other).coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        keys = sorted(self.coeffs, key=lambda k: (-(k[0] + k[1]), -k[0]))
        parts: list[str] = []
        for key in keys:
            c = self.coeffs[key]
            mono = _monomial_str(key)
            if mono == "1":
                body = format_rational(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{format_rational(abs(c))}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json_map(self) -> dict[str, str]:
        return {_monomial_str(key): format_rational(c) for key, c in sorted(self.coeffs.items())}


def _fp(value) -> FractionPoly:
    return value if isinstance(value, FractionPoly) else FractionPoly.of(value)


def definite_integral(p, var: str, lo, hi) -> FractionPoly:
    """The integral of p over [lo, hi] in ``var``, by the antiderivative."""
    anti = _fp(p).antiderivative(var)
    return anti.substitute(**{var: hi}) - anti.substitute(**{var: lo})


# ---------------------------------------------------------------------------
# Connection constants by back-substitution on Fraction rows


def triangular_expand_rows(p: Poly, basis: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients of the y-free p in the triangular basis with coefficient
    rows ``basis`` (row k ends in its x^k coefficient), by back-substitution
    on p's row of x-coefficients (production takes the constants from the
    umbral formula and checks them by substitution into the basis, in
    ``sheffer.connection_constants``)."""
    deg = max(p.degree_in("x"), 0)
    residue = [p.coefficient(k) for k in range(deg + 1)]
    out = [Fraction(0)] * (deg + 1)
    for k in range(deg, -1, -1):
        row = basis[k]
        c = residue[k] / row[k]
        out[k] = c
        if c:
            for j in range(k + 1):
                residue[j] -= c * row[j]
    assert not any(residue), residue
    return out


def connection_matrix(frm: ShefferPair, to: ShefferPair) -> tuple[tuple[Fraction, ...], ...]:
    """The connection constants c_(n,k), s_n = sum_k c_(n,k) r_k, solved row
    by row from the two Sheffer tables' coefficient rows."""
    s, basis = sheffer_moments(frm), sheffer_moments(to).coefficient_table()
    return tuple(tuple(triangular_expand_rows(s[n], basis)) for n in range(len(s)))
