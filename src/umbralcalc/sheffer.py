"""Sheffer, associated and Appell sequences, umbral composition, and
connection constants.

A Sheffer pair (a, g) with E[g] != 0 determines the polynomial umbra
(-1.a + x.u).g*, whose moments s_0(x), ..., s_N(x) are the Sheffer sequence
of the pair.  Row n of every table is read off row n of one fraction-free
table of the partial Bell values of r, the reversion of f(g, t) - 1, which
the loop that solves for r builds as it goes (``series._revert_table``, one
per reversion).  Its row i is over its own denominator E^i, so no reader
rescales an entry.  Every composition over it, f(x.u, r) for the associated
table among them, is ``series._compose``, or, for f(b + x.u, r) with a
scalar b, a fold of the runs C(m, j) b_(m-j) read off b
(``_shifted_composition``).
``sheffer_moments`` computes its table twice on it -- once as
f(-1.a + x.u, r) of the Appell moments, once by the hand-written series
route e^{x r(t)} / f(a, r(t)) -- and insists the two agree, so every
returned sequence is self-checked.

Connection constants between two Sheffer sequences come from the closed
umbral formula and are checked by substituting them into the target basis,
whose table is lower-triangular with a nonzero diagonal, so the check is as
strong as a triangular solve.
Every such run-time check goes through ``require_equal``, which raises
``ConsistencyError`` naming the check and the first differing coefficient.
The identity checks' binomial convolutions are ``series.egf_mul``, and each
of their substitutions is one ``umbra.substitute`` over one table of powers.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import comb
from operator import mul

from .errors import ConsistencyError, VariableCaptureError
from .poly import X, Y, Poly, Value, _make, _monomial_str, _power_table, _powers_of, _sum_products
from .rationals import fraction
from .records import Record
from .series import (
    Series,
    _bell_table,
    _compose,
    _fold_runs,
    _pascal,
    _revert_table,
    _split,
    _times,
    egf_mul,
    egf_reciprocal,
)
from .umbra import (
    Umbra,
    _comp_inverse_of,
    _from_cumulants,
    _require_scalar_first_moment,
    _reversion,
    bell_umbra,
    bernoulli_umbra,
    cumulant,
    dot,
    indeterminate_umbra,
    inverse_dot,
    scalar_umbra,
    singleton,
    substitute,
    umbral_sum,
    with_x_shift,
)


def _as_poly(v: Value) -> Poly:
    return v if isinstance(v, Poly) else Poly(v)


def require_equal(check: str, lhs_seq, rhs_seq, first: int = 0) -> str:
    """The run-time self-check on two equally long sequences of values, the
    returned route ``lhs_seq`` and the checking route ``rhs_seq``.

    Where they first differ, raise ConsistencyError naming ``check``, the
    entry n (entry i is numbered first + i) and the first differing monomial
    by (deg_x, deg_y) key order; else return ``check`` (so callers can list
    the checks that passed).  Generators are read only up to the difference.
    """
    for n, (lhs, rhs) in enumerate(zip(lhs_seq, rhs_seq, strict=True), first):
        if lhs != rhs:
            lhs, rhs = _as_poly(lhs), _as_poly(rhs)
            key = min(key for key, _ in (lhs - rhs).items())
            raise ConsistencyError(check, n, _monomial_str(key), lhs.coefficient(*key), rhs.coefficient(*key))
    return check


def _require_free_of(a: Umbra, var: str, role: str, why: str = "the variable of its own table") -> None:
    """Refuse a pair member ``role`` whose moments mention ``var``.  A
    table's pair may not mention x: x is the table's own variable, and would
    capture the pair's x."""
    if any(isinstance(m, Poly) and m.degree_in(var) > 0 for m in a.moments):
        raise VariableCaptureError(f"{role} (--{role}) mentions {var}, {why}")


class ShefferPair(Record):
    """The data (a, g) of a Sheffer umbra, two Umbras: g_1 is a nonzero scalar, and neither mentions x."""

    __slots__ = ("alpha", "gamma")

    def __post_init__(self):
        if self.alpha.order != self.gamma.order:
            raise ValueError("pair members must share one truncation order")
        if self.gamma.order >= 1:
            _require_scalar_first_moment(self.gamma)
        _require_free_of(self.alpha, "x", "alpha")
        _require_free_of(self.gamma, "x", "gamma")

    @property
    def order(self) -> int:
        return self.alpha.order


class PolySequence(Record):
    """Polynomials s_0..s_N with deg s_n = n and s_0 = 1, held as a tuple of Polys."""

    __slots__ = ("polys",)

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(_as_poly(p) for p in self.polys))
        if not self.polys or self.polys[0] != 1:
            raise ValueError("a polynomial sequence starts with s_0 = 1")
        for n, p in enumerate(self.polys):
            if n > 0 and p.degree_in("x") != n:
                raise ValueError(f"entry {n} has degree {p.degree_in('x')}, expected {n}")

    @property
    def order(self) -> int:
        return len(self.polys) - 1

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, n: int) -> Poly:
        return self.polys[n]

    def __iter__(self):
        return iter(self.polys)

    def coefficients(self, n: int) -> list[Fraction]:
        """Row n of the coefficient triangle: [c_0, ..., c_n] in x."""
        row = self.polys[n].coeffs_in_x()
        row += [Fraction(0)] * (n + 1 - len(row))
        return row

    def coefficient_table(self) -> list[list[Fraction]]:
        return [self.coefficients(n) for n in range(len(self.polys))]


# ---------------------------------------------------------------------------
# The three sequence constructors
#
# Every table is read off the Bell table (columns, E, polys) of one reversion
# r: column k holds B_(i,k)(r) E^i, the partial Bell values of row i over
# their one denominator E^i (the exponential Riordan array [1/f(a, r), r]).
# A pair member mentions no x, so row n over D_f E^n has each x^j
# coefficient an int (or a Poly in y) summed off row n of the table, and
# becomes one Poly by one gcd.


def _table_of(gamma: Umbra) -> tuple[list[list], int, bool]:
    """The Bell table of the reversion r of f(g, t) - 1, built by the loop
    that solves for r.  At order 0, where every table is (1,), r is the zero
    series."""
    if not gamma.order:
        return _bell_table((Fraction(0),))
    _require_scalar_first_moment(gamma)
    return _revert_table((Fraction(0),) + gamma.moments[1:])


def _x_row(coeffs: list, den: int) -> Poly:
    """sum_j coeffs[j] x^j / den in lowest terms, by one gcd; each coefficient
    is an int or a Poly over denominator 1 free of x."""
    num: dict = {}
    for j, c in enumerate(coeffs):
        if isinstance(c, Poly):
            num.update(((j, dy), v) for (_, dy), v in c._num.items())
        elif c:
            num[(j, 0)] = c
    return _make(num, den)


def _shifted_composition(b: Umbra, table) -> Series:
    """f(b + x.u, r): ``_compose`` of with_x_shift(b) over the Bell table of r.
    For a scalar b = B / D_b over int columns, the run of x^j, its
    coefficients in moments j, ..., N, is C(m, j) B_(m-j), read off B with
    no Appell Poly built; a b or a table in y composes the Polys."""
    columns, e, polys = table
    nums, d, polys_b = _split(b.moments)
    if polys or polys_b:
        return _compose(with_x_shift(b).moments, table)
    top = len(columns) - 1
    runs = {(j, 0): (j, list(map(mul, map(comb, range(j, top + 1), repeat(j)), nums))) for j in range(top + 1)}
    return _fold_runs(runs, d, columns, e)


def _series_route(alpha: Sequence[Value], table) -> list[Poly]:
    """n! [t^n] e^{x r(t)} / f(a, r(t)): with 1/f(a, r) = A / D_a, the
    coefficient of x^j in moment n is sum_i C(n,i) a_(n-i) B_(i,j)(r).  The
    table's row i is over E^i (its columns run to top = N, as every table of
    a reversion's does), so with A_m E^m folded into A once, that
    coefficient is sum_i (C(n,i) A_(n-i) E^(n-i)) (column j)_i over D_a E^n."""
    columns, e, polys = table
    na, da, polys_a = _split(egf_reciprocal(_compose(alpha, table)))
    total, pairs = (_sum_products, zip) if polys or polys_a else (sum, partial(map, mul))  # _sum, chosen once
    powers = _power_table(e, len(na) - 1)
    na = list(map(_times, na, powers))  # A_m E^m
    out = []
    for row, den in enumerate(powers):
        ca = list(map(mul, _pascal(row), na[row::-1]))  # C(n,i) A_(n-i) E^(n-i) at index i
        out.append(_x_row([total(pairs(ca[j:], columns[j][j : row + 1])) for j in range(row + 1)], da * den))
    return out


def sheffer_moments(pair: ShefferPair) -> PolySequence:
    """Moments of (-1.a + x.u).g*, computed by two independent routes."""
    return _sheffer_table(pair, _table_of(pair.gamma))


def _sheffer_table(pair: ShefferPair, table, minus_a: Umbra | None = None) -> PolySequence:
    """sheffer_moments, given the Bell table of the reversion r of f(g, t) - 1
    and, from a caller that holds it, -1.a; only the moment route reads
    ``minus_a``, so a wrong one fails the check of the two routes.

    Moment route: the Appell umbra -1.a + x.u dotted into g* = exp(r),
    f(-1.a + x.u, r), one ``_shifted_composition``.  Series route:
    e^{x r(t)} / f(a, r(t)), a binomial product with the associated table.
    """
    via_moments = _shifted_composition(inverse_dot(pair.alpha) if minus_a is None else minus_a, table)
    via_series = _series_route(pair.alpha.moments, table)
    require_equal("sheffer moments vs series", via_moments, via_series)
    return PolySequence(via_moments)


def associated_moments(gamma: Umbra) -> PolySequence:
    """Moments of x.g*: the binomial-type sequence associated to g."""
    _require_free_of(gamma, "x", "gamma")
    return PolySequence(_compose(_powers_of("x", gamma.order), _table_of(gamma)))


def appell_moments(alpha: Umbra) -> PolySequence:
    """Moments of -1.a + x.u: p_n(x) = sum_k C(n,k) b_{n-k} x^k, b = -1.a."""
    _require_free_of(alpha, "x", "alpha")
    return PolySequence(with_x_shift(inverse_dot(alpha)).moments)


# ---------------------------------------------------------------------------
# Composition, inversion, connection constants


def umbral_compose(s: PolySequence, r: PolySequence) -> PolySequence:
    """s_n(r(x)) = sum_k s_{n,k} r_k(x), where s_{n,k} may mention y: E[s_n(p)]
    for the umbra p of moments r_k, one ``umbra.substitute``."""
    if s.order != r.order:
        raise ValueError("sequences must share one truncation order")
    return PolySequence(substitute(s.polys, Umbra(r.polys)))


def inverse_pair(pair: ShefferPair) -> ShefferPair:
    """The pair whose Sheffer sequence is the umbral-composition inverse."""
    r = _reversion(pair.gamma)
    return ShefferPair(dot(inverse_dot(pair.alpha), _from_cumulants(r)), _comp_inverse_of(r))


def inverse_sequence(pair: ShefferPair) -> PolySequence:
    """Sheffer sequence composing with the pair's own sequence to {x^n}.

    The inverse pair's gamma is 1 + r, so the reversion its table needs is
    f(g, t) - 1 itself, and no second reversion is taken.
    """
    return _sheffer_table(inverse_pair(pair), _bell_table((Fraction(0),) + pair.gamma.moments[1:]))


class ConnectionConstants(Record):
    """Lower-triangular c_{n,k} with s_n(x) = sum_k c_{n,k} r_k(x): ``matrix``
    is a tuple of rows of Fractions, and ``verified`` is always True
    (connection_constants raises ConsistencyError instead)."""

    __slots__ = ("matrix", "verified")

    def __getitem__(self, nk: tuple[int, int]) -> Fraction:
        n, k = nk
        return self.matrix[n][k]


def _x_coefficients(v: Value, n: int) -> tuple[list[int], int]:
    """The numerators of v's x^0, ..., x^n coefficients, and v's denominator."""
    if not isinstance(v, Poly):
        return [v.numerator] + [0] * n, v.denominator
    get = v._num.get
    return [get((j, 0), 0) for j in range(n + 1)], v._den


def connection_constants(frm: ShefferPair, to: ShefferPair) -> ConnectionConstants:
    """Expand the `frm` Sheffer sequence in the `to` Sheffer basis.

    The constants come from the umbral formula: the change-of-basis Sheffer
    umbra [(d - 1.a).z* + x.u].(g.bell.z^<-1>)* has moment n
    sum_k c_{n,k} x^k.  With r_to the reversion of f(z, t) - 1,
    f(z^<-1>, t) = 1 + r_to and f(bell.w, t) = exp(f(w, t) - 1), so
    g.bell.z^<-1> is f(g, r_to), one composition with no log or exp.  One
    Bell table of r_to serves the `to` table, d - 1.a and g.bell.z^<-1>.

    They are checked by substitution into the target basis: sum_k c_{n,k}
    r_k(x), one ``umbra.substitute`` of the umbra with moments r_k, must
    equal s_n(x) for every n, with s and r the two pairs' own two-route
    tables.  The `to` table is lower-triangular with a nonzero diagonal
    (g_1 != 0), so this holds exactly when the matrix is the triangular
    solve's.
    """
    if frm.order != to.order:
        raise ValueError("pairs must share one truncation order")
    # Each pair already refuses x; the constants are scalars, so y goes too.
    members = {"from-alpha": frm.alpha, "from-gamma": frm.gamma, "to-alpha": to.alpha, "to-gamma": to.gamma}
    for role, a in members.items():
        _require_free_of(a, "y", role, "which connect does not take")
    to_table = _table_of(to.gamma)
    minus_a = inverse_dot(frm.alpha)
    s = _sheffer_table(frm, _table_of(frm.gamma), minus_a)
    # The basis r_k holds no y, so a y in s_n is in no expansion.
    residues = (_make({key: c for key, c in p._num.items() if key[1]}, p._den) for p in s)
    require_equal("triangular expansion residue", residues, repeat(0, len(s)))
    basis = _sheffer_table(to, to_table)

    # Umbral route.
    d_part = _compose(umbral_sum(to.alpha, minus_a).moments, to_table)
    g_comp = Umbra(_compose(frm.gamma.moments, to_table))
    eta = _shifted_composition(Umbra(d_part), _table_of(g_comp))
    require_equal("connection constants formula vs solve", substitute(eta, Umbra(basis.polys)), s)
    rows = (_x_coefficients(v, n) for n, v in enumerate(eta))  # c_(n,k) = row[k] / e
    return ConnectionConstants(tuple(tuple(fraction(c, e) for c in row) for row, e in rows), verified=True)


# ---------------------------------------------------------------------------
# Identity checks (exact, coefficient-wise in R[x, y])


def _x_to_y(s: PolySequence) -> list[Value]:
    """q_n(y) for each q_n, off one table of the powers y^k."""
    return substitute(s.polys, indeterminate_umbra("y", s.order))


def _check_convolution(name: str, s: PolySequence, q: Sequence[Value]) -> str:
    """Require s_n(x+y) = sum_k C(n,k) s_k(x) q_{n-k}(y) for every n, with
    s_n(x+y) read off one table of the powers (x + y)^k."""
    return require_equal(name, substitute(s.polys, scalar_umbra(X + Y, s.order)), egf_mul(s.polys, q))


def _check_shift(name: str, polys: Sequence[Value], gamma: Umbra, weights: Sequence[int]) -> str:
    """Require E[p_n(x + g)] = p_n(x) + w_n p_{n-1}(x) for every n: the
    substitution x -> g + x.u, off one table of the moments of g + x.u."""
    lhs = substitute(polys, with_x_shift(gamma))
    rhs = (p + (w * polys[n - 1] if n else 0) for n, (p, w) in enumerate(zip(polys, weights)))
    return require_equal(name, lhs, rhs)


def check_binomial_identity(gamma: Umbra) -> tuple[str, ...]:
    """p_n(x+y) = sum_k C(n,k) p_k(x) p_{n-k}(y) for the associated sequence.

    Returns ("binomial",), the check passed; a failure raises ConsistencyError.
    """
    seq = associated_moments(gamma)
    return (_check_convolution("binomial", seq, _x_to_y(seq)),)


def check_sheffer_identity(pair: ShefferPair) -> tuple[str, ...]:
    """s_n(x+y) = sum_k C(n,k) s_k(x) p_{n-k}(y), plus the derivative rule.

    The second clause is the substitution characterization: replacing x by
    g + x.u sends s_k to s_k + k s_{k-1}.  Returns ("sheffer",
    "sheffer-derivative"), the checks passed; a failure raises ConsistencyError.
    """
    table = _table_of(pair.gamma)
    s, p = _sheffer_table(pair, table), PolySequence(_compose(_powers_of("x", pair.order), table))
    convolution = _check_convolution("sheffer", s, _x_to_y(p))
    return (convolution, _check_shift("sheffer-derivative", s.polys, pair.gamma, range(len(s))))


def check_appell_identity(alpha: Umbra) -> tuple[str, ...]:
    """p_n(x+y) = sum_k C(n,k) p_k(x) y^{n-k} for the Appell sequence of a.

    Returns ("appell",), the check passed; a failure raises ConsistencyError.
    """
    seq = appell_moments(alpha)
    return (_check_convolution("appell", seq, _powers_of("y", seq.order)),)


def poisson_charlier_pair(a, order: int) -> ShefferPair:
    """The pair (a.bell, chi.a.bell) behind the Poisson-Charlier sequence."""
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    ab = dot(Fraction(a), bell_umbra(order))
    return ShefferPair(ab, cumulant(ab))


def bernoulli_appell_pair(order: int) -> ShefferPair:
    """The pair (-1.bern, chi) whose Sheffer sequence is the Bernoulli polynomials."""
    return ShefferPair(inverse_dot(bernoulli_umbra(order)), singleton(order))

