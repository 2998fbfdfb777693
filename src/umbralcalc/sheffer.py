"""Sheffer, associated and Appell sequences, umbral composition, and
connection constants.

A Sheffer pair (a, g) with E[g] != 0 determines the polynomial umbra
(-1.a + x.u).g*, whose moments s_0(x), ..., s_N(x) are the Sheffer sequence
of the pair.  Every table is read off one table of the partial Bell values
of r, the reversion of f(g, t) - 1, which the loop that solves for r builds
as it goes (``series.egf_revert_table``, one per reversion).  The layout of
that table is the series kernel's own: this module folds over it only with
the kernel's public ops, f(x.u, r) for the associated table with
``egf_compose_over``.  ``sheffer_moments`` computes its table twice on it --
once as f(-1.a + x.u, r) of the Appell moments (``egf_appell_over``), once
by the series route e^{x r(t)} / f(a, r(t)) (``egf_exp_x_over``) -- and
insists the two agree, so every returned sequence is self-checked.

Connection constants between two Sheffer sequences come from the closed
umbral formula, folded over the two pairs' own tables and one plain Bell
table, and are checked by substituting them into the target basis, whose
table is lower-triangular with a nonzero diagonal, so the check is as
strong as a triangular solve.
Every such run-time check goes through ``require_equal``, which raises
``ConsistencyError`` naming the check and the first differing coefficient.
The identity checks' binomial convolutions are ``series.egf_mul``, and each
of their substitutions is one ``umbra.substitute`` over one table of powers.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat

from .errors import ConsistencyError, VariableCaptureError
from .poly import X, Y, Poly, Value, _make, _monomial_str, _powers_of
from .rationals import fraction
from .records import Record
from .series import (
    egf_appell_over,
    egf_bell_table,
    egf_compose_over,
    egf_exp_x_over,
    egf_mul,
    egf_reciprocal,
    egf_revert_table,
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


def _table_of(gamma: Umbra) -> tuple[list[list], int, bool]:
    """The Bell table of the reversion r of f(g, t) - 1, built by the loop
    that solves for r.  At order 0, where every table is (1,), r is the zero
    series."""
    if not gamma.order:
        return egf_bell_table((Fraction(0),))
    _require_scalar_first_moment(gamma)
    return egf_revert_table((Fraction(0),) + gamma.moments[1:])


def sheffer_moments(pair: ShefferPair) -> PolySequence:
    """Moments of (-1.a + x.u).g*, computed by two independent routes."""
    return _sheffer_table(pair, _table_of(pair.gamma))


def _sheffer_table(pair: ShefferPair, table, minus_a: Umbra | None = None) -> PolySequence:
    """sheffer_moments, given the Bell table of the reversion r of f(g, t) - 1
    and, from a caller that holds it, -1.a; only the moment route reads
    ``minus_a``, so a wrong one fails the check of the two routes.

    Moment route: the Appell umbra -1.a + x.u dotted into g* = exp(r),
    f(-1.a + x.u, r), one ``egf_appell_over``.  Series route:
    e^{x r(t)} / f(a, r(t)), a binomial product with the associated table
    (``egf_exp_x_over``).
    """
    via_moments = egf_appell_over((inverse_dot(pair.alpha) if minus_a is None else minus_a).moments, table)
    via_series = egf_exp_x_over(egf_reciprocal(egf_compose_over(pair.alpha.moments, table)), table)
    require_equal("sheffer moments vs series", via_moments, via_series)
    return PolySequence(via_moments)


def associated_moments(gamma: Umbra) -> PolySequence:
    """Moments of x.g*: the binomial-type sequence associated to g."""
    _require_free_of(gamma, "x", "gamma")
    return PolySequence(egf_compose_over(_powers_of("x", gamma.order), _table_of(gamma)))


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
    """The pair whose Sheffer sequence is the umbral-composition inverse; at
    order 0, where every table is (1,), the pair itself."""
    if not pair.order:
        return pair
    r = _reversion(pair.gamma)
    return ShefferPair(dot(inverse_dot(pair.alpha), _from_cumulants(r)), _comp_inverse_of(r))


def inverse_sequence(pair: ShefferPair) -> PolySequence:
    """Sheffer sequence composing with the pair's own sequence to {x^n}.

    The inverse pair's gamma is 1 + r, so the reversion its table needs is
    f(g, t) - 1 itself, and no second reversion is taken.
    """
    return _sheffer_table(inverse_pair(pair), egf_bell_table((Fraction(0),) + pair.gamma.moments[1:]))


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
    sum_k c_{n,k} x^k.  Its gamma part needs no reversion of its own:
    (g.bell.z^<-1>)* = bell.(z.g*), because f(bell.w, t) = exp(f(w, t) - 1)
    and f(g*, t) = exp(r_frm), with r_frm the reversion of f(g, t) - 1.
    So (g.bell.z^<-1>)* = exp(f(z, r_frm) - 1), and the change of basis
    folds over the Bell table of f(z, r_frm) - 1, read off the `frm` table.
    With r_to the reversion of f(z, t) - 1, d - 1.a is dotted into z* as
    f(d - 1.a, r_to), over the `to` table.

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
    frm_table, to_table = _table_of(frm.gamma), _table_of(to.gamma)
    minus_a = inverse_dot(frm.alpha)
    s = _sheffer_table(frm, frm_table, minus_a)
    # The basis r_k holds no y, so a y in s_n is in no expansion.
    residues = (_make({key: c for key, c in p._num.items() if key[1]}, p._den) for p in s)
    require_equal("triangular expansion residue", residues, repeat(0, len(s)))
    basis = _sheffer_table(to, to_table)

    # Umbral route.
    d_part = egf_compose_over(umbral_sum(to.alpha, minus_a).moments, to_table)
    z_of_r = egf_compose_over(to.gamma.moments, frm_table)  # f(z, r_frm)
    eta = egf_appell_over(d_part, egf_bell_table((Fraction(0),) + z_of_r[1:]))
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
    s, p = _sheffer_table(pair, table), PolySequence(egf_compose_over(_powers_of("x", pair.order), table))
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

