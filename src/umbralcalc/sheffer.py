"""Sheffer, associated and Appell sequences, umbral composition, and the
connection-constants solver.

A Sheffer pair (a, g) with E[g] != 0 determines the polynomial umbra
(-1.a + x.u).g*, whose moments s_0(x), ..., s_N(x) are the Sheffer sequence
of the pair.  ``sheffer_moments`` computes them twice -- once through the
generating-function composition, once through the moment-level dot product --
and insists the two agree, so every returned sequence is self-checked.

Connection constants between two Sheffer sequences are likewise computed both
by the closed umbral formula and by an unconditional triangular linear solve.
Every such run-time check goes through ``require_equal``, which raises
``ConsistencyError`` naming the check and the first differing coefficient.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .combinatorics import binomial
from .errors import ConsistencyError, VariableCaptureError
from .poly import X, Y, Poly, Value, _monomial_str, collapse
from .records import Record
from .series import (
    Series,
    egf_compose,
    egf_exp,
    egf_mul,
    egf_reciprocal,
    egf_scale,
)
from .umbra import (
    Umbra,
    _comp_inverse_of,
    _dot_log,
    _require_scalar_first_moment,
    _reversion,
    bell_umbra,
    bernoulli_umbra,
    cumulant,
    dot,
    inverse_dot,
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


def _reversion_of(gamma: Umbra) -> Series | None:
    """The reversion r of f(g, t) - 1, or None at order 0, where every table is (1,)."""
    return _reversion(gamma) if gamma.order else None


def sheffer_moments(pair: ShefferPair) -> PolySequence:
    """Moments of (-1.a + x.u).g*, computed by two independent routes."""
    return _sheffer_table(pair, _reversion_of(pair.gamma))


def _sheffer_table(pair: ShefferPair, r: Series | None) -> PolySequence:
    """sheffer_moments, given r = _reversion_of(pair.gamma)."""
    if r is None:
        return PolySequence((Poly(1),))
    # Series route: s_n(x) = n! [t^n] e^{x r(t)} / f(a, r(t)).
    fa_at_r = egf_compose(pair.alpha.moments, r)
    via_series = egf_mul(egf_reciprocal(fa_at_r), egf_exp(egf_scale(X, r)))
    # Moment route: dot the Appell-style umbra into the adjoint g* = exp(r).
    appell_part = with_x_shift(inverse_dot(pair.alpha))
    via_moments = _dot_log(appell_part, r).moments  # log f(g*, t) = r
    require_equal("sheffer moments vs series", via_moments, via_series)
    return PolySequence(via_moments)


def associated_moments(gamma: Umbra) -> PolySequence:
    """Moments of x.g*: the binomial-type sequence associated to g."""
    _require_free_of(gamma, "x", "gamma")
    return _associated_table(gamma, _reversion_of(gamma))


def _associated_table(gamma: Umbra, r: Series | None) -> PolySequence:
    """associated_moments, given r = _reversion_of(gamma)."""
    if r is None:
        return PolySequence((Poly(1),))
    return PolySequence(_dot_log(X, r).moments)


def appell_moments(alpha: Umbra) -> PolySequence:
    """Moments of -1.a + x.u: p_n(x) = sum_k C(n,k) b_{n-k} x^k, b = -1.a."""
    _require_free_of(alpha, "x", "alpha")
    return PolySequence(with_x_shift(inverse_dot(alpha)).moments)


# ---------------------------------------------------------------------------
# Composition, inversion, connection constants


def umbral_compose(s: PolySequence, r: PolySequence) -> PolySequence:
    """s_n(r(x)) = sum_k s_{n,k} r_k(x)."""
    if s.order != r.order:
        raise ValueError("sequences must share one truncation order")
    out = []
    for n in range(len(s)):
        coeffs = s.coefficients(n)
        acc: Value = Fraction(0)
        for k, c in enumerate(coeffs):
            if c:
                acc = acc + c * r[k]
        out.append(_as_poly(collapse(acc)))
    return PolySequence(tuple(out))


def inverse_pair(pair: ShefferPair) -> ShefferPair:
    """The pair whose Sheffer sequence is the umbral-composition inverse."""
    r = _reversion(pair.gamma)
    return ShefferPair(_dot_log(inverse_dot(pair.alpha), r), _comp_inverse_of(r))


def inverse_sequence(pair: ShefferPair) -> PolySequence:
    """Sheffer sequence composing with the pair's own sequence to {x^n}."""
    return sheffer_moments(inverse_pair(pair))


class ConnectionConstants(Record):
    """Lower-triangular c_{n,k} with s_n(x) = sum_k c_{n,k} r_k(x): ``matrix``
    is a tuple of rows of Fractions, and ``verified`` is always True
    (connection_constants raises ConsistencyError instead)."""

    __slots__ = ("matrix", "verified")

    def __getitem__(self, nk: tuple[int, int]) -> Fraction:
        n, k = nk
        return self.matrix[n][k]


def _triangular_expand(p: Poly, basis: PolySequence) -> list[Fraction]:
    """Coefficients of p in the triangular basis, by back-substitution on Polys:
    from the top, c_k is the x^k coefficient of the residue over that of basis[k]."""
    deg = max(p.degree_in("x"), 0)
    out = [Fraction(0)] * (deg + 1)
    residue = p
    for k in range(deg, -1, -1):
        c = residue.coefficient(k) / basis[k].coefficient(k)
        out[k] = c
        if c:
            residue = residue - basis[k] * c
    # Terms in y are in no basis polynomial, so they stay in the residue.
    require_equal("triangular expansion residue", (residue,), (0,), first=deg)
    return out


def connection_constants(frm: ShefferPair, to: ShefferPair) -> ConnectionConstants:
    """Expand the `frm` Sheffer sequence in the `to` Sheffer basis.

    The reference values come from a triangular linear solve over the two
    sequences; the umbral route evaluates the change-of-basis Sheffer umbra
    [(d - 1.a).z* + x.u].(g.bell.z^<-1>)*, whose moment n is sum_k c_{n,k} x^k,
    and must agree exactly.
    """
    if frm.order != to.order:
        raise ValueError("pairs must share one truncation order")
    # Each pair already refuses x; the constants are scalars, so y goes too.
    members = {"from-alpha": frm.alpha, "from-gamma": frm.gamma, "to-alpha": to.alpha, "to-gamma": to.gamma}
    for role, a in members.items():
        _require_free_of(a, "y", role, "which connect does not take")
    n = frm.order
    if n == 0:
        # Both sequences are the constant 1; either route gives the 1x1 identity.
        return ConnectionConstants(((Fraction(1),),), verified=True)
    r_to = _reversion(to.gamma)
    s = sheffer_moments(frm)
    basis = _sheffer_table(to, r_to)
    solve = [tuple(_triangular_expand(s[i], basis)) for i in range(n + 1)]

    # Umbral route.
    d_part = _dot_log(umbral_sum(to.alpha, inverse_dot(frm.alpha)), r_to)
    g_comp = dot(frm.gamma, dot(bell_umbra(n), _comp_inverse_of(r_to)))
    eta = _dot_log(with_x_shift(d_part), _reversion(g_comp))
    solve_polys = [Poly({(k, 0): c for k, c in enumerate(row)}) for row in solve]
    require_equal("connection constants formula vs solve", eta.moments, solve_polys)
    return ConnectionConstants(tuple(solve), verified=True)


# ---------------------------------------------------------------------------
# Identity checks (exact, coefficient-wise in R[x, y])


def _x_to_y(p: Poly) -> Poly:
    return p.substitute(x=Y)


def _check_convolution(name: str, s: PolySequence, q: Sequence[Value]) -> str:
    """Require s_n(x+y) = sum_k C(n,k) s_k(x) q_{n-k}(y) for every n."""
    lhs = (p.substitute(x=X + Y) for p in s)
    rhs = (sum((binomial(n, k) * s[k] * q[n - k] for k in range(n + 1)), Fraction(0)) for n in range(len(s)))
    return require_equal(name, lhs, rhs)


def check_binomial_identity(gamma: Umbra) -> tuple[str, ...]:
    """p_n(x+y) = sum_k C(n,k) p_k(x) p_{n-k}(y) for the associated sequence.

    Returns ("binomial",), the check passed; a failure raises ConsistencyError.
    """
    seq = associated_moments(gamma)
    return (_check_convolution("binomial", seq, [_x_to_y(p) for p in seq]),)


def check_sheffer_identity(pair: ShefferPair) -> tuple[str, ...]:
    """s_n(x+y) = sum_k C(n,k) s_k(x) p_{n-k}(y), plus the derivative rule.

    The second clause is the substitution characterization: replacing x by
    g + x.u sends s_k to s_k + k s_{k-1}.  Returns ("sheffer",
    "sheffer-derivative"), the checks passed; a failure raises ConsistencyError.
    """
    r = _reversion_of(pair.gamma)
    s, p = _sheffer_table(pair, r), _associated_table(pair.gamma, r)
    convolution = _check_convolution("sheffer", s, [_x_to_y(q) for q in p])
    lhs = substitute(list(s), with_x_shift(pair.gamma))
    rhs = (s[k] + (k * s[k - 1] if k else 0) for k in range(len(s)))
    return (convolution, require_equal("sheffer-derivative", lhs, rhs))


def check_appell_identity(alpha: Umbra) -> tuple[str, ...]:
    """p_n(x+y) = sum_k C(n,k) p_k(x) y^{n-k} for the Appell sequence of a.

    Returns ("appell",), the check passed; a failure raises ConsistencyError.
    """
    seq = appell_moments(alpha)
    return (_check_convolution("appell", seq, [Y**m for m in range(len(seq))]),)


def poisson_charlier_pair(a, order: int) -> ShefferPair:
    """The pair (a.bell, chi.a.bell) behind the Poisson-Charlier sequence."""
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    ab = dot(Fraction(a), bell_umbra(order))
    return ShefferPair(ab, cumulant(ab))


def bernoulli_appell_pair(order: int) -> ShefferPair:
    """The pair (-1.bern, chi) whose Sheffer sequence is the Bernoulli polynomials."""
    return ShefferPair(inverse_dot(bernoulli_umbra(order)), singleton(order))

