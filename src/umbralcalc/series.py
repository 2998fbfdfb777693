"""Truncated exponential-generating-function arithmetic on moment sequences.

A series f(t) = sum_n a_n t^n / n! mod t^(N+1) is held as the tuple of its
moments (a_0, ..., a_N), the only form in which the umbral calculus knows
an umbra.  A product is then the binomial convolution
c_n = sum_k C(n,k) a_k b_(n-k); reciprocal, log, exp and composition have
binomial recurrences of the same shape.  Composition is a fold of f over
the partial Bell table of h, which has one layout, (columns, E, polys): column
k lists B_(i,k)(h) E^min(i, top), so row i is over its own denominator
E^min(i, top).  Two builders emit it, and every reader folds it as it is:
``_bell_table`` for a given h, and ``_revert_table`` for the reversion r of
h.  Both run the one recurrence of ``_bell_columns``, a row at a time.
Reversion solves h(r) = t one moment at a time through the partial Bell
values of r (``_revert_columns``), so r's table comes out of the same loop:
``egf_revert`` reads r off column 1, and ``_revert_table`` grades the whole
table, which is the table the Sheffer layer folds over.  ``egf_bell_table``
hands out h's whole table as a value for callers that compose many f with
one h, and ``egf_compose_over`` folds f over it.  ``_compose`` sums
each row of the table (a polynomial f over an integer table a run per
monomial, ``_fold_runs``).

Every operation is exact and fraction-free inside.  An op splits each
operand once into numerators over the operand's least common denominator D
(f = F / D: an ``int`` for a rational moment, a Poly over denominator 1
for a moment in x, y), folds the powers of D and of the leading term that
its recurrence needs into the operand once per call, runs the recurrence
on the numerators with no gcd, and reduces each output entry once (Knuth,
TAOCP vol. 2 §4.5.1, on what the gcds cost).  A sum of products takes
Pascal's row n, the folded operand and the other's reversed slice in one
pass (rows read more than once are kept as lists).  The split also says
once per op whether the numerators hold a Poly.  If they do, each sum
accumulates in place, every term into one numerator dict
(``poly._sum_products``); if not, it is ``sum(map(mul, ...))`` on ints, run
in C.  Each result entry leaves the op as an int (or Poly) numerator over
an int denominator and is reduced with one gcd, by ``_over``: a scalar
becomes its ``Fraction`` through ``rationals.fraction``, with no second
normalization, and a Poly is collapsed.  The values are as if computed in
Q[x, y].

Binary operations insist on equal truncation orders (mixing orders silently
is how truncation bugs are born).  Moments may be rationals or polynomials
in x, y; reciprocal/reversion additionally need an invertible scalar
leading moment.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from math import comb, gcd, lcm
from operator import mul

from .errors import NonInvertibleError, OrderMismatchError, SingularSeriesError
from .poly import Poly, Value, _make, _power_table, _sum_products, collapse
from .rationals import fraction

Series = tuple[Value, ...]


def _order(f: Sequence[Value]) -> int:
    if not f:
        raise ValueError("a truncated series needs at least the constant term")
    return len(f) - 1


def _check_orders(f: Sequence[Value], g: Sequence[Value]) -> int:
    if _order(f) != _order(g):
        raise OrderMismatchError(f"series orders differ: {len(f) - 1} vs {len(g) - 1}")
    return len(f) - 1


def _split(f: Sequence[Value]) -> tuple[list, int, bool]:
    """(F, D, polys) with f = F / D: D the lcm of the moments' denominators, F
    their numerators (ints, or Polys over denominator 1), read off each value,
    and ``polys`` whether F holds a Poly, which picks the op's sums once."""
    if Poly not in map(type, f):
        d = lcm(*(v.denominator for v in f))
        return [v.numerator * (d // v.denominator) for v in f], d, False
    d = lcm(*(v._den if isinstance(v, Poly) else v.denominator for v in f))
    return [_numerator(v, d) for v in f], d, True


def _numerator(v: Value, d: int):
    """v * d for a multiple d of v's denominator: an int, or a Poly over denominator 1."""
    if not isinstance(v, Poly):
        return v.numerator * (d // v.denominator)
    m = d // v._den
    return _make(v._num if m == 1 else {key: c * m for key, c in v._num.items()}, 1)


def _lowest(nums: list, den: int, polys: bool) -> tuple[list, int]:
    """nums / den brought to the least common denominator by one gcd g of den
    and every numerator: (nums / g, den / g), g carrying den's sign."""
    parts = [c for v in nums for c in (v._num.values() if isinstance(v, Poly) else (v,))] if polys else nums
    g = gcd(den, *parts) * (-1 if den < 0 else 1)
    return [_make({key: c // g for key, c in v._num.items()}, 1) if isinstance(v, Poly) else v // g
            for v in nums], den // g


def _times(v, c: int):
    """v * c, with no pass over a Poly when c is 1."""
    return v if c == 1 else v * c


def _over(num, den: int) -> Value:
    """num / den (den nonzero) as a reduced Fraction (``rationals.fraction``),
    or a collapsed Poly: one gcd either way."""
    if not isinstance(num, Poly):
        return fraction(num, den)
    return collapse(_make(num._num if den > 0 else {key: -c for key, c in num._num.items()}, abs(den)))


@lru_cache(maxsize=None)
def _pascal(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle: C(n, 0), ..., C(n, n)."""
    return tuple(comb(n, k) for k in range(n + 1))


def _sum(w, g, polys: bool):
    """sum_i w_i g_i over two iterables of numerators, with no division: in C on
    ints, and into one numerator dict (``poly._sum_products``) when ``polys``."""
    return _sum_products(zip(w, g)) if polys else sum(map(mul, w, g))


def egf_scale(c, f: Sequence[Value]) -> Series:
    return tuple(collapse(c * a) for a in f)


def egf_mul(f: Sequence[Value], g: Sequence[Value]) -> Series:
    """Product f g mod t^(N+1): the binomial convolution of the moments.

    With f = F / D_f and g = G / D_g, moment n is
    sum_k C(n,k) F_k G_(n-k) / (D_f D_g).
    """
    _check_orders(f, g)
    (nf, df, pf), (ng, dg, pg) = _split(f), _split(g)
    return tuple(_over(_sum(map(mul, _pascal(n), nf), ng[n::-1], pf or pg), df * dg) for n in range(len(nf)))


def _leading_scalar(value: Value, what: str) -> Fraction:
    c = collapse(value)
    if not isinstance(c, Fraction):
        raise NonInvertibleError(f"{what} must be a scalar, got {c}")
    return c


def egf_reciprocal(f: Sequence[Value]) -> Series:
    """The series g with f g = 1, g_n = -g_0 sum_(k>=1) C(n,k) f_k g_(n-k).

    Fraction-free: with f = A / D, G_0 = 1 and
    G_m = -sum_(k>=1) C(m,k) (A_k A_0^(k-1)) G_(m-k) are integral, and
    g_m = D G_m / A_0^(m+1).
    """
    n = _order(f)
    c0 = _leading_scalar(f[0], "constant term of a reciprocal")
    if c0 == 0:
        raise SingularSeriesError("cannot invert a series with zero constant term")
    nums, d, polys = _split(f)
    a0 = _numerator(c0, d)
    scaled = [_times(a, a0 ** (k - 1)) if k else 0 for k, a in enumerate(nums)]  # A_k A_0^(k-1)
    G: list = [1]
    out: list[Value] = [_over(d, a0)]
    lead = a0
    for m in range(1, n + 1):
        G.append(0)  # G_m, paired with the zero k = 0 term of its own sum
        G[m] = -_sum(map(mul, _pascal(m), scaled), reversed(G), polys)
        lead *= a0
        out.append(_over(_times(G[m], d), lead))
    return tuple(out)


def egf_compose(f: Sequence[Value], h: Sequence[Value]) -> Series:
    """f(h(t)) mod t^(N+1): moment n is sum_k f_k B_(n,k)(h_1, h_2, ...).

    h must have zero constant term.  ``_compose`` folds f over h's Bell
    table, whose columns stop at f's last nonzero moment.
    """
    n = _check_orders(f, h)
    _require_inner(h)
    return _compose(f, _bell_table(h, max((k for k in range(1, n + 1) if f[k]), default=0)))


def _require_inner(h: Sequence[Value]) -> None:
    if collapse(h[0]) != 0:
        raise ValueError("inner series of a composition must have zero constant term")


def egf_bell_table(h: Sequence[Value]) -> tuple[list[list], int, bool]:
    """The whole Bell table of h (zero constant term), columns 0, ..., N, for
    ``egf_compose_over``: built once, it serves every outer series."""
    _order(h)
    _require_inner(h)
    return _bell_table(h)


def egf_compose_over(f: Sequence[Value], table) -> Series:
    """f(h(t)) mod t^(N+1) over h's whole table from ``egf_bell_table``:
    ``egf_compose`` with no table built."""
    _check_orders(f, table[0][0])
    return _compose(f, table)


def _bell_table(h: Sequence[Value], top: int | None = None) -> tuple[list[list], int, bool]:
    """(columns, E, polys): the Bell table of h with zero constant term,
    columns 0, ..., top (default N), and whether it holds a Poly.  Column k
    lists B_(i,k)(h) E^min(i, top), so row i is over E^min(i, top): for
    h = H / D, E = D and the entry is B_(i,k)(H) D^(min(i, top) - k), since
    B_(i,k) is homogeneous of degree k."""
    nums, d, polys = _split(h)
    top = len(nums) - 1 if top is None else top
    columns = _bell_columns([0, *nums[1:]], top, polys)
    if d != 1:
        powers = _power_table(d, top)
        for k, column in enumerate(columns[1:top], 1):  # entry B_(k,k) and column top keep D^0
            scale = powers[1 : top - k] + [powers[top - k]] * (len(column) - top)  # D^(min(i, top) - k), i > k
            column[k + 1 :] = map(mul, column[k + 1 :], scale)
    return columns, d, polys


def _bell_columns(x: list, top: int, polys: bool, solve: Sequence = ()) -> list[list]:
    """Columns 0, ..., top of W_(i,k) = sum_d C(i-1,d-1) x_d W_(i-d,k-1),
    W_(i,1) = x_i (x_0 = 0), for i = 0, ..., N, built a row at a time; for
    x = H, W_(i,k) = B_(i,k)(H).  Column 1 is the list x itself, and column
    k vanishes above row k, so those entries are never computed.  With
    ``solve`` (the reversion, top = N), x_1 is given and each later x_i is
    solved from its row, x_i = sum_(k>=2) solve_(k-2) W_(i,k)."""
    n = len(x) - 1
    total, pairs = (_sum_products, zip) if polys else (sum, partial(map, mul))  # _sum, with no call per entry
    columns = [[1] + [0] * n, x] + [[0] * k for k in range(2, top + 1)]  # zero above row k
    for i in range(2, n + 1) if top > 1 else ():
        b = list(map(mul, _pascal(i - 1), x[1:i]))  # C(i-1,d-1) x_d at index d - 1
        for k in range(2, min(i, top) + 1):
            columns[k].append(total(pairs(b, columns[k - 1][i - 1 : k - 2 : -1])))
        if solve:
            x[i] = total(pairs(solve, [column[i] for column in columns[2 : i + 1]]))
    return columns[: top + 1]


def _compose(f: Sequence[Value], table) -> Series:
    """f(h(t)) from the Bell table (columns 0, ..., top; E; polys) of h, with
    top at least f's last nonzero index: for f = F / D_f, moment i is
    sum_k F_k (column k)_i, one sum over row i, over D_f E^min(i, top).  A
    Poly f over an int table sums a run per monomial (``_fold_runs``)."""
    columns, e, polys = table
    top = len(columns) - 1
    nf, df, polys_f = _split(f[: top + 1])
    if polys_f and not polys:
        runs: dict = {}  # monomial -> (k0, its coefficients in F_k0, F_(k0+1), ..., up to its last)
        for k, v in enumerate(nf):
            for key, c in v._num.items() if isinstance(v, Poly) else (((0, 0), v),) if v else ():
                k0, run = runs.setdefault(key, (k, []))
                run += [0] * (k - k0 - len(run))
                run.append(c)
        return _fold_runs(runs, df, columns, e)
    return tuple(map(_over, map(_sum, repeat(nf), zip(*columns), repeat(polys)), _row_denominators(df, e, columns)))


def _row_denominators(df: int, e: int, columns: list[list]) -> list[int]:
    """D_f E^min(i, top) for each row i of the Bell table (columns 0, ..., top; E)."""
    dens = [df * p for p in _power_table(e, len(columns) - 1)]
    return dens + dens[-1:] * (len(columns[0]) - len(dens))


def _fold_runs(runs: dict, df: int, columns: list[list], e: int) -> Series:
    """Moments 0, ..., N of f(h(t)) for f = F / D_f over the int Bell table
    (columns, E) of h, where ``runs`` maps each monomial of F to (k0, its
    coefficients in F_k0, F_(k0+1), ...).  Row i is over D_f E^min(i, top),
    one C-level int sum per monomial (Bareiss, Math. Comp. 22 (1968): a row
    divides out only the factor it has)."""
    out = []
    for i, (row, den) in enumerate(zip(zip(*columns), _row_denominators(df, e, columns))):
        num = {key: run[0] * row[k0] if len(run) == 1 else sum(map(mul, run, row[k0 : i + 1]))
               for key, (k0, run) in runs.items() if k0 <= i}
        out.append(collapse(_make(num, den)))
    return tuple(out)


def egf_revert(h: Sequence[Value]) -> Series:
    """The series r with h(r(t)) = t mod t^(N+1).

    Moment n of h(r) is sum_k h_k B_(n,k)(r), and B_(n,1)(r) = r_n, so r_n
    solves h_1 r_n = -sum_(k>=2) h_k B_(n,k)(r), whose Bell values need only
    r_1, ..., r_(n-1) (Comtet, Advanced Combinatorics, 1974, ch. 3).
    ``_revert_columns`` builds the Bell table of r a row per moment in that
    loop, fraction-free, and r_n = R_n / (D^(n-1) h_1^n) is read off its
    column 1 with one gcd each.
    """
    columns, d, h1, _ = _revert_columns(h)
    p, q = h1.numerator, h1.denominator
    r: list[Value] = [Fraction(0)]
    num, den = q, p  # q^n and D^(n-1) p^n for h_1 = p / q
    for rn in columns[1][1:]:
        r.append(_over(_times(rn, num), den))
        num, den = num * q, den * d * p
    return tuple(r)


def _revert_columns(h: Sequence[Value]) -> tuple[list[list], int, Fraction, bool]:
    """(W, D, h_1, polys): the fraction-free Bell table W of r-tilde, the
    reversion of h / h_1, built in the loop that solves for it.

    With h / h_1 = H / D in lowest terms (H_1 = D) and r(t) = r-tilde(t / h_1),
    W_(n,k) = B_(n,k)(r-tilde) D^(n-k) is integral, and row n is, with no
    division (Bareiss, Math. Comp. 22 (1968): each entry carries only the
    power of D it needs), the ``_bell_columns`` recurrence
    W_(n,k) = sum_d C(n-1,d-1) R_d W_(n-d,k-1) for k >= 2, then
    R_n = W_(n,1) = -sum_(k>=2) H_k D^(k-2) W_(n,k), with R_1 = 1.
    Column k of W lists W_(i,k) for i = 0, ..., N, zero above row k.
    """
    n = _order(h)
    if collapse(h[0]) != 0:
        raise NonInvertibleError("reversion needs a zero constant term")
    if n < 1:
        raise NonInvertibleError("reversion needs order >= 1")
    h1 = _leading_scalar(h[1], "linear coefficient of a reversion")
    if h1 == 0:
        raise NonInvertibleError("reversion needs a nonzero linear coefficient")
    nh, _, polys = _split([collapse(v) for v in h])
    nh, d = _lowest(nh, nh[1], polys)  # h / h_1 = H / D, H_1 = D > 0
    powers = _power_table(d, n)
    scaled = [_times(c, -powers[k - 2]) for k, c in enumerate(nh) if k > 1]  # -H_k D^(k-2), k >= 2
    return _bell_columns([0, 1] + [0] * (n - 1), n, polys, scaled), d, h1, polys


def _revert_table(h: Sequence[Value]) -> tuple[list[list], int, bool]:
    """The Bell table (columns, E, polys) of egf_revert(h), read off the
    reversion loop.  For h_1 = p / q with p > 0, B_(i,k)(r) is
    W_(i,k) q^i / (D^(i-k) p^i), so with E = D p column k lists
    W_(i,k) D^k q^i: one product per entry and no division."""
    columns, d, h1, polys = _revert_columns(h)
    p, q = h1.numerator, h1.denominator
    if p < 0:
        p, q = -p, -q
    n = len(columns) - 1
    scale = _power_table(q, n)
    for k, column in enumerate(columns[1:], 1):
        dk = d**k
        column[k:] = map(mul, column[k:], [dk * s for s in scale[k:]])
    return columns, d * p, polys


def egf_log(f: Sequence[Value]) -> Series:
    """log f for constant term 1, by the moment-cumulant recurrence
    k_n = f_n - sum_(j=1)^(n-1) C(n-1,j) f_j k_(n-j).

    Fraction-free: with f = F / D, K_n = F_n D^(n-1)
    - sum_(j=1)^(n-1) C(n-1,j) (F_j D^(j-1)) K_(n-j) is integral, and
    k_n = K_n / D^n.
    """
    n = _order(f)
    if collapse(f[0]) != 1:
        raise ValueError("logarithm needs constant term 1")
    nums, d, polys = _split(f)
    scaled = [_times(c, d ** (k - 1)) if k else 0 for k, c in enumerate(nums)]  # F_k D^(k-1)
    K: list = [0] * (n + 1)
    out: list[Value] = [Fraction(0)] * (n + 1)
    den = 1
    for m in range(1, n + 1):  # the zero j = 0 term meets K_m, still 0
        K[m] = scaled[m] - _sum(map(mul, _pascal(m - 1), scaled), K[m:0:-1], polys)
        den *= d
        out[m] = _over(K[m], den)
    return tuple(out)


def egf_exp(h: Sequence[Value]) -> Series:
    """exp h for zero constant term: a_n = sum_(k=1)^n C(n-1,k-1) h_k a_(n-k).

    Fraction-free: with h = H / D, A_0 = 1 and
    A_n = sum_(k=1)^n C(n-1,k-1) (H_k D^(k-1)) A_(n-k) are integral, and
    a_n = A_n / D^n.
    """
    n = _order(h)
    if collapse(h[0]) != 0:
        raise ValueError("exponential needs zero constant term")
    nums, d, polys = _split(h)
    scaled = [_times(c, d**j) for j, c in enumerate(nums[1:])]  # H_(j+1) D^j
    A: list = [1]
    out: list[Value] = [Fraction(1)]
    den = 1
    for m in range(1, n + 1):
        A.append(_sum(map(mul, _pascal(m - 1), scaled), A[::-1], polys))
        den *= d
        out.append(_over(A[m], den))
    return tuple(out)


def egf_power(f: Sequence[Value], e) -> Series:
    """f^e = exp(e log f) for constant term 1; e may be rational or a Poly.
    Both steps run fraction-free, each over its own operand's denominator."""
    _order(f)
    if collapse(f[0]) != 1:
        raise ValueError("power needs constant term 1")
    if isinstance(e, int):
        e = Fraction(e)
    return egf_exp(egf_scale(e, egf_log(f)))
