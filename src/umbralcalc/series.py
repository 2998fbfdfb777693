"""Truncated exponential-generating-function arithmetic on moment sequences.

A series f(t) = sum_n a_n t^n / n! mod t^(N+1) is held as the tuple of its
moments (a_0, ..., a_N), the only form in which the umbral calculus knows
an umbra.  A product is then the binomial convolution
c_n = sum_k C(n,k) a_k b_(n-k); reciprocal, log, exp and composition have
binomial recurrences of the same shape, and reversion is the Lagrange
formula: moment m of the reversion of h is moment m - 1 of (t/h)^m, the
umbral E[(-m.g)^(m-1)] with g the overbar umbra of h, up to a factor h_1^m,
read off about 2 sqrt(N) products by baby steps and giant steps.

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
in C.  Results are reduced ``Fraction``s and collapsed Polys, as if
computed in Q[x, y].

Binary operations insist on equal truncation orders (mixing orders silently
is how truncation bugs are born).  Moments may be rationals or polynomials
in x, y; reciprocal/reversion additionally need an invertible scalar
leading moment.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm
from operator import mul

from .errors import NonInvertibleError, OrderMismatchError, SingularSeriesError
from .poly import Poly, Value, _make, _sum_products, collapse

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
    """num / den (den nonzero) as a reduced Fraction, or a collapsed Poly: one gcd either way."""
    if not isinstance(num, Poly):
        return Fraction(num, den)
    return collapse(_make(num._num if den > 0 else {key: -c for key, c in num._num.items()}, abs(den)))


@lru_cache(maxsize=None)
def _pascal(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle: C(n, 0), ..., C(n, n)."""
    return tuple(comb(n, k) for k in range(n + 1))


def _binomial_rows(a: Sequence) -> list[list]:
    """Row n lists C(n,k) a_k for k <= n, zeros kept: for an operand whose rows
    are read more than once (a row read once is ``map(mul, _pascal(n), a)``)."""
    return [list(map(mul, _pascal(n), a)) for n in range(len(a))]


def _sum(w, g, polys: bool):
    """sum_i w_i g_i over two iterables of numerators, with no division: in C on
    ints, and into one numerator dict (``poly._sum_products``) when ``polys``."""
    return _sum_products(zip(w, g)) if polys else sum(map(mul, w, g))


def _convolve(rows: list[list], g: Sequence, polys: bool) -> list:
    """sum_k C(n,k) a_k g_(n-k) for every n, from the rows of a."""
    return [_sum(row, g[n::-1], polys) for n, row in enumerate(rows)]


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
    out: list[Value] = []
    lead = 1
    for g in _reciprocal_numerators(nums, a0, polys):
        lead *= a0
        out.append(_over(_times(g, d), lead))
    return tuple(out)


def _reciprocal_numerators(nums: list, a0: int, polys: bool) -> list:
    """G_0, ..., G_N of egf_reciprocal for the numerators A = ``nums``, A_0 = a0."""
    scaled = [_times(a, a0 ** (k - 1)) if k else 0 for k, a in enumerate(nums)]  # A_k A_0^(k-1)
    G: list = [1]
    for m in range(1, len(nums)):
        G.append(0)  # G_m, paired with the zero k = 0 term of its own sum
        G[m] = -_sum(map(mul, _pascal(m), scaled), reversed(G), polys)
    return G


def egf_compose(f: Sequence[Value], h: Sequence[Value]) -> Series:
    """f(h(t)) mod t^(N+1): moment n is sum_k f_k B_(n,k)(h_1, h_2, ...).

    h must have zero constant term.  The partial Bell values are built one
    column from the next, B_(n,k) = sum_d C(n-1,d-1) h_d B_(n-d,k-1).  Column
    k vanishes below row k, so those entries are never computed, and the
    columns stop at f's last nonzero moment (its index is ``top``).
    Fraction-free: B_(n,k) is homogeneous of degree k, so with f = F / D_f
    and h = H / D_h the columns are built on H and moment n is
    sum_k (F_k D_h^(top-k)) B_(n,k)(H) / (D_f D_h^top).
    """
    n = _check_orders(f, h)
    if collapse(h[0]) != 0:
        raise ValueError("inner series of a composition must have zero constant term")
    top = max((k for k in range(1, n + 1) if f[k]), default=0)
    (nf, df, polys), (nh, dh, polys_h) = _split(f), _split(h)
    polys |= polys_h
    rows = _binomial_rows(nh[1:]) if top > 1 else None  # row i - 1 holds C(i-1, d-1) H_d at index d - 1
    out: list = [_times(nf[0], dh**top)] + [0] * n
    terms = [(out[0], [1] + [0] * n)]  # the (F_k, column k) that Polys sum at the end
    column = nh  # B_(i,1) = H_i
    for k in range(1, top + 1):
        fk = nf[k]
        if fk:
            fk = _times(fk, dh ** (top - k))
            if polys:
                terms.append((fk, column))
            else:
                for i in range(k, n + 1):
                    out[i] = out[i] + fk * column[i]
        if k < top:  # B_(i-d,k) vanishes for d > i - k
            column = [0] * (k + 1) + [_sum(rows[i - 1], column[i - 1 : k - 1 : -1], polys_h)
                                      for i in range(k + 1, n + 1)]
    if polys:
        out = [_sum_products((fk, col[i]) for fk, col in terms) for i in range(n + 1)]
    den = df * dh**top
    return tuple(_over(c, den) for c in out)


def egf_revert(h: Sequence[Value]) -> Series:
    """The series r with h(r(t)) = t mod t^(N+1), by the Lagrange formula.

    With q the moment form of t/h(t), the reciprocal of (h_(n+1)/(n+1))_n,
    moment m of r is moment m - 1 of q^m (Knuth, TAOCP vol. 2 §4.7): the
    umbral E[(-m.g)^(m-1)] for g the overbar umbra of h, up to a factor
    h_1^m.  Baby steps and giant steps (Brent and Kung, J. ACM 25 (1978);
    Johansson, Math. Comp. 84 (2015)): with k = isqrt(N-1) + 1 and
    m - 1 = jk + s (s < k), r_m is one sum over q^(jk) q^(s+1), from the
    powers q^1..q^k and one product per giant step, about 2 sqrt(N) products
    instead of N.  Fraction-free: egf_reciprocal's recurrence gives q over
    A_0^N, one gcd brings it to Q / D_q, and
    r_m = [t^(m-1)] Q^(jk) Q^(s+1) / D_q^m.
    """
    n = _order(h)
    if collapse(h[0]) != 0:
        raise NonInvertibleError("reversion needs a zero constant term")
    if n < 1:
        raise NonInvertibleError("reversion needs order >= 1")
    h1 = _leading_scalar(h[1], "linear coefficient of a reversion")
    if h1 == 0:
        raise NonInvertibleError("reversion needs a nonzero linear coefficient")
    # q is the reciprocal of A / D = (h_(i+1) / (i+1))_i: q_m = D G_m / A_0^(m+1)
    nh, dh, polys = _split([collapse(v) for v in h[1:]])
    span = lcm(*range(1, n + 1))
    nums, d = _lowest([_times(c, span // (i + 1)) for i, c in enumerate(nh)], dh * span, polys)
    G = _reciprocal_numerators(nums, nums[0], polys)
    nq, dq = _lowest([_times(g, d * nums[0] ** (n - 1 - m)) for m, g in enumerate(G)], nums[0] ** n, polys)
    k = isqrt(n - 1) + 1  # k^2 >= N, so j < k too
    rows = _binomial_rows(nq)
    baby = [nq]  # Q^1, ..., Q^k
    for _ in range(1, k):
        baby.append(_convolve(rows, baby[-1], polys))
    r: list[Value] = [Fraction(0)]
    den = 1
    for m in range(1, n + 1):
        (j, s), c = divmod(m - 1, k), m - 1
        if not j:
            num = baby[s][c]
        else:
            if s == 0 and j == 1:  # giant steps multiply by Q^k
                giant, rows = baby[-1], _binomial_rows(baby[-1])
            elif s == 0:
                giant = _convolve(rows, giant, polys)
            num = _sum(map(mul, _pascal(c), giant), baby[s][c::-1], polys)
        den *= dq
        r.append(_over(num, den))
    return tuple(r)


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
