"""The benchmark's own exact references, independent of the code under test.

Every check compares a program result with a value computed here by another
route: truncated power series over ``Fraction`` with textbook algorithms
(reversion by the Lagrange coefficient formula, composition by summing
powers, dot products through f(g.a, t) = f(g, log f(a, t))), and the
classical Stirling triangles.  Nothing here imports ``umbralcalc``.

Scalar series are lists of Fractions (c_0, ..., c_N).  A polynomial in x is a
dict {degree: nonzero Fraction}; :func:`canon` maps both to one comparable
form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Values: Fraction or polynomial in x


def xpoly(value) -> dict:
    """A scalar or x-polynomial as {degree: coefficient}, zeros dropped."""
    if isinstance(value, dict):
        return {k: c for k, c in value.items() if c}
    value = Fraction(value)
    return {0: value} if value else {}


def padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        s = out.get(k, ZERO) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pscale(p: dict, c) -> dict:
    return {k: v * c for k, v in p.items() if v * c}


def pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, ZERO) + a * b
    return xpoly(out)


def canon(value) -> tuple:
    """Sorted ((degree, coefficient), ...) of a Fraction, int or x-polynomial."""
    return tuple(sorted(xpoly(value).items()))


def fmt(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# Truncated power series (ordinary coefficients of an EGF)


def egf(moments) -> list:
    return [Fraction(m) / factorial(n) for n, m in enumerate(moments)]


def moments(coeffs) -> list:
    return [c * factorial(n) for n, c in enumerate(coeffs)]


def mul(f: list, g: list) -> list:
    return [sum((f[k] * g[i - k] for k in range(i + 1)), ZERO) for i in range(len(f))]


def recip(f: list) -> list:
    if f[0] == 0:
        raise ZeroDivisionError("reciprocal of a series with zero constant term")
    out = [ONE / f[0]]
    for n in range(1, len(f)):
        out.append(-sum((f[k] * out[n - k] for k in range(1, n + 1)), ZERO) / f[0])
    return out


def deriv(f: list) -> list:
    return [k * f[k] for k in range(1, len(f))] + [ZERO]


def integ(f: list) -> list:
    """Antiderivative with zero constant term, truncated to len(f)."""
    return [ZERO] + [f[k] / (k + 1) for k in range(len(f) - 1)]


def log(f: list) -> list:
    """log f = integral of f'/f, for f(0) = 1."""
    if f[0] != 1:
        raise ValueError("log needs constant term 1")
    return integ(mul(deriv(f), recip(f)))


def exp(h: list) -> list:
    """exp h for h(0) = 0, from E' = h' E."""
    if h[0] != 0:
        raise ValueError("exp needs zero constant term")
    dh = deriv(h)
    out = [ONE]
    for m in range(1, len(h)):
        out.append(sum((dh[k] * out[m - 1 - k] for k in range(m)), ZERO) / m)
    return out


def compose(f: list, h: list) -> list:
    """f(h(t)) for h(0) = 0, summing f_k h^k."""
    if h[0] != 0:
        raise ValueError("inner series needs zero constant term")
    out = [f[0]] + [ZERO] * (len(h) - 1)
    power = [ONE] + [ZERO] * (len(h) - 1)
    for k in range(1, len(h)):
        power = mul(power, h)
        out = [a + f[k] * b for a, b in zip(out, power)]
    return out


def revert(h: list) -> list:
    """r with h(r(t)) = t: Lagrange, r_n = (1/n) [t^(n-1)] (t / h(t))^n."""
    if h[0] != 0 or len(h) < 2 or h[1] == 0:
        raise ZeroDivisionError("reversion needs h(0) = 0 and h'(0) != 0")
    n = len(h) - 1
    q = recip(h[1:] + [ZERO])  # t / h(t)
    r = [ZERO] * (n + 1)
    power = [ONE] + [ZERO] * n
    for m in range(1, n + 1):
        power = mul(power, q)
        r[m] = power[m - 1] / m
    return r


def power(f: list, c) -> list:
    """f^c for f(0) = 1: repeated products for integers, exp(c log f) otherwise."""
    c = Fraction(c)
    if c.denominator == 1:
        base = f if c >= 0 else recip(f)
        out = [ONE] + [ZERO] * (len(f) - 1)
        for _ in range(abs(c.numerator)):
            out = mul(out, base)
        return out
    return exp([c * a for a in log(f)])


# ---------------------------------------------------------------------------
# Builtin umbrae, built from their generating functions


def _exp_t(n: int) -> list:
    return [ONE / factorial(k) for k in range(n + 1)]


def builtin(name: str, n: int) -> list:
    """Moments 0..n of a builtin umbra."""
    if name == "u":
        return [ONE] * (n + 1)
    if name == "eps":
        return [ONE] + [ZERO] * n
    if name == "chi":
        return ([ONE, ONE] + [ZERO] * n)[: n + 1]
    if name == "bell":
        return moments(exp([ZERO] + _exp_t(n)[1:]))
    if name == "bern":
        return moments(recip(_exp_t(n + 1)[1:]))
    if name == "ubar":
        return [Fraction(factorial(k)) for k in range(n + 1)]
    if name == "uinv":
        return moments([ONE] + [Fraction((-1) ** (k - 1), k) for k in range(1, n + 1)])
    raise KeyError(name)


BUILTIN_NAMES = ("bell", "bern", "chi", "eps", "u", "ubar", "uinv")


# ---------------------------------------------------------------------------
# Umbral operations on moment lists


def dot(left: list, right: list) -> list:
    """Moments of g.a from g's moments (scalars or x-polynomials) and a's.

    f(g.a, t) = f(g, log f(a, t)), so moment n is
    sum_j g_j * n!/j! [t^n] (log f(a, t))^j.
    """
    n = len(right) - 1
    L = log(egf(right))
    out = [xpoly(left[0])] + [{} for _ in range(n)]
    power = [ONE] + [ZERO] * n
    for j in range(1, n + 1):
        power = mul(power, L)
        gj = xpoly(left[j])
        if not gj:
            continue
        for m in range(j, n + 1):
            if power[m]:
                out[m] = padd(out[m], pscale(gj, power[m] * factorial(m) / factorial(j)))
    return out


def x_powers(n: int, shift=ZERO) -> list:
    """Moments of the umbra x + shift: (x + shift)^j as x-polynomials."""
    shift = Fraction(shift)
    return [
        xpoly({k: comb(j, k) * shift ** (j - k) for k in range(j + 1)}) for j in range(n + 1)
    ]


def umbral_sum(a: list, b: list) -> list:
    """Moments of a + b' (uncorrelated): binomial convolution."""
    return [
        _sum_values(pscale(pmul(xpoly(a[k]), xpoly(b[i - k])), comb(i, k)) for k in range(i + 1))
        for i in range(len(a))
    ]


def _sum_values(values) -> dict:
    out: dict = {}
    for v in values:
        out = padd(out, v)
    return out


def scalar_dot(c, a: list) -> list:
    return moments(power(egf(a), c))


def inverse(a: list) -> list:
    return moments(recip(egf(a)))


def _shifted_reversion(a: list) -> list:
    h = egf(a)
    return revert([ZERO] + h[1:])


def comp_inverse(a: list) -> list:
    return moments([ONE] + _shifted_reversion(a)[1:])


def adjoint(a: list) -> list:
    return moments(exp(_shifted_reversion(a)))


def cumulant(a: list) -> list:
    return [ONE] + moments(log(egf(a)))[1:]


def lagrange_general(gamma: list, n: int) -> Fraction:
    """g_1^n times moment n of the compositional inverse of g."""
    return Fraction(gamma[1]) ** n * comp_inverse(gamma[: n + 1])[n]


def abel(gamma: list, n_max: int) -> list:
    """p_n(x) = x (x - n.g)^(n-1), (-n).g read as f(g, t)^(-n)."""
    out = [{0: ONE}]
    base = recip(egf(gamma))
    neg_power = [ONE] + [ZERO] * (len(base) - 1)
    for n in range(1, n_max + 1):
        neg_power = mul(neg_power, base)
        neg = moments(neg_power[:n])
        out.append(xpoly({k + 1: comb(n - 1, k) * neg[n - 1 - k] for k in range(n)}))
    return out


def sheffer(alpha: list, gamma: list) -> list:
    """s_n(x) = n! [t^n] e^(x r(t)) / f(alpha, r(t)), r the reversion of f(gamma) - 1."""
    n = len(gamma) - 1
    r = _shifted_reversion(gamma)
    part = recip(compose(egf(alpha), r))
    out = [{} for _ in range(n + 1)]
    for k in range(n + 1):  # part = A * r^k
        for m in range(k, n + 1):
            if part[m]:
                out[m][k] = part[m] * factorial(m) / factorial(k)
        part = mul(part, r)
    return out


def appell(alpha: list) -> list:
    b = inverse(alpha)
    return [xpoly({k: comb(n, k) * b[n - k] for k in range(n + 1)}) for n in range(len(alpha))]


def expand_in_basis(matrix, basis: list) -> list:
    """sum_k matrix[n][k] * basis[k] for each row n."""
    return [_sum_values(pscale(basis[k], c) for k, c in enumerate(row)) for row in matrix]


def translate(p: dict, h) -> dict:
    """p(x + h)."""
    h = Fraction(h)
    out: dict = {}
    for k, c in p.items():
        for i in range(k + 1):
            out[i] = out.get(i, ZERO) + c * comb(k, i) * h ** (k - i)
    return xpoly(out)


def at(p: dict, x) -> Fraction:
    return sum((c * Fraction(x) ** k for k, c in p.items()), ZERO)


def integral_01(p: dict) -> Fraction:
    return sum((c / (k + 1) for k, c in p.items()), ZERO)


def poisson_charlier_pair(a, n: int) -> tuple:
    """(a.bell, chi.(a.bell)): moments of exp(a(e^t - 1)) and 1 + a(e^t - 1)."""
    a = Fraction(a)
    alpha = moments(exp([ZERO] + [a * c for c in _exp_t(n)[1:]]))
    return alpha, [ONE] + [a] * n


def from_cumulants(kappa: list) -> list:
    """Moments of the umbra with cumulants kappa_1, kappa_2, ..."""
    return moments(exp([ZERO] + egf([ZERO] + list(kappa))[1:]))


# ---------------------------------------------------------------------------
# Classical triangles and partition counts


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k <= 0 or k > n:
        return 0
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


@lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    """Signed Stirling numbers of the first kind."""
    if n == k:
        return 1
    if k <= 0 or k > n:
        return 0
    return stirling1(n - 1, k - 1) - (n - 1) * stirling1(n - 1, k)


@lru_cache(maxsize=None)
def partitions_with_parts(n: int, k: int) -> int:
    """Number of partitions of n into exactly k parts."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    return partitions_with_parts(n - 1, k - 1) + partitions_with_parts(n - k, k)


def partitions(n: int) -> int:
    return sum(partitions_with_parts(n, k) for k in range(n + 1))
