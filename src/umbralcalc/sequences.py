"""Concrete sequences and theorems: Abel polynomials, Lagrange inversion,
umbral Stirling numbers, Poisson-Charlier polynomials, and three worked
difference-equation solutions.

Each table is read off one umbra: the Abel polynomials are the sequence
associated to the derivative umbra g_D, column k of a Stirling triangle comes
from one dot product with the Bernoulli umbra, and the Poisson-Charlier rows
from one Sheffer table.  Most operations are also deliberately redundant: the
umbral result is compared with an independent route (classical triangle
recurrence, closed formula, series reversion, recursive initial-condition
expansion) and the two must agree exactly, or ``require_equal`` raises
ConsistencyError.  The redundancy is the point -- these are the consistency
theorems of the calculus, kept executable.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .combinatorics import binomial, binomial_row
from .combinatorics import stirling_first_classical, stirling_second_classical
from .poly import X, Y, Poly, Value, collapse, poly_definite_integral
from .records import Record
from .sheffer import (
    associated_moments,
    _as_poly,
    PolySequence,
    poisson_charlier_pair,
    require_equal,
    sheffer_moments,
)
from .umbra import (
    Umbra,
    _require_scalar_first_moment,
    bell_umbra,
    bernoulli_umbra,
    comp_inverse,
    derivative_umbra,
    dot,
    factorial_umbra,
    indeterminate_umbra,
    overbar_umbra,
    singleton,
    substitute,
    ubar_umbra,
    umbral_sum,
    with_x_shift,
)

# ---------------------------------------------------------------------------
# Fibonacci-flavoured umbrae (coefficients of 1/(1 - t - t^2))


def fibonacci_numbers(n_max: int) -> list[Fraction]:
    """1, 1, 2, 3, 5, ...: Fib(n) with Fib(0) = Fib(1) = 1."""
    out = [Fraction(1)]
    if n_max >= 1:
        out.append(Fraction(1))
    for _ in range(n_max - 1):
        out.append(out[-1] + out[-2])
    return out[: n_max + 1]


def fibonacci_factorial_umbra(order: int) -> Umbra:
    """Moments n! Fib(n); generating function 1/(1 - t - t^2)."""
    fib = fibonacci_numbers(order)
    return Umbra([fib[n] * factorial(n) for n in range(order + 1)], name="fib_bar")


# ---------------------------------------------------------------------------
# Abel polynomials and Lagrange inversion


def _require_order(gamma: Umbra, n: int) -> None:
    if gamma.order < n:
        raise ValueError(f"need gamma to order {n}, have {gamma.order}")


def abel_polynomials(gamma: Umbra, n_max: int) -> PolySequence:
    """p_n(x) = x (x - n.g)^{n-1}: the sequence associated to the derivative umbra g_D.

    g_D is built to order n_max from g_0..g_{n_max-1}.
    """
    _require_order(gamma, n_max - 1)
    return associated_moments(derivative_umbra(gamma, n_max))


def lagrange_inversion(gamma: Umbra, n: int) -> Fraction:
    """E[(-n.g)^{n-1}], the n-th moment of (g_D)^<-1>.

    This is lagrange_inversion_general for g_D, whose overbar umbra is g and
    whose first moment is 1; the run-time check against series reversion
    happens there.
    """
    return lagrange_inversion_general(derivative_umbra(gamma), n)


def lagrange_inversion_general(gamma: Umbra, n: int) -> Fraction:
    """E[(-n.g_bar)^{n-1}] for g_1 != 0; equals g_1^n times moment n of g^<-1>."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_order(gamma, n)
    g1 = _require_scalar_first_moment(gamma)
    gbar = overbar_umbra(gamma)
    value = collapse(dot(-n, gbar).moment(n - 1))
    via_reversion = g1**n * comp_inverse(gamma).moment(n)
    require_equal("lagrange inversion vs reversion", (value,), (via_reversion,), first=n)
    return value


def _stirling_base(kind: str, order: int) -> Umbra:
    """The umbra every column of a Stirling triangle is a dot power of: bern, or bern.chi."""
    bern = bernoulli_umbra(order)
    return bern if kind == "second" else factorial_umbra(bern)


def _stirling_column(kind: str, k: int, n_max: int, base: Umbra) -> list[Fraction]:
    """Column k, rows k..n_max, of a Stirling triangle from one dot product.

    S(n,k) = C(n,k) E[(-k.bern)^{n-k}] and s(n,k) = C(n,k) E[(k.(bern.chi))^{n-k}],
    with ``base`` the umbra of :func:`_stirling_base` to order n_max - k or
    more; every entry is checked against the classical triangle.
    """
    base = base.truncated(n_max - k)
    if kind == "second":
        umbra, classical = dot(-k, base), stirling_second_classical
    else:
        umbra, classical = dot(k, base), stirling_first_classical
    column = [collapse(binomial(n, k) * umbra.moment(n - k)) for n in range(k, n_max + 1)]
    triangle = (classical(n, k) for n in range(k, n_max + 1))
    require_equal(f"stirling {kind} column {k} vs triangle", column, triangle, first=k)
    return column


def stirling_triangle(kind: str, n_max: int) -> list[list[Fraction]]:
    """Rows 0..n_max of the "first" or "second" kind umbral Stirling triangle.

    Built from n_max + 1 columns, one dot product each, all read off one base
    umbra built at order n_max; every entry is checked.
    """
    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    base = _stirling_base(kind, n_max)
    columns = [_stirling_column(kind, k, n_max, base) for k in range(n_max + 1)]
    return [[columns[k][n - k] for k in range(n + 1)] for n in range(n_max + 1)]


def stirling_second_umbral(n: int, k: int) -> Fraction:
    """S(n,k) = C(n,k) E[(-k.bern)^{n-k}]: entry n of column k, checked against the triangle."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return _stirling_column("second", k, n, _stirling_base("second", n - k))[-1]


def stirling_first_umbral(n: int, k: int) -> Fraction:
    """s(n,k) = C(n,k) E[(k.(bern.chi))^{n-k}]: entry n of column k, checked against the triangle."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return _stirling_column("first", k, n, _stirling_base("first", n - k))[-1]


# ---------------------------------------------------------------------------
# Poisson-Charlier polynomials


def poisson_charlier_sequence(n_max: int, a) -> PolySequence:
    """c_0..c_{n_max}, read off one Sheffer table of the pair (a.bell, chi.a.bell).

    Each row is checked against the closed formula
    c_n(x; a) = a^{-n} sum_k C(n,k) (-a)^{n-k} (x)_k.
    """
    b = Fraction(a)
    if n_max < 0:
        raise ValueError("n must be >= 0")
    table = sheffer_moments(poisson_charlier_pair(b, n_max))
    falling = [factorial(k) * c for k, c in enumerate(binomial_row(X, n_max))]  # (x)_k = k! C(x, k)
    closed = (
        sum((binomial(n, k) * (-b) ** (n - k) * falling[k] for k in range(n + 1)), Fraction(0)) / b**n
        for n in range(n_max + 1)
    )
    require_equal("poisson-charlier table vs closed form", table, closed)
    return table


# ---------------------------------------------------------------------------
# Abel identity and expansions


def abel_identity_check(gamma: Umbra, n_max: int) -> tuple[str, ...]:
    """(x+y)^n = sum_k C(n,k) [y(y - k.g)^{k-1}] (x + k.g)^{n-k}, exactly.

    The two k.g factors in each term are distinct auxiliary umbrae, so the
    term is a product of two independently evaluated polynomials: the Abel
    polynomial p_k at y and moment n - k of k.g + x.u.  The moments of g may
    involve y but not x.  Returns ("abel",), the check passed; a failure
    raises ConsistencyError.
    """
    _require_order(gamma, n_max)
    abel_y = [p.substitute(x=Y) for p in abel_polynomials(gamma, n_max)]
    shifts = [with_x_shift(dot(k, gamma)) for k in range(n_max + 1)]  # moments (x + k.g)^m
    lhs = ((X + Y) ** n for n in range(n_max + 1))
    rhs = (
        sum((binomial(n, k) * abel_y[k] * shifts[k].moment(n - k) for k in range(n + 1)), Fraction(0))
        for n in range(n_max + 1)
    )
    return (require_equal("abel", lhs, rhs),)


def polynomial_expand_abel(p: Poly, gamma: Umbra) -> list[Fraction]:
    """Coefficients c_k with p(x) = sum_k c_k x(x - k.g)^{k-1}.

    c_k = E[p^(k) evaluated at the umbra k.g] / k!; the reconstruction is
    verified exactly before returning.
    """
    p = _as_poly(p)
    if p.degree_in("y") > 0:
        raise ValueError("expansion is for polynomials in x only")
    d = max(p.degree_in("x"), 0)
    _require_order(gamma, d)
    coeffs: list[Fraction] = []
    deriv = p
    for k in range(d + 1):
        value = collapse(substitute([deriv], dot(k, gamma))[0])  # 0.g is the augmentation: p(0)
        coeffs.append(collapse(value / Fraction(factorial(k))))
        deriv = deriv.derivative("x")
    abel = abel_polynomials(gamma, d)
    recon = sum((c * abel[k] for k, c in enumerate(coeffs)), Fraction(0))
    require_equal("abel expansion reconstructs the polynomial", (recon,), (p,), first=d)
    return coeffs


def bell_expansion(gamma: Umbra, n: int) -> Poly:
    """(x.bell.g_D)^n = sum_k C(n,k) (k.g)^{n-k} x^k, computed two ways.

    This is bell_expansion_general for g_D, built one order past g: its
    overbar umbra is g and its first moment is 1.  The run-time check of the
    dot chain against the sum happens there.
    """
    _require_order(gamma, n)
    return bell_expansion_general(derivative_umbra(gamma, gamma.order + 1), n)


def bell_expansion_general(gamma: Umbra, n: int) -> Poly:
    """(x.bell.g)^n for g_1 != 0: equals sum_k C(n,k) g_1^k (k.g_bar)^{n-k} x^k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_order(gamma, n + 1)
    g1 = _require_scalar_first_moment(gamma)
    chain = dot(X, dot(bell_umbra(gamma.order), gamma))
    lhs = _as_poly(collapse(chain.moment(n)))
    gbar = overbar_umbra(gamma)
    rhs = sum((binomial(n, k) * g1**k * dot(k, gbar).moment(n - k) * X**k for k in range(n + 1)), Fraction(0))
    require_equal("bell expansion dot chain vs sum", (lhs,), (rhs,), first=n)
    return lhs


# ---------------------------------------------------------------------------
# Worked difference equations


class RecurrenceSolution(Record):
    """A solved difference equation: its name, the PolySequence, the names of
    the checks it passed (a failed check raises ConsistencyError instead) and
    a dict of notes, empty by default."""

    __slots__ = ("name", "sequence", "checks", "notes")
    _defaults = {"notes": dict}


def recurrence_example_bernoulli(n_max: int) -> RecurrenceSolution:
    """Solve s_n(x+1) = s_n(x) + s_{n-1}(x) with unit integral over [0, 1].

    The solution is s_n(x) = E[((bern + ubar.bell + x.u).chi)^n] / n!: the
    integral condition says substituting the inverse Bernoulli umbra for x
    must produce the all-factorial umbra, whose singleton pre-image is
    ubar.bell.
    """
    order = n_max
    weight = dot(ubar_umbra(order), bell_umbra(order))
    carrier = umbral_sum(umbral_sum(bernoulli_umbra(order), weight), indeterminate_umbra("x", order))
    sheffer = dot(carrier, singleton(order))
    polys = [_as_poly(collapse(sheffer.moment(n) / Fraction(factorial(n)))) for n in range(n_max + 1)]
    seq = PolySequence(tuple(polys))
    difference = require_equal(
        "forward difference s_n(x+1) - s_n(x) = s_{n-1}(x)",
        (polys[n].substitute(x=X + 1) - polys[n] for n in range(1, n_max + 1)),
        polys[:-1],
        first=1,
    )
    integral = require_equal(
        "unit integral over [0,1]", (poly_definite_integral(p, "x", 0, 1) for p in polys), [1] * len(polys)
    )
    return RecurrenceSolution("bernoulli-diff", seq, (difference, integral))


def recurrence_example_backward(n_max: int) -> RecurrenceSolution:
    """Solve s_n(x) = s_n(x-1) + s_{n-1}(x) under the diagonal initial condition.

    Two routes: the closed form [ubar.bell.(fib_bar)_D + (x+n-1).chi]^n / n!
    and the recursive expansion s_n(x) = sum_k s_k(1-k) C(x+n-1, n-k).
    Moment j of (x+n-1).chi is the factorial moment (x+n-1)_j, so both routes
    weight one shared row C(x+n-1, j), j <= n: one by the umbral moments
    core_k / k!, the other by the diagonal values it evaluates itself.  A wrong
    row would still fail the difference and initial-condition checks.
    """
    order = n_max
    fib_bar = fibonacci_factorial_umbra(order)
    core = dot(ubar_umbra(order), dot(bell_umbra(order), derivative_umbra(fib_bar)))
    rows = [binomial_row(X + (n - 1), n) for n in range(n_max + 1)]  # rows[n][j] = C(x+n-1, j)

    def against_row(weights: list[Fraction], n: int) -> Poly:
        """sum_k weights[k] C(x+n-1, n-k) over k <= n."""
        return _as_poly(collapse(sum((weights[k] * rows[n][n - k] for k in range(n + 1)), Fraction(0))))

    def diagonal_sum(polys: list[Poly], n: int) -> Fraction:
        """sum_{i<n} s_i(n - 2i), the value the initial condition gives s_n(1-n)."""
        return collapse(sum((polys[i](x=Fraction(n - 2 * i)) for i in range(n)), Fraction(0)))

    weights = [core.moment(k) / factorial(k) for k in range(order + 1)]  # core_k / k!
    closed = [against_row(weights, n) for n in range(n_max + 1)]

    # Recursive route from the initial condition.
    recursive: list[Poly] = [Poly(1)]
    diag: list[Fraction] = [Fraction(1)]  # s_k(1-k)
    for n in range(1, n_max + 1):
        diag.append(diagonal_sum(recursive, n))
        recursive.append(against_row(diag, n))

    seq = PolySequence(tuple(closed))
    route = require_equal("closed form equals initial-condition expansion", closed, recursive)
    difference = require_equal(
        "backward difference s_n(x) - s_n(x-1) = s_{n-1}(x)",
        (closed[n] - closed[n].substitute(x=X - 1) for n in range(1, n_max + 1)),
        closed[:-1],
        first=1,
    )
    initial = require_equal(
        "initial condition on the shifted diagonal",
        (p(x=Fraction(1 - n)) for n, p in enumerate(closed)),
        (diagonal_sum(closed, n) if n else 1 for n in range(n_max + 1)),
    )

    # Generating-function identities for the shifted-Fibonacci umbra.
    fib = fibonacci_numbers(order)
    gf = require_equal(
        "f(fib_bar, t) (1 - t - t^2) = 1",
        (fib[n] - (fib[n - 1] if n >= 1 else 0) - (fib[n - 2] if n >= 2 else 0) for n in range(order + 1)),
        [1] + [0] * order,
    )
    boolean_chain = dot(ubar_umbra(order), dot(bell_umbra(order), derivative_umbra(singleton(order))))
    chain = require_equal(
        "ubar.bell.chi_D has the shifted-Fibonacci moments", boolean_chain.moments, fib_bar.moments
    )

    checks = (route, difference, initial, gf, chain)
    return RecurrenceSolution("backward-diff", seq, checks, notes={"diagonal values s_n(1-n)": diag})


def recurrence_example_fibonacci(n_max: int) -> RecurrenceSolution:
    """Solve F_n(m) = F_n(m-1) + F_{n-1}(m-2) along the shifted variable.

    Returns G_n(x) = F_n(x+n) = sum_k C(x+k, n-k); the claim F_n(0) = 1 is
    reported (it fails for n >= 2) but never asserted.
    """
    order = n_max
    rows = [binomial_row(X + k, n_max - k) for k in range(n_max + 1)]  # rows[k][j] = C(x+k, j)
    closed: list[Poly] = []
    for n in range(n_max + 1):
        p: Value = Fraction(0)
        for k in range(n + 1):
            p = p + rows[k][n - k]
        closed.append(_as_poly(collapse(p)))
    seq = PolySequence(tuple(closed))

    recurrence = require_equal(
        "shifted recurrence G_n(x+1) = G_n(x) + G_{n-1}(x)",
        (closed[n].substitute(x=X + 1) for n in range(1, n_max + 1)),
        (closed[n] + closed[n - 1] for n in range(1, n_max + 1)),
        first=1,
    )
    diagonal = require_equal(
        "diagonal G_n(0) = Fib(n)", (p(x=Fraction(0)) for p in closed), fibonacci_numbers(n_max)
    )

    # Same polynomials from the umbral closed form (fib_bar + x.chi)^n / n!.
    total = umbral_sum(fibonacci_factorial_umbra(order), dot(X, singleton(order)))
    umbral = require_equal(
        "umbral closed form (fib_bar + x.chi)^n / n!",
        closed,
        (total.moment(n) / factorial(n) for n in range(n_max + 1)),
    )

    f_at_zero = [collapse(closed[n](x=Fraction(-n))) for n in range(n_max + 1)]
    return RecurrenceSolution(
        "fibonacci", seq, (recurrence, diagonal, umbral), notes={"F_n(0) by direct evaluation": f_at_zero}
    )
