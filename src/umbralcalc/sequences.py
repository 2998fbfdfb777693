"""Concrete sequences and theorems: Abel polynomials, Lagrange inversion,
umbral Stirling numbers, Poisson-Charlier polynomials, and three worked
difference-equation solutions.

Each table is read off one umbra: the Abel polynomials are the sequence
associated to the derivative umbra g_D, the Stirling triangles are the
coefficient tables of the sequences associated to u (the falling factorials)
and to uinv (the exponential polynomials), and the Poisson-Charlier rows come
from one Sheffer table.  Two of the worked difference equations are solved
by one Sheffer-table solver: E[s_n(x + g)] - s_n(x) = s_{n-1}(x) under the
condition E[s_n(a)] = w_n / n! on the umbra a.  Most operations are also
deliberately redundant: the umbral result is compared with an independent
route (classical triangle recurrence, closed formula, series reversion,
recursive initial-condition expansion) and the two must agree exactly, or
``require_equal`` raises ConsistencyError.  The redundancy is the point --
these are the consistency theorems of the calculus, kept executable.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .combinatorics import binomial_row
from .combinatorics import stirling_first_classical, stirling_second_classical
from .poly import X, Y, Poly, collapse
from .records import Record
from .series import egf_compose, egf_mul
from .sheffer import (
    associated_moments,
    _as_poly,
    _check_shift,
    _x_to_y,
    PolySequence,
    ShefferPair,
    poisson_charlier_pair,
    require_equal,
    sheffer_moments,
)
from .umbra import (
    Umbra,
    _from_cumulants,
    _require_scalar_first_moment,
    augmentation,
    bell_umbra,
    comp_inverse,
    derivative_umbra,
    dot,
    inverse_dot,
    overbar_umbra,
    scalar_umbra,
    singleton,
    substitute,
    ubar_umbra,
    uinv_umbra,
    umbral_sum,
    unity,
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
    """E[(-n.g_bar)^{n-1}] for g_1 != 0; equals g_1^n times moment n of g^<-1>,
    which the run-time check takes from the direct solve of h(r) = t
    (``comp_inverse``), not from a second evaluation of the formula."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_order(gamma, n)
    g1 = _require_scalar_first_moment(gamma)
    gbar = overbar_umbra(gamma)
    value = collapse(dot(-n, gbar).moment(n - 1))
    via_reversion = g1**n * comp_inverse(gamma).moment(n)
    require_equal("lagrange inversion vs reversion", (value,), (via_reversion,), first=n)
    return value


def stirling_triangle(kind: str, n_max: int) -> list[list[Fraction]]:
    """Rows 0..n_max of the "first" or "second" kind umbral Stirling triangle.

    The coefficient table of the sequence associated to u (the falling
    factorials (x)_n = sum_k s(n,k) x^k) or to uinv (the exponential
    polynomials sum_k S(n,k) x^k), read off one Bell table; every row is
    checked against the classical triangle recurrence.
    """
    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    if kind == "first":
        gamma, classical = unity(n_max), stirling_first_classical
    else:
        gamma, classical = uinv_umbra(n_max), stirling_second_classical
    table = associated_moments(gamma)
    rows = (Poly({(k, 0): classical(n, k) for k in range(n + 1)}) for n in range(n_max + 1))
    require_equal(f"stirling {kind} table vs triangle", table, rows)
    return table.coefficient_table()


def _stirling_entry(kind: str, n: int, k: int, inverse, classical) -> Fraction:
    """Entry (n, k) of that triangle, B_(n,k) of r = f(inverse, t) - 1, the reversion
    of f(g, t) - 1 (u and uinv are each other's compositional inverse): moment n
    of the k-th unit series composed with r, checked against the classical triangle."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    unit = [Fraction(0)] * (n + 1)
    unit[k] = Fraction(1)
    entry = egf_compose(unit, (Fraction(0),) + inverse(n).moments[1:])[n]
    require_equal(f"stirling {kind} table vs triangle", (entry * X**k,), (classical(n, k) * X**k,), first=n)
    return entry


def stirling_second_umbral(n: int, k: int) -> Fraction:
    """S(n,k): entry (n, k) of the checked second-kind triangle, the table of g = uinv."""
    return _stirling_entry("second", n, k, unity, stirling_second_classical)


def stirling_first_umbral(n: int, k: int) -> Fraction:
    """s(n,k): entry (n, k) of the checked first-kind triangle, the table of g = u."""
    return _stirling_entry("first", n, k, uinv_umbra, stirling_first_classical)


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
    closed = (c / b**n for n, c in enumerate(egf_mul(falling, scalar_umbra(-b, n_max).moments)))
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
    abel_y = _x_to_y(abel_polynomials(gamma, n_max))
    shifts = [with_x_shift(dot(k, gamma)) for k in range(n_max + 1)]  # moments (x + k.g)^m
    lhs = scalar_umbra(X + Y, n_max).moments
    rhs = (
        sum((comb(n, k) * abel_y[k] * shifts[k].moment(n - k) for k in range(n + 1)), Fraction(0))
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
    rhs = sum((comb(n, k) * g1**k * dot(k, gbar).moment(n - k) * X**k for k in range(n + 1)), Fraction(0))
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


def _solve_difference(gamma: Umbra, alpha: Umbra, omega: Umbra, checks: tuple[str, str]) -> tuple[PolySequence, tuple]:
    """Solve E[s_n(x + g)] - s_n(x) = s_{n-1}(x) under E[s_n(a)] = w_n / n!.

    s_n = S_n / n!, with S the Sheffer table of the pair (a', g) for
    -1.a' = -1.a + w.bell.g, where f(w.bell.g, t) = f(w, f(g, t) - 1): one
    dot on bell.g, the umbra built from its cumulant series f(g, t) - 1.
    Both conditions are checked on the returned polynomials, the operator
    one by the substitution that checks the Sheffer derivative rule, under
    the two names in ``checks``.  Returns the sequence and the names of the
    checks passed.
    """
    bell_gamma = _from_cumulants((Fraction(0),) + gamma.moments[1:])
    alpha_prime = inverse_dot(umbral_sum(inverse_dot(alpha), dot(omega, bell_gamma)))
    table = sheffer_moments(ShefferPair(alpha_prime, gamma))
    polys = [p / factorial(n) for n, p in enumerate(table)]
    operator, functional = checks
    values = (w / factorial(n) for n, w in enumerate(omega.moments))
    return PolySequence(tuple(polys)), (
        _check_shift(operator, polys, gamma, [1] * len(polys)),
        require_equal(functional, substitute(polys, alpha), values),
    )


def recurrence_example_bernoulli(n_max: int) -> RecurrenceSolution:
    """Solve s_n(x+1) = s_n(x) + s_{n-1}(x) with unit integral over [0, 1].

    The integral of p over [0, 1] is E[p(a)] for a = -1.bern, whose moments
    are the integrals 1/(n+1) of x^n, so this is the solver's equation for
    g = u, a = -1.bern and w = ubar; its solution is
    s_n(x) = E[((bern + ubar.bell + x.u).chi)^n] / n!.
    """
    alpha = Umbra([Fraction(1, n + 1) for n in range(n_max + 1)])
    checks = ("forward difference s_n(x+1) - s_n(x) = s_{n-1}(x)", "unit integral over [0,1]")
    seq, passed = _solve_difference(unity(n_max), alpha, ubar_umbra(n_max), checks)
    return RecurrenceSolution("bernoulli-diff", seq, passed)


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
    difference = _check_shift(
        "backward difference s_n(x) - s_n(x-1) = s_{n-1}(x)", closed, scalar_umbra(-1, n_max), [-1] * (n_max + 1)
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

    Returns G_n(x) = F_n(x+n) = sum_k C(x+k, n-k), the solver's solution for
    g = u, a = eps and w = fib_bar: G_n(x+1) = G_n(x) + G_{n-1}(x) with
    G_n(0) = Fib(n).  The claim F_n(0) = 1 is reported (it fails for n >= 2)
    but never asserted.
    """
    fib_bar = fibonacci_factorial_umbra(n_max)
    checks = ("shifted recurrence G_n(x+1) = G_n(x) + G_{n-1}(x)", "diagonal G_n(0) = Fib(n)")
    seq, passed = _solve_difference(unity(n_max), augmentation(n_max), fib_bar, checks)

    # Same polynomials from the umbral closed form (fib_bar + x.chi)^n / n!.
    total = umbral_sum(fib_bar, dot(X, singleton(n_max)))
    umbral = require_equal(
        "umbral closed form (fib_bar + x.chi)^n / n!",
        seq,
        (total.moment(n) / factorial(n) for n in range(n_max + 1)),
    )

    f_at_zero = [collapse(p(x=Fraction(-n))) for n, p in enumerate(seq)]
    notes = {"F_n(0) by direct evaluation": f_at_zero}
    return RecurrenceSolution("fibonacci", seq, (*passed, umbral), notes=notes)
