from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralcalc import sequences, series, sheffer
from umbralcalc.errors import ConsistencyError
from umbralcalc.combinatorics import (
    stirling_first_classical,
    stirling_second_classical,
)
from umbralcalc.poly import Poly, X, Y, collapse
from umbralcalc.sequences import (
    abel_identity_check,
    abel_polynomials,
    bell_expansion,
    bell_expansion_general,
    fibonacci_factorial_umbra,
    fibonacci_numbers,
    lagrange_inversion,
    lagrange_inversion_general,
    poisson_charlier_sequence,
    polynomial_expand_abel,
    recurrence_example_backward,
    recurrence_example_bernoulli,
    recurrence_example_fibonacci,
    stirling_first_umbral,
    stirling_second_umbral,
    stirling_triangle,
)
from umbralcalc.series import egf_mul
from umbralcalc.sheffer import PolySequence, associated_moments, poisson_charlier_pair, sheffer_moments
from umbralcalc.umbra import (
    Umbra,
    augmentation,
    bell_umbra,
    bernoulli_umbra,
    comp_inverse,
    derivative_umbra,
    dot,
    dot_power,
    inverse_dot,
    scalar_multiple,
    singleton,
    unity,
)

from oracles import bell_numbers, definite_integral, stirling_by_bernoulli

N = 12


def test_abel_polynomial_examples():
    ab = abel_polynomials(unity(N), 6)
    assert ab[2] == X**2 - 2 * X
    assert ab[3] == X**3 - 6 * X**2 + 9 * X
    assert list(abel_polynomials(augmentation(N), 5)) == [X**n * 1 + 0 for n in range(6)]
    # classical closed form x(x - n)^(n-1) for gamma = u
    for n in range(1, 7):
        assert ab[n] == collapse(X * (X - n) ** (n - 1))


def abel_by_powers(gamma, n_max):
    """Oracle: p_n(x) = x (x - n.g)^{n-1}, one dot(-n, g) per row (g to order >= n_max - 1)."""
    polys = [Poly(1)]
    for n in range(1, n_max + 1):
        neg = dot(-n, gamma)
        p = F(0)
        for k in range(n):
            p = p + comb(n - 1, k) * neg.moment(n - 1 - k) * X**k
        polys.append(collapse(X * p))
    return polys


def test_abel_equals_associated_of_derivative():
    for gamma in (unity(N), singleton(N), bernoulli_umbra(N), augmentation(N)):
        assoc = associated_moments(derivative_umbra(gamma))
        assert abel_by_powers(gamma, N) == list(assoc), gamma.name


@settings(max_examples=40, deadline=None)
@given(
    n_max=st.integers(0, 10),
    extra=st.sampled_from([-1, 0, 2]),
    tail=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=12, max_size=12),
    in_y=st.booleans(),
)
@example(n_max=6, extra=-1, tail=[F(k, 3) for k in range(1, 13)], in_y=True)
def test_abel_matches_power_oracle(n_max, extra, tail, in_y):
    """abel_polynomials (through g_D) against one dot(-n, g) per row, g of order n_max - 1 and up."""
    order = max(n_max + extra, 0)
    moments = [F(1)] + [c + (Y * c if in_y else 0) for c in tail[:order]]
    gamma = Umbra(moments)
    assert list(abel_polynomials(gamma, n_max)) == abel_by_powers(gamma, n_max)


def test_lagrange_inversion_values():
    assert [lagrange_inversion(unity(10), n) for n in range(1, 6)] == [1, -2, 9, -64, 625]
    assert lagrange_inversion(unity(10), 1) == 1
    # Bernoulli link: the inverse Bernoulli umbra gives s(n, 1)
    for n in range(1, 9):
        assert lagrange_inversion(inverse_dot(bernoulli_umbra(10)), n) == stirling_first_classical(n, 1)
        assert stirling_first_umbral(n, 1) == stirling_first_classical(n, 1)
        assert stirling_first_umbral(n, 1) == F((-1) ** (n - 1)) * factorial(n - 1)


def test_lagrange_inversion_consistency_pool():
    for gamma in (unity(10), singleton(10), bernoulli_umbra(10)):
        for n in range(1, 11):
            value = lagrange_inversion(gamma, n)  # self-asserting against reversion
            assert value == comp_inverse(derivative_umbra(gamma)).moment(n)


def test_lagrange_inversion_general():
    assert lagrange_inversion_general(scalar_multiple(2, unity(8)), 2) == -2
    assert lagrange_inversion_general(unity(8), 2) == -1
    for g1 in (F(2), F(1, 2), F(-1)):
        gamma = scalar_multiple(g1, unity(9))
        for n in range(1, 9):
            value = lagrange_inversion_general(gamma, n)
            assert value == g1**n * comp_inverse(gamma).moment(n)
    assert lagrange_inversion_general(scalar_multiple(3, unity(4)), 1) == 1


def test_dot_power_times_inverse_moment_identity():
    """g^{.n} (g^<-1>)^n as an uncorrelated product equals g_1^n (g^<-1>)_n."""
    gamma = scalar_multiple(2, unity(6))
    n = 3
    lhs = dot_power(gamma, n).moment(1) * comp_inverse(gamma).moment(n)
    assert lhs == lagrange_inversion_general(gamma, n)


def test_umbral_stirling_triangles():
    for n in range(11):
        for k in range(n + 1):
            assert stirling_second_umbral(n, k) == stirling_second_classical(n, k)
            assert stirling_first_umbral(n, k) == stirling_first_classical(n, k)
    assert stirling_second_umbral(3, 2) == 3
    assert stirling_first_umbral(3, 2) == -3
    with pytest.raises(ValueError):
        stirling_second_umbral(2, 3)


@pytest.mark.parametrize("kind", ["first", "second"])
def test_stirling_triangle_is_one_bell_table(kind, monkeypatch):
    """The triangle reverts its gamma once and reads every row off the one
    Bell table that reversion builds; it takes no dot product."""
    reversions, tables, dots = [], [], []
    real_loop, real_table, real_dot = series._revert_columns, sheffer._revert_table, sequences.dot
    monkeypatch.setattr(series, "_revert_columns", lambda h: reversions.append(h) or real_loop(h))
    monkeypatch.setattr(sheffer, "_revert_table", lambda h: tables.append(h) or real_table(h))
    monkeypatch.setattr(sequences, "dot", lambda left, a: dots.append(left) or real_dot(left, a))
    classical = stirling_first_classical if kind == "first" else stirling_second_classical
    assert stirling_triangle(kind, 24) == [[classical(n, k) for k in range(n + 1)] for n in range(25)]
    assert (len(reversions), len(tables), len(dots)) == (1, 1, 0)


@pytest.mark.parametrize("kind", ["first", "second"])
def test_stirling_triangle_matches_bernoulli_columns(kind):
    for n_max in (0, 1, 7, 24):
        assert stirling_triangle(kind, n_max) == stirling_by_bernoulli(kind, n_max)


def test_stirling_triangle_checks_every_entry(monkeypatch):
    def off_at_5_2(n, k):
        return stirling_second_classical(n, k) + (1 if (n, k) == (5, 2) else 0)

    monkeypatch.setattr(sequences, "stirling_second_classical", off_at_5_2)
    with pytest.raises(ConsistencyError, match="'stirling second table vs triangle' failed at n = 5") as info:
        stirling_triangle("second", 6)
    assert (info.value.monomial, info.value.lhs, info.value.rhs) == ("x^2", 15, 16)
    with pytest.raises(ValueError):
        stirling_triangle("third", 3)


@pytest.mark.parametrize("kind", ["first", "second"])
def test_stirling_entry_is_k_plus_one_bell_columns(kind, monkeypatch):
    """Entry (n, k) is one egf_compose over columns 0..k of one Bell table of
    the reversion, known in closed form (u and uinv are each other's
    compositional inverse), so no entry takes a reversion."""
    tables, reverts = [], []
    real_table, real_revert = series._bell_table, series._revert_columns
    monkeypatch.setattr(series, "_bell_table", lambda h, top: tables.append((len(h) - 1, top)) or real_table(h, top))
    monkeypatch.setattr(series, "_revert_columns", lambda h: reverts.append(h) or real_revert(h))
    entry = stirling_first_umbral if kind == "first" else stirling_second_umbral
    classical = stirling_first_classical if kind == "first" else stirling_second_classical
    assert [entry(n, k) for n in range(10) for k in range(n + 1)] == [
        classical(n, k) for n in range(10) for k in range(n + 1)
    ]
    assert tables == [(n, k) for n in range(10) for k in range(n + 1)] and not reverts


def test_stirling_entry_is_checked(monkeypatch):
    def off_at_5_2(n, k):
        return stirling_second_classical(n, k) + (1 if (n, k) == (5, 2) else 0)

    monkeypatch.setattr(sequences, "stirling_second_classical", off_at_5_2)
    assert stirling_second_umbral(5, 3) == 25
    with pytest.raises(ConsistencyError, match="'stirling second table vs triangle' failed at n = 5") as info:
        stirling_second_umbral(5, 2)
    assert (info.value.monomial, info.value.lhs, info.value.rhs) == ("x^2", 15, 16)
    for n, k in [(3, 4), (3, -1)]:
        with pytest.raises(ValueError):
            stirling_first_umbral(n, k)


@pytest.mark.parametrize("a", [1, F(3, 2)])
def test_poisson_charlier_sequence_is_one_sheffer_table(a, monkeypatch):
    orders = []
    monkeypatch.setattr(sequences, "sheffer_moments", lambda pair: orders.append(pair.order) or sheffer_moments(pair))
    seq = poisson_charlier_sequence(12, a)
    assert list(seq) == list(sheffer_moments(poisson_charlier_pair(a, 12)))
    assert orders == [12]


def test_poisson_charlier_sequence_checks_every_row(monkeypatch):
    def one_row_off(pair):
        table = list(sheffer_moments(pair))
        table[3] = table[3] + 1
        return PolySequence(tuple(table))

    monkeypatch.setattr(sequences, "sheffer_moments", one_row_off)
    with pytest.raises(ConsistencyError, match="'poisson-charlier table vs closed form' failed at n = 3") as info:
        poisson_charlier_sequence(5, 2)
    assert info.value.monomial == "1" and info.value.lhs == info.value.rhs + 1


def test_poisson_charlier_examples():
    assert poisson_charlier_sequence(2, 1)[2] == X**2 - 3 * X + 1
    assert poisson_charlier_sequence(0, F(7))[0] == 1
    a = F(3, 2)
    assert poisson_charlier_sequence(1, a)[1] == (X - a) / a
    with pytest.raises(ValueError):
        poisson_charlier_sequence(2, 0)
    seq = poisson_charlier_sequence(5, 1)
    assert seq[2] == X**2 - 3 * X + 1


def test_exponential_polynomials():
    """x.bell has moments Phi_n(x) = sum_k S(n,k) x^k, and Phi_n(1) = B_n."""
    phi = PolySequence(dot(X, bell_umbra(8)).moments)
    assert phi[3] == X + 3 * X**2 + X**3
    assert [phi.coefficients(n) for n in range(9)] == [
        [stirling_second_classical(n, k) for k in range(n + 1)] for n in range(9)
    ]
    assert [p(x=1) for p in phi] == bell_numbers(8)


def test_exponential_polynomials_at_the_order_cap():
    """x.bell at --order 64 matches the Stirling triangle row by row."""
    phi = PolySequence(dot(X, bell_umbra(64)).moments)
    assert [phi.coefficients(n) for n in range(65)] == [
        [stirling_second_classical(n, k) for k in range(n + 1)] for n in range(65)
    ]


def test_abel_identity():
    for gamma, n_max in ((unity(8), 4), (augmentation(8), 5), (singleton(8), 6), (bernoulli_umbra(8), 5)):
        assert abel_identity_check(gamma, n_max) == ("abel",)
    # hand expansion for gamma = u, n = 2: x^2, 2y(x+1), y(y-2)
    assert abel_identity_check(unity(4), 2) == ("abel",)


def test_polynomial_expand_abel():
    # p = x^2, gamma = u: reconstruction is verified inside the call
    cs = polynomial_expand_abel(X**2 * 1 + 0, unity(6))
    assert len(cs) == 3
    assert polynomial_expand_abel(Poly(F(5)), unity(6)) == [F(5)]
    cs3 = polynomial_expand_abel(X**3 * 1 + 0, singleton(6))
    assert len(cs3) == 4
    # gamma = eps degenerates to the power basis: plain monomial coefficients
    assert polynomial_expand_abel(X**3 + X, augmentation(6)) == [0, 1, 0, 1]


def test_bell_expansion_examples():
    assert bell_expansion(singleton(10), 3) == 6 * X**2 + X**3
    for gamma in (unity(10), singleton(10), inverse_dot(bernoulli_umbra(10))):
        for n in range(11):
            bell_expansion(gamma, n)  # two-path equality asserted inside
    # gamma = -1.bern reproduces the Stirling table
    for n in range(11):
        got = bell_expansion(inverse_dot(bernoulli_umbra(11)), n)
        expected = sum((stirling_second_classical(n, k) * X**k for k in range(n + 1)), Poly(0))
        assert got == expected
    # gamma = eps collapses to x^n
    for n in range(6):
        assert bell_expansion(augmentation(8), n) == X**n


def test_bell_expansion_general():
    for n in range(7):
        bell_expansion_general(scalar_multiple(2, unity(8)), n)
    assert bell_expansion_general(scalar_multiple(2, unity(8)), 2) == 4 * X + 4 * X**2


def test_derivative_series_product_rule():
    """(e^{a_D t} - 1)^{.k} = t^k e^{(k.a) t} coefficientwise for k <= 3."""
    order = 9
    for alpha in (unity(order), bernoulli_umbra(order)):
        d = derivative_umbra(alpha)
        for k in range(1, 4):
            ka = dot(k, alpha)
            for n in range(k, order + 1):
                # [t^n] of the k-fold product of uncorrelated copies
                lhs = F(0)
                for comp in _compositions(n, k):
                    term = F(1)
                    for part in comp:
                        term *= d.moment(part) / factorial(part)
                    lhs += term
                rhs = ka.moment(n - k) / factorial(n - k)
                assert lhs == rhs, (alpha.name, k, n)


def _compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def test_fibonacci_numbers():
    assert fibonacci_numbers(8) == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    fb = fibonacci_factorial_umbra(5)
    assert fb.moments == (1, 1, 4, 18, 120, 960)


def test_recurrence_bernoulli():
    sol = recurrence_example_bernoulli(8)
    assert len(sol.checks) == 2
    seq = sol.sequence
    assert seq[0] == 1
    assert seq[1] == X + F(1, 2)
    for n in range(9):
        assert definite_integral(seq[n], "x", 0, 1) == 1
    for n in range(1, 9):
        assert collapse(seq[n].substitute(x=X + 1) - seq[n]) == seq[n - 1]


def test_recurrence_backward():
    sol = recurrence_example_backward(8)
    assert len(sol.checks) == 5
    seq = sol.sequence
    assert seq[1] == X + 1
    for n in range(1, 9):
        assert collapse(seq[n] - seq[n].substitute(x=X - 1)) == seq[n - 1]
    # f(fib_bar, t)(1 - t - t^2) = 1 mod t^9 directly; 1 - t - t^2 has moments 1, -1, -2
    one_minus = (F(1), F(-1), F(-2)) + (F(0),) * 6
    assert egf_mul(fibonacci_factorial_umbra(8).moments, one_minus) == (F(1),) + (F(0),) * 8


def test_recurrence_fibonacci():
    sol = recurrence_example_fibonacci(8)
    assert len(sol.checks) == 3
    seq = sol.sequence
    assert seq[2] == collapse(X * (X - 1) / 2 + X + 2)
    assert [p(x=0) for p in seq] == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    # recurrence as an exact Poly identity
    for n in range(1, 9):
        assert collapse(seq[n].substitute(x=X + 1)) == collapse(seq[n] + seq[n - 1])
    # the F_n(0) = 1 claim fails at n = 2 and is only reported
    assert sol.notes["F_n(0) by direct evaluation"][2] == 3


def test_recurrence_requires_nonnegative():
    sol = recurrence_example_bernoulli(0)
    assert sol.sequence[0] == 1
