"""Randomized engine laws over arbitrary scalar umbrae.

These complement the named-umbra checks: every law here must hold for any
unital moment sequence (sometimes with a nonzero-first-moment side
condition), so hypothesis gets to pick the moments.
"""

from fractions import Fraction as F
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralcalc.combinatorics import stirling_second_classical
from umbralcalc.poly import Poly, X, Y
from umbralcalc.series import egf_mul, egf_power
from umbralcalc.sequences import abel_polynomials
from umbralcalc.sheffer import (
    ShefferPair,
    _check_shift,
    appell_moments,
    associated_moments,
    check_sheffer_identity,
    connection_constants,
    inverse_pair,
    inverse_sequence,
    poisson_charlier_pair,
    sheffer_moments,
)
from umbralcalc.umbra import (
    Umbra,
    _reversion,
    adjoint,
    comp_inverse,
    cumulant,
    bell_umbra,
    derivative_umbra,
    dot,
    factorial_moments,
    inverse_dot,
    singleton,
    umbral_sum,
    unity,
    with_x_shift,
)

from oracles import (
    associated_route,
    connection_matrix,
    dot_via_partitions,
    sheffer_moment_route,
    sheffer_series_route,
)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)

ORDER = 7


def umbrae(order=ORDER):
    return st.builds(lambda tail: Umbra([F(1)] + tail), st.lists(fractions, min_size=order, max_size=order))


def invertible_umbrae(order=ORDER):
    return st.builds(
        lambda a1, tail: Umbra([F(1), a1] + tail),
        fractions.filter(lambda c: c != 0),
        st.lists(fractions, min_size=order - 1, max_size=order - 1),
    )


@settings(max_examples=40)
@given(umbrae(), umbrae())
def test_umbral_sum_commutes(a, b):
    assert umbral_sum(a, b) == umbral_sum(b, a)


@settings(max_examples=25)
@given(umbrae(5), umbrae(5), umbrae(5))
def test_umbral_sum_associates(a, b, c):
    assert umbral_sum(umbral_sum(a, b), c) == umbral_sum(a, umbral_sum(b, c))


@settings(max_examples=30)
@given(umbrae())
def test_inverse_dot_cancels(a):
    assert umbral_sum(a, inverse_dot(a)).moments == (F(1),) + (F(0),) * ORDER
    assert inverse_dot(inverse_dot(a)) == a


@settings(max_examples=30)
@given(umbrae())
def test_cumulant_inverts_partition_umbra(a):
    """chi.(bell.a) = a and bell.(chi.a) = a: log/exp as umbral operations."""
    assert cumulant(dot(bell_umbra(ORDER), a)) == a
    assert dot(bell_umbra(ORDER), cumulant(a)) == a


@settings(max_examples=30)
@given(umbrae(), umbrae())
def test_dot_left_distributes_over_sums(a, b):
    """(a + b).g = a.g + b.g' for uncorrelated copies."""
    g = bell_umbra(ORDER)
    assert dot(umbral_sum(a, b), g) == umbral_sum(dot(a, g), dot(b, g))


@settings(max_examples=25)
@given(umbrae(), st.integers(min_value=0, max_value=5))
def test_integer_dot_is_iterated_convolution(a, n):
    """n.a equals the umbral sum of n uncorrelated copies of a."""
    expected = Umbra([F(1)] + [F(0)] * ORDER)
    for _ in range(n):
        expected = umbral_sum(expected, a)
    assert dot(n, a) == expected


@settings(max_examples=30)
@given(umbrae())
def test_stirling_transform_duality(a):
    """a_n = sum_k S(n,k) a_(k): the inverse of the factorial-moment map."""
    fm = factorial_moments(a)
    for n in range(ORDER + 1):
        total = sum((stirling_second_classical(n, k) * fm[k] for k in range(n + 1)), F(0))
        assert total == a.moment(n)


@settings(max_examples=25)
@given(invertible_umbrae())
def test_comp_inverse_involution(a):
    assert comp_inverse(comp_inverse(a)) == a


@settings(max_examples=25)
@given(invertible_umbrae())
def test_adjoint_laws_random(g):
    assert dot(g, adjoint(g)) == singleton(ORDER)
    assert dot(singleton(ORDER), adjoint(g)) == comp_inverse(g)
    assert dot(adjoint(g), dot(bell_umbra(ORDER), g)).moments == (F(1),) * (ORDER + 1)


@settings(max_examples=30)
@given(umbrae())
def test_derivative_umbra_shifts_series(a):
    d = derivative_umbra(a)
    t = (F(0), F(1)) + (F(0),) * (a.order - 1)
    assert d.moments == (F(1),) + egf_mul(t, a.moments)[1:]  # 1 + t f(a, t)


@settings(max_examples=25)
@given(invertible_umbrae())
def test_lagrange_link_random(g):
    """Moment n of cinv(g_D) equals E[(-n.g)^(n-1)] for random g."""
    normalized = Umbra([F(1)] + [g.moment(k) for k in range(1, ORDER + 1)])
    inv = comp_inverse(derivative_umbra(normalized))
    for n in range(1, ORDER + 1):
        assert inv.moment(n) == dot(-n, normalized).moment(n - 1)


small_polys = st.builds(lambda c, cx, cy: Poly({(0, 0): c, (1, 0): cx, (0, 1): cy}), fractions, fractions, fractions)


def poly_umbrae(order):
    """Umbrae whose moments mix scalars and polynomials in x, y."""
    values = st.one_of(fractions, small_polys)
    return st.builds(lambda tail: Umbra([F(1)] + tail), st.lists(values, min_size=order, max_size=order))


def y_umbrae(order):
    """Umbrae whose moments mix scalars and polynomials in y alone."""
    values = st.one_of(fractions, st.builds(lambda c, cy: c + cy * Y, fractions, fractions))
    return st.builds(lambda tail: Umbra([F(1)] + tail), st.lists(values, min_size=order, max_size=order))


def y_gammas(order):
    """Umbrae with a nonzero scalar first moment and y in their higher moments."""
    if not order:
        return umbrae(0)
    values = st.one_of(fractions, st.builds(lambda c, cy: c + cy * Y, fractions, fractions))
    return st.builds(
        lambda g1, tail: Umbra([F(1), g1] + tail),
        fractions.filter(lambda c: c != 0),
        st.lists(values, min_size=order - 1, max_size=order - 1),
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.one_of(umbrae(n), y_umbrae(n)), y_gammas(n))))
def test_tables_match_the_poly_kernel_routes(alpha_and_gamma):
    """The Sheffer, associated and Abel tables read off one Bell table equal
    the Poly-kernel compositions with r, and check_sheffer_identity passes on
    its two tables of one Bell table, at orders 0-12."""
    alpha, gamma = alpha_and_gamma
    pair, n = ShefferPair(alpha, gamma), gamma.order
    r = _reversion(gamma) if n else (F(0),)
    table = list(sheffer_moments(pair))
    assert table == list(sheffer_series_route(pair, r)) == list(sheffer_moment_route(pair, r))
    assert list(associated_moments(gamma)) == list(associated_route(r))
    if n:
        abel_r = _reversion(derivative_umbra(gamma, n))
        assert list(abel_polynomials(gamma, n)) == list(associated_route(abel_r))
    assert check_sheffer_identity(pair) == ("sheffer", "sheffer-derivative")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.one_of(umbrae(n), y_umbrae(n)), y_gammas(n))))
def test_every_table_passes_the_shift_check(alpha_and_gamma):
    """E[s_n(x + g)] = s_n(x) + n s_(n-1)(x), the check of the Sheffer
    derivative rule, holds for the Sheffer table of (a, g), the associated
    table of g (a = eps), the Appell table of a (g = chi), the Abel table
    of g (the associated table of g_D) and the inverse table (the Sheffer
    table of the inverse pair), at orders 0-12."""
    alpha, gamma = alpha_and_gamma
    pair, n = ShefferPair(alpha, gamma), gamma.order
    tables = [
        (sheffer_moments(pair), gamma),
        (associated_moments(gamma), gamma),
        (appell_moments(alpha), singleton(n)),
        (abel_polynomials(gamma, n), derivative_umbra(gamma, n)),
    ]
    if n:  # the inverse pair reverts gamma, which needs order 1
        tables.append((inverse_sequence(pair), inverse_pair(pair).gamma))
    for table, g in tables:
        assert _check_shift("shift", table.polys, g, range(n + 1)) == "shift"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.one_of(umbrae(n), y_umbrae(n), poly_umbrae(n))))
def test_with_x_shift_is_the_sum_with_x(a):
    """Moment n of a + x.u is sum_k C(n,k) a_(n-k) x^k, summed here on Polys,
    for scalar moments, moments in y and moments in x and y."""
    for n, moment in enumerate(with_x_shift(a).moments):
        assert moment == sum((comb(n, k) * a.moment(n - k) * X**k for k in range(n + 1)), Poly(0)), n


def dot_lefts(order):
    """Every kind of left operand: rational, x + c, scalar umbra, Poly-moment umbra."""
    return st.one_of(
        fractions,
        fractions.map(lambda c: X + c),
        umbrae(order),
        poly_umbrae(order),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(dot_lefts(n), st.one_of(umbrae(n), poly_umbrae(n)))
    )
)
def test_dot_matches_partition_oracle(left_and_right):
    """The series route of dot() equals the partition-sum oracle moment by moment."""
    left, a = left_and_right
    got = dot(left, a)
    for i in range(a.order + 1):
        assert got.moment(i) == dot_via_partitions(left, a, i)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10).flatmap(
        lambda n: st.tuples(
            st.one_of(st.just(X), fractions.map(lambda c: X + c), st.just(2 * X + Y)),
            st.one_of(umbrae(n), poly_umbrae(n)),
        )
    )
)
def test_polynomial_dot_composes_like_the_series_power(left_and_right):
    """dot(p, a) for a Poly p composes p's moments with log f(a, t); it equals
    the series power f(a, t)^p."""
    p, a = left_and_right
    assert dot(p, a) == Umbra(egf_power(a.moments, p))


def sheffer_pairs(order):
    return st.builds(ShefferPair, umbrae(order), invertible_umbrae(order) if order else umbrae(0))


# Rows that cancel to zero constants: a pair against itself gives the identity,
# and Appell pairs whose alphas differ by chi give c_(n,k) = C(n,k) chi_(n-k),
# zero for n - k >= 2.
def _appell_pair(alpha):
    return ShefferPair(alpha, singleton(alpha.order))


_PC = poisson_charlier_pair(2, 12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(sheffer_pairs(n), sheffer_pairs(n))))
@example((_PC, _PC))
@example((_appell_pair(unity(12)), _appell_pair(umbral_sum(unity(12), singleton(12)))))
@example((_appell_pair(bell_umbra(9)), _appell_pair(umbral_sum(bell_umbra(9), singleton(9)))))
def test_connection_constants_match_fraction_back_substitution(pairs):
    """The umbral formula's constants, checked by substituting them into the
    target basis, are those that back-substitution on Fraction coefficient
    rows gives, at orders 0-12."""
    frm, to = pairs
    assert connection_constants(frm, to).matrix == connection_matrix(frm, to)
