"""The series kernel works on moment tuples: f(t) = sum_n a_n t^n / n! is held
as (a_0, ..., a_N).  The oracles here work in coefficient form c_n = a_n / n!
instead, through the test-local bridge ``coeffs_of`` / ``moments_of``, so they
share no code with the kernel they check."""

from fractions import Fraction as F
from math import comb, factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralcalc.errors import NonInvertibleError, OrderMismatchError, SingularSeriesError
from umbralcalc import series
from umbralcalc.poly import X, Y, Poly, collapse
from umbralcalc.series import (
    egf_compose,
    egf_exp,
    egf_log,
    egf_mul,
    egf_power,
    egf_reciprocal,
    egf_revert,
)

from oracles import (
    bell_partial,
    bernoulli_numbers,
    cmul,
    falling_factorial,
    horner_compose,
    lagrange_revert_by_powers,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def one(order):
    return (F(1),) + (F(0),) * order


def identity(order):
    """The series t."""
    return (F(0), F(1)) + (F(0),) * (order - 1)


def exp_series(order):
    return (F(1),) * (order + 1)


# ---------------------------------------------------------------------------
# The n! bridge and plain coefficient-form oracles


def coeffs_of(moments):
    return tuple(collapse(m) / factorial(n) for n, m in enumerate(moments))


def moments_of(coeffs):
    return tuple(collapse(c * factorial(n)) for n, c in enumerate(coeffs))


def _sum(terms):
    return collapse(sum(terms, F(0)))


def creciprocal(f):
    inv0 = 1 / F(f[0])
    out = [inv0]
    for n in range(1, len(f)):
        out.append(collapse(-inv0 * _sum(f[k] * out[n - k] for k in range(1, n + 1))))
    return tuple(out)


def clog(f):
    """log f from f' = f (log f)', coefficient by coefficient."""
    out = [F(0)] * len(f)
    for m in range(1, len(f)):
        out[m] = collapse(f[m] - _sum(k * out[k] * f[m - k] for k in range(1, m)) / m)
    return tuple(out)


def cexp(h):
    """exp h from (exp h)' = h' exp h, coefficient by coefficient."""
    out = [F(1)] + [F(0)] * (len(h) - 1)
    for m in range(1, len(h)):
        out[m] = collapse(_sum(k * h[k] * out[m - k] for k in range(1, m + 1)) / m)
    return tuple(out)


def cpower(f, e):
    return cexp(tuple(collapse(e * c) for c in clog(f)))


def recompose_revert(h):
    """Reversion oracle: solve h(r) = t coefficient by coefficient.

    The unknown r_m enters the t^m coefficient of h(r) linearly with factor
    h_1, and coefficients above t^m cannot influence it, so each step
    recomposes mod t^(m+1).
    """
    n = len(h) - 1
    r = [F(0)] * (n + 1)
    r[1] = 1 / h[1]
    for m in range(2, n + 1):
        err = horner_compose(h[: m + 1], tuple(r[: m + 1]))[m]
        r[m] = collapse(-err / h[1])
    return tuple(r)


# ---------------------------------------------------------------------------


def test_moment_coefficient_bridge():
    assert coeffs_of((1, 1, 1, 1)) == (1, 1, F(1, 2), F(1, 6))
    assert coeffs_of((1, 1, 0, 0)) == (1, 1, 0, 0)
    g = (F(1), F(-1, 2), F(1, 6), F(0))
    assert coeffs_of(moments_of(g)) == g
    x = Poly.variable("x")
    assert moments_of(coeffs_of((F(1), x, x * x))) == (1, x, x * x)
    # The bridge carries the Cauchy product to the binomial convolution.
    assert moments_of(cmul(coeffs_of(exp_series(4)), coeffs_of(exp_series(4)))) == (1, 2, 4, 8, 16)


def test_mul_examples():
    e = exp_series(4)
    assert egf_mul(e, e) == (1, 2, 4, 8, 16)
    chi = (F(1), F(1), F(0), F(0), F(0))
    assert egf_mul(chi, chi) == (1, 2, 2, 0, 0)
    assert egf_mul(e, one(4)) == e


def test_mul_order_mismatch_is_an_error():
    with pytest.raises(OrderMismatchError):
        egf_mul(exp_series(4), exp_series(5))
    assert egf_mul(exp_series(4), exp_series(5)[:5]) == egf_mul(exp_series(4), exp_series(4))


def test_reciprocal_examples():
    e = exp_series(5)
    assert egf_reciprocal(e) == (1, -1, 1, -1, 1, -1)
    chi = (F(1), F(1), F(0), F(0), F(0))
    assert egf_reciprocal(chi) == tuple(F((-1) ** n) * factorial(n) for n in range(5))
    assert egf_mul(chi, egf_reciprocal(chi)) == one(4)
    # t/(e^t - 1) times its reciprocal
    bern = tuple(bernoulli_numbers(8))
    assert egf_mul(bern, egf_reciprocal(bern)) == one(8)
    with pytest.raises(SingularSeriesError):
        egf_reciprocal((F(0), F(1)))


def test_compose_examples():
    chi_minus_one = identity(4)  # f(chi) - 1 = t
    e = exp_series(4)
    assert egf_compose(e, chi_minus_one) == e
    expm1 = (F(0),) + (F(1),) * 4
    assert egf_compose(e, expm1) == (1, 1, 2, 5, 15)  # the Bell numbers
    zero = (F(0),) * 5
    assert egf_compose((F(1), F(2), F(3), F(4), F(5)), zero) == one(4)
    with pytest.raises(ValueError):
        egf_compose(e, one(4))


def polys_over(scalars):
    return st.builds(lambda c, cx, cy: Poly({(0, 0): c, (1, 0): cx, (0, 1): cy}), scalars, scalars, scalars)


small_polys = polys_over(fractions)
# Scalars, polynomials in x, y, and plenty of zeros (to exercise the sparse paths).
coefficients = st.one_of(st.just(F(0)), fractions, small_polys)
nonzero_scalars = fractions.filter(lambda c: c != 0)

# The kernel splits each operand into integer numerators over its least common
# denominator D.  Numerators to about 10^6 over pairwise coprime (prime)
# denominators below 10^3 make D a product of several primes, so the powers of
# D and of the leading term that the recurrences fold in are large; integral
# tuples have D = 1.
PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1))]
wide_fractions = st.builds(F, st.integers(-(10**6), 10**6), st.sampled_from([1] + PRIMES))
integers = st.integers(-9, 9).map(F)
# Moments drawn from a few values and their negatives, Fractions and Polys in x
# and y mixed in one tuple, so that the kernel's sums cancel to constants or to
# zero (the inner series of a composition included).
Y = Poly.variable("y")
CANCELLING = [F(1), F(1, 2), X, X - 1, Y - X, X * Y / 3, (X + Y) / 2, X * X - F(1, 4)]
cancelling = st.sampled_from([F(0), *CANCELLING, *(-c for c in CANCELLING)])
FAMILIES = {
    "small": (coefficients, nonzero_scalars),
    "wide": (st.one_of(st.just(F(0)), wide_fractions, polys_over(wide_fractions)), wide_fractions.filter(bool)),
    "integral": (st.one_of(st.just(F(0)), integers, polys_over(integers)), integers.filter(bool)),
    "cancelling": (cancelling, st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2)])),
}
families = st.sampled_from(sorted(FAMILIES)).map(FAMILIES.__getitem__)


def normal(moments, *inputs):
    """Assert every entry is a reduced Fraction or a non-constant Poly in
    lowest terms with Fraction coefficients, as the kernel must return, and
    only Fractions when the given input series hold no Poly; pass the tuple on."""
    rational = inputs and not any(isinstance(v, Poly) for f in inputs for v in f)
    for v in moments:
        if isinstance(v, Poly):
            assert not rational and v.as_fraction() is None
            assert all(v._num.values()) and gcd(v._den, *v._num.values()) == 1
            assert all(type(c) is F for _, c in v.items())
        else:
            assert type(v) is F
    return moments


def invertible_series(max_order, tail=coefficients, lead=nonzero_scalars):
    """Random h of order 1..max_order with h(0) = 0 and a nonzero scalar h'(0)."""
    return st.integers(min_value=1, max_value=max_order).flatmap(
        lambda n: st.builds(
            lambda c1, rest: tuple([F(0), c1] + rest),
            lead,
            st.lists(tail, min_size=n - 1, max_size=n - 1),
        )
    )


APPELL_B = [F(1), F(1, 2), F(-1, 3), F(2), F(0), F(5, 7), F(-1)]


@settings(max_examples=60)
@given(
    st.tuples(families, families, st.integers(min_value=0, max_value=8)).flatmap(
        lambda fam: st.tuples(
            st.lists(fam[0][0], min_size=fam[2] + 1, max_size=fam[2] + 1),
            st.lists(fam[1][0], min_size=fam[2], max_size=fam[2]),
        )
    )
)
@example(([sum((comb(n, k) * b * X**k for k, b in enumerate(APPELL_B[n::-1])), F(0)) for n in range(7)],
          [F(3, 2), F(-1, 3), F(1, 5), F(0), F(2), F(-1, 7)]))
@example(([X**k for k in range(9)], [F(2, 3), F(1), F(-1, 2), F(0), F(5, 3), F(1, 4), F(-2), F(7)]))
@example(([(X + Y + F(1, 3)) ** k for k in range(7)], [F(-1, 2), F(3), F(0), F(1, 6), F(-4, 5), F(2)]))
@example(([F(1), X + Y, X - Y, X, F(0)], [F(1), F(-1), F(1, 2), F(0)]))
@example(([F(0), X, X, F(0), X * Y], [F(1), F(-1), F(0), F(0)]))
@example(([(X - Y / 2 + F(2, 5)) ** k for k in range(9)], moments_of(clog(coeffs_of(bernoulli_numbers(8))))[1:]))
@example(([F(1), X * Y, Y - X / 3, F(0), X * X + Y / 7, F(-5, 4), (X + Y) ** 2, X * Y * Y],
          [F(3, 7), F(-5, 11), F(2, 13), F(1, 17), F(-4, 19), F(6, 23), F(1, 29)]))
@example(([F(1), X + 1, Y / 2 - 2, 3 * X, F(1, 5)], [F(2), F(-1, 3), F(0), F(5, 2)]))
def test_compose_matches_horner_oracle(fh):
    """Outer and inner series each from its own family, so D_f and D_h differ.
    The examples compose Poly outers (dense Appell rows, sparse x^k, powers of
    x + y + c, and rows whose monomials cancel, some to zero) over rational
    inner series, two of them with a wide common denominator (the log of the
    Bernoulli umbra, and coprime prime denominators) under outers in x and y.
    The last has monomials whose runs of coefficients have interior zeros:
    x is in f_1 and f_3 but not f_2, and 1 in f_1, f_2 and f_4 but not f_3."""
    f_moments, h_tail = fh
    f, h = tuple(f_moments), (F(0),) + tuple(h_tail)
    assert normal(egf_compose(f, h)) == moments_of(horner_compose(coeffs_of(f), coeffs_of(h)))


@pytest.mark.parametrize("h", [
    (F(0), F(2, 3), F(-1), F(5, 2), F(0), F(1, 7), F(3), F(-4, 9)),
    (F(0), F(1, 2), 1 + Y, F(-2), 2 * Y - F(1, 3), F(0), Y / 5),
    (F(0), F(-3, 4), F(1, 5), F(0), F(-2, 3), F(7), F(1, 9)),
], ids=["rational", "in-y", "negative-lead"])
def test_bell_columns_match_partition_sums(h):
    """Column k of the fraction-free Bell table of h = H / D holds
    B_(i,k)(H) = D^k B_(i,k)(h), zero above row k; a table cut at column
    ``top`` is the first top + 1 columns.  A Bell table (columns, E, polys)
    has row i over E^min(i, top): each entry of ``_bell_table(h, top)`` for
    top 0, 1, 3 and N, over that power of E, is the partition sum
    B_(i,k)(h), and each entry of ``egf_revert_table(h)`` over E^i is B_(i,k)
    of the reversion the oracle solves."""
    nums, d, polys = series._split(h)
    n = len(h) - 1
    columns = series._bell_columns(nums, n, polys)
    assert len(columns) == n + 1
    assert columns[0] == [1] + [0] * n
    for k in range(1, n + 1):
        assert columns[k][:k] == [0] * k
        assert columns[k][k:] == [collapse(bell_partial(i, k, h[1:]) * d**k) for i in range(k, n + 1)]
    assert series._bell_columns(nums, 3, polys) == columns[:4]
    r = moments_of(recompose_revert(coeffs_of(h)))
    tables = [(series._bell_table(h, top), h) for top in (0, 1, 3, n)] + [(series.egf_revert_table(h), r)]
    for (table, e, flag), g in tables:
        top = len(table) - 1
        assert flag == polys and table[0] == [1] + [0] * n
        for k in range(1, top + 1):
            values = [collapse(w * F(1, e ** min(i, top))) for i, w in enumerate(table[k])]
            assert values == [0] * k + [bell_partial(i, k, g[1:]) for i in range(k, n + 1)]


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(families, st.integers(min_value=0, max_value=12)).flatmap(
        lambda fam: st.tuples(
            *(st.lists(fam[0][0], min_size=fam[1], max_size=fam[1]) for _ in range(3)),
            fam[0][1],
            st.one_of(fractions, small_polys),
        )
    )
)
@example(([F(1, 2), X], [F(3), F(-1, 5)], [F(2, 7), F(1)], F(-7, 3), F(1, 2)))
@example(([X / 3, F(5)], [F(1, 4), X + 1], [F(-1, 3), F(2, 9)], F(-5, 2), X))
def test_kernel_matches_coefficient_form(data):
    """Every kernel op equals its plain coefficient-form computation through
    the n! bridge, on moment tuples of order 0-12 from one family: small
    Fractions and Polys, wide numerators over coprime denominators (mixed
    Fraction/Poly tuples), integral tuples (D = 1), or values and their
    negatives whose sums cancel.  The leading scalar is the constant term of
    the reciprocal and the linear term of the reversion (negative and
    non-unit in the explicit examples).  Every output is a reduced Fraction
    or a collapsed Poly in lowest terms, and only Fractions for rational
    inputs."""
    a, b, c, c0, e = data
    f, g = (c0, *a), (F(1), *b)  # any scalar constant term; constant term 1
    h = (F(0), *c)
    cf, cg, ch = coeffs_of(f), coeffs_of(g), coeffs_of(h)
    assert normal(egf_mul(f, g), f, g) == moments_of(cmul(cf, cg))
    assert normal(egf_reciprocal(f), f) == moments_of(creciprocal(cf))
    assert normal(egf_log(g), g) == moments_of(clog(cg))
    assert normal(egf_exp(h), h) == moments_of(cexp(ch))
    assert normal(egf_power(g, e), g, (e,)) == moments_of(cpower(cg, e))
    assert normal(egf_compose(g, h), g, h) == moments_of(horner_compose(cg, ch))
    if len(h) > 1:
        hr = (F(0), c0, *c[1:])  # a nonzero scalar linear term
        assert normal(egf_revert(hr), hr) == moments_of(recompose_revert(coeffs_of(hr)))


def test_revert_examples():
    assert egf_revert(identity(6)) == identity(6)
    expm1 = (F(0),) + (F(1),) * 4
    assert egf_revert(expm1) == (0, 1, -1, 2, -6)  # log(1 + t)
    # t e^t has moments n and reverts to sum (-n)^(n-1) t^n / n!
    te_t = tuple(F(n) for n in range(6))
    assert egf_revert(te_t) == (0, 1, -2, 9, -64, 625)
    with pytest.raises(NonInvertibleError):
        egf_revert((F(0), F(0), F(1)))
    with pytest.raises(NonInvertibleError):
        egf_revert((F(1), F(1)))


@settings(max_examples=20, deadline=None)
@given(
    st.one_of(
        invertible_series(16, fractions),
        invertible_series(16, wide_fractions, st.sampled_from([F(-5, 2), F(3, 7)]) | wide_fractions.filter(bool)),
    )
)
def test_revert_matches_recompose_oracle(h):
    """Scalar series to order 16, past the orders the kernel property draws,
    small or wide over coprime denominators, with non-unit linear terms."""
    assert normal(egf_revert(h)) == moments_of(recompose_revert(coeffs_of(h)))


def bernoulli_tail(n):
    """f(bern, t) - 1 = t/(e^t - 1) - 1 to order n, with h_1 = -1/2."""
    return (F(0), *bernoulli_numbers(n)[1:])


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        invertible_series(12, fractions),
        invertible_series(12, wide_fractions, st.sampled_from([F(-5, 2), F(3, 7)]) | wide_fractions.filter(bool)),
        invertible_series(12, st.one_of(st.just(F(0)), polys_over(integers), small_polys), nonzero_scalars),
    )
)
@example(bernoulli_tail(24))
@example(bernoulli_tail(40))
@example(egf_log(bernoulli_numbers(24)))
@example(egf_log(bernoulli_numbers(40)))
def test_revert_table_is_the_bell_table_of_the_reversion(h):
    """The table the reversion loop builds is the Bell table of the reversion
    the oracle solves coefficient by coefficient, compared by value: each
    entry over E^i is B_(i,k)(r), which for the oracle's r = R / D is
    ``_bell_columns`` of R over D^k, and the table holds a Poly exactly when
    r does.  Orders 1-12 on small scalars (fractional and negative h_1), wide
    numerators over coprime denominators and moments in x and y; f(bern, t)
    - 1 and log f(bern, t), whose Bernoulli denominators are wide, at orders
    24 and 40."""
    r = moments_of(recompose_revert(coeffs_of(h)))
    nums, d, polys = series._split(r)
    columns, e, flag = series.egf_revert_table(h)
    assert flag == polys
    expected = series._bell_columns(nums, len(h) - 1, polys)
    assert [[collapse(w * F(1, e**i)) for i, w in enumerate(column)] for column in columns] == [
        [collapse(w * F(1, d**k)) for w in column] for k, column in enumerate(expected)
    ]


@pytest.mark.parametrize("h", [
    (F(0), F(2, 3), F(-1), F(5, 2), F(0), F(1, 7), F(3)),
    (F(0), F(1, 2), 1 + Y, F(-2), 2 * Y - F(1, 3), F(0), Y / 5),
    (F(0), F(-3, 4), F(1, 5), F(0), F(-2, 3), F(7), F(1, 9)),
], ids=["rational", "in-y", "negative-lead"])
@pytest.mark.parametrize("b", [
    (F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(3, 4), F(2)),
    (F(1), Y, F(3), F(0), F(2, 7), Y / 3 - 1, F(5)),
], ids=["scalar", "in-y"])
def test_folds_over_a_whole_table_match_horner(h, b):
    """Over the whole table of h (``egf_bell_table``) or of its reversion r
    (``egf_revert_table``), ``egf_appell_over(b)`` is f(b + x.u, h) and
    ``egf_exp_x_over(b)`` is f(b, t) e^{x h}, each by Horner's rule on the
    coefficients; a series of another order is refused."""
    n = len(h) - 1
    r = moments_of(recompose_revert(coeffs_of(h)))
    shifted = [collapse(sum(comb(m, j) * b[m - j] * X**j for j in range(m + 1))) for m in range(n + 1)]
    exp_x = [X**m for m in range(n + 1)]
    for table, g in [(series.egf_bell_table(h), h), (series.egf_revert_table(h), r)]:
        assert series.egf_appell_over(b, table) == moments_of(horner_compose(coeffs_of(shifted), coeffs_of(g)))
        expected = cmul(coeffs_of(b), horner_compose(coeffs_of(exp_x), coeffs_of(g)))
        assert list(map(collapse, series.egf_exp_x_over(b, table))) == list(moments_of(expected))
        for fold in (series.egf_appell_over, series.egf_exp_x_over):
            with pytest.raises(OrderMismatchError):
                fold(b[:-1], table)


def fixed_series(n, lead=F(-3, 2), poly=False):
    """h of order n with a negative non-unit h_1 and mixed-sign moments over
    denominators 2-4; with ``poly``, moments in x and y too, some of them zero."""
    tail = [F((-1) ** d * (d % 5 + 1), d % 3 + 2) for d in range(2, n + 1)]
    if poly:
        tail = [c + (X if d % 3 == 0 else Y / 2 if d % 3 == 1 else 0) for d, c in enumerate(tail) if d % 4 != 2]
        tail += [F(0)] * (n - 1 - len(tail))
    return (F(0), lead, *tail)


def with_fixed_examples(test):
    """``fixed_series`` at orders 1-37; a wide-numerator and a polynomial
    series at a few of them."""
    for n in (1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26, 35, 36, 37):
        test = example(h=fixed_series(n))(test)
    for n in (4, 5, 9, 10):
        test = example(h=fixed_series(n, lead=F(2, 3), poly=True))(test)
    for n in (16, 17):
        test = example(h=fixed_series(n, lead=F(-999_983, 997)))(test)
    return test


@settings(max_examples=25, deadline=None)
@given(
    h=st.one_of(
        st.just((F(0),)),
        invertible_series(40, fractions),
        invertible_series(40, wide_fractions, st.sampled_from([F(-5, 2), F(3, 7)]) | wide_fractions.filter(bool)),
        invertible_series(12, st.one_of(st.just(F(0)), polys_over(integers), small_polys), nonzero_scalars),
    )
)
@with_fixed_examples
def test_revert_matches_lagrange_by_powers(h):
    """Solving h(r) = t through the Bell values of r gives the reversion the
    Lagrange formula gives, moment m of r as moment m - 1 of (t/h)^m with one
    power of t/h after another, at orders 0-40 on small and wide scalars, and
    to order 12 on moments in x and y; order 0 has no reversion."""
    if len(h) == 1:
        with pytest.raises(NonInvertibleError):
            egf_revert(h)
        return
    assert normal(egf_revert(h), h) == lagrange_revert_by_powers(h)


def test_revert_of_sparse_series():
    """t + t^2/2 (moments 0, 1, 1, 0, ...) reverts to sqrt(1 + 2t) - 1, whose
    moments are the signed double factorials; t reverts to itself."""
    assert egf_revert((F(0), F(1), F(1)) + (F(0),) * 5) == (0, 1, -1, 3, -15, 105, -945, 10395)
    assert egf_revert(identity(9)) == identity(9)
    assert egf_revert((F(0), F(-2)) + (F(0),) * 6) == (0, F(-1, 2)) + (0,) * 6


def test_sparse_moments_on_dense_int_rows():
    """chi (1 + t) and eps (1) have mostly zero moments, which the int paths
    keep in their rows; x(1 + t) takes the Poly paths."""
    chi, eps = (F(1), F(1)) + (F(0),) * 5, (F(1),) + (F(0),) * 6
    assert egf_mul(chi, chi) == (1, 2, 2, 0, 0, 0, 0)
    assert egf_mul(eps, chi) == chi
    assert egf_reciprocal(chi) == tuple((-1) ** n * factorial(n) for n in range(7))
    assert egf_reciprocal(eps) == eps
    assert egf_log(chi) == (0, 1, -1, 2, -6, 24, -120)  # log(1 + t)
    assert egf_log(eps) == (0,) * 7
    assert egf_exp(identity(6)) == (1,) * 7
    assert egf_exp((F(0),) * 7) == eps
    assert egf_compose(chi, identity(6)) == chi
    assert egf_compose(exp_series(6), (F(0),) * 7) == eps
    assert egf_compose(exp_series(6), (F(0), F(0), F(2)) + (F(0),) * 4) == (1, 0, 2, 0, 12, 0, 120)  # e^(t^2)
    x_chi = (F(1), X) + (F(0),) * 5
    assert egf_reciprocal(x_chi) == tuple(collapse((-X) ** n * factorial(n)) for n in range(7))
    assert egf_mul(x_chi, chi) == (1, X + 1, 2 * X, 0, 0, 0, 0)


def test_rational_ops_never_sum_polys(monkeypatch):
    """All-rational operands keep every op on the int sums."""

    def refuse(pairs):
        raise AssertionError("poly._sum_products called on rational operands")

    monkeypatch.setattr(series, "_sum_products", refuse)
    f = (F(1), F(-1, 2), F(0), F(3, 7), F(2), F(0), F(-5, 3))
    h = (F(0), F(2, 3), F(1, 4), F(0), F(-1), F(5, 2), F(1, 6))
    egf_mul(f, h)
    egf_reciprocal(f)
    egf_compose(f, h)
    egf_revert(h)
    egf_log(f)
    egf_exp(h)
    egf_power(f, F(-3, 2))
    egf_revert(fixed_series(26))


@settings(max_examples=30)
@given(invertible_series(8, fractions))
def test_revert_is_two_sided_inverse(h):
    r = egf_revert(h)
    assert egf_compose(h, r) == identity(len(h) - 1)
    assert egf_compose(r, h) == identity(len(h) - 1)


def test_revert_two_sided_inverse_order_16():
    h = tuple([F(0), F(2, 3)] + [F((-1) ** n, n + 1) for n in range(15)])
    r = egf_revert(h)
    assert egf_compose(h, r) == identity(16)
    assert egf_compose(r, h) == identity(16)


@settings(max_examples=30)
@given(
    st.lists(fractions, min_size=7, max_size=7),
    st.lists(fractions, min_size=7, max_size=7),
    st.lists(fractions, min_size=7, max_size=7),
)
def test_mul_commutative_associative(a, b, c):
    f, g, h = (F(1), *a), (F(1), *b), (F(1), *c)
    assert egf_mul(f, g) == egf_mul(g, f)
    assert egf_mul(egf_mul(f, g), h) == egf_mul(f, egf_mul(g, h))


def test_log_exp_power_examples():
    e = exp_series(5)
    assert egf_log(e) == identity(5)
    assert egf_power(e, F(1, 2)) == tuple(F(1, 2) ** n for n in range(6))
    one_plus_t = (F(1), F(1), F(0), F(0))
    assert egf_exp(egf_log(one_plus_t)) == one_plus_t
    # The cumulants of the Bell numbers are all 1.
    assert egf_log(egf_compose(e, (F(0),) + (F(1),) * 5)) == (0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        egf_log((F(2), F(1)))
    with pytest.raises(ValueError):
        egf_exp((F(1), F(1)))


@settings(max_examples=25)
@given(st.lists(fractions, min_size=6, max_size=6), st.integers(min_value=-3, max_value=3))
def test_power_matches_repeated_mul(tail, m):
    f = (F(1), *tail)
    expected = one(6)
    base = f if m >= 0 else egf_reciprocal(f)
    for _ in range(abs(m)):
        expected = egf_mul(expected, base)
    assert egf_power(f, m) == expected


@settings(max_examples=20)
@given(st.lists(fractions, min_size=10, max_size=10), st.integers(min_value=0, max_value=5))
def test_integer_power_moments_match_bell_sums(tail, n):
    """Moments of f^n agree with the falling-factorial Bell-polynomial sums."""
    a = (F(1), *tail)
    powered = egf_power(a, n)
    for i in range(1, 11):
        expected = sum(
            (falling_factorial(n, j) * bell_partial(i, j, a[1:]) for j in range(1, i + 1)), F(0)
        )
        assert powered[i] == expected


def test_truncated_guard():
    """Operands truncated at different orders, or at no order, are refused."""
    with pytest.raises(OrderMismatchError):
        egf_compose(exp_series(3), identity(5))
    with pytest.raises(ValueError):
        egf_log(())
