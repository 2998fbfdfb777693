from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralcalc.combinatorics import bell_partial, falling_factorial
from umbralcalc.errors import NonInvertibleError, OrderMismatchError, SingularSeriesError
from umbralcalc.poly import Poly
from umbralcalc.series import (
    TruncatedEGF,
    egf_compose,
    egf_exp,
    egf_from_moments,
    egf_identity,
    egf_log,
    egf_mul,
    egf_one,
    egf_power,
    egf_reciprocal,
    egf_revert,
    moments_from_egf,
    truncated,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def exp_series(order):
    return egf_from_moments([1] * (order + 1))


def test_moment_coefficient_bridge():
    f = egf_from_moments([1, 1, 1, 1])
    assert f.coeffs == (1, 1, F(1, 2), F(1, 6))
    chi = egf_from_moments([1, 1, 0, 0])
    assert chi.coeffs == (1, 1, 0, 0)
    g = TruncatedEGF((1, F(-1, 2), F(1, 6), 0))
    assert egf_from_moments(moments_from_egf(g)) == g


def test_mul_examples():
    e = exp_series(4)
    assert moments_from_egf(egf_mul(e, e)) == [1, 2, 4, 8, 16]
    chi = egf_from_moments([1, 1, 0, 0, 0])
    assert moments_from_egf(egf_mul(chi, chi)) == [1, 2, 2, 0, 0]
    assert egf_mul(e, egf_one(4)) == e


def test_mul_order_mismatch_is_an_error():
    with pytest.raises(OrderMismatchError):
        egf_mul(exp_series(4), exp_series(5))
    assert egf_mul(exp_series(4), truncated(exp_series(5), 4)) == egf_mul(exp_series(4), exp_series(4))


def test_reciprocal_examples():
    e = exp_series(5)
    assert moments_from_egf(egf_reciprocal(e)) == [1, -1, 1, -1, 1, -1]
    chi = egf_from_moments([1, 1, 0, 0, 0])
    assert moments_from_egf(egf_reciprocal(chi)) == [
        F((-1) ** n) * factorial(n) for n in range(5)
    ]
    assert egf_mul(chi, egf_reciprocal(chi)) == egf_one(4)
    # t/(e^t - 1) times its reciprocal
    from umbralcalc.combinatorics import bernoulli_numbers

    bern = egf_from_moments(bernoulli_numbers(8))
    assert egf_mul(bern, egf_reciprocal(bern)) == egf_one(8)
    with pytest.raises(SingularSeriesError):
        egf_reciprocal(TruncatedEGF((0, 1)))


def test_compose_examples():
    chi_minus_one = TruncatedEGF((0, 1, 0, 0, 0))  # f(chi) - 1 = t
    e = exp_series(4)
    assert egf_compose(e, chi_minus_one) == e
    expm1 = TruncatedEGF((0, 1, F(1, 2), F(1, 6), F(1, 24)))
    bell = egf_compose(e, expm1)
    assert moments_from_egf(bell) == [1, 1, 2, 5, 15]
    zero = TruncatedEGF((0,) * 5)
    assert egf_compose(egf_from_moments([1, 2, 3, 4, 5]), zero) == egf_one(4)
    with pytest.raises(ValueError):
        egf_compose(e, egf_one(4))


def horner_compose(f: TruncatedEGF, h: TruncatedEGF) -> TruncatedEGF:
    """Composition oracle: Horner's rule f(h) = f_0 + h (f_1 + h (f_2 + ...))."""
    n = f.order
    result = TruncatedEGF((f.coeffs[n],) + (F(0),) * n)
    for k in range(n - 1, -1, -1):
        result = egf_mul(result, h)
        result = TruncatedEGF((result.coeffs[0] + f.coeffs[k],) + result.coeffs[1:])
    return result


def recompose_revert(h: TruncatedEGF) -> TruncatedEGF:
    """Reversion oracle: solve h(r) = t coefficient by coefficient.

    The unknown r_m enters the t^m coefficient of h(r) linearly with factor
    h_1, and coefficients above t^m cannot influence it, so each step
    recomposes mod t^(m+1).
    """
    n = h.order
    r = [F(0)] * (n + 1)
    r[1] = F(1) / h.coeffs[1]
    for m in range(2, n + 1):
        err = egf_compose(truncated(h, m), TruncatedEGF(tuple(r[: m + 1]))).coeffs[m]
        r[m] = -err / h.coeffs[1]
    return TruncatedEGF(tuple(r))


small_polys = st.builds(
    lambda c, cx, cy: Poly({(0, 0): c, (1, 0): cx, (0, 1): cy}), fractions, fractions, fractions
)
# Scalars, polynomials in x, y, and plenty of zeros (to exercise the sparse paths).
coefficients = st.one_of(st.just(F(0)), fractions, small_polys)


def invertible_series(max_order, tail=coefficients):
    """Random h of order 1..max_order with h(0) = 0 and a nonzero scalar h'(0)."""
    return st.integers(min_value=1, max_value=max_order).flatmap(
        lambda n: st.builds(
            lambda c1, rest: TruncatedEGF(tuple([F(0), c1] + rest)),
            fractions.filter(lambda c: c != 0),
            st.lists(tail, min_size=n - 1, max_size=n - 1),
        )
    )


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(coefficients, min_size=n + 1, max_size=n + 1),
            st.lists(coefficients, min_size=n, max_size=n),
        )
    )
)
def test_compose_matches_horner_oracle(fh):
    f_coeffs, h_tail = fh
    f = TruncatedEGF(tuple(f_coeffs))
    h = TruncatedEGF((F(0),) + tuple(h_tail))
    assert egf_compose(f, h) == horner_compose(f, h)


def test_revert_examples():
    assert egf_revert(egf_identity(6)) == egf_identity(6)
    expm1 = TruncatedEGF((0, 1, F(1, 2), F(1, 6), F(1, 24)))
    assert moments_from_egf(egf_revert(expm1)) == [0, 1, -1, 2, -6]
    # t e^t reverts to sum (-n)^(n-1) t^n / n!
    te_t = TruncatedEGF(tuple([0] + [F(1, factorial(n - 1)) for n in range(1, 6)]))
    assert moments_from_egf(egf_revert(te_t)) == [0, 1, -2, 9, -64, 625]
    with pytest.raises(NonInvertibleError):
        egf_revert(TruncatedEGF((0, 0, 1)))
    with pytest.raises(NonInvertibleError):
        egf_revert(TruncatedEGF((1, 1)))


@settings(max_examples=40, deadline=None)
@given(invertible_series(12))
def test_revert_matches_recompose_oracle(h):
    assert egf_revert(h) == recompose_revert(h)


@settings(max_examples=30)
@given(invertible_series(8, fractions))
def test_revert_is_two_sided_inverse(h):
    r = egf_revert(h)
    assert egf_compose(h, r) == egf_identity(h.order)
    assert egf_compose(r, h) == egf_identity(h.order)


def test_revert_two_sided_inverse_order_16():
    h = TruncatedEGF(tuple([F(0), F(2, 3)] + [F((-1) ** n, n + 1) for n in range(15)]))
    r = egf_revert(h)
    assert egf_compose(h, r) == egf_identity(16)
    assert egf_compose(r, h) == egf_identity(16)


@settings(max_examples=30)
@given(
    st.lists(fractions, min_size=7, max_size=7),
    st.lists(fractions, min_size=7, max_size=7),
    st.lists(fractions, min_size=7, max_size=7),
)
def test_mul_commutative_associative(a, b, c):
    f = TruncatedEGF(tuple([F(1)] + a))
    g = TruncatedEGF(tuple([F(1)] + b))
    h = TruncatedEGF(tuple([F(1)] + c))
    assert egf_mul(f, g) == egf_mul(g, f)
    assert egf_mul(egf_mul(f, g), h) == egf_mul(f, egf_mul(g, h))


def test_log_exp_power_examples():
    e = exp_series(5)
    assert egf_log(e) == egf_identity(5)
    assert moments_from_egf(egf_power(e, F(1, 2))) == [F(1, 2) ** n for n in range(6)]
    one_plus_t = TruncatedEGF((1, 1, 0, 0))
    assert egf_exp(egf_log(one_plus_t)) == one_plus_t
    with pytest.raises(ValueError):
        egf_log(TruncatedEGF((2, 1)))
    with pytest.raises(ValueError):
        egf_exp(TruncatedEGF((1, 1)))


@settings(max_examples=25)
@given(st.lists(fractions, min_size=6, max_size=6), st.integers(min_value=-3, max_value=3))
def test_power_matches_repeated_mul(tail, m):
    f = TruncatedEGF(tuple([F(1)] + tail))
    expected = egf_one(6)
    base = f if m >= 0 else egf_reciprocal(f)
    for _ in range(abs(m)):
        expected = egf_mul(expected, base)
    assert egf_power(f, m) == expected


@settings(max_examples=20)
@given(st.lists(fractions, min_size=10, max_size=10), st.integers(min_value=0, max_value=5))
def test_integer_power_moments_match_bell_sums(tail, n):
    """Moments of f^n agree with the falling-factorial Bell-polynomial sums."""
    f = TruncatedEGF(tuple([F(1)] + tail))
    a = moments_from_egf(f)
    powered = moments_from_egf(egf_power(f, n))
    for i in range(1, 11):
        expected = sum(
            (falling_factorial(n, j) * bell_partial(i, j, a[1:]) for j in range(1, i + 1)), F(0)
        )
        assert powered[i] == expected


def test_truncated_guard():
    with pytest.raises(OrderMismatchError):
        truncated(exp_series(3), 5)
