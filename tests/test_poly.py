import pickle
import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralcalc.poly import Poly, X, Y, _sum_products, collapse
from umbralcalc.rationals import OutputSizeError, format_rational, fraction

from oracles import FractionPoly, definite_integral

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def polys(max_deg=4):
    return st.builds(
        lambda coeffs: Poly({(i, 0): c for i, c in enumerate(coeffs)}),
        st.lists(fractions, min_size=0, max_size=max_deg + 1),
    )


def test_construction_and_scalar_interop():
    p = Poly({(2, 0): 1, (0, 0): F(1, 6), (1, 0): -1})
    assert p == X**2 - X + F(1, 6)
    assert Poly(3) == 3 == F(3)
    assert not Poly(0)
    assert (X - X) == 0
    assert hash(Poly(F(2, 3))) == hash(F(2, 3))


def test_mixed_arithmetic_directions():
    assert 1 + X == X + 1
    assert 2 * X == X * 2
    assert 1 - X == -(X - 1)
    assert (X + 1) / 2 == X / 2 + F(1, 2)


def test_negative_exponent_key_rejected():
    with pytest.raises(ValueError):
        Poly({(-1, 0): 1})


def test_degrees():
    p = X**2 * Y + X
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert Poly(0).degree_in("x") == Poly(0).degree_in("y") == -1


def test_substitution_two_vars():
    p = X**2 + Y
    assert p.substitute(x=X + Y) == X**2 + 2 * X * Y + Y**2 + Y
    assert p(x=2, y=3) == 7
    assert (X**3).substitute(x=Y) == Y**3


def _substitute_oracle(p, x=None, y=None):
    """Substitution as a per-monomial sum with each power taken by ``**``."""
    vx = X if x is None else x
    vy = Y if y is None else y
    total = Poly(0)
    for (dx, dy), c in p.items():
        total = total + c * vx**dx * vy**dy
    return total


polys_xy = st.builds(
    Poly, st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), fractions, max_size=8)
)
values = st.one_of(fractions, fractions.map(lambda c: X + c), st.just(X + Y), st.just(Y))


@settings(max_examples=80)
@given(polys_xy, st.one_of(st.none(), values), st.one_of(st.none(), values))
def test_substitute_matches_per_monomial_powers(p, x, y):
    assert p.substitute(x=x, y=y) == _substitute_oracle(p, x, y)


def test_power_rule_examples():
    assert (X**2 - X + F(1, 6)).derivative("x") == 2 * X - 1
    assert Poly(5).derivative("x") == 0
    assert definite_integral(X + F(1, 2), "x", 0, 1) == 1


@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(max_deg=8))
def test_derivative_then_integral_is_boundary_difference(p):
    assert definite_integral(p.derivative("x"), "x", 0, 1) == collapse(p(x=1) - p(x=0))


@given(polys(max_deg=6))
def test_json_map_round_trip(p):
    """The wire map keeps every nonzero coefficient, keyed by its monomial."""
    names = ["1", "x", *(f"x^{k}" for k in range(2, 7))]
    expected = {names[k]: format_rational(p.coefficient(k)) for k in range(7) if p.coefficient(k)}
    assert p.to_json_map() == expected


def test_json_map_keys():
    p = 2 * X**2 * Y - X + F(1, 2)
    assert p.to_json_map() == {"1": "1/2", "x": "-1", "x^2*y": "2"}


def test_str_descending_degree():
    assert str(X**2 - 3 * X + 1) == "x^2 - 3*x + 1"
    assert str(Poly(0)) == "0"
    assert str(-X) == "-x"
    assert str(F(5, 2) * X * Y) == "5/2*x*y"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str limit")
def test_exponent_past_digit_limit_is_not_printed():
    p = Poly({(10 ** sys.get_int_max_str_digits(), 0): 1})
    with pytest.raises(OutputSizeError):
        str(p)
    with pytest.raises(OutputSizeError):
        p.to_json_map()


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        X**-1


def test_collapse():
    assert collapse(X * 0) == F(0)
    assert isinstance(collapse(Poly(3)), F)
    assert collapse(X) is X


# Against the Fraction-per-coefficient oracle: coefficients signed, small or
# about 150 bits wide, over small, wide or power-of-two denominators, so that
# operands mix denominators; Polys dense or sparse in x and y, constant or zero.
_WIDE = 2**150
_numerators = st.one_of(st.integers(-12, 12), st.integers(-_WIDE, _WIDE))
_denominators = st.one_of(st.integers(1, 12), st.integers(1, _WIDE), st.integers(0, 150).map(lambda k: 2**k))
wide_fractions = st.builds(F, _numerators, _denominators)
wide_polys = st.one_of(
    st.just(Poly(0)),
    wide_fractions.map(Poly),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 2)), wide_fractions, max_size=6).map(Poly),
    st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)), wide_fractions, max_size=3).map(Poly),
)


def assert_canonical(p):
    """Lowest terms: a positive denominator sharing no factor with the
    numerators, no zero numerator stored, denominator 1 for zero; a constant
    equals and hashes like its Fraction."""
    num, den = p._num, p._den
    assert den > 0 and all(num.values()) and gcd(den, *num.values()) == 1
    c = p.as_fraction()
    if c is not None:
        assert p == c and hash(p) == hash(c) and (num or den == 1)


def assert_matches(p, expected):
    assert_canonical(p)
    assert dict(p.items()) == expected.coeffs
    assert str(p) == str(expected)
    assert p.to_json_map() == expected.to_json_map()


@settings(max_examples=500, deadline=None)
@given(wide_polys, wide_polys, wide_fractions, st.integers(0, 3), wide_fractions, st.sampled_from("xy"))
def test_ring_matches_fraction_oracle(p, q, s, n, point, var):
    fp, fq = FractionPoly.of(p), FractionPoly.of(q)
    assert_matches(p, fp)
    assert_matches(p + q, fp + fq)
    assert_matches(p - q, fp - fq)
    assert_matches(-p, -fp)
    assert_matches(p * q, fp * fq)
    assert_matches(p * s, fp * s)
    assert_matches(s * p, fp * s)
    assert_matches(s - p, s - fp)
    if s:
        assert_matches(p / s, fp / s)
    assert_matches(p**n, fp**n)
    assert_matches(p.substitute(**{var: point}), fp.substitute(**{var: point}))
    assert_matches(p.substitute(x=X + Y), fp.substitute(x=FractionPoly.of(X + Y)))
    assert_matches(p.derivative(var), fp.derivative(var))
    assert (p == q) == (fp == fq)
    assert p - p == 0 and hash(p + 0) == hash(p)
    assert hash(Poly(s)) == hash(s) and Poly(s) == s


# The kernel's fused multiply-accumulate: pairs of ints and Polys over
# denominator 1 (small or 150-bit numerators, terms in y), each pair possibly
# followed later by its negation; with ``cancel_all`` every pair is negated and
# one constant pair added, so the sum collapses to that constant (or to zero).
integral_polys = st.one_of(
    st.just(Poly(0)),
    _numerators.map(Poly),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 2)), _numerators, max_size=5).map(Poly),
)
factors = st.one_of(_numerators, integral_polys)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(factors, factors), max_size=6), st.lists(st.booleans(), max_size=6), st.booleans(), _numerators)
def test_sum_products_matches_fraction_oracle(pairs, negate, cancel_all, constant):
    flags = [True] * len(pairs) if cancel_all else negate
    terms = pairs + [(-w, v) for (w, v), neg in zip(pairs, flags) if neg]
    if cancel_all:
        terms.append((constant, 1))
    expected = sum((FractionPoly.of(w) * FractionPoly.of(v) for w, v in terms), FractionPoly(0))
    total = _sum_products(terms)
    assert total._den == 1
    assert_matches(total, expected)


_big_ints = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**120, 10**120),
                      st.sampled_from([0, 1, -1, 10**100 + 1, -(10**101)]))


@settings(max_examples=300)
@given(_big_ints, _big_ints.filter(bool), st.integers(-5, 5))
def test_fraction_helper_matches_fraction(num, den, k):
    """rationals.fraction(num, den) is Fraction(num, den): equal, with equal
    hash, repr, parts and pickle round trip, for negative and unit
    denominators, zero numerators and ints past 10^100 (k times a common factor too)."""
    for p, q in ((num, den), (num * den * k, den), (0, den), (num, 1), (num, -1)):
        got, want = fraction(p, q), F(p, q)
        assert type(got) is F
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        again = pickle.loads(pickle.dumps(got))
        assert again == want and type(again) is F and hash(again) == hash(want)
