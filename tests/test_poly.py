from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralcalc.poly import Poly, X, Y, collapse, poly_definite_integral
from umbralcalc.rationals import format_rational

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
    assert poly_definite_integral(X + F(1, 2), "x", 0, 1) == 1


@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(max_deg=8))
def test_derivative_then_integral_is_boundary_difference(p):
    assert poly_definite_integral(p.derivative("x"), "x", 0, 1) == collapse(p(x=1) - p(x=0))


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


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        X**-1


def test_collapse():
    assert collapse(X * 0) == F(0)
    assert isinstance(collapse(Poly(3)), F)
    assert collapse(X) is X
