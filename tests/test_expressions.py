from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from umbralcalc.errors import OrderCapError, OrderMismatchError, UnknownUmbraError
from umbralcalc.expressions import (
    OPERATIONS,
    Atom,
    Call,
    Const,
    Dot,
    DotPower,
    Fresh,
    Indet,
    Power,
    ScalarMul,
    Sum,
    default_environment,
    evaluate,
)
from umbralcalc import umbra
from umbralcalc.parser import parse, pretty_print
from umbralcalc.poly import Poly, X, Y
from umbralcalc.umbra import (
    BUILTIN_UMBRAE,
    Umbra,
    adjoint,
    augmentation,
    bell_umbra,
    bernoulli_umbra,
    comp_inverse,
    derivative_umbra,
    disjoint_diff,
    disjoint_sum,
    dot,
    dot_power,
    inverse_dot,
    overbar_umbra,
    singleton,
    ubar_umbra,
    unity,
)

from oracles import expectation


def test_atom_lookup():
    assert evaluate(Atom("u"), 3).moments == (1, 1, 1, 1)
    assert evaluate(Atom("bell"), 4) == bell_umbra(4)
    with pytest.raises(UnknownUmbraError):
        evaluate(Atom("nope"), 2)


def test_an_atom_evaluates_to_its_own_umbra():
    # So a dot on it reaches what that umbra remembers.
    for n in (0, 5, 64):
        assert evaluate(parse("bell"), n) is bell_umbra(n)
        assert evaluate(parse("bern'"), n) is bernoulli_umbra(n)
    z = Umbra([1, 1, 2, 5])
    assert evaluate(parse("z"), 3, {"z": z}) is z
    assert evaluate(parse("z"), 2, {"z": z}) == Umbra([1, 1, 2])


def test_correlated_monomial_expansion():
    # w = -3.u has moments (-3)^n.  With one label, (chi + chi + w)^2 is
    # (2 chi + w)^2: 4 chi_2 + 4 chi_1 w_1 + w_2 = 0 - 12 + 9.  With chi' apart,
    # the cross term 2 chi_1 chi'_1 = 2 replaces 2 chi_2 = 0, and each of chi
    # and chi' meets w once: 9 + 2 - 6 - 6.
    w = Call("inv", (Dot(Const(F(3)), Atom("u")),))
    same = Power(Sum(Sum(Atom("chi"), Atom("chi")), w), 2)
    assert expectation(same) == -3
    split = Power(Sum(Sum(Atom("chi"), Atom("chi", primes=1)), w), 2)
    assert expectation(split) == -1


def test_distinct_labels_convolve():
    s = Sum(Atom("bell"), Atom("bell", primes=1))
    assert evaluate(s, 3).moment(2) == 6
    assert evaluate(s, 3) == dot(2, bell_umbra(3))
    # same-label sum doubles the umbra instead
    t = Sum(Atom("chi"), Atom("chi"))
    assert evaluate(t, 4).moments == (1, 2, 0, 0, 0)


def test_equal_label_powers_merge():
    # E[(chi + chi)^n] = 2^n chi_n, but E[(chi + chi')^n] = sum C(n,k) chi_k chi'_{n-k}
    for n, same, split in [(1, 2, 2), (2, 0, 2), (3, 0, 0)]:
        assert expectation(Power(Sum(Atom("chi"), Atom("chi")), n)) == same
        assert expectation(Power(Sum(Atom("chi"), Atom("chi", primes=1)), n)) == split


def test_operator_nodes_match_engine_ops():
    # Every keyword of OPERATIONS, read from the table so that one added later
    # is covered too: unary ones on bell, binary ones on (u, chi), printed
    # back as parsed, and at orders 0, 1 and 6 the umbra function at order 6
    # (bar at order 7) truncated.
    order = 6
    operands = {1: ("bell",), 2: ("u", "chi")}
    for op, (name, arity, reads) in OPERATIONS.items():
        text = f"{op}({', '.join(operands[arity])})"
        expr = parse(text)
        assert expr == Call(op, tuple(map(Atom, operands[arity])))
        assert pretty_print(expr) == text
        expected = getattr(umbra, name)(*(BUILTIN_UMBRAE[a](reads(order)) for a in operands[arity]))
        for k in (0, 1, order):
            assert evaluate(expr, k) == expected.truncated(k), (text, k)
    bell = bell_umbra(order)
    cases = [
        (Call("inv", (Atom("bell"),)), inverse_dot(bell)),
        (Call("cinv", (Atom("bell"),)), comp_inverse(bell)),
        (Call("adj", (Atom("bell"),)), adjoint(bell)),
        (Call("d", (Atom("bell"),)), derivative_umbra(bell)),
        (DotPower(Atom("bell"), 3), dot_power(bell, 3)),
        (Dot(Const(F(2)), Atom("bell")), dot(2, bell)),
        (Dot(Atom("chi"), Atom("bell")), dot(singleton(order), bell)),
        (Call("dsum", (Atom("u"), Atom("chi"))), disjoint_sum(unity(order), singleton(order))),
        (Call("ddiff", (Atom("u"), Atom("chi"))), disjoint_diff(unity(order), singleton(order))),
        (Call("bar", (Dot(Const(F(2)), Atom("u")),)), overbar_umbra(dot(2, unity(order + 1)))),
    ]
    for expr, expected in cases:
        assert evaluate(expr, order) == expected, expr


def test_keyword_operations_are_looked_up_when_run(monkeypatch):
    """A wrapper put on the umbra module after import (as a tracer does) is
    the function a keyword calls: each runs once for one call in the text."""
    calls = dict.fromkeys(("inverse_dot", "comp_inverse", "adjoint"), 0)

    def counted(name, real):
        def wrapper(a):
            calls[name] += 1
            return real(a)

        return wrapper

    for name in calls:
        monkeypatch.setattr(umbra, name, counted(name, getattr(umbra, name)))
    evaluate(parse("inv(u) + cinv(bell) + adj(chi)"), 4)
    assert calls == {"inverse_dot": 1, "comp_inverse": 1, "adjoint": 1}


def test_unknown_operation_is_not_an_expression():
    call = Call("frob", (Atom("u"),))
    with pytest.raises(TypeError):
        evaluate(call, 3)
    with pytest.raises(ValueError):
        pretty_print(call)


def test_indeterminate_dot():
    got = evaluate(Dot(Indet("x"), Call("adj", (Atom("u"),))), 3)
    assert got.moments == (1, X, X**2 - X, X**3 - 3 * X**2 + 2 * X)
    # dot with x on the right is plain scalar multiplication by x
    got = evaluate(Dot(Atom("bell"), Indet("x")), 3)
    assert got.moments == (1, X, 2 * X**2, 5 * X**3)


def test_dot_chain_composes_one_link_at_a_time(monkeypatch):
    # Grouped from the left, x . bell . y . bern composes each link into the
    # value so far: an inner series is a scalar one or y's own cumulant
    # series y t, never the Poly cumulants of y . bern.  Each link's inner
    # series is the one whose Bell table a dot builds (a builtin's may be
    # remembered from an earlier call).
    inner = []
    real = umbra.egf_bell_table
    monkeypatch.setattr(umbra, "egf_bell_table", lambda h: inner.append(h) or real(h))
    evaluate(parse("x . bell . y . bern"), 8)
    assert inner
    for h in inner:
        assert not any(isinstance(v, Poly) for v in h[2:]), h


def test_operations_read_an_order_0_operand_at_order_0():
    z = Umbra([F(1)])
    for text in ("cinv(bell)", "adj(u)", "bar(u)", "inv(z)"):
        assert evaluate(parse(text), 0, {**default_environment(), "z": z}).moments == (1,), text


def test_scalar_nodes():
    assert evaluate(Const(F(3)), 3).moments == (1, 3, 9, 27)
    assert evaluate(ScalarMul(F(-1), Atom("chi")), 3).moments == (1, -1, 0, 0)
    assert evaluate(Sum(Indet("x"), Const(F(1))), 2).moments == (1, X + 1, X**2 + 2 * X + 1)
    assert evaluate(Power(Indet("y"), 2), 2).moments == (1, Y**2, Y**4)


def test_aux_umbrae_are_uncorrelated():
    # a + inv(a) has augmentation moments because the two are independent
    for name in ("u", "bell", "bern"):
        e = Sum(Atom(name), Call("inv", (Atom(name),)))
        assert evaluate(e, 5) == augmentation(5)
    # two occurrences of the same opaque operation are independent copies
    twice = Sum(Call("inv", (Atom("chi"),)), Call("inv", (Atom("chi"),)))
    assert evaluate(twice, 3) == evaluate(Dot(Const(F(2)), Call("inv", (Atom("chi"),))), 3)


def test_fresh_copies():
    e = Sum(Fresh(Sum(Atom("u"), Atom("chi"))), Fresh(Sum(Atom("u"), Atom("chi"))))
    direct = Sum(Sum(Atom("u"), Atom("chi")), Sum(Atom("u", 1), Atom("chi", 1)))
    assert evaluate(e, 5) == evaluate(direct, 5)


def test_ubar_via_expression():
    # -1.(-chi) is the all-factorials umbra
    e = Call("inv", (ScalarMul(F(-1), Atom("chi")),))
    assert evaluate(e, 5) == ubar_umbra(5)


def test_environment_with_fixed_umbra():
    env = {"myu": Umbra([1, 1, 2, 5])}
    assert evaluate(Atom("myu"), 3, env).moments == (1, 1, 2, 5)
    with pytest.raises(OrderMismatchError):
        evaluate(Atom("myu"), 5, env)
    with pytest.raises(OrderMismatchError):
        evaluate(Power(Atom("myu"), 2), 2, env)  # needs moment 4


def test_linearity_and_product_rule_random_monomials():
    # E[c1 (chi + u)^n + c2 chi^k] = c1 sum_i C(n,i) chi_i u_{n-i} + c2 chi_k
    #                             = c1 (1 + n) + c2 [k <= 1]
    for n, k, c1, c2 in [(4, 2, F(2), F(5)), (1, 1, F(-1, 2), F(3, 7)), (0, 0, F(4), F(1))]:
        e = Sum(
            ScalarMul(c1, Power(Sum(Atom("chi"), Atom("u")), n)),
            ScalarMul(c2, Power(Atom("chi"), k)),
        )
        assert expectation(e) == c1 * (1 + n) + c2 * (1 if k <= 1 else 0)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_power_node_matches_moment_indexing(i, j):
    # E[((u + chi)^i)^j] expanded symbolically equals moment i j
    base = Sum(Atom("u"), Atom("chi"))
    e = Power(Power(base, i), j)
    assert expectation(e) == evaluate(base, i * j).moment(i * j)


def test_each_atom_is_fetched_once_at_the_order_it_needs(monkeypatch):
    """(bell . bern)^2 at order 20 needs the dot product to order 40: one call."""
    from umbralcalc import expressions

    orders = []
    real_dot = expressions.dot
    monkeypatch.setattr(expressions, "dot", lambda left, a: orders.append(a.order) or real_dot(left, a))
    got = evaluate(Power(Dot(Atom("bell"), Atom("bern")), 2), 20)
    assert orders == [40]
    prod = dot(bell_umbra(40), bernoulli_umbra(40))
    assert got.moments == tuple(prod.moment(2 * n) for n in range(21))


def test_nested_operations_read_nothing_past_the_outer_ceiling(monkeypatch):
    """Each bar reads its operand one order up, but nested evaluations keep
    the outermost ceiling, max(order, MAX_ORDER) + 1: three bars at order 64
    are refused before bell is read past 65."""
    orders = []
    monkeypatch.setitem(BUILTIN_UMBRAE, "bell", lambda n: orders.append(n) or bell_umbra(n))
    with pytest.raises(OrderCapError, match="needs order 66, past the order cap 65"):
        evaluate(parse("bar(bar(bar(bell)))"), 64)
    assert max(orders, default=0) <= 65
    assert evaluate(parse("bar(bell)"), 64) == overbar_umbra(bell_umbra(65))
    assert orders[-1] == 65


# ---------------------------------------------------------------------------
# The kernel route for linear forms against the symbolic expansion

TOP_ORDER = 12
ENV = {
    **default_environment(),
    "p": Umbra([F(1), X, F(1, 2) - Y, 2 * X**2, F(0), X * Y, F(-3), X + 1, F(2, 3), Y**2, F(1), X - Y, F(5)]),
    "q": Umbra([F(1)] + [F(k % 5 - 2, 1 + k % 3) for k in range(1, 13)]),
}

_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_atoms = st.builds(Atom, st.sampled_from(["u", "chi", "bell", "bern", "p", "q"]), st.integers(0, 1))
_indets = st.sampled_from([Indet("x"), Indet("y")])


def _times(v, a):
    """v a as ((v + a)^2 - v^2 - a^2)/2: a leaf with a polynomial coefficient."""
    square = lambda e: Power(e, 2)
    return ScalarMul(F(1, 2), Sum(Sum(square(Sum(v, a)), ScalarMul(F(-1), square(v))), ScalarMul(F(-1), square(a))))


_leaves = st.one_of(
    st.builds(Const, _coefficients.filter(bool)),
    _indets,
    _atoms,
    st.builds(_times, _indets, _atoms),
)


def _linear_form(terms):
    expr = ScalarMul(terms[0][0], terms[0][1])
    for c, leaf in terms[1:]:
        expr = Sum(expr, ScalarMul(c, leaf))
    return expr


# Up to four terms, so each expansion of L^n below stays within the budget;
# a label drawn twice is a repeated label.
linear_forms = st.lists(st.tuples(_coefficients.filter(bool), _leaves), min_size=1, max_size=4).map(_linear_form)


@settings(max_examples=100, deadline=None)
@given(linear_forms, st.integers(0, TOP_ORDER))
def test_linear_form_kernel_route_matches_expansion(form, order):
    got = evaluate(form, order, ENV)
    for n in range(order + 1):
        assert got.moment(n) == expectation(Power(form, n), ENV), n


@settings(max_examples=60, deadline=None)
@given(linear_forms, st.integers(1, 3), st.data())
def test_power_of_linear_form_reads_every_mth_moment(form, m, data):
    order = data.draw(st.integers(0, TOP_ORDER // m))
    got = evaluate(Power(form, m), order, ENV)
    for n in range(order + 1):
        assert got.moment(n) == expectation(Power(form, m * n), ENV), n


# The expansion route (nonlinear forms) against the Fraction oracle: squares
# and cubes of one leaf or a sum of two, primes, negation, rational constants,
# x and y, and atoms with polynomial moments (x . bell, y . u).
_expansion_leaves = st.one_of(
    st.builds(Atom, st.sampled_from(["u", "chi", "bell", "bern", "ubar"]), st.integers(0, 1)),
    st.builds(Const, _coefficients.filter(bool)),
    _indets,
    st.sampled_from([Dot(Indet("x"), Atom("bell")), Dot(Indet("y"), Atom("u"))]),
)


def _expansion_term(leaves, power, negate):
    base = leaves[0] if len(leaves) == 1 else Sum(*leaves)
    term = base if power == 1 else Power(base, power)
    return ScalarMul(F(-1), term) if negate else term


_expansion_terms = st.builds(_expansion_term, st.lists(_expansion_leaves, min_size=1, max_size=2),
                             st.integers(1, 3), st.booleans())


@settings(max_examples=100, deadline=None)
@given(st.builds(Atom, st.sampled_from(["bell", "bern", "chi"]), st.integers(0, 1)), st.integers(2, 3),
       st.lists(_expansion_terms, max_size=2), st.integers(0, 8))
def test_expansion_route_matches_fraction_oracle(atom, power, rest, order):
    """A draw past the expansion budget is refused by design, so it is
    rejected; any other error fails."""
    expr = Power(atom, power)
    for term in rest:
        expr = Sum(expr, term)
    try:
        got = evaluate(expr, order)
    except OrderCapError as exc:
        if "past the budget of" not in str(exc):
            raise
        reject()
    for n in range(order + 1):
        assert got.moment(n) == expectation(Power(expr, n)), n


def test_expansion_past_the_budget_is_refused():
    """A draw of the property above: refused at order 8 by the expansion
    budget, and equal to the oracle at order 7, which the budget admits."""
    expr = parse("bell ^ 2 + (x + y) ^ 3 + (x . bell + x . bell) ^ 3")
    with pytest.raises(OrderCapError, match="takes up to 102960 monomial products, past the budget of 100000"):
        evaluate(expr, 8)
    got = evaluate(expr, 7)
    for n in range(8):
        assert got.moment(n) == expectation(Power(expr, n)), n


def test_linear_forms_take_no_expansion(monkeypatch):
    """u + chi + bell + bern + x at the order cap multiplies no monomials."""
    from umbralcalc import expressions

    calls = []
    real_product = expressions._product
    monkeypatch.setattr(expressions, "_product", lambda p, q: calls.append(1) or real_product(p, q))
    evaluate(Sum(Sum(Sum(Sum(Atom("u"), Atom("chi")), Atom("bell")), Atom("bern")), Indet("x")), 64)
    assert calls == []


# ---------------------------------------------------------------------------
# Dot associativity through the evaluator, with polynomial moments

_scalars = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_links = st.one_of(
    st.sampled_from([Atom(name) for name in BUILTIN_UMBRAE] + [Indet("x"), Indet("y")]),
    st.builds(Const, _scalars),
    st.builds(lambda c: Sum(Indet("x"), Const(c)), _scalars),
)


@settings(max_examples=200, deadline=None)
@given(_links, _links, _links, st.integers(0, 10))
def test_dot_chains_associate(g1, g2, g3, order):
    # f(g.a, t) = f(g, log f(a, t)) makes the dot associative for any
    # moments, x and y among them; u, with log f(u, t) = t, is its unit.
    assert evaluate(Dot(Dot(g1, g2), g3), order) == evaluate(Dot(g1, Dot(g2, g3)), order)
    for a in (g1, g2, g3):
        alone = evaluate(a, order)
        assert evaluate(Dot(Atom("u"), a), order) == alone, a
        assert evaluate(Dot(a, Atom("u")), order) == alone, a


def _groupings(links):
    """Every bracketing of the dot chain links[0] . ... . links[-1]."""
    if len(links) == 1:
        yield links[0]
        return
    for i in range(1, len(links)):
        for left in _groupings(links[:i]):
            for right in _groupings(links[i:]):
                yield Dot(left, right)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(_links, st.builds(lambda c: Sum(Sum(Indet("x"), Indet("y")), Const(c)), _scalars)),
                min_size=2, max_size=5),
       st.integers(0, 6))
def test_longer_dot_chains_associate(links, order):
    """Chains of two to five links, x + y + c among them, give the same
    moments under every grouping (at most 14, for five links)."""
    first, *rest = (evaluate(chain, order) for chain in _groupings(links))
    assert all(other == first for other in rest)
