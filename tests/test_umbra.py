from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralcalc.combinatorics import stirling_second_classical
from umbralcalc.errors import NonInvertibleError, OrderMismatchError
from umbralcalc.poly import Poly, X, collapse
from umbralcalc.series import egf_compose, egf_log, egf_mul, egf_power
from umbralcalc import umbra
from umbralcalc.umbra import (
    BUILTIN_UMBRAE,
    SHARED_ORDER,
    Umbra,
    _adjoint_of,
    _dot_log,
    adjoint,
    augmentation,
    bell_umbra,
    bernoulli_umbra,
    comp_inverse,
    cumulant,
    derivative_umbra,
    disjoint_diff,
    disjoint_sum,
    dot,
    dot_power,
    factorial_moments,
    factorial_umbra,
    indeterminate_umbra,
    inverse_dot,
    overbar_umbra,
    scalar_multiple,
    scalar_umbra,
    singleton,
    substitute,
    ubar_umbra,
    uinv_umbra,
    umbral_sum,
    unity,
    with_x_shift,
)

import oracles
from oracles import bell_complete, bell_partial, dot_via_partitions, falling_factorial, partition_expand

N = 10


def pool(order=N):
    return {
        "u": unity(order),
        "chi": singleton(order),
        "bell": bell_umbra(order),
        "bern": bernoulli_umbra(order),
    }


def test_unital_enforced():
    with pytest.raises(ValueError):
        Umbra([2, 1])
    with pytest.raises(ValueError):
        Umbra([])


def test_registry_moments():
    assert augmentation(4).moments == (1, 0, 0, 0, 0)
    assert unity(4).moments == (1, 1, 1, 1, 1)
    assert singleton(4).moments == (1, 1, 0, 0, 0)
    assert bell_umbra(5).moments == (1, 1, 2, 5, 15, 52)
    assert bernoulli_umbra(4).moments == (1, F(-1, 2), F(1, 6), 0, F(-1, 30))
    assert ubar_umbra(4).moments == (1, 1, 2, 6, 24)
    assert uinv_umbra(4).moments == (1, 1, -1, 2, -6)


def test_umbral_sum_examples():
    assert umbral_sum(unity(5), singleton(5)).moments == tuple(1 + n for n in range(6))
    alpha = bell_umbra(5)
    assert umbral_sum(alpha, augmentation(5)) == alpha
    bern = bernoulli_umbra(6)
    assert umbral_sum(bern, inverse_dot(bern)) == augmentation(6)
    with pytest.raises(OrderMismatchError):
        umbral_sum(unity(3), unity(4))


def test_dot_examples():
    assert dot(3, singleton(6)).moments == (1, 3, 6, 6, 0, 0, 0)
    xb = dot(X, bell_umbra(4))
    assert xb.moment(3) == X + 3 * X**2 + X**3
    for n in range(5):
        assert xb.moment(n) == sum(
            (stirling_second_classical(n, k) * X**k for k in range(n + 1)), Poly(0)
        )
    assert dot(singleton(6), bell_umbra(6)) == unity(6)


def test_dot_scalar_zero_and_negative():
    assert dot(0, bell_umbra(5)) == augmentation(5)
    assert dot(-1, unity(5)) == inverse_dot(unity(5))
    assert dot(F(1, 2), unity(5)) == scalar_umbra(F(1, 2), 5)


def test_dot_poly_left_shift():
    got = dot(X + 2, singleton(5))
    for n in range(6):
        assert got.moment(n) == falling_factorial(X + 2, n)


def test_partition_umbra_is_complete_bell():
    """bell.a has moments Y_i(a_1, ..., a_i)."""
    for a in (unity(8), singleton(8), bernoulli_umbra(8)):
        got = dot(bell_umbra(8), a)
        tail = [a.moment(k) for k in range(1, 9)]
        for i in range(1, 9):
            assert got.moment(i) == bell_complete(i, tail)


def test_polynomial_partition_umbra_grades_by_block_count():
    """x.bell.a has moments sum_j x^j B_{i,j}(a_1, ...)."""
    a = bernoulli_umbra(7)
    got = dot(X, dot(bell_umbra(7), a))
    tail = [a.moment(k) for k in range(1, 8)]
    for i in range(1, 8):
        expected = sum((bell_partial(i, j, tail) * X**j for j in range(1, i + 1)), Poly(0))
        assert got.moment(i) == expected


def test_composition_umbra_weights_raw_moments():
    """g.bell.a has moments sum_j g_j B_{i,j}(a_1, ...)."""
    g, a = bell_umbra(7), singleton(7)
    got = dot(g, dot(bell_umbra(7), a))
    tail = [a.moment(k) for k in range(1, 8)]
    for i in range(1, 8):
        expected = sum((g.moment(j) * bell_partial(i, j, tail) for j in range(1, i + 1)), F(0))
        assert got.moment(i) == expected


def test_dot_triple_path_agreement():
    """The series route of dot() == the factorial-moment partition sum."""
    umbrae = pool()
    lefts = list(umbrae.values()) + [scalar_multiple(2, unity(N))]
    for g in lefts:
        for a in umbrae.values():
            got = dot(g, a)
            for i in range(1, N + 1):
                assert got.moment(i) == dot_via_partitions(g, a, i), (g.name, a.name, i)


def test_dot_product_laws():
    """n.(m.a) = (nm).a, (n+m).a = n.a + m.a', n.(a+g) = n.a + n.g."""
    for a in (unity(6), singleton(6), bell_umbra(6), bernoulli_umbra(6)):
        for n in range(6):
            for m in range(6):
                assert dot(n, dot(m, a)) == dot(n * m, a)
                assert umbral_sum(dot(n, a), dot(m, a)) == dot(n + m, a)
    for a, g in [(unity(6), singleton(6)), (bell_umbra(6), bernoulli_umbra(6))]:
        for n in range(6):
            assert dot(n, umbral_sum(a, g)) == umbral_sum(dot(n, a), dot(n, g))


def test_dot_umbra_left_keeps_first_moment_product():
    for g in pool(6).values():
        for a in pool(6).values():
            assert dot(g, a).moment(1) == g.moment(1) * a.moment(1)


def test_dot_associativity_via_composition():
    """eta.(g.a) = (eta.g).a for scalar pools."""
    eta, g, a = bell_umbra(8), unity(8), singleton(8)
    assert dot(eta, dot(g, a)) == dot(dot(eta, g), a)
    eta, g, a = singleton(8), bell_umbra(8), bernoulli_umbra(8)
    assert dot(eta, dot(g, a)) == dot(dot(eta, g), a)


def test_dot_power_examples():
    assert dot_power(bell_umbra(4), 2).moments == (1, 1, 4, 25, 225)
    assert dot_power(bernoulli_umbra(5), 0) == unity(5)
    assert dot_power(singleton(5), 5).moments == (1, 1, 0, 0, 0, 0)


def test_dot_power_laws():
    for a in pool(6).values():
        for n in range(4):
            for m in range(3):
                assert dot_power(dot_power(a, n), m) == dot_power(a, n * m)
            for k in range(7):
                assert dot_power(a, n).moment(k) == a.moment(k) ** n


def test_inverse_dot_examples():
    assert inverse_dot(unity(5)).moments == tuple(F((-1) ** n) for n in range(6))
    b = bell_umbra(6)
    assert umbral_sum(b, inverse_dot(b)) == augmentation(6)
    assert inverse_dot(scalar_multiple(-1, singleton(6))) == ubar_umbra(6)


def test_comp_inverse_examples():
    assert comp_inverse(singleton(6)) == singleton(6)
    assert comp_inverse(unity(4)).moments == (1, 1, -1, 2, -6)
    u = unity(8)
    assert comp_inverse(comp_inverse(u)) == u
    with pytest.raises(NonInvertibleError):
        comp_inverse(augmentation(5))


def test_adjoint_fixed_points():
    assert adjoint(singleton(N)) == unity(N)
    assert adjoint(unity(N)) == singleton(N)
    assert adjoint(bell_umbra(N)) == uinv_umbra(N)
    assert adjoint(uinv_umbra(N)) == bell_umbra(N)
    assert adjoint(bell_umbra(64)) == uinv_umbra(64)  # the CLI's order cap
    with pytest.raises(NonInvertibleError):
        adjoint(augmentation(4))


def test_adjoint_laws():
    order = 12
    gammas = [unity(order), singleton(order), bell_umbra(order), scalar_multiple(2, unity(order))]
    for g in gammas:
        # g . g* is the singleton
        assert dot(g, adjoint(g)) == singleton(order), g.name
        # g* . bell . g is the unity umbra
        assert dot(adjoint(g), dot(bell_umbra(order), g)) == unity(order)
        # cinv(g)* . g* = u
        assert dot(adjoint(comp_inverse(g)), adjoint(g)) == unity(order)
        # chi . g* = cinv(g)
        assert dot(singleton(order), adjoint(g)) == comp_inverse(g)
    # adjoint of a composition umbra is the dot of the adjoints, reversed
    for a, g in [(unity(order), singleton(order)), (bell_umbra(order), unity(order))]:
        comp = dot(a, dot(bell_umbra(order), g))
        assert adjoint(comp) == dot(adjoint(g), adjoint(a))


def test_fundamental_links():
    order = 8
    assert dot(bell_umbra(order), singleton(order)) == unity(order)
    assert dot(singleton(order), bell_umbra(order)) == unity(order)
    assert dot(bell_umbra(order), uinv_umbra(order)) == singleton(order)


def test_derivative_umbra_examples():
    assert derivative_umbra(augmentation(5)) == singleton(5)
    assert derivative_umbra(inverse_dot(bernoulli_umbra(12))) == unity(12)
    assert derivative_umbra(bell_umbra(4)).moments == (1, 1, 2, 6, 20)
    # Bernoulli-factorial umbra: d(bern.chi) = uinv
    assert derivative_umbra(factorial_umbra(bernoulli_umbra(12))) == uinv_umbra(12)


def test_derivative_gf_law():
    a = bell_umbra(8)
    d = derivative_umbra(a)
    t = (F(0), F(1)) + (F(0),) * 7
    assert d.moments == (F(1),) + egf_mul(t, a.moments)[1:]  # 1 + t f(a, t)


def test_disjoint_sum_diff():
    assert disjoint_sum(unity(4), singleton(4)).moments == (1, 2, 1, 1, 1)
    b = bell_umbra(5)
    assert disjoint_diff(b, b) == augmentation(5)
    assert disjoint_sum(b, augmentation(5)) == b
    with pytest.raises(OrderMismatchError):
        disjoint_sum(unity(3), unity(4))


def test_factorial_moments_examples():
    assert factorial_moments(bell_umbra(6)) == [1] * 7
    assert factorial_moments(unity(6)) == [1, 1, 0, 0, 0, 0, 0]
    xb = dot(X, bell_umbra(5))
    assert factorial_moments(xb) == [X**n * 1 + 0 for n in range(6)]


def test_factorial_moment_bridge():
    """a.chi (production) against the signed-Stirling sum (oracle)."""
    for a in list(pool(8).values()) + [dot(X, bell_umbra(8)), with_x_shift(bernoulli_umbra(8))]:
        assert factorial_moments(a) == oracles.factorial_moments(a)
        assert factorial_umbra(a) == Umbra(oracles.factorial_moments(a))


def test_factorial_of_partition_umbra_recovers_moments():
    """(a.bell)_n = a_n for u, chi, bern."""
    for a in (unity(8), singleton(8), bernoulli_umbra(8)):
        assert factorial_moments(dot(a, bell_umbra(8))) == list(a.moments)


def test_cumulant_examples():
    assert cumulant(unity(6)) == singleton(6)
    assert cumulant(bell_umbra(6)) == unity(6)
    assert cumulant(singleton(6)) == uinv_umbra(6)
    xb = dot(X, bell_umbra(5))
    assert cumulant(xb).moments == (1, X, X, X, X, X)


def test_cumulant_is_log_series():
    a = bernoulli_umbra(8)
    logf = egf_log(a.moments)
    got = cumulant(a)
    for n in range(1, 9):
        assert got.moment(n) == logf[n]


def scale_moments(w, a: Umbra) -> Umbra:
    """Moment n >= 1 times w: the cumulants chi.(w.(bell.a)), since the cumulants of bell.a are the a_n."""
    return cumulant(dot(w, dot(bell_umbra(a.order), a)))


def test_scale_moments():
    a = bell_umbra(5)
    assert scale_moments(1, a) == a
    assert scale_moments(0, a) == augmentation(5)
    assert scale_moments(2, singleton(5)).moments == (1, 2, 0, 0, 0, 0)
    assert scale_moments(2, a) == disjoint_sum(a, a)
    assert scale_moments(F(-1, 3), a).moments == (1,) + tuple(F(-1, 3) * m for m in a.moments[1:])


def _check_weighted_substitution(qs, weights, parts):
    mixed = disjoint_sum(scale_moments(weights[0], parts[0]), scale_moments(weights[1], parts[1]))
    lhs = substitute(qs, mixed)
    rhs_umbrae = [scale_moments(w, Umbra(substitute(qs, a))) for w, a in zip(weights, parts)]
    rhs = disjoint_sum(rhs_umbrae[0], rhs_umbrae[1])
    assert lhs[0] == 1
    assert Umbra(lhs) == rhs


def test_weighted_disjoint_sum_substitution_law():
    """Substitution passes through weighted disjoint sums of scaled umbrae.

    Holds when the weights sum to 1, or when the polynomials have no constant
    term (the constant term otherwise picks up a factor sum(w)).
    """
    parts = [unity(3), bell_umbra(3)]
    _check_weighted_substitution([Poly(1), X + 1, X**2 - X, X**3 + F(1, 2) * X], [F(2), F(-1)], parts)
    _check_weighted_substitution([Poly(1), X, X**2 - X, X**3 + F(1, 2) * X], [F(2), F(-1, 3)], parts)


def test_overbar():
    g = scalar_multiple(2, unity(5))
    bar = overbar_umbra(g)
    assert bar.moments == tuple(F(2**n, n + 1) for n in range(5))
    with pytest.raises(NonInvertibleError):
        overbar_umbra(augmentation(5))


def test_partition_expand():
    assert partition_expand(2, bell_umbra(8), 3) == 22
    assert partition_expand(2, bell_umbra(8), 3) == dot(2, bell_umbra(8)).moment(3)
    for a in pool(8).values():
        for i in range(1, 9):
            assert partition_expand(1, a, i) == a.moment(i)
            assert partition_expand(0, a, i) == 0
    # composition-umbra form: gamma^len weights give (g.bell.a)^i
    g, a = singleton(8), bernoulli_umbra(8)
    comp = dot(g, dot(bell_umbra(8), a))
    for i in range(1, 9):
        assert partition_expand(g, a, i) == comp.moment(i)


def test_partition_expand_agrees_with_dot_scalars():
    for n in range(5):
        for a in pool(8).values():
            got = dot(n, a)
            for i in range(1, 9):
                assert partition_expand(n, a, i) == got.moment(i)


def test_substitute_examples():
    a = bell_umbra(5)
    powers = [X**n * 1 + 0 for n in range(6)]
    assert substitute(powers, a) == list(a.moments)
    xb = dot(X, bell_umbra(5))
    lower = [collapse(falling_factorial(X, n)) for n in range(6)]
    assert substitute(lower, xb) == [X**n * 1 + 0 for n in range(6)]
    assert substitute([Poly(1), X, X**2 - X], unity(4))[2] == 0


def test_polynomial_moment_degree_bound():
    xb = dot(X, bell_umbra(8))
    for n in range(9):
        m = xb.moment(n)
        deg = m.degree_in("x") if isinstance(m, Poly) else 0
        assert deg <= n


def test_with_x_shift():
    a = bernoulli_umbra(4)
    shifted = with_x_shift(a)
    for n in range(5):
        expected = sum((comb(n, k) * a.moment(n - k) * X**k for k in range(n + 1)), Poly(0))
        assert shifted.moment(n) == collapse(expected)


def test_indeterminate_and_scalar_umbrae():
    ix = indeterminate_umbra("x", 3)
    assert ix.moments == (1, X, X**2, X**3)
    assert scalar_umbra(F(-3), 3).moments == (1, -3, 9, -27)


def test_truncated():
    a = bell_umbra(6)
    assert a.truncated(3).moments == (1, 1, 2, 5)
    assert a.truncated(3).name == "bell"
    assert a.truncated(6) is a
    with pytest.raises(OrderMismatchError):
        a.truncated(7)


def test_name_is_read_only():
    # Builtins are shared, so renaming one would rename it for every caller.
    for a in (bell_umbra(4), Umbra([F(1), F(2)], name="z")):
        with pytest.raises(AttributeError):
            a.name = "other"
    assert bell_umbra(4).name == "bell"


def test_derivative_umbra_reads_at_most_one_order_past():
    a = unity(3)
    assert derivative_umbra(a, 4).moments == (1, 1, 2, 3, 4)
    with pytest.raises(OrderMismatchError, match="to order 5 needs moments to order 4"):
        derivative_umbra(a, 5)
    with pytest.raises(OrderMismatchError):
        derivative_umbra(a, 10)


def test_builtins_are_shared_per_order():
    for name, build in BUILTIN_UMBRAE.items():
        assert build(7) is build(7), name
        assert build(7) is not build(8), name
        assert build(SHARED_ORDER) is build(SHARED_ORDER), name
        assert build(SHARED_ORDER + 1) is not build(SHARED_ORDER + 1), name
        assert build(SHARED_ORDER + 1) == build(SHARED_ORDER + 1), name


def test_a_second_dot_builds_no_second_table(monkeypatch):
    built = []
    real = umbra.egf_bell_table
    monkeypatch.setattr(umbra, "egf_bell_table", lambda h: built.append(h) or real(h))
    a = Umbra([F(1), F(1, 2), F(-1, 3), F(2), F(1, 5), F(3)])
    first = dot(bell_umbra(5), a)
    assert dot(bell_umbra(5), a) == first
    assert dot(X + 1, a) == dot(X + 1, Umbra(a.moments))
    assert len(built) == 2  # a once, its fresh copy once
    assert cumulant(a) == cumulant(Umbra(a.moments))
    assert dot(F(-3, 2), a) == dot(F(-3, 2), Umbra(a.moments))
    # chi and eps read column 1 at most, and a left side whose last moment
    # is 0, such as chi + chi' (moments 1, 2, 2, 0, ...), reads columns up
    # to its last nonzero one: none of them builds the whole table.
    b = Umbra(a.moments)
    short = umbral_sum(singleton(5), singleton(5))
    assert dot(singleton(5), b) == cumulant(b)
    assert dot(augmentation(5), b) == augmentation(5)
    assert dot(short, b) == dot(short, a)  # a's remembered table serves it
    assert len(built) == 2


small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda n: st.tuples(
            st.lists(small, min_size=n, max_size=n),
            st.lists(small, min_size=n, max_size=n),
            small,
            st.sampled_from(["umbra", "x", "x + c", "x-shifted"]),
        )
    )
)
def test_dot_log_is_dot_on_the_adjoint(data):
    """f(g*, t) = exp(r) has log exactly r, so left.g* by dot (which takes the
    log of exp(r)) equals _dot_log(left, r), for an umbra, x, x + c and an
    x-shifted umbra on the left, at orders 0-12."""
    r_tail, left_tail, c, kind = data
    r = (F(0), *r_tail)
    a = Umbra((F(1), *left_tail))
    left = {"umbra": a, "x": X, "x + c": X + c, "x-shifted": with_x_shift(a)}[kind]
    assert _dot_log(left, r) == dot(left, _adjoint_of(r))


def test_dot_log_refuses_mixed_orders():
    with pytest.raises(OrderMismatchError, match="umbra orders differ: 3 vs 4"):
        _dot_log(bell_umbra(3), (F(0),) * 5)
    with pytest.raises(OrderMismatchError, match="umbra orders differ: 3 vs 4"):
        dot(bell_umbra(3), bell_umbra(4))


left_kinds = st.sampled_from(["umbra", "eps", "chi", "chi + chi'", "bell", "bern", "x", "x + c", "c"])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=9).flatmap(
        lambda n: st.tuples(
            st.lists(small, min_size=n, max_size=n),
            st.lists(small, min_size=n, max_size=n),
            st.one_of(st.none(), st.sampled_from(sorted(BUILTIN_UMBRAE))),
            left_kinds,
            small,
        )
    )
)
def test_remembered_dot_is_the_kernel_route(data):
    """dot and cumulant give the same result on a first and a second call,
    on a fresh umbra and on a shared builtin (bern's wide denominators
    included), and it is the unremembered kernel route: f(g, log f(a, t)),
    or f(a, t)^c for a rational c.  The left sides eps, chi and chi + chi'
    have their last nonzero moment at 0, 1 and 2."""
    a_tail, g_tail, builtin, kind, c = data
    n = len(a_tail)
    a = BUILTIN_UMBRAE[builtin](n) if builtin else Umbra((F(1), *a_tail))
    left = {"umbra": Umbra((F(1), *g_tail)), "eps": augmentation(n), "chi": singleton(n),
            "chi + chi'": umbral_sum(singleton(n), singleton(n)), "bell": bell_umbra(n), "bern": bernoulli_umbra(n),
            "x": X, "x + c": X + c, "c": c}[kind]
    if kind == "c":
        expected = egf_power(a.moments, c)
    else:
        g = scalar_umbra(left, n) if isinstance(left, Poly) else left
        expected = egf_compose(g.moments, egf_log(a.moments))
    assert dot(left, a).moments == expected
    assert dot(left, a).moments == expected
    kappa = (F(1),) + egf_log(a.moments)[1:]
    assert cumulant(a).moments == kappa
    assert cumulant(a).moments == kappa
