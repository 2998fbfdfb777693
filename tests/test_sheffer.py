from fractions import Fraction as F
from math import comb

import pytest

from umbralcalc import series, umbra
from umbralcalc.combinatorics import stirling_second_classical
from umbralcalc.errors import ConsistencyError, NonInvertibleError, VariableCaptureError
from umbralcalc.expressions import Atom, Indet, Sum, evaluate
from umbralcalc.poly import Poly, X, Y, collapse
from umbralcalc.sheffer import (
    PolySequence,
    ShefferPair,
    appell_moments,
    associated_moments,
    bernoulli_appell_pair,
    check_appell_identity,
    check_binomial_identity,
    check_sheffer_identity,
    connection_constants,
    inverse_pair,
    inverse_sequence,
    poisson_charlier_pair,
    sheffer_moments,
    umbral_compose,
)
from umbralcalc.umbra import (
    Umbra,
    augmentation,
    bell_umbra,
    bernoulli_umbra,
    comp_inverse,
    dot,
    inverse_dot,
    scalar_multiple,
    singleton,
    substitute,
    uinv_umbra,
    umbral_sum,
    unity,
    with_x_shift,
)

from oracles import factorial_pair, falling_factorial, power_pair

N = 8


def test_pair_validation():
    with pytest.raises(NonInvertibleError):
        ShefferPair(unity(4), augmentation(4))
    with pytest.raises(ValueError):
        ShefferPair(unity(4), unity(5))


def test_poly_sequence_validation():
    with pytest.raises(ValueError):
        PolySequence((Poly(2),))
    with pytest.raises(ValueError):
        PolySequence((Poly(1), X**2))


def test_power_polynomials():
    s = sheffer_moments(power_pair(N))
    assert list(s) == [X**n * 1 + 0 for n in range(N + 1)]


def test_poisson_charlier_values():
    s = sheffer_moments(poisson_charlier_pair(1, 4))
    assert s[2] == X**2 - 3 * X + 1
    assert s.coefficients(2) == [1, -3, 1]
    # direct formula for general a
    a = F(2)
    s2 = sheffer_moments(poisson_charlier_pair(a, 4))
    for n in range(5):
        expected = sum(
            (comb(n, k) * (-a) ** (n - k) * falling_factorial(X, k) for k in range(n + 1)),
            Poly(0),
        ) / a**n
        assert s2[n] == collapse(expected)


def test_bernoulli_polynomials():
    s = sheffer_moments(bernoulli_appell_pair(4))
    assert s[2] == X**2 - X + F(1, 6)
    b = bernoulli_umbra(4)
    for n in range(5):
        expected = sum((comb(n, k) * b.moment(n - k) * X**k for k in range(n + 1)), Poly(0))
        assert s[n] == collapse(expected)


def test_associated_examples():
    assert list(associated_moments(singleton(N))) == [X**n * 1 + 0 for n in range(N + 1)]
    fact = associated_moments(unity(N))
    for n in range(N + 1):
        assert fact[n] == collapse(Poly(0) + falling_factorial(X, n))
    phi = associated_moments(uinv_umbra(N))
    for n in range(N + 1):
        assert phi[n] == sum(
            (stirling_second_classical(n, k) * X**k for k in range(n + 1)), Poly(0)
        )
    # associated = Sheffer with augmentation alpha
    pair = ShefferPair(augmentation(N), unity(N))
    assert list(sheffer_moments(pair)) == list(associated_moments(unity(N)))


def test_appell_examples():
    assert list(appell_moments(augmentation(N))) == [X**n * 1 + 0 for n in range(N + 1)]
    assert list(appell_moments(unity(N))) == [(X - 1) ** n for n in range(N + 1)]
    bp = appell_moments(inverse_dot(bernoulli_umbra(N)))
    assert bp[2] == X**2 - X + F(1, 6)
    assert list(bp) == list(sheffer_moments(bernoulli_appell_pair(N)))


def test_appell_derivative_property():
    seq = appell_moments(inverse_dot(bernoulli_umbra(N)))
    for n in range(1, N + 1):
        assert seq[n].derivative("x") == n * seq[n - 1]


def test_umbral_compose():
    phi = associated_moments(uinv_umbra(N))
    fact = associated_moments(unity(N))
    assert list(umbral_compose(phi, fact)) == [X**n * 1 + 0 for n in range(N + 1)]
    s = sheffer_moments(poisson_charlier_pair(1, N))
    powers = PolySequence(tuple(X**n * 1 + 0 for n in range(N + 1)))
    assert list(umbral_compose(s, powers)) == list(s)
    # r and s may mention y: s_n's x^k coefficients are polynomials in y
    y_seq = sheffer_moments(ShefferPair(dot(Y, bell_umbra(N)), unity(N)))
    assert list(umbral_compose(powers, y_seq)) == list(y_seq)
    assert list(umbral_compose(y_seq, powers)) == list(y_seq)
    expected = [sum((c * Y**dy * fact[dx] for (dx, dy), c in p.items()), Poly(0)) for p in y_seq]
    assert list(umbral_compose(y_seq, fact)) == expected
    assert list(umbral_compose(y_seq, y_seq)) == [
        sum((c * Y**dy * y_seq[dx] for (dx, dy), c in p.items()), Poly(0)) for p in y_seq
    ]


def test_inverse_sequences():
    pc = poisson_charlier_pair(1, N)
    inv = inverse_sequence(pc)
    assert list(umbral_compose(sheffer_moments(pc), inv)) == [X**n * 1 + 0 for n in range(N + 1)]
    # self-inverse: powers
    pw = power_pair(N)
    assert list(inverse_sequence(pw)) == [X**n * 1 + 0 for n in range(N + 1)]
    # associated to u vs associated to uinv
    assert list(umbral_compose(associated_moments(unity(N)), associated_moments(uinv_umbra(N)))) == [
        X**n * 1 + 0 for n in range(N + 1)
    ]


def test_connection_constants_poisson_charlier():
    for a, b in [(F(1), F(2)), (F(2), F(3))]:
        cc = connection_constants(
            poisson_charlier_pair(b, N), poisson_charlier_pair(a, N)
        )
        assert cc.verified
        for n in range(N + 1):
            for k in range(n + 1):
                assert cc[n, k] == comb(n, k) * (a / b) ** n * (1 - b / a) ** (n - k), (a, b, n, k)
    assert connection_constants(poisson_charlier_pair(2, 4), poisson_charlier_pair(1, 4))[2, 1] == F(-1, 2)


def test_connection_constants_identity_and_stirling():
    pair = poisson_charlier_pair(1, 6)
    cc = connection_constants(pair, pair)
    assert cc.verified
    for n in range(7):
        for k in range(n + 1):
            assert cc[n, k] == (1 if n == k else 0)
    # powers expanded in falling factorials: S(n, k)
    cc = connection_constants(power_pair(N), factorial_pair(N))
    assert cc.verified
    for n in range(N + 1):
        for k in range(n + 1):
            assert cc[n, k] == stirling_second_classical(n, k)


def test_connection_constants_need_scalar_moments():
    """Moments in x or y are outside the domain (exit 2 in the CLI), not a failed
    self-check; a pair that mentions x is refused already as a pair."""
    with pytest.raises(VariableCaptureError, match=r"^from-alpha \(--from-alpha\) mentions y"):
        connection_constants(ShefferPair(dot(Y, bell_umbra(N)), singleton(N)), power_pair(N))
    with pytest.raises(VariableCaptureError, match=r"^to-gamma \(--to-gamma\) mentions y"):
        connection_constants(power_pair(N), ShefferPair(singleton(N), Umbra([1, 1, Y, *[0] * (N - 2)])))
    with pytest.raises(VariableCaptureError, match=r"alpha \(--alpha\) mentions x"):
        connection_constants(ShefferPair(dot(X, bell_umbra(N)), singleton(N)), power_pair(N))


def test_pair_may_not_mention_x():
    """x is the table's own variable: a pair member whose moments mention it,
    even past a scalar first moment, is refused."""
    late_x = Umbra([1, 1, X, 2, 3])
    for build, role in [
        (lambda: ShefferPair(unity(4), late_x), "gamma"),
        (lambda: ShefferPair(late_x, unity(4)), "alpha"),
        (lambda: associated_moments(late_x), "gamma"),
        (lambda: appell_moments(late_x), "alpha"),
    ]:
        with pytest.raises(VariableCaptureError, match=rf"^{role} \(--{role}\) mentions x"):
            build()
    # moments in y are no capture
    assert sheffer_moments(ShefferPair(dot(Y, bell_umbra(4)), unity(4)))[1] == X - Y


def test_connection_constants_third_combination():
    cc = connection_constants(bernoulli_appell_pair(6), power_pair(6))
    assert cc.verified
    b = bernoulli_umbra(6)
    for n in range(7):
        for k in range(n + 1):
            assert cc[n, k] == comb(n, k) * b.moment(n - k)


def test_connection_constants_at_order_0_run_their_checks(monkeypatch):
    """At order 0 both sequences are the constant 1, and the general path
    still runs the table, residue and formula-vs-solve checks."""
    from umbralcalc import sheffer

    passed = []
    real = sheffer.require_equal
    monkeypatch.setattr(sheffer, "require_equal", lambda *args, **kwargs: passed.append(real(*args, **kwargs)))
    cc = connection_constants(poisson_charlier_pair(2, 0), bernoulli_appell_pair(0))
    assert cc.matrix == ((1,),) and cc.verified
    assert {"sheffer moments vs series", "triangular expansion residue",
            "connection constants formula vs solve"} <= set(passed)


def test_identity_checks():
    for gamma in (unity(N), singleton(N), uinv_umbra(N)):
        assert check_binomial_identity(gamma) == ("binomial",)
    for pair in (poisson_charlier_pair(1, 6), bernoulli_appell_pair(6)):
        assert check_sheffer_identity(pair) == ("sheffer", "sheffer-derivative")
    for alpha in (inverse_dot(bernoulli_umbra(6)), unity(6)):
        assert check_appell_identity(alpha) == ("appell",)


def test_identity_check_reports_failure(monkeypatch):
    # any associated sequence satisfies the identity, whatever gamma
    assert check_binomial_identity(scalar_multiple(2, unity(6))) == ("binomial",)
    # Bernoulli polynomials are Sheffer but not of binomial type: fed to the
    # binomial check, B_1(x) = x - 1/2 gives x + y - 1/2 against x + y - 1
    from umbralcalc import sheffer

    bernoulli = sheffer_moments(bernoulli_appell_pair(4))
    monkeypatch.setattr(sheffer, "associated_moments", lambda gamma: bernoulli)
    with pytest.raises(ConsistencyError) as info:
        check_binomial_identity(unity(4))
    err = info.value
    assert (err.check, err.n, err.monomial, err.lhs, err.rhs) == ("binomial", 1, "1", F(-1, 2), F(-1))


def test_characterization_substituting_alpha_plus_k_gamma():
    """Substituting a + k.g into s_n gives the falling factorial (k)_n."""
    for pair in (poisson_charlier_pair(1, N), bernoulli_appell_pair(N), factorial_pair(N)):
        s = sheffer_moments(pair)
        for k in range(6):
            carrier = umbral_sum(pair.alpha, dot(k, pair.gamma))
            values = substitute(list(s), carrier)
            for n in range(N + 1):
                assert values[n] == falling_factorial(k, n), (pair, k, n)


def test_expansion_theorem():
    """eta = alpha + (sheffer at eta).bell.gamma at the moment level."""
    order = 8
    for pair in (poisson_charlier_pair(1, order), bernoulli_appell_pair(order)):
        s = sheffer_moments(pair)
        for eta in (unity(order), bell_umbra(order)):
            sigma_eta = Umbra(substitute(list(s), eta))
            rhs = umbral_sum(pair.alpha, dot(sigma_eta, dot(bell_umbra(order), pair.gamma)))
            assert rhs == eta


def test_associated_recurrence_characterization():
    """p_n(g + x.u) = p_n(x) + n p_{n-1}(x) for associated sequences, n <= 10."""
    order = 10
    for gamma in (unity(order), singleton(order), uinv_umbra(order)):
        p = associated_moments(gamma)
        shifted = with_x_shift(gamma)
        values = substitute(list(p), shifted)
        for n in range(1, order + 1):
            assert collapse(values[n]) == collapse(p[n] + n * p[n - 1])
        # p_n at the augmentation vanishes for n >= 1
        at_eps = substitute(list(p), augmentation(order))
        assert at_eps[0] == 1 and all(v == 0 for v in at_eps[1:])


def test_sheffer_dual_path_order_12():
    """The construction self-checks series vs moment routes; exercise at order 12."""
    for pair in (
        poisson_charlier_pair(1, 12),
        bernoulli_appell_pair(12),
        factorial_pair(12),
        power_pair(12),
    ):
        seq = sheffer_moments(pair)
        assert seq.order == 12 and seq[0] == 1


def test_sheffer_at_alpha_shift_is_associated():
    for pair in (poisson_charlier_pair(1, 6), bernoulli_appell_pair(6)):
        s = sheffer_moments(pair)
        carrier = with_x_shift(pair.alpha)
        values = substitute(list(s), carrier)
        p = associated_moments(pair.gamma)
        assert [collapse(v) for v in values] == list(p)


def test_umbral_composition_theorem():
    """Composing two Sheffer sequences is the Sheffer sequence of the composed pair."""
    order = 6
    s_pair = poisson_charlier_pair(1, order)  # (bell, u)
    r_pair = bernoulli_appell_pair(order)  # (-1.bern, chi)
    composed = umbral_compose(sheffer_moments(s_pair), sheffer_moments(r_pair))
    alpha = umbral_sum(
        dot(s_pair.alpha, dot(bell_umbra(order), r_pair.gamma)), r_pair.alpha
    )
    gamma = dot(s_pair.gamma, dot(bell_umbra(order), r_pair.gamma))
    direct = sheffer_moments(ShefferPair(alpha, gamma))
    assert list(composed) == list(direct)


def test_multiplication_theorem():
    """-1.a + (cx).u = c.(-1.a + x.u) + (c-1).a at the moment level.

    The scale factor acts as a dot-product (series power), which is what
    makes the dot-linearity rearrangement of the two alpha parts valid.
    """
    order = 6
    for alpha in (bernoulli_umbra(order), bell_umbra(order)):
        base = with_x_shift(inverse_dot(alpha))
        for c in (F(2), F(-1), F(1, 2)):
            lhs = Umbra([m.substitute(x=c * X) if isinstance(m, Poly) else m for m in base.moments])
            rhs = umbral_sum(dot(c, base), dot(c - 1, alpha))
            assert lhs == rhs, c


def test_associated_recurrence_same_label_singleton():
    """x gamma^<-1> [(x+chi).gamma*]^n = (x.gamma*)^(n+1) for gamma = chi.

    Only the same-label singleton reading makes this hold: with m_n the
    moments of x + chi, E[chi (x + chi)^n] = m_{n+1} - x m_n must be x^n.
    Other gammas are reported, not asserted.
    """
    m = evaluate(Sum(Indet("x"), Atom("chi")), 6).moments
    for n in range(6):
        assert m[n + 1] - X * m[n] == X**n


def test_associated_recurrence_report_other_gammas():
    """The uncorrelated reading fails already at gamma = u; record, don't assert."""
    p = associated_moments(unity(4))
    n = 1
    # uncorrelated reading: x * E[cinv(u)] * E[(x + chi).u*]^... differs from p_2
    cinv_u = comp_inverse(unity(4))
    shifted = substitute(list(p), with_x_shift(singleton(4)))
    rhs = collapse(X * cinv_u.moment(1) * shifted[n])
    assert rhs != p[n + 1]


def test_inverse_pair_shape():
    pair = poisson_charlier_pair(1, 6)
    inv = inverse_pair(pair)
    assert inv.gamma == comp_inverse(pair.gamma)


def test_order_zero_sequences():
    assert list(sheffer_moments(ShefferPair(augmentation(0), unity(0)))) == [Poly(1)]
    assert list(associated_moments(unity(0))) == [Poly(1)]
    assert list(appell_moments(unity(0))) == [Poly(1)]
    cc = connection_constants(power_pair(0), factorial_pair(0))
    assert cc.verified and cc.matrix == ((F(1),),)


def test_each_call_reverts_each_gamma_once(monkeypatch):
    """sheffer_moments, inverse_pair, inverse_sequence and
    check_sheffer_identity revert their gamma once; connection_constants
    reverts its two gammas and the change of basis once each.  Every
    reversion is one run of the reversion loop, and each table is built in
    the run that reverts for it; inverse_pair and inverse_sequence build no
    table there (the inverse pair's table is that of f(g, t) - 1 itself)."""
    from umbralcalc import sheffer

    reversions, tables = [], []
    real_loop, real_table = series._revert_columns, sheffer._revert_table
    monkeypatch.setattr(series, "_revert_columns", lambda h: reversions.append(len(h)) or real_loop(h))
    monkeypatch.setattr(sheffer, "_revert_table", lambda h: tables.append(len(h)) or real_table(h))
    frm, to = poisson_charlier_pair(2, 8), poisson_charlier_pair(1, 8)
    for run, expected in [
        (lambda: sheffer_moments(frm), (1, 1)),
        (lambda: connection_constants(frm, to), (3, 3)),
        (lambda: inverse_pair(frm), (1, 0)),
        (lambda: inverse_sequence(frm), (1, 0)),
        (lambda: check_sheffer_identity(frm), (1, 1)),
    ]:
        reversions.clear()
        tables.clear()
        run()
        assert (len(reversions), len(tables)) == expected


def test_tables_take_no_log_of_an_adjoint(monkeypatch):
    """The Sheffer and associated tables dot into g* = exp(r) through r
    itself, so they take no egf_log; nor do connection constants, whose chain
    frm.gamma . bell . to.gamma^<-1> is the composition f(frm.gamma, r_to)."""
    frm, to = poisson_charlier_pair(2, 8), poisson_charlier_pair(1, 8)
    random_pair = ShefferPair(Umbra([F(1), F(-1, 2), F(3), F(0), F(2, 7)]), Umbra([F(1), F(-2), F(1, 3), F(1), F(0)]))
    calls = []
    counted = series.egf_log

    def egf_log(f):
        calls.append(len(f) - 1)
        return counted(f)

    monkeypatch.setattr(series, "egf_log", egf_log)
    monkeypatch.setattr(umbra, "egf_log", egf_log)
    sheffer_moments(frm)
    sheffer_moments(random_pair)
    associated_moments(to.gamma)
    associated_moments(random_pair.gamma)
    inverse_pair(random_pair)
    assert calls == []
    connection_constants(frm, to)
    connection_constants(random_pair, bernoulli_appell_pair(4))
    assert calls == []


def test_connection_constants_make_no_exp_log_round_trip(monkeypatch):
    """One connection_constants call reverts the two gammas and the change of
    basis (three runs of the reversion loop, one per table), takes no egf_log
    and builds no Bell umbra."""
    from umbralcalc import sheffer

    calls = {"_revert_columns": 0, "_revert_table": 0, "egf_log": 0, "bell_umbra": 0}

    def counted(name, fn):
        return lambda *args: calls.update({name: calls[name] + 1}) or fn(*args)

    for module, name in [(series, "_revert_columns"), (sheffer, "_revert_table"), (series, "egf_log"),
                         (umbra, "egf_log"), (umbra, "bell_umbra"), (sheffer, "bell_umbra")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    pc2, pc1 = poisson_charlier_pair(2, 8), poisson_charlier_pair(1, 8)
    random_pair = ShefferPair(Umbra([F(1), F(-1, 2), F(3), F(0), F(2, 7)]), Umbra([F(1), F(-2), F(1, 3), F(1), F(0)]))
    for frm, to in [(pc2, pc1), (random_pair, bernoulli_appell_pair(4))]:
        calls.update(dict.fromkeys(calls, 0))
        connection_constants(frm, to)
        assert calls == {"_revert_columns": 3, "_revert_table": 3, "egf_log": 0, "bell_umbra": 0}


def test_each_table_is_read_off_one_bell_table(monkeypatch):
    """sheffer_moments and check_sheffer_identity build one Bell table, of r,
    in the loop that reverts; connection_constants builds three, of r_frm,
    r_to and the change of basis, and takes no egf_exp.  Every table, of a
    reversion or not, is one run of series._bell_columns.  connection_constants
    takes one egf_mul, the umbral_sum forming to.alpha - 1.frm.alpha;
    check_sheffer_identity takes two, its convolution and g + x.u
    (``with_x_shift``) for the derivative rule.  A Sheffer table of a scalar
    pair takes none, and one of a pair in y takes one, -1.a + x.u in its
    moment route.  Every fold over a Bell table is one series._compose, or
    one series._fold_runs of the runs read off a scalar b in f(b + x.u, r): a
    Sheffer table takes two (the moment route, and f(a, r) in the series
    route), an associated table one, and connection_constants seven (two
    Sheffer tables, d - 1.a, g.bell.z^<-1> and the change of basis)."""
    from umbralcalc import sheffer

    calls = {"tables": 0, "egf_exp": 0, "egf_mul": 0, "folds": 0}

    def counted(name, fn):
        return lambda *args: calls.update({name: calls[name] + 1}) or fn(*args)

    for module, name, key in [(series, "_bell_columns", "tables"), (series, "egf_exp", "egf_exp"),
                              (umbra, "egf_exp", "egf_exp"), (series, "egf_mul", "egf_mul"),
                              (umbra, "egf_mul", "egf_mul"), (sheffer, "egf_mul", "egf_mul"),
                              (series, "_compose", "folds"), (sheffer, "_compose", "folds"),
                              (sheffer, "_fold_runs", "folds")]:
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    pc2, pc1 = poisson_charlier_pair(2, 8), poisson_charlier_pair(1, 8)
    random_pair = ShefferPair(Umbra([F(1), F(-1, 2), F(3), F(0), F(2, 7)]), Umbra([F(1), F(-2), F(1, 3), F(1), F(0)]))
    y_pair = ShefferPair(Umbra([F(1), Y, F(3), F(0), F(2, 7)]), Umbra([F(1), F(-2), F(1, 3), 1 + Y, F(0)]))
    for run, expected in [
        (lambda: sheffer_moments(pc2), (1, 0, 0, 2)),
        (lambda: sheffer_moments(y_pair), (1, 0, 1, 2)),
        (lambda: check_sheffer_identity(random_pair), (1, 0, 2, 3)),
        (lambda: check_sheffer_identity(y_pair), (1, 0, 3, 3)),
        (lambda: associated_moments(y_pair.gamma), (1, 0, 0, 1)),
        (lambda: connection_constants(pc2, pc1), (3, 0, 1, 7)),
        (lambda: connection_constants(random_pair, bernoulli_appell_pair(4)), (3, 0, 1, 7)),
    ]:
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert tuple(calls.values()) == expected


def test_connection_constants_invert_frm_alpha_once(monkeypatch):
    """-1.frm.alpha serves both the frm table's moment route and
    to.alpha - 1.frm.alpha, so frm.alpha's moments meet one egf_reciprocal."""
    from umbralcalc import sheffer

    seen = []
    real = series.egf_reciprocal
    for module in (series, umbra, sheffer):
        monkeypatch.setattr(module, "egf_reciprocal", lambda f: seen.append(tuple(f)) or real(f))
    pc2, pc1 = poisson_charlier_pair(2, 10), poisson_charlier_pair(1, 10)
    random_pair = ShefferPair(Umbra([F(1), F(-1, 2), F(3), F(0), F(2, 7)]), Umbra([F(1), F(-2), F(1, 3), F(1), F(0)]))
    for frm, to in [(pc2, pc1), (random_pair, bernoulli_appell_pair(4))]:
        seen.clear()
        connection_constants(frm, to)
        assert seen.count(frm.alpha.moments) == 1
