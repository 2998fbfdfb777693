"""Acceptance suite: one test per criterion, every check exact (no tolerances).

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from math import comb, factorial

from umbralcalc.cli import main
from umbralcalc.combinatorics import (
    stirling_first_classical,
    stirling_second_classical,
)
from umbralcalc.errors import UmbraSyntaxError
from umbralcalc.expressions import (
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
)
from umbralcalc.parser import parse, pretty_print
from umbralcalc.poly import Poly, X, collapse
from umbralcalc.sequences import (
    bell_expansion,
    fibonacci_factorial_umbra,
    lagrange_inversion,
    lagrange_inversion_general,
    recurrence_example_backward,
    recurrence_example_bernoulli,
    recurrence_example_fibonacci,
    stirling_first_umbral,
    stirling_second_umbral,
)
from umbralcalc.series import egf_compose, egf_mul, egf_revert
from umbralcalc.sheffer import (
    associated_moments,
    bernoulli_appell_pair,
    check_binomial_identity,
    check_sheffer_identity,
    connection_constants,
    poisson_charlier_pair,
)
from umbralcalc.umbra import (
    adjoint,
    augmentation,
    bell_umbra,
    bernoulli_umbra,
    comp_inverse,
    derivative_umbra,
    dot,
    inverse_dot,
    scalar_multiple,
    singleton,
    uinv_umbra,
    unity,
)

from oracles import definite_integral, dot_via_partitions, factorial_pair, power_pair
from test_parser import MALFORMED as PARSER_MALFORMED
from test_sequences import abel_by_powers


def _report(number: int, description: str, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def test_criterion_01_adjoint_fixed_points():
    def check():
        order = 12
        assert adjoint(singleton(order)) == unity(order)
        assert adjoint(unity(order)) == singleton(order)
        assert adjoint(bell_umbra(order)) == uinv_umbra(order)
        assert adjoint(uinv_umbra(order)) == bell_umbra(order)

    _report(1, "adjoint fixed points chi<->u and bell<->uinv, order 12", check)


def test_criterion_02_reversion_correctness():
    def check():
        rng = random.Random(20260808)
        order = 12
        for _ in range(25):
            coeffs = [F(0), F(rng.choice([c for c in range(-6, 7) if c]), rng.randint(1, 6))]
            coeffs += [
                F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order - 1)
            ]
            h = tuple(coeffs)  # random moments
            r = egf_revert(h)
            t = (F(0), F(1)) + (F(0),) * (order - 1)
            assert egf_compose(h, r) == t
            assert egf_compose(r, h) == t

    _report(2, "compose(h, revert(h)) = t mod t^13 for 25 random series", check)


def test_criterion_03_dot_dual_paths():
    def check():
        order = 10
        lefts = {
            "u": unity(order),
            "chi": singleton(order),
            "bell": bell_umbra(order),
            "bern": bernoulli_umbra(order),
            "2u": scalar_multiple(2, unity(order)),
        }
        rights = {
            "u": unity(order),
            "chi": singleton(order),
            "bell": bell_umbra(order),
            "bern": bernoulli_umbra(order),
        }
        for gname, g in lefts.items():
            for aname, a in rights.items():
                series_path = dot(g, a)
                for i in range(1, order + 1):
                    assert series_path.moment(i) == dot_via_partitions(g, a, i), (gname, aname, i)

    _report(3, "dot-product: series route and partition sums agree", check)


def test_criterion_04_binomial_and_sheffer_identities():
    def check():
        for gamma in (unity(10), singleton(10), uinv_umbra(10)):
            assert check_binomial_identity(gamma) == ("binomial",)
        assert check_sheffer_identity(poisson_charlier_pair(1, 8)) == ("sheffer", "sheffer-derivative")
        assert check_sheffer_identity(bernoulli_appell_pair(8)) == ("sheffer", "sheffer-derivative")

    _report(4, "binomial identity (n<=10) and Sheffer identity (n<=8) hold exactly", check)


def test_criterion_05_abel_representation():
    def check():
        order = 12
        for gamma in (unity(order), singleton(order), bernoulli_umbra(order), augmentation(order)):
            assoc = associated_moments(derivative_umbra(gamma))
            assert abel_by_powers(gamma, order) == list(assoc), gamma.name

    _report(5, "Abel polynomials equal the associated sequence of the derivative umbra", check)


def test_criterion_06_lagrange_inversion():
    def check():
        for gamma in (unity(10), singleton(10), bernoulli_umbra(10)):
            for n in range(1, 11):
                value = lagrange_inversion(gamma, n)
                assert value == comp_inverse(derivative_umbra(gamma)).moment(n)
        assert [lagrange_inversion(unity(10), n) for n in range(1, 6)] == [1, -2, 9, -64, 625]
        for g1 in (F(2), F(1, 2), F(-1)):
            gamma = scalar_multiple(g1, unity(9))
            for n in range(1, 9):
                value = lagrange_inversion_general(gamma, n)
                assert value == g1**n * comp_inverse(gamma).moment(n)

    _report(6, "Lagrange inversion, plain (n<=10) and generalized (n<=8)", check)


def test_criterion_07_stirling_cross_checks():
    def check():
        for n in range(11):
            for k in range(n + 1):
                assert stirling_second_umbral(n, k) == stirling_second_classical(n, k)
                assert stirling_first_umbral(n, k) == stirling_first_classical(n, k)
        for n in range(1, 11):
            assert stirling_first_umbral(n, 1) == F((-1) ** (n - 1)) * factorial(n - 1)

    _report(7, "umbral Stirling formulas match the classical triangles (n<=10)", check)


def test_criterion_08_connection_constants():
    def check():
        combos = [
            (poisson_charlier_pair(2, 8), poisson_charlier_pair(1, 8)),
            (power_pair(8), factorial_pair(8)),
            (bernoulli_appell_pair(8), power_pair(8)),
        ]
        for frm, to in combos:
            assert connection_constants(frm, to).verified
        for a, b in ((F(1), F(2)), (F(2), F(3))):
            cc = connection_constants(poisson_charlier_pair(b, 8), poisson_charlier_pair(a, 8))
            assert cc.verified
            for n in range(9):
                for k in range(n + 1):
                    assert cc[n, k] == comb(n, k) * (a / b) ** n * (1 - b / a) ** (n - k)

    _report(8, "connection constants: umbral formula equals triangular solve", check)


def test_criterion_09_recurrence_examples():
    def check():
        sol1 = recurrence_example_bernoulli(8)  # a failed check raises ConsistencyError
        assert len(sol1.checks) == 2
        for n in range(1, 9):
            s = sol1.sequence
            assert collapse(s[n].substitute(x=X + 1) - s[n]) == s[n - 1]
            assert definite_integral(s[n], "x", 0, 1) == 1

        sol2 = recurrence_example_backward(8)
        assert len(sol2.checks) == 5
        one_minus = (F(1), F(-1), F(-2)) + (F(0),) * 6  # moments of 1 - t - t^2
        assert egf_mul(fibonacci_factorial_umbra(8).moments, one_minus) == (F(1),) + (F(0),) * 8

        sol3 = recurrence_example_fibonacci(8)
        assert len(sol3.checks) == 3
        seq = sol3.sequence
        assert [p(x=0) for p in seq] == [1, 1, 2, 3, 5, 8, 13, 21, 34]
        for n in range(1, 9):
            assert collapse(seq[n].substitute(x=X + 1)) == collapse(seq[n] + seq[n - 1])
        # the F_n(0) = 1 claim is reported, never asserted
        assert "F_n(0) by direct evaluation" in sol3.notes

    _report(9, "all three worked difference equations verified exactly (n<=8)", check)


def test_criterion_10_bell_expansion_two_paths():
    def check():
        for gamma in (unity(11), singleton(11), inverse_dot(bernoulli_umbra(11))):
            for n in range(11):
                bell_expansion(gamma, n)  # two-path equality asserted inside
        for n in range(11):
            got = bell_expansion(inverse_dot(bernoulli_umbra(11)), n)
            expected = sum(
                (stirling_second_classical(n, k) * X**k for k in range(n + 1)), Poly(0)
            )
            assert got == expected

    _report(10, "partition-polynomial expansion two-path equality (n<=10)", check)


# ---------------------------------------------------------------------------
# Criterion 11: parser corpus + CLI byte determinism


def _random_expr(rng: random.Random, depth: int):
    names = ["u", "chi", "bell", "bern", "ubar", "uinv", "myname"]
    if depth <= 0:
        kind = rng.randrange(4)
        if kind == 0:
            return Atom(rng.choice(names), rng.randrange(3))
        if kind == 1:
            return Const(F(rng.randint(-9, 9), rng.randint(1, 9)))
        var = "x" if kind == 2 else "y"
        k = rng.randint(1, 3)
        return Indet(var) if k == 1 else Power(Indet(var), k)
    kind = rng.randrange(12)
    sub = lambda: _random_expr(rng, depth - 1)  # noqa: E731
    if kind == 0:
        return Sum(sub(), sub())
    if kind == 1:
        return Sum(sub(), Call("inv", (sub(),)))
    if kind == 2:
        return Dot(sub(), sub())
    if kind == 3:
        return Power(sub(), rng.randint(0, 3))
    if kind == 4:
        return DotPower(sub(), rng.randint(0, 3))
    if kind == 5:
        return Call("inv", (sub(),))
    if kind == 6:
        return Call("cinv", (sub(),))
    if kind == 7:
        return Call("adj", (sub(),))
    if kind == 8:
        return Call("d", (sub(),))
    if kind == 9:
        return Call("dsum", (sub(), sub()))
    if kind == 10:
        e = sub()
        return Atom(e.name, e.primes + 1) if isinstance(e, Atom) else Fresh(e)
    e = sub()
    return Const(-e.value) if isinstance(e, Const) else ScalarMul(F(-1), e)


# The first 20 entries of the parser's malformed corpus: one-line inputs and positions.
MALFORMED = PARSER_MALFORMED[:20]


def test_criterion_11_parser_and_cli_determinism(tmp_path):
    def check():
        rng = random.Random(411)
        seen = 0
        while seen < 220:
            ast = _random_expr(rng, rng.randint(1, 6))
            text = pretty_print(ast)
            assert parse(text) == ast, text
            seen += 1
        for text, line, column in MALFORMED:
            try:
                parse(text)
            except UmbraSyntaxError as err:
                assert (err.line, err.column) == (line, column), text
            else:
                raise AssertionError(f"malformed input parsed: {text!r}")
        # CLI byte determinism across runs
        invocations = [
            ["eval", "x . adj(u)", "bell ^. 2", "--order", "6", "--format", "json"],
            ["sheffer", "--alpha", "inv(bern)", "--gamma", "chi", "--order", "6"],
            ["stirling", "first", "--n", "6", "--format", "csv"],
            ["example", "fibonacci", "--order", "6", "--format", "json"],
        ]
        for argv in invocations:
            outputs = []
            for _ in range(2):
                buf, err = io.StringIO(), io.StringIO()
                with redirect_stdout(buf), redirect_stderr(err):
                    code = main(argv + ["--workspace", str(tmp_path / "w.json")])
                assert code == 0, err.getvalue()
                outputs.append(buf.getvalue().encode())
            assert outputs[0] == outputs[1], argv

    _report(11, "parser round-trip corpus (220 exprs), 20 malformed positions, CLI determinism", check)
