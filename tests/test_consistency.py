"""Every run-time self-check raises ConsistencyError when one of its routes is
off: each case patches one route so that it is wrong at a chosen entry and
asserts the check name, the entry n and the first differing monomial (the
second-kind Stirling triangle is forced off in test_sequences).  The CLI maps
the error to exit 4 with one stderr line and nothing on stdout."""

import ast
import itertools
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralcalc import sequences, sheffer
from umbralcalc.cli import main
from umbralcalc.errors import ConsistencyError
from umbralcalc.poly import X, Y
from umbralcalc.sheffer import PolySequence, connection_constants, poisson_charlier_pair, sheffer_moments
from umbralcalc.umbra import Umbra, scalar_multiple, unity

from test_properties import fractions as scalars, sheffer_pairs

N = 6


def _bumped(value, n, delta):
    if isinstance(value, Umbra):
        return Umbra(_bumped(value.moments, n, delta), name=value.name)
    if isinstance(value, PolySequence):
        return PolySequence(_bumped(value.polys, n, delta))
    if isinstance(value, (tuple, list)):
        out = list(value)
        out[n] = out[n] + delta
        return type(value)(out)
    return value + delta  # a scalar result has no entries


def off(n, call=None, delta=1):
    """Patch a function so that entry n of its result (on its call number
    ``call`` only, if given) is off by ``delta``."""

    def patch(fn):
        calls = itertools.count()

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            return _bumped(result, n, delta) if call in (None, next(calls)) else result

        return wrapped

    return patch


def off_at(entry):
    """Patch a function of (n, k) so that its value at ``entry`` is off by 1."""
    return lambda fn: lambda n, k: fn(n, k) + ((n, k) == entry)


PC2, PC1 = poisson_charlier_pair(2, N), poisson_charlier_pair(1, N)
BACKWARD = partial(sequences.recurrence_example_backward, N)
FIBONACCI = partial(sequences.recurrence_example_fibonacci, N)

# id: (module, name, patch, call, check, n, monomial)
CASES = {
    # sheffer: moment 3 of 1/f(alpha, r) off by 1, so s_3 gains 1.
    "sheffer": (
        sheffer, "egf_reciprocal", off(3), lambda: sheffer_moments(PC1),
        "sheffer moments vs series", 3, "1"),
    # identity checks: the convolution's entry 3 off by 1; q_2(y) off by 1;
    # s_3(g + x.u) off (the third substitution, after q(y) and s(x + y)); the
    # Appell p_3 off by x (so p_3(x+y) and p_3(x) differ by y); moment 2 of
    # 1.u + x.u off.
    "binomial-identity": (
        sheffer, "egf_mul", off(3), lambda: sheffer.check_binomial_identity(unity(N)),
        "binomial", 3, "1"),
    "sheffer-identity": (
        sheffer, "_x_to_y", off(2), lambda: sheffer.check_sheffer_identity(PC1),
        "sheffer", 2, "1"),
    "sheffer-derivative": (
        sheffer, "substitute", off(3, call=2), lambda: sheffer.check_sheffer_identity(PC1),
        "sheffer-derivative", 3, "1"),
    "appell-identity": (
        sheffer, "appell_moments", off(3, delta=X), lambda: sheffer.check_appell_identity(unity(N)),
        "appell", 3, "y"),
    "abel-identity": (
        sequences, "with_x_shift", off(2, call=1), lambda: sequences.abel_identity_check(unity(N), N),
        "abel", 3, "y"),
    # the source table's s_3 gains y (call 0; call 1 is the target table).
    "triangular-residue": (
        sheffer, "_sheffer_table", off(3, delta=Y, call=0), lambda: connection_constants(PC2, PC1),
        "triangular expansion residue", 3, "y"),
    "connection-constants": (
        sheffer, "umbral_sum", off(3), lambda: connection_constants(PC2, PC1),
        "connection constants formula vs solve", 3, "1"),
    # the target table's r_3 off by 1 after its own two-route check passed
    # (call 0 is the source table): row 3's expansion gains c_(3,3).
    "connection-target-table": (
        sheffer, "_sheffer_table", off(3, call=1), lambda: connection_constants(PC2, PC1),
        "connection constants formula vs solve", 3, "1"),
    "lagrange": (
        sequences, "comp_inverse", off(3),
        lambda: sequences.lagrange_inversion_general(scalar_multiple(2, unity(N)), 3),
        "lagrange inversion vs reversion", 3, "1"),
    "stirling-first": (
        sequences, "stirling_first_classical", off_at((4, 2)), lambda: sequences.stirling_triangle("first", N),
        "stirling first table vs triangle", 4, "x^2"),
    "poisson-charlier": (
        sequences, "binomial_row", off(3), lambda: sequences.poisson_charlier_sequence(N, 1),
        "poisson-charlier table vs closed form", 3, "1"),
    "abel-expansion": (
        sequences, "abel_polynomials", off(3), lambda: sequences.polynomial_expand_abel(X**3, unity(N)),
        "abel expansion reconstructs the polynomial", 3, "1"),
    "bell-expansion": (
        sequences, "bell_umbra", off(3), lambda: sequences.bell_expansion(unity(N), 3),
        "bell expansion dot chain vs sum", 3, "x"),
    # bernoulli-diff: s_3 divided by 3! + 1; the integral E[s_2(-1.bern)] off.
    "bernoulli-difference": (
        sequences, "factorial", off(0, call=3), lambda: sequences.recurrence_example_bernoulli(N),
        "forward difference s_n(x+1) - s_n(x) = s_{n-1}(x)", 3, "1"),
    "bernoulli-integral": (
        sequences, "substitute", off(2), lambda: sequences.recurrence_example_bernoulli(N),
        "unit integral over [0,1]", 2, "1"),
    # backward-diff: the closed route's ubar off at moment 3; the last shared
    # row C(x+N-1, 0) off by x (both routes still agree, the difference does
    # not) or by 1 (only the initial condition sees it); the check's own
    # Fibonacci numbers off; chi off at moment 2, so chi_D is off at 3.
    "backward-routes": (
        sequences, "ubar_umbra", off(3, call=0), BACKWARD,
        "closed form equals initial-condition expansion", 3, "1"),
    "backward-difference": (
        sequences, "binomial_row", off(0, call=N, delta=X), BACKWARD,
        "backward difference s_n(x) - s_n(x-1) = s_{n-1}(x)", N, "1"),
    "backward-initial": (
        sequences, "binomial_row", off(0, call=N), BACKWARD,
        "initial condition on the shifted diagonal", N, "1"),
    "backward-gf": (
        sequences, "fibonacci_numbers", off(3, call=1), BACKWARD,
        "f(fib_bar, t) (1 - t - t^2) = 1", 3, "1"),
    "backward-chain": (
        sequences, "singleton", off(2), BACKWARD,
        "ubar.bell.chi_D has the shifted-Fibonacci moments", 3, "1"),
    # fibonacci: G_3(x + 1) off by 1; G_3(0) off; (x)_3 off in the umbral route
    # (the second dot: the first is the solver's w.bell.g).
    "fibonacci-recurrence": (
        sheffer, "substitute", off(3), FIBONACCI,
        "shifted recurrence G_n(x+1) = G_n(x) + G_{n-1}(x)", 3, "1"),
    "fibonacci-diagonal": (
        sequences, "substitute", off(3), FIBONACCI,
        "diagonal G_n(0) = Fib(n)", 3, "1"),
    "fibonacci-umbral": (
        sequences, "dot", off(3, call=1), FIBONACCI,
        "umbral closed form (fib_bar + x.chi)^n / n!", 3, "1"),
}


@pytest.mark.parametrize("case", CASES)
def test_off_route_raises_consistency_error(monkeypatch, case):
    module, name, patch, call, check, n, monomial = CASES[case]
    call()  # passes unpatched
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    with pytest.raises(ConsistencyError) as info:
        call()
    err = info.value
    assert (err.check, err.n, err.monomial) == (check, n, monomial)
    assert err.lhs != err.rhs
    assert str(err) == (
        f"self-check '{check}' failed at n = {n}: coefficient of {monomial} is {err.lhs}, expected {err.rhs}"
    )


def _pairs(order):
    """A Poisson-Charlier pair or a random Sheffer pair at ``order``."""
    pc = scalars.filter(bool).map(lambda a: poisson_charlier_pair(a, order))
    return st.one_of(pc, sheffer_pairs(order))


def _entries(order):
    """(n, k) with 0 <= k <= n <= order."""
    return st.integers(0, order).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(lambda order: st.tuples(_pairs(order), _pairs(order), _entries(order))))
def test_bumped_connection_constant_fails_its_row(case):
    """c_(n,k) of the formula route off by 1 (the third egf_appell_over,
    after the two Sheffer tables' moment routes, returns the change-of-basis
    moments sum_k c_(n,k) x^k) fails the substitution check at row n."""
    frm, to, (n, k) = case
    connection_constants(frm, to)  # passes unpatched
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sheffer, "egf_appell_over", off(n, call=2, delta=X**k)(sheffer.egf_appell_over))
        with pytest.raises(ConsistencyError) as info:
            connection_constants(frm, to)
    assert (info.value.check, info.value.n) == ("connection constants formula vs solve", n)


@pytest.mark.parametrize(
    "module, name, argv, check",
    [
        (sheffer, "umbral_sum",
         ["connect", "--from-alpha", "2 . bell", "--from-gamma", "chi . (2 . bell)",
          "--to-alpha", "1 . bell", "--to-gamma", "chi . (1 . bell)", "--order", "4"],
         "connection constants formula vs solve"),
        (sequences, "substitute",
         ["example", "fibonacci", "--order", "4", "--format", "json"],
         "diagonal G_n(0) = Fib(n)"),
    ],
    ids=["connect", "example"],
)
def test_cli_failed_self_check_exits_4(monkeypatch, capsys, tmp_path, module, name, argv, check):
    monkeypatch.setattr(module, name, off(3)(getattr(module, name)))
    assert main(argv + ["--workspace", str(tmp_path / "umbrae.json")]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"umbra: consistency error: self-check '{check}' failed at n = 3: coefficient of 1 is ")


def test_message_of_a_value_too_large_to_print():
    """A failed check still prints one message when a coefficient has more
    digits than Python converts to text."""
    big = Fraction(10**5000, 3)
    exc = ConsistencyError("c", 2, "x", big, Fraction(1, 2))
    assert str(exc) == (
        "self-check 'c' failed at n = 2: coefficient of x is "
        f"<value too large to print: its numerator has more than {sys.get_int_max_str_digits()} digits>, "
        "expected 1/2"
    )


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "umbralcalc"

# The literal check names each module passes to require_equal; ``name`` and
# ``functional`` are the names that the shared check helpers are handed.
CHECK_SITES = {
    "sheffer.py": (5, {"sheffer moments vs series", "triangular expansion residue",
                       "connection constants formula vs solve"}),
    "sequences.py": (13, {"lagrange inversion vs reversion", "poisson-charlier table vs closed form",
                          "abel expansion reconstructs the polynomial", "bell expansion dot chain vs sum",
                          "closed form equals initial-condition expansion",
                          "initial condition on the shifted diagonal", "f(fib_bar, t) (1 - t - t^2) = 1",
                          "ubar.bell.chi_D has the shifted-Fibonacci moments",
                          "umbral closed form (fib_bar + x.chi)^n / n!", "abel"}),
}


def require_equal_calls(source: str) -> list[ast.Call]:
    """The calls of ``require_equal`` by name in ``source``."""
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "require_equal"]


@pytest.mark.parametrize("module", CHECK_SITES)
def test_every_two_route_check_stays(module):
    """No run-time check of the Sheffer and sequence layers is dropped: each
    module keeps at least its call sites of ``require_equal`` and every
    check name it passes as a literal."""
    least, names = CHECK_SITES[module]
    calls = require_equal_calls((PACKAGE / module).read_text())
    assert len(calls) >= least
    literals = {call.args[0].value for call in calls if isinstance(call.args[0], ast.Constant)}
    assert names <= literals
