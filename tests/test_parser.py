import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralcalc.errors import UmbraSyntaxError
from umbralcalc.expressions import (
    Adjoint,
    Atom,
    Bar,
    CompInv,
    Const,
    Deriv,
    DisjointDiff,
    DisjointSum,
    Dot,
    DotPower,
    Fresh,
    Indet,
    InverseDot,
    Power,
    ScalarMul,
    Sum,
)
from umbralcalc.parser import parse, pretty_print, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def test_tokenize_examples():
    assert kinds("x . adj(u)") == ["NAME", "DOT", "KEYWORD", "LPAREN", "NAME", "RPAREN", "EOF"]
    assert kinds("chi'") == ["NAME", "PRIME", "EOF"]
    assert kinds("bell ^. 2 ^ 3") == ["NAME", "CARETDOT", "INT", "CARET", "INT", "EOF"]
    assert kinds("1/2") == ["INT", "SLASH", "INT", "EOF"]


def test_tokens_are_lossless():
    src = "x . adj( u )' + 3/4 ^. 2 - d(bell)\n , ()"
    for tok in tokenize(src):
        assert src[tok.offset : tok.offset + len(tok.lexeme)] == tok.lexeme


def test_token_positions():
    toks = tokenize("ab +\n  chi")
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (1, 4)
    assert (toks[2].line, toks[2].column) == (2, 3)


def test_parse_shapes():
    assert parse("x . bell") == Dot(Indet("x"), Atom("bell"))
    assert parse("chi ^ 2 + u") == Sum(Power(Atom("chi"), 2), Atom("u"))
    assert parse("x . b . a") == Dot(Indet("x"), Dot(Atom("b"), Atom("a")))
    assert parse("(-1 . bern + x . u) . adj(chi)") == Dot(
        Sum(Dot(Const(F(-1)), Atom("bern")), Dot(Indet("x"), Atom("u"))),
        Adjoint(Atom("chi")),
    )
    assert parse("a - b") == Sum(Atom("a"), InverseDot(Atom("b")))
    assert parse("1/2 . u") == Dot(Const(F(1, 2)), Atom("u"))
    assert parse("bell ^. 2") == DotPower(Atom("bell"), 2)
    assert parse("dsum(u, chi)") == DisjointSum(Atom("u"), Atom("chi"))
    assert parse("ddiff(u, chi)") == DisjointDiff(Atom("u"), Atom("chi"))
    assert parse("cinv(adj(d(bar(u))))") == CompInv(Adjoint(Deriv(Bar(Atom("u")))))
    assert parse("chi''") == Atom("chi", 2)
    assert parse("(x . u)'") == Fresh(Dot(Indet("x"), Atom("u")))
    assert parse("x ^ 3") == Indet("x", 3)
    assert parse("-(x . u)") == ScalarMul(F(-1), Dot(Indet("x"), Atom("u")))
    assert parse("-3") == Const(F(-3))


def test_spans_nest():
    ast = parse("(x + y) . adj(u)")
    assert ast.span == (1, 16)  # starts at the left operand inside the parens
    assert ast.left.span == (1, 6)
    assert ast.right.span == (10, 16)
    # spans nest: children lie inside their parent
    assert ast.left.span[0] >= ast.span[0] and ast.left.span[1] <= ast.span[1]
    assert ast.right.span[0] >= ast.span[0] and ast.right.span[1] <= ast.span[1]


MALFORMED = [
    ("3 .. u", 1, 3),
    ("", 1, 1),
    ("x .", 1, 4),
    ("x + ", 1, 5),
    ("(x + u", 1, 7),
    ("x + u)", 1, 6),
    ("adj u", 1, 5),
    ("adj(u", 1, 6),
    ("dsum(u)", 1, 7),
    ("dsum(u,)", 1, 8),
    ("x ^ y", 1, 5),
    ("x ^. y", 1, 6),
    ("x ^", 1, 4),
    ("1/0", 1, 3),
    ("1/", 1, 3),
    ("u @ chi", 1, 3),
    ("chi . . u", 1, 7),
    (". u", 1, 1),
    ("x y", 1, 3),
    ("inv()", 1, 5),
]

# An integer literal longer than the interpreter converts (4300 digits by
# default) is a syntax error at its first digit.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()  # int() = 0: no limit
if _DIGIT_LIMIT:
    _LONG = "7" * (_DIGIT_LIMIT + 1)
    MALFORMED += [
        pytest.param(f"{_LONG} . u", 1, 1, id="long-literal-dot"),
        pytest.param(f"u^{_LONG}", 1, 3, id="long-literal-exponent"),
    ]


@pytest.mark.parametrize("text,line,column", MALFORMED)
def test_malformed_inputs_have_stable_positions(text, line, column):
    with pytest.raises(UmbraSyntaxError) as exc_info:
        parse(text)
    err = exc_info.value
    assert (err.line, err.column) == (line, column), str(err)


# ---------------------------------------------------------------------------
# Generated round-trip corpus

_names = st.sampled_from(["u", "chi", "bell", "bern", "ubar", "uinv", "alpha", "g2"])
_consts = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def _leaf():
    return st.one_of(
        st.builds(lambda n: Atom(n), _names),
        st.builds(lambda n, p: Atom(n, p), _names, st.integers(1, 2)),
        st.builds(lambda v: Const(v), _consts),
        st.builds(lambda k: Indet("x", k), st.integers(1, 3)),
        st.builds(lambda k: Indet("y", k), st.integers(1, 3)),
    )


def _extend(children):
    unary = st.one_of(
        st.builds(InverseDot, children),
        st.builds(CompInv, children),
        st.builds(Adjoint, children),
        st.builds(Deriv, children),
        st.builds(Bar, children),
        # '^' on an indeterminate folds into the node, as the parser does
        st.builds(
            lambda e, n: Indet(e.var, e.power * n) if isinstance(e, Indet) else Power(e, n),
            children,
            st.integers(0, 4),
        ),
        st.builds(lambda e, n: DotPower(e, n), children, st.integers(0, 4)),
        st.builds(lambda e: Fresh(e) if not isinstance(e, Atom) else Atom(e.name, e.primes + 1), children),
        # unary minus folds into constants, as the parser does
        st.builds(
            lambda e: Const(-e.value) if isinstance(e, Const) else ScalarMul(F(-1), e), children
        ),
    )
    binary = st.one_of(
        st.builds(Sum, children, children),
        st.builds(lambda a, b: Sum(a, InverseDot(b)), children, children),
        st.builds(Dot, children, children),
        st.builds(DisjointSum, children, children),
        st.builds(DisjointDiff, children, children),
    )
    return st.one_of(unary, binary)


expressions = st.recursive(_leaf(), _extend, max_leaves=12)


@settings(max_examples=250, deadline=None)
@given(expressions)
def test_round_trip_generated_corpus(ast):
    text = pretty_print(ast)
    assert parse(text) == ast, text


@settings(max_examples=100, deadline=None)
@given(expressions)
def test_pretty_is_canonical_fixed_point(ast):
    text = pretty_print(ast)
    assert pretty_print(parse(text)) == text


def test_canonical_forms():
    assert pretty_print(parse("2/4 . u")) == "1/2 . u"
    assert pretty_print(parse("x . (b . a)")) == "x . b . a"
    assert pretty_print(parse("(a . b) . c")) == "(a . b) . c"
    assert pretty_print(parse("a + (b + c)")) == "a + (b + c)"
    assert pretty_print(parse("a - b - c")) == "a - b - c"


def test_reserved_names_stay_reserved():
    # keywords parse as calls, never as atoms
    with pytest.raises(UmbraSyntaxError):
        parse("inv + u")
    assert parse("x") == Indet("x", 1)
    assert parse("y") == Indet("y", 1)


def test_scalar_mul_without_surface_syntax_raises():
    from umbralcalc.expressions import Product, ScalarMul

    with pytest.raises(ValueError):
        pretty_print(ScalarMul(F(2), Atom("u")))
    with pytest.raises(ValueError):
        pretty_print(Product(Atom("u"), Atom("chi")))
