import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralcalc.errors import UmbraSyntaxError
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
)
from umbralcalc.parser import parse, pretty_print, tokenize

from oracles import tokenize as scan_characters


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


def test_parse_shapes():
    assert parse("x . bell") == Dot(Indet("x"), Atom("bell"))
    assert parse("chi ^ 2 + u") == Sum(Power(Atom("chi"), 2), Atom("u"))
    assert parse("x . b . a") == Dot(Dot(Indet("x"), Atom("b")), Atom("a"))
    assert parse("(-1 . bern + x . u) . adj(chi)") == Dot(
        Sum(Dot(Const(F(-1)), Atom("bern")), Dot(Indet("x"), Atom("u"))),
        Call("adj", (Atom("chi"),)),
    )
    assert parse("a - b") == Sum(Atom("a"), Call("inv", (Atom("b"),)))
    assert parse("1/2 . u") == Dot(Const(F(1, 2)), Atom("u"))
    assert parse("bell ^. 2") == DotPower(Atom("bell"), 2)
    assert parse("dsum(u, chi)") == Call("dsum", (Atom("u"), Atom("chi")))
    assert parse("ddiff(u, chi)") == Call("ddiff", (Atom("u"), Atom("chi")))
    nested = Call("cinv", (Call("adj", (Call("d", (Call("bar", (Atom("u"),)),)),)),))
    assert parse("cinv(adj(d(bar(u))))") == nested
    assert parse("chi''") == Atom("chi", 2)
    assert parse("(x . u)'") == Fresh(Dot(Indet("x"), Atom("u")))
    assert parse("x ^ 3") == Power(Indet("x"), 3)
    assert parse("-(x . u)") == ScalarMul(F(-1), Dot(Indet("x"), Atom("u")))
    assert parse("-3") == Const(F(-3))


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
    # positions past a newline: the column restarts at 1 on each line
    pytest.param("ab +\n  @chi", 2, 3, id="line-2-illegal-character"),
    pytest.param("u .\n  chi ..\n u", 2, 7, id="line-2-double-dot"),
    pytest.param("x +\n\n  . u", 3, 3, id="line-3-expected-an-expression"),
    pytest.param("u +\r\n\tbell )", 2, 7, id="line-2-after-cr-and-tab"),
    pytest.param("(u\n + chi", 2, 7, id="line-2-end-of-input"),
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
# The token pattern against the character scanner it replaced

_fragments = st.one_of(
    st.sampled_from(["u", "chi", "x", "inv", "dsum", "a1", "_b", "12", "0", " ", "  "]),
    st.sampled_from(["^.", "^", ".", "..", "+", "-", "(", ")", ",", "'", "/", "@", "\n", "\r", "\t"]),
    # Unicode letters, digits, non-decimal numerics, a combining mark, a space
    st.sampled_from(["é", "ß", "a²", "²", "Ⅻ", "℘", "٣", "e\u0301", "\u3000", "_²"]),
    st.text(max_size=3),
    *([st.just(_LONG)] if _DIGIT_LIMIT else []),
)
# A fragment list, repeated so that some texts pass the token bound.
_texts = st.builds(lambda parts, k: "".join(parts) * k, st.lists(_fragments, max_size=30), st.integers(1, 40))


def _scanned(tokens) -> list[tuple]:
    return [(t.kind, t.lexeme, t.offset) for t in tokens]


def _error(err: UmbraSyntaxError) -> tuple:
    return (err.message, err.offset, err.line, err.column)


# The documented bound on the tokens of an expression, EOF aside.
_BOUND = 200


def _expected(text: str):
    """What the character scanner makes of ``text``, with the token bound
    applied: a text whose token _BOUND + 1 comes before any error is refused
    at that token."""
    error = None
    try:
        tokens = scan_characters(text)
    except UmbraSyntaxError as err:
        error, tokens = _error(err), scan_characters(text[: err.offset])
    if len(tokens) - 1 > _BOUND:
        tok = tokens[_BOUND]
        return (f"expression longer than {_BOUND} tokens", tok.offset, tok.line, tok.column)
    return error or _scanned(tokens)


@settings(max_examples=2000, deadline=None)
@given(_texts)
@example("u " * _BOUND)
@example("u\n" * _BOUND + "u")
@example("u\n" * _BOUND + "..")
def test_tokenize_agrees_with_character_scanner(text):
    try:
        got = _scanned(tokenize(text))
    except UmbraSyntaxError as err:
        got = _error(err)
    assert got == _expected(text)


# ---------------------------------------------------------------------------
# Generated round-trip corpus

_names = st.sampled_from(["u", "chi", "bell", "bern", "ubar", "uinv", "alpha", "g2"])
_consts = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def _leaf():
    return st.one_of(
        st.builds(lambda n: Atom(n), _names),
        st.builds(lambda n, p: Atom(n, p), _names, st.integers(1, 2)),
        st.builds(lambda v: Const(v), _consts),
        st.builds(lambda v, k: Indet(v) if k == 1 else Power(Indet(v), k), st.sampled_from("xy"), st.integers(1, 3)),
    )


def _extend(children):
    # a keyword drawn from OPERATIONS, with as many arguments as its arity
    calls = st.sampled_from(list(OPERATIONS)).flatmap(
        lambda op: st.tuples(*[children] * OPERATIONS[op][1]).map(lambda args: Call(op, args))
    )
    unary = st.one_of(
        st.builds(Power, children, st.integers(0, 4)),
        st.builds(lambda e, n: DotPower(e, n), children, st.integers(0, 4)),
        st.builds(lambda e: Fresh(e) if not isinstance(e, Atom) else Atom(e.name, e.primes + 1), children),
        # unary minus folds into constants, as the parser does
        st.builds(
            lambda e: Const(-e.value) if isinstance(e, Const) else ScalarMul(F(-1), e), children
        ),
    )
    binary = st.one_of(
        st.builds(Sum, children, children),
        st.builds(lambda a, b: Sum(a, Call("inv", (b,))), children, children),
        st.builds(Dot, children, children),
    )
    return st.one_of(calls, unary, binary)


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
    assert pretty_print(parse("(a . b) . c")) == "a . b . c"
    assert pretty_print(parse("a . (b . c)")) == "a . (b . c)"
    assert pretty_print(parse("x ^ 2 ^ 3")) == "x ^ 2 ^ 3"
    assert pretty_print(parse("a + (b + c)")) == "a + (b + c)"
    assert pretty_print(parse("a - b - c")) == "a - b - c"


def test_reserved_names_stay_reserved():
    # keywords parse as calls, never as atoms
    with pytest.raises(UmbraSyntaxError):
        parse("inv + u")
    assert parse("x") == Indet("x")
    assert parse("y") == Indet("y")


def test_docs_name_exactly_the_operations():
    # The KEYWORD production of the grammar and the README's "Keywords:"
    # sentence list the keys of the one table the parser reads.
    root = Path(__file__).resolve().parents[1]
    grammar = (root / "docs" / "grammar.ebnf").read_text(encoding="utf-8")
    production = re.search(r"^KEYWORD\s*=(.*?);", grammar, re.M | re.S).group(1)
    assert sorted(re.findall(r'"(\w+)"', production)) == sorted(OPERATIONS)
    readme = (root / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Keywords:(.*?)\.\s", readme, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)\(", sentence)) == sorted(OPERATIONS)


def test_docs_say_dot_groups_to_the_left():
    # The README's grammar block and docs/grammar.ebnf describe the `term`
    # rule as the parser builds it.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    term = re.search(r"^\s*term\s*:?=.*$", readme, re.M).group(0)
    assert "left" in term and "right" not in term, term
    grammar = (root / "docs" / "grammar.ebnf").read_text(encoding="utf-8")
    assert "chains to the left" in grammar and "to the right" not in grammar
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert parse("a . b . c") == Dot(Dot(a, b), c)


def test_scalar_mul_without_surface_syntax_raises():
    from umbralcalc.expressions import ScalarMul

    with pytest.raises(ValueError):
        pretty_print(ScalarMul(F(2), Atom("u")))
