"""Tokenizer, recursive-descent parser and pretty-printer for umbral
expressions.

Grammar (three precedence levels; `.`, `+` and `-` group to the left)::

    expr    := term (('+' | '-') term)*
    term    := postfix ('.' postfix)*          # left-folded: a.b.c = (a.b).c
    postfix := primary ('^' INT | '^.' INT | PRIME)*
    primary := NAME | INT ['/' INT] | '-' primary
             | '(' expr ')' | KEYWORD '(' expr [',' expr] ')'

The keywords and their arities are the keys of ``expressions.OPERATIONS``;
a keyword call parses to one ``Call`` node.  `x` and `y` are the scalar
indeterminates; a prime makes a fresh uncorrelated copy (on a named atom it
bumps the correlation label).  `a - b` abbreviates `a + inv(b)`.  Each
operator builds one node kind: every `^` a ``Power`` (on x and y too) and
every `.` a ``Dot``.  The dot product is associative, so the grouping of a
chain changes no moment, only the cost; a chain is evaluated as written.

``tokenize`` reads one token pattern at a time (see ``docs/grammar.ebnf``
for the Unicode classes) and refuses an expression of more than MAX_TOKENS
tokens.  A token keeps only its offset; an error works out its line and
column from the text.  The AST records no source positions.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import UmbraSyntaxError
from .expressions import (
    OPERATIONS,
    Atom,
    Call,
    Const,
    Dot,
    DotPower,
    Expr,
    Fresh,
    Indet,
    Power,
    ScalarMul,
    Sum,
)
from .rationals import format_rational, int_str_limit
from .records import Record

KEYWORDS = tuple(OPERATIONS)
INDETERMINATES = ("x", "y")
RESERVED_NAMES = KEYWORDS + INDETERMINATES

# Each token in one pattern: an integer, a word, an operator (``^.`` and
# ``..`` ahead of their first character) or whitespace.  On ``str`` these
# classes are isdecimal(), isalnum() or "_", and isspace().
_TOKEN = re.compile(r"(?P<INT>\d+)|(?P<WORD>\w+)|(?P<OP>\^\.|\.\.|[-+(),'/^.])|(?P<SPACE>\s+)")
_OPERATORS = {
    "^.": "CARETDOT", "^": "CARET", ".": "DOT", "+": "PLUS", "-": "MINUS",
    "(": "LPAREN", ")": "RPAREN", ",": "COMMA", "'": "PRIME", "/": "SLASH",
}

# The most tokens an expression may have (EOF aside).  It keeps every nesting
# the grammar allows well inside the interpreter's recursion limit, for the
# parser, the printer and the evaluator alike.
MAX_TOKENS = 200


class Token(Record):
    __slots__ = ("kind", "lexeme", "offset")


def _syntax_error(message: str, text: str, offset: int) -> UmbraSyntaxError:
    """The error at ``offset`` of ``text``, with its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return UmbraSyntaxError(message, offset, line, offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m or m.lastgroup == "WORD" and not (text[i].isalpha() or text[i] == "_"):
            raise _syntax_error(f"illegal character {text[i]!r}", text, i)
        lexeme, i = m.group(), m.end()
        if m.lastgroup == "SPACE":
            continue
        if lexeme == "..":
            raise _syntax_error("illegal token '..'", text, m.start())
        if m.lastgroup == "INT":
            limit = int_str_limit()
            if limit and len(lexeme) > limit:
                raise _syntax_error(f"integer literal longer than {limit} digits", text, m.start())
        if len(tokens) == MAX_TOKENS:
            raise _syntax_error(f"expression longer than {MAX_TOKENS} tokens", text, m.start())
        if m.lastgroup == "WORD":
            kind = "KEYWORD" if lexeme in KEYWORDS else "NAME"
        else:
            kind = _OPERATORS.get(lexeme, m.lastgroup)
        tokens.append(Token(kind, lexeme, m.start()))
    tokens.append(Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what}", tok)
        return self.advance()

    def fail(self, msg: str, tok: Token):
        shown = tok.lexeme if tok.kind != "EOF" else "end of input"
        raise _syntax_error(f"{msg}, found {shown!r}", self.text, tok.offset)

    # expr := term (('+'|'-') term)*
    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            minus = self.advance().kind == "MINUS"
            rhs = self.term()
            node = Sum(node, Call("inv", (rhs,)) if minus else rhs)
        return node

    # term := postfix ('.' postfix)*
    def term(self) -> Expr:
        node = self.postfix()
        while self.peek().kind == "DOT":
            self.advance()
            node = Dot(node, self.postfix())
        return node

    # postfix := primary ('^' INT | '^.' INT | PRIME)*
    def postfix(self) -> Expr:
        node = self.primary()
        while True:
            kind = self.peek().kind
            if kind == "CARET":
                self.advance()
                node = Power(node, int(self.expect("INT", "an integer exponent").lexeme))
            elif kind == "CARETDOT":
                self.advance()
                node = DotPower(node, int(self.expect("INT", "an integer dot-power").lexeme))
            elif kind == "PRIME":
                self.advance()
                node = Atom(node.name, node.primes + 1) if isinstance(node, Atom) else Fresh(node)
            else:
                return node

    # primary := NAME | INT ['/' INT] | '-' primary | '(' expr ')' | KEYWORD '(' args ')'
    def primary(self) -> Expr:
        tok = self.advance()
        if tok.kind == "NAME":
            return Indet(tok.lexeme) if tok.lexeme in INDETERMINATES else Atom(tok.lexeme)
        if tok.kind == "INT":
            if self.peek().kind != "SLASH":
                return Const(Fraction(int(tok.lexeme)))
            self.advance()
            den = self.expect("INT", "a denominator")
            if int(den.lexeme) == 0:
                self.fail("zero denominator", den)
            return Const(Fraction(int(tok.lexeme), int(den.lexeme)))
        if tok.kind == "MINUS":
            inner = self.primary()
            return Const(-inner.value) if isinstance(inner, Const) else ScalarMul(Fraction(-1), inner)
        if tok.kind == "LPAREN":
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "KEYWORD":
            self.expect("LPAREN", "'(' after keyword")
            args = [self.expr()]
            for _ in range(1, OPERATIONS[tok.lexeme][1]):
                self.expect("COMMA", "',' between arguments")
                args.append(self.expr())
            self.expect("RPAREN", "')'")
            return Call(tok.lexeme, tuple(args))
        self.fail("expected an expression", tok)


def parse(text: str) -> Expr:
    """Parse an umbral expression; raises UmbraSyntaxError with position."""
    parser = _Parser(text)
    node = parser.expr()
    if parser.peek().kind != "EOF":
        parser.fail("unexpected trailing input", parser.peek())
    return node


# ---------------------------------------------------------------------------
# Pretty printing (canonical surface form; parse(pretty_print(e)) == e)

_LEVEL_SUM = 1
_LEVEL_DOT = 2
_LEVEL_POSTFIX = 3
_LEVEL_PRIMARY = 4


def pretty_print(expr: Expr) -> str:
    return _render(expr, _LEVEL_SUM)


def _paren(text: str, level: int, minlevel: int) -> str:
    return f"({text})" if level < minlevel else text


def _render(expr: Expr, minlevel: int) -> str:
    if isinstance(expr, Atom):
        return expr.name + "'" * expr.primes
    if isinstance(expr, Indet):
        return expr.var
    if isinstance(expr, Const):
        return format_rational(expr.value)
    if isinstance(expr, Sum):
        left = _render(expr.left, _LEVEL_SUM)
        if isinstance(expr.right, Call) and expr.right.op == "inv":
            return _paren(f"{left} - {_render(expr.right.args[0], _LEVEL_DOT)}", _LEVEL_SUM, minlevel)
        return _paren(f"{left} + {_render(expr.right, _LEVEL_DOT)}", _LEVEL_SUM, minlevel)
    if isinstance(expr, Dot):
        # Left-grouped chains print flat; a Dot on the right needs parens.
        left = _render(expr.left, _LEVEL_DOT)
        right = _render(expr.right, _LEVEL_POSTFIX)
        return _paren(f"{left} . {right}", _LEVEL_DOT, minlevel)
    if isinstance(expr, Power):
        return _paren(f"{_render(expr.expr, _LEVEL_POSTFIX)} ^ {expr.power}", _LEVEL_POSTFIX, minlevel)
    if isinstance(expr, DotPower):
        return _paren(f"{_render(expr.expr, _LEVEL_POSTFIX)} ^. {expr.power}", _LEVEL_POSTFIX, minlevel)
    if isinstance(expr, Fresh):
        inner = _render(expr.expr, _LEVEL_PRIMARY)
        if not inner.startswith("("):
            inner = f"({inner})"
        return f"{inner}'"
    if isinstance(expr, ScalarMul):
        if expr.scalar != -1:
            raise ValueError("no surface syntax for a general scalar multiple")
        if isinstance(expr.expr, Const):
            return format_rational(-expr.expr.value)
        safe = isinstance(expr.expr, (Atom, Indet)) and getattr(expr.expr, "primes", 0) == 0
        inner = _render(expr.expr, _LEVEL_SUM)
        if not (safe or isinstance(expr.expr, Call)):
            inner = f"({inner})"  # a trailing prime would otherwise rebind
        return f"-{inner}"
    if isinstance(expr, Call) and expr.op in OPERATIONS:
        return f"{expr.op}({', '.join(_render(a, _LEVEL_SUM) for a in expr.args)})"
    raise ValueError(f"no surface syntax for {type(expr).__name__}")
