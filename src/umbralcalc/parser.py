"""Tokenizer, recursive-descent parser and pretty-printer for umbral
expressions.

Grammar (three precedence levels, `.` groups to the right)::

    expr    := term (('+' | '-') term)*
    term    := postfix ('.' postfix)*          # right-folded: a.b.c = a.(b.c)
    postfix := primary ('^' INT | '^.' INT | PRIME)*
    primary := NAME | INT ['/' INT] | '-' primary
             | '(' expr ')' | KEYWORD '(' expr [',' expr] ')'

Keywords: inv (inverse umbra), cinv (compositional inverse), adj (adjoint),
d (derivative umbra), dsum/ddiff (disjoint sum/difference), bar (moment
shift).  `x` and `y` are the scalar indeterminates; a prime makes a fresh
uncorrelated copy (on a named atom it bumps the correlation label).
`a - b` abbreviates `a + inv(b)`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import UmbraSyntaxError
from .expressions import (
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
    Expr,
    Fresh,
    Indet,
    InverseDot,
    Power,
    ScalarMul,
    Sum,
)
from .rationals import format_rational

# Each keyword and the node it builds; the tokenizer, parser and printer all read these.
UNARY_KEYWORDS = {"inv": InverseDot, "cinv": CompInv, "adj": Adjoint, "d": Deriv, "bar": Bar}
BINARY_KEYWORDS = {"dsum": DisjointSum, "ddiff": DisjointDiff}
KEYWORDS = (*UNARY_KEYWORDS, *BINARY_KEYWORDS)
INDETERMINATES = ("x", "y")
RESERVED_NAMES = KEYWORDS + INDETERMINATES

_SIMPLE = {
    "+": "PLUS",
    "-": "MINUS",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "'": "PRIME",
    "/": "SLASH",
}


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    offset: int
    line: int
    column: int

    @property
    def end(self) -> int:
        return self.offset + len(self.lexeme)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg: str, at: int, at_line: int, at_col: int):
        raise UmbraSyntaxError(msg, at, at_line, at_col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start, sline, scol = i, line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "NAME"
            tokens.append(Token(kind, word, start, sline, scol))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            limit = getattr(sys, "get_int_max_str_digits", int)()  # int() = 0: no limit
            if limit and j - i > limit:
                err(f"integer literal longer than {limit} digits", start, sline, scol)
            tokens.append(Token("INT", text[i:j], start, sline, scol))
            col += j - i
            i = j
            continue
        if ch == "^":
            if i + 1 < n and text[i + 1] == ".":
                tokens.append(Token("CARETDOT", "^.", start, sline, scol))
                i += 2
                col += 2
            else:
                tokens.append(Token("CARET", "^", start, sline, scol))
                i += 1
                col += 1
            continue
        if ch == ".":
            if i + 1 < n and text[i + 1] == ".":
                err("illegal token '..'", start, sline, scol)
            tokens.append(Token("DOT", ".", start, sline, scol))
            i += 1
            col += 1
            continue
        if ch in _SIMPLE:
            tokens.append(Token(_SIMPLE[ch], ch, start, sline, scol))
            i += 1
            col += 1
            continue
        err(f"illegal character {ch!r}", start, sline, scol)
    tokens.append(Token("EOF", "", n, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
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
        raise UmbraSyntaxError(f"{msg}, found {shown!r}", tok.offset, tok.line, tok.column)

    # expr := term (('+'|'-') term)*
    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.term()
            span = (_start(node), _end(rhs))
            if op.kind == "PLUS":
                node = Sum(node, rhs, span=span)
            else:
                node = Sum(node, InverseDot(rhs, span=_span(rhs)), span=span)
        return node

    # term := postfix ('.' postfix)*, right-folded
    def term(self) -> Expr:
        parts = [self.postfix()]
        while self.peek().kind == "DOT":
            self.advance()
            parts.append(self.postfix())
        node = parts[-1]
        for left in reversed(parts[:-1]):
            node = Dot(left, node, span=(_start(left), _end(node)))
        return node

    # postfix := primary ('^' INT | '^.' INT | PRIME)*
    def postfix(self) -> Expr:
        node = self.primary()
        while True:
            tok = self.peek()
            if tok.kind == "CARET":
                self.advance()
                power = self.int_literal("an integer exponent")
                node = self.apply_power(node, power)
            elif tok.kind == "CARETDOT":
                self.advance()
                power = self.int_literal("an integer dot-power")
                node = DotPower(node, power.value, span=(_start(node), power.end))
            elif tok.kind == "PRIME":
                prime = self.advance()
                node = self.apply_prime(node, prime)
            else:
                return node

    @dataclass(frozen=True)
    class _Int:
        value: int
        end: int

    def int_literal(self, what: str) -> "_Parser._Int":
        tok = self.peek()
        if tok.kind != "INT":
            self.fail(f"expected {what}", tok)
        self.advance()
        return _Parser._Int(int(tok.lexeme), tok.end)

    def apply_power(self, node: Expr, power: "_Parser._Int") -> Expr:
        span = (_start(node), power.end)
        if isinstance(node, Indet):
            return Indet(node.var, node.power * power.value, span=span)
        return Power(node, power.value, span=span)

    def apply_prime(self, node: Expr, prime: Token) -> Expr:
        span = (_start(node), prime.end)
        if isinstance(node, Atom):
            return Atom(node.name, node.primes + 1, span=span)
        return Fresh(node, span=span)

    # primary := NAME | INT ['/' INT] | '-' primary | '(' expr ')' | KEYWORD '(' args ')'
    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NAME":
            self.advance()
            if tok.lexeme in INDETERMINATES:
                return Indet(tok.lexeme, 1, span=(tok.offset, tok.end))
            return Atom(tok.lexeme, 0, span=(tok.offset, tok.end))
        if tok.kind == "INT":
            self.advance()
            value = Fraction(int(tok.lexeme))
            end = tok.end
            if self.peek().kind == "SLASH":
                self.advance()
                den = self.peek()
                if den.kind != "INT":
                    self.fail("expected a denominator", den)
                self.advance()
                if int(den.lexeme) == 0:
                    self.fail("zero denominator", den)
                value = Fraction(int(tok.lexeme), int(den.lexeme))
                end = den.end
            return Const(value, span=(tok.offset, end))
        if tok.kind == "MINUS":
            self.advance()
            inner = self.primary()
            span = (tok.offset, _end(inner))
            if isinstance(inner, Const):
                return Const(-inner.value, span=span)
            return ScalarMul(Fraction(-1), inner, span=span)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "KEYWORD":
            return self.keyword_call(self.advance())
        self.fail("expected an expression", tok)

    def keyword_call(self, kw: Token) -> Expr:
        self.expect("LPAREN", "'(' after keyword")
        args = [self.expr()]
        if kw.lexeme in BINARY_KEYWORDS:
            self.expect("COMMA", "',' between arguments")
            args.append(self.expr())
        close = self.expect("RPAREN", "')'")
        cls = UNARY_KEYWORDS.get(kw.lexeme) or BINARY_KEYWORDS[kw.lexeme]
        return cls(*args, span=(kw.offset, close.end))


def _span(node: Expr):
    return getattr(node, "span", None)


def _start(node: Expr) -> int:
    span = _span(node)
    return span[0] if span else 0


def _end(node: Expr) -> int:
    span = _span(node)
    return span[1] if span else 0


def parse(text: str) -> Expr:
    """Parse an umbral expression; raises UmbraSyntaxError with position."""
    parser = _Parser(tokenize(text))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        parser.fail("unexpected trailing input", tok)
    return node


# ---------------------------------------------------------------------------
# Pretty printing (canonical surface form; parse(pretty_print(e)) == e)

_LEVEL_SUM = 1
_LEVEL_DOT = 2
_LEVEL_POSTFIX = 3
_LEVEL_PRIMARY = 4

_KEYWORD_OF = {cls: kw for kw, cls in {**UNARY_KEYWORDS, **BINARY_KEYWORDS}.items()}


def pretty_print(expr: Expr) -> str:
    return _render(expr, _LEVEL_SUM)


def _paren(text: str, level: int, minlevel: int) -> str:
    return f"({text})" if level < minlevel else text


def _render(expr: Expr, minlevel: int) -> str:
    if isinstance(expr, Atom):
        return expr.name + "'" * expr.primes
    if isinstance(expr, Indet):
        if expr.power == 1:
            return expr.var
        return _paren(f"{expr.var} ^ {expr.power}", _LEVEL_POSTFIX, minlevel)
    if isinstance(expr, Const):
        return format_rational(expr.value)
    if isinstance(expr, Sum):
        left = _render(expr.left, _LEVEL_SUM)
        if isinstance(expr.right, InverseDot):
            return _paren(f"{left} - {_render(expr.right.expr, _LEVEL_DOT)}", _LEVEL_SUM, minlevel)
        return _paren(f"{left} + {_render(expr.right, _LEVEL_DOT)}", _LEVEL_SUM, minlevel)
    if isinstance(expr, Dot):
        # Right-grouped chains print flat; a Dot on the left needs parens.
        left = _render(expr.left, _LEVEL_POSTFIX)
        right = _render(expr.right, _LEVEL_DOT)
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
        if isinstance(expr.expr, Indet) and expr.expr.power != 1:
            safe = False
        inner = _render(expr.expr, _LEVEL_SUM)
        if not (safe or type(expr.expr) in _KEYWORD_OF):
            inner = f"({inner})"  # a trailing prime would otherwise rebind
        return f"-{inner}"
    kw = _KEYWORD_OF.get(type(expr))
    if kw in UNARY_KEYWORDS:
        return f"{kw}({_render(expr.expr, _LEVEL_SUM)})"
    if kw in BINARY_KEYWORDS:
        return f"{kw}({_render(expr.left, _LEVEL_SUM)}, {_render(expr.right, _LEVEL_SUM)})"
    raise ValueError(f"no surface syntax for {type(expr).__name__}")
