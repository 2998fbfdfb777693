"""Exact rational scalars.

The scalar ring of the whole package is ``fractions.Fraction``: arbitrary
precision, always reduced, positive denominator.  This module only adds the
wire format used by the CLI and the workspace file: a rational serializes as
``"p/q"``, or ``"p"`` when the denominator is 1, and is parsed from exactly
that form (p may carry a sign).  A value whose numerator or denominator has
more decimal digits than Python converts to text
(``sys.get_int_max_str_digits()``, 4300 by default) raises OutputSizeError
before any conversion is tried.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

_RATIONAL = re.compile(r"(?P<p>[+-]?\d+)(?:/(?P<q>\d+))?")


class OutputSizeError(Exception):
    """A value too large to print: its numerator or denominator has more
    decimal digits than the interpreter's int-to-str limit."""


def int_str_limit() -> int:
    """The interpreter's int-to-str digit limit; 0 for an interpreter without one."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _check_digits(n: int, part: str) -> None:
    limit = int_str_limit()
    # More than `limit` digits means n >= 10^limit, so more than 3 * limit bits.
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10**limit:
        raise OutputSizeError(f"value too large to print: its {part} has more than {limit} digits")


def format_rational(value: Fraction | int) -> str:
    q = Fraction(value)
    _check_digits(q.numerator, "numerator")
    _check_digits(q.denominator, "denominator")
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"``, p with an optional sign, after stripping
    whitespace; raises ValueError on anything else (decimals, exponents and
    digit separators included) and on q = 0."""
    match = _RATIONAL.fullmatch(text.strip())
    if not match:
        raise ValueError(f"not a rational literal p/q: {text!r}")
    p, q = int(match["p"]), int(match["q"] or 1)
    if not q:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(p, q)
