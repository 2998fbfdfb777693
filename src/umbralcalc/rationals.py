"""Exact rational scalars.

The scalar ring of the whole package is ``fractions.Fraction``: arbitrary
precision, always reduced, positive denominator.  This module only adds the
wire format used by the CLI and the workspace file: a rational serializes as
``"p/q"``, or ``"p"`` when the denominator is 1.
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(value: Fraction | int) -> str:
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"``; raises ValueError on anything else, q = 0 included."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
