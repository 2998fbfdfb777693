"""Error types shared across the package.

The CLI maps these onto exit codes: syntax/name problems, expressions past
the order cap and results too large to print (OutputSizeError, defined beside
the wire format in ``rationals``) are user-input errors (1), UmbralError
subclasses are mathematical failures (2), a WorkspaceError is an I/O failure
(3), and a ConsistencyError -- two routes to one result disagreeing in a
run-time self-check -- is an engine fault (4).
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import OutputSizeError, format_rational


class UmbralError(Exception):
    """A mathematically impossible request (singular series, bad order, ...)."""


class OrderMismatchError(UmbralError):
    """Two truncated objects of different orders were mixed."""


class SingularSeriesError(UmbralError):
    """Reciprocal of a series whose constant term is zero."""


class NonInvertibleError(UmbralError):
    """Compositional inversion needs a nonzero (scalar) first-order term."""


class VariableCaptureError(UmbralError):
    """A pair mentions a variable its command cannot take: x, the variable of
    its own Sheffer, Appell or Abel table, or, in the CLI, y for any pair
    command and x or y for connect.  The message names the option."""


class ConsistencyError(UmbralError):
    """A run-time self-check failed: at entry n, the coefficient of ``monomial``
    is ``lhs`` on the returned route and ``rhs`` on the checking route."""

    def __init__(self, check: str, n: int, monomial: str, lhs: Fraction, rhs: Fraction):
        super().__init__(
            f"self-check '{check}' failed at n = {n}: coefficient of {monomial} is "
            f"{_show(lhs)}, expected {_show(rhs)}"
        )
        self.check = check
        self.n = n
        self.monomial = monomial
        self.lhs = lhs
        self.rhs = rhs


def _show(q: Fraction) -> str:
    try:
        return format_rational(q)
    except OutputSizeError as exc:
        return f"<{exc}>"


class WorkspaceError(ValueError):
    """A workspace file that cannot be read as a workspace (corrupt JSON,
    wrong version, malformed or non-unital entry); the message names the
    file or entry."""


class OrderCapError(Exception):
    """An expression needs moments past the order cap; the message names the
    order it needs and the cap."""


class UnknownUmbraError(Exception):
    """An expression names an umbra that no registry or workspace defines."""


class UmbraSyntaxError(Exception):
    """Lex or parse failure, carrying the 1-based source position."""

    def __init__(self, message: str, offset: int, line: int, column: int):
        super().__init__(message)
        self.message = message
        self.offset = offset
        self.line = line
        self.column = column

    def __str__(self):
        return f"{self.message} (line {self.line}, column {self.column})"
