"""Exact polynomials in the indeterminates x and y.

Coefficients are ``fractions.Fraction``; storage is a map from the
multi-degree ``(deg_x, deg_y)`` to the coefficient, with zero coefficients
never stored.  A constant polynomial compares equal (and hashes equal) to the
corresponding scalar, so values of type ``Fraction | Poly`` mix freely.
The series kernel also holds Polys with ``int`` coefficients, the numerators
of ``numerator_over``; they stay inside the kernel, which divides each one
back to Fraction coefficients.

Two indeterminates are all the calculus ever needs: x carries polynomial
moments, y shows up only in two-variable identity checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Union

from .rationals import format_rational

Value = Union[Fraction, "Poly"]

_VARS = ("x", "y")


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class Poly:
    """Polynomial in x, y with Fraction coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], Fraction | int] | Fraction | int = 0):
        if isinstance(coeffs, (Fraction, int)):
            c = _as_fraction(coeffs)
            self._coeffs = {(0, 0): c} if c else {}
            return
        clean: dict[tuple[int, int], Fraction] = {}
        for (dx, dy), c in coeffs.items():
            if dx < 0 or dy < 0:
                raise ValueError("negative exponent in polynomial key")
            c = _as_fraction(c)
            if c:
                clean[(dx, dy)] = c
        self._coeffs = clean

    @staticmethod
    def variable(name: str) -> "Poly":
        if name not in _VARS:
            raise ValueError(f"unknown indeterminate {name!r}")
        return Poly({(1, 0) if name == "x" else (0, 1): Fraction(1)})

    # -- inspection ------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(self._coeffs.items())

    def coefficient(self, dx: int, dy: int = 0) -> Fraction:
        return self._coeffs.get((dx, dy), Fraction(0))

    def as_fraction(self) -> Fraction | None:
        """The scalar value if constant, else None."""
        if not self._coeffs:
            return Fraction(0)
        if set(self._coeffs) == {(0, 0)}:
            return self._coeffs[(0, 0)]
        return None

    def degree_in(self, var: str) -> int:
        i = _var_index(var)
        if not self._coeffs:
            return -1
        return max(key[i] for key in self._coeffs)

    def coeffs_in_x(self) -> list[Fraction]:
        """Coefficient list [c_0, ..., c_d] of a y-free polynomial."""
        if self.degree_in("y") > 0:
            raise ValueError("polynomial involves y")
        d = max(self.degree_in("x"), 0)
        return [self.coefficient(k) for k in range(d + 1)]

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            _madd(out, key, c)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({key: -c for key, c in self._coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a scalar scales each coefficient, keeping ints ints
            return _wrap({key: c * other for key, c in self._coeffs.items()} if other else {})
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (ax, ay), ac in self._coeffs.items():
            for (bx, by), bc in other._coeffs.items():
                _madd(out, (ax + bx, ay + by), ac * bc)
        return _wrap(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _as_fraction(scalar)
        if not c:
            raise ZeroDivisionError("division of polynomial by zero")
        return _wrap({key: v / c for key, v in self._coeffs.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        result = Poly(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus --------------------------------------------------------

    def derivative(self, var: str = "x") -> "Poly":
        i = _var_index(var)
        out: dict[tuple[int, int], Fraction] = {}
        for key, c in self._coeffs.items():
            if key[i] == 0:
                continue
            new = list(key)
            new[i] -= 1
            out[tuple(new)] = c * key[i]
        return _wrap(out)

    def antiderivative(self, var: str = "x") -> "Poly":
        i = _var_index(var)
        out: dict[tuple[int, int], Fraction] = {}
        for key, c in self._coeffs.items():
            new = list(key)
            new[i] += 1
            out[tuple(new)] = c / new[i]
        return _wrap(out)

    def definite_integral(self, var: str, lo, hi) -> Value:
        anti = self.antiderivative(var)
        kw_hi = {var: _as_fraction(hi)}
        kw_lo = {var: _as_fraction(lo)}
        return collapse(anti.substitute(**kw_hi) - anti.substitute(**kw_lo))

    def substitute(self, x=None, y=None) -> "Poly":
        """Substitute values (scalars or Polys) for x and/or y.

        Each power of a value is its predecessor times the value, up to this
        polynomial's degree in that variable; a scalar stays a Fraction, so
        evaluating at a number does no polynomial arithmetic.
        """
        table_x = _power_table(X if x is None else x, self.degree_in("x"))
        table_y = _power_table(Y if y is None else y, self.degree_in("y"))
        out: dict[tuple[int, int], Fraction] = {}
        for (dx, dy), c in sorted(self._coeffs.items()):
            term = table_x[dx] * table_y[dy] if dx and dy else table_x[dx] if dx else table_y[dy]
            for key, v in term._coeffs.items() if isinstance(term, Poly) else (((0, 0), term),):
                _madd(out, key, c * v)
        return _wrap(out)

    def __call__(self, x=None, y=None) -> Value:
        return collapse(self.substitute(x=x, y=y))

    # -- equality, hashing, display --------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        if isinstance(other, (Fraction, int)):
            return self.as_fraction() == _as_fraction(other)
        return NotImplemented

    def __hash__(self):
        c = self.as_fraction()
        if c is not None:
            return hash(c)
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        # Descending total degree, then descending x-degree: "x^2 - 3*x + 1".
        keys = sorted(self._coeffs, key=lambda k: (-(k[0] + k[1]), -k[0]))
        parts: list[str] = []
        for key in keys:
            c = self._coeffs[key]
            mono = _monomial_str(key)
            if mono == "1":
                body = format_rational(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{format_rational(abs(c))}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    # -- wire format ------------------------------------------------------

    def to_json_map(self) -> dict[str, str]:
        return {_monomial_str(key): format_rational(c) for key, c in sorted(self._coeffs.items())}


X = Poly.variable("x")
Y = Poly.variable("y")


def _var_index(var: str) -> int:
    try:
        return _VARS.index(var)
    except ValueError:
        raise ValueError(f"unknown indeterminate {var!r}") from None


def _power_table(base, degree: int) -> list:
    """[1, base, ..., base^degree], each entry the one before times base."""
    if not isinstance(base, Poly):
        base = _as_fraction(base)
    table = [Fraction(1)]
    for _ in range(degree):
        table.append(table[-1] * base)
    return table


def _madd(out: dict, key, c: Fraction) -> None:
    """out[key] += c without building a zero default; a zero sum is never stored."""
    s = out.get(key)
    if s is not None:
        c = s + c
    if c:
        out[key] = c
    elif s is not None:
        del out[key]


def _coerce(obj) -> Poly | None:
    if isinstance(obj, Poly):
        return obj
    if isinstance(obj, (Fraction, int)):
        return Poly(obj)
    return None


def _wrap(coeffs: dict[tuple[int, int], Fraction]) -> Poly:
    p = Poly.__new__(Poly)
    p._coeffs = coeffs
    return p


def _monomial_str(key: tuple[int, int]) -> str:
    """"x^2*y" for (2, 1); an exponent too long to print raises OutputSizeError."""
    dx, dy = key
    parts = []
    if dx:
        parts.append("x" if dx == 1 else f"x^{format_rational(dx)}")
    if dy:
        parts.append("y" if dy == 1 else f"y^{format_rational(dy)}")
    return "*".join(parts) if parts else "1"


def collapse(value) -> Value:
    """Normalize a computed value: constant Poly -> Fraction, int -> Fraction."""
    if isinstance(value, Poly):
        c = value.as_fraction()
        return c if c is not None else value
    return _as_fraction(value)


def denominator(value: Value) -> int:
    """The least common denominator of a value's coefficients (1 for zero)."""
    if isinstance(value, Poly):
        return lcm(*(c.denominator for c in value._coeffs.values()))
    return value.denominator


def numerator_over(value: Value, d: int):
    """value * d for a multiple d of denominator(value): an int, or a Poly
    whose coefficients are ints, so arithmetic on it does no gcd."""
    if not isinstance(value, Poly):
        return value.numerator * (d // value.denominator)
    return _wrap({key: c.numerator * (d // c.denominator) for key, c in value._coeffs.items()})


def value_to_json(value: Value):
    """A moment entry for the CLI wire format: string for scalars, map for polys."""
    v = collapse(value)
    if isinstance(v, Fraction):
        return format_rational(v)
    return v.to_json_map()


def value_to_str(value: Value) -> str:
    v = collapse(value)
    if isinstance(v, Fraction):
        return format_rational(v)
    return str(v)


def poly_definite_integral(p: Value, var: str, lo, hi) -> Value:
    if not isinstance(p, Poly):
        return _as_fraction(p) * (_as_fraction(hi) - _as_fraction(lo))
    return p.definite_integral(var, lo, hi)
