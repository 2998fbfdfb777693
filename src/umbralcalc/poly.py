"""Exact polynomials in the indeterminates x and y.

Storage is FLINT's ``fmpq_poly`` layout: a map from the multi-degree
``(deg_x, deg_y)`` to an ``int`` numerator, plus one positive ``int``
denominator, in lowest terms (gcd(denominator, numerators) = 1, no zero
numerator stored, zero over 1), so equal polynomials have equal storage.  Each
ring operation works on the ints and reduces once, by one gcd over the result
(Knuth, TAOCP vol. 2 §4.5.1).  ``items``, ``coefficient`` and ``coeffs_in_x``
give ``Fraction`` coefficients; a constant polynomial compares equal (and
hashes equal) to the corresponding scalar, so values of type
``Fraction | Poly`` mix freely.  A Poly over denominator 1 is its own integer
numerator: the series kernel computes on such Polys with no gcd, and sums
their products in one numerator dict (``_sum_products``).

Two indeterminates are all the calculus ever needs: x carries polynomial
moments, y shows up only in two-variable identity checks.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .rationals import _check_digits, format_rational

_VARS = ("x", "y")


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class Poly:
    """Polynomial in x, y with rational coefficients: int numerators over one denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Mapping[tuple[int, int], Fraction | int] | Fraction | int = 0):
        if isinstance(coeffs, (Fraction, int)):
            coeffs = {(0, 0): coeffs}
        coeffs = {key: _as_fraction(c) for key, c in coeffs.items()}
        if any(dx < 0 or dy < 0 for dx, dy in coeffs):
            raise ValueError("negative exponent in polynomial key")
        # Over the lcm of reduced denominators the numerators share no factor with it.
        self._den = den = lcm(*(c.denominator for c in coeffs.values()))
        self._num = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items() if c}

    @staticmethod
    def variable(name: str) -> "Poly":
        if name not in _VARS:
            raise ValueError(f"unknown indeterminate {name!r}")
        return Poly({(1, 0) if name == "x" else (0, 1): 1})

    # -- inspection ------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        den = self._den
        return ((key, Fraction(c, den)) for key, c in self._num.items())

    def coefficient(self, dx: int, dy: int = 0) -> Fraction:
        return Fraction(self._num.get((dx, dy), 0), self._den)

    def as_fraction(self) -> Fraction | None:
        """The scalar value if constant, else None."""
        num = self._num
        if len(num) > 1 or (num and (0, 0) not in num):
            return None
        return Fraction(num.get((0, 0), 0), self._den)

    def degree_in(self, var: str) -> int:
        i = _var_index(var)
        return max((key[i] for key in self._num), default=-1)

    def coeffs_in_x(self) -> list[Fraction]:
        """Coefficient list [c_0, ..., c_d] of a y-free polynomial."""
        if self.degree_in("y") > 0:
            raise ValueError("polynomial involves y")
        d = max(self.degree_in("x"), 0)
        return [self.coefficient(k) for k in range(d + 1)]

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make({key: -c for key, c in self._num.items()}, self._den)

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _sum(self, other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _sum(other, self, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # one pass: numerators times p, denominator times q
            p = other.numerator
            num = self._num if p == 1 else {key: c * p for key, c in self._num.items()} if p else {}
            return _make(num, self._den * other.denominator)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for (ax, ay), ac in self._num.items():
            for (bx, by), bc in other._num.items():
                key = (ax + bx, ay + by)
                out[key] = get(key, 0) + ac * bc
        return _make(out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _as_fraction(scalar)
        if not c:
            raise ZeroDivisionError("division of polynomial by zero")
        return self * (1 / c)

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
        return _make({_lowered(key, i): c * key[i] for key, c in self._num.items() if key[i]}, self._den)

    def substitute(self, x=None, y=None) -> "Poly":
        """Substitute values (scalars or Polys) for x and/or y.

        A value V / D is tabled on its numerator, each power of V the one
        before times V, up to this polynomial's degree d in that variable:
        x^k becomes V^k D^(d-k) / D^d.  The sum runs on ints and divides once.
        """
        if not self._num:
            return self
        px, sx = _numerator_powers(X if x is None else x, self.degree_in("x"))
        py, sy = _numerator_powers(Y if y is None else y, self.degree_in("y"))
        terms = ((c * sx[i] * sy[j], px[i] * py[j] if i and j else px[i] if i else py[j])
                 for (i, j), c in self._num.items())
        return _make(_sum_products(terms)._num, self._den * sx[0] * sy[0])

    def __call__(self, x=None, y=None) -> Value:
        return collapse(self.substitute(x=x, y=y))

    # -- equality, hashing, display --------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):  # lowest terms make the storage canonical
            return self._den == other._den and self._num == other._num
        if isinstance(other, (Fraction, int)):
            return self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        c = self.as_fraction()
        return hash(c) if c is not None else hash((frozenset(self._num.items()), self._den))

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self._num:
            return "0"
        # Descending total degree, then descending x-degree: "x^2 - 3*x + 1".
        keys = sorted(self._num, key=lambda k: (-(k[0] + k[1]), -k[0]))
        parts: list[str] = []
        for key in keys:
            c = Fraction(self._num[key], self._den)
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
        return {_monomial_str(key): format_rational(c) for key, c in sorted(self.items())}


Value = Fraction | Poly

X = Poly.variable("x")
Y = Poly.variable("y")


def _var_index(var: str) -> int:
    try:
        return _VARS.index(var)
    except ValueError:
        raise ValueError(f"unknown indeterminate {var!r}") from None


def _lowered(key: tuple[int, int], i: int) -> tuple[int, int]:
    """key with exponent i (0 for x, 1 for y) lowered by one."""
    return (key[0] - 1, key[1]) if i == 0 else (key[0], key[1] - 1)


def _power_table(base, degree: int) -> list:
    """[1, base, ..., base^degree], each entry the one before times base."""
    table = [1]
    for _ in range(degree):
        table.append(table[-1] * base)
    return table


@lru_cache(maxsize=None)
def _powers_of(var: str, degree: int) -> tuple[Poly, ...]:
    """(1, var, ..., var^degree) for var x or y, each built as one monomial."""
    ((dx, dy),) = Poly.variable(var)._num
    return tuple(_make({(n * dx, n * dy): 1}, 1) for n in range(degree + 1))


def _numerator_powers(value, degree: int) -> tuple[list, list[int]]:
    """([V^0, ..., V^degree], [D^degree, ..., D^0]) for value = V / D in
    lowest terms, V an int or a Poly over denominator 1."""
    if isinstance(value, Poly):
        v, d = _make(value._num, 1), value._den
    else:
        value = _as_fraction(value)
        v, d = value.numerator, value.denominator
    return _power_table(v, degree), [d ** (degree - k) for k in range(degree + 1)]


def _coerce(obj) -> Poly | None:
    if isinstance(obj, Poly):
        return obj
    if isinstance(obj, (Fraction, int)):
        return _make({(0, 0): obj.numerator} if obj else {}, obj.denominator)
    return None


def _make(num: dict[tuple[int, int], int], den: int) -> Poly:
    """The Poly num / den for den > 0, in lowest terms: zero numerators
    dropped, then one gcd over den and every numerator (none when den is 1)."""
    if not all(num.values()):
        num = {key: c for key, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {key: c // g for key, c in num.items()}
            den //= g
    p = Poly.__new__(Poly)
    p._num = num
    p._den = den
    return p


def _sum(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b over the lcm of the two denominators: a merge of the
    numerators, each scaled only when its denominator is not the lcm."""
    if not b._num:
        return a
    da, db = a._den, b._den
    den = da if da == db else lcm(da, db)
    ma, mb = den // da, (den // db) * sign
    out = dict(a._num) if ma == 1 else {key: c * ma for key, c in a._num.items()}
    get = out.get
    for key, c in b._num.items():
        out[key] = get(key, 0) + c * mb
    return _make(out, den)


def _sum_products(pairs) -> Poly:
    """sum of w * v over (w, v) pairs, each an int or a Poly over denominator 1,
    as a Poly over denominator 1: every product goes into one numerator dict,
    with no copy per term and no gcd, and ``_make`` runs once."""
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for w, v in pairs:
        if not isinstance(w, Poly):
            if not isinstance(v, Poly):
                out[(0, 0)] = get((0, 0), 0) + w * v
                continue
            w, v = v, w
        if isinstance(v, Poly):
            for (ax, ay), a in w._num.items():
                for (bx, by), b in v._num.items():
                    key = (ax + bx, ay + by)
                    out[key] = get(key, 0) + a * b
        elif v:
            for key, a in w._num.items():
                out[key] = get(key, 0) + a * v
    return _make(out, 1)


def _monomial_str(key: tuple[int, int]) -> str:
    """"x^2*y" for (2, 1); an exponent too long to print raises OutputSizeError."""
    parts = []
    for var, d in zip(_VARS, key):
        if d:
            _check_digits(d, "numerator")
            parts.append(var if d == 1 else f"{var}^{d}")
    return "*".join(parts) if parts else "1"


def collapse(value) -> Value:
    """Normalize a computed value: constant Poly -> Fraction, int -> Fraction."""
    if isinstance(value, Poly):
        c = value.as_fraction()
        return c if c is not None else value
    return _as_fraction(value)


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

