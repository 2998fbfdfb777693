"""The umbral expression AST and the evaluation functional E.

Correlation semantics
---------------------
Within one expression, atoms with the same name and prime count denote the
SAME umbra; distinct labels denote similar-but-uncorrelated umbrae.  E is
linear and multiplicative across distinct labels:

    E[a^i g^j] = a_i g_j   (distinct labels),
    E[a^i a^j] = a_{i+j}   (equal labels).

Every application of Dot, DotPower, Fresh or Call (one of the keyword
operations of ``OPERATIONS``) produces an auxiliary umbra that is a fresh
symbol, uncorrelated with everything else (including other occurrences built
from the same operands).  Bind such a value to a name in the
environment if you need two correlated occurrences of it.

``evaluate(e, order)`` returns the umbra denoted by ``e``: its n-th moment is
E[e^n].  Moments may be polynomials in x, y.  It takes one of two routes:

* The kernel route, for a linear form: when no monomial of e has atom
  degree above 1, e is P_0 + sum_i P_i a_i with P_i polynomials in x, y and
  the a_i distinct labels (a repeated label folds into one coefficient).
  Uncorrelated umbrae add by multiplying their generating functions,
  f(a + b, t) = f(a, t) f(b, t), and P a has moments P^n a_n (Rota and
  Taylor, SIAM J. Math. Anal. 25, 1994), so the moments of e are the
  ``egf_mul`` product of the umbrae P_i a_i and of P_0, with each atom
  fetched once, at ``order``.  A whole expression L^m, L a linear form with
  an atom, has moment n equal to moment m n of L, computed at m order.
* The expansion route, for a nonlinear polynomial such as ``a^2 + a'``:
  e^n is expanded into monomials over the labelled atoms and E applied by
  the product rule above.  A ``^`` inside e is expanded the same way
  before either route is chosen, so an atom-free power such as (x + 1)^8 is
  the polynomial P = (x + 1)^8, with moments P^n, and needs no order 8 n.

A ``Dot`` is computed as the tree groups it, its two sides first.  The
parser groups a chain to the left, so g1 . g2 . g3 composes each link into
the value so far, and a link's own series is the inner one of each compose.

A power multiplies the order at which an atom's moments are needed: moment n
of a^k needs a to order n k.  The evaluator works that order out before it
computes anything and fetches each atom once, at that order.  It refuses,
with :class:`OrderCapError`, an expression that needs an operand past
max(order, MAX_ORDER), a ``^`` or ``^.`` exponent past that cap, or an
expansion that could take more than MAX_EXPANSION monomial products.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import reduce
from math import comb

from . import umbra
from .errors import OrderCapError, UnknownUmbraError
from .poly import Poly, Value, _madd, collapse
from .records import Record
from .series import egf_mul
from .umbra import (
    BUILTIN_UMBRAE,
    Umbra,
    dot,
    dot_power,
    scalar_multiple,
    scalar_umbra,
)

# The CLI's --order cap.  The evaluator computes no operand's moments past
# max(order, MAX_ORDER); the excess over MAX_ORDER admits bar(a), which needs
# a to one order more than its own.
MAX_ORDER = 64

# The most monomial products a symbolic expansion may take.  The evaluator
# refuses, with OrderCapError and before any product, a power whose
# expansion could take more (by the bound of ``_expansion_work``).
MAX_EXPANSION = 100_000

# Each DSL keyword: the name of its ``umbra`` function, its arity, and the
# order its operands are read to for a result to order k (bar(a) reads
# a_(k+1); cinv and adj check a_1, at order 0 too).
# The parser, the printer and the evaluator all read this table.  The
# evaluator looks the function up by name when the operation runs, so a
# wrapper put on the ``umbra`` module afterwards is the one called.
OPERATIONS = {
    "inv": ("inverse_dot", 1, lambda k: k),
    "cinv": ("comp_inverse", 1, lambda k: max(k, 1)),
    "adj": ("adjoint", 1, lambda k: max(k, 1)),
    "d": ("derivative_umbra", 1, lambda k: k),
    "bar": ("overbar_umbra", 1, lambda k: k + 1),
    "dsum": ("disjoint_sum", 2, lambda k: k),
    "ddiff": ("disjoint_diff", 2, lambda k: k),
}


class Expr(Record):
    """Base class of the AST nodes: frozen slotted records, equal by value
    within one node class."""

    __slots__ = ()


class Atom(Expr):
    __slots__ = ("name", "primes")
    _defaults = {"primes": int}


class Indet(Expr):
    __slots__ = ("var",)


class Const(Expr):
    __slots__ = ("value",)


class Sum(Expr):
    __slots__ = ("left", "right")


class ScalarMul(Expr):
    __slots__ = ("scalar", "expr")


class Dot(Expr):
    __slots__ = ("left", "right")


class DotPower(Expr):
    __slots__ = ("expr", "power")


class Power(Expr):
    __slots__ = ("expr", "power")


class Call(Expr):
    """A keyword operation of OPERATIONS applied to its arguments (a tuple of Expr)."""

    __slots__ = ("op", "args")


class Fresh(Expr):
    """An uncorrelated copy of a composite expression (a prime on a non-atom)."""

    __slots__ = ("expr",)


MomentSource = Umbra | Callable[[int], Umbra]
Environment = Mapping[str, MomentSource]


def default_environment() -> dict[str, MomentSource]:
    return dict(BUILTIN_UMBRAE)


# ---------------------------------------------------------------------------
# Evaluation

# A monomial over labelled atoms: (sorted ((label, exp), ...), x-exp, y-exp).
_Monomial = tuple[tuple[tuple, ...], int, int]
_UNIT: _Monomial = ((), 0, 0)


def _umul(p: dict, q: dict) -> dict:
    out: dict[_Monomial, Fraction] = {}
    for (atoms1, x1, y1), c1 in p.items():
        for (atoms2, x2, y2), c2 in q.items():
            merged = dict(atoms1)
            for label, e in atoms2:
                merged[label] = merged.get(label, 0) + e
            key = (tuple(sorted(merged.items())), x1 + x2, y1 + y2)
            _madd(out, key, c1 * c2)
    return out


def _degree(upoly: dict) -> int:
    """The highest power of any one atom in an umbral polynomial."""
    return max((e for atoms, _, _ in upoly for _, e in atoms), default=0)


def _is_linear(upoly: dict) -> bool:
    """True when no monomial has atom degree above 1: a linear form."""
    return all(sum(e for _, e in atoms) <= 1 for atoms, _, _ in upoly)


def _variables(moments) -> tuple[bool, bool]:
    """(mentions y, mentions x): sorts scalar moments first, then x alone, y alone, both."""
    if Poly not in map(type, moments):
        return False, False
    polys = [v for v in moments if isinstance(v, Poly)]
    return any(p.degree_in("y") > 0 for p in polys), any(p.degree_in("x") > 0 for p in polys)


def _expansion_work(monomials, n: int) -> int:
    """An upper bound on the monomial products that build p, p^2, ..., p^n
    one from the next, p a sum of the given m monomials: m times the
    monomials of p^j for j < n.  p^j has no more monomials than j-multisets
    of p's, nor than exponent vectors over p's k variables whose total
    degree lies between j times p's lowest and highest degree."""
    if not monomials:
        return 0
    m = len(monomials)
    degrees = [sum(e for _, e in atoms) + dx + dy for atoms, dx, dy in monomials]
    lo, hi = min(degrees), max(degrees)
    k = len({v for atoms, dx, dy in monomials for v, e in atoms + (("x", dx), ("y", dy)) if e})
    total = 0
    for j in range(n):
        band = comb(j * hi + k, k) - comb(j * lo + k - 1, k) if k else 1
        total += min(comb(j + m - 1, j), band)
    return m * total


class _Evaluator:
    def __init__(self, order: int, env: Environment):
        self.order = order
        self.cap = max(order, MAX_ORDER)
        self.env = env
        self._fresh = 0
        self._sources: dict[tuple, Callable[[int], Umbra]] = {}
        self._cache: dict[tuple, tuple[Value, ...]] = {}

    # -- atom bookkeeping ----------------------------------------------

    def _named(self, name: str, primes: int) -> tuple:
        label = ("atom", name, primes)
        if label not in self._sources:
            if name not in self.env:
                raise UnknownUmbraError(f"unknown umbra {name!r}")
            src = self.env[name]
            self._sources[label] = src.truncated if isinstance(src, Umbra) else src
        return label

    def require(self, need: int) -> None:
        if need > self.cap:
            raise OrderCapError(f"expression needs order {need}, past the order cap {self.cap}")

    def budget(self, monomials, n: int) -> None:
        work = _expansion_work(monomials, n)
        if work > MAX_EXPANSION:
            raise OrderCapError(
                f"expanding the expression takes up to {work} monomial products, "
                f"past the budget of {MAX_EXPANSION}"
            )

    def _opaque(self, fn: Callable[[int], Umbra]) -> tuple:
        self._fresh += 1
        label = ("aux", self._fresh)
        self._sources[label] = fn
        return label

    def plan(self, base: dict) -> None:
        """Fetch each atom once, at the order moment n of base^order needs
        it to: n e, e the highest power of a in base.  Every atom is
        fetched, at order 0 too, so each operation runs its checks."""
        need: dict[tuple, int] = {}
        for atoms, _, _ in base:
            for label, e in atoms:
                need[label] = max(need.get(label, self.order), e * self.order)
        self._cache = {label: self._sources[label](n).moments for label, n in need.items()}

    # -- normalization to a polynomial over atoms ------------------------

    def upoly(self, expr: Expr) -> dict:
        if isinstance(expr, Atom):
            label = self._named(expr.name, expr.primes)
            return {(((label, 1),), 0, 0): Fraction(1)}
        if isinstance(expr, Indet):
            if expr.var not in ("x", "y"):
                raise UnknownUmbraError(f"unknown indeterminate {expr.var!r}")
            return {((), 1, 0) if expr.var == "x" else ((), 0, 1): Fraction(1)}
        if isinstance(expr, Const):
            return {_UNIT: Fraction(expr.value)} if expr.value else {}
        if isinstance(expr, Sum):
            out = self.upoly(expr.left)
            for key, c in self.upoly(expr.right).items():
                _madd(out, key, c)
            return out
        if isinstance(expr, ScalarMul):
            c = Fraction(expr.scalar)
            return {key: c * v for key, v in self.upoly(expr.expr).items()} if c else {}
        if isinstance(expr, Power):
            return self.expand(self.power_base(expr), expr.power)
        if isinstance(expr, DotPower) and expr.power > self.cap:
            raise OrderCapError(f"dot-power exponent {expr.power} is past the order cap {self.cap}")
        return {(((self._opaque(self._opaque_fn(expr)), 1),), 0, 0): Fraction(1)}

    def power_base(self, expr: Power) -> dict:
        """The base of a power, once its exponent is known to be within the cap."""
        if expr.power < 0:
            raise ValueError("powers must be nonnegative")
        base = self.upoly(expr.expr)
        self.require(expr.power)  # names the exponent itself: its product with a degree may not print
        self.require(expr.power * max(_degree(base), 1))
        return base

    def expand(self, base: dict, n: int) -> dict:
        """base^n, refused before any product past the monomial budget."""
        self.budget(base, n)
        out = {_UNIT: Fraction(1)}
        for _ in range(n):
            out = _umul(out, base)
        return out

    def _opaque_fn(self, expr: Expr) -> Callable[[int], Umbra]:
        env = self.env
        if isinstance(expr, Dot):
            left, right = expr.left, expr.right
            if isinstance(left, Const):
                return lambda k: dot(left.value, evaluate(right, k, env))
            return lambda k: dot(evaluate(left, k, env), evaluate(right, k, env))
        if isinstance(expr, DotPower):
            return lambda k: dot_power(evaluate(expr.expr, k, env), expr.power)
        if isinstance(expr, Fresh):
            return lambda k: evaluate(expr.expr, k, env)
        if isinstance(expr, Call) and expr.op in OPERATIONS:
            name, _, reads = OPERATIONS[expr.op]
            return lambda k: getattr(umbra, name)(*(evaluate(a, reads(k), env) for a in expr.args)).truncated(k)
        raise TypeError(f"not an umbral expression: {expr!r}")

    # -- the kernel route for linear forms --------------------------------

    def linear(self, base: dict, order: int) -> tuple[Value, ...]:
        """Moments to ``order`` of a linear form P_0 + sum_i P_i a_i, the P_i
        polynomials in x, y and the a_i distinct labels: the egf_mul product
        of the umbrae P_i a_i (moments P_i^n a_n) and of P_0 (moments P_0^n).
        Each atom is fetched once, at ``order``.  The scalar parts and those
        in x alone are multiplied first, those in y alone apart, the two joined
        by one product, and the parts in both x and y come last."""
        self.budget({((), dx, dy) for _, dx, dy in base}, order)
        parts: dict = {}
        for (atoms, dx, dy), c in base.items():
            label = atoms[0][0] if atoms else None
            parts[label] = parts.get(label, 0) + (Poly({(dx, dy): c}) if dx or dy else c)
        constant = parts.pop(None, Fraction(0))
        umbrae = []
        for label, c in parts.items():
            a = self._sources[label](order)
            umbrae.append((a if c == 1 else scalar_multiple(collapse(c), a)).moments)
        if not umbrae or constant:
            umbrae.append(scalar_umbra(collapse(constant), order).moments)
        if len(umbrae) == 1:
            return umbrae[0]
        groups: dict = {}  # free of y, then y alone, then each part in both on its own
        for (mentions, i), moments in sorted(((_variables(m), i), m) for i, m in enumerate(umbrae)):
            key = ("both", i) if all(mentions) else mentions[0]
            groups[key] = egf_mul(groups[key], moments) if key in groups else moments
        return reduce(egf_mul, groups.values())

    # -- the functional E -------------------------------------------------

    def apply_E(self, upoly: dict) -> Value:
        total: Value = Fraction(0)
        for (atoms, dx, dy), c in upoly.items():
            term: Value = c
            for label, e in atoms:
                term = term * self._cache[label][e]
            if dx:
                term = term * Poly.variable("x") ** dx
            if dy:
                term = term * Poly.variable("y") ** dy
            total = total + term
        return collapse(total)


def evaluate(expr: Expr, order: int, env: Environment | None = None) -> Umbra:
    """The umbra denoted by ``expr``: moments E[expr^n] for n = 0..order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    ev = _Evaluator(order, default_environment() if env is None else env)
    if isinstance(expr, Power):
        base = ev.power_base(expr)
        if expr.power and _is_linear(base) and _degree(base):
            # L^m for a linear form L with an atom: moment n is moment m n of L.
            ev.require(order * expr.power)
            return Umbra(ev.linear(base, order * expr.power)[:: expr.power])
        base = ev.expand(base, expr.power)
    else:
        base = ev.upoly(expr)
    ev.require(order * _degree(base))
    if _is_linear(base):
        return Umbra(ev.linear(base, order))
    ev.budget(base, order)
    ev.plan(base)
    moments: list[Value] = [Fraction(1)]
    power = {_UNIT: Fraction(1)}
    for _ in range(order):
        power = _umul(power, base)
        moments.append(ev.apply_E(power))
    return Umbra(moments)
