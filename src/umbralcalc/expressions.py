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
  e is held fraction-free, as int numerators over one denominator, each
  keyed by its exponent vector over x, y and the labels, so a product of
  monomials adds two tuples.  Each atom's moments are split once into
  numerators A_j over a denominator D (``series._split``), and moment n
  is one sum over the monomials of e^n of c prod A_(e_i), by the product
  rule above, over one denominator, reduced once; when the moments or e
  hold x or y, each term's int factors go into c and only its Poly factors
  are multiplied (``_term``).  A ``^`` inside e is
  expanded the same way before either route is chosen, so an atom-free
  power such as (x + 1)^8 is the polynomial P = (x + 1)^8, with moments
  P^n, and needs no order 8 n.

A ``Dot`` is computed as the tree groups it, its two sides first.  The
parser groups a chain to the left, so g1 . g2 . g3 composes each link into
the value so far, and a link's own series is the inner one of each compose.
A bare atom evaluates to its source's own umbra: the environment's umbra
(when it has exactly the order asked for) or the shared builtin of that
order, not a copy of its moments.  So a dot whose right side is an atom
reaches what that umbra remembers (:class:`umbralcalc.umbra.Umbra`): its
cumulant series and their Bell table are computed once, not per dot.

A power multiplies the order at which an atom's moments are needed: moment n
of a^k needs a to order n k.  The evaluator works that order out before it
computes anything and fetches each atom once, at that order.  It refuses,
with :class:`OrderCapError`, an expression that needs an operand past
max(order, MAX_ORDER), a ``^`` or ``^.`` exponent past that cap, a nested
operand past that cap plus one (bar(bar(a)) at order 64), or an expansion
that could take more than MAX_EXPANSION monomial products.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import reduce
from math import comb, lcm
from operator import add, getitem, mul

from . import umbra
from .errors import OrderCapError, UnknownUmbraError
from .poly import Poly, Value, _powers_of, _sum_products, collapse
from .rationals import fraction
from .records import Record
from .series import _over, _split, egf_mul
from .umbra import (
    BUILTIN_UMBRAE,
    Umbra,
    dot,
    dot_power,
    scalar_multiple,
    scalar_umbra,
)

# The CLI's --order cap.  The evaluator computes no operand's moments past
# max(order, MAX_ORDER), and no nested operand's past one order more, at any
# depth: that admits bar(a), which needs a to one order more than its own.
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

# An umbral polynomial is a form (terms, den): int numerators over one
# positive denominator, each keyed by its exponent vector (x, y, then one
# entry per label).  The vectors of one evaluation all have its width.
Form = tuple[dict[tuple[int, ...], int], int]


def _form(terms: dict, den: int) -> Form:
    """terms / den with the zero numerators dropped."""
    return (terms if all(terms.values()) else {key: c for key, c in terms.items() if c}), den


def _product(p: Form, q: Form) -> Form:
    """p q: each pair of monomials adds its exponent vectors and multiplies its numerators."""
    (pt, pd), (qt, qd) = p, q
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for a, c in pt.items():
        for b, d in qt.items():
            key = tuple(map(add, a, b))
            out[key] = get(key, 0) + c * d
    return _form(out, pd * qd)


def _form_sum(p: Form, q: Form) -> Form:
    """p + q over the lcm of the two denominators."""
    (pt, pd), (qt, qd) = p, q
    den = lcm(pd, qd)
    mp, mq = den // pd, den // qd
    out = {key: c * mp for key, c in pt.items()}
    get = out.get
    for key, c in qt.items():
        out[key] = get(key, 0) + c * mq
    return _form(out, den)


def _scaled(p: Form, c: Fraction) -> Form:
    """c p for a nonzero rational c."""
    terms, den = p
    return {key: v * c.numerator for key, v in terms.items()}, den * c.denominator


def _leaves(expr: Expr) -> int:
    """The atoms and operations in expr outside any operation: no fewer than
    the labels its form holds."""
    if isinstance(expr, Sum):
        return _leaves(expr.left) + _leaves(expr.right)
    if isinstance(expr, (ScalarMul, Power)):
        return _leaves(expr.expr)
    return int(not isinstance(expr, (Indet, Const)))


def _degree(form: Form) -> int:
    """The highest power of any one atom in a form."""
    return max((e for key in form[0] for e in key[2:]), default=0)


def _is_linear(form: Form) -> bool:
    """True when no monomial has atom degree above 1: a linear form."""
    return all(sum(key[2:]) <= 1 for key in form[0])


def _variables(moments) -> tuple[bool, bool]:
    """(mentions y, mentions x): sorts scalar moments first, then x alone, y alone, both."""
    if Poly not in map(type, moments):
        return False, False
    polys = [v for v in moments if isinstance(v, Poly)]
    return any(p.degree_in("y") > 0 for p in polys), any(p.degree_in("x") > 0 for p in polys)


def _expansion_work(monomials, n: int) -> int:
    """An upper bound on the monomial products that build p, p^2, ..., p^n
    one from the next, p a sum of the given m monomials (exponent vectors):
    m times the monomials of p^j for j < n.  p^j has no more monomials than
    j-multisets of p's, nor than exponent vectors over p's k variables whose
    total degree lies between j times p's lowest and highest degree."""
    if not monomials:
        return 0
    m = len(monomials)
    degrees = [sum(key) for key in monomials]
    lo, hi = min(degrees), max(degrees)
    k = sum(map(any, zip(*monomials)))
    total = 0
    for j in range(n):
        band = comb(j * hi + k, k) - comb(j * lo + k - 1, k) if k else 1
        total += min(comb(j + m - 1, j), band)
    return m * total


def _term(c: int, factors) -> tuple[int, Poly | int]:
    """One term of a moment sum that holds x or y, as a (w, v) pair for
    ``poly._sum_products``: w is c times the int factors and v the product of
    the Poly factors (1 if none), so no Poly is built for an int factor and a
    factor of 1 is skipped."""
    poly = None
    for v in factors:
        if isinstance(v, Poly):
            poly = v if poly is None else poly * v
        elif v != 1:
            c *= v
    return c, 1 if poly is None else poly


class _Evaluator:
    def __init__(self, order: int, env: Environment, width: int, ceiling: int | None = None):
        self.order = order
        cap = max(order, MAX_ORDER)
        self.ceiling = cap + 1 if ceiling is None else ceiling  # the most a nested operand may need
        self.cap = min(cap, self.ceiling)
        self.env = env
        self.width = width  # of an exponent vector: x, y and each label
        self._named_slots: dict[tuple[str, int], int] = {}
        self._sources: list[Callable[[int], Umbra]] = []  # label i has slot 2 + i

    # -- atom bookkeeping ----------------------------------------------

    def _slot(self, source: Callable[[int], Umbra]) -> int:
        self._sources.append(source)
        return len(self._sources) + 1

    def _named(self, name: str, primes: int) -> int:
        slot = self._named_slots.get((name, primes))
        if slot is None:
            if name not in self.env:
                raise UnknownUmbraError(f"unknown umbra {name!r}")
            src = self.env[name]
            slot = self._named_slots[name, primes] = self._slot(src.truncated if isinstance(src, Umbra) else src)
        return slot

    def atom(self, expr: Atom, order: int) -> Umbra:
        """The umbra an atom names, from its source at ``order``."""
        return self._sources[self._named(expr.name, expr.primes) - 2](order)

    def _unit(self, slot: int | None = None) -> Form:
        """The form 1, or the variable in the given slot."""
        return {tuple(int(i == slot) for i in range(self.width)): 1}, 1

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

    # -- normalization to a polynomial over atoms ------------------------

    def upoly(self, expr: Expr) -> Form:
        if isinstance(expr, Atom):
            return self._unit(self._named(expr.name, expr.primes))
        if isinstance(expr, Indet):
            if expr.var not in ("x", "y"):
                raise UnknownUmbraError(f"unknown indeterminate {expr.var!r}")
            return self._unit(("x", "y").index(expr.var))
        if isinstance(expr, Const):
            c = Fraction(expr.value)
            return _scaled(self._unit(), c) if c else ({}, 1)
        if isinstance(expr, ScalarMul):
            c = Fraction(expr.scalar)
            return _scaled(self.upoly(expr.expr), c) if c else ({}, 1)
        if isinstance(expr, Sum):
            return _form_sum(self.upoly(expr.left), self.upoly(expr.right))
        if isinstance(expr, Power):
            return self.expand(self.power_base(expr), expr.power)
        if isinstance(expr, DotPower) and expr.power > self.cap:
            raise OrderCapError(f"dot-power exponent {expr.power} is past the order cap {self.cap}")
        return self._unit(self._slot(self._opaque_fn(expr)))

    def power_base(self, expr: Power) -> Form:
        """The base of a power, once its exponent is known to be within the cap."""
        if expr.power < 0:
            raise ValueError("powers must be nonnegative")
        base = self.upoly(expr.expr)
        self.require(expr.power)  # names the exponent itself: its product with a degree may not print
        self.require(expr.power * max(_degree(base), 1))
        return base

    def expand(self, base: Form, n: int) -> Form:
        """base^n, refused before any product past the monomial budget."""
        self.budget(base[0], n)
        out = self._unit()
        for _ in range(n):
            out = _product(out, base)
        return out

    def _opaque_fn(self, expr: Expr) -> Callable[[int], Umbra]:
        env, ceiling = self.env, self.ceiling
        if isinstance(expr, Dot):
            left, right = expr.left, expr.right
            if isinstance(left, Const):
                return lambda k: dot(left.value, evaluate(right, k, env, ceiling))
            return lambda k: dot(evaluate(left, k, env, ceiling), evaluate(right, k, env, ceiling))
        if isinstance(expr, DotPower):
            return lambda k: dot_power(evaluate(expr.expr, k, env, ceiling), expr.power)
        if isinstance(expr, Fresh):
            return lambda k: evaluate(expr.expr, k, env, ceiling)
        if isinstance(expr, Call) and expr.op in OPERATIONS:
            name, _, reads = OPERATIONS[expr.op]
            return lambda k: getattr(umbra, name)(
                *(evaluate(a, reads(k), env, ceiling) for a in expr.args)
            ).truncated(k)
        raise TypeError(f"not an umbral expression: {expr!r}")

    # -- the kernel route for linear forms --------------------------------

    def linear(self, base: Form, order: int) -> tuple[Value, ...]:
        """Moments to ``order`` of a linear form P_0 + sum_i P_i a_i, the P_i
        polynomials in x, y and the a_i distinct labels: the egf_mul product
        of the umbrae P_i a_i (moments P_i^n a_n) and of P_0 (moments P_0^n).
        Each atom is fetched once, at ``order``.  The scalar parts and those
        in x alone are multiplied first, those in y alone apart, the two joined
        by one product, and the parts in both x and y come last."""
        terms, den = base
        self.budget({key[:2] for key in terms}, order)
        parts: dict = {}
        for key, c in terms.items():
            label = key.index(1, 2) - 2 if any(key[2:]) else None
            c = fraction(c, den)
            parts[label] = parts.get(label, 0) + (Poly({key[:2]: c}) if key[0] or key[1] else c)
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

    # -- the functional E on the expansion route ----------------------------

    def moments(self, base: Form) -> list[Value]:
        """E[base^n] for n = 0, ..., order, base a nonlinear form.

        Each slot is split once into numerators over a denominator: the
        moments of label i, fetched at the order base^order needs, as
        ``series._split`` gives them (A_0 = D_i for the unital a_0 = 1), and
        x^k or y^k as a Poly over 1.  A monomial c x^dx y^dy prod a_i^e_i of
        base^n = T / den^n then has E equal to c prod_slots A_(slot, e) over
        den^n prod_i D_i, the same for every monomial, so moment n is one
        sum over T's monomials, reduced once.  Every atom is fetched, at
        order 0 too, so each operation runs its checks."""
        terms, den = base
        nums: list = []
        common, polys = 1, False
        for i, top in enumerate(map(max, zip(*terms))):
            if not top:
                nums.append((1,))
            elif i < 2:
                nums.append((1, *_powers_of("xy"[i], top * self.order)[1:]))
                polys = True
            else:
                f, d, p = _split(self._sources[i - 2](max(self.order, top * self.order)).moments)
                nums.append(f)
                common, polys = common * d, polys or p
        moments: list[Value] = [Fraction(1)]
        power = self._unit()
        for _ in range(self.order):
            power = _product(power, base)
            terms, den_n = power
            if polys:
                total = _sum_products(_term(c, map(getitem, nums, key)) for key, c in terms.items())
            else:
                total = sum(reduce(mul, map(getitem, nums, key), c) for key, c in terms.items())
            moments.append(_over(total, den_n * common))
        return moments


def evaluate(expr: Expr, order: int, env: Environment | None = None, _ceiling: int | None = None) -> Umbra:
    """The umbra denoted by ``expr``: moments E[expr^n] for n = 0..order.
    An operation's operands are evaluated under the outermost call's ``_ceiling``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    ev = _Evaluator(order, default_environment() if env is None else env, 2 + _leaves(expr), _ceiling)
    ev.require(order)
    if isinstance(expr, Atom):  # the environment's own umbra, with what it remembers
        return ev.atom(expr, order)
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
    ev.budget(base[0], order)
    return Umbra(ev.moments(base))
