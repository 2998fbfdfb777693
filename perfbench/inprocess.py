"""The two in-process workloads: dot-moments and sheffer-inverse.

A workload is an endless sequence of rounds.  Every round holds the same
fixed ladder of job kinds and orders, in a seeded order and with seeded
operands, so any number of whole rounds is a balanced mix and two seeds
differ in their inputs, not in the amount of work they ask for.

Jobs call the program through module attributes (``umbra.dot``, not a name
bound at import), so a tracer that patches those attributes sees the calls.
"""

from __future__ import annotations

import random
from fractions import Fraction

import dsl
import reference as R

from umbralcalc import expressions, parser, sequences, sheffer, umbra
from umbralcalc.poly import Poly

# Builtin operands for dot products.  eps and chi would make trivial jobs, and
# so would u on the left (its factorial moments vanish beyond the first).
DOT_BUILTINS = ("bell", "u", "ubar", "bern", "uinv")
LEFT_BUILTINS = ("bell", "ubar", "bern", "uinv")
PC_PARAMS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(3))


def _program_value(v) -> tuple:
    """A program moment (Fraction or Poly) in the reference's canonical form."""
    if isinstance(v, Fraction):
        return R.canon(v)
    coeffs = {}
    for (dx, dy), c in v.items():
        if dy:
            return ("unexpected y term",)
        coeffs[dx] = c
    return R.canon(coeffs)


def canon_list(values) -> tuple:
    return tuple(_program_value(v) for v in values)


def ref_list(values) -> tuple:
    return tuple(R.canon(v) for v in values)


class InProcessWorkload:
    """Shared round generation and job plumbing; subclasses define the ladder."""

    name = ""
    LADDER: tuple = ()

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def order(self, n: int) -> int:
        return min(n, 5) if self.smoke else n

    def rounds(self, count: int, tag: str = "") -> list:
        """Rounds of jobs.  Builtin operands rotate with the round and ladder
        position, the same for every seed; the seed draws the rest."""
        out = []
        for r in range(count):
            rng = random.Random(f"{self.name}{tag}:{self.seed}:{r}")
            jobs = [self.make_job(rng, entry, lambda pool, i=i: pool[(r + i) % len(pool)])
                    for i, entry in enumerate(self.LADDER)]
            rng.shuffle(jobs)
            out.append(jobs)
        return out

    def capture(self, output):
        if isinstance(output, umbra.Umbra):
            return canon_list(output.moments)
        if isinstance(output, sheffer.PolySequence):
            return canon_list(output)
        if isinstance(output, sheffer.ConnectionConstants):
            return (tuple(tuple(row) for row in output.matrix), output.verified)
        return canon_list([output])

    def check(self, job: tuple, result) -> str | None:
        if result != self.expected(job):
            return f"{job[0]}: result differs from the reference"
        return None


def _operand_moments(spec: tuple, n: int) -> list:
    kind, value = spec
    if kind == "umbra":
        return list(value)
    if kind == "builtin":
        return R.builtin(value, n)
    if kind == "x":
        return R.x_powers(n, value)
    raise ValueError(f"no moments for operand {spec!r}")


def _program_operand(spec: tuple, n: int):
    kind, value = spec
    if kind == "umbra":
        return umbra.Umbra(value)
    if kind == "builtin":
        return umbra.BUILTIN_UMBRAE[value](n)
    if kind == "x":
        return Poly.variable("x") + value
    return value  # rational


def _evaluate(text: str, order: int, env: dict):
    return expressions.evaluate(parser.parse(text), order, env)


class DotMoments(InProcessWorkload):
    """dot with umbra, polynomial and rational left operands; cumulants, sums,
    dot-powers; and DSL expressions whose evaluation calls dot repeatedly."""

    name = "dot-moments"
    LADDER = (
        ("dot", "umbra", "umbra", 16),
        ("dot", "left-builtin", "umbra", 20),
        ("dot", "umbra", "builtin", 24),
        ("dot", "x", "umbra", 18),
        ("dot", "x", "builtin", 22),
        ("dot", "xshift", "umbra", 20),
        ("dot", "rational", "umbra", 20),
        ("dot", "rational", "umbra", 24),
        ("dot", "rational", "builtin", 28),
        ("cumulant", "umbra", 18),
        ("cumulant", "builtin", 22),
        ("umbral_sum", 28),
        ("dot_power", 28),
        ("evaluate", "dot", 12, "user", "builtin"),
        ("evaluate", "shift_sq_dot", 8, "user", "builtin"),
        ("evaluate", "corr", 12, "user", "user"),
        ("evaluate", "dot_sq_chi", 10, "user", "builtin"),
        # Ten jobs of the ladder cost less than these two and ten cost more, so
        # the median job time falls inside one kind's spread, not between kinds.
        ("evaluate", "xdot_sum", 12, "builtin", "user"),
        ("evaluate", "xdot_sum", 12, "builtin", "user"),
        ("evaluate", "scalar_inv", 12, "user", "builtin"),
        ("evaluate", "adj_dot", 10, "user", "builtin"),
        ("evaluate", "cinv_dotpow", 10, "builtin", "user"),
    )

    def _operand(self, rng, kind: str, n: int, pick) -> tuple:
        if kind == "umbra":
            return ("umbra", dsl.random_moments(rng, n))
        if kind == "builtin":
            return ("builtin", pick(DOT_BUILTINS))
        if kind == "left-builtin":
            return ("builtin", pick(LEFT_BUILTINS))
        if kind == "x":
            return ("x", R.ZERO)
        if kind == "xshift":
            return ("x", dsl.rational(rng))
        return ("rational", rng.choice(dsl.SCALARS) * rng.choice((1, -1)))

    def make_job(self, rng, entry: tuple, pick) -> tuple:
        kind = entry[0]
        if kind == "evaluate":
            _, template, order, a_kind, b_kind = entry
            order = min(order, 4) if self.smoke else order
            atoms = {f"p{i}": dsl.random_moments(rng, 2 * order + 1) for i in range(2)}
            pools = {"user": ["p0"], "builtin": [pick(DOT_BUILTINS)]}
            b_pool = ["p1"] if a_kind == b_kind == "user" else pools[b_kind]
            return ("evaluate", dsl.make(rng, template, order, pools[a_kind], b_pool, atoms))
        n = self.order(entry[-1])
        if kind == "dot":
            return ("dot", self._operand(rng, entry[1], n, pick), self._operand(rng, entry[2], n, pick), n)
        if kind == "cumulant":
            return ("cumulant", self._operand(rng, entry[1], n, pick), n)
        if kind == "umbral_sum":
            return ("umbral_sum", dsl.random_moments(rng, n), dsl.random_moments(rng, n), n)
        return ("dot_power", dsl.random_moments(rng, n), rng.choice((2, 3)), n)

    def prepare(self, job: tuple):
        kind = job[0]
        if kind == "dot":
            left, right = _program_operand(job[1], job[3]), _program_operand(job[2], job[3])
            return lambda: umbra.dot(left, right)
        if kind == "cumulant":
            a = _program_operand(job[1], job[2])
            return lambda: umbra.cumulant(a)
        if kind == "umbral_sum":
            a, b = umbra.Umbra(job[1]), umbra.Umbra(job[2])
            return lambda: umbra.umbral_sum(a, b)
        if kind == "dot_power":
            a, k = umbra.Umbra(job[1]), job[2]
            return lambda: umbra.dot_power(a, k)
        _, text, order, _, _, _, used = job[1]
        env = expressions.default_environment()
        for name, ms in used:
            env[name] = lambda k, ms=ms: umbra.Umbra(ms[: k + 1])
        return lambda: _evaluate(text, order, env)

    def expected(self, job: tuple):
        kind = job[0]
        if kind == "dot":
            left, right, n = job[1], job[2], job[3]
            right_m = _operand_moments(right, n)
            if left[0] == "rational":
                return ref_list(R.scalar_dot(left[1], right_m))
            return ref_list(R.dot(_operand_moments(left, n), right_m))
        if kind == "cumulant":
            return ref_list(R.cumulant(_operand_moments(job[1], job[2])))
        if kind == "umbral_sum":
            return ref_list(R.umbral_sum(list(job[1]), list(job[2])))
        if kind == "dot_power":
            return ref_list([m ** job[2] for m in job[1]])
        return ref_list(dsl.reference_moments(job[1]))


class ShefferInverse(InProcessWorkload):
    """Reversion-heavy work: compositional inverses, adjoints, Lagrange
    inversion, Abel polynomials, Sheffer tables and connection constants."""

    name = "sheffer-inverse"
    LADDER = (
        ("comp_inverse", 16),
        ("comp_inverse", 24),
        ("adjoint", 18),
        ("adjoint", 22),
        ("inverse_dot", 28),
        ("lagrange", 20),
        ("abel", 16),
        # Six jobs of the ladder cost less than these two and six cost more, so
        # the median job time falls inside one kind's spread, not between kinds.
        ("abel", 22),
        ("abel", 22),
        ("sheffer_pc", 12),
        ("sheffer_random", 14),
        ("associated", 16),
        ("connect_pc", 10),
        ("connect_random", 12),
    )

    def make_job(self, rng, entry: tuple, pick) -> tuple:
        kind, n = entry[0], self.order(entry[1])
        if kind in ("comp_inverse", "adjoint", "inverse_dot", "associated"):
            return (kind, dsl.random_moments(rng, n))
        if kind in ("lagrange", "abel"):
            return (kind, dsl.random_moments(rng, n), n)
        if kind == "sheffer_pc":
            return ("sheffer", *map(tuple, R.poisson_charlier_pair(pick(PC_PARAMS), n)))
        if kind == "sheffer_random":
            return ("sheffer", dsl.random_moments(rng, n), dsl.random_moments(rng, n))
        a = pick(PC_PARAMS)
        b = PC_PARAMS[(PC_PARAMS.index(a) + 1) % len(PC_PARAMS)]
        to = tuple(map(tuple, R.poisson_charlier_pair(b, n)))
        if kind == "connect_pc":
            return ("connect", tuple(map(tuple, R.poisson_charlier_pair(a, n))), to)
        return ("connect", (dsl.random_moments(rng, n), dsl.random_moments(rng, n)), to)

    def prepare(self, job: tuple):
        kind = job[0]
        if kind == "sheffer":
            pair = sheffer.ShefferPair(umbra.Umbra(job[1]), umbra.Umbra(job[2]))
            return lambda: sheffer.sheffer_moments(pair)
        if kind == "connect":
            frm = sheffer.ShefferPair(*map(umbra.Umbra, job[1]))
            to = sheffer.ShefferPair(*map(umbra.Umbra, job[2]))
            return lambda: sheffer.connection_constants(frm, to)
        g = umbra.Umbra(job[1])
        if kind == "lagrange":
            return lambda: sequences.lagrange_inversion_general(g, job[2])
        if kind == "abel":
            return lambda: sequences.abel_polynomials(g, job[2])
        if kind == "associated":
            return lambda: sheffer.associated_moments(g)
        fn = kind  # comp_inverse, adjoint, inverse_dot
        return lambda: getattr(umbra, fn)(g)

    def expected(self, job: tuple):
        kind = job[0]
        g = list(job[1])
        if kind == "comp_inverse":
            return ref_list(R.comp_inverse(g))
        if kind == "adjoint":
            return ref_list(R.adjoint(g))
        if kind == "inverse_dot":
            return ref_list(R.inverse(g))
        if kind == "lagrange":
            return ref_list([R.lagrange_general(g, job[2])])
        if kind == "abel":
            return ref_list(R.abel(g, job[2]))
        if kind == "associated":
            return ref_list(R.sheffer(R.builtin("eps", len(g) - 1), g))
        return ref_list(R.sheffer(g, list(job[2])))

    def check(self, job: tuple, result) -> str | None:
        if job[0] != "connect":
            return super().check(job, result)
        matrix, verified = result
        if not verified:
            return "connect: the program's two routes disagree"
        to, frm = R.sheffer(*map(list, job[2])), R.sheffer(*map(list, job[1]))
        if ref_list(R.expand_in_basis(matrix, to)) != ref_list(frm):
            return "connect: sum_k c_nk r_k(x) differs from s_n(x)"
        return None

