"""Exact-arithmetic classical umbral calculus.

Umbrae are truncated unital moment sequences over exact rationals (or
polynomials in x, y).  The package provides the dot-operation algebra
(dot-products, dot-powers, inverses, compositional inverses, adjoints,
derivative umbrae), a truncated exponential-generating-function kernel that
works on the moment sequences themselves, the Sheffer/associated/Appell
sequence toolkit with connection constants, the classical special sequences
(Abel, Poisson-Charlier, umbral Stirling numbers, Lagrange inversion), a
small expression DSL, and the `umbra` command-line front end.
"""

from .combinatorics import (
    bell_numbers,
    bell_partial,
    bernoulli_numbers,
    binomial,
    binomial_row,
    falling_factorial,
    stirling_first_classical,
    stirling_second_classical,
)
from .errors import (
    ConsistencyError,
    NonInvertibleError,
    OrderMismatchError,
    SingularSeriesError,
    UmbralError,
    UmbraSyntaxError,
    UnknownUmbraError,
    WorkspaceError,
)
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
    Product,
    ScalarMul,
    Sum,
    default_environment,
    evaluate,
    expectation,
)
from .parser import parse, pretty_print, tokenize
from .poly import Poly, Value, collapse, poly_definite_integral, poly_derivative
from .rationals import format_rational, parse_rational
from .series import (
    egf_compose,
    egf_exp,
    egf_log,
    egf_mul,
    egf_power,
    egf_reciprocal,
    egf_revert,
)
from .sequences import (
    RecurrenceSolution,
    abel_identity_check,
    abel_polynomials,
    bell_expansion,
    bell_expansion_general,
    exponential_polynomials,
    fibonacci_factorial_umbra,
    fibonacci_numbers,
    lagrange_inversion,
    lagrange_inversion_general,
    poisson_charlier,
    poisson_charlier_sequence,
    polynomial_expand_abel,
    recurrence_example_backward,
    recurrence_example_bernoulli,
    recurrence_example_fibonacci,
    stirling_first_column,
    stirling_first_umbral,
    stirling_second_umbral,
    stirling_triangle,
)
from .sheffer import (
    ConnectionConstants,
    IdentityReport,
    PolySequence,
    ShefferPair,
    appell_moments,
    associated_moments,
    bernoulli_appell_pair,
    check_appell_identity,
    check_binomial_identity,
    check_sheffer_identity,
    connection_constants,
    factorial_pair,
    inverse_pair,
    inverse_sequence,
    poisson_charlier_pair,
    power_pair,
    sheffer_moments,
    umbral_compose,
)
from .umbra import (
    BUILTIN_UMBRAE,
    Umbra,
    adjoint,
    augmentation,
    bell_umbra,
    bernoulli_umbra,
    comp_inverse,
    cumulant,
    derivative_umbra,
    disjoint_diff,
    disjoint_sum,
    dot,
    dot_power,
    factorial_moments,
    factorial_umbra,
    indeterminate_umbra,
    inverse_dot,
    overbar_umbra,
    scalar_multiple,
    scale_moments,
    scalar_umbra,
    singleton,
    substitute,
    ubar_umbra,
    uinv_umbra,
    umbral_sum,
    unity,
    with_x_shift,
)

__version__ = "0.1.0"
