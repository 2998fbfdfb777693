"""Exact-arithmetic classical umbral calculus.

Umbrae are truncated unital moment sequences over exact rationals (or
polynomials in x, y).  The package provides the dot-operation algebra
(dot-products, dot-powers, inverses, compositional inverses, adjoints,
derivative umbrae), a truncated exponential-generating-function kernel that
works on the moment sequences themselves, the Sheffer/associated/Appell
sequence toolkit with connection constants, the classical special sequences
(Abel, Poisson-Charlier, umbral Stirling numbers, Lagrange inversion), a
small expression DSL, and the `umbra` command-line front end.

The names imported here are the library API listed in the README; everything
else is reached through its submodule.
"""

from .errors import (
    ConsistencyError,
    NonInvertibleError,
    OrderCapError,
    OrderMismatchError,
    SingularSeriesError,
    UmbralError,
    UmbraSyntaxError,
    UnknownUmbraError,
    VariableCaptureError,
    WorkspaceError,
)
from .expressions import evaluate
from .parser import parse
from .poly import Poly
from .rationals import OutputSizeError, format_rational
from .sequences import (
    abel_identity_check,
    abel_polynomials,
    bell_expansion,
    bell_expansion_general,
    lagrange_inversion,
    lagrange_inversion_general,
    poisson_charlier_sequence,
    polynomial_expand_abel,
    recurrence_example_backward,
    recurrence_example_bernoulli,
    recurrence_example_fibonacci,
    stirling_first_umbral,
    stirling_second_umbral,
    stirling_triangle,
)
from .sheffer import (
    PolySequence,
    ShefferPair,
    appell_moments,
    associated_moments,
    bernoulli_appell_pair,
    check_appell_identity,
    check_binomial_identity,
    check_sheffer_identity,
    connection_constants,
    inverse_sequence,
    poisson_charlier_pair,
    sheffer_moments,
    umbral_compose,
)
from .umbra import (
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
