"""Game-theoretic attributions and k-th-order interactions built on exact
synergy (Möbius) decomposition, with closed-form monomial distribution rules
for the gradient-based family and a quadrature oracle."""

from .core import (
    Instance,
    InteractionReport,
    masked_point,
    validate_instance,
)
from .exceptions import (
    CapExceededError,
    DimensionMismatchError,
    InvalidCoalitionError,
    NonFiniteError,
    OutOfBoxError,
    ParseError,
    SynergyError,
)
from .expressions import evaluate, parse, partial, taylor, to_polynomial, to_text
from .grad_exact import (
    augmented_integrated_hessian,
    integrated_gradients,
    integrated_hessian,
    integrated_hessian_pairwise,
    sum_of_powers,
    sum_of_powers_nested,
)
from .grad_numeric import QuadratureConfig, ig_quadrature, ih2_quadrature
from .polynomials import SparsePolynomial
from .set_methods import (
    SetFunctionTable,
    SynergyTable,
    augmented_recursive_shapley,
    build_table,
    mobius,
    mobius_inverse,
    recursive_shapley,
    recursive_shapley_nested,
    shapley,
    shapley_from_marginals,
    shapley_taylor,
    shapley_taylor_from_marginals,
)

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "InteractionReport",
    "QuadratureConfig",
    "SetFunctionTable",
    "SparsePolynomial",
    "SynergyTable",
    "SynergyError",
    "CapExceededError",
    "DimensionMismatchError",
    "InvalidCoalitionError",
    "NonFiniteError",
    "OutOfBoxError",
    "ParseError",
    "augmented_integrated_hessian",
    "augmented_recursive_shapley",
    "build_table",
    "evaluate",
    "ig_quadrature",
    "ih2_quadrature",
    "integrated_gradients",
    "integrated_hessian",
    "integrated_hessian_pairwise",
    "masked_point",
    "mobius",
    "mobius_inverse",
    "parse",
    "partial",
    "recursive_shapley",
    "recursive_shapley_nested",
    "shapley",
    "shapley_from_marginals",
    "shapley_taylor",
    "shapley_taylor_from_marginals",
    "sum_of_powers",
    "sum_of_powers_nested",
    "taylor",
    "to_polynomial",
    "to_text",
    "validate_instance",
]
