"""Invariants of the 2-class field tower over Q(sqrt(2*p1*p2), i), p1 = p2 = 5 (mod 8).

Computes the classification symbols and exponents of a prime pair, realizes
the Galois group of the second Hilbert 2-class field as a concrete finite
2-group, and cross-validates the predicted class-group types and capitulation
kernels of all fourteen unramified extensions three ways: decision tables,
first-principles symbol computations, and transfer kernels in the group model.
"""

from .abelian import AbelianType
from .classify import (
    ConsistencyError,
    InvariantRecord,
    PredictionReport,
    Profile,
    ValidationReport,
    classify_pair,
    cross_validate,
    invariants,
    norm_groups,
    norm_groups_from_symbols,
    predict,
)
from .gaussian import GaussianInt, PrimeSplit, gauss_symbol, split_prime, symbol_B, symbol_pi
from .gengroup import GPresentation, PsiVariant, Subgroup, transfer_kernel
from .quadratic import (
    BQForm,
    ClassGroup,
    QuadUnit,
    class_group,
    exponents_mn,
    fundamental_unit,
    norm_eps,
)
from .symbols import (
    InvalidPairError,
    PrimePair,
    jacobi,
    quartic_symbol,
    quartic_symbol_mod2,
    validate_pair,
)
from .unitindex import MultiQuadElt, exact_square_root, q_from_symbols, unit_index_q

__version__ = "0.1.0"

__all__ = [
    "AbelianType",
    "BQForm",
    "ClassGroup",
    "ConsistencyError",
    "GPresentation",
    "GaussianInt",
    "InvalidPairError",
    "InvariantRecord",
    "MultiQuadElt",
    "PredictionReport",
    "PrimePair",
    "PrimeSplit",
    "Profile",
    "PsiVariant",
    "QuadUnit",
    "Subgroup",
    "ValidationReport",
    "class_group",
    "classify_pair",
    "cross_validate",
    "exact_square_root",
    "exponents_mn",
    "fundamental_unit",
    "gauss_symbol",
    "invariants",
    "jacobi",
    "norm_eps",
    "norm_groups",
    "norm_groups_from_symbols",
    "predict",
    "q_from_symbols",
    "quartic_symbol",
    "quartic_symbol_mod2",
    "split_prime",
    "symbol_B",
    "symbol_pi",
    "transfer_kernel",
    "unit_index_q",
    "validate_pair",
]
