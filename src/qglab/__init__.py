"""qglab: a numerical laboratory for finite quantum groups.

Exact structure-tensor arithmetic for finite-dimensional Hopf *-algebras with
Haar state, their convolution algebras and corepresentation calculus, GNS
duality, coefficient-induced multipliers, and truncated free-product Fock
spaces with certified norm lower bounds.
"""

from .qgroup import (
    AlgebraElement,
    BlockDecomposition,
    FiniteQuantumGroup,
    GnsData,
    ValidationReport,
    adjoint,
    apply_antipode,
    multiply,
    operator_norm,
    validate,
)
from .builders import (
    BUILTIN_NAMES,
    builtin_instance,
    from_function_algebra,
    from_group_algebra,
    kac_paljutkin,
)

__all__ = [
    "AlgebraElement",
    "BlockDecomposition",
    "FiniteQuantumGroup",
    "GnsData",
    "ValidationReport",
    "adjoint",
    "apply_antipode",
    "multiply",
    "operator_norm",
    "validate",
    "BUILTIN_NAMES",
    "builtin_instance",
    "from_function_algebra",
    "from_group_algebra",
    "kac_paljutkin",
]

__version__ = "0.1.0"
