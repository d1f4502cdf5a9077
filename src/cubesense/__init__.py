"""Exact verification toolkit for the boolean-cube degree bound.

The package certifies, both spectrally and by brute force, that every
induced subgraph on more than half the vertices of Q_n has a vertex of
degree at least sqrt(n): the operator ``A = i_v + lambda^`` on the
exterior algebra squares to the scalar ``lambda(v)``, its signed cube
matrix splits into eigenspaces of equal dimension, and an eigenvector
supported on the subgraph pins the bound at its max-coordinate vertex.
"""

from types import ModuleType as _ModuleType

from .cube import (
    DegreeProfile,
    InducedSubgraph,
    format_vertex,
    parse_subgraph,
    parse_vertex,
)
from .exhaustive import (
    BudgetExceededError,
    CrossCheckReport,
    EnumerationPlan,
    Exhaustive,
    ExhaustiveReport,
    RandomSample,
    cross_check_with_witness,
    enumerate_and_verify,
)
from .exterior import (
    Multivector,
    WeightConfig,
    apply_A,
    interior_product,
    wedge,
    wedge_lambda,
)
from .matrices import (
    EigenSplit,
    SignedCubeMatrix,
    SpectralReport,
    SquareIdentityReport,
    build_matrix,
    four_cycle_products_negative,
    huang_matrix,
    operator_trace,
    spectral_report,
    switching_equivalent,
    verify_square_identity,
)
from .scalars import (
    PositivityError,
    QuadraticScalar,
    ScalarMode,
    format_exact,
    parse_rational,
    sqrt_decompose,
)
from .witness import (
    DenseSolveTooLargeError,
    InvariantViolation,
    NumericalRankError,
    SubgraphTooSmallError,
    WitnessReport,
    extract_witness,
    positive_eigenvector_in_span,
    run_pipeline,
    weighted_scan,
)

__version__ = "0.1.0"

# every public name the imports above bind, so the export list is kept once
__all__ = [name for name, value in dict(globals()).items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
