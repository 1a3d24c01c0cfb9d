"""Exact computation of multidegree supports of multiprojective
varieties from combinatorial data: rank functions and discrete
polymatroids, Schubert polynomials and Rothe diagrams, multigraded
K-polynomials of monomial ideals, flag and moduli supports, and mixed
volumes of lattice polytopes.
"""

from .errors import BudgetExceededError, UnsupportedSizeError, ValidationError
from .flagmoduli import (
    flag_comparator_report,
    flag_msupp,
    flag_rank_function,
    m0n_msupp,
    m0n_rank_function,
)
from .hilbert import (
    Grading,
    MonomialIdeal,
    SimplicialComplex,
    facet_support,
    hilbert_function_oracle,
    hollow_triangle,
    icosahedron_boundary,
    kpolynomial,
    minimum_primes,
    multidegree_polynomial,
    octahedron_boundary,
    quotient_krull_dimension,
    stanley_reisner_ideal,
)
from .mixedvol import (
    LatticePolytope,
    MixedVolumeTable,
    minkowski_sum,
    mixed_volumes,
    polytope_dim,
    positivity_criterion,
    segments_criterion,
    volume,
)
from .poly import IntPolynomial
from .polymatroid import (
    InvalidRankError,
    MConvexReport,
    RankFunction,
    RankReport,
    SubspaceFamily,
    Support,
    is_mconvex,
    linear_rank,
    msupp_from_rank,
    rank_from_support,
    validate_rank_function,
)
from .schubert import (
    Diagram,
    Permutation,
    length,
    projection_codim,
    rothe_diagram,
    schubert_polynomial,
    schubert_support_polytope,
    theta,
    theta_rank_function,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Diagram",
    "Grading",
    "IntPolynomial",
    "InvalidRankError",
    "LatticePolytope",
    "MConvexReport",
    "MixedVolumeTable",
    "MonomialIdeal",
    "Permutation",
    "RankFunction",
    "RankReport",
    "SimplicialComplex",
    "SubspaceFamily",
    "Support",
    "UnsupportedSizeError",
    "ValidationError",
    "facet_support",
    "flag_comparator_report",
    "flag_msupp",
    "flag_rank_function",
    "hilbert_function_oracle",
    "hollow_triangle",
    "icosahedron_boundary",
    "is_mconvex",
    "kpolynomial",
    "length",
    "linear_rank",
    "m0n_msupp",
    "m0n_rank_function",
    "minimum_primes",
    "minkowski_sum",
    "mixed_volumes",
    "msupp_from_rank",
    "multidegree_polynomial",
    "octahedron_boundary",
    "polytope_dim",
    "positivity_criterion",
    "projection_codim",
    "quotient_krull_dimension",
    "rank_from_support",
    "rothe_diagram",
    "schubert_polynomial",
    "schubert_support_polytope",
    "segments_criterion",
    "stanley_reisner_ideal",
    "theta",
    "theta_rank_function",
    "validate_rank_function",
    "volume",
]
