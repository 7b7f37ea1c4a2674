"""Exact multigraded free resolutions.

Given a multigraded morphism of free modules over a polynomial ring, this
package builds the complex of its full face system (the Taylor-style
resolution), the Scarf complex, verifies exactness degree by degree,
minimizes resolutions by unit-entry cancellation, and transports
resolutions along maps of LCM-lattices.  All arithmetic is exact, over the
rationals or a prime field.
"""

from .degrees import Multidegree, join, join_all, join_closure, leq, sub
from .errors import (
    ClosureTooLarge,
    DegreeNotInLattice,
    DimensionError,
    FormatError,
    HomogeneityError,
    MgresError,
    MissingKey,
    NegativeShift,
    NotAComplex,
    RankMismatch,
    RestrictionError,
    TooManyColumns,
    ZeroColumnError,
)
from .fields import QQ, PrimeField, field_by_name
from .lattice import FaceData, LcmLattice, face_data, lcm_lattice, scarf_faces
from .linalg import Matrix, Subspace, kernel_basis
from .morphism import CoeffData, MaxRankResult, Morphism, coeff_data_from_matrix
from .multilinear import (
    VectorComplex,
    build_A_complex,
    build_B_complex,
    divided_basis,
    divided_dim,
    divided_embed,
    exterior_basis,
)
from .relabel import (
    RelabelMap,
    check_join_preserving,
    check_qe_compatible,
    check_quasi_equivalent,
    relabel,
)
from .systems import (
    FaceSystem,
    GradedComplex,
    build_complex,
    full_system,
    is_compatible_system,
    scarf_complex,
    scarf_system,
    taylor_complex,
)
from .verify import (
    ExactnessReport,
    check_d2,
    graded_ranks,
    homology_dims,
    is_exact,
    is_minimal,
    is_resolution,
    is_split_exact,
    minimize,
    strand,
)

__all__ = [
    "ClosureTooLarge",
    "CoeffData",
    "DegreeNotInLattice",
    "DimensionError",
    "ExactnessReport",
    "FaceData",
    "FaceSystem",
    "FormatError",
    "GradedComplex",
    "HomogeneityError",
    "LcmLattice",
    "Matrix",
    "MaxRankResult",
    "MgresError",
    "MissingKey",
    "Morphism",
    "Multidegree",
    "NegativeShift",
    "NotAComplex",
    "PrimeField",
    "QQ",
    "RankMismatch",
    "RelabelMap",
    "RestrictionError",
    "Subspace",
    "TooManyColumns",
    "VectorComplex",
    "ZeroColumnError",
    "build_A_complex",
    "build_B_complex",
    "build_complex",
    "check_d2",
    "check_join_preserving",
    "check_qe_compatible",
    "check_quasi_equivalent",
    "coeff_data_from_matrix",
    "divided_basis",
    "divided_dim",
    "divided_embed",
    "exterior_basis",
    "face_data",
    "field_by_name",
    "full_system",
    "graded_ranks",
    "homology_dims",
    "is_compatible_system",
    "is_exact",
    "is_minimal",
    "is_resolution",
    "is_split_exact",
    "join",
    "join_all",
    "join_closure",
    "kernel_basis",
    "lcm_lattice",
    "leq",
    "minimize",
    "relabel",
    "scarf_complex",
    "scarf_faces",
    "scarf_system",
    "strand",
    "sub",
    "taylor_complex",
]
