"""Exception types shared across the package."""

from __future__ import annotations


class MgresError(Exception):
    """Base class for all package errors."""


class FormatError(MgresError):
    """A file or raw record does not conform to the expected schema."""


class DimensionError(MgresError):
    """Mismatched lengths: degree vectors, matrix shapes, ambient dimensions."""


class HomogeneityError(MgresError):
    """A nonzero entry of a graded map has a negative forced degree shift."""

    def __init__(self, row: int, col: int, shift=None):
        self.row = row
        self.col = col
        self.shift = shift
        msg = f"entry ({row}, {col}) has negative degree shift"
        if shift is not None:
            msg += f" {tuple(shift)}"
        super().__init__(msg)


class ZeroColumnError(MgresError):
    """A column of the morphism has no nonzero coefficient."""

    def __init__(self, col: int):
        self.col = col
        super().__init__(f"column {col} is identically zero")


class TooManyColumns(MgresError):
    """Subset enumeration budget passed: the full system's generator count
    (systems.MAX_GENERATORS) or the uniform-rank walk's r-subset count
    (morphism.MAX_RANK_SUBSETS)."""


class ClosureTooLarge(MgresError):
    """A join closure passed its budget (see degrees.MAX_CLOSURE_ELEMENTS)."""


class DegreeNotInLattice(MgresError):
    """Face data was requested at a degree that no face realizes."""


class RestrictionError(MgresError):
    """A face system is malformed or not closed under the boundary map."""

    def __init__(self, face, message: str):
        self.face = tuple(face)
        super().__init__(message)


class NotAComplex(MgresError):
    """Consecutive differentials do not compose to zero."""


class MissingKey(MgresError):
    """A relabeling map is undefined on a degree it is queried at."""

    def __init__(self, degree):
        self.degree = tuple(degree)
        super().__init__(f"relabeling map undefined on degree {self.degree}")


class NegativeShift(MgresError):
    """A nonzero entry of a graded complex has a negative forced shift."""

    def __init__(self, level: int, row: int, col: int, shift):
        self.level = level
        self.row = row
        self.col = col
        self.shift = tuple(shift)
        super().__init__(
            f"entry ({row}, {col}) of differential at level {level} "
            f"has negative shift {self.shift}"
        )


class RankMismatch(MgresError):
    """Two morphisms cannot be compared: unequal source ranks."""
