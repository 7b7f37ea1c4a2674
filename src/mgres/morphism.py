"""Multigraded morphisms of free modules and their coefficient data.

A morphism E -> G between free multigraded modules is stored by the
multidegrees of the fixed homogeneous bases of E and G together with the
scalar coefficient of each nonzero entry; the monomial part of every entry
is forced by homogeneity, so only the coefficients are kept.  Row and
column indices are 1-based throughout the public interface, matching the
usual display of generator tables.

The coefficient matrix C drives all linear algebra: its rank r, its column
space V inside the target coordinate space, and the r x e matrix of the
induced map onto V written in V-coordinates.  When r equals the target
rank, the V-coordinates are the duals of the target basis; otherwise they
are dual to the canonical echelon basis of the column space (for r = g the
two conventions coincide, since the echelon basis of the full space is the
standard one).

The LCM-lattice table ``degree_index.lattice()`` maps each lattice degree a
to I_a, the columns of degree at most a, as an int bitmask (bit j - 1 for
column j); ``columns`` decodes a mask.  The K-space of a face is
``multilinear.contraction_kernel`` of ``CoeffData.contractions`` at m = 1,
the one kernel route on uv; a Morphism keeps no K-space, so a caller that
asks for the same face often (``mgres analyze``) memoizes it.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

from . import degrees as deg
from .degrees import Multidegree
from .errors import DimensionError, HomogeneityError, TooManyColumns, ZeroColumnError
from .linalg import MaximalMinors, Matrix, Subspace
from .multilinear import Contractions, contraction_kernel

# Most r-element column subsets ``is_uniform_rank`` walks, read at call time:
# one minor off the table takes about 21 us (Q, r = 9, e = 18, entries
# below 30,000, 2 shared vCPUs) and the table keeps about 300 bytes of it,
# so the walk stays within about 1.5 s and 20 MB.
MAX_RANK_SUBSETS = 2**16


class CoeffData(namedtuple("CoeffData", "matrix r image uv")):
    """Scalar data attached to a morphism: the g x e coefficient matrix C,
    its rank r, the Subspace V = col(C) inside the target coordinate space
    and uv, the r x e matrix of the induced map U -> V in V-coordinates.
    No ``__slots__``: the instance dict holds the cached ``minors`` and
    ``contractions``."""

    @cached_property
    def minors(self) -> MaximalMinors:
        """The maximal minors of uv, each taken once for every complex built."""
        return MaximalMinors(self.uv)

    @cached_property
    def contractions(self) -> Contractions:
        """uv's columns, each coded once for every complex and kernel built."""
        return Contractions(self.uv)


def coeff_data_from_matrix(c: Matrix) -> CoeffData:
    """Coefficient data of a bare scalar matrix."""
    image = Subspace.row_space(c.transpose())
    r = image.dim
    uv = c.submatrix(image.pivots(), range(c.cols))
    return CoeffData(c, r, image, uv)


class MaxRankResult(namedtuple("MaxRankResult", "ok witness", defaults=(None,))):
    """Whether C has maximal rank at every lattice degree; if not, the
    first failing degree as the witness.  True exactly when ok."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


class Morphism:
    """A multigraded morphism, immutable once validated."""

    def __init__(
        self,
        n: int,
        field,
        source_degrees: Sequence[Sequence[int]],
        target_degrees: Sequence[Sequence[int]],
        entries: Mapping[tuple[int, int], object],
        var_names: Sequence[str] | None = None,
    ):
        self.n = n
        self.field = field
        self.source_degrees = tuple(deg.as_degree(d, n) for d in source_degrees)
        self.target_degrees = tuple(deg.as_degree(d, n) for d in target_degrees)
        self.entries = {(int(i), int(j)): v for (i, j), v in entries.items() if v}
        self.var_names = tuple(var_names) if var_names is not None else default_var_names(n)

    @property
    def e(self) -> int:
        return len(self.source_degrees)

    @property
    def g(self) -> int:
        return len(self.target_degrees)

    def shift(self, i: int, j: int) -> tuple[int, ...]:
        """Forced degree shift of entry (i, j): source degree minus target degree."""
        return deg.sub(self.source_degrees[j - 1], self.target_degrees[i - 1])

    def validate(self, allow_zero_columns: bool = False) -> "Morphism":
        """Check all structural invariants; returns self.

        Raises HomogeneityError for a nonzero entry whose forced shift has a
        negative coordinate, DimensionError for out-of-range indices or
        variable names that are not n distinct non-empty strings, and
        ZeroColumnError for an identically zero column (zero columns break
        minimal-presentation semantics, so they must be allowed explicitly).
        """
        if self.e < 1 or self.g < 1:
            raise DimensionError("a morphism needs at least one source and one target")
        check_var_names(self.var_names, self.n)
        for (i, j) in self.entries:
            if not (1 <= i <= self.g and 1 <= j <= self.e):
                raise DimensionError(f"entry index ({i}, {j}) out of range")
            s = self.shift(i, j)
            if any(c < 0 for c in s):
                raise HomogeneityError(i, j, s)
        if not allow_zero_columns:
            used = {j for (_, j) in self.entries}
            for j in range(1, self.e + 1):
                if j not in used:
                    raise ZeroColumnError(j)
        return self

    @cached_property
    def coeff_data(self) -> CoeffData:
        """Coefficient matrix, rank, image subspace and V-coordinates."""
        rows = [{} for _ in range(self.g)]
        for (i, j), v in self.entries.items():
            rows[i - 1][j - 1] = v
        return coeff_data_from_matrix(Matrix.from_nonzero_rows(self.field, self.e, rows))

    @cached_property
    def degree_index(self) -> deg.DegreeIndex:
        """The bitmask index of the source degrees: bit j - 1 stands for column j."""
        return deg.DegreeIndex(self.source_degrees)

    def columns(self, mask: int) -> frozenset[int]:
        """The column indices of a mask over the source degrees."""
        return frozenset(j + 1 for j in deg.bits(mask))

    def face_degree(self, face: Iterable[int]) -> Multidegree:
        """Join of the source degrees over a nonempty index set."""
        return deg.join_all(self.source_degrees[i - 1] for i in sorted(face))

    def k_space(self, face: Iterable[int]) -> Subspace:
        """Kernel of the restriction map V* -> V_I*, in V-coordinates.

        These are the functionals on V that kill the images of the columns
        indexed by the face, the D_1 that ``contraction_kernel`` leaves on
        them; for the empty face this is all of V*.  Taken anew on each call.
        """
        idx = sorted(set(face))
        if any(not 1 <= i <= self.e for i in idx):
            raise DimensionError(f"face {idx} has indices outside 1..{self.e}")
        return contraction_kernel(self.coeff_data.contractions, 1, [j - 1 for j in idx])

    def is_uniform_rank(self) -> bool:
        """Every r-element column subset of C is linearly independent;
        TooManyColumns, before any minor is taken, past MAX_RANK_SUBSETS subsets.

        C = B uv with B injective, so C_S has rank r exactly when the maximal
        minor det(uv_S) is nonzero: each is read off ``CoeffData.minors``,
        the table the Scarf and Taylor splice columns share.  At r = 0 the
        one subset is empty and its minor is 1."""
        cd = self.coeff_data
        if (count := math.comb(self.e, cd.r)) > MAX_RANK_SUBSETS:
            raise TooManyColumns(f"uniform rank: {count} column subsets, over {MAX_RANK_SUBSETS}")
        return all(map(cd.minors.is_nonzero, itertools.combinations(range(self.e), cd.r)))

    def is_combinatorially_generic(self) -> bool:
        """Supports of pairwise degree differences swallow both supports.

        A pair fails exactly at a coordinate where both degrees are equal
        and nonzero, so this reads each coordinate's nonzero values once:
        no value may repeat."""
        for k in range(self.n):
            values = [d[k] for d in self.source_degrees if d[k]]
            if len(set(values)) != len(values):
                return False
        return True

    def is_generic(self) -> bool:
        return self.is_combinatorially_generic() and self.is_uniform_rank()

    def is_maximal_rank_everywhere(self) -> MaxRankResult:
        """Check rank C_a = min(r, #columns of C_a) for every multidegree a.

        The quantifier over all of N^n reduces to the join closure of the
        source degrees: for any a, the column set I_a is reproduced at the
        join of the degrees it contains, so only closure points can witness
        a failure.  Runs over the lattice table; the witness is the first
        failing lattice degree in sorted order, ranked on uv_a (C = B uv,
        B injective).  Sorted order is a linear extension of <=, and rank is
        monotone in the column set, so a degree whose I_a contains an I_b of
        exactly r columns that already passed has rank r without a rank call."""
        cd, bases = self.coeff_data, []
        for a, cols in self.degree_index.lattice().items():
            size = cols.bit_count()
            if size > cd.r and any(b & ~cols == 0 for b in bases):
                continue
            if cd.uv.submatrix(range(cd.r), deg.bits(cols)).rank() != min(cd.r, size):
                return MaxRankResult(False, a)
            if size == cd.r:
                bases.append(cols)
        return MaxRankResult(True, None)

    def __repr__(self):
        return (
            f"Morphism(n={self.n}, {self.g}x{self.e} over {self.field!r}, "
            f"sources {list(self.source_degrees)})"
        )


def check_var_names(names, n: int) -> tuple[str, ...]:
    """names as a tuple when it lists exactly n distinct non-empty strings,
    the rule every morphism, complex and file loader holds its variable
    names to; DimensionError otherwise."""
    strings = isinstance(names, (list, tuple)) and all(isinstance(v, str) and v for v in names)
    if not (strings and len(names) == len(set(names)) == n):
        raise DimensionError(f"variable names must be {n} distinct non-empty strings")
    return tuple(names)


def default_var_names(n: int) -> tuple[str, ...]:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i}" for i in range(1, n + 1))
