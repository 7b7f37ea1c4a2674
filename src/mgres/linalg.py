"""Exact dense linear algebra over Q or GF(p).

Everything downstream (kernels of dual maps, complex homology, resolution
minimization) reduces to ranks, reduced row echelon forms and small linear
solves, all computed exactly.  Rank over the rationals goes through
fraction-free (Bareiss) elimination on integer rows after clearing
denominators, which avoids per-step gcd churn; canonical forms and solves
use ordinary Gauss-Jordan over the field.

Subspaces are stored as reduced row echelon bases, so subspace equality is
literal equality of the stored rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError
from .fields import QQ


class Matrix:
    """An immutable dense matrix over a fixed exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(row) for row in data)
        if len(self.data) != rows or any(len(r) != cols for r in self.data):
            raise DimensionError(f"matrix data does not have shape {rows}x{cols}")

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence], cols: int | None = None):
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0]) if cols is None else cols
        elif cols is None:
            raise DimensionError("empty matrix needs an explicit column count")
        return cls(field, len(rows), cols, rows)

    @classmethod
    def from_columns(cls, field, rows: int, cols: Sequence[Sequence]):
        return cls(field, rows, len(cols), [[c[i] for c in cols] for i in range(rows)])

    @classmethod
    def from_int_rows(cls, field, rows: Sequence[Sequence[int]], cols: int | None = None):
        return cls.from_rows(field, [[field.of(x) for x in r] for r in rows], cols)

    @classmethod
    def zeros(cls, field, rows: int, cols: int):
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n: int):
        z, o = field.zero, field.one
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    def at(self, i: int, j: int):
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(
            self.field,
            len(row_idx),
            len(col_idx),
            [[self.data[i][j] for j in col_idx] for i in row_idx],
        )

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        z = self.field.zero
        out = [[z] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.data[i]
            acc = out[i]
            for k in range(self.cols):
                a = row[k]
                if a == z:
                    continue
                orow = other.data[k]
                for j in range(other.cols):
                    b = orow[j]
                    if b != z:
                        acc[j] = acc[j] + a * b
        return Matrix(self.field, self.rows, other.cols, out)

    def apply(self, vec: Sequence) -> list:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise DimensionError("vector length does not match column count")
        z = self.field.zero
        out = []
        for row in self.data:
            acc = z
            for a, b in zip(row, vec):
                if a != z and b != z:
                    acc = acc + a * b
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.data for x in row)

    def rank(self) -> int:
        """Exact rank of the matrix."""
        if self.rows == 0 or self.cols == 0:
            return 0
        if self.field == QQ:
            return _bareiss_rank(_cleared_int_rows(self.data))
        return len(self.rref()[1])

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        z, o = self.field.zero, self.field.one
        m = [list(r) for r in self.data]
        pivots: list[int] = []
        pr = 0
        for pc in range(self.cols):
            pivot = next((r for r in range(pr, len(m)) if m[r][pc] != z), None)
            if pivot is None:
                continue
            m[pr], m[pivot] = m[pivot], m[pr]
            inv = o / m[pr][pc]
            m[pr] = [x * inv for x in m[pr]]
            for r in range(len(m)):
                if r != pr and m[r][pc] != z:
                    f = m[r][pc]
                    m[r] = [x - f * y for x, y in zip(m[r], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == len(m):
                break
        return Matrix(self.field, self.rows, self.cols, m), tuple(pivots)

    def det(self):
        """Determinant of a square matrix (field elimination)."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        z = self.field.zero
        n = self.rows
        if n == 0:
            return self.field.one
        m = [list(r) for r in self.data]
        det = self.field.one
        for pc in range(n):
            pivot = next((r for r in range(pc, n) if m[r][pc] != z), None)
            if pivot is None:
                return z
            if pivot != pc:
                m[pc], m[pivot] = m[pivot], m[pc]
                det = -det
            det = det * m[pc][pc]
            inv = self.field.one / m[pc][pc]
            for r in range(pc + 1, n):
                if m[r][pc] != z:
                    f = m[r][pc] * inv
                    m[r] = [x - f * y for x, y in zip(m[r], m[pc])]
        return det

    def kernel_rows(self) -> list[list]:
        """A spanning set of the right kernel {v : self @ v = 0}."""
        z, o = self.field.zero, self.field.one
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            v = [z] * self.cols
            v[f] = o
            for i, p in enumerate(pivots):
                v[p] = -red.data[i][f]
            basis.append(v)
        return basis

    def solve(self, b: Sequence) -> list | None:
        """One solution x of self @ x = b (free variables set to 0), or None."""
        if len(b) != self.rows:
            raise DimensionError("right-hand side length does not match row count")
        z = self.field.zero
        aug = Matrix(
            self.field,
            self.rows,
            self.cols + 1,
            [list(row) + [bv] for row, bv in zip(self.data, b)],
        )
        red, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [z] * self.cols
        for i, p in enumerate(pivots):
            x[p] = red.data[i][self.cols]
        return x

    def solve_matrix(self, b: "Matrix") -> "Matrix | None":
        """Columnwise solve of self @ X = b, or None if any column fails."""
        cols = []
        for j in range(b.cols):
            x = self.solve(b.col(j))
            if x is None:
                return None
            cols.append(x)
        return Matrix.from_columns(self.field, self.cols, cols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {self.field!r}: [{body}])"


def _cleared_int_rows(data) -> list[list[int]]:
    """Scale each rational row by the lcm of denominators (rank-preserving)."""
    out = []
    for row in data:
        scale = math.lcm(*(Fraction(x).denominator for x in row)) if row else 1
        out.append([int(x * scale) for x in row])
    return out


def _bareiss_rank(m: list[list[int]]) -> int:
    """Rank by fraction-free elimination; all divisions are exact."""
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    prev = 1
    pr = 0
    for pc in range(n_cols):
        pivot = next((r for r in range(pr, n_rows) if m[r][pc] != 0), None)
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        p = m[pr][pc]
        prow = m[pr]
        for r in range(pr + 1, n_rows):
            f = m[r][pc]
            mr = m[r]
            for c in range(pc + 1, n_cols):
                mr[c] = (mr[c] * p - f * prow[c]) // prev
            mr[pc] = 0
        prev = p
        pr += 1
        if pr == n_rows:
            break
    return pr


class Subspace:
    """A subspace of a coordinate space, canonically a reduced echelon basis.

    Two subspaces are equal exactly when their stored bases are identical,
    which makes containment and equality of kernels decidable by inspection.
    """

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim: int, basis: Matrix):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        if basis.cols != ambient_dim:
            raise DimensionError("basis width does not match ambient dimension")

    @classmethod
    def from_rows(cls, field, ambient_dim: int, rows: Sequence[Sequence]) -> "Subspace":
        mat = Matrix.from_rows(field, rows, cols=ambient_dim)
        red, pivots = mat.rref()
        keep = [red.data[i] for i in range(len(pivots))]
        return cls(field, ambient_dim, Matrix.from_rows(field, keep, cols=ambient_dim))

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.from_rows(field, [], cols=ambient_dim))

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivots(self) -> tuple[int, ...]:
        z = self.field.zero
        return tuple(
            next(j for j in range(self.ambient_dim) if row[j] != z)
            for row in self.basis.data
        )

    def reduce_vector(self, v: Sequence) -> list:
        """Residue of v after subtracting its projection onto the basis rows."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length does not match ambient dimension")
        v = list(v)
        z = self.field.zero
        for row, p in zip(self.basis.data, self.pivots()):
            f = v[p]
            if f != z:
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def contains_vector(self, v: Sequence) -> bool:
        z = self.field.zero
        return all(x == z for x in self.reduce_vector(v))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(row) for row in other.basis.data)

    def annihilator(self) -> "Subspace":
        """Functionals (in dual coordinates) vanishing on this subspace."""
        return Subspace.from_rows(self.field, self.ambient_dim, self.basis.kernel_rows())

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient_dim == self.ambient_dim
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        rows = [list(r) for r in self.basis.data]
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim}, basis {rows})"


def rank(m: Matrix) -> int:
    """Rank of a matrix (dimension of the row space)."""
    return m.rank()


def kernel_basis(m: Matrix) -> Subspace:
    """The right kernel {v : m @ v = 0} in canonical echelon form."""
    return Subspace.from_rows(m.field, m.cols, m.kernel_rows())


def column_space_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column space."""
    return Subspace.from_rows(m.field, m.rows, [list(r) for r in m.transpose().data])


def annihilator_basis(s: Subspace) -> Subspace:
    """Functionals vanishing on s; dimension = ambient - dim(s)."""
    return s.annihilator()
