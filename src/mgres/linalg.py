"""Exact linear algebra over Q or GF(p).

A ``Matrix`` stores its entries densely, as a tuple of row tuples.  The one
scan for nonzeros is ``Matrix.nonzero_rows`` (a ``{col: value}`` dict per
row, columns ascending), and ``Matrix.from_nonzero_rows`` is the one way
back; the product ``mul`` is taken over the nonzero rows of both factors,
so it costs the number of nonzero products, not rows x inner x cols.

Everything downstream (kernels of dual maps, complex homology, resolution
minimization) reduces to ranks, reduced row echelon forms, determinants and
small linear solves, all computed exactly by one elimination, ``_echelon``.
It runs on rows the field handle has coded as ints: over Q each row is
scaled by the lcm of its denominators and eliminated fraction-free
(Bareiss), so every division is exact and no gcd is taken inside the loop;
over GF(p) the canonical representatives are eliminated mod p.  Rank is the
pivot count, the reduced form decodes each pivot row by its pivot, and the
determinant is read off the pivots.

Subspaces are stored as reduced row echelon bases, so subspace equality is
literal equality of the stored rows.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DimensionError


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
    def from_nonzero_rows(cls, field, cols: int, rows: Sequence[Mapping[int, object]]):
        """The matrix with one row per {col: value} dict, absent columns zero."""
        data = []
        for entries in rows:
            row = [field.zero] * cols
            for j, x in entries.items():
                row[j] = x
            data.append(row)
        return cls(field, len(data), cols, data)

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

    def nonzero_rows(self) -> list[dict[int, object]]:
        """Per row, its nonzero entries as {col: value}, columns ascending."""
        return [{j: x for j, x in enumerate(row) if x} for row in self.data]

    def mul(self, other: "Matrix") -> "Matrix":
        """The product, summed over the nonzero entries of both factors only."""
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right = other.nonzero_rows()
        out = []
        for entries in self.nonzero_rows():
            acc = {}
            for k, a in entries.items():
                for j, b in right[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(acc)
        return Matrix.from_nonzero_rows(self.field, other.cols, out)

    def apply(self, vec: Sequence) -> list:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise DimensionError("vector length does not match column count")
        zero = self.field.zero
        return [sum((a * vec[j] for j, a in row.items()), zero) for row in self.nonzero_rows()]

    def is_zero(self) -> bool:
        return not any(self.nonzero_rows())

    def rank(self) -> int:
        """Exact rank of the matrix."""
        return len(_echelon(self.field, self.data, reduced=False)[1])

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        rows, pivots, den, _, _ = _echelon(self.field, self.data, reduced=True)
        decode, z = self.field.decode, self.field.zero
        out = [[decode(x, den) for x in row] for row in rows[: len(pivots)]]
        out += [[z] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix(self.field, self.rows, self.cols, out), tuple(pivots)

    def det(self):
        """Determinant of a square matrix."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        _, pivots, _, det, scale = _echelon(self.field, self.data, reduced=False)
        return self.field.decode(det, scale) if len(pivots) == self.rows else self.field.zero

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
        n = self.cols
        aug = [(*row, bv) for row, bv in zip(self.data, b)]
        rows, pivots, den, _, _ = _echelon(self.field, aug, reduced=True)
        if n in pivots:
            return None
        x = [self.field.zero] * n
        for row, p in zip(rows, pivots):
            x[p] = self.field.decode(row[n], den)
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


def _echelon(field, data, reduced: bool):
    """The one elimination, on rows coded as ints by ``field.encode_rows``.

    Over Z (characteristic 0) each step is Bareiss's fraction-free update:
    entries stay minors of the coded rows, the division by the previous
    pivot is exact, and in reduced form every pivot equals the last one.
    Mod p the pivot row is scaled to 1.  ``reduced`` clears above each pivot
    as well as below.  Returns (rows, pivot columns, den, det, scale): pivot
    rows decode entrywise by ``field.decode(x, den)``, and with a pivot in
    every row the determinant of ``data`` is ``field.decode(det, scale)``.
    """
    m, scale = field.encode_rows(data)
    p = field.characteristic
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign = d = 1  # d: determinant of the pivot block so far (over Z, the last pivot)
    for pc in range(n_cols):
        pr = len(pivots)
        if pr == n_rows:
            break
        pivot = next((r for r in range(pr, n_rows) if m[r][pc]), None)
        if pivot is None:
            continue
        if pivot != pr:
            m[pr], m[pivot] = m[pivot], m[pr]
            sign = -sign
        prow = m[pr]
        piv = prow[pc]
        others = [r for r in range(0 if reduced else pr + 1, n_rows) if r != pr]
        if p:
            d = d * piv % p
            inv = pow(piv, -1, p)
            prow = m[pr] = [x * inv % p for x in prow]
            for r in others:
                f = m[r][pc]
                if f:
                    m[r] = [(x - f * y) % p for x, y in zip(m[r], prow)]
        else:
            for r in others:
                f = m[r][pc]
                m[r] = [(x * piv - f * y) // d for x, y in zip(m[r], prow)]
            d = piv
        pivots.append(pc)
    return m, pivots, 1 if p else d, sign * d, scale


class Subspace:
    """A subspace of a coordinate space, canonically a reduced echelon basis.

    Two subspaces are equal exactly when their stored bases are identical,
    which makes equality of kernels decidable by inspection; containment is
    a rank test.
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
        return tuple(min(row) for row in self.basis.nonzero_rows())

    def contains_vector(self, v: Sequence) -> bool:
        """v lies in the subspace: appending it to the basis keeps the rank."""
        return self.basis.rows == Matrix.from_rows(
            self.field, [*self.basis.data, v], self.ambient_dim
        ).rank()

    def contains(self, other: "Subspace") -> bool:
        return self.basis.rows == Matrix.from_rows(
            self.field, self.basis.data + other.basis.data, self.ambient_dim
        ).rank()

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
