"""Exact linear algebra over Q or GF(p).

A ``Matrix`` stores only its nonzero rows: one ``{col: value}`` dict per
row, columns ascending, zeros absent.  ``from_nonzero_rows`` copies what it
is handed and ``nonzero_rows`` hands out copies, so no caller holds the
stored dicts.  ``data``, the dense rows, is a read-only view built on each
access for display and tests.  Products, transposes and strands cost the
number of nonzeros.

Everything downstream (kernels of dual maps, complex homology, resolution
minimization) reduces to ranks, reduced row echelon forms, determinants,
small linear solves and products, all computed exactly on the sparse int
rows of ``field.encode_rows``, which codes row i as s_i times the row (s_i
= 1 over GF(p)).  One elimination, ``_echelon``, clears each row at its
first nonzero by the pivot row of that column, so it meets only the pivot
rows of its own nonzero columns, and normalizes it (over Z divided by its
content, mod p scaled to a leading 1).  Rank is the pivot count, the reduced
form decodes each pivot row by its own pivot, and the determinant is read
off the pivots, the row multipliers and the scales.  One product, ``mul``
(``apply`` is its one-column case), codes A by rows (a'_i = s_i a_i) and B
by rows (b'_k = t_k b_k) and weighs b'_k by L / t_k, L = lcm of the t_k:
sum_k a'_ik (L / t_k) b'_kj = s_i L (A B)_ij is an integer over Q, and
over GF(p), where all scales are 1, an integer congruent to (A B)_ij.  So
(A B)_ij is ``decode(sum, s_i L)``, zero exactly when the sum is 0 over Z
or mod p; only nonzero sums are decoded.

The row updates ``_normalize`` and ``_clear`` serve two passes: ``_echelon``
and ``cancel``, the unit cancellation of ``verify.minimize``, which
normalizes each pivot row its caller names, clears that column in every other
row (its scale times ``_clear``'s multiplier) and decodes each row left once.

A ``Subspace`` is only its reduced echelon basis, so equality is equality
of the stored rows.  Every subspace comes from one row-space reduction,
``Subspace.row_space``, and every kernel from ``kernel_basis`` (one ``rref``,
a sparse vector per free column, then ``row_space``).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .errors import DimensionError


class Matrix:
    """An immutable sparse matrix over a fixed exact field."""

    __slots__ = ("field", "rows", "cols", "_entries")

    def __init__(self, field, rows: int, cols: int, data):
        """The matrix of the dense rows ``data``."""
        data = [tuple(row) for row in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionError(f"matrix data does not have shape {rows}x{cols}")
        self.field, self.rows, self.cols = field, rows, cols
        self._entries = tuple({j: x for j, x in enumerate(row) if x} for row in data)

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
        return cls(field, len(cols), rows, cols).transpose()

    @classmethod
    def from_int_rows(cls, field, rows: Sequence[Sequence[int]], cols: int | None = None):
        return cls.from_rows(field, [[field.of(x) for x in r] for r in rows], cols)

    @classmethod
    def from_nonzero_rows(cls, field, cols: int, rows: Sequence[Mapping[int, object]]):
        """One row per {col: value} mapping (copied; any column order, zeros dropped)."""
        return cls._wrap(field, cols, [{j: row[j] for j in sorted(row) if row[j]} for row in rows])

    @classmethod
    def _wrap(cls, field, cols: int, rows: Sequence[dict]):
        # stores rows as they are: new dicts, columns ascending, no zeros
        m = cls.__new__(cls)
        m.field, m.rows, m.cols = field, len(rows), cols
        m._entries = tuple(rows)
        return m

    @classmethod
    def zeros(cls, field, rows: int, cols: int):
        return cls.from_nonzero_rows(field, cols, [{}] * rows)

    @classmethod
    def identity(cls, field, n: int):
        return cls.from_nonzero_rows(field, n, [{i: field.one} for i in range(n)])

    @property
    def data(self) -> tuple:
        """The dense rows as tuples, built on each access."""
        z = self.field.zero
        return tuple(tuple(row.get(j, z) for j in range(self.cols)) for row in self._entries)

    def col(self, j: int) -> tuple:
        z = self.field.zero
        return tuple(row.get(j, z) for row in self._entries)

    def transpose(self) -> "Matrix":
        return Matrix.from_nonzero_rows(self.field, self.rows, _columns(self._entries, self.cols))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        """The rows row_idx and the distinct columns col_idx, in the order given."""
        new = {j: k for k, j in enumerate(col_idx)}
        rows = [{new[j]: x for j, x in self._entries[i].items() if j in new} for i in row_idx]
        return Matrix.from_nonzero_rows(self.field, len(new), rows)

    def nonzero_rows(self) -> list[dict[int, object]]:
        """Per row, its nonzero entries as {col: value}, columns ascending (copies)."""
        return [dict(row) for row in self._entries]

    def place_into(self, rows: Sequence[dict], row0: int, col0: int) -> None:
        """Write the nonzero entries into the sparse rows ``rows`` at offset (row0, col0)."""
        for i, entries in enumerate(self._entries, start=row0):
            rows[i].update({col0 + j: x for j, x in entries.items()})

    def __neg__(self) -> "Matrix":
        rows = [{j: -x for j, x in row.items()} for row in self._entries]
        return Matrix.from_nonzero_rows(self.field, self.cols, rows)

    def mul(self, other: "Matrix") -> "Matrix":
        """The product, summed as ints over the nonzero codes of both factors
        and decoded where nonzero (see the module docstring)."""
        if self.cols != other.rows:
            shapes = f"{self.rows}x{self.cols} by {other.rows}x{other.cols}"
            raise DimensionError(f"cannot multiply {shapes}")
        field, p = self.field, self.field.characteristic
        left, scales = field.encode_rows(self._entries)
        right, weights = field.encode_rows(other._entries)
        lcm = math.lcm(*weights)
        if lcm != 1:
            right = [{j: y * (lcm // t) for j, y in row.items()} for row, t in zip(right, weights)]
        out = []
        for entries, s in zip(left, scales):
            acc = {}
            for k, x in entries.items():
                for j, y in right[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            den = s * lcm
            nonzero = sorted(j for j, v in acc.items() if (v % p if p else v))
            out.append({j: field.decode(acc[j], den) for j in nonzero})
        return Matrix._wrap(field, other.cols, out)

    def apply(self, vec: Sequence) -> list:
        """Matrix times column vector: the one-column case of ``mul``."""
        return list(self.mul(Matrix(self.field, len(vec), 1, [[v] for v in vec])).col(0))

    def is_zero(self) -> bool:
        return not any(self._entries)

    def rank(self) -> int:
        """Exact rank of the matrix."""
        return len(_echelon(self.field, self._entries, reduced=False)[0])

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        found, _, _ = _echelon(self.field, self._entries, reduced=True)
        decode = self.field.decode
        pivots = sorted(found)
        out = [{j: decode(x, found[c][c]) for j, x in found[c].items()} for c in pivots]
        out += [{}] * (self.rows - len(pivots))
        return Matrix.from_nonzero_rows(self.field, self.cols, out), tuple(pivots)

    def det(self):
        """Determinant of a square matrix."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        found, num, den = _echelon(self.field, self._entries, reduced=False)
        if len(found) < self.rows:
            return self.field.zero
        # Pivot row k is coded row k times its multipliers over its divisor,
        # plus multiples of earlier rows, and coded row k is row k times its
        # scale, so det = det(pivot rows) * num / den (den starts as the
        # scales' product).  Sorted by pivot column the pivot rows are upper
        # triangular: their det is the pivots' product, signed by the
        # inversions of the found order.
        order = list(found)
        inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
        num *= math.prod(row[c] for c, row in found.items())
        return self.field.decode(-num if inversions % 2 else num, den)

    def cancel(self, rows: Sequence[int], pivot) -> tuple["Matrix", list[tuple[int, int]]]:
        """One forward pass over the given rows: ``pivot(i, cols)`` names one of
        row i's current nonzero columns or None; a pivot row is dropped and
        clears its column in every other given row.  Returns the rows left,
        in order and with all columns, and the (row, column) pivots taken."""
        field, p = self.field, self.field.characteristic
        coded, scales = field.encode_rows([self._entries[i] for i in rows])
        # per column, the rows nonzero there and some no longer (checked on use)
        where = [set(col) for col in _columns(coded, self.cols)]
        pairs = []
        for k, i in enumerate(rows):
            q = pivot(i, coded[k].keys())
            if q is None:
                continue
            pairs.append((i, q))
            prow, coded[k] = coded[k], None  # dropped
            _normalize(prow, q, p)
            for r in list(where[q]):
                if coded[r] is not None and q in coded[r]:
                    scales[r] *= _clear(coded[r], prow, q, p)
                    for j in prow:
                        where[j].add(r)
        out = [{j: field.decode(r[j], s) for j in sorted(r)}
               for r, s in zip(coded, scales) if r is not None]
        return Matrix._wrap(field, self.cols, out), pairs

    def solve(self, b: Sequence) -> list | None:
        """One solution x of self @ x = b (free variables set to 0), or None."""
        x = self.solve_matrix(Matrix(self.field, len(b), 1, [[v] for v in b]))
        return None if x is None else list(x.col(0))

    def solve_matrix(self, b: "Matrix") -> "Matrix | None":
        """self @ X = b by one elimination of [self | b], free variables set to
        0; None when a column of b is outside the column space."""
        if b.rows != self.rows:
            raise DimensionError("right-hand side length does not match row count")
        n = self.cols
        aug = [a | {n + j: x for j, x in r.items()} for a, r in zip(self._entries, b._entries)]
        found, _, _ = _echelon(self.field, aug, reduced=True)
        if max(found, default=-1) >= n:
            return None
        out = [{}] * n
        for c, row in found.items():
            out[c] = {j - n: self.field.decode(x, row[c]) for j, x in row.items() if j >= n}
        return Matrix.from_nonzero_rows(self.field, b.cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other._entries == self._entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r.items()) for r in self._entries)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {self.field!r}: [{body}])"


def _columns(rows, cols: int) -> list[dict]:
    # the cols columns of sparse rows, each as a sparse row
    out = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _echelon(field, rows, reduced: bool):
    """The one elimination, row by row on the sparse int rows of ``field.encode_rows``.

    Returns found, pivot column -> pivot row in the order found (x in a row
    decodes as ``field.decode(x, row[col])``), num, the product of the row
    divisors, and den, that of the row multipliers and coding scales.
    ``reduced`` also clears each pivot row at the other pivot columns.
    """
    coded, scales = field.encode_rows(rows)
    p = field.characteristic
    found, num, den = {}, 1, math.prod(scales)
    for row in coded:
        while row:
            c = min(row)
            if c not in found:
                num *= _normalize(row, c, p)
                found[c] = row
                break
            den *= _clear(row, found[c], c, p)
    if reduced:
        for c in sorted(found, reverse=True):
            row = found[c]
            for other in [j for j in row if j != c and j in found]:
                _clear(row, found[other], other, p)
    return found, num, den


def _clear(row: dict, prow: dict, c: int, p: int) -> int:
    """Clear column c of row in place by its pivot row; returns row's multiplier."""
    g = math.gcd(row[c], prow[c])
    a, b = prow[c] // g, row[c] // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, y in prow.items():
        x = row.get(j, 0) - b * y
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]
    return a


def _normalize(row: dict, c: int, p: int) -> int:
    """Divide row in place by its content over Z, by row[c] mod p; returns the divisor."""
    d = row[c] if p else math.gcd(*row.values())
    inv = pow(d, -1, p) if p else None
    for j, x in row.items():
        row[j] = x * inv % p if p else x // d
    return d


class Subspace:
    """A subspace of a coordinate space, stored only as its basis: the nonzero
    rows of a reduced row echelon form, built by ``row_space`` (or, for a
    kernel, ``kernel_basis``).  The basis is canonical, so two subspaces are
    equal exactly when their stored bases are identical; containment is a
    rank test; field, ambient dimension and dimension are read off the basis.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: Matrix):
        self.basis = basis

    @classmethod
    def row_space(cls, m: Matrix) -> "Subspace":
        """The span of the rows of m."""
        red, pivots = m.rref()
        return cls(Matrix._wrap(m.field, m.cols, red._entries[: len(pivots)]))

    @classmethod
    def from_rows(cls, field, ambient_dim: int, rows: Sequence[Sequence]) -> "Subspace":
        return cls.row_space(Matrix.from_rows(field, rows, cols=ambient_dim))

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(Matrix.zeros(field, 0, ambient_dim))

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(Matrix.identity(field, ambient_dim))

    @property
    def field(self):
        return self.basis.field

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivots(self) -> tuple[int, ...]:
        return tuple(min(row) for row in self.basis._entries)

    def contains(self, other: "Subspace") -> bool:
        """other lies in the subspace: stacking the two bases keeps the rank."""
        stacked = self.basis._entries + other.basis._entries
        return self.dim == Matrix.from_nonzero_rows(self.field, self.ambient_dim, stacked).rank()

    def __eq__(self, other):
        return isinstance(other, Subspace) and other.basis == self.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        rows = [list(r) for r in self.basis.data]
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim}, basis {rows})"


def rank(m: Matrix) -> int:
    """Rank of a matrix (dimension of the row space)."""
    return m.rank()


def kernel_basis(m: Matrix) -> Subspace:
    """The right kernel {v : m @ v = 0} in canonical echelon form: from one
    ``rref``, e_f - sum_p red[p][f] e_p per free column f, then ``row_space``."""
    red, pivots = m.rref()
    vecs = [
        {f: m.field.one} | {p: -row[f] for p, row in zip(pivots, red._entries) if f in row}
        for f in range(m.cols)
        if f not in pivots
    ]
    return Subspace.row_space(Matrix.from_nonzero_rows(m.field, m.cols, vecs))


def column_space_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column space."""
    return Subspace.row_space(m.transpose())


def annihilator_basis(s: Subspace) -> Subspace:
    """Functionals vanishing on s; dimension = ambient - dim(s)."""
    return kernel_basis(s.basis)
