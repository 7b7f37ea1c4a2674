"""Exact linear algebra over Q or GF(p), on integer codes.

A ``Matrix`` stores its rows as pairs (codes, scale), codes a ``{col: int}``
dict (columns ascending, no zeros) and the row codes / scale.  Over GF(p)
codes are canonical representatives and scales 1; over Q a scale is the
lcm of its row's denominators, so gcd(codes, scale) = 1, each row has one
coding, and equality and hashing compare the pairs.  Stored dicts are never
handed out or mutated.  Field elements exist only at the edges:
``field.encode_rows`` codes them in the constructors and
``from_nonzero_rows``, ``field.decode`` builds them in ``nonzero_rows``,
``data``, ``col`` and ``det``; all else reads and returns codes, so
products, transposes and strands cost the number of nonzeros.
``from_blocks``, the one assembler (every differential, ``solve_matrix``'s
augmented matrix), writes each block's codes into their rows as its
iterable yields the block.  ``column_copies`` (the rows of a contraction)
builds from stored rows without re-coding them, and ``MaximalMinors``
takes each maximal minor once, on codes, off one echelon form.

``_echelon``, the one elimination, clears each row at its first nonzero by
that column's pivot row and normalizes it (over Z by its content, mod p to
a leading 1); ``rank``, ``rref``, ``_det`` and ``solve_matrix`` read it off.
``mul`` weighs row k of B (codes b'_k, scale t_k) by L / t_k, L = lcm of the
t_k: for row i of A (a'_i, s_i), sum_k a'_ik (L / t_k) b'_kj = s_i L (A B)_ij
is an integer (mod p, where all scales are 1).  ``_reduce`` brings a row over
any scale to its canonical coding.  ``cancel`` (``verify.minimize``'s unit
cancellation) shares ``_normalize`` and ``_clear`` with ``_echelon``.  A
``Subspace`` is its reduced echelon basis, from ``Subspace.row_space``.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError


class Matrix:
    """An immutable sparse matrix over a fixed exact field, stored as integer codes."""

    __slots__ = ("field", "rows", "cols", "_rows")

    def __init__(self, field, rows: int, cols: int, data):
        """The matrix of the dense rows ``data``."""
        data = [tuple(row) for row in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionError(f"matrix data does not have shape {rows}x{cols}")
        self.field, self.rows, self.cols = field, rows, cols
        self._rows = tuple(field.encode_rows([{j: x for j, x in enumerate(r) if x} for r in data]))

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence], cols: int | None = None):
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0]) if cols is None else cols
        elif cols is None:
            raise DimensionError("empty matrix needs an explicit column count")
        return cls(field, len(rows), cols, rows)

    @classmethod
    def from_int_rows(cls, field, rows: Sequence[Sequence[int]], cols: int | None = None):
        return cls.from_rows(field, [[field.of(x) for x in r] for r in rows], cols)

    @classmethod
    def from_nonzero_rows(cls, field, cols: int, rows: Sequence[Mapping[int, object]]):
        """One row per {col: value} mapping (copied; any column order, zeros dropped)."""
        return cls._coded(field, cols, field.encode_rows(
            [{j: row[j] for j in sorted(row) if row[j]} for row in rows]))

    @classmethod
    def _coded(cls, field, cols: int, rows: Sequence[tuple[dict, int]]):
        # stores (codes, scale) rows as they are: canonical, columns ascending
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m._rows = field, len(rows), cols, tuple(rows)
        return m

    @classmethod
    def from_blocks(cls, field, rows: int, cols: int, blocks: Iterable[tuple[int, int, "Matrix"]]):
        """rows x cols with each (row0, col0, block) at that corner, none
        overlapping, each block written into its rows as blocks yields it.
        Rows are sorted only if some block came left of the one before."""
        codes, scales, last, ordered = [{} for _ in range(rows)], [1] * rows, 0, True
        for row0, col0, block in blocks:
            ordered, last = ordered and col0 >= last, col0
            for i, (row, s) in enumerate(block._rows, row0):
                if row:
                    target = codes[i]
                    # a row's pieces go to the lcm of their scales: canonical pieces
                    # make a canonical row (a prime's top power in the lcm divides
                    # some piece's scale, and that piece has a code it does not divide)
                    if s != scales[i]:
                        t, lcm = scales[i], math.lcm(s, scales[i])
                        for j in target:
                            target[j] *= lcm // t
                        scales[i], row = lcm, {j: x * (lcm // s) for j, x in row.items()}
                    for j, x in row.items():
                        target[col0 + j] = x
        codes = codes if ordered else [dict(sorted(row.items())) for row in codes]
        return cls._coded(field, cols, list(zip(codes, scales)))

    @classmethod
    def stack(cls, field, cols: int, blocks: Sequence["Matrix"]):
        """The blocks, each cols wide, one above the other (rows shared as stored)."""
        if any(b.cols != cols for b in blocks):
            raise DimensionError(f"cannot stack blocks into {cols} columns")
        return cls._coded(field, cols, [row for b in blocks for row in b._rows])

    @classmethod
    def zeros(cls, field, rows: int, cols: int):
        return cls._coded(field, cols, [({}, 1)] * rows)

    @classmethod
    def identity(cls, field, n: int):
        return cls._coded(field, n, [({i: 1}, 1) for i in range(n)])

    @property
    def data(self) -> tuple:
        """The dense rows as tuples, built on each access."""
        z = self.field.zero
        return tuple(tuple(row.get(j, z) for j in range(self.cols)) for row in self.nonzero_rows())

    def col(self, j: int) -> tuple:
        decode, z = self.field.decode, self.field.zero
        return tuple(decode(row[j], s) if j in row else z for row, s in self._rows)

    def nonzero_rows(self) -> list[dict[int, object]]:
        """Per row, {col: value} of its nonzero entries (new dicts, equal codes decoded once)."""
        decode, memo = self.field.decode, {}
        return [{j: memo.get((x, s)) or memo.setdefault((x, s), decode(x, s))
                 for j, x in row.items()} for row, s in self._rows]

    def supports(self) -> list[tuple[int, ...]]:
        """Per row, its nonzero columns, ascending."""
        return [tuple(row) for row, _ in self._rows]

    def transpose(self) -> "Matrix":
        p, scales, out = self.field.characteristic, [s for _, s in self._rows], []
        for col in _columns([row for row, _ in self._rows], self.cols):
            lcm = math.lcm(*map(scales.__getitem__, col))
            col = col if lcm == 1 else {i: x * (lcm // scales[i]) for i, x in col.items()}
            out.append(_reduce(col, lcm, p))
        return Matrix._coded(self.field, self.rows, out)

    def column_copies(self, j: int, cols: int, targets: Sequence[Sequence[int]]) -> "Matrix":
        """len(targets) x cols: row k is column j of self with its entry from
        row i moved to column targets[k][i].  Column j is coded once, as in
        ``transpose``; each targets[k] must ascend, so every row keeps that
        one coding."""
        hits = [(i, row[j], s) for i, (row, s) in enumerate(self._rows) if j in row]
        lcm = math.lcm(*(s for _, _, s in hits))
        col, t = _reduce({i: x * (lcm // s) for i, x, s in hits}, lcm, self.field.characteristic)
        rows = [({k[i]: x for i, x in col.items()}, t) for k in targets]
        return Matrix._coded(self.field, cols, rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        """The rows row_idx and the distinct columns col_idx, in the order given."""
        new = {j: k for k, j in enumerate(col_idx)}
        ordered = all(a < b for a, b in zip(col_idx, col_idx[1:]))
        p, out = self.field.characteristic, []
        for row, s in (self._rows[i] for i in row_idx):
            row = {new[j]: x for j, x in row.items() if j in new}
            out.append(_reduce(row if ordered else dict(sorted(row.items())), s, p))
        return Matrix._coded(self.field, len(new), out)

    def __neg__(self) -> "Matrix":
        p = self.field.characteristic
        rows = [({j: p - x if p else -x for j, x in row.items()}, s) for row, s in self._rows]
        return Matrix._coded(self.field, self.cols, rows)

    def mul(self, other: "Matrix") -> "Matrix":
        """The product, summed as ints over both factors' codes (module docstring)."""
        if self.cols != other.rows:
            shapes = f"{self.rows}x{self.cols} by {other.rows}x{other.cols}"
            raise DimensionError(f"cannot multiply {shapes}")
        p, lcm, out = self.field.characteristic, math.lcm(*(t for _, t in other._rows)), []
        right = [row if t == lcm else {j: y * (lcm // t) for j, y in row.items()}
                 for row, t in other._rows]
        for entries, s in self._rows:
            acc = {}
            for k, x in entries.items():
                for j, y in right[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            sums = {j: v for j in sorted(acc) if (v := acc[j] % p if p else acc[j])}
            out.append(_reduce(sums, s * lcm, p))
        return Matrix._coded(self.field, other.cols, out)

    def is_zero(self) -> bool:
        return not any(row for row, _ in self._rows)

    def rank(self) -> int:
        """Exact rank of the matrix."""
        return len(_echelon(self.field.characteristic, self._rows, reduced=False)[0])

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        p = self.field.characteristic
        found, _, _ = _echelon(p, self._rows, reduced=True)
        pivots = sorted(found)
        out = [_reduce(dict(sorted(found[c].items())), found[c][c], p) for c in pivots]
        out += [({}, 1)] * (self.rows - len(pivots))
        return Matrix._coded(self.field, self.cols, out), tuple(pivots)

    def det(self):
        """Determinant of a square matrix."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        return self.field.decode(*_det(self.field.characteristic, self._rows))

    def cancel(self, rows: Sequence[int], pivot) -> tuple["Matrix", list[tuple[int, int]]]:
        """One forward pass over the given rows: ``pivot(i, cols)`` names one of
        row i's current nonzero columns or None; a pivot row is dropped and
        clears its column in every other given row.  Returns the rows left,
        in order and with all columns, and the (row, column) pivots taken."""
        p = self.field.characteristic
        coded, scales = [dict(self._rows[i][0]) for i in rows], [self._rows[i][1] for i in rows]
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
        left = [(dict(sorted(r.items())), s) for r, s in zip(coded, scales) if r is not None]
        return Matrix._coded(self.field, self.cols, [_reduce(r, s, p) for r, s in left]), pairs

    def solve(self, b: Sequence) -> list | None:
        """One solution x of self @ x = b (free variables set to 0), or None."""
        x = self.solve_matrix(Matrix(self.field, len(b), 1, [[v] for v in b]))
        return None if x is None else list(x.col(0))

    def solve_matrix(self, b: "Matrix") -> "Matrix | None":
        """self @ X = b by one elimination of [self | b], free variables set to
        0; None when a column of b is outside the column space."""
        if b.rows != self.rows:
            raise DimensionError("right-hand side length does not match row count")
        p, n = self.field.characteristic, self.cols
        aug = Matrix.from_blocks(self.field, self.rows, n + b.cols, [(0, 0, self), (0, n, b)])
        found, _, _ = _echelon(p, aug._rows, reduced=True)
        if max(found, default=-1) >= n:
            return None
        out = [({}, 1)] * n
        for c, row in found.items():
            out[c] = _reduce({j - n: row[j] for j in sorted(row) if j >= n}, row[c], p)
        return Matrix._coded(self.field, b.cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other._rows == self._rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple((tuple(r.items()), s) for r, s in self._rows)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {self.field!r}: [{body}])"


def _columns(rows: Sequence[dict], cols: int) -> list[dict]:
    # the cols columns of sparse rows, each as a sparse row
    out = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _reduce(row: dict, s: int, p: int) -> tuple[dict, int]:
    """The canonical (codes, scale) of row / s (row nonzero mod p, ascending):
    over Z divided by gcd(s, row), scale positive; mod p times 1 / s."""
    if s == 1:
        return row, 1
    if p:
        inv = pow(s, -1, p)
        return {j: x * inv % p for j, x in row.items()}, 1
    g = math.gcd(s, *row.values()) * (1 if s > 0 else -1)
    return ({j: x // g for j, x in row.items()} if g != 1 else row), s // g


def _echelon(p: int, rows: Sequence[tuple[dict, int]], reduced: bool):
    """The one elimination, on copies of the codes of (codes, scale) rows, over
    Z when p is 0, else mod p.  Returns found, pivot column -> pivot row in
    the order found, num, the product of the row divisors, and den, that of
    the row multipliers and scales; ``reduced`` also clears above pivots."""
    found, num, den = {}, 1, math.prod(s for _, s in rows)
    for row, _ in rows:
        row = dict(row)
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


def _det(p: int, rows: Sequence[tuple[dict, int]]) -> tuple[int, int]:
    """num / den, the det of coded rows on their pivot columns; (0, 1) if they are dependent."""
    found, num, den = _echelon(p, rows, reduced=False)
    if len(found) < len(rows):
        return 0, 1
    # Pivot row k is coded row k times its multipliers over its divisor,
    # plus multiples of earlier rows, and coded row k is row k times its
    # scale, so det = det(pivot rows) * num / den (den starts as the
    # scales' product).  Sorted by pivot column the pivot rows are upper
    # triangular: their det is the pivots' product, signed by the
    # inversions of the found order.
    order = list(found)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    num *= math.prod(row[c] for c, row in found.items())
    return (-num if inversions % 2 else num), den


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


class MaximalMinors:
    """The maximal minors of an r x e matrix A, each computed on first use
    and kept as its two signed coded 1 x 1 rows.  With R the reduced echelon
    form of A and P its pivot columns, A = A_P R, so det A_S = det A_P det
    R_S, and det A_P comes off the echelon form of A itself.  R_S has the
    unit column of pivot row i at each position k with S[k] = P[i], so
    det R_S = (-1)^(sum of those i and k) det R[the other rows, S - P], of
    size |S - P| <= min(r, e - r), all through ``_det``.  ``column`` (a
    splice column) and ``is_nonzero`` (``Morphism.is_uniform_rank``) read
    the same memo, so each minor is taken once, whichever asks first."""

    __slots__ = ("field", "cols", "_p", "_base", "_red", "_pivot_row", "_signed")

    def __init__(self, a: Matrix):
        p, (red, pivots) = a.field.characteristic, a.rref()
        self.field, self.cols, self._p, self._red = a.field, a.cols, p, red._rows
        self._base = _det(p, a._rows)  # det A_P; (0, 1) when A has rank below r
        self._pivot_row, self._signed = {c: i for i, c in enumerate(pivots)}, {}

    def _minor(self, cols: tuple[int, ...]) -> tuple[tuple[dict, int], tuple[dict, int]]:
        p, (num, den), where, pair = self._p, self._base, self._pivot_row, (({}, 1), ({}, 1))
        if num:
            hit = {where[c]: k for k, c in enumerate(cols) if c in where}
            free = [c for c in cols if c not in where]
            sub = [({k: row[c] for k, c in enumerate(free) if c in row}, s)
                   for i, (row, s) in enumerate(self._red) if i not in hit]
            n, d = _det(p, sub)
            num = num * n * (-1) ** sum(i + k for i, k in hit.items())
            if num := num % p if p else num:
                row, s = _reduce({0: num}, den * d, p)
                pair = ((row, s), ({0: p - row[0] if p else -row[0]}, s))
        self._signed[cols] = pair
        return pair

    def is_nonzero(self, cols: tuple[int, ...]) -> bool:
        """The minor on the ascending r-subset cols is nonzero."""
        return bool((self._signed.get(cols) or self._minor(cols))[0][0])

    def column(self, cols: tuple[int, ...]) -> Matrix:
        """e x 1, entry cols[k] the minor on cols without cols[k] times
        (-1)^k, for an ascending (r + 1)-subset cols: its splice column."""
        out, signed = [({}, 1)] * self.cols, self._signed
        for k, c in enumerate(cols):
            sub = cols[:k] + cols[k + 1 :]
            out[c] = (signed.get(sub) or self._minor(sub))[k & 1]
        return Matrix._coded(self.field, 1, out)


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
        return cls(Matrix._coded(m.field, m.cols, red._rows[: len(pivots)]))

    @classmethod
    def from_rows(cls, field, ambient_dim: int, rows: Sequence[Sequence]) -> "Subspace":
        return cls.row_space(Matrix.from_rows(field, rows, cols=ambient_dim))

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
        return tuple(min(row) for row, _ in self.basis._rows)

    def contains(self, other: "Subspace") -> bool:
        """other lies in the subspace: stacking the two bases keeps the rank."""
        stacked = Matrix.stack(self.field, self.ambient_dim, [self.basis, other.basis])
        return self.dim == stacked.rank()

    def __eq__(self, other):
        return isinstance(other, Subspace) and other.basis == self.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        rows = [list(r) for r in self.basis.data]
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim}, basis {rows})"


def kernel_basis(m: Matrix) -> Subspace:
    """The right kernel {v : m @ v = 0} in canonical echelon form: e_f minus
    sum_q red[q][f] e_q per free column f of one ``rref``, reduced again."""
    red, pivots = m.rref()
    p, vecs = m.field.characteristic, []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        hits = [(q, row[f], s) for q, (row, s) in zip(pivots, red._rows) if f in row]
        lcm = math.lcm(*(s for _, _, s in hits))
        vec = {f: lcm} | {q: -x * (lcm // s) % p if p else -x * (lcm // s) for q, x, s in hits}
        vecs.append(_reduce(dict(sorted(vec.items())), lcm, p))
    return Subspace.row_space(Matrix._coded(m.field, m.cols, vecs))


def column_space_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column space."""
    return Subspace.row_space(m.transpose())


def annihilator_basis(s: Subspace) -> Subspace:
    """Functionals vanishing on s; dimension = ambient - dim(s)."""
    return kernel_basis(s.basis)
