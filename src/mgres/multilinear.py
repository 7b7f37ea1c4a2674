"""Divided and exterior powers, and the complexes built from them.

Bases are frozen once and for all: the divided power D_m of an
r-dimensional dual space is indexed by weak compositions of m into r parts
listed with the first exponent decreasing (so for r = 2, m = 1 the order
is v_1, v_2), and the k-th exterior power of an e-dimensional space is
indexed by k-subsets of {1, ..., e} in lexicographic order.  Mixed bases
are ordered with the exterior index as the major key.

Each boundary D_m (x) Wedge^p -> D_{m-1} (x) Wedge^{p-1} is the block matrix
of signed contractions: the block from face I to facet I - {l} is
(-1)^(position of l in I, from 0) Delta_l, the standard comultiplication sign,
where Delta_l: D_m -> D_{m-1} lowers each divided exponent j by one with
weight uv[j][l]: its rows are copies of column l of uv, coded once
(``Contractions``).  ``write_level``, the one level writer, writes every
``boundaries`` step and every map above the splice of ``build_complex``
(Taylor, Scarf and user systems) from that coding.
D_m of a subspace W is the common kernel of the contractions by any
functionals spanning those that vanish on W (the divided power algebra is
the graded dual of the symmetric algebra, so in every characteristic): one
``contraction_kernel``, the only kernel taken on uv, a stack of the same
coding's rows (at m = 1 the K-space ``Morphism.k_space``).  The kernel
depends only on the span of the columns: a set of at least r columns is
ranked first, and one that spans gives zero.
This module imports no other mgres module but ``linalg`` and ``errors``, so
``morphism`` can import it; ``cd`` is a ``morphism.CoeffData``, named only
in annotations.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .errors import DimensionError, RestrictionError
from .linalg import MaximalMinors, Matrix, Subspace, kernel_basis

DividedIndex = tuple[int, ...]
ExteriorIndex = tuple[int, ...]


def divided_basis(r: int, m: int) -> list[DividedIndex]:
    """Weak compositions of m into r parts, first part decreasing."""
    if r < 0 or m < 0:
        raise DimensionError("divided power parameters must be non-negative")
    if r == 0:
        return [()] if m == 0 else []
    if r == 1:
        return [(m,)]
    out = []
    for first in range(m, -1, -1):
        out.extend((first,) + rest for rest in divided_basis(r - 1, m - first))
    return out


def divided_dim(r: int, m: int) -> int:
    """len(divided_basis(r, m)), without listing it."""
    if r < 0 or m < 0:
        raise DimensionError("divided power parameters must be non-negative")
    if r == 0:
        return 1 if m == 0 else 0
    return math.comb(m + r - 1, r - 1)


def exterior_basis(e: int, k: int) -> list[ExteriorIndex]:
    """k-subsets of {1, ..., e}, lexicographic."""
    if not 0 <= k:
        raise DimensionError("exterior power degree must be non-negative")
    return list(itertools.combinations(range(1, e + 1), k))


class VectorComplex(namedtuple("VectorComplex", "dims diffs")):
    """A finite complex of coordinate spaces: a tuple of dims and a tuple of
    Matrix diffs, where diffs[i] maps position i+1 to i."""

    __slots__ = ()

    def __new__(cls, dims, diffs):
        if len(diffs) != max(len(dims) - 1, 0):
            raise DimensionError("differential count does not match positions")
        for i, d in enumerate(diffs):
            if d.rows != dims[i] or d.cols != dims[i + 1]:
                raise DimensionError(
                    f"differential {i + 1} has shape {d.rows}x{d.cols}, "
                    f"expected {dims[i]}x{dims[i + 1]}"
                )
        return super().__new__(cls, dims, diffs)

    def composes_to_zero(self) -> bool:
        """Every product d_i d_{i+1} is zero (``Matrix.mul_is_zero``: int sums
        on codes, no product built)."""
        return all(self.diffs[i].mul_is_zero(self.diffs[i + 1]) for i in range(len(self.diffs) - 1))


@functools.lru_cache(maxsize=None)
def _divided_index(r: int, m: int) -> tuple[tuple[DividedIndex, ...], dict[DividedIndex, int]]:
    """The basis of D_m in dimension r and its position lookup (shared, read-only)."""
    basis = tuple(divided_basis(r, m))
    return basis, {b: i for i, b in enumerate(basis)}


@functools.lru_cache(maxsize=None)
def _raised_index(r: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Per basis vector c of D_{m-1}, the positions in D_m of c + e_j for
    j = 0, ..., r - 1, ascending in j (shared, read-only)."""
    cod, _ = _divided_index(r, m - 1)
    _, dom_index = _divided_index(r, m)
    return tuple(tuple(dom_index[c[:j] + (c[j] + 1,) + c[j + 1 :]] for j in range(r)) for c in cod)


class Contractions:
    """The Delta_l of an r x e matrix uv from its columns, each coded once
    (``Matrix.coded_column``) and kept over L, the lcm of their scales (1 mod
    p), with its negative; one per morphism (``CoeffData.contractions``)."""

    __slots__ = ("uv", "scale", "_columns")

    def __init__(self, uv: Matrix):
        p, coded = uv.field.characteristic, [uv.coded_column(l) for l in range(uv.cols)]
        self.uv, self.scale = uv, math.lcm(*(t for _, t in coded))
        plus = [[], *([(j, x * (self.scale // t)) for j, x in col.items()] for col, t in coded)]
        minus = [[(j, p - x if p else -x) for j, x in col] for col in plus]
        self._columns = plus, minus  # (-1)^sign column l at [sign][l] as (row, code) pairs

    def rows(self, m: int, cols: set[int]) -> tuple[list, list]:
        """At [sign][l], l in cols (from 1), the rows of (-1)^sign Delta_l on D_m
        over L: per row c of D_{m-1}, c and column l's (j, code) as (c + e_j, code)."""
        raised = _raised_index(self.uv.rows, m)
        return tuple([[(c, [(at[j], x) for j, x in col]) for c, at in enumerate(raised)]
                      if col and l in cols else [] for l, col in enumerate(signed)]
                     for signed in self._columns)


def write_level(deltas: Contractions, m: int, offsets: dict, below: dict, rows: int, cols: int,
                embs: dict | None = None) -> Matrix:
    """The rows x cols map out of one face size's faces on D_m: offsets maps
    each face, in build order, to its first column, below each facet to its
    first row (absent: the zero space), and embs each face and facet not
    given its whole divided power to its embedding.  The block from F to
    F - {l}, l = F[pos], is (-1)^pos Delta_l: from an identity face to an
    identity facet its ``deltas.rows`` go straight into the facet's rows;
    any other block, Delta_l times the face's embedding solved into the
    facet's span (else RestrictionError names the face), is added after
    them by ``Matrix.write_into``.  Each row is reduced once."""
    uv, embs, pending = deltas.uv, embs or {}, []
    n_dom, q = divided_dim(uv.rows, m), len(next(iter(offsets), ()))
    blocks, out = deltas.rows(m, set().union(*offsets)), [{} for _ in range(rows)]
    direct = {f: row0 for f, row0 in below.items() if f not in embs} if embs else below
    for face, col0 in offsets.items():
        emb = embs.get(face) if embs else None
        # the facet without face[pos], for pos = q - 1, ..., 0
        for pos, facet in zip(range(q - 1, -1, -1), itertools.combinations(face, q - 1)):
            block = blocks[pos & 1][face[pos]]
            if emb is None and (row0 := direct.get(facet)) is not None:
                for c, row in block:
                    target = out[row0 + c]
                    for j, x in row:
                        target[col0 + j] = x
                continue
            if not block:  # column l is zero, and so is the image
                continue
            image = Matrix.from_scaled_rows(uv.field, n_dom, [(dict(row), deltas.scale)
                                                              for _, row in block])
            image, row0 = image if emb is None else image.mul(emb), below.get(facet)
            if row0 is None and image.is_zero():  # the zero space holds only a zero image
                continue
            if row0 is not None and facet in embs:
                image = embs[facet].solve_matrix(image)
            if row0 is None or image is None:
                where = "the span assigned to facet" if row0 is not None else "the missing facet"
                raise RestrictionError(face, f"image of face {face} is not in {where} {facet}")
            pending.append((row0, col0, image))
    scales = [deltas.scale] * rows
    for row0, col0, image in pending:  # then sort the rows they reach
        image.write_into(out, scales, row0, col0)
    for i in {i for row0, _, image in pending for i in range(row0, row0 + image.rows)}:
        out[i] = dict(sorted(out[i].items()))
    return Matrix.from_scaled_rows(uv.field, cols, zip(out, scales))


def sigma_matrix_on(uv: Matrix, e: int, m: int, k: int, i: int) -> Matrix:
    """Boundary D_{m+i} (x) Wedge^{k+i} -> D_{m+i-1} (x) Wedge^{k+i-1}; uv's
    (j, l) entry is the j-th dual coordinate of the image of basis vector l."""
    if i < 1:
        raise DimensionError("boundary index must be at least 1")
    return next(boundaries(uv, e, m, k, [i]))


def boundaries(uv: Matrix, e: int, m: int, k: int, steps):
    """``sigma_matrix_on(uv, e, m, k, i)`` for each i >= 1 in steps, each
    ``write_level`` over every face, from one coding of uv's columns."""
    deltas, r, columns = Contractions(uv), uv.rows, range(1, e + 1)
    for i in steps:  # each face at its first column, each facet at its first row
        n_dom, n_cod = divided_dim(r, m + i), divided_dim(r, m + i - 1)
        offsets = {f: s * n_dom for s, f in enumerate(itertools.combinations(columns, k + i))}
        below = {f: s * n_cod for s, f in enumerate(itertools.combinations(columns, k + i - 1))}
        yield write_level(deltas, m + i, offsets, below, len(below) * n_cod, len(offsets) * n_dom)


def splice_matrix_on(uv: Matrix, e: int, rk: int, minors: MaximalMinors | None = None) -> Matrix:
    """Splice Wedge^{rk+1} -> source space, entries signed maximal minors:
    ``minors.splice`` of every (rk + 1)-face, minors a table of uv (fresh if None)."""
    return (minors or MaximalMinors(uv)).splice(list(itertools.combinations(range(e), rk + 1)))


def coordinates_on(cd: CoeffData, vsub: Subspace) -> Matrix:
    """The coefficient matrix in the echelon coordinates of vsub.

    vsub must contain the image of the map (one rank test); with a reduced
    echelon basis the coordinates are read off at the pivot positions.
    """
    if not vsub.contains(cd.image):
        raise DimensionError("vsub must contain the image of the map")
    return cd.matrix.submatrix(vsub.pivots(), range(cd.matrix.cols))


def build_A_complex(cd: CoeffData, vsub: Subspace, m: int, k: int) -> VectorComplex:
    """The complex with position i equal to D_{m+i} (x) Wedge^{k+i}.

    vsub must contain the image of the coefficient matrix; the boundary
    maps are computed in vsub-coordinates.
    """
    uv, e, rk = coordinates_on(cd, vsub), cd.matrix.cols, vsub.dim
    if k > e:
        return VectorComplex((), ())
    dims = tuple(divided_dim(rk, m + i) * math.comb(e, k + i) for i in range(e - k + 1))
    diffs = tuple(boundaries(uv, e, m, k, range(1, e - k + 1)))
    return VectorComplex(dims, diffs)


def build_B_complex(cd: CoeffData, vsub: Subspace) -> VectorComplex:
    """Splice of the divided/exterior tail onto the map itself.

    Position 0 is the target space, position 1 the source; position i >= 2
    is D_{i-2} (x) Wedge^{rk+i-1} where rk is the dimension of vsub.  The
    top position is e - rk + 1 (just the map itself when rk >= e), or 2 at
    rk = 0, where D_i = 0 for i >= 1.
    """
    uv, e, rk, diffs = coordinates_on(cd, vsub), cd.matrix.cols, vsub.dim, [cd.matrix]
    if rk < e:  # no boundary at rk = 0, where D_i = 0 for i >= 1
        steps = range(1, e - rk if rk else 1)
        diffs += [splice_matrix_on(uv, e, rk), *boundaries(uv, e, 0, rk + 1, steps)]
    return VectorComplex((cd.matrix.rows, *(d.cols for d in diffs)), tuple(diffs))


def contraction_kernel(deltas: Contractions, m: int, cols: list[int]) -> Subspace:
    """The subspace of D_m that Delta_l kills for every l in cols (0-based
    columns of uv = deltas.uv), one kernel of a stack of ``deltas.rows``;
    all of D_m, with no kernel, when m = 0 or cols is empty.  At m = 1 the
    stack is uv on cols, transposed: ``Morphism.k_space``.

    Delta_l is linear in column l, so the kernel depends only on the span
    of cols.  With at least uv.rows of them, uv is ranked on cols first:
    if they span, the functionals vanishing on them are 0 and so is D_m of
    them, with no stack and no kernel; otherwise only the pivot columns, a
    basis of the span, are stacked."""
    uv = deltas.uv
    dim = divided_dim(uv.rows, m)
    if m == 0 or not cols:
        return Subspace(Matrix.identity(uv.field, dim))
    if len(cols) >= uv.rows:
        _, pivots = uv.submatrix(range(uv.rows), cols).rref()
        if len(pivots) == uv.rows:
            return Subspace(Matrix.zeros(uv.field, 0, dim))
        cols = [cols[k] for k in pivots]
    plus, _ = deltas.rows(m, {l + 1 for l in cols})
    stack = [(dict(row), deltas.scale) for l in cols for _, row in plus[l + 1]]
    return kernel_basis(Matrix.from_scaled_rows(uv.field, dim, stack))


def divided_embed(subspace: Subspace, m: int) -> Matrix:
    """Columns spanning D_m(subspace) inside D_m(ambient): the
    ``contraction_kernel`` of a basis of its annihilator, the kernel of its
    basis.  They equal the product basis: for the reduced echelon basis w_i
    of W, with pivot p_i, and b a weak composition of m into dim W parts,
    prod w_i^(b_i) has a 1 at sum b_i e_{p_i}, zeros at the other pivot
    monomials and nothing before its pivot in the D_m order, so it is the
    unique reduced echelon basis.
    """
    ann = kernel_basis(subspace.basis).basis.transpose()
    return contraction_kernel(Contractions(ann), m, list(range(ann.cols))).basis.transpose()
