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
where Delta_l = ``contraction_matrix(uv, l, m)`` lowers each divided exponent
j by one with weight uv[j][l].  Each row of Delta_l is column l of uv, coded
once and relabeled (``Matrix.column_copies``).  Delta_l depends on l and m
only, so ``sigma_matrix_on``, the one boundary kernel, codes its rows once and
writes them into every facet's rows.  The splice map replaces Delta_l by
signed maximal minors of the coordinate matrix, each taken once by
``linalg.MaximalMinors``; ``splice_and_boundaries`` lists the splice and the
boundaries above it, the maps of the Taylor and B complexes.  D_m of a
subspace W is the common kernel of the contractions by any functionals
spanning those that vanish on W (the divided power algebra is the graded
dual of the symmetric algebra, so in every characteristic): one
``contraction_kernel``, with no divided power expanded by hand.  It is the
only kernel taken on uv: at m = 1 it is the K-space ``Morphism.k_space``.
A contraction is linear in its functional, so the kernel depends only on
the span of the columns: a set of at least r columns is ranked first, and
one that spans gives zero with no kernel taken.
This module imports no other mgres module but ``linalg`` and ``errors``, so
``morphism`` can import it; ``cd`` is a ``morphism.CoeffData``, named only
in annotations.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .errors import DimensionError
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


def contraction_matrix(uv: Matrix, l: int, m: int) -> Matrix:
    """Delta_l: D_m -> D_{m-1}, contraction by column l (1-based) of uv.

    Basis vector b goes to the sum of uv[j][l] (b - e_j) over the j with
    b_j > 0: row c is column l of uv with entry j moved to c + e_j, one
    ``Matrix.column_copies`` of it.  Every boundary uses signed blocks of
    it, and ``contraction_kernel`` stacks it.
    """
    return uv.column_copies(l - 1, divided_dim(uv.rows, m), _raised_index(uv.rows, m))


def signed_contractions(uv: Matrix, m: int):
    """l -> (Delta_l, -Delta_l) on D_m, each pair built on first use: the
    block from face I to I - {l} is entry (position of l in I) % 2."""
    return functools.cache(lambda l: (delta := contraction_matrix(uv, l, m), -delta))


def sigma_matrix_on(uv: Matrix, e: int, m: int, k: int, i: int) -> Matrix:
    """Boundary D_{m+i} (x) Wedge^{k+i} -> D_{m+i-1} (x) Wedge^{k+i-1}.

    The coordinate matrix uv gives the pairing values: its (j, l) entry is
    the j-th dual coordinate of the image of basis vector l.  The block from
    face F to facet F - {l} is the signed Delta_l, its rows coded once over
    one scale and written face by face, so in ascending columns, into the
    facets' rows, each reduced once (``Matrix.from_scaled_rows``).
    """
    if i < 1:
        raise DimensionError("boundary index must be at least 1")
    n_dom, n_cod = divided_dim(uv.rows, m + i), divided_dim(uv.rows, m + i - 1)
    deltas = signed_contractions(uv, m + i)
    scale, codes = Matrix.common_codes([d for l in range(1, e + 1) for d in deltas(l)])
    # entry 2 (l - 1) + sign: per nonzero row c of (-1)^sign Delta_l, c and its (col, code) pairs
    signed = [[(c, tuple(row.items())) for c, row in enumerate(rows) if row] for rows in codes]
    facet_offset = {f: s * n_cod for s, f in enumerate(exterior_basis(e, k + i - 1))}
    out = [{} for _ in range(len(facet_offset) * n_cod)]
    faces = itertools.combinations(range(1, e + 1), k + i)
    for col0, face in zip(itertools.count(0, n_dom), faces):
        for pos, l in enumerate(face):
            row0 = facet_offset[face[:pos] + face[pos + 1 :]]
            for c, row in signed[2 * l - 2 + (pos & 1)]:
                target = out[row0 + c]
                for j, x in row:
                    target[col0 + j] = x
    return Matrix.from_scaled_rows(uv.field, math.comb(e, k + i) * n_dom, out, scale)


def splice_matrix_on(uv: Matrix, e: int, rk: int, minors: MaximalMinors | None = None) -> Matrix:
    """Splice Wedge^{rk+1} -> source space, entries signed maximal minors:
    the column of face F is ``minors.column(F)``, minors a table of uv (fresh if None)."""
    minors, faces = minors or MaximalMinors(uv), list(itertools.combinations(range(e), rk + 1))
    blocks = ((0, s, minors.column(face)) for s, face in enumerate(faces))
    return Matrix.from_blocks(uv.field, e, len(faces), blocks)


def splice_and_boundaries(uv: Matrix, e: int, rk: int, minors: MaximalMinors | None = None):
    """The maps above the source: the splice out of Wedge^{rk+1}, then
    ``sigma_matrix_on(uv, e, 0, rk + 1, i)`` out of D_i (x) Wedge^{rk+1+i}
    for i = 1, ..., e - rk - 1 while D_i is nonzero (none at rk = 0)."""
    if rk >= e:
        return []
    # at rk = 0, D_i = 0 for every i >= 1
    boundaries = (sigma_matrix_on(uv, e, 0, rk + 1, i) for i in range(1, e - rk) if rk)
    return [splice_matrix_on(uv, e, rk, minors), *boundaries]


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
    diffs = tuple(sigma_matrix_on(uv, e, m, k, i) for i in range(1, e - k + 1))
    return VectorComplex(dims, diffs)


def build_B_complex(cd: CoeffData, vsub: Subspace) -> VectorComplex:
    """Splice of the divided/exterior tail onto the map itself.

    Position 0 is the target space, position 1 the source; position i >= 2
    is D_{i-2} (x) Wedge^{rk+i-1} where rk is the dimension of vsub.  The
    top position is e - rk + 1 (just the map itself when rk >= e), or 2 at
    rk = 0, where D_i = 0 for i >= 1.
    """
    uv = coordinates_on(cd, vsub)
    diffs = [cd.matrix, *splice_and_boundaries(uv, cd.matrix.cols, vsub.dim)]
    return VectorComplex((cd.matrix.rows, *(d.cols for d in diffs)), tuple(diffs))


def contraction_kernel(uv: Matrix, m: int, cols: list[int]) -> Subspace:
    """The subspace of D_m that Delta_l kills for every l in cols (0-based
    columns of uv), from one stack and one kernel; all of D_m, with no
    kernel, when m = 0 or cols is empty.  At m = 1 the stack is uv on cols,
    transposed, so this is ``Morphism.k_space``.

    Delta_l is linear in column l, so the kernel depends only on the span
    of cols.  With at least uv.rows of them, uv is ranked on cols first:
    if they span, the functionals vanishing on them are 0 and so is D_m of
    them, with no stack and no kernel; otherwise only the pivot columns, a
    basis of the span, are stacked."""
    dim = divided_dim(uv.rows, m)
    if m == 0 or not cols:
        return Subspace(Matrix.identity(uv.field, dim))
    if len(cols) >= uv.rows:
        _, pivots = uv.submatrix(range(uv.rows), cols).rref()
        if len(pivots) == uv.rows:
            return Subspace(Matrix.zeros(uv.field, 0, dim))
        cols = [cols[k] for k in pivots]
    deltas = [contraction_matrix(uv, l + 1, m) for l in cols]
    return kernel_basis(Matrix.stack(uv.field, dim, deltas))


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
    return contraction_kernel(ann, m, list(range(ann.cols))).basis.transpose()
