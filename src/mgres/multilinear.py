"""Divided and exterior powers, and the complexes built from them.

Bases are frozen once and for all: the divided power D_m of an
r-dimensional dual space is indexed by weak compositions of m into r parts
listed with the first exponent decreasing (so for r = 2, m = 1 the order
is v_1, v_2), and the k-th exterior power of an e-dimensional space is
indexed by k-subsets of {1, ..., e} in lexicographic order.  Mixed bases
are ordered with the exterior index as the major key.

Each boundary D_m (x) Wedge^p -> D_{m-1} (x) Wedge^{p-1} is the block
matrix of signed contractions: the block from face I to facet I - {l} is
(-1)^(position of l in I, from 0) Delta_l, the standard comultiplication
sign, where Delta_l = ``contraction_matrix(uv, l, m)`` lowers each divided
exponent j by one with weight uv[j][l].  Each row of Delta_l is column l of
uv, coded once and relabeled (``Matrix.column_copies``).  Delta_l depends on
l and m only, so it is built once and placed at every face it leaves.  The
splice map replaces Delta_l by signed maximal minors of the coordinate
matrix, each taken once by ``linalg.MaximalMinors``.  D_m of a
subspace W is the common kernel of the contractions by the functionals that
vanish on W: the divided power algebra is the graded dual of the symmetric
algebra, so this holds in every characteristic, and the embedding is one
stack of Delta_l and one kernel, with no divided power expanded by hand.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import DimensionError
from .linalg import MaximalMinors, Matrix, Subspace, annihilator_basis, kernel_basis
from .morphism import CoeffData

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


@dataclass(frozen=True)
class VectorComplex:
    """A finite complex of coordinate spaces; diffs[i] maps position i+1 to i."""

    dims: tuple[int, ...]
    diffs: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.diffs) != max(len(self.dims) - 1, 0):
            raise DimensionError("differential count does not match positions")
        for i, d in enumerate(self.diffs):
            if d.rows != self.dims[i] or d.cols != self.dims[i + 1]:
                raise DimensionError(
                    f"differential {i + 1} has shape {d.rows}x{d.cols}, "
                    f"expected {self.dims[i]}x{self.dims[i + 1]}"
                )

    def composes_to_zero(self) -> bool:
        """Every product d_i d_{i+1} (``Matrix.mul``, summed on int codes) is zero."""
        return all(
            self.diffs[i].mul(self.diffs[i + 1]).is_zero() for i in range(len(self.diffs) - 1)
        )


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
    ``Matrix.column_copies`` of it.  The only contraction kernel; every
    boundary uses signed blocks of it.
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
    face F to facet F - {l} is the signed Delta_l.
    """
    if i < 1:
        raise DimensionError("boundary index must be at least 1")
    n_dom = divided_dim(uv.rows, m + i)
    n_cod = divided_dim(uv.rows, m + i - 1)
    facet_offset = {f: s * n_cod for s, f in enumerate(exterior_basis(e, k + i - 1))}
    faces, deltas = exterior_basis(e, k + i), signed_contractions(uv, m + i)
    blocks = (
        (facet_offset[face[:pos] + face[pos + 1 :]], s * n_dom, deltas(l)[pos & 1])
        for s, face in enumerate(faces)
        for pos, l in enumerate(face)
    )
    return Matrix.from_blocks(uv.field, len(facet_offset) * n_cod, len(faces) * n_dom, blocks)


def splice_matrix_on(uv: Matrix, e: int, rk: int) -> Matrix:
    """Splice Wedge^{rk+1} -> source space, entries signed maximal minors:
    the column of face F is ``MaximalMinors.column`` of uv on F."""
    minors, faces = MaximalMinors(uv), list(itertools.combinations(range(e), rk + 1))
    blocks = ((0, s, minors.column(face)) for s, face in enumerate(faces))
    return Matrix.from_blocks(uv.field, e, len(faces), blocks)


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
    top position is e - rk + 1 (just the map itself when rk >= e).
    """
    uv, e, rk = coordinates_on(cd, vsub), cd.matrix.cols, vsub.dim
    dims, diffs = [cd.matrix.rows, e], [cd.matrix]
    for i in range(2, max(e - rk + 1, 1) + 1):
        dims.append(divided_dim(rk, i - 2) * math.comb(e, rk + i - 1))
        diffs.append(splice_matrix_on(uv, e, rk) if i == 2 else
                     sigma_matrix_on(uv, e, 0, rk + 1, i - 2))
    return VectorComplex(tuple(dims), tuple(diffs))


def divided_embed(subspace: Subspace, m: int) -> Matrix:
    """Columns spanning D_m(subspace) inside D_m(ambient).

    D_m(W) is the common kernel of Delta_l for the functionals l in a basis
    of the annihilator of W, so the columns are the reduced echelon kernel
    basis of those contractions stacked.  They equal the product basis: for
    the reduced echelon basis w_i of W, with pivot p_i, and b a weak
    composition of m into dim W parts, prod w_i^(b_i) has a 1 at sum b_i
    e_{p_i}, zeros at the other pivot monomials and nothing before its
    pivot in the D_m order, so it is the unique reduced echelon basis.
    """
    field, ambient = subspace.field, subspace.ambient_dim
    if m == 0:
        return Matrix.identity(field, 1)
    if subspace.dim == 0:
        return Matrix.zeros(field, divided_dim(ambient, m), 0)
    ann = annihilator_basis(subspace).basis.transpose()
    deltas = [contraction_matrix(ann, l, m) for l in range(1, ann.cols + 1)]
    return kernel_basis(Matrix.stack(field, divided_dim(ambient, m), deltas)).basis.transpose()
