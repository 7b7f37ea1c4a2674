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
exponent j by one with weight uv[j][l].  Delta_l depends on l and m only,
so it is built once and placed at every face it leaves.  The splice map
replaces Delta_l by maximal minors of the coordinate matrix.  Divided
powers obey characteristic-free laws (binomial coefficients, never division
by factorials), so everything works verbatim over GF(p).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionError
from .linalg import Matrix, Subspace
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
    if r == 0:
        return 1 if m == 0 else 0
    return math.comb(m + r - 1, r - 1)


def exterior_basis(e: int, k: int) -> list[ExteriorIndex]:
    """k-subsets of {1, ..., e}, lexicographic."""
    if not 0 <= k:
        raise DimensionError("exterior power degree must be non-negative")
    return list(itertools.combinations(range(1, e + 1), k))


def removal_sign(position: int) -> int:
    """Sign of contracting away a face entry at the given 0-based position."""
    return -1 if position % 2 else 1


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


def contraction_matrix(uv: Matrix, l: int, m: int) -> Matrix:
    """Delta_l: D_m -> D_{m-1}, contraction by column l (1-based) of uv.

    Basis vector b goes to the sum of uv[j][l] (b - e_j) over the j with
    b_j > 0: row c holds uv[j][l] at column c + e_j.  The only contraction
    kernel; every boundary is assembled from signed blocks of it.
    """
    cod, _ = _divided_index(uv.rows, m - 1)
    _, dom_index = _divided_index(uv.rows, m)
    weights = [(j, u) for j, u in enumerate(uv.col(l - 1)) if u]
    rows = [{dom_index[c[:j] + (c[j] + 1,) + c[j + 1 :]]: u for j, u in weights} for c in cod]
    return Matrix.from_nonzero_rows(uv.field, len(dom_index), rows)


def boundary_blocks(uv: Matrix, m: int):
    """face -> [(facet, removal_sign(pos) Delta_l)], one per position pos of
    l in the face: the blocks of the boundary out of D_m (x) e_face.  Each
    Delta_l is built on first use and shared by every face of the caller."""
    blocks: dict[tuple[int, int], Matrix] = {}

    def boundary(face: ExteriorIndex) -> list[tuple[ExteriorIndex, Matrix]]:
        out = []
        for pos, l in enumerate(face):
            key = (l, removal_sign(pos))
            if key not in blocks:
                delta = contraction_matrix(uv, l, m)
                blocks[(l, 1)], blocks[(l, -1)] = delta, -delta
            out.append((face[:pos] + face[pos + 1 :], blocks[key]))
        return out

    return boundary


def contract(uv: Matrix, face: ExteriorIndex, w: Sequence, m: int) -> list:
    """Boundary of w (x) e_face: one (facet, signed image in D_{m-1}) per
    position, each image the signed Delta_l applied to w (a dense vector
    over the basis of D_m)."""
    return [(sub, block.apply(w)) for sub, block in boundary_blocks(uv, m)(face)]


def splice_column(uv: Matrix, face: ExteriorIndex) -> dict[int, object]:
    """Splice image of a (uv.rows + 1)-face in the source space.

    Entry l - 1 (0-based) is the signed maximal minor of uv on the face
    without l; only the nonzero minors are returned.
    """
    rows = range(uv.rows)
    out = {}
    for pos, l in enumerate(face):
        minor = uv.submatrix(rows, [j - 1 for j in face[:pos] + face[pos + 1 :]]).det()
        if minor:
            out[l - 1] = minor if removal_sign(pos) > 0 else -minor
    return out


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
    faces = exterior_basis(e, k + i)
    boundary = boundary_blocks(uv, m + i)
    rows: list[dict] = [{} for _ in range(len(facet_offset) * n_cod)]
    for s, face in enumerate(faces):
        for sub, block in boundary(face):
            block.place_into(rows, facet_offset[sub], s * n_dom)
    return Matrix.from_nonzero_rows(uv.field, len(faces) * n_dom, rows)


def splice_matrix_on(uv: Matrix, e: int, rk: int) -> Matrix:
    """Splice Wedge^{rk+1} -> source space, entries signed maximal minors."""
    cols = [splice_column(uv, face) for face in exterior_basis(e, rk + 1)]
    return Matrix.from_nonzero_rows(uv.field, e, cols).transpose()


def sigma_matrix(cd: CoeffData, m: int, k: int, i: int) -> Matrix:
    """Boundary of the divided/exterior complex for the morphism's own image."""
    return sigma_matrix_on(cd.uv, cd.uv.cols, m, k, i)


def splice_matrix(cd: CoeffData) -> Matrix:
    """Splice map with entries the signed r x r minors of the V-coordinates."""
    return splice_matrix_on(cd.uv, cd.uv.cols, cd.r)


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
    uv = coordinates_on(cd, vsub)
    e = cd.matrix.cols
    if k > e:
        return VectorComplex((), ())
    rk = vsub.dim
    dims = tuple(
        divided_dim(rk, m + i) * math.comb(e, k + i) for i in range(e - k + 1)
    )
    diffs = tuple(sigma_matrix_on(uv, e, m, k, i) for i in range(1, e - k + 1))
    return VectorComplex(dims, diffs)


def build_B_complex(cd: CoeffData, vsub: Subspace) -> VectorComplex:
    """Splice of the divided/exterior tail onto the map itself.

    Position 0 is the target space, position 1 the source; position i >= 2
    is D_{i-2} (x) Wedge^{rk+i-1} where rk is the dimension of vsub.  The
    top position is e - rk + 1 (just the map itself when rk >= e).
    """
    uv = coordinates_on(cd, vsub)
    e = cd.matrix.cols
    g = cd.matrix.rows
    rk = vsub.dim
    top = max(e - rk + 1, 1)
    dims = [g, e]
    diffs = [cd.matrix]
    for i in range(2, top + 1):
        dims.append(divided_dim(rk, i - 2) * math.comb(e, rk + i - 1))
        if i == 2:
            diffs.append(splice_matrix_on(uv, e, rk))
        else:
            diffs.append(sigma_matrix_on(uv, e, 0, rk + 1, i - 2))
    return VectorComplex(tuple(dims), tuple(diffs))


def _linear_form_power(field, coeffs: Sequence, c: int) -> dict[DividedIndex, object]:
    """Divided power of a linear form: exponent tuple -> product of coefficients."""
    rk = len(coeffs)
    if c == 0:
        return {(0,) * rk: field.one}
    out: dict[DividedIndex, object] = {}
    for d in divided_basis(rk, c):
        term = field.one
        for lam, pw in zip(coeffs, d):
            if pw:
                term = math.prod([lam] * pw, start=term)
        if term:
            out[d] = term
    return out


def _divided_product(field, u: dict, v: dict) -> dict:
    """Product in the divided power algebra: binomial structure constants."""
    zero = field.zero
    out: dict[DividedIndex, object] = {}
    for d1, c1 in u.items():
        for d2, c2 in v.items():
            coef = c1 * c2
            for a, b in zip(d1, d2):
                if a and b:
                    coef = coef * field.of(math.comb(a + b, a))
            key = tuple(a + b for a, b in zip(d1, d2))
            acc = out.pop(key, zero) + coef
            if acc:
                out[key] = acc
    return out


def divided_embed(subspace: Subspace, m: int) -> Matrix:
    """Columns expressing the basis of D_m(subspace) inside D_m(ambient).

    The basis of D_m of a t-dimensional subspace is indexed by weak
    compositions of m into t parts; each basis element is the product of
    divided powers of the echelon basis rows, expanded by the divided
    power laws.  The columns are linearly independent.
    """
    field = subspace.field
    rk = subspace.ambient_dim
    _, rows_idx = _divided_index(rk, m)
    cols = []
    for b in divided_basis(subspace.dim, m):
        elem = {(0,) * rk: field.one}
        for coeffs, power in zip(subspace.basis.data, b):
            if power:
                elem = _divided_product(field, elem, _linear_form_power(field, coeffs, power))
        cols.append({rows_idx[key]: val for key, val in elem.items()})
    return Matrix.from_nonzero_rows(field, len(rows_idx), cols).transpose()
