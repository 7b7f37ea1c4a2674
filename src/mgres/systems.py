"""Face systems and the graded complexes they generate.

A face system for a morphism of rank r assigns to each face I (a set of
column indices with at least r + 1 elements) a subspace of the divided
power D_{|I|-r-1} of the dual of the image, stored as a column matrix over
the divided basis; absent faces mean the zero space.  The system must be
closed under the boundary maps: the image of each assigned subspace under
the contraction boundary has to land in the direct sum of the subspaces
assigned to the facets.

Such a system spans a complex of free multigraded modules: position 0 is
the target, position 1 the source, and position i >= 2 collects the faces
of size r + i - 1, each generator carrying the join of its column degrees.
A ``GradedComplex`` keeps two columns per level: one tuple of generator
degrees and one tuple of labels, g1, g2, ... at level 0 and e1, e2, ... at
level 1 (``presentation_labels``), then e{i1,...,ip}#t for the t-th basis
vector of the subspace assigned to face {i1,...,ip}.  Every differential
entry is a scalar together with the degree shift forced by homogeneity, so
only the scalar matrices are stored; the shift of entry (row, col) is
always the column generator degree minus the row generator degree.

The system with every divided power taken in full yields the familiar
Taylor-style resolution.  The Scarf system is one rule over the LCM-lattice:
each lattice degree a with |I_a| > r assigns to the face I_a the divided
power of the functionals that vanish on the columns of I^a.  A Scarf degree
(I^a empty) thus gets the whole divided power.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping

from . import degrees as deg
from . import lattice as lat
from .degrees import Multidegree
from .errors import DimensionError, RestrictionError, TooManyColumns
from .linalg import Matrix
from .morphism import Morphism, check_var_names
from .multilinear import VectorComplex, divided_dim, divided_embed, signed_contractions

Face = tuple[int, ...]

# Refuse a full-system complex with more generators than this: 180,258 at
# r = 2, e = 15 take about 5 s and 250 MB, and memory doubles per column.
MAX_GENERATORS = 2**18


def presentation_labels(phi: Morphism) -> list[tuple[str, ...]]:
    """Labels of levels 0 and 1: the target generators g1, g2, ... and the
    source generators (the columns) e1, e2, ..."""
    return [tuple(f"g{i}" for i in range(1, phi.g + 1)),
            tuple(f"e{j}" for j in range(1, phi.e + 1))]


class GradedComplex:
    """A finite complex of free multigraded modules with scalar matrices.

    levels[i] holds the degree of each generator of level i and labels[i]
    its label.  diffs[i] maps level i+1 to level i.  Nonzero entries carry
    the shift (column degree) - (row degree), which homogeneity forces to
    be componentwise non-negative.
    """

    def __init__(self, field, n: int, levels, diffs, labels, var_names=None):
        self.field = field
        self.n = n
        self.levels = tuple(tuple(map(tuple, level)) for level in levels)
        self.labels = tuple(tuple(level) for level in labels)
        self.diffs = tuple(diffs)
        self.var_names = None if var_names is None else check_var_names(var_names, n)
        VectorComplex(self.ranks(), self.diffs)  # the count and shape checks
        if list(map(len, self.labels)) != list(map(len, self.levels)):
            raise DimensionError("label counts do not match the level ranks")
        for i, d in enumerate(self.diffs):
            if d.field != field:
                raise DimensionError(f"differential {i + 1} over {d.field.name}, not {field.name}")

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    def level_degrees(self, i: int) -> tuple[Multidegree, ...]:
        return self.levels[i]

    def shift(self, diff_index: int, row: int, col: int) -> tuple[int, ...]:
        """Forced shift of entry (row, col) of diffs[diff_index], 0-based."""
        return deg.sub(self.levels[diff_index + 1][col], self.levels[diff_index][row])

    def homogeneity_violation(self) -> tuple[int, int, int] | None:
        """(diff index, row, col) of the first negative-shift nonzero entry."""
        for i, (d, src, dst) in enumerate(zip(self.diffs, self.levels, self.levels[1:])):
            for row, cols in enumerate(d.supports()):
                for col in cols:
                    if not deg.leq(src[row], dst[col]):
                        return (i, row, col)
        return None

    def is_homogeneous(self) -> bool:
        return self.homogeneity_violation() is None

    def __eq__(self, other):
        return (
            isinstance(other, GradedComplex)
            and other.field == self.field
            and other.n == self.n
            and other.levels == self.levels
            and other.labels == self.labels
            and other.diffs == self.diffs
        )

    def __repr__(self):
        return f"GradedComplex(ranks {self.ranks()})"


class FaceSystem:
    """Divided-power subspaces indexed by faces, absent faces meaning zero.

    A zero-column assignment is dropped here, and only here, so every face
    kept spans a generator, and the top face size has one."""

    def __init__(self, r: int, spaces: Mapping[Face, Matrix]):
        self.r = r
        self.spaces: dict[Face, Matrix] = {}
        for face, emb in spaces.items():
            key = tuple(sorted(face))
            if len(key) != len(set(key)):
                raise DimensionError(f"face {face} has repeated indices")
            if len(key) <= r:
                raise DimensionError(f"face {key} has at most r = {r} elements")
            if emb.cols == 0:
                continue
            self.spaces[key] = emb

    def faces_of_size(self, p: int) -> list[Face]:
        return sorted(face for face in self.spaces if len(face) == p)

    def max_face_size(self) -> int:
        return max((len(face) for face in self.spaces), default=self.r)


def full_system(phi: Morphism) -> FaceSystem:
    """Every face of size above the rank gets the whole divided power;
    TooManyColumns when its complex would have more than MAX_GENERATORS
    generators (read at call time), counted by face size before anything is
    built and refused as soon as the running count passes the budget."""
    r = phi.coeff_data.r
    count, dims = phi.g + phi.e, {}
    for p in range(r + 1, phi.e + 1):
        dims[p] = divided_dim(r, p - r - 1)
        count += math.comb(phi.e, p) * dims[p]
        if count > MAX_GENERATORS:
            break
    if count > MAX_GENERATORS:
        raise TooManyColumns(f"the full-system complex would have at least {count} "
                             f"generators, over the budget of {MAX_GENERATORS}")
    field = phi.field
    spaces = {}
    for p, dim in dims.items():
        if dim == 0:
            continue
        ident = Matrix.identity(field, dim)
        for face in itertools.combinations(range(1, phi.e + 1), p):
            spaces[face] = ident
    return FaceSystem(r, spaces)


def scarf_system(phi: Morphism) -> FaceSystem:
    """One rule over the lattice table: each degree a with |I_a| > r assigns
    to I_a the divided power D_{|I_a|-r-1} of the functionals vanishing on
    the columns of I^a, embedded into the ambient divided power.

    A Scarf degree has I^a empty, so its face gets the whole divided power,
    which ``divided_embed`` codes as the identity.
    """
    r = phi.coeff_data.r
    spaces: dict[Face, Matrix] = {}
    for a, i_a in phi.lattice_columns.items():
        if len(i_a) > r:
            k = phi.k_space(lat.face_data(phi, a).i_upper_a)
            spaces[tuple(sorted(i_a))] = divided_embed(k, len(i_a) - r - 1)
    return FaceSystem(r, spaces)


def is_compatible_system(phi: Morphism, system: FaceSystem):
    """Closure check: (True, None) when build_complex succeeds, else
    (False, first offending face in build order)."""
    try:
        build_complex(phi, system)
    except RestrictionError as exc:
        return False, exc.face
    return True, None


def build_complex(phi: Morphism, system: FaceSystem) -> GradedComplex:
    """The graded complex spanned by a face system.

    Faces are taken in build order (size, then lexicographic).  Every face
    must index columns of phi and be assigned a subspace of the divided
    power of its own degree.  A face's degree joins its prefix's (the face
    without its last column, from the level before, or joined once when not
    in the system) with its last column's.  ``Matrix.from_blocks`` writes
    each block as ``_blocks`` finds it.  A malformed face, or an image that
    fails to decompose, raises RestrictionError naming the face: the system
    was not closed.
    """
    r = phi.coeff_data.r
    if system.r != r:
        raise DimensionError(f"system rank {system.r} differs from morphism rank {r}")
    by_size: dict[int, list[Face]] = {}
    for face in sorted(sorted(system.spaces), key=len):  # by size, then lexicographic
        if face[0] < 1 or face[-1] > phi.e:
            raise RestrictionError(face, f"face {face} has an index outside 1..{phi.e}")
        if system.spaces[face].rows != divided_dim(r, len(face) - r - 1):
            raise RestrictionError(face, f"face {face} is not assigned a subspace of "
                                         f"D_{len(face) - r - 1}")
        by_size.setdefault(len(face), []).append(face)
    field, src = phi.field, phi.source_degrees
    # every full-system facet and Scarf face is assigned the identity, which
    # spans its whole divided power: a vector there is its own coordinates
    eye = {d: Matrix.identity(field, d) for d in {emb.rows for emb in system.spaces.values()}}
    identity = {face for face, emb in system.spaces.items() if emb == eye[emb.rows]}
    levels, labels = [phi.target_degrees, src], presentation_labels(phi)
    diffs: list[Matrix] = [phi.coeff_data.matrix]
    # per face of a level: its first generator there, and its degree (() has 0)
    offsets, degrees = {}, {(): (0,) * phi.n}
    for p in range(r + 1, system.max_face_size() + 1):
        faces, below, prefix_degrees = by_size.get(p, []), offsets, degrees
        offsets, degrees, level, names = {}, {}, [], []
        for face in faces:
            offsets[face] = len(level)
            prefix = face[:-1]
            if prefix not in prefix_degrees:  # not a face of the system
                prefix_degrees[prefix] = phi.face_degree(prefix)
            degree = degrees[face] = deg.join(prefix_degrees[prefix], src[face[-1] - 1])
            label, cols = "e{" + ",".join(map(str, face)) + "}#", system.spaces[face].cols
            level += [degree] * cols
            names += [label + str(t) for t in range(1, cols + 1)]
        blocks = _blocks(phi.coeff_data, system, identity, faces, offsets, below, p - r - 1)
        diffs.append(Matrix.from_blocks(field, len(levels[-1]), len(level), blocks))
        levels.append(level)
        labels.append(names)
    return GradedComplex(field, phi.n, levels, diffs, labels, var_names=phi.var_names)


def _blocks(cd, system: FaceSystem, identity, faces, offsets, below, m: int):
    """The blocks (row0, col0, block) of the differential out of faces, all of
    size r + 1 + m, each face at its offset and each facet at below's.  For
    m = 0 a face's block is its splice column (``CoeffData.minors``) times
    its one-row embedding.  Above that, the block from face F (embedding
    emb) to facet F - {l} is the signed Delta_l on D_m times emb (Delta_l
    itself on an identity face), in the facet's basis: read directly on an
    identity facet, else solved for."""
    deltas = signed_contractions(cd.uv, m)
    for face in faces:
        emb, ident, k, p = system.spaces[face], face in identity, offsets[face], len(face)
        if m == 0:
            column = cd.minors.column(tuple(j - 1 for j in face))
            yield 0, k, column if ident else column.mul(emb)
            continue
        # the facet without face[pos], for pos = p - 1, ..., 0
        for pos, sub in zip(range(p - 1, -1, -1), itertools.combinations(face, p - 1)):
            image = deltas(face[pos])[pos & 1]
            image = image if ident else image.mul(emb)
            if sub not in identity:
                target = system.spaces.get(sub)  # absent: the zero space
                if target is None and image.is_zero():
                    continue
                image = target.solve_matrix(image) if target else None
                if image is None:
                    where = "the span assigned to facet" if target else "the missing facet"
                    raise RestrictionError(face, f"image of face {face} is not in {where} {sub}")
            yield below[sub], k, image


def taylor_complex(phi: Morphism) -> GradedComplex:
    """The complex of the full system."""
    return build_complex(phi, full_system(phi))


def scarf_complex(phi: Morphism) -> GradedComplex:
    """The complex of the Scarf system."""
    return build_complex(phi, scarf_system(phi))
