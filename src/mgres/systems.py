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
Every differential entry is a scalar together with the degree shift forced
by homogeneity, so only the scalar matrices are stored; the shift of entry
(row, col) is always the column generator degree minus the row generator
degree.

The system with every divided power taken in full yields the familiar
Taylor-style resolution; the Scarf system keeps only the faces with a
unique degree, plus the closed faces of shared degrees restricted to the
kernel functionals that survive.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

from . import degrees as deg
from . import lattice as lat
from .degrees import Multidegree
from .errors import DimensionError, RestrictionError, TooManyColumns
from .linalg import Matrix
from .morphism import Morphism
from .multilinear import boundary_blocks, divided_dim, divided_embed, splice_columns

Face = tuple[int, ...]

# Refuse a full-system complex with more generators than this: 180,258 at
# r = 2, e = 15 take about 5 s and 250 MB, and memory doubles per column.
MAX_GENERATORS = 2**18


class Generator:
    """A free module generator: a multidegree plus a combinatorial label."""

    __slots__ = ("degree", "label")

    def __init__(self, degree: Sequence[int], label: str):
        self.degree = tuple(degree)
        self.label = label

    def __eq__(self, other):
        return (
            isinstance(other, Generator)
            and other.degree == self.degree
            and other.label == self.label
        )

    def __hash__(self):
        return hash((self.degree, self.label))

    def __repr__(self):
        return f"Generator({self.degree}, {self.label!r})"


class GradedComplex:
    """A finite complex of free multigraded modules with scalar matrices.

    diffs[i] maps level i+1 to level i.  Nonzero entries carry the shift
    (column degree) - (row degree), which homogeneity forces to be
    componentwise non-negative.
    """

    def __init__(self, field, n: int, levels, diffs, var_names=None):
        self.field = field
        self.n = n
        self.levels = tuple(tuple(level) for level in levels)
        self.diffs = tuple(diffs)
        self.var_names = tuple(var_names) if var_names else None
        if len(self.diffs) != max(len(self.levels) - 1, 0):
            raise DimensionError("differential count does not match level count")
        for i, d in enumerate(self.diffs):
            if d.rows != len(self.levels[i]) or d.cols != len(self.levels[i + 1]):
                raise DimensionError(f"differential {i + 1} has the wrong shape")

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    def level_degrees(self, i: int) -> tuple[Multidegree, ...]:
        return tuple(g.degree for g in self.levels[i])

    def shift(self, diff_index: int, row: int, col: int) -> tuple[int, ...]:
        """Forced shift of entry (row, col) of diffs[diff_index], 0-based."""
        return deg.sub(
            self.levels[diff_index + 1][col].degree,
            self.levels[diff_index][row].degree,
        )

    def homogeneity_violation(self) -> tuple[int, int, int] | None:
        """(diff index, row, col) of the first negative-shift nonzero entry."""
        for i, d in enumerate(self.diffs):
            for row, cols in enumerate(d.supports()):
                for col in cols:
                    if any(c < 0 for c in self.shift(i, row, col)):
                        return (i, row, col)
        return None

    def is_homogeneous(self) -> bool:
        return self.homogeneity_violation() is None

    def all_degrees(self) -> set[Multidegree]:
        return {g.degree for level in self.levels for g in level}

    def __eq__(self, other):
        return (
            isinstance(other, GradedComplex)
            and other.field == self.field
            and other.n == self.n
            and other.levels == self.levels
            and other.diffs == self.diffs
        )

    def __repr__(self):
        return f"GradedComplex(ranks {self.ranks()})"


class FaceSystem:
    """Divided-power subspaces indexed by faces, absent faces meaning zero."""

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
    """Full divided powers on Scarf faces; kernel divided powers on closed faces.

    A non-Scarf face contributes only when it equals I_a for its own degree
    a; it is then assigned D_{|I|-r-1} of the functionals vanishing on the
    columns indexed by I^a, embedded into the ambient divided power.
    """
    cd = phi.coeff_data
    r = cd.r
    spaces: dict[Face, Matrix] = {}
    lattice = lat.lcm_lattice(phi)
    for face in lattice.scarf_faces:
        if len(face) >= r + 1:
            spaces[face] = Matrix.identity(phi.field, divided_dim(r, len(face) - r - 1))
    for fd in lattice.nonscarf_data:
        face = tuple(sorted(fd.i_a))
        if len(face) < r + 1:
            continue
        emb = divided_embed(phi.k_space(fd.i_upper_a), len(face) - r - 1)
        if emb.cols:
            spaces[face] = emb
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
    power of its own degree.  A face of size r + 1 maps to the source by
    its splice column (signed maximal minors) times its one-row embedding.
    Above that, the block from face F (embedding emb) to facet F - {l} is
    the signed contraction Delta_l of ``multilinear.boundary_blocks`` times
    emb (Delta_l itself on an identity face), in the facet's basis: read
    directly on an identity facet, else solved for.  A malformed face, or
    an image that fails to decompose, raises RestrictionError naming the
    face: the system was not closed.
    """
    cd = phi.coeff_data
    r = cd.r
    if system.r != r:
        raise DimensionError(f"system rank {system.r} differs from morphism rank {r}")
    for face in sorted(system.spaces, key=lambda f: (len(f), f)):
        if face[0] < 1 or face[-1] > phi.e:
            raise RestrictionError(face, f"face {face} has an index outside 1..{phi.e}")
        if system.spaces[face].rows != divided_dim(r, len(face) - r - 1):
            raise RestrictionError(
                face, f"face {face} is not assigned a subspace of D_{len(face) - r - 1}"
            )
    field = phi.field
    # every full-system facet and Scarf face is assigned the identity, which
    # spans its whole divided power: a vector there is its own coordinates
    eye = {d: Matrix.identity(field, d) for d in {emb.rows for emb in system.spaces.values()}}
    identity = {face for face, emb in system.spaces.items() if emb == eye[emb.rows]}
    levels: list[list[Generator]] = [
        [Generator(d, f"g{i}") for i, d in enumerate(phi.target_degrees, start=1)],
        [Generator(d, f"e{j}") for j, d in enumerate(phi.source_degrees, start=1)],
    ]
    diffs: list[Matrix] = [cd.matrix]
    offsets: dict[Face, int] = {}  # first generator of each face in its level
    splice = splice_columns(cd.uv)
    for p in range(r + 1, system.max_face_size() + 1):
        prev_offsets, offsets = offsets, {}
        gens: list[Generator] = []
        blocks = []  # the new differential's blocks: (row0, col0, Matrix)
        boundary = boundary_blocks(cd.uv, p - r - 1)
        for face in system.faces_of_size(p):
            emb = system.spaces[face]
            k = offsets[face] = len(gens)
            degree = phi.face_degree(face)
            label_face = "{" + ",".join(map(str, face)) + "}"
            gens.extend(Generator(degree, f"e{label_face}#{t + 1}") for t in range(emb.cols))
            if p == r + 1:
                blocks.append((0, k, splice(face) if face in identity else splice(face).mul(emb)))
                continue
            for sub, block in boundary(face):
                image = block if face in identity else block.mul(emb)
                target = system.spaces.get(sub)  # absent: the zero space
                if target is None and image.is_zero():
                    continue
                coords = (
                    image if sub in identity else target.solve_matrix(image) if target else None
                )
                if coords is None:
                    where = "the span assigned to facet" if target else "the missing facet"
                    raise RestrictionError(face, f"image of face {face} is not in {where} {sub}")
                blocks.append((prev_offsets[sub], k, coords))
        diffs.append(Matrix.from_blocks(field, len(levels[-1]), len(gens), blocks))
        levels.append(gens)
    # drop trailing empty levels (possible when the top faces vanish)
    while len(levels) > 2 and not levels[-1]:
        levels.pop()
        diffs.pop()
    return GradedComplex(field, phi.n, levels, diffs, var_names=phi.var_names)


def taylor_complex(phi: Morphism) -> GradedComplex:
    """The complex of the full system."""
    return build_complex(phi, full_system(phi))


def scarf_complex(phi: Morphism) -> GradedComplex:
    """The complex of the Scarf system."""
    return build_complex(phi, scarf_system(phi))
