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

Every system is built by one loop (``build_complex``): each level's faces
go through ``_level``, and its map is the splice of the faces of size
r + 1 (``MaximalMinors.splice``) or, above it, one ``write_level``, the
one level writer, which copies uv's coded columns straight into the
facets' rows between faces given their whole divided power and solves
every other block.  The system with every divided power in full,
``full_system``, stores no face and gives the Taylor-style resolution.
The Scarf system is one rule over the LCM-lattice table
``phi.degree_index.lattice(cap)``: each degree a with |I_a| > r gives the
face I_a the divided power of the functionals vanishing on I^a (the
kernel of the contractions by the columns of I^a, none taken when they
span); a Scarf degree (I^a empty) gets all of it.  Under uniform rank the
cap walks only the degrees with few columns below them, the only ones
that can carry a face (``scarf_system``).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping

from . import degrees as deg
from . import morphism
from .degrees import Multidegree
from .errors import DimensionError, RestrictionError, TooManyColumns
from .linalg import Matrix
from .morphism import Morphism, check_var_names
from .multilinear import VectorComplex, contraction_kernel, divided_dim, write_level

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
    be componentwise non-negative.  var_names defaults as a morphism's.
    """

    def __init__(self, field, n: int, levels, diffs, labels, var_names=None):
        self.field = field
        self.n = n
        self.levels = tuple(tuple(map(tuple, level)) for level in levels)
        self.labels = tuple(tuple(level) for level in labels)
        self.diffs = tuple(diffs)
        self.var_names = (morphism.default_var_names(n) if var_names is None
                          else check_var_names(var_names, n))
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


class FullSystem:
    """The full system, each face of size p > r given all of D_{p-r-1}, as
    dims (p -> that nonzero dimension), no face stored; ``build_complex``
    builds it level by level, and ``spaces`` lists it face by face."""

    def __init__(self, field, r: int, e: int, dims: dict[int, int]):
        self.field, self.r, self.e, self.dims = field, r, e, dims

    @property
    def spaces(self) -> dict[Face, Matrix]:
        return {face: Matrix.identity(self.field, self.dims[p])
                for p in self.dims for face in self.faces_of_size(p)}

    def faces_of_size(self, p: int) -> list[Face]:
        return list(itertools.combinations(range(1, self.e + 1), p)) if p in self.dims else []

    def max_face_size(self) -> int:
        return max(self.dims, default=self.r)


def full_system(phi: Morphism) -> FullSystem:
    """Every face of size above the rank gets the whole divided power;
    TooManyColumns when its complex would have more than MAX_GENERATORS
    generators (read at call time), counted by face size before anything is
    built and refused as soon as the running count passes the budget."""
    r, count, dims = phi.coeff_data.r, phi.g + phi.e, {}
    for p in range(r + 1, phi.e + 1):
        if not (dim := divided_dim(r, p - r - 1)):
            break  # r = 0: D_m = 0 for m >= 1
        dims[p] = dim
        count += math.comb(phi.e, p) * dim
        if count > MAX_GENERATORS:
            raise TooManyColumns(f"the full-system complex would have at least {count} "
                                 f"generators, over the budget of {MAX_GENERATORS}")
    return FullSystem(phi.field, r, phi.e, dims)


def scarf_system(phi: Morphism) -> FaceSystem:
    """One rule over the lattice table: each degree a with |I_a| > r assigns
    to I_a the divided power D_m, m = |I_a| - r - 1, of the functionals
    vanishing on I^a, ``contraction_kernel`` of uv on I^a once per (m, I^a):
    the identity at m = 0 and at a Scarf degree (I^a empty).

    For m >= 1, D_m(K) is nonzero exactly when rank uv on I^a is below r
    (``contraction_kernel`` ranks an I^a of r or more columns first).
    Under uniform rank (read off the minor table within MAX_RANK_SUBSETS)
    that is |I^a| < r, and |I(a)| <= n, so only degrees with |I_a| <=
    max(r + 1, n + r - 1) are walked, by ``phi.degree_index.lattice(cap)``:
    each partial join b of such an I_a has I_b within I_a, so the capped
    walk reaches it.  Otherwise the whole table is walked.
    """
    r, e, deltas = phi.coeff_data.r, phi.e, phi.coeff_data.contractions
    uniform = math.comb(e, r) <= morphism.MAX_RANK_SUBSETS and phi.is_uniform_rank()
    cap = max(r + 1, phi.n + r - 1) if uniform else e
    sole = phi.degree_index.sole_reachers
    spaces: dict[Face, Matrix] = {}
    # once per (m, mask of I^a): many degrees share their I^a
    kernel = functools.cache(
        lambda m, upper: contraction_kernel(deltas, m, deg.bits(upper)).basis.transpose())
    for a, cols in phi.degree_index.lattice(cap).items():
        m = cols.bit_count() - r - 1
        if m < 0:
            continue
        upper = cols & ~sole(a, cols) if m else 0
        if uniform and upper and upper.bit_count() >= r:
            continue
        spaces[tuple(j + 1 for j in deg.bits(cols))] = kernel(m, upper)
    return FaceSystem(r, spaces)


def is_compatible_system(phi: Morphism, system: FaceSystem):
    """Closure check: (True, None) when build_complex succeeds, else
    (False, first offending face in build order)."""
    try:
        build_complex(phi, system)
    except RestrictionError as exc:
        return False, exc.face
    return True, None


def build_complex(phi: Morphism, system: FaceSystem | FullSystem) -> GradedComplex:
    """The graded complex spanned by a face system, one level per ``_level``
    in build order (size, then lexicographic): the faces of size r + 1 map
    by one ``MaximalMinors.splice``, each column times its 1 x 1 embedding,
    every level above by one ``write_level``.  A ``FaceSystem``'s faces must
    index columns of phi and be assigned a subspace of their own D_m; a
    malformed face, or an image that fails to decompose, raises
    RestrictionError naming the face: the system was not closed."""
    cd, r = phi.coeff_data, phi.coeff_data.r
    if system.r != r:
        raise DimensionError(f"system rank {system.r} differs from morphism rank {r}")
    if isinstance(system, FullSystem) and system.e != phi.e:
        system = FaceSystem(r, system.spaces)
    # embs: the spaces other than the identity, a whole divided power
    full, embs, by_size = isinstance(system, FullSystem), {}, {}
    if not full:
        for face in sorted(sorted(system.spaces), key=len):  # by size, then lexicographic
            if face[0] < 1 or face[-1] > phi.e:
                raise RestrictionError(face, f"face {face} has an index outside 1..{phi.e}")
            if system.spaces[face].rows != divided_dim(r, len(face) - r - 1):
                raise RestrictionError(face, f"face {face} is not assigned a subspace of "
                                             f"D_{len(face) - r - 1}")
            by_size.setdefault(len(face), []).append(face)
        eye = {d: Matrix.identity(phi.field, d) for d in {m.rows for m in system.spaces.values()}}
        embs = {face: emb for face, emb in system.spaces.items() if emb != eye[emb.rows]}
    levels, labels = [phi.target_degrees, phi.source_degrees], presentation_labels(phi)
    # per face of the level before, its label head and degree (``_level``)
    made, diffs, offsets = {(): ("e{", (0,) * phi.n)}, [cd.matrix], {}
    for p in range(r + 1, system.max_face_size() + 1):
        faces, below = system.faces_of_size(p) if full else by_size.get(p, []), offsets
        dims = [system.dims[p]] * len(faces) if full else [system.spaces[f].cols for f in faces]
        made, offsets = _level(phi, faces, dims, made, levels, labels)
        if p > r + 1:
            d = write_level(cd.contractions, p - r - 1, offsets, below,
                            len(levels[-2]), len(levels[-1]), embs)
        else:
            d = cd.minors.splice([tuple([j - 1 for j in face]) for face in faces])
            if embs and any(face in embs for face in faces):  # times the 1 x 1 embeddings
                diag = [{s: embs[f].col(0)[0]} if f in embs else {s: phi.field.one}
                        for s, f in enumerate(faces)]
                d = d.mul(Matrix.from_nonzero_rows(phi.field, len(faces), diag))
        diffs.append(d)
    return GradedComplex(phi.field, phi.n, levels, diffs, labels, var_names=phi.var_names)


def _level(phi: Morphism, faces, dims, prev: dict[Face, tuple[str, Multidegree]], levels, labels):
    """Appends to levels and labels one level of faces in build order, the k-th
    face f spanning dims[k] generators e{f}#1, e{f}#2, ..., and returns per face
    its label head "e{i1,...,ip," and degree, each its prefix's (from prev, the
    level before, or made once) extended by its last column, and its first generator."""
    src, made, offsets, level, heads = phi.source_degrees, {}, {}, [], []
    for face, cols in zip(faces, dims):
        prefix, last = face[:-1], face[-1]
        if (got := prev.get(prefix)) is None:
            got = prev[prefix] = ("e{" + ",".join(map(str, prefix)) + ",", phi.face_degree(prefix))
        head, degree = got[0] + str(last), tuple(map(max, got[1], src[last - 1]))
        made[face], offsets[face] = (head + ",", degree), len(level)
        heads.append(head)
        level += [degree] * cols
    suffixes = {cols: [f"}}#{t}" for t in range(1, cols + 1)] for cols in set(dims)}
    levels.append(level)
    labels.append([head + t for head, cols in zip(heads, dims) for t in suffixes[cols]])
    return made, offsets


def taylor_complex(phi: Morphism) -> GradedComplex:
    """The complex of the full system."""
    return build_complex(phi, full_system(phi))


def scarf_complex(phi: Morphism) -> GradedComplex:
    """The complex of the Scarf system."""
    return build_complex(phi, scarf_system(phi))
