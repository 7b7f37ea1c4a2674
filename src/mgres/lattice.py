"""The LCM-lattice of a morphism and its Scarf combinatorics.

The lattice consists of all joins of nonempty subsets of the source
degrees.  It is one table per morphism, ``Morphism.lattice_columns``: each
element a of ``degrees.join_closure`` with I_a (the columns of degree at
most a), built once under the closure budget and read by ``lcm_lattice``,
``face_data`` (a lookup), ``Morphism.is_maximal_rank_everywhere`` and
``relabel.check_join_preserving``.  A face (nonempty set of columns) is a
Scarf face when no other face realizes its degree.  The face data of a
records I_a, I(a) and I^a = I_a - I(a).

Every face of degree a lies in I_a and reaches a in every coordinate, so a
column lies in I(a) exactly when it is the sole column of I_a reaching a in
some coordinate, and a degree is in the closure exactly when it is realized
(I_a then reaches every coordinate of a, whose join it is).  If I(a) = I_a,
then I_a is the only face of degree a: a is Scarf, with Scarf face I_a.
Otherwise I_a and I_a minus a column outside I(a) are two faces of degree
a.  This costs O(|L| e n), not 2^e subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from . import degrees as deg
from .degrees import Multidegree
from .errors import DegreeNotInLattice
from .morphism import Morphism

Face = tuple[int, ...]


@dataclass(frozen=True)
class FaceData:
    degree: Multidegree
    i_a: frozenset[int]        # all columns of degree <= a
    i_of_a: frozenset[int]     # intersection of all faces of degree a
    i_upper_a: frozenset[int]  # i_a minus i_of_a


@dataclass(frozen=True)
class LcmLattice:
    elements: frozenset[Multidegree]
    scarf_part: frozenset[Multidegree]
    nonscarf_part: frozenset[Multidegree]
    scarf_faces: frozenset[Face]
    nonscarf_data: tuple[FaceData, ...]  # face data of nonscarf_part, by degree


def faces_by_degree(phi: Morphism) -> dict[Multidegree, list[Face]]:
    """All nonempty faces grouped by their multidegree, from all 2^e - 1
    column subsets: the test oracle for ``lcm_lattice`` and ``face_data``."""
    by_degree: dict[Multidegree, list[Face]] = {}
    for size in range(1, phi.e + 1):
        for face in itertools.combinations(range(1, phi.e + 1), size):
            by_degree.setdefault(phi.face_degree(face), []).append(face)
    return by_degree


def scarf_faces(phi: Morphism) -> frozenset[Face]:
    """Faces whose multidegree is achieved by no other face."""
    return lcm_lattice(phi).scarf_faces


def lcm_lattice(phi: Morphism) -> LcmLattice:
    """The join closure of the source degrees, partitioned into Scarf and
    non-Scarf parts, the Scarf faces (a is Scarf iff I(a) = I_a) and the
    face data of the non-Scarf degrees; a Scarf degree keeps only its face."""
    elements = frozenset(phi.lattice_columns)
    scarf, other = {}, []
    for a in phi.lattice_columns:
        fd = face_data(phi, a)
        if fd.i_upper_a:
            other.append(fd)
        else:
            scarf[a] = tuple(sorted(fd.i_a))
    part, faces = frozenset(scarf), frozenset(scarf.values())
    return LcmLattice(elements, part, elements - part, faces, tuple(other))


def face_data(phi: Morphism, a: Iterable[int]) -> FaceData:
    """I_a, I(a) and I^a for a lattice degree a: I_a from the lattice table,
    I(a) by the sole-reacher rule; DegreeNotInLattice for any other degree."""
    a = deg.as_degree(tuple(a), phi.n)
    i_a = phi.lattice_columns.get(a)
    if i_a is None:
        raise DegreeNotInLattice(f"no face has degree {a}")
    src = phi.source_degrees
    reach = [[j for j in i_a if src[j - 1][k] == c] for k, c in enumerate(a)]
    i_of_a = frozenset(r[0] for r in reach if len(r) == 1)
    return FaceData(a, i_a, i_of_a, i_a - i_of_a)
