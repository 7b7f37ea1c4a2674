"""The LCM-lattice of a morphism and its Scarf combinatorics.

The lattice consists of all joins of nonempty subsets of the source
degrees.  It is one table per morphism, ``phi.degree_index.lattice()``:
each element a of the join closure with the bitmask of I_a (the columns of
degree at most a), walked once under the closure budget by the index of
the source degrees and read by ``lcm_lattice``, ``face_data`` (a lookup),
``Morphism.is_maximal_rank_everywhere`` and
``relabel.check_join_preserving``.  A face (nonempty set of columns) is a
Scarf face when no other face realizes its degree.  The face data of a
records I_a, I(a) and I^a = I_a - I(a).

Every face of degree a lies in I_a and reaches a in every coordinate, so a
column lies in I(a) exactly when it is the sole column of I_a reaching a in
some coordinate (``DegreeIndex.sole_reachers``), and a degree is in the
closure exactly when it is realized (I_a then reaches every coordinate of
a, whose join it is).  If I(a) = I_a, then I_a is the only face of degree
a: a is Scarf, with Scarf face I_a.  Otherwise I_a and I_a minus a column
outside I(a) are two faces of degree a.  This costs O(|L| n log e) mask
operations, not 2^e subsets.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable

from . import degrees as deg
from .degrees import Multidegree
from .errors import DegreeNotInLattice
from .morphism import Morphism

Face = tuple[int, ...]


class FaceData(namedtuple("FaceData", "degree i_a i_of_a i_upper_a")):
    """A lattice degree a with frozensets of columns: i_a (all columns of
    degree <= a), i_of_a (the intersection of all faces of degree a) and
    i_upper_a (i_a minus i_of_a)."""

    __slots__ = ()


class LcmLattice(namedtuple(
        "LcmLattice", "elements scarf_part nonscarf_part scarf_faces nonscarf_data")):
    """Frozensets of degrees (elements, scarf_part, nonscarf_part) and of
    faces (scarf_faces), and the FaceData of nonscarf_part as a tuple, by
    degree."""

    __slots__ = ()


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
    table, sole = phi.degree_index.lattice(), phi.degree_index.sole_reachers
    elements = frozenset(table)
    scarf, other = {}, []
    for a, cols in table.items():
        if (s := sole(a, cols)) == cols:
            scarf[a] = tuple(sorted(phi.columns(cols)))
        else:
            other.append(FaceData(a, phi.columns(cols), phi.columns(s), phi.columns(cols & ~s)))
    part, faces = frozenset(scarf), frozenset(scarf.values())
    return LcmLattice(elements, part, elements - part, faces, tuple(other))


def face_data(phi: Morphism, a: Iterable[int]) -> FaceData:
    """I_a, I(a) and I^a for a lattice degree a: I_a from the lattice table,
    I(a) by the sole-reacher rule; DegreeNotInLattice for any other degree."""
    a = deg.as_degree(tuple(a), phi.n)
    cols = phi.degree_index.lattice().get(a)
    if cols is None:
        raise DegreeNotInLattice(f"no face has degree {a}")
    sole = phi.degree_index.sole_reachers(a, cols)
    return FaceData(a, phi.columns(cols), phi.columns(sole), phi.columns(cols & ~sole))
