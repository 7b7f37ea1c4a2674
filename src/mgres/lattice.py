"""The LCM-lattice of a morphism and its Scarf combinatorics.

The lattice consists of all joins of nonempty subsets of the source
degrees.  A face (nonempty set of column indices) is a Scarf face when no
other face realizes its degree; the lattice splits accordingly into the
degrees of Scarf faces and the rest.  For a lattice degree ``a`` the face
data records I_a (all columns of degree at most a), the intersection I(a)
of all faces of degree a, and the difference set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import degrees as deg
from .degrees import Multidegree
from .errors import DegreeNotInLattice, TooManyColumns
from .morphism import Morphism

# Exhaustive subset enumeration is fine at desk scale; refuse beyond this.
MAX_ENUM_COLUMNS = 20

Face = tuple[int, ...]


@dataclass(frozen=True)
class LcmLattice:
    atoms: tuple[Multidegree, ...]
    elements: frozenset[Multidegree]
    scarf_part: frozenset[Multidegree]
    nonscarf_part: frozenset[Multidegree]
    scarf_faces: frozenset[Face]


@dataclass(frozen=True)
class FaceData:
    degree: Multidegree
    i_a: frozenset[int]        # all columns of degree <= a
    i_of_a: frozenset[int]     # intersection of all faces of degree a
    i_upper_a: frozenset[int]  # i_a minus i_of_a


def ensure_enumerable(e: int, max_columns: int = MAX_ENUM_COLUMNS) -> None:
    """Refuse subset enumeration past the configured column cap."""
    if e > max_columns:
        raise TooManyColumns(
            f"{e} columns would need {2**e - 1} subsets; raise max_columns to force"
        )


def faces_by_degree(
    phi: Morphism, max_columns: int = MAX_ENUM_COLUMNS
) -> dict[Multidegree, list[Face]]:
    """All nonempty faces grouped by their multidegree."""
    e = phi.e
    ensure_enumerable(e, max_columns)
    atoms = phi.source_degrees
    joins: list[Multidegree | None] = [None] * (1 << e)
    by_degree: dict[Multidegree, list[Face]] = {}
    for mask in range(1, 1 << e):
        low = mask & -mask
        rest = mask ^ low
        atom = atoms[low.bit_length() - 1]
        joins[mask] = atom if rest == 0 else deg.join(joins[rest], atom)
        face = tuple(i + 1 for i in range(e) if mask >> i & 1)
        by_degree.setdefault(joins[mask], []).append(face)
    return by_degree


def scarf_faces(phi: Morphism, max_columns: int = MAX_ENUM_COLUMNS) -> frozenset[Face]:
    """Faces whose multidegree is achieved by no other face."""
    return lcm_lattice(phi, max_columns).scarf_faces


def lcm_lattice(phi: Morphism, max_columns: int = MAX_ENUM_COLUMNS) -> LcmLattice:
    """The set of face degrees, partitioned into Scarf and non-Scarf parts,
    and the Scarf faces, from one enumeration of the faces."""
    by_degree = faces_by_degree(phi, max_columns)
    elements = frozenset(by_degree)
    scarf = frozenset(a for a, faces in by_degree.items() if len(faces) == 1)
    faces = frozenset(f[0] for f in by_degree.values() if len(f) == 1)
    return LcmLattice(phi.source_degrees, elements, scarf, elements - scarf, faces)


def face_data(phi: Morphism, a: Iterable[int]) -> FaceData:
    """I_a, I(a) and I^a for a lattice degree a.

    Only defined for degrees realized by some face; the intersection over
    an empty family of faces has no sensible value otherwise.  Membership
    of a column i in I(a) is decided without enumerating faces: some face
    of degree a avoids i exactly when I_a minus i still has degree a.
    """
    a = deg.as_degree(tuple(a), phi.n)
    i_a = sorted(phi.columns_leq(a))
    if not i_a or phi.face_degree(i_a) != a:
        raise DegreeNotInLattice(f"no face has degree {a}")
    i_of_a = []
    for i in i_a:
        others = [j for j in i_a if j != i]
        if not others or phi.face_degree(others) != a:
            i_of_a.append(i)
    return FaceData(a, frozenset(i_a), frozenset(i_of_a), frozenset(i_a) - frozenset(i_of_a))
