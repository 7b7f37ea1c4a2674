"""Verification of graded complexes: strands, exactness, minimality.

A multigraded complex is exact exactly when every multidegree strand (the
subcomplex of generators of degree at most a, with the scalar entries) has
vanishing homology in positions 1 and up.  Strand shapes depend only on
which generators survive the degree cut, and any cut is reproduced at the
join of the degrees it keeps, so testing the join-closure of all generator
degrees covers every multidegree.  Each cut is one ``DegreeIndex.leq`` per
level, on one bitmask index of each level's generator degrees, and each
distinct cut's homology is taken once.  d^2 = 0 is a zero test on int sums
(``Matrix.mul_is_zero``) that builds no product.

Minimality means no nonzero entry has zero shift.  ``minimize`` removes
them by unit-entry cancellation, an independent route to the minimal
resolution that never consults the face system machinery, run on linalg's
one left-looking elimination.  Every complex is homogeneous, so each
cancellation is a degree-preserving change of basis that splits off a
trivial complex k(-a) -> k(-a), exact in every strand, and
``is_resolution`` takes its strand ranks on the smaller minimized complex.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable

from . import degrees as deg
from .degrees import Multidegree
from .errors import DimensionError, NotAComplex
from .multilinear import VectorComplex
from .systems import GradedComplex, _Homogeneous


class ExactnessReport(namedtuple(
        "ExactnessReport", "is_complex tested_degrees failures minimal")):
    """The bools is_complex and minimal, the tuple of tested degrees and the
    tuple of failures, each (degree, position, homology dimension)."""

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return self.is_complex and not self.failures

    def to_dict(self) -> dict:
        return {
            "is_complex": self.is_complex,
            "exact": self.exact,
            "minimal": self.minimal,
            "tested_degrees": [list(a) for a in self.tested_degrees],
            "failures": [
                {"degree": list(a), "position": i, "homology_dim": h}
                for (a, i, h) in self.failures
            ],
        }


def check_d2(x: GradedComplex) -> bool:
    """All consecutive scalar differentials compose to zero.

    Shifts compose additively and every entry's monomial is forced by the
    endpoint degrees, so vanishing of the scalar products is equivalent to
    vanishing of the module maps.
    """
    return VectorComplex(x.ranks(), x.diffs).composes_to_zero()


def strand(x: GradedComplex, a: Iterable[int], indexes=None) -> VectorComplex:
    """The degree-a component: generators of degree at most a, scalar maps.

    Per level of x, indexes holds its DegreeIndex, whose ``leq`` cuts it,
    or that mask already cut; ``level_indexes`` builds them when not given."""
    a = tuple(a)
    if len(a) != x.n:
        raise DimensionError(f"degree {a} does not have {x.n} coordinates")
    keep = [deg.bits(index if isinstance(index, int) else index.leq(a))
            for index in indexes or level_indexes(x)]
    dims = tuple(len(k) for k in keep)
    diffs = tuple(
        x.diffs[i].submatrix(keep[i], keep[i + 1]) for i in range(len(x.diffs))
    )
    return VectorComplex(dims, diffs)


def level_indexes(x: GradedComplex) -> list[deg.DegreeIndex]:
    """One bitmask index of the generator degrees per level of x."""
    return [deg.DegreeIndex(level) for level in x.levels]


def homology_dims(vc: VectorComplex, check: bool = True) -> tuple[int, ...]:
    """Homology dimension at each position, by exact ranks."""
    if check and not vc.composes_to_zero():
        raise NotAComplex("consecutive differentials do not compose to zero")
    # position i: kernel dims[i] - rank d_{i-1}, image rank d_i (0 past either end)
    ranks = [0, *(d.rank() for d in vc.diffs), 0]
    return tuple(dim - ranks[i] - ranks[i + 1] for i, dim in enumerate(vc.dims))


def is_exact(vc: VectorComplex) -> bool:
    """Homology vanishes in positions 1 and up."""
    return all(h == 0 for h in homology_dims(vc)[1:])


def is_split_exact(vc: VectorComplex) -> bool:
    """Homology vanishes everywhere, position 0 included."""
    return all(h == 0 for h in homology_dims(vc))


def strand_degrees(x: GradedComplex) -> list[Multidegree]:
    """The degrees whose strands decide exactness: the join-closure of all
    generator degrees, sorted.  Any other degree cuts out the same strand as
    the join of the generator degrees it dominates."""
    return sorted(deg.join_closure(set().union(*x.levels)))


def is_resolution(x: GradedComplex) -> ExactnessReport:
    """Strandwise exactness report over the join-closure of generator degrees.

    Cancelling a unit u = d[p, q] of degree a is a change of basis: each c
    with d[p, c] != 0 (so deg c >= a) becomes c - d[p, c] u^-1 q, and p
    becomes d(q), a sum of generators of degree <= a.  So each strand stays
    spanned by basis vectors, splits off k -> k where it holds p and q, and
    x and ``minimize(x)`` have the same homology in every strand and at
    every position.  Degrees that cut the same generators of y share one
    strand, so its homology is taken once per distinct tuple of
    ``DegreeIndex.leq`` masks, and its strand is cut from those masks, not
    cut again.
    """
    minimal = is_minimal(x)
    if not check_d2(x):
        return ExactnessReport(False, (), (), minimal)
    degrees = strand_degrees(x)
    y = x if minimal else minimize(x)
    indexes, failures, cuts = level_indexes(y), [], {}
    for a in degrees:
        cut = tuple(index.leq(a) for index in indexes)
        if (h := cuts.get(cut)) is None:
            h = cuts[cut] = homology_dims(strand(y, a, cut), check=False)
        failures += [(a, i, dim) for i, dim in enumerate(h) if i and dim]
    return ExactnessReport(True, tuple(degrees), tuple(failures), minimal)


def is_minimal(x: GradedComplex) -> bool:
    """No nonzero entry sits between generators of equal degree."""
    return not any(
        dst[q] == src[p]
        for d, src, dst in zip(x.diffs, x.levels, x.levels[1:])
        for p, cols in enumerate(d.supports())
        for q in cols
    )


def minimize(x: GradedComplex) -> GradedComplex:
    """Cancel zero-shift unit entries until the complex is minimal.

    Cancelling entry (p, q) of d_i splits off the trivial summand spanned by
    generator q upstairs and d(q) downstairs: the rest of d_i picks up
    -d[r, q] * u^{-1} * d[p, c], d_{i+1} loses row q and d_{i-1} column p.
    No earlier differential gains a unit, and as x is homogeneous a pivot
    of degree a changes a zero-shift entry (r, c) only when d[r, q]
    already was one (deg r = deg c = a), so no row already passed gains a
    unit.  One pass over the rows of d_0, d_1, ..., each pivoting at its
    first zero-shift nonzero column once cleared of every earlier pivot,
    thus makes the cancellations of restarting after each.  Such a pivot
    updates zero-shift entries only from its own, so the pass runs on the
    zero-shift part of each differential alone, as ``_echelon`` on its live
    rows in order (``Matrix.block_pivots`` by degree): each pivot row is
    zero before its own column, so a row cleared only at its leading
    columns stops at the same column.  Each d_i then keeps its non-pivot
    rows cleared at every pivot column (``Matrix.eliminate``): the one
    vector of row + span(pivot rows) zero there, as the cancellations leave
    it, on the columns it keeps, since the generators that d_{i+1} cancels
    as pivot rows are split off.  Changes of basis within degrees keep the
    result homogeneous.  A complex with no differential comes back as it is.
    """
    if not x.diffs:
        return x
    levels, taken = x.levels, []  # per differential, its pivots: column -> row
    ids = {a: k for k, a in enumerate(set().union(*levels))}
    keys = [[ids[a] for a in level] for level in levels]  # degrees as ints
    dead = {}  # generators of the current level cancelled as columns (keys)
    keep = []  # per level, the generators left
    for d, src, dst in zip(x.diffs, keys, keys[1:]):
        rows = [p for p in range(d.rows) if p not in dead]
        taken.append(d.block_pivots(rows, src, dst))
        chosen = set(taken[-1].values())
        keep.append([p for p in rows if p not in chosen])
        dead = taken[-1]
    keep.append([q for q in range(len(levels[-1])) if q not in dead])
    while len(keep) > 1 and not keep[-1]:
        keep.pop()
    diffs = [d.eliminate(pivots, rows, cols)
             for d, pivots, rows, cols in zip(x.diffs, taken, keep, keep[1:])]
    degrees = [[levels[i][j] for j in js] for i, js in enumerate(keep)]
    labels = [[x.labels[i][j] for j in js] for i, js in enumerate(keep)]
    return _Homogeneous(x.field, x.n, degrees, diffs, labels, var_names=x.var_names)


def graded_ranks(x: GradedComplex) -> list[Counter[Multidegree]]:
    """Per level, the multiset of generator degrees (degree -> multiplicity)."""
    return [Counter(level) for level in x.levels]
