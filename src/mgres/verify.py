"""Verification of graded complexes: strands, exactness, minimality.

A multigraded complex is exact exactly when every multidegree strand (the
subcomplex of generators of degree at most a, with the scalar entries) has
vanishing homology in positions 1 and up.  Strand shapes depend only on
which generators survive the degree cut, and any cut is reproduced at the
join of the degrees it keeps, so testing the join-closure of all generator
degrees covers every multidegree.

Minimality means no nonzero entry has zero shift.  ``minimize`` removes
them by unit-entry cancellation, an independent route to the minimal
resolution that never consults the face system machinery.  On a homogeneous
complex each cancellation is a degree-preserving change of basis that splits
off a trivial complex k(-a) -> k(-a), exact in every strand, so
``is_resolution`` takes its strand ranks on the much smaller minimized complex.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from . import degrees as deg
from .degrees import Multidegree
from .errors import NotAComplex
from .multilinear import VectorComplex
from .systems import GradedComplex


@dataclass(frozen=True)
class ExactnessReport:
    is_complex: bool
    tested_degrees: tuple[Multidegree, ...]
    failures: tuple[tuple[Multidegree, int, int], ...]
    minimal: bool

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


def strand(x: GradedComplex, a: Iterable[int]) -> VectorComplex:
    """The degree-a component: generators of degree at most a, scalar maps."""
    a = tuple(a)
    keep = []
    for level in x.levels:
        inside = {d: deg.leq(d, a) for d in set(level)}
        keep.append([i for i, d in enumerate(level) if inside[d]])
    dims = tuple(len(k) for k in keep)
    diffs = tuple(
        x.diffs[i].submatrix(keep[i], keep[i + 1]) for i in range(len(x.diffs))
    )
    return VectorComplex(dims, diffs)


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

    x must be homogeneous.  Cancelling a unit u = d[p, q] of degree a is a
    change of basis: each c with d[p, c] != 0 (so deg c >= a) becomes
    c - d[p, c] u^-1 q, and p becomes d(q), a sum of generators of degree
    <= a.  So each strand stays spanned by basis vectors, splits off k -> k
    where it holds p and q, and x and ``minimize(x)`` have the same
    homology in every strand and at every position.
    """
    minimal = is_minimal(x)
    if not check_d2(x):
        return ExactnessReport(False, (), (), minimal)
    degrees = strand_degrees(x)
    y = x if minimal else minimize(x)
    failures = []
    for a in degrees:
        h = homology_dims(strand(y, a), check=False)
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
    No earlier differential gains a unit, and in a homogeneous complex a
    pivot of degree a changes a zero-shift entry (r, c) only when d[r, q]
    already was one (deg r = deg c = a), so no row already passed gains a
    unit.  One pass over the rows of d_0, d_1, ..., each pivoting at its
    first zero-shift nonzero column, thus makes the cancellations of
    restarting after each.  ``minimize`` chooses the pivots by degree;
    ``Matrix.cancel`` does the arithmetic.
    """
    levels = x.levels
    cut, keep = [], []  # per differential, its surviving rows and their indices
    dead = set()  # generators of the current level cancelled as columns
    for d, src, dst in zip(x.diffs, levels, levels[1:]):

        def pivot(p, cols):
            a = src[p]
            return min((q for q in cols if dst[q] == a), default=None)

        rows = [p for p in range(d.rows) if p not in dead]
        m, pairs = d.cancel(rows, pivot)
        gone = {p for p, _ in pairs}
        cut.append(m)
        keep.append([p for p in rows if p not in gone])
        dead = {q for _, q in pairs}
    keep += [[q for q in range(len(level)) if q not in dead] for level in levels[-1:]]
    while len(keep) > 1 and not keep[-1]:
        keep.pop()
    # a row may still be nonzero at a generator cancelled as a pivot row of
    # the next differential; that column is split off, not kept
    diffs = [m.submatrix(range(m.rows), qs) for m, qs in zip(cut, keep[1:])]
    degrees = [[levels[i][j] for j in js] for i, js in enumerate(keep)]
    labels = [[x.labels[i][j] for j in js] for i, js in enumerate(keep)]
    return GradedComplex(x.field, x.n, degrees, diffs, labels, var_names=x.var_names)


def graded_ranks(x: GradedComplex) -> list[Counter[Multidegree]]:
    """Per level, the multiset of generator degrees (degree -> multiplicity)."""
    return [Counter(level) for level in x.levels]
