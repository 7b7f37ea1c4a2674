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
from .linalg import Matrix


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
        inside = {d: deg.leq(d, a) for d in {gen.degree for gen in level}}
        keep.append([i for i, gen in enumerate(level) if inside[gen.degree]])
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
    return sorted(deg.join_closure(x.all_degrees()))


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
        x.levels[i + 1][q].degree == x.levels[i][p].degree
        for i, d in enumerate(x.diffs)
        for p, row in enumerate(d.nonzero_rows())
        for q in row
    )


def minimize(x: GradedComplex) -> GradedComplex:
    """Cancel zero-shift unit entries until the complex is minimal.

    Cancelling entry (p, q) of d_i splits off the trivial summand spanned by
    generator q upstairs and d(q) downstairs: the rest of d_i picks up
    -d[r, q] * u^{-1} * d[p, c], d_{i+1} loses row q and d_{i-1} column p.
    No earlier differential gains a unit, and in a homogeneous complex a
    pivot of degree a changes a zero-shift entry (r, c) only when d[r, q]
    already was one (deg r = deg c = a), so no row already passed gains a
    unit.  One pass over the sparse rows of d_0, d_1, ..., each pivoting at
    its first zero-shift nonzero column and updating only the rows nonzero
    in that column, thus makes the cancellations of restarting after each.
    """
    field, zero, levels = x.field, x.field.zero, x.levels
    sparse = []  # per differential, its surviving rows
    dead = set()  # generators of the current level cancelled as columns
    for i, d in enumerate(x.diffs):
        rows, cols = {}, [set() for _ in levels[i + 1]]
        for p, row in enumerate(d.nonzero_rows()):
            if p not in dead:
                rows[p] = row
                for q in row:
                    cols[q].add(p)
        dead = set()
        for p in list(rows):
            a = levels[i][p].degree
            q = min((q for q in rows[p] if levels[i + 1][q].degree == a), default=None)
            if q is None:
                continue
            pivot = rows.pop(p)
            for c in pivot:
                cols[c].discard(p)
            u_inv = field.one / pivot.pop(q)
            for r in cols[q]:
                target = rows[r]
                f = target.pop(q) * u_inv
                for c, v in pivot.items():
                    w = target.get(c, zero) - f * v
                    if w:
                        target[c] = w
                        cols[c].add(r)
                    else:
                        del target[c]
                        cols[c].discard(r)
            dead.add(q)
        sparse.append(rows)
    keep = [list(rows) for rows in sparse]
    keep += [[q for q in range(len(level)) if q not in dead] for level in levels[-1:]]
    while len(keep) > 1 and not keep[-1]:
        keep.pop()
    diffs = []
    for i, (ps, qs) in enumerate(zip(keep, keep[1:])):
        # a row may still be nonzero at a generator cancelled as a pivot row
        # of the next differential; that column is split off, not kept
        new_col = {q: c for c, q in enumerate(qs)}
        rows = [{new_col[q]: v for q, v in sparse[i][p].items() if q in new_col} for p in ps]
        diffs.append(Matrix.from_nonzero_rows(field, len(qs), rows))
    kept = [[levels[i][j] for j in js] for i, js in enumerate(keep)]
    return GradedComplex(field, x.n, kept, diffs, var_names=x.var_names)


def graded_ranks(x: GradedComplex) -> list[dict[Multidegree, int]]:
    """Per level, the multiset of generator degrees (degree -> multiplicity)."""
    return [dict(Counter(gen.degree for gen in level)) for level in x.levels]
