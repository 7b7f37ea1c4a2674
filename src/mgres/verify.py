"""Verification of graded complexes: strands, exactness, minimality.

A multigraded complex is exact exactly when every multidegree strand (the
subcomplex of generators of degree at most a, with the scalar entries) has
vanishing homology in positions 1 and up.  Strand shapes depend only on
which generators survive the degree cut, and any cut is reproduced at the
join of the degrees it keeps, so testing the join-closure of all generator
degrees covers every multidegree.

Minimality means no nonzero entry has zero shift.  ``minimize`` removes
such entries one at a time by the usual unit-entry cancellation (split off
a trivial two-term summand and correct the adjacent differentials); it is
an independent route to the minimal resolution and never consults the face
system machinery.
"""

from __future__ import annotations

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
    keep = [
        [i for i, gen in enumerate(level) if deg.leq(gen.degree, a)]
        for level in x.levels
    ]
    dims = tuple(len(k) for k in keep)
    diffs = tuple(
        x.diffs[i].submatrix(keep[i], keep[i + 1]) for i in range(len(x.diffs))
    )
    return VectorComplex(dims, diffs)


def homology_dims(vc: VectorComplex, check: bool = True) -> tuple[int, ...]:
    """Homology dimension at each position, by exact ranks."""
    if check and not vc.composes_to_zero():
        raise NotAComplex("consecutive differentials do not compose to zero")
    n = len(vc.dims)
    if n == 0:
        return ()
    ranks = [d.rank() for d in vc.diffs]
    out = []
    for i in range(n):
        kernel = vc.dims[i] - (ranks[i - 1] if i >= 1 else 0)
        image = ranks[i] if i < len(ranks) else 0
        out.append(kernel - image)
    return tuple(out)


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
    """Strandwise exactness report over the join-closure of generator degrees."""
    minimal = is_minimal(x)
    if not check_d2(x):
        return ExactnessReport(False, (), (), minimal)
    degrees = strand_degrees(x)
    failures = []
    for a in degrees:
        h = homology_dims(strand(x, a), check=False)
        for i in range(1, len(h)):
            if h[i] != 0:
                failures.append((a, i, h[i]))
    return ExactnessReport(True, tuple(degrees), tuple(failures), minimal)


def is_minimal(x: GradedComplex) -> bool:
    """No nonzero entry sits between generators of equal degree."""
    return _find_unit(x.levels, [d.data for d in x.diffs], x.field.zero, last=False) is None


def _find_unit(levels, diffs, zero, last: bool):
    """The first (or last) nonzero entry with zero shift, as
    (differential index, row, column), or None."""
    hits = []
    for di, rows in enumerate(diffs):
        for p, row in enumerate(rows):
            for q, v in enumerate(row):
                if v != zero and levels[di + 1][q].degree == levels[di][p].degree:
                    if not last:
                        return (di, p, q)
                    hits.append((di, p, q))
    return hits[-1] if hits else None


def minimize(x: GradedComplex, pivot_order: str = "first") -> GradedComplex:
    """Cancel zero-shift unit entries until the complex is minimal.

    Cancelling entry (p, q) of d splits off the trivial summand spanned by
    generator q upstairs and d(q) downstairs; the remaining entries pick up
    the usual correction -d[p', q] * u^{-1} * d[p, q'], the next
    differential loses row q, and the previous one loses column p.  Graded
    rank multisets of the result do not depend on the cancellation order.
    """
    field = x.field
    zero = field.zero
    one = field.one
    levels = [list(level) for level in x.levels]
    diffs = [[list(row) for row in d.data] for d in x.diffs]
    while True:
        hit = _find_unit(levels, diffs, zero, last=(pivot_order == "last"))
        if hit is None:
            break
        di, p, q = hit
        u = diffs[di][p][q]
        uinv = one / u
        rows = diffs[di]
        colq = [rows[pp][q] for pp in range(len(rows))]
        rowp = rows[p]
        diffs[di] = [
            [
                rows[pp][qq] - colq[pp] * uinv * rowp[qq]
                for qq in range(len(rowp))
                if qq != q
            ]
            for pp in range(len(rows))
            if pp != p
        ]
        if di + 1 < len(diffs):
            del diffs[di + 1][q]
        if di >= 1:
            for row in diffs[di - 1]:
                del row[p]
        del levels[di + 1][q]
        del levels[di][p]
    while len(levels) > 1 and not levels[-1]:
        levels.pop()
        diffs.pop()
    return GradedComplex(
        field,
        x.n,
        levels,
        [
            Matrix(field, len(levels[i]), len(levels[i + 1]), diffs[i])
            for i in range(len(diffs))
        ],
        var_names=x.var_names,
    )


def graded_ranks(x: GradedComplex) -> list[dict[Multidegree, int]]:
    """Per level, the multiset of generator degrees (degree -> multiplicity)."""
    out = []
    for level in x.levels:
        counts: dict[Multidegree, int] = {}
        for gen in level:
            counts[gen.degree] = counts.get(gen.degree, 0) + 1
        out.append(counts)
    return out
