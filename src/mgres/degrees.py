"""Multidegrees: points of N^n with the componentwise partial order.

A multidegree is a plain tuple of non-negative ints, the exponent vector of
a monomial.  ``sub`` returns a signed tuple, the difference of two
multidegrees.  A ``DegreeIndex`` cuts the degrees below a as one int
bitmask, which ``bits`` decodes, and walks their join closure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from operator import le

from .errors import ClosureTooLarge, DimensionError

# Budget on the join closure: the lattice, strand and maximal-rank checks all
# walk it, and 2^20 is as many subsets as a 20-column enumeration could give.
MAX_CLOSURE_ELEMENTS = 2**20

Multidegree = tuple[int, ...]


def as_degree(coords: Sequence[int], n: int | None = None) -> Multidegree:
    """Validate and freeze a multidegree (non-negative integer coordinates)."""
    deg = tuple(coords)
    if n is not None and len(deg) != n:
        raise DimensionError(f"degree {deg} does not have {n} coordinates")
    for c in deg:
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise DimensionError(f"degree {deg} has a non-natural coordinate {c!r}")
    return deg


def _same_length(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise DimensionError(f"degree length mismatch: {tuple(a)} vs {tuple(b)}")


def leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise a <= b."""
    _same_length(a, b)
    return all(map(le, a, b))


def join(a: Sequence[int], b: Sequence[int]) -> Multidegree:
    """Componentwise maximum (the lcm of the two monomials)."""
    _same_length(a, b)
    return tuple(map(max, a, b))


def join_all(degrees: Iterable[Sequence[int]]) -> Multidegree:
    """Join of a nonempty family of multidegrees, in one pass."""
    ds = list(degrees)
    if not ds:
        raise ValueError("join of an empty family is undefined")
    for d in ds:
        _same_length(ds[0], d)
    return tuple(map(max, zip(*ds)))


def sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Componentwise difference, a signed tuple."""
    _same_length(a, b)
    return tuple(x - y for x, y in zip(a, b))


class DegreeIndex:
    """Bitmask index of a list of degrees, bit j standing for degrees[j].

    Per coordinate k it keeps the sorted distinct k-th values and, after a
    leading 0, the mask of the degrees whose k-th coordinate is at most each
    one.  Its ``lattice`` is the join closure of the degrees with each
    element's cut, kept per cap.  The degrees must have one length; a
    queried degree must have it too (nothing checks)."""

    def __init__(self, degrees: Sequence[Sequence[int]]):
        self.degrees = degrees = tuple(map(tuple, degrees))
        for d in degrees:
            _same_length(degrees[0], d)
        self.all = (1 << len(degrees)) - 1
        self.values, self.masks, self._tables = [], [], {}  # _tables: lattice per cap
        for k in range(len(degrees[0]) if degrees else 0):
            at: dict[int, int] = {}
            for j, d in enumerate(degrees):
                at[d[k]] = at.get(d[k], 0) | 1 << j
            values, masks, acc = sorted(at), [0], 0
            for v in values:
                acc |= at[v]
                masks.append(acc)
            self.values.append(values)
            self.masks.append(masks)

    def leq(self, a: Sequence[int]) -> int:
        """The mask of the degrees componentwise at most a."""
        mask = self.all
        for values, masks, c in zip(self.values, self.masks, a):
            mask &= masks[bisect_right(values, c)]
        return mask

    def sole_reachers(self, a: Sequence[int], cols: int) -> int:
        """The degrees of cols (a mask of degrees at most a) that are the only
        one of cols reaching a in some coordinate: I(a) when cols is I_a."""
        sole = 0
        for values, masks, c in zip(self.values, self.masks, a):
            reach = cols & ~masks[bisect_left(values, c)]
            if reach & (reach - 1) == 0:
                sole |= reach
        return sole

    def lattice(self, cap: int | None = None) -> dict[Multidegree, int]:
        """The join closure of the degrees in sorted order, each element a
        mapped to its cut; under a cap below the number of degrees, only the
        a whose cut has at most cap bits.  Walked once per cap, and kept.

        The walk adds the atoms in order of total degree, each with its join
        with every element so far; an atom already in the closure is a join
        of smaller atoms and adds nothing.  Under a cap each degree is cut
        once, when found, and dropped past the cap: every join of atoms below
        a kept b has no more atoms below it, so the walk still reaches it.
        Uncapped, the walk keeps a set and cuts each element in the sorted
        pass.  ClosureTooLarge once the closure passes MAX_CLOSURE_ELEMENTS,
        checked before each atom, so it never grows past twice that."""
        e = len(self.degrees)
        cap = e if cap is None else min(cap, e)
        if cap in self._tables:
            return self._tables[cap]
        leq, cuts, closure = self.leq, {}, set()  # cuts: every degree cut under the cap

        def within(b):  # b's cut, taken once, has at most cap bits
            cut = cuts[b] = cuts[b] if b in cuts else leq(b)
            return cut.bit_count() <= cap

        for a in sorted(set(self.degrees), key=lambda d: (sum(d), d)):
            if a in closure or cap < e and not within(a):
                continue
            if len(closure) > MAX_CLOSURE_ELEMENTS:
                break
            joins = {tuple(map(max, a, c)) for c in closure}
            closure |= {b for b in joins - closure if within(b)} if cap < e else joins
            closure.add(a)
        if len(closure) > MAX_CLOSURE_ELEMENTS:
            raise ClosureTooLarge(f"join closure over {MAX_CLOSURE_ELEMENTS} degrees")
        table = {a: cuts[a] if cap < e else leq(a) for a in sorted(closure)}
        return self._tables.setdefault(cap, table)


def bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def join_closure(degrees: Iterable[Sequence[int]]) -> set[Multidegree]:
    """All joins of nonempty subsets of the degrees: a fresh index's lattice."""
    return set(DegreeIndex(list(degrees)).lattice())
