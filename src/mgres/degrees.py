"""Multidegrees: points of N^n with the componentwise partial order.

A multidegree is a plain tuple of non-negative ints, the exponent vector of
a monomial.  ``sub`` returns a signed tuple, the difference of two
multidegrees.  A ``DegreeIndex`` gives the degrees below a as one int
bitmask, which ``bits`` decodes.
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
    one.  A queried degree must have as many coordinates (nothing checks)."""

    def __init__(self, degrees: Sequence[Sequence[int]]):
        self.all = (1 << len(degrees)) - 1
        self.values, self.masks = [], []
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


def bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def join_closure(degrees: Iterable[Sequence[int]], cap: int | None = None) -> set[Multidegree]:
    """All joins of nonempty subsets of the given degrees; with a cap, only
    those with at most cap of the given degrees below them.

    Grown one atom at a time, in order of total degree: an atom a adds a
    and its join with every element so far.  An atom already in the
    closure is the join of atoms before it (smaller ones, so they come
    first) and adds nothing, so only the join-irreducible atoms do any
    work.  An atom or join past the cap is dropped as soon as it is found:
    every join of atoms below a kept b has no more atoms below it than b,
    so the capped walk still reaches each degree within the cap.  Raises
    ClosureTooLarge once the closure passes MAX_CLOSURE_ELEMENTS, checked
    before each atom, so the set never grows past twice that.
    """
    atoms = [tuple(d) for d in degrees]
    for d in atoms:
        _same_length(atoms[0], d)
    index = DegreeIndex(atoms) if cap is not None and cap < len(atoms) else None
    closure: set[Multidegree] = set()
    for a in sorted(set(atoms), key=lambda d: (sum(d), d)):
        if a in closure or index is not None and index.leq(a).bit_count() > cap:
            continue
        if len(closure) > MAX_CLOSURE_ELEMENTS:
            break
        joins = {tuple(map(max, a, c)) for c in closure}
        if index is not None:
            joins = {b for b in joins - closure if index.leq(b).bit_count() <= cap}
        closure |= joins
        closure.add(a)
    if len(closure) > MAX_CLOSURE_ELEMENTS:
        raise ClosureTooLarge(f"join closure over {MAX_CLOSURE_ELEMENTS} degrees")
    return closure
