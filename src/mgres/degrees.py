"""Multidegrees: points of N^n with the componentwise partial order.

A multidegree is a plain tuple of non-negative ints, the exponent vector of
a monomial.  ``sub`` returns a signed tuple, the difference of two
multidegrees.
"""

from __future__ import annotations

from operator import le
from typing import Iterable, Sequence

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


def join_closure(degrees: Iterable[Sequence[int]]) -> set[Multidegree]:
    """All joins of nonempty subsets of the given degrees.

    Grown one atom at a time, in order of total degree: an atom a adds a
    and its join with every element so far.  An atom already in the
    closure is the join of atoms before it (smaller ones, so they come
    first) and adds nothing, so only the join-irreducible atoms do any
    work.  Raises ClosureTooLarge once the closure passes
    MAX_CLOSURE_ELEMENTS, checked before each atom, so the set never grows
    past twice that.
    """
    atoms = [tuple(d) for d in degrees]
    for d in atoms:
        _same_length(atoms[0], d)
    closure: set[Multidegree] = set()
    for a in sorted(set(atoms), key=lambda d: (sum(d), d)):
        if a in closure:
            continue
        if len(closure) > MAX_CLOSURE_ELEMENTS:
            break
        closure |= {tuple(map(max, a, c)) for c in closure}
        closure.add(a)
    if len(closure) > MAX_CLOSURE_ELEMENTS:
        raise ClosureTooLarge(f"join closure over {MAX_CLOSURE_ELEMENTS} degrees")
    return closure
