"""Multidegrees: points of N^n with the componentwise partial order.

A multidegree is a plain tuple of non-negative ints, the exponent vector of
a monomial.  Differences of multidegrees (signed tuples) appear when testing
combinatorial genericity, so ``support`` accepts those too.  Coordinate
indices reported by ``support`` are 1-based, matching the usual display of
variables x_1, ..., x_n.
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


def support(a: Sequence[int]) -> frozenset[int]:
    """1-based indices of the nonzero coordinates."""
    return frozenset(i + 1 for i, c in enumerate(a) if c != 0)


def join_closure(degrees: Iterable[Sequence[int]]) -> set[Multidegree]:
    """All joins of nonempty subsets of the given degrees.

    Computed as the fixpoint of joining against the atoms; associativity of
    join makes this equal to the full subset-join closure.  Raises
    ClosureTooLarge as soon as the closure passes MAX_CLOSURE_ELEMENTS.
    """
    atoms = [tuple(d) for d in degrees]
    closure = set(atoms)
    frontier = list(closure)
    while frontier:
        fresh = []
        for a in frontier:
            if len(closure) > MAX_CLOSURE_ELEMENTS:
                raise ClosureTooLarge(f"join closure over {MAX_CLOSURE_ELEMENTS} degrees")
            for b in atoms:
                j = join(a, b)
                if j not in closure:
                    closure.add(j)
                    fresh.append(j)
        frontier = fresh
    return closure
