"""Partial order, join and support on multidegrees."""

import random

import pytest

from mgres import DimensionError, join, join_all, join_closure, leq, sub
from helpers import support


def test_leq_examples():
    assert leq((2, 1), (3, 2))
    assert leq((2, 1), (2, 1))
    assert not leq((3, 0), (2, 3))


def test_leq_dimension_mismatch():
    with pytest.raises(DimensionError):
        leq((1, 2), (1, 2, 3))


def test_join_examples():
    assert join((3, 0), (2, 1)) == (3, 1)
    assert join((1, 4), (1, 4)) == (1, 4)
    assert join_all([(2, 1), (1, 2), (0, 3)]) == (2, 3)


def test_join_empty_family_rejected():
    with pytest.raises(ValueError):
        join_all([])


def test_join_all_dimension_mismatch():
    for family in ([(1, 2), (1, 2, 3)], [(1, 2, 3), (1, 2)], [(1, 2), (0, 1), (3,)]):
        with pytest.raises(DimensionError):
            join_all(family)


def test_join_all_matches_pairwise_joins():
    rng = random.Random(13)
    assert join_all([(4, 0, 2)]) == (4, 0, 2)
    assert join_all(iter([(), ()])) == ()
    for _ in range(200):
        n = rng.randint(1, 4)
        family = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        want = family[0]
        for d in family[1:]:
            want = join(want, d)
        assert join_all(iter(family)) == want


def test_support():
    assert support((1, 0, 2)) == {1, 3}
    assert support(sub((3, 0), (2, 1))) == {1, 2}
    assert support((0, 0, 0)) == frozenset()


def test_partial_order_and_join_laws():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = tuple(rng.randint(0, 4) for _ in range(n))
        b = tuple(rng.randint(0, 4) for _ in range(n))
        c = tuple(rng.randint(0, 4) for _ in range(n))
        assert join(a, b) == join(b, a)
        assert join(a, join(b, c)) == join(join(a, b), c)
        assert join(a, a) == a
        assert leq(a, join(a, b)) and leq(b, join(a, b))
        # least upper bound: anything above both dominates the join
        if leq(a, c) and leq(b, c):
            assert leq(join(a, b), c)
        # antisymmetry and transitivity spot checks
        if leq(a, b) and leq(b, a):
            assert a == b
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_join_closure_contains_all_subset_joins():
    import itertools

    rng = random.Random(3)
    atoms = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(5)]
    closure = join_closure(atoms)
    for k in range(1, len(atoms) + 1):
        for subset in itertools.combinations(atoms, k):
            assert join_all(subset) in closure
    assert all(any(leq(atom, x) for atom in atoms) for x in closure)
