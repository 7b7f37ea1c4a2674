"""Quasi-equivalence, lattice-map compatibility, and relabeled resolutions."""

import pytest

from mgres import (
    QQ,
    Generator,
    GradedComplex,
    Matrix,
    MissingKey,
    Morphism,
    NegativeShift,
    RankMismatch,
    RelabelMap,
    check_join_preserving,
    check_qe_compatible,
    check_quasi_equivalent,
    is_resolution,
    minimize,
    relabel,
    scarf_complex,
    taylor_complex,
)
from helpers import join_preserving_walk, uvw_example, wide_generic_morphism, xy_example

F_TABLE = [
    ((3, 0), (2, 1, 0)),
    ((2, 1), (1, 1, 1)),
    ((1, 2), (2, 0, 1)),
    ((0, 3), (1, 0, 2)),
    ((3, 2), (2, 1, 1)),
    ((3, 3), (2, 1, 2)),
    ((2, 3), (2, 1, 2)),
]


def _one_column():
    """A one-column morphism over k[x, y], to compare against four columns."""
    return Morphism(2, QQ, [(1, 0)], [(0, 0)], {(1, 1): QQ.one}).validate()


def test_quasi_equivalent_example_pair():
    assert check_quasi_equivalent(xy_example(), uvw_example())


def test_quasi_equivalent_reflexive():
    phi = xy_example()
    assert check_quasi_equivalent(phi, phi)


def test_quasi_equivalence_broken_by_scaling():
    phi = xy_example()
    entries = dict(phi.entries)
    entries[(1, 2)] = entries[(1, 2)] * QQ.of(2)
    entries[(2, 2)] = entries[(2, 2)] * QQ.of(2)
    scaled = Morphism(
        2, QQ, phi.source_degrees, phi.target_degrees, entries, var_names=("x", "y")
    ).validate()
    assert not check_quasi_equivalent(phi, scaled)


def test_quasi_equivalence_rank_mismatch():
    with pytest.raises(RankMismatch):
        check_quasi_equivalent(xy_example(), _one_column())


def test_qe_compatible_example():
    assert check_qe_compatible(RelabelMap(F_TABLE), xy_example(), uvw_example())


def test_qe_compatible_identity():
    phi = xy_example()
    ident = RelabelMap([(d, d) for d in phi.source_degrees])
    assert check_qe_compatible(ident, phi, phi)


def test_qe_compatible_wrong_image():
    table = [((3, 0), (0, 0, 0))] + F_TABLE[1:]
    assert not check_qe_compatible(RelabelMap(table), xy_example(), uvw_example())


def test_qe_compatible_missing_key():
    with pytest.raises(MissingKey) as err:
        check_qe_compatible(RelabelMap(F_TABLE[1:]), xy_example(), uvw_example())
    assert err.value.degree == (3, 0)


def test_join_preserving_example():
    ok, witness = check_join_preserving(RelabelMap(F_TABLE), xy_example(), uvw_example(), 3)
    assert ok and witness is None
    # spot check the size-3 join used by the table
    f = RelabelMap(F_TABLE)
    assert f.apply((2, 3)) == (2, 1, 2)


def test_join_preserving_violation():
    # the witness is the first failing lattice degree; the subset walk
    # finds (1, 2, 4), whose join is that degree
    table = [(k, v) for k, v in F_TABLE if k != (3, 3)] + [((3, 3), (2, 2, 2))]
    f, phi, phi2 = RelabelMap(table), xy_example(), uvw_example()
    assert check_join_preserving(f, phi, phi2, 3) == (False, (3, 3))
    assert join_preserving_walk(f, phi, phi2, 3) == (False, (1, 2, 4))
    assert phi.face_degree((1, 2, 4)) == (3, 3)


@pytest.mark.parametrize("min_size", [0, -1])
def test_join_preserving_min_size_below_one_answers_as_one(min_size):
    # the empty subset has no join, so sizes below 1 add nothing to check
    phi = xy_example()
    identity = RelabelMap({a: a for a in phi.lattice_columns})
    assert check_join_preserving(identity, phi, phi, min_size) == (True, None)
    assert join_preserving_walk(identity, phi, phi, min_size) == (True, None)
    f = RelabelMap({a: (a[0], a[1] + 1) if a == (3, 3) else a for a in phi.lattice_columns})
    assert check_join_preserving(f, phi, phi, min_size) == (False, (3, 3))
    assert join_preserving_walk(f, phi, phi, min_size) == join_preserving_walk(f, phi, phi, 1)


def test_join_preserving_has_no_column_cap():
    # the subset walk would take 2^24 subsets; the lattice table is small
    phi = wide_generic_morphism(24)
    identity = RelabelMap({a: a for a in phi.lattice_columns})
    assert check_join_preserving(identity, phi, phi, phi.coeff_data.r + 1) == (True, None)


@pytest.mark.parametrize("swap", [False, True], ids=["wide-narrow", "narrow-wide"])
def test_join_preserving_rank_mismatch(swap):
    phi, small = xy_example(), _one_column()
    f = RelabelMap({a: a for a in phi.lattice_columns} | {(1, 0): (1, 0)})
    pair = (small, phi) if swap else (phi, small)
    with pytest.raises(RankMismatch):
        check_join_preserving(f, *pair, 1)


def test_qe_compatible_rank_mismatch():
    f = RelabelMap({(1, 0): (1, 0)})
    with pytest.raises(RankMismatch):
        check_qe_compatible(f, xy_example(), _one_column())


def test_relabel_scarf_golden():
    phi, phi2 = xy_example(), uvw_example()
    s = scarf_complex(phi)
    out = relabel(RelabelMap(F_TABLE), s, phi2)
    assert out.level_degrees(2) == ((2, 1, 1), (2, 1, 2))
    assert out.level_degrees(1) == phi2.source_degrees
    assert out.diffs[1] == s.diffs[1]
    # forced monomials: column 1 is (w, -2u, v, 0), column 2 (0, -3uw, 2vw, uv)
    shifts = [[out.shift(1, row, col) for col in range(2)] for row in range(4)]
    assert shifts[0][0] == (0, 0, 1)
    assert shifts[1][0] == (1, 0, 0)
    assert shifts[2][0] == (0, 1, 0)
    assert shifts[1][1] == (1, 0, 1)
    assert shifts[2][1] == (0, 1, 1)
    assert shifts[3][1] == (1, 1, 0)
    assert out.is_homogeneous()


def test_relabel_identity_is_identity():
    phi = xy_example()
    s = scarf_complex(phi)
    ident = RelabelMap([(d, d) for d in {g.degree for lv in s.levels for g in lv}])
    assert relabel(ident, s, phi) == s


def test_relabeled_minimized_taylor_resolves_target():
    phi, phi2 = xy_example(), uvw_example()
    m = minimize(taylor_complex(phi))
    out = relabel(RelabelMap(F_TABLE), m, phi2)
    report = is_resolution(out)
    assert report.exact


def test_relabel_missing_generator_degree():
    phi, phi2 = xy_example(), uvw_example()
    s = scarf_complex(phi)
    partial = RelabelMap(F_TABLE[:4])  # column degrees only
    with pytest.raises(MissingKey):
        relabel(partial, s, phi2)


def test_relabel_negative_shift_detected():
    # collapse the level-2 degrees below a column degree: homogeneity breaks
    phi, phi2 = xy_example(), uvw_example()
    s = scarf_complex(phi)
    table = dict(F_TABLE)
    table[(3, 2)] = (0, 0, 0)
    with pytest.raises(NegativeShift):
        relabel(RelabelMap(table.items()), s, phi2)


def test_first_negative_shift_is_row_major_and_skips_zeros():
    # d_2 rows have degrees 1, 2; columns 0, 3, 0.  Entry (0, 0) is a zero
    # with a negative shift; (0, 2) comes first row-major, (1, 0) column-major.
    phi = Morphism(1, QQ, [(1,), (2,)], [(0,)], {(1, 1): QQ.one, (1, 2): QQ.one}).validate()
    degrees = [[(0,)], [(1,), (2,)], [(0,), (3,), (0,)]]
    levels = [[Generator(d, f"b{t}") for t, d in enumerate(level)] for level in degrees]
    d2 = Matrix.from_int_rows(QQ, [[0, 1, 5], [7, 1, 0]])
    x = GradedComplex(QQ, 1, levels, [phi.coeff_data.matrix, d2])
    assert x.homogeneity_violation() == (1, 0, 2)
    ident = RelabelMap([((t,), (t,)) for t in range(4)])
    with pytest.raises(NegativeShift) as exc:
        relabel(ident, x, phi)
    assert (exc.value.level, exc.value.row, exc.value.col, exc.value.shift) == (2, 1, 3, (-1,))


def test_relabel_collapsing_lattice_still_resolves():
    # map everything into one variable: all columns land in degree (3); the
    # relabeled minimal resolution stays a resolution but stops being minimal
    phi = xy_example()
    tgt = Morphism(
        1,
        QQ,
        [(3,), (3,), (3,), (3,)],
        [(0,), (1,)],
        dict(phi.entries),
        var_names=("t",),
    ).validate()
    assert check_quasi_equivalent(phi, tgt)
    assert tgt.is_uniform_rank()
    f = RelabelMap(
        [(a, (3,)) for a in [(3, 0), (2, 1), (1, 2), (0, 3), (3, 2), (2, 3), (3, 3)]]
    )
    assert check_qe_compatible(f, phi, tgt)
    ok, _ = check_join_preserving(f, phi, tgt, 3)
    assert ok
    # pairwise joins are outside the table: the rank+1 bound is what matters
    with pytest.raises(MissingKey):
        check_join_preserving(f, phi, tgt, 2)
    out = relabel(f, minimize(taylor_complex(phi)), tgt)
    report = is_resolution(out)
    assert report.exact and not report.minimal


def test_relabel_preserves_coefficients_randomized():
    import random

    from helpers import random_generic_minimal

    rng = random.Random(157)
    for _ in range(6):
        phi = random_generic_minimal(rng)
        # relabel along a degree translation: an isomorphism of lattices
        shift = tuple(rng.randint(0, 2) for _ in range(phi.n))
        sources2 = [tuple(a + b for a, b in zip(d, shift)) for d in phi.source_degrees]
        phi2 = Morphism(
            phi.n, QQ, sources2, phi.target_degrees, phi.entries
        ).validate()
        assert check_quasi_equivalent(phi, phi2)
        from mgres import join_closure

        f = RelabelMap(
            [
                (d, tuple(a + b for a, b in zip(d, shift)))
                for d in join_closure(phi.source_degrees)
            ]
        )
        assert check_qe_compatible(f, phi, phi2)
        ok, _ = check_join_preserving(f, phi, phi2, phi.coeff_data.r + 1)
        assert ok
        m = minimize(taylor_complex(phi))
        out = relabel(f, m, phi2)
        assert list(out.diffs[1:]) == list(m.diffs[1:])
        assert out.diffs[0] == m.diffs[0]
        assert is_resolution(out).exact
