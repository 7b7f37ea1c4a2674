"""Quasi-equivalence, lattice-map compatibility, and relabeled resolutions."""

import pytest

from mgres import (
    QQ,
    DimensionError,
    FormatError,
    GradedComplex,
    Matrix,
    MissingKey,
    Morphism,
    NegativeShift,
    PrimeField,
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
from helpers import (DATA, int_matrix, join_preserving_walk, uvw_example, wide_generic_morphism,
                     xy_example)

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
    identity = RelabelMap({a: a for a in phi.degree_index.lattice()})
    assert check_join_preserving(identity, phi, phi, min_size) == (True, None)
    assert join_preserving_walk(identity, phi, phi, min_size) == (True, None)
    f = RelabelMap({a: (a[0], a[1] + 1) if a == (3, 3) else a for a in phi.degree_index.lattice()})
    assert check_join_preserving(f, phi, phi, min_size) == (False, (3, 3))
    assert join_preserving_walk(f, phi, phi, min_size) == join_preserving_walk(f, phi, phi, 1)


def test_join_preserving_has_no_column_cap():
    # the subset walk would take 2^24 subsets; the lattice table is small
    phi = wide_generic_morphism(24)
    identity = RelabelMap({a: a for a in phi.degree_index.lattice()})
    assert check_join_preserving(identity, phi, phi, phi.coeff_data.r + 1) == (True, None)


@pytest.mark.parametrize("swap", [False, True], ids=["wide-narrow", "narrow-wide"])
def test_join_preserving_rank_mismatch(swap):
    phi, small = xy_example(), _one_column()
    f = RelabelMap({a: a for a in phi.degree_index.lattice()} | {(1, 0): (1, 0)})
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
    ident = RelabelMap([(d, d) for d in set().union(*s.levels)])
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
    labels = [[f"b{t}" for t in range(len(level))] for level in degrees]
    d2 = int_matrix(QQ, [[0, 1, 5], [7, 1, 0]])
    x = GradedComplex(QQ, 1, degrees, [phi.coeff_data.matrix, d2], labels)
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


def _ex7_over_gf7():
    """data/ex7_prime.mmor, its coefficients read over GF(7)."""
    from mgres import formats

    raw = formats.load_json(DATA / "ex7_prime.mmor")
    return formats.morphism_from_dict({**raw, "field": "GF(7)"})


def test_relabel_across_fields_is_refused():
    from mgres import formats

    x = scarf_complex(formats.load_morphism(DATA / "ex4.mmor"))
    f = formats.load_relabel_map(DATA / "ex7_relabel.json")
    with pytest.raises(DimensionError, match=r"over Q, .* over GF\(7\)"):
        relabel(f, x, _ex7_over_gf7())


def test_graded_complex_refuses_a_differential_over_another_field():
    x = scarf_complex(xy_example())
    gf7 = PrimeField(7)
    diffs = [int_matrix(gf7, [[1] * 4, [1, 2, 3, 0]]), *x.diffs[1:]]
    with pytest.raises(DimensionError, match=r"differential 2 over Q, not GF\(7\)"):
        GradedComplex(gf7, x.n, x.levels, diffs, x.labels)


def test_graded_complex_compares_labels_and_counts_them():
    x = scarf_complex(xy_example())
    labels = [list(level) for level in x.labels]
    labels[2][1] = "e{2,3,4}#2"
    y = GradedComplex(x.field, x.n, x.levels, x.diffs, labels, var_names=x.var_names)
    assert y.levels == x.levels and y.diffs == x.diffs
    assert y != x
    with pytest.raises(DimensionError, match="label counts"):
        GradedComplex(x.field, x.n, x.levels, x.diffs, [*x.labels[:2], x.labels[2][:1]])


def _zero_column_complex():
    """x, x^2 over k[x] with an extra level-2 generator of degree x^3 whose
    column is zero, so homogeneity never reads its degree as a target."""
    phi = Morphism(1, QQ, [(1,), (2,)], [(0,)], {(1, 1): QQ.one, (1, 2): QQ.one}).validate()
    d2 = int_matrix(QQ, [[0], [0]])
    levels, labels = [[(0,)], [(1,), (2,)], [(3,)]], [["g1"], ["e1", "e2"], ["z"]]
    return phi, GradedComplex(QQ, 1, levels, [phi.coeff_data.matrix, d2], labels)


@pytest.mark.parametrize("image", [(2, 7), (-4,)], ids=["wrong-length", "negative"])
def test_relabel_refuses_an_image_that_is_not_a_degree(tmp_path, capsys, image):
    """Such an image would be written out, and the complex file it lands in
    refused on load; relabel refuses it first, and the CLI exits 2."""
    import json

    from mgres import cli, formats

    phi, x = _zero_column_complex()
    pairs = [((1,), (1,)), ((2,), (2,)), ((3,), image)]
    with pytest.raises(DimensionError):
        relabel(RelabelMap(pairs), x, phi)
    paths = [tmp_path / name for name in ("map.json", "x.json", "phi.mmor")]
    paths[0].write_text(json.dumps([{"from": a, "to": b} for a, b in pairs]))
    paths[1].write_text(formats.canonical_dumps(formats.complex_to_dict(x)))
    paths[2].write_text(formats.canonical_dumps(formats.morphism_to_dict(phi)))
    assert cli.run(["relabel", *map(str, paths), "--out", str(tmp_path / "out.json")]) == 2
    assert "degree" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: RelabelMap([((1, 0), (1, 0)), ((1, 0), (0, 1))]), FormatError, "conflicting"),
        (lambda: check_quasi_equivalent(xy_example(), uvw_example(), [1, 1, 2, 3]),
         DimensionError, "not a permutation"),
        (lambda: relabel(RelabelMap(F_TABLE), scarf_complex(xy_example()), _one_column()),
         DimensionError, "level 1 of the complex"),
        # column 1's degree sent to a degree of k[u, v, w] other than its own
        (lambda: relabel(RelabelMap(dict(F_TABLE) | {(3, 0): (1, 1, 1)}),
                         scarf_complex(xy_example()), uvw_example()),
         DimensionError, "but the target column 1"),
    ],
    ids=["conflicting duplicate key", "not a permutation", "level-1 length", "level-1 image"],
)
def test_relabel_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
