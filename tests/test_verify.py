"""Complex verification: composition, strands, homology, exactness,
minimality, and the unit-entry cancellation oracle."""

import itertools
import random

import pytest

from mgres import (
    QQ,
    GradedComplex,
    Matrix,
    Morphism,
    NotAComplex,
    VectorComplex,
    check_d2,
    graded_ranks,
    homology_dims,
    is_minimal,
    is_resolution,
    minimize,
    scarf_complex,
    strand,
    taylor_complex,
)
from mgres.formats import complex_to_dict, load_morphism
from helpers import (
    DATA,
    ROOT,
    mod_p,
    monomial_ideal_morphism,
    random_generic_minimal,
    random_morphism,
    rescan_minimize,
    strandwise_is_resolution,
    xy_example,
)


def corrupt_entry(x: GradedComplex, diff_index: int, row: int, col: int) -> GradedComplex:
    data = [list(r) for r in x.diffs[diff_index].data]
    data[row][col] = -data[row][col] if data[row][col] != QQ.zero else QQ.one
    diffs = list(x.diffs)
    diffs[diff_index] = Matrix(QQ, len(data), len(data[0]), data)
    return GradedComplex(x.field, x.n, x.levels, diffs, x.labels, var_names=x.var_names)


def test_check_d2_goldens():
    assert check_d2(taylor_complex(xy_example()))
    assert check_d2(scarf_complex(xy_example()))


def test_check_d2_detects_corruption():
    assert not check_d2(corrupt_entry(taylor_complex(xy_example()), 1, 0, 0))


def test_check_d2_detects_each_corrupted_entry_with_fractional_uv():
    # denominators in the coefficients give V-coordinates with denominators,
    # so the differentials' rows and columns are coded with different scales
    coeffs = [[1, 1, 1, 1, 1], ["1/2", "2/3", "-3/5", "7/4", "0"]]
    entries = {
        (i, j): QQ.parse(c)
        for i, row in enumerate(coeffs, start=1)
        for j, c in enumerate(row, start=1)
        if c != "0"
    }
    sources = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
    phi = Morphism(2, QQ, sources, [(0, 0), (0, 0)], entries).validate()
    assert any(x.denominator > 1 for row in phi.coeff_data.uv.data for x in row)
    t = taylor_complex(phi)
    assert check_d2(t)
    corrupted = 0
    for i in range(1, len(t.diffs)):
        for row, nonzero in enumerate(t.diffs[i].nonzero_rows()):
            for col in nonzero:
                assert not check_d2(corrupt_entry(t, i, row, col))
                corrupted += 1
    assert corrupted > 50


def test_strand_dims():
    t = taylor_complex(xy_example())
    assert strand(t, (3, 2)).dims == (2, 3, 1, 0)
    assert strand(t, (3, 3)).dims == (2, 4, 4, 2)
    assert strand(t, (0, 0)).dims == (1, 0, 0, 0)


def test_strand_below_everything_is_zero():
    phi = Morphism(2, QQ, [(1, 1)], [(1, 0)], {(1, 1): QQ.one}).validate()
    t = taylor_complex(phi)
    assert strand(t, (0, 0)).dims == (0, 0)
    assert homology_dims(strand(t, (0, 0))) == (0, 0)


def test_homology_split_pair():
    vc = VectorComplex((1, 1), (Matrix.identity(QQ, 1),))
    assert homology_dims(vc) == (0, 0)


def test_homology_zero_complex():
    vc = VectorComplex((0, 0), (Matrix.zeros(QQ, 0, 0),))
    assert homology_dims(vc) == (0, 0)


def test_homology_strand_of_taylor():
    t = taylor_complex(xy_example())
    h = homology_dims(strand(t, (3, 2)), check=False)
    assert all(x == 0 for x in h[1:])


def test_homology_rejects_non_complex():
    bad = VectorComplex(
        (1, 1, 1), (Matrix.identity(QQ, 1), Matrix.identity(QQ, 1))
    )
    with pytest.raises(NotAComplex):
        homology_dims(bad)


def test_is_resolution_goldens():
    t = is_resolution(taylor_complex(xy_example()))
    assert t.exact and not t.minimal and t.is_complex
    s = is_resolution(scarf_complex(xy_example()))
    assert s.exact and s.minimal


def _cloned_column_morphism() -> Morphism:
    """Columns 1 and 2 are parallel but live at incomparable degrees, so the
    restricted matrix at their join drops rank."""
    return Morphism(
        2,
        QQ,
        [(1, 0), (0, 1), (2, 0)],
        [(0, 0), (0, 0)],
        {
            (1, 1): QQ.one,
            (2, 1): QQ.of(2),
            (1, 2): QQ.of(2),
            (2, 2): QQ.of(4),
            (2, 3): QQ.one,
        },
    ).validate()


def test_is_resolution_failure_witness():
    phi = _cloned_column_morphism()
    assert phi.coeff_data.r == 2
    res = phi.is_maximal_rank_everywhere()
    assert not res.ok and res.witness == (1, 1)
    report = is_resolution(taylor_complex(phi))
    assert not report.exact
    assert any(a == (1, 1) for (a, _, _) in report.failures)


def test_is_minimal():
    assert is_minimal(scarf_complex(xy_example()))
    assert not is_minimal(taylor_complex(xy_example()))
    phi = Morphism(2, QQ, [(1, 1)], [(0, 0)], {(1, 1): QQ.one}).validate()
    assert is_minimal(taylor_complex(phi))


def test_minimize_golden():
    t = taylor_complex(xy_example())
    m = minimize(t)
    assert m.ranks() == (2, 4, 2)
    assert sorted(m.level_degrees(2)) == [(2, 3), (3, 2)]
    assert is_minimal(m)
    assert is_resolution(m).exact


def test_minimize_fixed_point():
    s = scarf_complex(xy_example())
    assert minimize(s) == s


def _draws(field_name, seed, count):
    """random_morphism and random_generic_minimal draws, over Q or mapped
    into GF(32003)."""
    rng = random.Random(seed)
    for _ in range(count):
        for phi in (random_morphism(rng), random_generic_minimal(rng)):
            yield phi if field_name == "Q" else mod_p(phi)


def _block_betti_numbers(x):
    """beta_{i,a} = #gens(i,a) - rank(d_i|a,a) - rank(d_{i+1}|a,a): tensoring
    with k keeps only the zero-shift entries, which split by degree."""
    blocks = []
    for level in x.levels:
        by_degree = {}
        for j, d in enumerate(level):
            by_degree.setdefault(d, []).append(j)
        blocks.append(by_degree)

    def block_rank(i, a):
        if not 0 <= i < len(x.diffs):
            return 0
        rows, cols = blocks[i].get(a, []), blocks[i + 1].get(a, [])
        return x.diffs[i].submatrix(rows, cols).rank() if rows and cols else 0

    out = []
    for i, by_degree in enumerate(blocks):
        counts = {
            a: len(js) - block_rank(i - 1, a) - block_rank(i, a)
            for a, js in by_degree.items()
        }
        out.append({a: c for a, c in counts.items() if c})
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


@pytest.mark.parametrize("field_name", ["Q", "GF(32003)"])
def test_minimize_betti_numbers_match_degree_blocks(field_name):
    # the block formula does not depend on the cancellation order
    for phi in _draws(field_name, 4099, 15):
        t = taylor_complex(phi)
        assert graded_ranks(minimize(t)) == _block_betti_numbers(t)


def _divide_columns(phi):
    """phi with its (1-based) column j divided by j + 1."""
    entries = {(i, j): v / (j + 1) for (i, j), v in phi.entries.items()}
    return Morphism(phi.n, phi.field, phi.source_degrees, phi.target_degrees, entries,
                    phi.var_names).validate(allow_zero_columns=True)


@pytest.mark.parametrize("field_name", ["Q", "GF(32003)"])
def test_minimize_matches_rescan_oracle(field_name):
    examples = [load_morphism(DATA / "ex4.mmor"), load_morphism(DATA / "ex7_prime.mmor")]
    if field_name != "Q":
        examples = [mod_p(phi) for phi in examples]
    draws = list(_draws(field_name, 4111, 15))
    # over Q also the draws with column j divided by j + 1, so that the
    # coded rows of the differentials carry scales other than 1
    fractional = [_divide_columns(phi) for phi in draws] if field_name == "Q" else []
    for phi in examples + draws + fractional:
        for x in (taylor_complex(phi), scarf_complex(phi)):
            # equal levels means equal degrees and equal labels
            assert minimize(x) == rescan_minimize(x)
    # the Scarf complex of a generic morphism is already minimal
    for phi in examples[:1] + draws[1::2]:
        s = scarf_complex(phi)
        assert minimize(s) == s


def _first_non_exact_draw(field_name):
    """The Taylor complex of the first _draws morphism with two parallel
    nonzero coefficient columns and a strand with homology."""
    for phi in _draws(field_name, 4129, 30):
        cols = phi.coeff_data.matrix.transpose().nonzero_rows()
        cloned = any(
            a and b and a.keys() == b.keys() and len({a[k] / b[k] for k in a}) == 1
            for a, b in itertools.combinations(cols, 2)
        )
        t = taylor_complex(phi)
        if cloned and strandwise_is_resolution(t).failures:
            return t
    raise AssertionError("no non-exact clone draw")


def test_minimize_preserves_strand_euler_characteristics():
    # and the full homology vector, on an exact and a non-exact complex
    from mgres.verify import strand_degrees

    exact = taylor_complex(xy_example())
    for t in (exact, _first_non_exact_draw("Q"), _first_non_exact_draw("GF(32003)")):
        m = minimize(t)
        failures = 0
        for a in strand_degrees(t):
            before = strand(t, a).dims
            after = strand(m, a).dims
            euler_b = sum((-1) ** i * d for i, d in enumerate(before))
            euler_a = sum((-1) ** i * d for i, d in enumerate(after))
            assert euler_b == euler_a
            h = homology_dims(strand(t, a))
            # minimize drops trailing levels only once they are all cancelled
            assert h == homology_dims(strand(m, a)) + (0,) * (len(h) - len(m.levels))
            failures += any(h[1:])
        assert (failures == 0) == (t is exact)


@pytest.mark.parametrize("field_name", ["Q", "GF(32003)"])
def test_is_resolution_matches_strandwise_oracle(field_name):
    examples = [
        load_morphism(DATA / "ex4.mmor"),
        load_morphism(DATA / "ex7_prime.mmor"),
        _cloned_column_morphism(),
    ]
    if field_name != "Q":
        examples = [mod_p(phi) for phi in examples]
    reports = []
    for phi in examples + list(_draws(field_name, 4127, 15)):
        for x in (taylor_complex(phi), scarf_complex(phi)):
            report = is_resolution(x)
            assert report == strandwise_is_resolution(x)
            reports.append(report)
    assert sum(1 for r in reports if r.failures) >= 2  # the cloned column, both complexes
    assert sum(1 for r in reports if not r.minimal) > len(reports) // 3


def test_is_resolution_matches_strandwise_oracle_on_files():
    from mgres import relabel
    from mgres.formats import load_complex, load_relabel_map

    names = [f"{c}_{ex}.json" for c in ("taylor", "scarf", "minimize") for ex in ("ex4", "ex7_prime")]
    loaded = [load_complex(ROOT / "tests" / "golden" / name) for name in names]
    f = load_relabel_map(DATA / "ex7_relabel.json")
    phi2 = load_morphism(DATA / "ex7_prime.mmor")
    relabeled = [relabel(f, x, phi2) for name, x in zip(names, loaded) if "ex4" in name]
    for x in loaded + relabeled:
        assert is_resolution(x) == strandwise_is_resolution(x)
    assert not all(is_minimal(x) for x in loaded + relabeled)


def test_is_resolution_matches_strandwise_oracle_off_complexes():
    # hand-built, homogeneous and not a complex: d1 d2 = 1
    g, labels = [[(0, 0)], [(1, 0)], [(1, 0)]], [["a"], ["b"], ["c"]]
    x = GradedComplex(QQ, 2, g, [Matrix.identity(QQ, 1), Matrix.identity(QQ, 1)], labels)
    assert x.is_homogeneous()
    report = is_resolution(x)
    assert report == strandwise_is_resolution(x)
    assert not report.is_complex and not report.minimal and report.tested_degrees == ()
    corrupted = corrupt_entry(taylor_complex(xy_example()), 1, 0, 0)
    assert is_resolution(corrupted) == strandwise_is_resolution(corrupted)
    assert not is_resolution(corrupted).is_complex


def test_minimize_monomial_taylor_gives_scarf_ranks():
    phi = monomial_ideal_morphism([(2, 0), (1, 1), (0, 2)])
    m = minimize(taylor_complex(phi))
    s = scarf_complex(phi)
    assert graded_ranks(m) == graded_ranks(s)
    assert m.ranks() == (1, 3, 2)


def test_minimize_random_generic_agrees_with_scarf():
    rng = random.Random(149)
    for _ in range(8):
        phi = random_generic_minimal(rng)
        assert graded_ranks(minimize(taylor_complex(phi))) == graded_ranks(
            scarf_complex(phi)
        )


def test_minimized_complexes_stay_resolutions():
    rng = random.Random(151)
    for _ in range(4):
        phi = random_generic_minimal(rng)
        m = minimize(taylor_complex(phi))
        assert is_minimal(m)
        rep = is_resolution(m)
        assert rep.exact


def test_strand_matches_directly_built_splice_complex():
    # the degree-a strand of the full-system complex is the spliced complex
    # of the column-restricted coefficient matrix, taken inside the image of
    # the full map; their homology agrees in positions 1 and up
    import random

    from mgres import build_B_complex, coeff_data_from_matrix, join_closure, taylor_complex
    from helpers import random_morphism

    rng = random.Random(31337)
    for _ in range(15):
        phi = random_morphism(rng)
        cd = phi.coeff_data
        t = taylor_complex(phi)
        assert t.diffs == build_B_complex(cd, cd.image).diffs
        for a in sorted(join_closure(phi.source_degrees)):
            cols = sorted(phi.columns_leq(a))
            sub = cd.matrix.submatrix(range(phi.g), [j - 1 for j in cols])
            b = build_B_complex(coeff_data_from_matrix(sub), cd.image)
            hs = list(homology_dims(strand(t, a), check=False))
            hb = list(homology_dims(b, check=False))
            pad = max(len(hs), len(hb))
            hs += [0] * (pad - len(hs))
            hb += [0] * (pad - len(hb))
            assert hs[1:] == hb[1:]


def test_report_serialization():
    rep = is_resolution(scarf_complex(xy_example()))
    d = rep.to_dict()
    assert d["exact"] is True and d["minimal"] is True
    assert d["failures"] == []
    # target degrees participate in the tested set
    assert [0, 0] in d["tested_degrees"]


@pytest.mark.parametrize("name", ["ex4.mmor", "ex7_prime.mmor"])
def test_readers_leave_the_complex_unchanged(name):
    """minimize updates row dicts in place, so it must work on copies."""
    x = taylor_complex(load_morphism(DATA / name))
    before = complex_to_dict(x)
    minimize(x)
    is_resolution(x)
    complex_to_dict(x)
    assert complex_to_dict(x) == before
