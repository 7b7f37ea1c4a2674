"""Face systems and the complexes they span: worked-example goldens,
closure checking, classical monomial-ideal degeneration, containment."""

import itertools
import math
import random

import pytest

from mgres import (
    QQ,
    DimensionError,
    FaceSystem,
    Matrix,
    Morphism,
    RestrictionError,
    TooManyColumns,
    build_complex,
    divided_dim,
    full_system,
    is_compatible_system,
    scarf_complex,
    scarf_system,
    taylor_complex,
)
from helpers import (
    classical_taylor,
    mod_p,
    monomial_ideal_morphism,
    random_generic_minimal,
    random_morphism,
    solved_differentials,
    system_contains,
    tall_morphism,
    xy_example,
)

TAYLOR_D2 = [
    [1, -2, -3, 0],
    [-2, 1, 0, -3],
    [1, 0, 1, 2],
    [0, 1, 2, 1],
]
# as printed, columns negated by our sign normalization of the sources
TAYLOR_D3_PRINTED = [
    [1, 0],
    [-1, -3],
    [1, 2],
    [-1, -1],
]
SCARF_D2 = [
    [1, 0],
    [-2, -3],
    [1, 2],
    [0, 1],
]


def scalar(m: Matrix) -> list[list]:
    return [[x for x in row] for row in m.data]


def ints(rows) -> list[list]:
    return [[QQ.of(x) for x in row] for row in rows]


def test_full_system_dimensions():
    phi = xy_example()
    fs = full_system(phi)
    assert all(fs.spaces[f].cols == 1 for f in fs.faces_of_size(3))
    assert fs.spaces[(1, 2, 3, 4)].cols == 2
    assert divided_dim(2, 0) == 1 and divided_dim(2, 1) == 2


def test_full_system_empty_when_square():
    phi = Morphism(
        2,
        QQ,
        [(1, 0), (0, 1)],
        [(0, 0), (0, 0)],
        {(1, 1): QQ.one, (2, 2): QQ.one},
    ).validate()
    assert phi.coeff_data.r == 2
    fs = full_system(phi)
    assert not fs.spaces
    assert not scarf_system(phi).spaces
    x = build_complex(phi, fs)
    assert x.ranks() == (2, 2)


def test_scarf_system_table():
    phi = xy_example()
    fs = scarf_system(phi)
    assert set(fs.spaces) == {(1, 2, 3), (2, 3, 4)}
    assert fs.spaces[(1, 2, 3)].cols == 1
    assert fs.spaces[(2, 3, 4)].cols == 1


def test_full_contains_scarf():
    phi = xy_example()
    assert system_contains(full_system(phi), scarf_system(phi))
    assert not system_contains(scarf_system(phi), full_system(phi))


def test_scarf_system_is_compatible():
    phi = xy_example()
    ok, violation = is_compatible_system(phi, scarf_system(phi))
    assert ok and violation is None


def test_full_system_is_compatible():
    phi = xy_example()
    ok, _ = is_compatible_system(phi, full_system(phi))
    assert ok


def test_incompatible_system_detected():
    phi = xy_example()
    spaces = {
        (1, 2, 3): Matrix.identity(QQ, 1),
        (2, 3, 4): Matrix.identity(QQ, 1),
        (1, 2, 3, 4): Matrix.identity(QQ, 2),
    }
    bad = FaceSystem(2, spaces)
    ok, violation = is_compatible_system(phi, bad)
    assert not ok and violation == (1, 2, 3, 4)
    with pytest.raises(RestrictionError):
        build_complex(phi, bad)


@pytest.mark.parametrize(
    "face, emb",
    [
        ((1, 2, 3, 4), Matrix.identity(QQ, 3)),  # wrong divided-power degree
        ((1, 2, 9), Matrix.identity(QQ, 1)),  # column index out of range
    ],
)
def test_malformed_system_names_the_face(face, emb):
    phi = xy_example()
    spaces = dict(full_system(phi).spaces)
    spaces[face] = emb
    bad = FaceSystem(2, spaces)
    with pytest.raises(RestrictionError) as info:
        build_complex(phi, bad)
    assert info.value.face == face
    assert is_compatible_system(phi, bad) == (False, face)


def test_taylor_golden():
    x = taylor_complex(xy_example())
    assert x.ranks() == (2, 4, 4, 2)
    assert x.level_degrees(2) == ((3, 2), (3, 3), (3, 3), (2, 3))
    assert x.level_degrees(3) == ((3, 3), (3, 3))
    assert scalar(x.diffs[1]) == ints(TAYLOR_D2)
    negated = [[-QQ.of(v) for v in row] for row in TAYLOR_D3_PRINTED]
    assert scalar(x.diffs[2]) == negated
    assert x.is_homogeneous()


def test_taylor_generator_order_and_labels():
    x = taylor_complex(xy_example())
    assert list(x.labels[2]) == [
        "e{1,2,3}#1",
        "e{1,2,4}#1",
        "e{1,3,4}#1",
        "e{2,3,4}#1",
    ]
    assert list(x.labels[3]) == ["e{1,2,3,4}#1", "e{1,2,3,4}#2"]


def test_scarf_golden():
    x = scarf_complex(xy_example())
    assert x.ranks() == (2, 4, 2)
    assert x.level_degrees(2) == ((3, 2), (2, 3))
    assert scalar(x.diffs[1]) == ints(SCARF_D2)
    assert x.is_homogeneous()


def test_scarf_is_taylor_subcomplex():
    phi = xy_example()
    t = taylor_complex(phi)
    s = scarf_complex(phi)
    for col, (degree, label) in enumerate(zip(s.levels[2], s.labels[2])):
        tcol = t.labels[2].index(label)
        assert degree == t.levels[2][tcol]
        assert [row[col] for row in s.diffs[1].data] == [
            row[tcol] for row in t.diffs[1].data
        ]


def assert_matches_classical_taylor(x, oracle):
    """Same ranks, degrees and boundary entries as the textbook construction.

    The splice boundary attaches its sign to the removed column, the
    textbook Taylor boundary to the remaining face; for 2-element faces
    that is a global negation (equivalently: negate every generator of the
    levels past the presentation), and the levels above agree on the nose.
    """
    assert x.ranks() == oracle.ranks()
    for i in range(len(x.levels)):
        assert x.level_degrees(i) == oracle.level_degrees(i)
    assert x.diffs[0] == oracle.diffs[0]
    if len(x.diffs) > 1:
        negated = [[-v for v in row] for row in oracle.diffs[1].data]
        assert [list(r) for r in x.diffs[1].data] == negated
    for i in range(2, len(x.diffs)):
        assert x.diffs[i] == oracle.diffs[i]


def test_monomial_ideal_taylor_matches_classical():
    phi = monomial_ideal_morphism([(2, 0), (1, 1), (0, 2)])
    x = taylor_complex(phi)
    oracle = classical_taylor([(2, 0), (1, 1), (0, 2)])
    assert x.ranks() == (1, 3, 3, 1)
    assert_matches_classical_taylor(x, oracle)


def test_monomial_ideal_random_matches_classical():
    rng = random.Random(131)
    for _ in range(10):
        e = rng.randint(2, 5)
        n = rng.randint(2, 3)
        monomials = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(e)]
        phi = monomial_ideal_morphism(monomials)
        assert_matches_classical_taylor(taylor_complex(phi), classical_taylor(monomials))


def test_classical_scarf_supports_for_generic_square_free_ideal():
    # x^2, xy, y^2: the Scarf complex keeps {1,2} and {2,3} only
    phi = monomial_ideal_morphism([(2, 0), (1, 1), (0, 2)])
    s = scarf_complex(phi)
    assert s.ranks() == (1, 3, 2)
    assert s.level_degrees(2) == ((2, 1), (1, 2))


def test_scarf_system_compatible_on_random_generic():
    rng = random.Random(137)
    for _ in range(10):
        phi = random_generic_minimal(rng)
        ok, violation = is_compatible_system(phi, scarf_system(phi))
        assert ok, violation
        assert system_contains(full_system(phi), scarf_system(phi))


def test_scarf_system_compatible_unconditionally():
    # closure of the Scarf system needs no genericity at all
    from helpers import random_morphism
    from mgres.verify import check_d2

    rng = random.Random(777)
    for _ in range(60):
        phi = random_morphism(rng)
        ok, violation = is_compatible_system(phi, scarf_system(phi))
        assert ok, violation
        assert check_d2(build_complex(phi, scarf_system(phi)))


def test_scarf_of_non_generic_map_need_not_resolve():
    # uniform rank alone is not enough: the uvw relabeled morphism is not
    # combinatorially generic and its Scarf complex drops a needed generator
    from helpers import uvw_example
    from mgres.verify import check_d2, is_resolution

    phi = uvw_example()
    assert phi.is_uniform_rank() and not phi.is_combinatorially_generic()
    s = scarf_complex(phi)
    assert check_d2(s)
    assert s.ranks() == (2, 4, 1)
    assert not is_resolution(s).exact


def test_prime_field_pipeline():
    from mgres import PrimeField, is_resolution, minimize, graded_ranks
    from mgres.verify import is_minimal

    gf = PrimeField(7)
    entries = {}
    for j, c in enumerate([1, 1, 1, 1], start=1):
        entries[(1, j)] = gf.of(c)
    for j, c in enumerate([1, 2, 3, 0], start=1):
        if c:
            entries[(2, j)] = gf.of(c)
    phi = Morphism(
        2,
        gf,
        [(3, 0), (2, 1), (1, 2), (0, 3)],
        [(0, 0), (1, 0)],
        entries,
        var_names=("x", "y"),
    ).validate()
    assert phi.is_generic()
    t = taylor_complex(phi)
    s = scarf_complex(phi)
    assert t.ranks() == (2, 4, 4, 2) and s.ranks() == (2, 4, 2)
    assert is_resolution(t).exact and is_resolution(s).exact
    assert is_minimal(s)
    assert graded_ranks(minimize(t)) == graded_ranks(s)
    # the scalar entries are the rational ones reduced mod 7
    assert [x.v for x in s.diffs[1].col(0)] == [1, 5, 1, 0]


def test_gap_level_system():
    # four parallel columns plus one independent: the functionals killing
    # the parallel block support a face whose facets all vanish, so the
    # level below it is empty and the boundary out of it is zero
    from mgres import divided_embed

    entries = {}
    for j, c in enumerate([1, 2, 3, 4, 0], start=1):
        if c:
            entries[(1, j)] = QQ.of(c)
    for j, c in enumerate([1, 2, 3, 4, 1], start=1):
        entries[(2, j)] = QQ.of(c)
    phi = Morphism(
        2,
        QQ,
        [(5, 0), (4, 1), (3, 2), (2, 3), (0, 5)],
        [(0, 0), (0, 0)],
        entries,
    ).validate()
    assert phi.coeff_data.r == 2
    face = (1, 2, 3, 4)
    k = phi.k_space(face)
    assert k.dim == 1
    system = FaceSystem(2, {face: divided_embed(k, 1)})
    ok, violation = is_compatible_system(phi, system)
    assert ok, violation
    x = build_complex(phi, system)
    assert x.ranks() == (2, 5, 0, 1)
    assert x.diffs[2].is_zero()
    from mgres.verify import check_d2

    assert check_d2(x)


def test_zero_morphism_complex():
    phi = Morphism(2, QQ, [(1, 1)], [(0, 0)], {}).validate(allow_zero_columns=True)
    x = taylor_complex(phi)
    assert x.ranks() == (1, 1, 1)
    assert x.diffs[1].data[0][0] == QQ.one
    assert x.is_homogeneous()


def test_built_complexes_compose_to_zero():
    from mgres.verify import check_d2

    rng = random.Random(139)
    for _ in range(8):
        phi = random_generic_minimal(rng)
        assert check_d2(taylor_complex(phi))
        assert check_d2(scarf_complex(phi))


def test_smaller_system_embeds_as_subcomplex():
    # the inclusion maps built from the stored embedding columns intertwine
    # the differentials of the Scarf and full-system complexes
    rng = random.Random(141)
    for _ in range(6):
        phi = random_generic_minimal(rng)
        r = phi.coeff_data.r
        t = taylor_complex(phi)
        s = scarf_complex(phi)
        fs = scarf_system(phi)
        field = phi.field
        zero = field.zero
        # level maps: level 0 and 1 are identities
        maps = [Matrix.identity(field, phi.g), Matrix.identity(field, phi.e)]
        from mgres import divided_basis

        for level in range(2, len(s.levels)):
            p = r + level - 1
            div = divided_basis(r, p - r - 1)
            t_pos = {}
            counter = 0
            import itertools as it

            for face in it.combinations(range(1, phi.e + 1), p):
                for b in div:
                    t_pos[(face, b)] = counter
                    counter += 1
            assert counter == len(t.levels[level])
            data = [[zero] * len(s.levels[level]) for _ in range(counter)]
            col = 0
            for face in fs.faces_of_size(p):
                emb = fs.spaces[face]
                for tcol in range(emb.cols):
                    for bi, b in enumerate(div):
                        data[t_pos[(face, b)]][col] = emb.data[bi][tcol]
                    col += 1
            maps.append(Matrix(field, counter, len(s.levels[level]), data))
        for i in range(len(s.diffs)):
            lhs = t.diffs[i].mul(maps[i + 1]) if i < len(t.diffs) else None
            rhs = maps[i].mul(s.diffs[i])
            assert lhs == rhs


def test_minimize_zero_morphism():
    from mgres import minimize

    phi = Morphism(2, QQ, [(1, 1)], [(0, 0)], {}).validate(allow_zero_columns=True)
    m = minimize(taylor_complex(phi))
    assert m.ranks() == (1,)


def assert_matches_solved_route(phi, system):
    """build_complex's differentials above the splice equal the ones with
    every contracted vector solved on its facet."""
    x = build_complex(phi, system)
    r = phi.coeff_data.r
    for p, m in solved_differentials(phi, system).items():
        if p - r < len(x.diffs):
            assert x.diffs[p - r] == m, (phi, p)
        else:  # trailing empty levels are dropped
            assert m.cols == 0


@pytest.mark.parametrize("p", [None, 32003, 2, 7])
def test_facet_read_matches_solve_on_every_facet(p):
    rng = random.Random(8101)
    solved_facets = 0
    for k in range(24):
        phi = random_morphism(rng) if k % 2 else random_generic_minimal(rng)
        if p:
            phi = mod_p(phi, p)
        for system in (full_system(phi), scarf_system(phi)):
            assert_matches_solved_route(phi, system)
            solved_facets += sum(
                emb != Matrix.identity(phi.field, emb.rows) for emb in system.spaces.values()
            )
    assert solved_facets  # closed non-Scarf faces take the solve route


def _wide_rank_two(seed):
    """A generic minimal morphism of rank 2 with at least 5 columns, so
    that facets of size 4 carry a 2-dimensional divided power."""
    rng = random.Random(seed)
    while True:
        phi = random_generic_minimal(rng)
        if phi.coeff_data.r == 2 and phi.e >= 5:
            return phi


@pytest.mark.parametrize("p", [None, 32003])
def test_invertible_non_identity_facets_decompose_through_solve(p):
    phi = _wide_rank_two(8102)
    if p:
        phi = mod_p(phi, p)
    field = phi.field
    two = field.of(2)

    def skewed(d):  # 2 on the diagonal, 1 just above it: invertible, not the identity
        rows = [
            [two if j == i else field.one if j == i + 1 else field.zero for j in range(d)]
            for i in range(d)
        ]
        return Matrix.from_rows(field, rows, d)

    spaces = {face: skewed(emb.rows) for face, emb in full_system(phi).spaces.items()}
    system = FaceSystem(phi.coeff_data.r, spaces)
    assert_matches_solved_route(phi, system)
    x, t = build_complex(phi, system), taylor_complex(phi)
    from mgres.verify import check_d2, is_resolution

    assert x.ranks() == t.ranks() and check_d2(x)
    assert is_resolution(x).exact == is_resolution(t).exact


def test_singular_facet_fails_at_the_face_of_the_solve_route():
    phi = _wide_rank_two(8103)
    field = phi.field
    spaces = dict(full_system(phi).spaces)
    facet = (1, 2, 3, 4)
    spaces[facet] = Matrix.from_rows(field, [[field.one, field.one], [field.one, field.one]])
    system = FaceSystem(2, spaces)
    with pytest.raises(RestrictionError) as built:
        build_complex(phi, system)
    with pytest.raises(RestrictionError) as solved:
        solved_differentials(phi, system)
    assert built.value.face == solved.value.face
    assert set(facet) < set(built.value.face)


@pytest.mark.parametrize("budget, refused", [(31, True), (32, False)])
def test_taylor_complex_reads_the_generator_budget_at_call_time(monkeypatch, budget, refused):
    from mgres import systems

    # the chain x^5, x^4 y, ..., y^5 has Taylor ranks (1, 5, 10, 10, 5, 1): 32
    phi = monomial_ideal_morphism([(5 - j, j) for j in range(5)])
    monkeypatch.setattr(systems, "MAX_GENERATORS", budget)
    if refused:
        with pytest.raises(TooManyColumns):
            taylor_complex(phi)
    else:
        assert sum(taylor_complex(phi).ranks()) == 32


def test_taylor_complex_has_no_column_cap():
    from mgres.verify import is_resolution

    # 21 columns, but at rank 19 only 80 generators
    x = taylor_complex(tall_morphism())
    assert x.ranks() == (19, 21, 21, 19)
    assert is_resolution(x).exact


def _fails_at_the_same_face(phi, system):
    with pytest.raises(RestrictionError) as built:
        build_complex(phi, system)
    with pytest.raises(RestrictionError) as solved:
        solved_differentials(phi, system)
    assert built.value.face == solved.value.face
    assert not is_compatible_system(phi, system)[0]
    return built.value.face


@pytest.mark.parametrize("p", [None, 32003])
def test_missing_facet_fails_at_the_face_of_the_solve_route(p):
    phi = _wide_rank_two(8104)
    if p:
        phi = mod_p(phi, p)
    spaces = dict(full_system(phi).spaces)
    del spaces[(1, 2, 3, 4)]
    face = _fails_at_the_same_face(phi, FaceSystem(2, spaces))
    assert set(face) > {1, 2, 3, 4}


@pytest.mark.parametrize("p", [None, 32003])
def test_non_identity_face_outside_non_identity_facet_fails_on_both_routes(p):
    phi = _wide_rank_two(8105)
    if p:
        phi = mod_p(phi, p)
    field = phi.field
    z, o = field.zero, field.one
    spaces = {f: emb for f, emb in full_system(phi).spaces.items() if len(f) <= 5}
    # a line in D_1 on one facet, and on every face above it a line in D_2
    # whose contraction leaves that facet's line
    spaces[(1, 2, 3, 4)] = Matrix.from_rows(field, [[o], [z]])
    for face in [f for f in spaces if len(f) == 5]:
        spaces[face] = Matrix.from_rows(field, [[z], [o], [z]])
    face = _fails_at_the_same_face(phi, FaceSystem(2, spaces))
    assert len(face) == 5 and set(face) > {1, 2, 3, 4}


@pytest.mark.parametrize("p", [None, 32003])
def test_splice_columns_scale_by_the_face_embedding(p):
    """A face of size r + 1 assigned the line c in D_0 maps to c times its
    splice column."""
    rng = random.Random(8106)
    for _ in range(6):
        phi = _wide_rank_two(rng.randrange(10**6))
        if p:
            phi = mod_p(phi, p)
        field = phi.field
        spaces = dict(full_system(phi).spaces)
        scale = {f: field.of(rng.choice([-3, -1, 2, 5])) for f in spaces if len(f) == 3}
        for f, c in scale.items():
            spaces[f] = Matrix.from_rows(field, [[c]])
        x, t = build_complex(phi, FaceSystem(2, spaces)), taylor_complex(phi)
        for j, f in enumerate(sorted(scale)):
            assert x.diffs[1].col(j) == tuple(scale[f] * v for v in t.diffs[1].col(j))


@pytest.mark.parametrize("p", [None, 32003])
def test_scarf_and_taylor_share_each_maximal_minor(monkeypatch, p):
    """Across the Scarf and the Taylor build of one morphism, the minor
    table computes each needed r-subset's minor once in total, C(e, r) in
    all, and neither build takes a determinant of an r x r submatrix of uv:
    no ``Matrix.det`` call has one, and the table's own determinants are its
    one elimination of uv and those of size |S - P| <= min(r, e - r).  On
    every other morphism ``is_uniform_rank`` asks first, from the same
    table, and still each minor is computed once: after a True answer,
    which takes them all, the builds compute no further minor."""
    from mgres import linalg

    computed, dets, sizes = [], [], []
    minor, det, coded_det = linalg.MaximalMinors._minor, Matrix.det, linalg._det

    def counting_minor(self, cols):
        computed.append(cols)
        return minor(self, cols)

    def recording_det(self):
        dets.append(self)
        return det(self)

    def recording_coded_det(q, rows):
        sizes.append(len(rows))
        return coded_det(q, rows)

    monkeypatch.setattr(linalg.MaximalMinors, "_minor", counting_minor)
    monkeypatch.setattr(Matrix, "det", recording_det)
    monkeypatch.setattr(linalg, "_det", recording_coded_det)
    rng = random.Random(8107)
    seen, uniform = set(), 0
    for i in range(16):
        phi = random_morphism(rng)
        phi = mod_p(phi, p) if p else phi
        r, e, uv = phi.coeff_data.r, phi.e, phi.coeff_data.uv
        if e <= r:
            continue
        for seen_calls in (computed, dets, sizes):
            seen_calls.clear()
        if i % 2 and phi.is_uniform_rank():
            assert sorted(computed) == list(itertools.combinations(range(e), r))
            uniform += 1
        scarf_complex(phi)
        taylor_complex(phi)
        assert sorted(computed) == list(itertools.combinations(range(e), r))
        minors = {uv.submatrix(range(r), c) for c in itertools.combinations(range(e), r)}
        assert not [d for d in dets if d in minors]
        assert sizes[0] == r and all(k <= min(r, e - r) for k in sizes[1:])
        seen.add(r)
    assert len(seen) > 1 and uniform


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: FaceSystem(2, {(1, 1, 2): Matrix.identity(QQ, 1)}), "repeated indices"),
        (lambda: FaceSystem(2, {(1, 2): Matrix.identity(QQ, 1)}), "at most r = 2 elements"),
        (lambda: build_complex(xy_example(), FaceSystem(1, {})), "system rank 1 differs"),
    ],
    ids=["repeated index", "face of at most r columns", "rank mismatch"],
)
def test_face_system_refusals(build, match):
    with pytest.raises(DimensionError, match=match):
        build()
