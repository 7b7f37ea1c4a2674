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
    PrimeField,
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
    DATA,
    classical_taylor,
    clustered_draw,
    mod_p,
    monomial_ideal_morphism,
    per_block_complex,
    random_generic_minimal,
    random_morphism,
    solved_differentials,
    spy_degree_cuts,
    system_contains,
    tall_morphism,
    wide_generic_morphism,
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


def test_only_the_morphism_s_own_full_system_takes_the_taylor_route():
    """The full system of phi without its last column (same rank) is
    spanned face by face, as it is given as a FaceSystem."""
    phi = _wide_rank_two(8107)
    entries = {k: v for k, v in phi.entries.items() if k[1] < phi.e}
    narrow = Morphism(phi.n, phi.field, phi.source_degrees[:-1], phi.target_degrees,
                      entries).validate()
    assert narrow.coeff_data.r == 2
    system = full_system(narrow)
    x = build_complex(phi, system)
    assert x == build_complex(phi, FaceSystem(2, system.spaces))
    assert x.ranks()[2:] == taylor_complex(narrow).ranks()[2:]


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


@pytest.mark.parametrize("budget, refused", [(31, True), (32, False)])
def test_taylor_budget_is_refused_before_any_contraction_or_minor(monkeypatch, budget, refused):
    """taylor_complex refuses with full_system's message, and takes no
    contraction and no maximal minor first; within the budget it takes both.
    Every contraction row is a copy of one ``Matrix.coded_column`` of uv."""
    from mgres import linalg, systems

    monkeypatch.setattr(systems, "MAX_GENERATORS", budget)
    calls, column, minor = [], linalg.Matrix.coded_column, linalg.MaximalMinors._minor
    monkeypatch.setattr(linalg.Matrix, "coded_column",
                        lambda self, j: calls.append("contraction") or column(self, j))
    monkeypatch.setattr(linalg.MaximalMinors, "_minor",
                        lambda self, cols: calls.append("minor") or minor(self, cols))
    # Taylor ranks (1, 5, 10, 10, 5, 1): 32 generators
    phi = monomial_ideal_morphism([(5 - j, j) for j in range(5)])
    if refused:
        with pytest.raises(TooManyColumns) as want:
            full_system(phi)
        with pytest.raises(TooManyColumns) as got:
            taylor_complex(phi)
        assert str(got.value) == str(want.value)
        assert calls == []
    else:
        assert sum(taylor_complex(phi).ranks()) == 32
        assert {"contraction", "minor"} <= set(calls)


def _taylor_draw(field, g: int, e: int, rank: str) -> Morphism:
    """A seeded g x e morphism over k[x, y, z] with distinct column degrees:
    coefficients drawn at random ("r = 0": none; "r = e": g = e and a unit
    upper triangular matrix); over Q each is a fraction, so uv has scales
    above 1."""
    rng = random.Random(f"{field.name} {g} {e} {rank}")
    first = sorted(rng.sample(range(1, 4 * e), e))
    second = sorted(rng.sample(range(1, 4 * e), e), reverse=True)
    third = rng.sample(range(1, 4 * e), e)
    p = field.characteristic

    def draw():
        if not p:
            return QQ.of(rng.randint(1, 29)) / QQ.of(rng.randint(1, 29))
        return field.of(rng.randint(1, p - 1))

    if rank == "r = 0":
        entries = {}
    elif rank == "r = e":
        entries = {(i, j): field.one if i == j else draw()
                   for i in range(1, g + 1) for j in range(i, e + 1)}
    else:
        entries = {(i, j): draw() for i in range(1, g + 1) for j in range(1, e + 1)}
    phi = Morphism(3, field, list(zip(first, second, third)), [(0, 0, 0)] * g, entries)
    return phi.validate(allow_zero_columns=True)


@pytest.mark.parametrize("rank", ["r = 0", "generic", "r = e"])
@pytest.mark.parametrize("p", [None, 2, 7, 32003])
def test_taylor_complex_builds_no_block_matrix(monkeypatch, p, rank):
    """taylor_complex writes every map above the source from uv's coded
    columns and the minor table: with ``Matrix.mul`` and
    ``Matrix.solve_matrix``, the level writer's block route, made to raise,
    it still equals the full-system oracle ``per_block_complex``, which
    spans it block by block (built before they are patched), over Q with
    fractional uv, GF(2), GF(7) and GF(32003), at r = 0, generic r and
    r = e."""
    field = PrimeField(p) if p else QQ
    g, e = {"r = 0": (2, 6), "generic": (3, 7), "r = e": (3, 3)}[rank]
    phi = _taylor_draw(field, g, e, rank)
    want_rank = {"r = 0": 0, "r = e": e}.get(rank, phi.coeff_data.r)
    assert phi.coeff_data.r == want_rank
    if rank == "generic" and not p:
        assert any(s > 1 for _, s in phi.coeff_data.uv._rows)  # L > 1
    oracle = per_block_complex(phi, full_system(phi))

    def refuse(*args, **kwargs):
        raise AssertionError("the Taylor route built a block Matrix")

    monkeypatch.setattr(Matrix, "mul", refuse)
    monkeypatch.setattr(Matrix, "solve_matrix", refuse)
    assert taylor_complex(phi) == oracle


def test_scarf_and_taylor_builds_share_one_coding_of_uv(monkeypatch):
    """``scarf_complex`` and then ``taylor_complex`` of ex_r3 (r = 3, whose
    Scarf build takes a contraction kernel at m = 1 and writes levels above
    the splice) code each column of uv once in all, e = 7 ``coded_column``
    calls (``CoeffData.contractions``), and each build takes one
    ``MaximalMinors.splice``, of its faces of size r + 1.  The Scarf complex
    of a generic monomial ideal, every face assigned the identity, builds no
    product and solves nothing: with ``Matrix.mul`` and
    ``Matrix.solve_matrix`` made to raise it equals the per-block oracle."""
    from mgres import formats, linalg

    phi = formats.load_morphism(str(DATA / "ex_r3.mmor"))
    r, e = phi.coeff_data.r, phi.e
    coded, splices = [], []
    column, splice = linalg.Matrix.coded_column, linalg.MaximalMinors.splice
    monkeypatch.setattr(linalg.Matrix, "coded_column",
                        lambda self, j: coded.append(j) or column(self, j))
    monkeypatch.setattr(linalg.MaximalMinors, "splice",
                        lambda self, faces: splices.append(faces) or splice(self, faces))
    scarf, taylor = scarf_complex(phi), taylor_complex(phi)
    assert len(coded) <= e and sorted(coded) == list(range(e))
    assert len(splices) == 2 and all(len(f) == r + 1 for faces in splices for f in faces)
    assert len(scarf.levels) > 3 and len(taylor.levels) > 3
    assert scarf == per_block_complex(phi, scarf_system(phi))
    assert taylor == per_block_complex(phi, full_system(phi))
    monkeypatch.undo()

    # x, y and z exponents each distinct across the generators: generic
    ideal = monomial_ideal_morphism([(1, 6, 9), (2, 5, 7), (3, 9, 2), (4, 1, 8), (5, 3, 1),
                                     (6, 8, 4), (7, 2, 6)])
    system = scarf_system(ideal)
    assert all(emb == Matrix.identity(QQ, emb.rows) for emb in system.spaces.values())
    assert max(map(len, system.spaces)) > ideal.coeff_data.r + 1  # a level above the splice
    oracle = per_block_complex(ideal, system)

    def refuse(*args, **kwargs):
        raise AssertionError("an all-identity Scarf build took a product or a solve")

    monkeypatch.setattr(Matrix, "mul", refuse)
    monkeypatch.setattr(Matrix, "solve_matrix", refuse)
    assert scarf_complex(ideal) == oracle


@pytest.mark.parametrize("p", [None, 2, 7, 32003])
def test_scarf_kernel_faces_and_skipped_sizes_match_the_per_block_oracle(p):
    """Clustered draws whose Scarf systems assign proper kernels, solved
    into on the facets, and skip a face size: seed 10 (r = 3, face sizes 6
    and 7), 26 (r = 2, size 4 only) and 60 (r = 2, sizes 4 and 5); over Q
    uv has fractional entries."""
    field = PrimeField(p) if p else QQ
    fractional = False
    for seed in (10, 26, 60):
        phi = clustered_draw(random.Random(seed), field)
        system, r = scarf_system(phi), phi.coeff_data.r
        sizes = {len(face) for face in system.spaces}
        assert set(range(r + 1, max(sizes))) - sizes
        assert any(emb != Matrix.identity(field, emb.rows) for emb in system.spaces.values())
        fractional |= any(s > 1 for _, s in phi.coeff_data.uv._rows)
        assert scarf_complex(phi) == per_block_complex(phi, system)
    assert fractional or p


def _generators_by_level(phi: Morphism, spans: dict) -> tuple[list[list], list[list]]:
    """Per level above the source, the label e{i1,...,ip}#t and the degree,
    the join of the column degrees d_j over j in the face, of each generator
    t = 1, ..., spans[face] of each face, faces by size then lexicographic:
    written out afresh, with no prefix read."""
    r = phi.coeff_data.r
    top = max(map(len, spans), default=r)
    labels, degrees = [[] for _ in range(r + 1, top + 1)], [[] for _ in range(r + 1, top + 1)]
    for face in sorted(spans, key=lambda f: (len(f), f)):
        degree = tuple(max(phi.source_degrees[j - 1][k] for j in face) for k in range(phi.n))
        for t in range(1, spans[face] + 1):
            labels[len(face) - r - 1].append("e{" + ",".join(str(j) for j in face) + "}#" + str(t))
            degrees[len(face) - r - 1].append(degree)
    return labels, degrees


@pytest.mark.parametrize("route", ["taylor", "scarf"])
def test_level_labels_and_degrees_match_a_direct_oracle(route):
    """Every generator t of face F is labeled e{i1,...,ip}#t and has degree
    the join of d_j over j in F: on a Taylor complex with e = 11 (two-digit
    indices) and on a Scarf complex whose faces skip a size, so that a
    face's prefix is no face of the level before."""
    if route == "taylor":
        phi = wide_generic_morphism(11)
        r = phi.coeff_data.r
        x = taylor_complex(phi)
        spans = {face: divided_dim(r, p - r - 1) for p in range(r + 1, phi.e + 1)
                 for face in itertools.combinations(range(1, phi.e + 1), p)}
        assert "e{9,10,11}#1" in x.labels[2]
    else:
        phi = random_morphism(random.Random(86))
        r = phi.coeff_data.r
        x = scarf_complex(phi)
        spans = {face: emb.cols for face, emb in scarf_system(phi).spaces.items()}
        sizes = {len(face) for face in spans}
        assert set(range(r + 1, max(sizes) + 1)) - sizes  # a size with no face
        assert any(face[:-1] not in spans for face in spans if len(face) > r + 1)
    labels, degrees = _generators_by_level(phi, spans)
    assert [list(level) for level in x.labels[2:]] == labels
    assert [list(level) for level in x.levels[2:]] == degrees


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


def _generic_gfp_draw(seed: int, g: int, e: int) -> Morphism:
    """n = 3, incomparable degrees with distinct values per coordinate (as
    the benchmark's generic draws), coefficients 1..29,999 in GF(32003)."""
    rng, field = random.Random(seed), PrimeField(32003)
    first = sorted(rng.sample(range(1, 4 * e), e))
    second = sorted(rng.sample(range(1, 4 * e), e), reverse=True)
    third = rng.sample(range(1, 4 * e), e)
    entries = {(i, j): field.of(rng.randint(1, 29999))
               for i in range(1, g + 1) for j in range(1, e + 1)}
    return Morphism(3, field, list(zip(first, second, third)), [(0, 0, 0)] * g, entries).validate()


def test_minor_table_takes_one_determinant_at_g4_e24(monkeypatch):
    """At generic g = 4, e = 24 the Scarf build asks for uniform rank, so the
    table takes all C(24, 4) = 10,626 minors: each once, by expansion over
    minors it already holds, after one ``_det`` for det A_P.  The Taylor
    build of the same morphism is refused before it asks for any."""
    from mgres import linalg

    computed, sizes = [], []
    minor, coded_det = linalg.MaximalMinors._minor, linalg._det

    def counting_minor(self, cols):
        computed.append(cols)
        return minor(self, cols)

    def recording_coded_det(q, rows):
        sizes.append(len(rows))
        return coded_det(q, rows)

    monkeypatch.setattr(linalg.MaximalMinors, "_minor", counting_minor)
    monkeypatch.setattr(linalg, "_det", recording_coded_det)
    phi = _generic_gfp_draw(2404, 4, 24)
    x = scarf_complex(phi)
    with pytest.raises(TooManyColumns):
        taylor_complex(phi)
    assert phi.is_uniform_rank() and phi.is_combinatorially_generic()
    assert sizes == [4]
    assert sorted(computed) == list(itertools.combinations(range(24), 4))
    assert x.ranks()[:2] == (4, 24) and len(x.ranks()) == 4


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


def _counting_walks(monkeypatch):
    """Record the cap and the table size of every ``DegreeIndex.lattice`` read."""
    from mgres import degrees

    walks, lattice = [], degrees.DegreeIndex.lattice

    def counting(self, cap=None):
        table = lattice(self, cap)
        walks.append((cap, len(table)))
        return table

    monkeypatch.setattr(degrees.DegreeIndex, "lattice", counting)
    return walks


def test_capped_scarf_walk_cuts_each_degree_once(monkeypatch):
    """Under uniform rank with a cap below e, ``scarf_complex`` builds one
    index, over the column degrees, and its capped walk cuts no degree
    twice: the cut that keeps or drops a degree is the I_a the table holds."""
    for phi in (wide_generic_morphism(14), random_generic_minimal(random.Random(38))):
        r = phi.coeff_data.r
        assert phi.is_uniform_rank() and max(r + 1, phi.n + r - 1) < phi.e
        indexes, cuts = spy_degree_cuts(monkeypatch)
        scarf_complex(phi)
        assert indexes == [phi.source_degrees]
        assert len(cuts) == len(set(cuts)) > 0
        monkeypatch.undo()


def test_scarf_on_a_wide_chain_walks_a_bounded_table(monkeypatch):
    """x, x^2, ..., x^200 has uniform rank 1 and n = 1, so the Scarf walk
    keeps the degrees with |I_a| <= max(r + 1, n + r - 1) = 2, x and x^2,
    and takes no kernel: its one face {1, 2} has m = 0."""
    e = 200
    phi = monomial_ideal_morphism([(j,) for j in range(1, e + 1)])
    walks, kernels, k_space = _counting_walks(monkeypatch), [], Morphism.k_space

    def counting_k_space(self, face):
        kernels.append(face)
        return k_space(self, face)

    monkeypatch.setattr(Morphism, "k_space", counting_k_space)
    x = scarf_complex(phi)
    assert x.ranks() == (1, e, 1)
    assert x.level_degrees(2) == ((2,),)
    assert walks == [(2, 2)]
    assert not kernels


@pytest.mark.parametrize("case", ["ex_r3", "generic n = 4"])
def test_scarf_takes_one_contraction_kernel_per_column_set(monkeypatch, case):
    """The Scarf build takes each D_m(K(I^a)) as one kernel of the
    contractions by the columns of I^a, once per distinct (m, I^a): no
    k_space, annihilator or divided_embed.  ex_r3 (r = 3, n = 4) takes one
    kernel at m = 1; the generic draw (n = 4, r = 2) walks 9 degrees that
    need a kernel, over 2 distinct (m, I^a), m = 1 and 2."""
    import sys
    from mgres import formats, lcm_lattice
    from helpers import DATA

    if case == "ex_r3":
        phi = formats.load_morphism(str(DATA / "ex_r3.mmor"))
    else:
        phi = random_generic_minimal(random.Random(38))
        assert phi.n == 4
    r = phi.coeff_data.r
    assert phi.is_uniform_rank()
    # under uniform rank D_m(K(I^a)), m >= 1, is nonzero exactly when |I^a| < r
    needed = [(len(fd.i_a) - r - 1, fd.i_upper_a) for fd in lcm_lattice(phi).nonscarf_data
              if len(fd.i_a) > r + 1 and len(fd.i_upper_a) < r]
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def counting(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)

    spy(Morphism, "k_space")
    for name in ("kernel_basis", "divided_embed"):
        for module in [m for key, m in sys.modules.items() if key.startswith("mgres")]:
            if hasattr(module, name):
                spy(module, name)
    scarf_complex(phi)
    assert set(calls) == {"kernel_basis"}
    assert calls.count("kernel_basis") == len(set(needed)) > 0
    if case == "generic n = 4":
        assert len(needed) == 9 and {m for m, _ in needed} == {1, 2}


def _cloned_column(phi: Morphism) -> Morphism:
    """phi with column 2 a copy of column 1: not uniform rank once r >= 2."""
    entries = {(i, j): v for (i, j), v in phi.entries.items() if j != 2}
    entries.update({(i, 2): v for (i, j), v in phi.entries.items() if j == 1})
    return Morphism(phi.n, phi.field, phi.source_degrees, phi.target_degrees, entries).validate()


@pytest.mark.parametrize("case", ["rank budget", "non-uniform rank"])
def test_scarf_falls_back_to_the_full_table(monkeypatch, case):
    """Past MAX_RANK_SUBSETS, or when C is not uniform rank, the Scarf walk
    is the full table (cap e), raises nothing and equals the oracle that
    takes every kernel on the leq table."""
    from mgres import cli, morphism
    from helpers import DATA, full_table_scarf_system

    rng = random.Random(2026)
    draws = [random_generic_minimal(rng) for _ in range(12)]
    if case == "non-uniform rank":
        draws = [_cloned_column(phi) for phi in draws if phi.coeff_data.r >= 2]
        assert len(draws) >= 4 and not any(phi.is_uniform_rank() for phi in draws)
    # on some draws the uniform-rank cap would be below e
    assert any(max(phi.coeff_data.r + 1, phi.n + phi.coeff_data.r - 1) < phi.e for phi in draws)
    walks = _counting_walks(monkeypatch)
    for phi in draws:
        if case == "rank budget":
            monkeypatch.setattr(morphism, "MAX_RANK_SUBSETS", math.comb(phi.e, phi.coeff_data.r) - 1)
        walks.clear()
        assert scarf_complex(phi) == build_complex(phi, full_table_scarf_system(phi))
        assert walks[0][0] == phi.e
    if case == "rank budget":
        # ex4 has C(4, 2) = 6 column subsets: analyze refuses, scarf does not
        monkeypatch.setattr(morphism, "MAX_RANK_SUBSETS", 5)
        assert cli.run(["scarf", str(DATA / "ex4.mmor"), "--output", "json"]) == 0


def test_contraction_kernel_stacks_fewer_than_r_contractions(monkeypatch, tmp_path, capsys):
    """An I^a of r or more columns is ranked first: when its columns span,
    D_m(K) = 0 with no kernel, else only its pivot columns (fewer than r)
    are stacked.  On cloned-column draws at r >= 2, whose Scarf build walks
    the whole table, and in ``analyze`` of them, no stacked contraction
    matrix holds r or more Delta_l."""
    from mgres import cli, formats, lcm_lattice, multilinear

    rng = random.Random(2026)
    draws = [_cloned_column(phi) for phi in (random_generic_minimal(rng) for _ in range(12))
             if phi.coeff_data.r >= 2]
    stacks, kernel_basis = [], multilinear.kernel_basis

    def counting(m):
        stacks.append((m.rows, m.cols))
        return kernel_basis(m)

    monkeypatch.setattr(multilinear, "kernel_basis", counting)
    wide = 0
    for phi in draws:
        r, path = phi.coeff_data.r, tmp_path / "clone.mmor"
        path.write_text(formats.canonical_dumps(formats.morphism_to_dict(phi)))
        # a stack on D_m is dim D_m wide, dim D_{m-1} rows per Delta_l
        delta_rows = {divided_dim(r, m): divided_dim(r, m - 1) for m in range(1, phi.e)}
        wide += any(len(fd.i_upper_a) >= r for fd in lcm_lattice(phi).nonscarf_data)
        start = len(stacks)
        scarf_complex(phi)
        assert cli.run(["analyze", str(path), "--output", "json"]) == 0
        capsys.readouterr()
        assert all(rows < r * delta_rows[cols] for rows, cols in stacks[start:])
    assert stacks and wide >= 2
