"""Divided/exterior bases, boundary and splice matrices, the two complex
families and their exactness laws, and divided-power embeddings."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from mgres import (
    QQ,
    Matrix,
    PrimeField,
    Subspace,
    VectorComplex,
    build_A_complex,
    build_B_complex,
    coeff_data_from_matrix,
    divided_basis,
    divided_dim,
    divided_embed,
    exterior_basis,
)
from mgres.errors import DimensionError
from mgres.multilinear import (
    sigma_matrix_on,
    splice_matrix_on,
)
from mgres.verify import homology_dims, is_exact, is_split_exact
from helpers import (
    ROOT,
    check_record,
    contract,
    contraction_matrix,
    enlarged_subspace,
    from_columns,
    int_matrix,
    mat_vec,
    per_face_splice,
    random_coeff_matrix,
    removal_sign,
    xy_example,
)


def test_multilinear_does_not_import_morphism():
    """``morphism`` imports ``contraction_kernel``, so ``multilinear`` must
    not import ``morphism`` back.  The package ``__init__`` imports every
    module, so the check loads the modules under a bare package module."""
    script = (
        "import sys, types; pkg = types.ModuleType('mgres'); pkg.__path__ = ['src/mgres']; "
        "sys.modules['mgres'] = pkg; import mgres.multilinear; "
        "assert 'mgres.morphism' not in sys.modules, sorted(sys.modules); "
        "import mgres.morphism; "
        "assert mgres.morphism.contraction_kernel is mgres.multilinear.contraction_kernel"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_divided_basis_goldens():
    assert divided_basis(2, 1) == [(1, 0), (0, 1)]
    assert divided_basis(2, 0) == [(0, 0)]
    assert divided_basis(0, 0) == [()]
    assert divided_basis(0, 2) == []
    assert divided_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_divided_dim_formula():
    for r in range(1, 6):
        for m in range(0, 7):
            assert divided_dim(r, m) == math.comb(m + r - 1, r - 1)
            assert len(divided_basis(r, m)) == divided_dim(r, m)


@pytest.mark.parametrize("r, m", [(1, -1), (-1, 2), (2, -1), (0, -1)])
def test_divided_dim_rejects_negative_arguments(r, m):
    # as divided_basis does: neither math.comb's ValueError nor a silent 0
    with pytest.raises(DimensionError):
        divided_basis(r, m)
    with pytest.raises(DimensionError):
        divided_dim(r, m)


@pytest.mark.parametrize("rows", [[], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 2, 0]]],
                         ids=["zero", "full", "line"])
def test_divided_embed_rejects_negative_degree(rows):
    w = Subspace.from_rows(QQ, 3, [[QQ.of(x) for x in row] for row in rows])
    with pytest.raises(DimensionError):
        divided_embed(w, -1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: exterior_basis(3, -1),
        lambda: VectorComplex((1, 1), ()),
        lambda: VectorComplex((1, 2), (Matrix.zeros(QQ, 1, 1),)),
        lambda: sigma_matrix_on(Matrix.identity(QQ, 2), 3, 0, 1, 0),
    ],
    ids=["negative exterior degree", "differential count", "differential shape",
         "boundary index below 1"],
)
def test_multilinear_shape_refusals(build):
    with pytest.raises(DimensionError):
        build()


def test_vector_complex_record():
    one = Matrix.identity(QQ, 1)
    check_record(
        VectorComplex, {"dims": (1, 1), "diffs": (one,)},
        "VectorComplex(dims=(1, 1), diffs=(Matrix(1x1 over QQ: [1]),))",
    )
    with pytest.raises(DimensionError):
        VectorComplex(dims=(1, 2), diffs=(one,))


def test_exterior_basis_goldens():
    assert exterior_basis(4, 3) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert exterior_basis(4, 4) == [(1, 2, 3, 4)]
    assert exterior_basis(4, 0) == [()]


def test_sigma_top_column_golden():
    # the top boundary of the spliced tail for the worked example
    cd = xy_example().coeff_data
    m = sigma_matrix_on(cd.uv, cd.uv.cols, 0, 3, 1)
    assert m.rows == 4 and m.cols == 2
    assert [x for x in m.col(0)] == [QQ.of(c) for c in (-1, 1, -1, 1)]
    assert [x for x in m.col(1)] == [QQ.of(c) for c in (0, 3, -2, 1)]


def test_sigma_single_column_at_top_exterior():
    cd = xy_example().coeff_data
    m = sigma_matrix_on(cd.uv, cd.uv.cols, 2, 3, 1)  # domain is D_3 (x) top exterior power
    assert m.cols == divided_dim(2, 3) * 1


def test_sigma_composes_to_zero():
    rng = random.Random(101)
    for _ in range(25):
        g, e = 3, 5
        uv = random_coeff_matrix(rng, g, e)
        m, k = rng.randint(0, 2), rng.randint(0, 2)
        i = rng.randint(2, e - k)
        hi = sigma_matrix_on(uv, e, m, k, i)
        lo = sigma_matrix_on(uv, e, m, k, i - 1)
        assert lo.mul(hi).is_zero()


def test_splice_goldens():
    cd = xy_example().coeff_data
    spl = splice_matrix_on(cd.uv, cd.uv.cols, cd.r)
    cols = {f: i for i, f in enumerate(exterior_basis(4, 3))}
    assert [x for x in spl.col(cols[(1, 2, 3)])] == [QQ.of(c) for c in (1, -2, 1, 0)]
    assert [x for x in spl.col(cols[(2, 3, 4)])] == [QQ.of(c) for c in (0, -3, 2, 1)]


def test_splice_singular_minor_gives_zero():
    c = int_matrix(QQ, [[1, 2, 0], [2, 4, 1]])
    cd = coeff_data_from_matrix(c)
    spl = splice_matrix_on(cd.uv, cd.uv.cols, cd.r)
    col = spl.col(0)  # the only 3-subset; minor on columns {1,2} is singular
    assert col[2] == QQ.zero


def test_A_complex_dims_formula():
    rng = random.Random(103)
    for _ in range(10):
        c = random_coeff_matrix(rng, rng.randint(1, 3), rng.randint(1, 5))
        cd = coeff_data_from_matrix(c)
        m, k = rng.randint(0, 2), rng.randint(0, 2)
        a = build_A_complex(cd, cd.image, m, k)
        e, r = c.cols, cd.r
        for i, d in enumerate(a.dims):
            assert d == divided_dim(r, m + i) * math.comb(e, k + i)


def test_A_complex_exactness_laws():
    rng = random.Random(107)
    for _ in range(40):
        e = rng.randint(1, 4)
        g = rng.randint(1, 4)
        cd = coeff_data_from_matrix(random_coeff_matrix(rng, g, e))
        im = cd.image
        vsub = im if rng.random() < 0.6 else enlarged_subspace(rng, im)
        for k in range(0, e + 2):
            a = build_A_complex(cd, vsub, 0, k)
            assert a.composes_to_zero()
            assert is_exact(a) == (k >= e or vsub == im)
            if vsub == im and k < cd.r:
                assert is_split_exact(a)
        a = build_A_complex(cd, im, rng.randint(1, 2), 0)
        assert is_split_exact(a)


def test_A_complex_split_exact_for_injective_maps():
    # injective map: split exact in every exterior degree except the top one
    rng = random.Random(211)
    built = 0
    while built < 10:
        e = rng.randint(1, 4)
        c = random_coeff_matrix(rng, e + rng.randint(0, 2), e)
        cd = coeff_data_from_matrix(c)
        if cd.r != e:
            continue
        built += 1
        for k in range(0, e + 2):
            a = build_A_complex(cd, cd.image, 0, k)
            if k != e:
                assert is_split_exact(a)
            else:
                assert is_exact(a) and homology_dims(a)[0] == 1


def test_A_complex_cokernel_dimension():
    rng = random.Random(109)
    for _ in range(30):
        e = rng.randint(1, 5)
        g = rng.randint(1, 4)
        cd = coeff_data_from_matrix(random_coeff_matrix(rng, g, e))
        for k in range(0, e + 1):
            h = homology_dims(build_A_complex(cd, cd.image, 0, k))
            assert h[0] == math.comb(e - cd.r, e - k)


def test_B_complex_dims_example():
    cd = xy_example().coeff_data
    b = build_B_complex(cd, cd.image)
    assert b.dims == (2, 4, 4, 2)


def test_B_complex_exactness_laws():
    rng = random.Random(113)
    for _ in range(40):
        e = rng.randint(1, 5)
        g = rng.randint(1, 4)
        cd = coeff_data_from_matrix(random_coeff_matrix(rng, g, e))
        im = cd.image
        vsub = im if rng.random() < 0.6 else enlarged_subspace(rng, im)
        b = build_B_complex(cd, vsub)
        assert b.composes_to_zero()
        if vsub.dim >= e:
            assert is_exact(b) == (cd.r == e)
        else:
            assert is_exact(b) == (vsub == im)


def test_divided_embed_line():
    k = Subspace.from_rows(QQ, 2, [[QQ.of(2), QQ.of(-1)]])
    e1 = divided_embed(k, 1)
    assert e1.cols == 1
    v = e1.col(0)
    # proportional to (2, -1)
    assert v[0] * QQ.of(-1) == v[1] * QQ.of(2)
    e2 = divided_embed(k, 2)
    v = e2.col(0)
    # proportional to 4 v^(2,0) - 2 v^(1,1) + 1 v^(0,2)
    assert v[0] * QQ.of(-2) == v[1] * QQ.of(4)
    assert v[1] * QQ.of(1) == v[2] * QQ.of(-2)


def test_divided_power_of_a_sum_has_no_multinomial():
    # (v1 + v2)^(2) = v^(2,0) + v^(1,1) + v^(0,2) in divided powers
    k = Subspace.from_rows(QQ, 2, [[QQ.one, QQ.one]])
    assert [x for x in divided_embed(k, 2).col(0)] == [QQ.one, QQ.one, QQ.one]


def test_divided_embed_of_full_space_is_identity():
    k = Subspace(Matrix.identity(QQ, 2))
    for m in range(0, 4):
        assert divided_embed(k, m) == Matrix.identity(QQ, divided_dim(2, m))


def test_divided_embed_degree_zero_is_identity():
    for dim in range(0, 3):
        rows = [[QQ.one if i == j else QQ.zero for j in range(2)] for i in range(dim)]
        k = Subspace.from_rows(QQ, 2, rows)
        assert divided_embed(k, 0) == Matrix.identity(QQ, 1)


def test_divided_embed_zero_space():
    z = Subspace(Matrix.zeros(QQ, 0, 3))
    assert divided_embed(z, 0) == Matrix.identity(QQ, 1)
    assert divided_embed(z, 2).cols == 0


def test_divided_embed_columns_independent_and_functorial():
    rng = random.Random(127)
    for _ in range(20):
        amb = rng.randint(1, 4)
        big_rows = [
            [QQ.of(rng.randint(-2, 2)) for _ in range(amb)]
            for _ in range(rng.randint(1, amb))
        ]
        big = Subspace.from_rows(QQ, amb, big_rows)
        if big.dim == 0:
            continue
        small = Subspace.from_rows(QQ, amb, [big.basis.data[0]])
        for m in range(0, 3):
            eb = divided_embed(big, m)
            es = divided_embed(small, m)
            assert eb.rank() == eb.cols
            # the small embedding factors through the big one
            if es.cols:
                assert eb.solve_matrix(es) is not None


def test_divided_laws_over_prime_field():
    gf = PrimeField(5)
    k = Subspace.from_rows(gf, 2, [[gf.of(2), gf.of(4)]])
    e2 = divided_embed(k, 2)
    assert e2.cols == 1 and e2.rank() == 1
    c = int_matrix(gf, [[1, 2, 3], [0, 1, 4]])
    cd = coeff_data_from_matrix(c)
    b = build_B_complex(cd, cd.image)
    assert b.composes_to_zero()
    assert is_exact(b)


FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]
FIELD_IDS = ["Q", "GF(2)", "GF(7)", "GF(32003)"]


def _random_uv(rng, field, r, e):
    """An r x e pairing matrix with fractional entries over Q and at least
    one zero column."""
    def draw():
        if rng.random() < 0.3:
            return field.zero
        if field == QQ:
            return QQ.of(Fraction(rng.randint(-7, 7), rng.randint(1, 5)))
        return field.of(rng.randrange(field.characteristic))

    cols = [[draw() for _ in range(r)] for _ in range(e)]
    cols[rng.randrange(e)] = [field.zero] * r
    return from_columns(field, r, cols)


def _naive_contraction(uv, l, m, w):
    """(Delta_l w)[c] = sum_j uv[j][l] w[c + e_j], over the basis of D_{m-1}."""
    r = uv.rows
    at = dict(zip(divided_basis(r, m), w))
    u = uv.col(l - 1)
    return [
        sum((u[j] * at[c[:j] + (c[j] + 1,) + c[j + 1 :]] for j in range(r)), uv.field.zero)
        for c in divided_basis(r, m - 1)
    ]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_contraction_matrix_matches_naive_formula(field):
    rng = random.Random(9001 + field.characteristic)
    zero_columns = 0
    for r in range(1, 4):
        for m in range(1, 5):
            e = rng.randint(2, 5)
            uv = _random_uv(rng, field, r, e)
            n_dom = divided_dim(r, m)
            for l in range(1, e + 1):
                delta = contraction_matrix(uv, l, m)
                assert (delta.rows, delta.cols) == (divided_dim(r, m - 1), n_dom)
                units = [[field.one if i == t else field.zero for i in range(n_dom)]
                         for t in range(n_dom)]
                naive = [_naive_contraction(uv, l, m, unit) for unit in units]
                assert delta == from_columns(field, delta.rows, naive)
                w = [field.of(rng.randint(-9, 9)) for _ in range(n_dom)]
                assert mat_vec(delta, w) == _naive_contraction(uv, l, m, w)
                zero_columns += delta.is_zero()
                # contract is the signed kernel applied to w, one facet per position
                face = tuple(sorted(rng.sample(range(1, e + 1), rng.randint(1, e))))
                got = contract(uv, face, w, m)
                assert [sub for sub, _ in got] == [
                    face[:pos] + face[pos + 1 :] for pos in range(len(face))
                ]
                for pos, (_, v) in enumerate(got):
                    want = _naive_contraction(uv, face[pos], m, w)
                    assert v == [x if removal_sign(pos) > 0 else -x for x in want]
    assert zero_columns  # a zero column gives the zero block


def _sigma_from_contract(uv, e, m, k, i):
    """The boundary with one column per basis vector: contract of a dense
    unit vector, each facet's image placed at its offset."""
    field = uv.field
    n_dom, n_cod = divided_dim(uv.rows, m + i), divided_dim(uv.rows, m + i - 1)
    facet_offset = {f: s * n_cod for s, f in enumerate(exterior_basis(e, k + i - 1))}
    cols = []
    for face in exterior_basis(e, k + i):
        for t in range(n_dom):
            unit = [field.one if j == t else field.zero for j in range(n_dom)]
            col = [field.zero] * (len(facet_offset) * n_cod)
            for sub, v in contract(uv, face, unit, m + i):
                col[facet_offset[sub] : facet_offset[sub] + n_cod] = v
            cols.append(col)
    return from_columns(field, len(facet_offset) * n_cod, cols)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_sigma_blocks_match_contract_of_unit_vectors(field):
    rng = random.Random(9002 + field.characteristic)
    for _ in range(30):
        r, e = rng.randint(1, 3), rng.randint(2, 5)
        uv = _random_uv(rng, field, r, e)
        m, k = rng.randint(0, 2), rng.randint(0, e - 1)
        i = rng.randint(1, e - k)
        assert sigma_matrix_on(uv, e, m, k, i) == _sigma_from_contract(uv, e, m, k, i)


def test_complexes_require_vsub_to_contain_the_image():
    c = int_matrix(QQ, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    cd = coeff_data_from_matrix(c)
    line = Subspace.from_rows(QQ, 3, [[QQ.one, QQ.zero, QQ.zero]])
    for build in (
        lambda: build_A_complex(cd, line, 0, 1),
        lambda: build_A_complex(cd, line, 0, 5),  # k > e: still checked first
        lambda: build_B_complex(cd, line),
    ):
        with pytest.raises(DimensionError):
            build()


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)],
    ids=["Q", "GF(2)", "GF(7)", "GF(32003)"],
)
def test_splice_matches_per_face_minors(field):
    """splice_matrix_on shares each maximal minor among the faces holding
    its r-subset; the oracle takes every (face, position) minor afresh.
    Small fields make singular and rank-short draws common."""
    rng = random.Random(9003 + field.characteristic)
    for r in range(5):
        for e in range(r, 9):
            uv = _random_uv(rng, field, r, e) if e else Matrix.zeros(field, r, e)
            got = splice_matrix_on(uv, e, r)
            assert (got.rows, got.cols) == (e, math.comb(e, r + 1))
            assert got == per_face_splice(uv, e, r)


def test_splice_matches_per_face_minors_at_high_rank():
    """A generic 18 x 20 matrix over GF(32003): every maximal minor comes off
    the one echelon form through a determinant of size at most 2."""
    field, rng = PrimeField(32003), random.Random(9004)
    uv = int_matrix(field, [[rng.randrange(32003) for _ in range(20)] for _ in range(18)])
    assert splice_matrix_on(uv, 20, 18) == per_face_splice(uv, 20, 18)
