"""Morphism validation, coefficient data, degree-restricted columns,
kernel functionals, and the genericity/rank predicates."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from mgres import (
    QQ,
    CoeffData,
    DimensionError,
    GradedComplex,
    HomogeneityError,
    Matrix,
    MaxRankResult,
    Morphism,
    PrimeField,
    Subspace,
    ZeroColumnError,
    coeff_data_from_matrix,
    join_closure,
    leq,
    taylor_complex,
)
from helpers import (
    check_record,
    int_matrix,
    lattice_columns,
    random_morphism,
    uvw_example,
    wide_generic_morphism,
    xy_example,
)


@pytest.mark.parametrize("p", [0, 7])
def test_elements_are_falsy_exactly_at_zero(p):
    field = PrimeField(p) if p else QQ
    texts = ["0", "-0", "1", "-3"]
    texts += [str(p), str(-p), str(2 * p + 1)] if p else ["0/5", "-3/4", "0.0"]
    values = [field.parse(t) for t in texts]
    for x in values + [field.zero, field.one, -field.one]:
        assert bool(x) == (x != field.zero)
    assert [bool(x) for x in values] == [False, False, True, True] + (
        [False, False, True] if p else [False, True, False]
    )
    # Morphism drops every entry equal to zero, field.zero or a parsed zero alike
    coeffs = dict(enumerate([*values, field.zero], start=1))
    phi = Morphism(1, field, [(1,)] * len(coeffs), [(0,)], {(1, j): x for j, x in coeffs.items()})
    assert sorted(phi.entries) == [(1, j) for j, x in coeffs.items() if x != field.zero]


def test_validate_example():
    phi = xy_example()
    assert phi.shift(2, 1) == (2, 0)
    assert phi.e == 4 and phi.g == 2


def test_validate_rejects_negative_shift():
    phi = xy_example()
    bad = Morphism(
        2,
        QQ,
        phi.source_degrees,
        [(0, 0), (4, 0)],
        phi.entries,
        var_names=("x", "y"),
    )
    with pytest.raises(HomogeneityError) as err:
        bad.validate()
    assert (err.value.row, err.value.col) == (2, 1)


def test_validate_prime_ring_example():
    uvw_example()


def test_validate_rejects_zero_column():
    phi = xy_example()
    entries = {(i, j): v for (i, j), v in phi.entries.items() if j != 4}
    stripped = Morphism(2, QQ, phi.source_degrees, phi.target_degrees, entries)
    with pytest.raises(ZeroColumnError):
        stripped.validate()
    stripped.validate(allow_zero_columns=True)


def test_coeff_data_example():
    cd = xy_example().coeff_data
    assert cd.matrix == int_matrix(QQ, [[1, 1, 1, 1], [1, 2, 3, 0]])
    assert cd.r == 2
    assert cd.image == Subspace(Matrix.identity(QQ, 2))
    assert cd.r == cd.matrix.rows
    assert cd.uv == cd.matrix


def test_coeff_data_record():
    c = int_matrix(QQ, [[1, 2]])
    image = Subspace(Matrix.identity(QQ, 1))
    cd = check_record(
        CoeffData,
        {"matrix": c, "r": 1, "image": image, "uv": c},
        "CoeffData(matrix=Matrix(1x2 over QQ: [1 2]), r=1, "
        "image=Subspace(dim 1 of k^1, basis [[Fraction(1, 1)]]), uv=Matrix(1x2 over QQ: [1 2]))",
        frozen=False,  # the instance dict holds the cached minors
    )
    assert coeff_data_from_matrix(c) == cd
    assert cd.minors is cd.minors


def test_coeff_data_zero_morphism():
    phi = Morphism(2, QQ, [(1, 0)], [(0, 0)], {}).validate(allow_zero_columns=True)
    assert phi.coeff_data.r == 0
    assert phi.coeff_data.image.dim == 0


def test_coeff_data_prime_ring_matches():
    assert uvw_example().coeff_data.matrix == xy_example().coeff_data.matrix


def _columns_leq(phi, a):
    """The columns of degree at most a: ``degree_index.leq`` decoded."""
    return phi.columns(phi.degree_index.leq(a))


def test_columns_leq():
    phi = xy_example()
    assert _columns_leq(phi, (3, 1)) == {1, 2}
    assert _columns_leq(phi, (3, 3)) == {1, 2, 3, 4}
    assert _columns_leq(phi, (0, 0)) == frozenset()


def test_k_space_examples():
    phi = xy_example()
    assert phi.k_space({2}) == Subspace.from_rows(QQ, 2, [[QQ.of(2), QQ.of(-1)]])
    assert phi.k_space({3}) == Subspace.from_rows(QQ, 2, [[QQ.of(3), QQ.of(-1)]])
    assert phi.k_space({2, 3}).dim == 0
    assert phi.k_space(set()) == Subspace(Matrix.identity(QQ, 2))


def test_k_space_antitone():
    rng = random.Random(17)
    import itertools

    for _ in range(20):
        phi = random_morphism(rng)
        idx = list(range(1, phi.e + 1))
        for small in itertools.combinations(idx, min(2, phi.e)):
            for big in itertools.combinations(idx, min(3, phi.e)):
                if set(small) <= set(big):
                    assert phi.k_space(small).contains(phi.k_space(big))


def test_k_space_kills_restricted_images():
    rng = random.Random(23)
    for _ in range(20):
        phi = random_morphism(rng)
        cd = phi.coeff_data
        a = phi.source_degrees[0]
        face = sorted(_columns_leq(phi, a))
        k = phi.k_space(face)
        for v in k.basis.data:
            for j in face:
                col = [cd.uv.data[t][j - 1] for t in range(cd.r)]
                assert sum((x * y for x, y in zip(v, col)), QQ.zero) == QQ.zero


def _gauss_jordan(rows, cols, p):
    """Nonzero rows of the reduced row echelon form and the pivot columns,
    one column at a time (entries are Fractions, or ints mod p)."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(cols):
        k = len(pivots)
        i = next((i for i in range(k, len(m)) if m[i][c] != 0), None)
        if i is None:
            continue
        m[k], m[i] = m[i], m[k]
        inv = pow(m[k][c], -1, p) if p else 1 / m[k][c]
        m[k] = [x * inv % p if p else x * inv for x in m[k]]
        for i in range(len(m)):
            f = m[i][c]
            if i != k and f != 0:
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[k])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def _naive_kernel(rows, cols, p):
    """Canonical basis of {v : rows @ v = 0}: one vector per free column,
    then reduced again."""
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    red, pivots = _gauss_jordan(rows, cols, p)
    spanning = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [zero] * cols
        v[f] = one
        for row, q in zip(red, pivots):
            v[q] = -row[f] % p if p else -row[f]
        spanning.append(v)
    return _gauss_jordan(spanning, cols, p)[0]


@pytest.mark.parametrize("p", [0, 2, 7, 32003])
def test_k_space_matches_naive_gauss_jordan(p):
    """k_space(I) is the kernel of uv[:, I]^T, against a plain Gauss-Jordan,
    on every face of small random morphisms (some columns multiples of
    others), each face given in a shuffled order and as a set; the empty face
    gives all of V*, and an out-of-range index raises on every call."""
    rng = random.Random(20261018 + p)
    field = PrimeField(p) if p else QQ

    def plain(x):
        return x.v if p else Fraction(x)

    def draw():
        return rng.randrange(p) if p else Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    kernel_dims = set()
    for _ in range(25):
        g, e = rng.randint(1, 3), rng.randint(1, 6)
        cols = []
        for _ in range(e):
            if cols and rng.random() < 0.3:
                c = rng.randrange(1, p) if p else rng.choice([-2, -1, 1, 3])
                cols.append([c * x % p if p else c * x for x in rng.choice(cols)])
            else:
                cols.append([draw() for _ in range(g)])
        entries = {
            (i, j): field.of(x) for j, col in enumerate(cols, 1) for i, x in enumerate(col, 1)
        }
        phi = Morphism(1, field, [(1,)] * e, [(0,)] * g, entries)
        cd = phi.coeff_data
        uv = [[plain(x) for x in row] for row in cd.uv.data]
        for size in range(e + 1):
            for face in itertools.combinations(range(1, e + 1), size):
                want = _naive_kernel([[uv[t][j - 1] for t in range(cd.r)] for j in face], cd.r, p)
                shuffled = list(face)
                rng.shuffle(shuffled)
                k = phi.k_space(shuffled)
                assert [[plain(x) for x in v] for v in k.basis.data] == want
                assert phi.k_space(set(face)) == k
                kernel_dims.add(len(want))
        assert phi.k_space(()) == Subspace(Matrix.identity(field, cd.r))
        for bad in ([0], [e + 1], [e + 1, 1]):
            for _ in range(2):
                with pytest.raises(DimensionError):
                    phi.k_space(bad)
    assert {0, 1, 2} <= kernel_dims


def test_uniform_rank_examples():
    assert xy_example().is_uniform_rank()
    assert uvw_example().is_uniform_rank()
    # rank 2, but columns 1 and 2 are parallel: the subset {1, 2} fails
    repeated = Morphism(
        2,
        QQ,
        [(1, 0), (0, 1), (1, 1)],
        [(0, 0), (0, 0)],
        {
            (1, 1): QQ.one,
            (2, 1): QQ.one,
            (1, 2): QQ.one,
            (2, 2): QQ.one,
            (2, 3): QQ.one,
        },
    ).validate()
    assert repeated.coeff_data.r == 2
    assert not repeated.is_uniform_rank()


def test_uniform_rank_reads_the_minor_table(monkeypatch):
    """Once the coefficient data is known, is_uniform_rank takes no rank
    and cuts no submatrix: every answer comes off CoeffData.minors."""
    zero = Morphism(2, QQ, [(1, 0), (0, 1)], [(0, 0)], {}).validate(allow_zero_columns=True)
    cloned = Morphism(1, QQ, [(1,)] * 3, [(0,)] * 2,
                      {(1, 1): QQ.one, (2, 1): QQ.one, (1, 2): QQ.one, (2, 2): QQ.one,
                       (2, 3): QQ.one}).validate()
    cases = [xy_example(), uvw_example(), wide_generic_morphism(9), zero, cloned]
    for phi in cases:
        phi.coeff_data

    def refuse(*args):
        raise AssertionError("is_uniform_rank left the minor table")

    monkeypatch.setattr(Matrix, "rank", refuse)
    monkeypatch.setattr(Matrix, "submatrix", refuse)
    assert [phi.is_uniform_rank() for phi in cases] == [True, True, True, True, False]


def test_minor_table_keeps_one_small_value_per_minor():
    """Walking all 4,060 maximal minors of a 3 x 30 Vandermonde matrix over
    Q leaves under 400 bytes per minor in the table: one coded value each
    (a minor kept as two signed coded 1 x 1 rows took about 770)."""
    e = 30
    entries = {(i, j): QQ.of(j**(i - 1)) for i in (1, 2, 3) for j in range(1, e + 1)}
    phi = Morphism(1, QQ, [(1,)] * e, [(0,)] * 3, entries).validate()
    phi.coeff_data.minors
    tracemalloc.start()
    try:
        assert phi.is_uniform_rank()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained / math.comb(e, 3) < 400


@pytest.mark.parametrize("names", [("x", "x"), ("x", ""), ("x", 3), ("x",), ("x", "y", "z")])
def test_variable_names_are_n_distinct_non_empty_strings(names):
    """The rule the file loaders hold names to holds for a morphism, a
    complex and a complex built from an unvalidated morphism, so the
    library writes no file its loader refuses; a complex given no names
    takes a morphism's default ones."""
    phi = xy_example()
    bad = Morphism(2, QQ, phi.source_degrees, phi.target_degrees, phi.entries, var_names=names)
    with pytest.raises(DimensionError):
        bad.validate()
    with pytest.raises(DimensionError):
        taylor_complex(bad)
    x = taylor_complex(phi)
    with pytest.raises(DimensionError):
        GradedComplex(QQ, 2, x.levels, x.diffs, x.labels, var_names=names)
    assert GradedComplex(QQ, 2, x.levels, x.diffs, x.labels).var_names == ("x", "y")


def test_combinatorially_generic_examples():
    assert xy_example().is_combinatorially_generic()
    assert not uvw_example().is_combinatorially_generic()
    single = Morphism(2, QQ, [(1, 1)], [(0, 0)], {(1, 1): QQ.one}).validate()
    assert single.is_combinatorially_generic()


def test_generic_examples():
    assert xy_example().is_generic()
    assert not uvw_example().is_generic()


def test_generic_zero_morphism_edge():
    # rank 0 makes uniform rank vacuous; the combinatorial test decides
    phi = Morphism(2, QQ, [(1, 0), (0, 1)], [(0, 0)], {}).validate(
        allow_zero_columns=True
    )
    assert phi.is_uniform_rank()
    assert phi.is_generic() == phi.is_combinatorially_generic()


def test_maximal_rank_example():
    assert xy_example().is_maximal_rank_everywhere().ok


def test_max_rank_result_record():
    res = check_record(
        MaxRankResult, {"ok": False, "witness": (1, 1)},
        "MaxRankResult(ok=False, witness=(1, 1))",
    )
    assert not res and not MaxRankResult(False)
    assert MaxRankResult(True) and MaxRankResult(ok=True) == MaxRankResult(True, None)
    assert xy_example().is_maximal_rank_everywhere() == MaxRankResult(True)


def test_maximal_rank_single_rank_one():
    phi = Morphism(
        2,
        QQ,
        [(1, 0), (0, 1)],
        [(0, 0), (0, 0)],
        {(1, 1): QQ.one, (2, 1): QQ.one, (1, 2): QQ.one, (2, 2): QQ.one},
    ).validate()
    assert phi.coeff_data.r == 1
    assert phi.is_maximal_rank_everywhere().ok


def test_maximal_rank_zero_column_witness():
    # the zero column is alone below (1, 1), so rank C_(1,1) = 0 < 1
    phi = Morphism(
        2,
        QQ,
        [(2, 0), (1, 1)],
        [(0, 0), (0, 0)],
        {(1, 1): QQ.one, (2, 1): QQ.one},
    ).validate(allow_zero_columns=True)
    res = phi.is_maximal_rank_everywhere()
    assert not res.ok and res.witness == (1, 1)


def test_restricted_columns_monotone():
    rng = random.Random(31)
    for _ in range(20):
        phi = random_morphism(rng)
        degs = sorted(join_closure(phi.source_degrees))
        for a in degs:
            for b in degs:
                if leq(a, b):
                    assert _columns_leq(phi, a) <= _columns_leq(phi, b)


def test_image_subspaces_monotone():
    rng = random.Random(37)
    for _ in range(15):
        phi = random_morphism(rng)
        cd = phi.coeff_data
        degs = sorted(join_closure(phi.source_degrees))
        spaces = {}
        for a in degs:
            cols = [j - 1 for j in sorted(_columns_leq(phi, a))]
            spaces[a] = Subspace.row_space(cd.matrix.submatrix(range(phi.g), cols).transpose())
        for a in degs:
            for b in degs:
                if leq(a, b):
                    assert spaces[b].contains(spaces[a])


def test_uniform_rank_implies_maximal_rank_everywhere():
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        phi = random_morphism(rng)
        if phi.is_uniform_rank():
            assert phi.is_maximal_rank_everywhere().ok
            checked += 1


def test_maximal_rank_skips_implied_ranks(monkeypatch):
    """A lattice degree whose I_a contains the r columns of an earlier
    (smaller) lattice degree of full rank has rank r without a rank call."""
    calls = []
    rank = Matrix.rank

    def counting(self):
        calls.append(self.cols)
        return rank(self)

    phi = wide_generic_morphism(14)
    r, table = phi.coeff_data.r, lattice_columns(phi)
    bases = [cols for cols in table.values() if len(cols) == r]  # all rank r: uniform rank
    implied = [a for a, cols in table.items() if len(cols) > r and any(b <= cols for b in bases)]
    monkeypatch.setattr(Matrix, "rank", counting)
    assert phi.is_maximal_rank_everywhere().ok
    assert len(calls) == len(table) - len(implied) < len(table) // 4


@pytest.mark.parametrize(
    "sources, targets, entries, match",
    [
        ([], [(0, 0)], {}, "at least one source and one target"),
        ([(1, 0)], [], {}, "at least one source and one target"),
        ([(1, 0)], [(0, 0)], {(1, 2): QQ.one}, r"entry index \(1, 2\) out of range"),
    ],
    ids=["no columns", "no rows", "entry out of range"],
)
def test_validate_refuses_shapes(sources, targets, entries, match):
    with pytest.raises(DimensionError, match=match):
        Morphism(2, QQ, sources, targets, entries).validate()
