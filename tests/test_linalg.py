"""Exact linear algebra: ranks against a brute-force minor oracle, kernels,
column spaces, annihilators, the canonical subspace representation, the
elimination kernel against independent references, and prime moduli."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from mgres import (
    QQ,
    Matrix,
    PrimeField,
    Subspace,
    VectorComplex,
    annihilator_basis,
    column_space_basis,
    kernel_basis,
)
from mgres.errors import DimensionError, FormatError
from helpers import brute_minor_rank, from_columns, mat_vec

C_EX = Matrix.from_int_rows(QQ, [[1, 1, 1, 1], [1, 2, 3, 0]])


def test_rank_example():
    assert C_EX.rank() == 2


def test_rank_zero_matrix():
    assert Matrix.zeros(QQ, 2, 3).rank() == 0


def test_rank_matches_minor_oracle_on_randoms():
    rng = random.Random(20240531)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = Matrix.from_int_rows(
            QQ, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        )
        assert m.rank() == brute_minor_rank(m)
        assert m.rank() == m.transpose().rank()


def test_rank_with_fractions():
    m = Matrix.from_rows(
        QQ,
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]],
    )
    assert m.rank() == brute_minor_rank(m)


def test_rank_six_by_six_exhaustive_oracle():
    rng = random.Random(7)
    for _ in range(10):
        m = Matrix.from_int_rows(
            QQ, [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
        )
        assert m.rank() == brute_minor_rank(m)


def test_kernel_identity_is_zero():
    assert kernel_basis(Matrix.identity(QQ, 3)).dim == 0


def test_kernel_substitutes_back():
    k = kernel_basis(C_EX)
    assert k.dim == 2
    for v in k.basis.data:
        assert all(x == QQ.zero for x in mat_vec(C_EX, list(v)))


def test_kernel_symmetric_pair():
    m = Matrix.from_int_rows(QQ, [[1, -1]])
    k = kernel_basis(m)
    assert k == Subspace.from_rows(QQ, 2, [[QQ.one, QQ.one]])


def test_rank_nullity():
    rng = random.Random(99)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix.from_int_rows(
            QQ, [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]
        )
        assert kernel_basis(m).dim + m.rank() == c


def test_column_space_example_full():
    assert column_space_basis(C_EX) == Subspace(Matrix.identity(QQ, 2))


def test_column_space_zero():
    assert column_space_basis(Matrix.zeros(QQ, 3, 2)).dim == 0


def test_column_space_single_column():
    m = Matrix.from_int_rows(QQ, [[1], [2]])
    assert column_space_basis(m) == Subspace.from_rows(QQ, 2, [[1, 2]])


def test_annihilator_of_line():
    s = Subspace.from_rows(QQ, 2, [[1, 2]])
    ann = annihilator_basis(s)
    assert ann == Subspace.from_rows(QQ, 2, [[2, -1]])


def test_annihilator_of_plane_is_zero():
    s = Subspace.from_rows(QQ, 2, [[1, 2], [1, 3]])
    assert annihilator_basis(s).dim == 0


def test_annihilator_of_zero_is_full():
    s = Subspace(Matrix.zeros(QQ, 0, 4))
    assert annihilator_basis(s) == Subspace(Matrix.identity(QQ, 4))


def test_annihilator_involution():
    rng = random.Random(5)
    for _ in range(25):
        amb = rng.randint(1, 5)
        rows = [
            [rng.randint(-2, 2) for _ in range(amb)] for _ in range(rng.randint(0, amb))
        ]
        s = Subspace.from_rows(QQ, amb, [[QQ.of(x) for x in r] for r in rows])
        assert annihilator_basis(annihilator_basis(s)) == s
        assert annihilator_basis(s).dim == amb - s.dim


def test_subspace_equality_is_canonical():
    a = Subspace.from_rows(QQ, 3, [[QQ.of(2), QQ.of(4), QQ.of(0)]])
    b = Subspace.from_rows(QQ, 3, [[QQ.of(1), QQ.of(2), QQ.of(0)]])
    assert a == b
    assert hash(a) == hash(b)


def test_stack_and_column_copies():
    a = Matrix.from_rows(QQ, [[Fraction(1, 2), 0], [Fraction(3, 4), 2]])
    assert Matrix.stack(QQ, 2, [a, -a]) == Matrix.from_rows(QQ, list(a.data) + list((-a).data))
    with pytest.raises(DimensionError):
        Matrix.stack(QQ, 3, [a])
    # column 0 is (1/2, 3/4), coded once as (2, 3) / 4, written at columns 1 and 3, then 0 and 2
    copies = a.column_copies(0, 4, [(1, 3), (0, 2)])
    half, quarter = Fraction(1, 2), Fraction(3, 4)
    assert copies == Matrix.from_rows(QQ, [[0, half, 0, quarter], [half, 0, quarter, 0]])
    assert a.column_copies(1, 3, [(0, 2)]) == Matrix.from_rows(QQ, [[0, 0, 2]])


def test_solve_and_failure():
    m = Matrix.from_int_rows(QQ, [[1, 2], [3, 4]])
    x = m.solve([QQ.of(5), QQ.of(11)])
    assert mat_vec(m, x) == [QQ.of(5), QQ.of(11)]
    singular = Matrix.from_int_rows(QQ, [[1, 1], [1, 1]])
    assert singular.solve([QQ.of(0), QQ.of(1)]) is None


def test_det_small():
    assert Matrix.from_int_rows(QQ, [[1, 2], [3, 4]]).det() == QQ.of(-2)
    assert Matrix.from_rows(QQ, [], cols=0).det() == QQ.one


def test_prime_field_rank_and_kernel():
    gf = PrimeField(5)
    m = Matrix.from_int_rows(gf, [[1, 2, 3], [2, 4, 6]])
    assert m.rank() == 1
    k = kernel_basis(m)
    assert k.dim == 2
    for v in k.basis.data:
        assert all(x == gf.zero for x in mat_vec(m, list(v)))


def test_prime_field_canonical_representatives():
    gf = PrimeField(7)
    assert gf.of(-1).v == 6
    assert (gf.of(3) / gf.of(5)) * gf.of(5) == gf.of(3)


def test_rationals_lowest_terms():
    x = QQ.parse("4/6")
    assert x.numerator == 2 and x.denominator == 3
    with pytest.raises(Exception):
        QQ.parse("not-a-number")


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "GF(7)"])
def test_sparse_storage_is_canonical_and_private(field):
    """Any column order and explicit zeros store as the dense-built matrix,
    and no mapping handed in or out is the stored row."""
    a, b, c, z = field.of(3), field.of(-2), field.of(5), field.zero
    dense = Matrix.from_rows(field, [[a, z, b], [z, z, z], [z, c, z]])
    given = [{2: b, 1: z, 0: a}, {0: z}, {1: c}]
    m = Matrix.from_nonzero_rows(field, 3, given)
    assert m == dense and hash(m) == hash(dense)
    assert m.data == dense.data == ((a, z, b), (z, z, z), (z, c, z))
    rows = m.nonzero_rows()
    assert rows == [{0: a, 2: b}, {}, {1: c}]
    assert all(list(row) == sorted(row) for row in rows)
    rows[0][1] = c
    rows[2].clear()
    given[0][1] = c
    given[1][2] = a
    assert m == dense and hash(m) == hash(dense)
    assert m.nonzero_rows() == [{0: a, 2: b}, {}, {1: c}]


def test_primality_matches_trial_division():
    for n in range(10**4):
        expected = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        try:
            PrimeField(n)
        except FormatError:
            accepted = False
        else:
            accepted = True
        assert accepted == expected, n


# Independent references for the elimination kernel: Gauss-Jordan on plain
# Fractions or on ints mod p, and the permutation expansion of a determinant.


def _reference_rref(rows, cols, p):
    """Reduced row echelon form and pivot columns, one column at a time."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(cols):
        k = len(pivots)
        r = next((i for i in range(k, len(m)) if m[i][c] != 0), None)
        if r is None:
            continue
        m[k], m[r] = m[r], m[k]
        inv = pow(m[k][c], -1, p) if p else 1 / m[k][c]
        m[k] = [x * inv % p if p else x * inv for x in m[k]]
        for i in range(len(m)):
            f = m[i][c]
            if i != k and f != 0:
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[k])]
        pivots.append(c)
    return m, pivots


def _leibniz_det(rows, p):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total % p if p else total


def _reference_det(rows, p):
    """The signed product of the pivots of a Gaussian elimination with row swaps."""
    m = [list(r) for r in rows]
    det = 1
    for c in range(len(m)):
        r = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det *= m[c][c]
        inv = pow(m[c][c], -1, p) if p else 1 / m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] * inv
            if f != 0:
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[c])]
    return det % p if p else det


def _random_matrix(rng, rows, cols, draw):
    kind = rng.choice(["dense", "low rank", "zero lines"])
    if kind == "low rank" and rows and cols:
        k = rng.randint(0, min(rows, cols))
        a = [[draw() for _ in range(k)] for _ in range(rows)]
        b = [[draw() for _ in range(cols)] for _ in range(k)]
        return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)]
                for i in range(rows)]
    m = [[draw() for _ in range(cols)] for _ in range(rows)]
    if kind == "zero lines":
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            m[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols)):
            for row in m:
                row[j] = 0
    return m


def _strand_matrix(rng, rows, cols, draw):
    """5-10% nonzero like a strand; a square one also gets a nonzero entry on
    a random permutation, so that it is usually invertible."""
    density = rng.uniform(0.05, 0.10)
    m = [[draw() if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    if rows == cols:
        for i, j in enumerate(rng.sample(range(cols), cols)):
            m[i][j] = draw()
    return m


def _seeded_matrices(p, count, band="small"):
    """(field, draw, plain, reduce, rng) and `count` seeded (r, c, ref, m) draws.

    draw gives a plain value (Fraction or int mod p), plain reads an element
    back as one, and ref is the plain form of the matrix m.  The "small"
    band has shapes 0x0..6x6 and small entries.  The "strand" band has a
    square, a wide and then tall matrices, 30-200 rows (30-40 over Q or in
    the first two) and 30-60 columns, 5-10% of the entries nonzero, over Q
    numerators up to 10^6 over denominators up to 9, so that elimination
    meets coefficient growth; its draws are never zero.
    """
    rng = random.Random(20261017 + p)
    if p:
        field = PrimeField(p)
        draw = lambda: rng.randrange(0 if band == "small" else 1, p)  # noqa: E731
        plain = lambda x: x.v  # noqa: E731
    elif band == "small":
        field = QQ
        draw = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))  # noqa: E731
        plain = Fraction
    else:
        field = QQ
        plain = Fraction

        def draw():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 9))

    def reduce(x):
        return x % p if p else x

    def matrices():
        for i in range(count):
            if band == "small":
                r, c = rng.randint(0, 6), rng.randint(0, 6)
                if rng.random() < 0.3:
                    c = r
                plain_rows = _random_matrix(rng, r, c, draw)
            else:
                # square, wide, then tall; the dense references bound the sizes
                r = rng.randint(30, 40 if i < 2 or not p else 200)
                if i == 0:
                    c = r
                elif i == 1:
                    c = rng.randint(r + 1, 60)
                else:
                    c = rng.randint(30, 60 if p else 40)
                plain_rows = _strand_matrix(rng, r, c, draw)
            ref = [[reduce(x) for x in row] for row in plain_rows]
            m = Matrix.from_rows(field, [[field.of(x) for x in row] for row in ref], cols=c)
            yield r, c, ref, m

    return field, draw, plain, reduce, rng, matrices()


@pytest.mark.parametrize("p", [0, 2, 7, 32003])
def test_elimination_kernel_matches_independent_references(p):
    _check_elimination_kernel(p, 150, "small", _leibniz_det)


@pytest.mark.parametrize("p", [0, 2, 7, 32003])
def test_elimination_kernel_matches_references_at_strand_size(p):
    """The sparse kernel on strand-sized sparse matrices, where rows are
    cleared many times over and (over Q) numerators grow between content
    divisions."""
    _check_elimination_kernel(p, 4, "strand", _reference_det)


def _check_elimination_kernel(p, count, band, reference_det):
    field, draw, plain, reduce, rng, matrices = _seeded_matrices(p, count, band)
    lift = field.of

    for r, c, ref, m in matrices:
        red, pivots = _reference_rref(ref, c, p)

        assert m.rank() == len(pivots)
        got, got_pivots = m.rref()
        assert got_pivots == tuple(pivots)
        assert [[plain(x) for x in row] for row in got.data] == red

        if r == c:
            assert plain(m.det()) == reference_det(ref, p)

        kernel = [[plain(x) for x in v] for v in kernel_basis(m).basis.data]
        spanning = []
        for f in (j for j in range(c) if j not in pivots):
            v = [0] * c
            v[f] = 1 if p else Fraction(1)
            for i, q in enumerate(pivots):
                v[q] = reduce(-red[i][f])
            spanning.append(v)
        expected, kernel_pivots = _reference_rref(spanning, c, p)
        assert kernel == expected[: len(kernel_pivots)]
        assert len(kernel) == c - len(pivots)
        assert all(reduce(sum(a * b for a, b in zip(row, v))) == 0 for row in ref for v in kernel)

        x0 = [draw() for _ in range(c)]
        solvable = [reduce(sum(a * b for a, b in zip(row, x0))) for row in ref]
        for b in (solvable, [draw() for _ in range(r)]):
            aug, aug_pivots = _reference_rref([row + [bv] for row, bv in zip(ref, b)], c + 1, p)
            x = m.solve([lift(bv) for bv in b])
            if c in aug_pivots:
                assert x is None
                continue
            want = [0] * c
            for i, q in enumerate(aug_pivots):
                want[q] = aug[i][c]
            assert [plain(v) for v in x] == want


@pytest.mark.parametrize("p", [0, 2, 7, 32003])
def test_solve_matrix_matches_reference_solve_per_column(p):
    """One elimination of [A | B] gives each column's reference solution
    (free variables 0), and None as soon as one column has none."""
    field, draw, plain, reduce, rng, matrices = _seeded_matrices(p, 120)
    outcomes = set()
    for r, c, ref, m in matrices:
        rhs = []
        for _ in range(rng.randint(0, 3)):
            x0 = [draw() for _ in range(c)]
            rhs.append([reduce(sum(a * b for a, b in zip(row, x0))) for row in ref])
        if rng.random() < 0.5:
            rhs.insert(rng.randint(0, len(rhs)), [reduce(draw()) for _ in range(r)])
        want = []
        for b in rhs:
            aug, aug_pivots = _reference_rref([row + [bv] for row, bv in zip(ref, b)], c + 1, p)
            if c in aug_pivots:
                want = None
                break
            x = [0] * c
            for i, q in enumerate(aug_pivots):
                x[q] = aug[i][c]
            want.append(x)
        b = Matrix.from_rows(field, [[field.of(v[i]) for v in rhs] for i in range(r)], len(rhs))
        got = m.solve_matrix(b)
        outcomes.add(want is None)
        if want is None:
            assert got is None
        else:
            assert (got.rows, got.cols) == (c, len(rhs))
            assert [[plain(x) for x in got.col(j)] for j in range(len(rhs))] == want
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", [0, 2, 7, 32003])
def test_sparse_product_matches_naive_references(p):
    """mul, a matrix-vector product, nonzero_rows and pivots against loops over every entry."""
    field, draw, plain, reduce, rng, matrices = _seeded_matrices(p, 150)

    for r, c, ref, m in matrices:
        rows = m.nonzero_rows()
        assert rows == [{j: x for j, x in enumerate(row) if plain(x) != 0} for row in m.data]
        assert all(list(row) == sorted(row) for row in rows)
        assert Matrix.from_nonzero_rows(field, c, rows) == m
        assert m.is_zero() == all(x == 0 for row in ref for x in row)

        red, pivots = _reference_rref(ref, c, p)
        assert Subspace.from_rows(field, c, m.data).pivots() == tuple(pivots)

        v = [draw() for _ in range(c)]
        want = [reduce(sum((a * b for a, b in zip(row, v)), 0)) for row in ref]
        assert [plain(x) for x in mat_vec(m, [field.of(x) for x in v])] == want

        k = rng.randint(0, 6)
        other = [[draw() if rng.random() < 0.5 else 0 for _ in range(k)] for _ in range(c)]
        lifted = Matrix.from_rows(field, [[field.of(x) for x in row] for row in other], k)
        product = m.mul(lifted)
        want = [
            [reduce(sum((ref[i][t] * other[t][j] for t in range(c)), 0)) for j in range(k)]
            for i in range(r)
        ]
        assert (product.rows, product.cols) == (r, k)
        assert [[plain(x) for x in row] for row in product.data] == want
        assert product.is_zero() == all(x == 0 for row in want for x in row)

        # a product that cancels: m times a basis of its own kernel
        kernel = kernel_basis(m).basis
        zero = m.mul(kernel.transpose())
        assert (zero.rows, zero.cols) == (r, kernel.rows)
        assert all(x == field.zero for row in zero.data for x in row)
        assert zero.is_zero()
        assert zero.nonzero_rows() == [{} for _ in range(r)]


@pytest.mark.parametrize("p", [0, 2, 7, 32003])
def test_coded_zero_product_matches_mul(p):
    """mul (every entry) and composes_to_zero against a naive product of the
    plain values, on products that vanish only by cancellation and on ones
    that do not."""
    field, draw, plain, reduce, rng, matrices = _seeded_matrices(p, 150)
    outcomes, cancelled = set(), 0
    for r, c, ref, m in matrices:
        k = rng.randint(1, 4)
        rows = [[field.of(draw()) if rng.random() < 0.5 else field.zero for _ in range(k)]
                for _ in range(c)]
        rand = Matrix.from_rows(field, rows, k)
        # columns in the kernel of m, combined with drawn (over Q fractional) weights
        kernel = kernel_basis(m).basis.data
        weights = [[field.of(draw()) for _ in kernel] for _ in range(k)]
        cols = [[sum((a * v[t] for a, v in zip(w, kernel)), field.zero) for t in range(c)]
                for w in weights]
        killed = from_columns(field, c, cols)
        for b in (rand, killed):
            other = [[plain(x) for x in row] for row in b.data]
            want = [
                [reduce(sum((ref[i][t] * other[t][j] for t in range(c)), 0)) for j in range(k)]
                for i in range(r)
            ]
            zero = all(x == 0 for row in want for x in row)
            product = m.mul(b)
            assert (product.rows, product.cols) == (r, k)
            assert [[plain(x) for x in row] for row in product.data] == want
            assert product.is_zero() == zero
            assert VectorComplex((r, c, k), (m, b)).composes_to_zero() == zero
            outcomes.add(zero)
            cancelled += zero and not m.is_zero() and not b.is_zero()
    assert outcomes == {True, False} and cancelled >= 20


@pytest.mark.parametrize(
    "p, left, right, zero",
    [
        # 1/3 against 2/6: cancels only as fractions
        (0, [[Fraction(1, 3), Fraction(-2, 6)]], [[1], [1]], True),
        # right rows over 2 and 3: zero only when the right factor is coded by columns
        (0, [[1, Fraction(3, 2)]], [[Fraction(1, 2)], [Fraction(-1, 3)]], True),
        # left columns over 2 and 3: zero only when the left factor is coded by rows
        (0, [[Fraction(1, 2), Fraction(1, 3)]], [[2], [-3]], True),
        (0, [[Fraction(1, 3), Fraction(2, 6)]], [[1], [1]], False),
        # zero mod p, but not over Z
        (2, [[1, 1]], [[1], [1]], True),
        (7, [[1, 6], [2, 5]], [[1], [1]], True),
        (32003, [[1, 32002]], [[5], [5]], True),
        # a row zero only mod p, then a nonzero entry: the scan goes on to it
        (7, [[1, 6], [3, 0]], [[1, 0], [1, 0]], False),
        (7, [[1, 6], [3, 0]], [[0, 2], [0, 5]], False),
    ],
)
def test_coded_zero_product_worked_cases(p, left, right, zero):
    field = PrimeField(p) if p else QQ
    a = Matrix.from_rows(field, [[field.of(x) for x in row] for row in left])
    b = Matrix.from_rows(field, [[field.of(x) for x in row] for row in right])
    assert a.mul(b).is_zero() == zero
    assert VectorComplex((a.rows, a.cols, b.cols), (a, b)).composes_to_zero() == zero


@pytest.mark.parametrize(
    "p, left, right, product",
    [
        # row scales 2 and 3: decoded over both
        (0, [[Fraction(1, 2)]], [[Fraction(1, 3)]], [[Fraction(1, 6)]]),
        # right rows over 3 and 1: the first weighs 1, the second 3
        (0, [[Fraction(1, 2), 1]], [[Fraction(1, 3)], [1]], [[Fraction(7, 6)]]),
        (0, [[Fraction(1, 2), Fraction(1, 4)], [Fraction(-2, 3), 0]],
         [[Fraction(1, 5), 0, 3], [Fraction(2, 7), Fraction(-1, 9), 0]],
         [[Fraction(1, 10) + Fraction(1, 14), Fraction(-1, 36), Fraction(3, 2)],
          [Fraction(-2, 15), 0, -2]]),
        # a nonzero row beside one that cancels only as fractions
        (0, [[Fraction(1, 3), Fraction(-1, 6)], [1, 1]], [[1], [2]], [[0], [3]]),
        # sums past p wrap around
        (2, [[1, 1, 1]], [[1], [1], [1]], [[1]]),
        (7, [[3, 4]], [[5], [6]], [[4]]),
        (7, [[6, 6], [1, 6]], [[6, 1], [6, 1]], [[2, 5], [0, 0]]),
        (32003, [[32002, 32002]], [[32002], [2]], [[32002]]),
    ],
)
def test_coded_product_values(p, left, right, product):
    """Entries that decode only with both scales, and mod-p sums that wrap."""
    field = PrimeField(p) if p else QQ
    a = Matrix.from_rows(field, [[field.of(x) for x in row] for row in left])
    b = Matrix.from_rows(field, [[field.of(x) for x in row] for row in right])
    want = Matrix.from_rows(field, [[field.of(x) for x in row] for row in product])
    assert a.mul(b) == want
    assert [mat_vec(a, list(col)) for col in zip(*b.data)] == [list(c) for c in zip(*want.data)]


@pytest.mark.parametrize("band,count", [("small", 150), ("strand", 4)])
@pytest.mark.parametrize("p", [0, 2, 7, 32003])
def test_cancel_matches_naive_row_operations(p, band, count):
    """Matrix.cancel against the same pivots taken on plain rows: each pivot
    row is dropped and every other row r becomes r - (r[q] / pivot[q]) pivot."""
    field, draw, plain, reduce, rng, matrices = _seeded_matrices(p, count, band)

    def rule(i, cols):
        # a pivot that depends on the current support: the last nonzero column
        return max(cols) if cols and i % 3 else None

    for r, c, ref, m in matrices:
        order = [i for i in range(r) if rng.random() < 0.8]
        rng.shuffle(order)
        live = {i: list(ref[i]) for i in order}
        want_pairs = []
        for i in order:
            q = rule(i, [j for j, x in enumerate(live[i]) if x])
            if q is None:
                continue
            want_pairs.append((i, q))
            prow = live.pop(i)
            for row in live.values():
                f = row[q] * pow(prow[q], -1, p) if p else row[q] / prow[q]
                row[:] = [reduce(x - f * y) for x, y in zip(row, prow)]
        got, pairs = m.cancel(order, rule)
        assert pairs == want_pairs
        assert (got.rows, got.cols) == (len(live), c)
        assert [[plain(x) for x in row] for row in got.data] == list(live.values())
        assert got == Matrix.from_nonzero_rows(field, c, got.nonzero_rows())
